import numpy as np
import pytest

from helpers import exact_tucker_tensor, mode_product, synth_block
from tenblock import tucker
from tenblock.tensor_core import (GRAM_CUT_FLOOR, budgeted_search, frobenius_norm,
                                  mode_left_svd, unfold)
from tenblock.tucker import (
    HEADROOM_STEPS,
    TOL0,
    TuckerFactorization,
    hosvd,
    tucker_storage_count,
)


def tucker_compress_abs(x, eps_max, quantize=None):
    # the budgeted search on one block
    return budgeted_search(TuckerFactorization, [x], eps_max, quantize)[0][0]


def offered(x, stop=lambda fac: False):
    # the candidates the Tucker search offers block x alone, until stop(fac)
    cands = []

    def accept(b, fac):
        cands.append(fac)
        return stop(fac)

    x = np.ascontiguousarray(x, dtype=np.float64)
    TuckerFactorization.search(x[np.newaxis], np.array([frobenius_norm(x)]), accept)
    return cands


def first_candidate(x):
    return offered(x, stop=lambda fac: True)[0]


def test_hosvd_rank_one_outer_product():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, -1.0])
    w = np.array([2.0, 0.5, 1.0, 4.0])
    x = np.einsum("i,j,k->ijk", u, v, w)
    f = hosvd(x, (1, 1, 1))
    assert f.ranks == (1, 1, 1)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-12)


def test_hosvd_exact_at_construction_ranks():
    x = exact_tucker_tensor((20, 20, 10, 16), (3, 4, 2, 5), seed=0)
    f = hosvd(x, (3, 4, 2, 5))
    err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
    assert err <= 1e-10


def test_hosvd_full_ranks_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6, 4))
    f = hosvd(x, x.shape)
    err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
    assert err <= 1e-8


def test_hosvd_factors_orthonormal():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 7, 5, 4))
    f = hosvd(x, (3, 4, 2, 2))
    for u, r in zip(f.factors, f.ranks):
        np.testing.assert_allclose(u.T @ u, np.eye(r), atol=1e-10)


def test_hosvd_core_norm_equals_reconstruction_norm():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5, 7))
    f = hosvd(x, (3, 3, 3))
    assert frobenius_norm(f.core) == pytest.approx(
        frobenius_norm(f.reconstruct()), rel=1e-8)


def _discarded_spectrum(x, ranks):
    # the HOSVD error bound: root of the energy past each rank in the
    # spectrum of the whole block's unfolding
    tail = 0.0
    for k, r in enumerate(ranks):
        s = np.linalg.svd(unfold(x, k), compute_uv=False)
        tail += float(np.sum(s[r:] ** 2))
    return np.sqrt(tail)


def test_hosvd_error_bounded_by_discarded_spectrum():
    rng = np.random.default_rng(4)
    for trial in range(5):
        x = rng.standard_normal((7, 6, 5, 4))
        ranks = tuple(int(rng.integers(1, n + 1)) for n in x.shape)
        f = hosvd(x, ranks)
        err = frobenius_norm(f.reconstruct() - x)
        assert err <= _discarded_spectrum(x, ranks) + 1e-9


def test_hosvd_clips_a_rank_the_projected_unfolding_cannot_hold():
    # modes in ascending extent: mode 0 comes last, when the block is
    # already 7x1x1x1, so its unfolding holds rank 1 and rank 7 is clipped
    x = np.random.default_rng(27).standard_normal((7, 6, 5, 4))
    ranks = (7, 1, 1, 1)
    f = hosvd(x, ranks)
    assert f.ranks == (1, 1, 1, 1)
    assert [u.shape for u in f.factors] == [(n, 1) for n in x.shape]
    for u in f.factors:
        np.testing.assert_allclose(u.T @ u, [[1.0]], rtol=0, atol=1e-12)
    err = frobenius_norm(f.reconstruct() - x)
    assert err <= _discarded_spectrum(x, ranks) + 1e-9


def test_hosvd_error_monotone_in_rank():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 7, 6))
    errs = []
    for r in range(1, 7):
        f = hosvd(x, (r, r, r))
        errs.append(frobenius_norm(f.reconstruct() - x))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_hosvd_rank_validation():
    x = np.zeros((3, 4, 5))
    with pytest.raises(ValueError):
        hosvd(x, (3, 4))
    with pytest.raises(ValueError):
        hosvd(x, (0, 4, 5))
    with pytest.raises(ValueError):
        hosvd(x, (4, 4, 5))


def test_first_candidate_ranks_match_svd_reference():
    x = synth_block()
    ref = []
    for k in range(x.ndim):
        s = np.linalg.svd(unfold(x, k), compute_uv=False)
        ref.append(int(np.count_nonzero(s >= TOL0 * s[0])))
    assert first_candidate(x).ranks == tuple(ref)


def test_tucker_reconstruct_zero_core():
    core = np.zeros((2, 2))
    factors = (np.eye(3)[:, :2], np.eye(4)[:, :2])
    f = TuckerFactorization(core, factors)
    np.testing.assert_array_equal(f.reconstruct(), np.zeros((3, 4)))


def test_tucker_rejects_factors_that_do_not_fit_its_core():
    # one column more than its core rank: reconstruct would fail in matmul
    core = np.zeros((2, 2))
    with pytest.raises(ValueError, match="factor 1 has 3 columns for core rank 2"):
        TuckerFactorization(core, (np.eye(3)[:, :2], np.eye(4)[:, :3]))
    for factors in ((np.eye(3)[:, :2],), (np.eye(3)[:, :2], np.ones((4, 2, 1)))):
        with pytest.raises(ValueError, match="one 2-D factor per mode of its core"):
            TuckerFactorization(core, factors)


def test_tucker_storage_count_examples():
    assert tucker_storage_count([15, 25, 10, 15], [62, 199, 20, 256]) == 66195
    assert tucker_storage_count([1, 1], [5, 5]) == 11
    assert tucker_storage_count([3, 4, 2], [10, 10, 10]) == 24 + 30 + 40 + 20
    # exact past int64: a core of 2**64 elements
    assert tucker_storage_count([2**16] * 4, [2**16] * 4) == 2**64 + 2**34


def test_tucker_storage_count_validation():
    with pytest.raises(ValueError):
        tucker_storage_count([3, 4], [10, 10, 10])
    with pytest.raises(ValueError):
        tucker_storage_count([11, 4, 2], [10, 10, 10])
    with pytest.raises(ValueError):
        tucker_storage_count([0, 4, 2], [10, 10, 10])


def test_n_elements_matches_storage_count():
    x = exact_tucker_tensor((9, 8, 7), (3, 2, 4), seed=9)
    f = hosvd(x, (3, 2, 4))
    assert f.n_elements == tucker_storage_count((3, 2, 4), (9, 8, 7))


def test_compress_abs_meets_budget():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((12, 11, 6, 5))
    for eps in (1e-1, 1e-3):
        f = tucker_compress_abs(x, eps)
        assert np.max(np.abs(f.reconstruct() - x)) <= eps


def test_compress_abs_cheap_ranks_for_loose_budget():
    x = exact_tucker_tensor((14, 13, 9), (2, 2, 2), seed=11, scale=3.0)
    f = tucker_compress_abs(x, 1e-6)
    assert all(r <= 2 for r in f.ranks)
    assert np.max(np.abs(f.reconstruct() - x)) <= 1e-6


def test_compress_abs_quantize_error_measured_after_rounding():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10, 9, 8)) * 100

    def quantize(a):
        return a.astype(np.float32).astype(np.float64)

    eps = 1e-3
    f = tucker_compress_abs(x, eps, quantize=quantize)
    assert np.max(np.abs(f.reconstruct() - x)) <= eps
    for u in f.factors:
        np.testing.assert_array_equal(u, quantize(u))


def test_compress_abs_validation():
    x = np.ones((3, 3))
    with pytest.raises(ValueError):
        tucker_compress_abs(x, 0.0)
    with pytest.raises(ValueError):
        tucker_compress_abs(x, -1.0)


def _reference_tucker_reconstruct(core, factors):
    # the mode_product chain that TuckerFactorization.reconstruct replaced
    x = core
    for k, u in enumerate(factors):
        x = mode_product(x, u, k)
    return x


@pytest.mark.parametrize("dims,ranks", [
    ((6, 5, 4, 7), (3, 2, 4, 2)),
    ((1, 5, 1, 7), (1, 3, 1, 2)),
    ((6, 5, 4), (2, 3, 2)),
    ((9,), (3,)),
    ((4, 3, 2, 5), (4, 3, 2, 5)),
])
def test_tucker_reconstruct_matches_mode_product_chain(dims, ranks):
    rng = np.random.default_rng(22)
    core = rng.standard_normal(ranks)
    factors = tuple(rng.standard_normal((n, r)) for n, r in zip(dims, ranks))
    ref = _reference_tucker_reconstruct(core, factors)
    y = TuckerFactorization(core, factors).reconstruct()
    assert y.shape == dims
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("field_shape,block,cut,gram", [
    # one tall mode: 40 * 40 > 40 * 3 * 2 * 5
    ((50, 6, 2, 9), np.s_[5:45, 1:4, :, 2:7], TOL0, [False, True, True, True]),
    ((50, 6, 2, 9), np.s_[5:45, 1:4, :, 2:7], GRAM_CUT_FLOOR / 10, [False] * 4),
    ((6, 5, 4, 9), np.s_[1:6, 2:3, :, 2:8], GRAM_CUT_FLOOR, [True] * 4),
    ((6, 5, 4, 9), np.s_[1:6, 2:3, :, 2:8], 0.0, [False] * 4),
    ((4, 50, 5), np.s_[1:3, 5:45, 1:4], TOL0, [True, False, True]),
])
def test_mode_bases_of_block_view(monkeypatch, field_shape, block, cut, gram):
    # wide modes cut at or above the floor take eigh of the Gram; tall modes
    # and finer cuts take the SVD of the unfolding, bit for bit
    x = np.random.default_rng(23).standard_normal(field_shape)[block]
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[-1]) or eigh(a))
    bases = [mode_left_svd(x, k, cut) for k in range(x.ndim)]
    assert calls == [n for n, g in zip(x.shape, gram) if g]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for k, (u, s) in enumerate(bases):
        ref_u, ref_s = mode_left_svd(unfold(x, k), 0, cut)
        if gram[k]:
            np.testing.assert_allclose(s, ref_s, rtol=0, atol=1e-12 * ref_s[0])
            np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-10)
        else:
            assert np.array_equal(u, ref_u) and np.array_equal(s, ref_s)


def _projected_core(x, factors):
    core = x
    for k, u in enumerate(factors):
        core = mode_product(core, u.T, k)
    return core


def _escalated(ranks, dims):
    return tuple(min(n, r + max(1, int(np.ceil(0.1 * r)))) for r, n in zip(ranks, dims))


def _rank_one_plus_noise(dims, seed):
    # one dominant rank-one term, so the first ranks are 1, over white
    # noise below the TOL0 cut, so every escalation step is needed
    rng = np.random.default_rng(seed)
    x = np.ones(())
    for n in dims:
        x = np.multiply.outer(x, rng.standard_normal(n))
    return 10.0 * x / np.max(np.abs(x)) + 1e-3 * rng.standard_normal(dims)


@pytest.mark.parametrize("x", [
    synth_block(),
    synth_block()[:, :, :, 5:13],
    np.random.default_rng(24).standard_normal((7, 3, 9, 5)),
    _rank_one_plus_noise((9, 8, 6, 12), 25),
], ids=["block", "interval", "noise", "rank1+noise"])
def test_candidate_cores_are_projections(x):
    # a candidate slices the core of one truncated pass; the slice must equal
    # the block projected onto that candidate's own (prefix) factors
    # hosvd at the first candidate's ranks is the same pass without headroom
    scale = np.max(np.abs(x))
    cands = offered(x)
    for fac in cands + [hosvd(x, cands[0].ranks)]:
        for u in fac.factors:
            np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
        ref = _projected_core(x, fac.factors)
        assert fac.core.shape == ref.shape
        assert np.max(np.abs(fac.core - ref)) <= 1e-12 * scale


def test_noise_block_escalates_past_headroom_to_full_ranks(monkeypatch):
    x = _rank_one_plus_noise((9, 8, 6, 12), 26)
    passes = []
    run = tucker._truncated_pass
    monkeypatch.setattr(tucker, "_truncated_pass",
                        lambda *a: passes.append(a) or run(*a))
    cands = offered(x)
    ranks = [f.ranks for f in cands]
    assert ranks[0] == (1, 1, 1, 1)
    for a, b in zip(ranks, ranks[1:]):
        assert b == _escalated(a, x.shape)
    assert ranks[-1] == x.shape
    # the first pass keeps HEADROOM_STEPS steps past rank 1, so the search
    # reruns the pass several times on its way to full ranks
    assert len(ranks) > HEADROOM_STEPS + 1 and len(passes) > 1
    assert np.max(np.abs(cands[-1].reconstruct() - x)) <= 1e-10
    # and a budget only the full ranks meet ends the search there
    fac = tucker_compress_abs(x, 1e-10)
    assert fac.ranks == x.shape


def test_stack_of_mixed_first_ranks_projects_in_groups_and_matches_each_block(monkeypatch):
    # blocks of one shape whose first ranks differ, so the pass projects
    # them in groups of equal headroom; a rank-one block over noise
    # escalates past its headroom and reruns the pass from a sub-stack.
    # Every block's result is bit for bit that of the block searched alone
    dims = (10, 9, 6, 8)
    blocks = [exact_tucker_tensor(dims, (1, 1, 1, 1), seed=31),
              exact_tucker_tensor(dims, (2, 2, 2, 2), seed=32),
              _rank_one_plus_noise(dims, 33),
              exact_tucker_tensor(dims, (3, 2, 2, 3), seed=34),
              exact_tucker_tensor(dims, (2, 2, 2, 2), seed=35),
              np.zeros(dims)]
    stacks, passes = [], []
    project, run = tucker._project, tucker._truncated_pass
    monkeypatch.setattr(tucker, "_project",
                        lambda y, u, k: stacks.append(len(y)) or project(y, u, k))
    monkeypatch.setattr(tucker, "_truncated_pass",
                        lambda *a: passes.append(len(a[0])) or run(*a))
    found = budgeted_search(TuckerFactorization, blocks, 1e-4)
    monkeypatch.undo()
    assert len({first_candidate(x).ranks for x in blocks}) == 3
    assert min(stacks) < len(blocks) and passes[0] == len(blocks) and 1 in passes[1:]
    assert found[2][0].ranks != first_candidate(blocks[2]).ranks
    for x, (fac, cheb, rel) in zip(blocks, found):
        ref, ref_cheb, ref_rel = budgeted_search(TuckerFactorization, [x], 1e-4)[0]
        assert fac.ranks == ref.ranks
        for a, b in zip(fac.arrays(), ref.arrays()):
            np.testing.assert_array_equal(a, b)
        assert (cheb, rel) == (ref_cheb, ref_rel)
