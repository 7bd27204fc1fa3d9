import math
import sys

import numpy as np
import pytest

from helpers import exact_tt_tensor, interval_stack, qtt_reshape, synth_block
from tenblock import tt
from tenblock.tensor_core import GRAM_CUT_FLOOR, budgeted_search, frobenius_norm, mode_left_svd
from tenblock.tt import (
    TOL_FLOOR,
    QttFactorization,
    TTFactorization,
    _chain_stack,
    _halving_search,
    _prime_factors,
    _qtt_of_chain,
    _stack_left_svd,
    _ttsvd_stack,
    qtt_compress,
    qtt_factorize_modes,
    tt_storage_count,
    ttsvd,
)


def tt_compress_abs(x, eps_max, quantize=None):
    # the budgeted search on one block
    return budgeted_search(TTFactorization, [x], eps_max, quantize)[0][0]


def test_ttsvd_separable_is_rank_one():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, -1.0, 0.5, 2.0])
    w = np.array([2.0, 4.0])
    x = np.einsum("i,j,k->ijk", u, v, w)
    f = ttsvd(x, tol=1e-12)
    assert f.ranks == (1, 1)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-12)


def _reference_tt_ranks(x, tol):
    # the TT-SVD sweep with NumPy's SVD, carrying S * Vt to the next step
    delta = tol * np.linalg.norm(x) / np.sqrt(x.ndim - 1)
    ranks = []
    c, r = x, 1
    for n in x.shape[:-1]:
        _, s, vt = np.linalg.svd(c.reshape(r * n, -1, order="F"), full_matrices=False)
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        r = max(1, int(np.sum(tail > delta**2)))
        ranks.append(r)
        c = s[:r, None] * vt[:r]
    return tuple(ranks)


@pytest.mark.parametrize("quantized", [False, True])
def test_ttsvd_tol_ranks_match_svd_reference(quantized):
    x = synth_block()
    if quantized:
        x = qtt_reshape(x)[0]
    assert ttsvd(x, tol=1e-2).ranks == _reference_tt_ranks(x, 1e-2)


def test_ttsvd_exact_at_construction_ranks():
    x = exact_tt_tensor((16, 16, 16), (2, 3), seed=0)
    f = ttsvd(x, ranks=(2, 3))
    err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
    assert err <= 1e-10


def test_ttsvd_tol_contract():
    rng = np.random.default_rng(1)
    for eps in (1e-1, 1e-2, 1e-4):
        for trial in range(3):
            x = rng.standard_normal((8, 7, 6, 5))
            f = ttsvd(x, tol=eps)
            err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
            assert err <= eps


def test_ttsvd_ranks_clipped_to_unfolding_bounds():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 4, 5))
    f = ttsvd(x, ranks=(100, 100))
    assert f.ranks == (3, 5)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-10)


def test_ttsvd_carriage_chain_consistent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5, 4, 3))
    f = ttsvd(x, tol=1e-2)
    assert f.carriages[0].shape[0] == 1
    assert f.carriages[-1].shape[2] == 1
    for a, b in zip(f.carriages, f.carriages[1:]):
        assert a.shape[2] == b.shape[0]
    assert f.dims == (6, 5, 4, 3)


def test_ttsvd_argument_validation():
    x = np.ones((2, 2))
    with pytest.raises(ValueError):
        ttsvd(x)
    with pytest.raises(ValueError):
        ttsvd(x, tol=1e-2, ranks=(1,))
    with pytest.raises(ValueError):
        ttsvd(x, ranks=(1, 1))  # needs d-1 ranks
    with pytest.raises(ValueError):
        ttsvd(x, tol=-0.5)


def test_ttsvd_tol_zero_is_lossless():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 5, 3))
    f = ttsvd(x, tol=0.0)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-12)


def test_ttsvd_one_mode_tensor():
    x = np.arange(5, dtype=float)
    f = ttsvd(x, tol=1e-12)
    assert f.dims == (5,)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-14)


def test_ttsvd_extent_one_mode():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 1, 4))
    f = ttsvd(x, tol=1e-12)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-12)


def test_tt_storage_count_examples():
    assert tt_storage_count([16, 53, 13], [62, 199, 20, 256]) == 186852
    # (1,3,2) and (2,4,1) carriages
    assert tt_storage_count([2], [3, 4]) == 14
    assert tt_storage_count([], [7]) == 7


def test_tt_storage_count_matches_n_elements():
    x = exact_tt_tensor((6, 7, 8), (2, 3), seed=6)
    f = ttsvd(x, ranks=(2, 3))
    assert f.n_elements == tt_storage_count(f.ranks, f.dims)
    assert f.n_elements == sum(g.size for g in f.carriages)


def test_prime_factors():
    assert _prime_factors(1) == [1]
    assert _prime_factors(2) == [2]
    assert _prime_factors(12) == [2, 2, 3]
    assert _prime_factors(20) == [2, 2, 5]
    assert _prime_factors(7) == [7]
    assert _prime_factors(256) == [2] * 8


def test_qtt_factorize_modes_example():
    assert qtt_factorize_modes([8, 8, 20, 8]) == [
        [2, 2, 2], [2, 2, 2], [2, 2, 5], [2, 2, 2]]
    assert qtt_factorize_modes([1, 6]) == [[1], [2, 3]]


def test_qtt_reshape_preserves_values():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 6))
    fine, factors = qtt_reshape(x)
    assert factors == [[2, 2], [2, 3]]
    assert fine.shape == (2, 2, 2, 3)
    # F-order reshape: first fine index is the fastest within mode 0
    np.testing.assert_array_equal(fine.reshape(4, 6, order="F"), x)


def test_qtt_lossless_at_full_rank():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 4, 8))
    f = qtt_compress(x, tol=1e-14)
    err = frobenius_norm(f.reconstruct() - x) / frobenius_norm(x)
    assert err <= 1e-12
    assert f.dims == (8, 4, 8)
    assert f.mode_factors == ((2, 2, 2), (2, 2), (2, 2, 2))


def test_qtt_constant_tensor_all_rank_one():
    x = np.full((8, 8), 3.5)
    f = qtt_compress(x, tol=1e-12)
    assert all(r == 1 for r in f.tt.ranks)
    np.testing.assert_allclose(f.reconstruct(), x, atol=1e-12)


def test_tt_compress_abs_meets_budget():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((9, 8, 7, 6))
    for eps in (1e-1, 1e-4):
        f = tt_compress_abs(x, eps)
        assert np.max(np.abs(f.reconstruct() - x)) <= eps


def test_tt_compress_abs_qtt_flag():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((8, 8, 4, 8))
    f = budgeted_search(QttFactorization, [x], 1e-3)[0][0]
    assert np.max(np.abs(f.reconstruct() - x)) <= 1e-3


def test_tt_compress_abs_exact_rank_stays_cheap():
    x = exact_tt_tensor((10, 10, 10), (2, 3), seed=11, scale=2.0)
    f = tt_compress_abs(x, 1e-6)
    assert f.ranks[0] <= 2 and f.ranks[1] <= 3
    assert np.max(np.abs(f.reconstruct() - x)) <= 1e-6


def test_tt_compress_abs_quantized_budget():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((8, 7, 6)) * 50

    def quantize(a):
        return a.astype(np.float32).astype(np.float64)

    f = tt_compress_abs(x, 1e-2, quantize=quantize)
    assert np.max(np.abs(f.reconstruct() - x)) <= 1e-2
    for g in f.carriages:
        np.testing.assert_array_equal(g, quantize(g))


def test_tt_compress_abs_validation():
    with pytest.raises(ValueError):
        tt_compress_abs(np.ones((2, 2)), 0.0)


def _reference_tt_reconstruct(carriages):
    # the row-major partial-product loop that TTFactorization.reconstruct replaced
    dims = [g.shape[1] for g in carriages]
    x = carriages[0].reshape(dims[0], -1)
    for g in carriages[1:]:
        r_prev, n, r = g.shape
        x = x @ g.reshape(r_prev, n * r, order="F")
        x = x.reshape(-1, r, order="F")
    return x.reshape(dims, order="F")


def _random_carriages(dims, ranks, seed=21):
    rng = np.random.default_rng(seed)
    bounds = (1,) + tuple(ranks) + (1,)
    return tuple(rng.standard_normal((bounds[k], n, bounds[k + 1]))
                 for k, n in enumerate(dims))


def test_tt_rejects_carriages_that_do_not_chain():
    g = _random_carriages((4, 3, 5), (2, 3))
    with pytest.raises(ValueError, match="carriage 1 rank mismatch"):
        TTFactorization((g[0], g[1][:1], g[2]))
    with pytest.raises(ValueError, match="boundary carriage ranks must be 1"):
        TTFactorization(g[1:])
    for carriages in ((), (g[0][0],)):
        with pytest.raises(ValueError, match="carriages must be 3-D"):
            TTFactorization(carriages)


def test_qtt_rejects_digits_other_than_its_carriage_extents():
    chain = TTFactorization(_random_carriages((2, 2, 3), (2, 2)))
    assert QttFactorization(chain, ((2, 2), (3,))).dims == (4, 3)
    with pytest.raises(ValueError, match="carriage extents"):
        QttFactorization(chain, ((2,), (2, 3), (2,)))
    with pytest.raises(ValueError, match="carriage extents"):
        QttFactorization(chain, ((2, 2), (2,)))


@pytest.mark.parametrize("mode_factors", [None, [1, 2, 3], [[1], [], [2, 3]],
                                          [[1], [2.0], [3]], [[True], [2], [3]]])
def test_qtt_from_arrays_rejects_ill_typed_mode_factors(mode_factors):
    # a float or bool digit compares equal to an int, so only the type check stops it
    arrays = list(_random_carriages((1, 2, 3), (2, 2)))
    assert QttFactorization.from_arrays(arrays, {"mode_factors": [[1], [2], [3]]}).dims == (1, 2, 3)
    with pytest.raises(ValueError, match="integer mode_factors"):
        QttFactorization.from_arrays(arrays, {"mode_factors": mode_factors})


@pytest.mark.parametrize("dims,ranks", [
    ((4, 3, 5, 2), (2, 3, 2)),
    ((7,), ()),
    ((1, 4, 1, 3), (2, 3, 2)),
    ((6, 5), (4,)),
    ((3, 1, 2, 2, 3), (3, 2, 4, 2)),
])
def test_tt_reconstruct_matches_reference_loop(dims, ranks):
    carriages = _random_carriages(dims, ranks)
    ref = _reference_tt_reconstruct(carriages)
    y = TTFactorization(carriages).reconstruct()
    assert y.shape == tuple(dims)
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dims", [(4, 6, 1, 8), (8, 8, 2, 4), (5, 3),
                                  (12,), (1, 12, 1), (12, 1, 6, 5)])
def test_qtt_reconstruct_matches_reference_loop(dims):
    # also one mode (no mode boundary inside the chain to split at), extent-1
    # modes and extents of mixed prime digits (12 = 2*2*3)
    factors = qtt_factorize_modes(dims)
    fine = [p for f in factors for p in f]
    carriages = _random_carriages(fine, [min(3, 1 + k) for k in range(len(fine) - 1)])
    ref = np.reshape(_reference_tt_reconstruct(carriages), dims, order="F")
    f = QttFactorization(TTFactorization(carriages), tuple(tuple(p) for p in factors))
    y = f.reconstruct()
    assert y.shape == dims
    assert y.flags.c_contiguous
    assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


def _layouts(x):
    # the same values C-contiguous, F-contiguous and as a strided view
    big = np.zeros(tuple(2 * n for n in x.shape))
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": view}


def _reference_ttsvd(x, tol=None, ranks=None):
    # the sweep as it was before the remainder was carried F-contiguous:
    # u.T @ c, then a copying reshape into F order at every step
    dims, d = x.shape, x.ndim
    if d == 1:
        return (x.reshape(1, dims[0], 1),)
    cut = 0.0 if tol is None else tol / np.sqrt(d - 1)
    delta = None if tol is None else cut * frobenius_norm(x)
    carriages = []
    r_prev = 1
    c = np.reshape(x, (dims[0], -1), order="F")
    for k in range(d - 1):
        u, s = mode_left_svd(c, 0, cut)
        if delta is not None:
            tail = np.cumsum(s[::-1] ** 2)[::-1]
            r = max(1, int(np.sum(tail > delta**2)))
        else:
            r = min(ranks[k], s.size)
        u = u[:, :r]
        carriages.append(np.reshape(u, (r_prev, dims[k], r), order="F"))
        r_prev = r
        c = np.reshape(u.T @ c, (r_prev * dims[k + 1], -1), order="F")
    carriages.append(np.reshape(c, (r_prev, dims[-1], 1), order="F"))
    return tuple(carriages)


_SWEEP_CASES = [
    (synth_block(), {"tol": 1e-2}),
    (synth_block(), {"ranks": (3, 5, 4)}),
    (np.random.default_rng(3).standard_normal(7), {"tol": 1e-2}),
    (np.random.default_rng(3).standard_normal(7), {"ranks": ()}),
    (np.random.default_rng(4).standard_normal((5, 1, 6)), {"tol": 1e-2}),
    (np.random.default_rng(4).standard_normal((5, 1, 6)), {"ranks": (3, 9)}),
    (np.random.default_rng(5).standard_normal((1, 4, 1, 3)), {"ranks": (2, 2, 2)}),
]


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("x,kw", _SWEEP_CASES)
def test_ttsvd_matches_reference_sweep_on_every_layout(x, kw, layout):
    v = _layouts(x)[layout]
    f = ttsvd(v, **kw)
    ref = _reference_ttsvd(_layouts(x)["C"], **kw)
    assert [g.shape for g in f.carriages] == [g.shape for g in ref]
    scale = max(1.0, float(np.max(np.abs(x))))
    for g, h in zip(f.carriages, ref):
        assert np.max(np.abs(g - h)) <= 1e-12 * scale


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("x,kw", [
    (synth_block()[:, :, :, :8], {"tol": 1e-2}),
    (np.random.default_rng(6).standard_normal((4, 6, 1, 8)), {"tol": 1e-2}),
    (np.random.default_rng(6).standard_normal((4, 6, 1, 8)), {"ranks": (2, 3, 4, 4, 2, 3, 3)}),
    (np.random.default_rng(7).standard_normal(12), {"ranks": (2, 3)}),
    (np.random.default_rng(7).standard_normal(7), {"tol": 1e-2}),
])
def test_qtt_compress_matches_reference_sweep_on_every_layout(x, kw, layout):
    f = qtt_compress(_layouts(x)[layout], **kw)
    ref = _reference_ttsvd(qtt_reshape(_layouts(x)["C"])[0], **kw)
    assert [g.shape for g in f.tt.carriages] == [g.shape for g in ref]
    scale = max(1.0, float(np.max(np.abs(x))))
    for g, h in zip(f.tt.carriages, ref):
        assert np.max(np.abs(g - h)) <= 1e-12 * scale


@pytest.mark.parametrize("kw", [{"tol": 1e-2}, {"ranks": (3, 5, 4)}])
def test_ttsvd_sweep_of_c_block_reshapes_views(monkeypatch, kw):
    # on a C-contiguous block every step's stack of matrices is a view: of
    # the block first, then of the product that carries the remainder
    x = np.ascontiguousarray(synth_block())
    seen = []
    reshape = np.reshape

    def recording(a, *args, **kwargs):
        out = reshape(a, *args, **kwargs)
        if sys._getframe(1).f_globals.get("__name__") == "tenblock.tt" and out.ndim == 3:
            seen.append(np.shares_memory(out, a))
        return out

    monkeypatch.setattr(np, "reshape", recording)
    ttsvd(x, **kw)
    monkeypatch.undo()
    assert seen == [True] * x.ndim


def test_halving_sweeps_share_the_search_stack(monkeypatch):
    # the first round sweeps the stack as it is given, each later one only
    # the blocks that failed, sliced from it, with their norms
    x = synth_block()
    stack = np.stack([x[..., 0:8], x[..., 8:16], x[..., 16:24]])
    norms = np.array([1.0, 2.0, 3.0])
    seen, offered = [], []

    def sweep(a, tol, norms, first_step):
        seen.append((a, norms))
        return [tol] * len(a)

    def accept(b, tol):
        offered.append((b, tol))
        return (b, tol) in {(1, 1e-2), (0, 5e-3), (2, 2.5e-3)}

    _halving_search(sweep, stack, norms, accept)
    assert offered == [(0, 1e-2), (1, 1e-2), (2, 1e-2), (0, 5e-3), (2, 5e-3), (2, 2.5e-3)]
    assert seen[0][0] is stack
    assert len(seen) == 3
    for (a, a_norms), blocks in zip(seen, ([0, 1, 2], [0, 2], [2])):
        assert a.flags.c_contiguous
        np.testing.assert_array_equal(a_norms, norms[blocks])
        for i, b in enumerate(blocks):
            np.testing.assert_array_equal(a[i], stack[b])

    # in a TT search the first sweep reads budgeted_search's own stack
    stacks, swept = [], []
    search, stack_sweep = TTFactorization.search, tt._ttsvd_stack

    def recording_search(stack, norms, accept):
        stacks.append(stack)
        search(stack, norms, accept)

    def recording_sweep(a, **kwargs):
        swept.append(a)
        return stack_sweep(a, **kwargs)

    monkeypatch.setattr(TTFactorization, "search", staticmethod(recording_search))
    monkeypatch.setattr(tt, "_ttsvd_stack", recording_sweep)
    budgeted_search(TTFactorization, [x[..., 0:8], x[..., 8:16]], 1e-3)
    assert len(swept) > 1
    assert swept[0] is stacks[0] and stacks[0].flags.c_contiguous


def test_halving_search_stops_below_the_floor():
    # a block that never meets its budget is swept until the first
    # tolerance below TOL_FLOOR: 1e-2 / 2**47, the 48th round
    tols = []

    def accept(b, tol):
        tols.append(tol)
        return False

    _halving_search(lambda a, tol, norms, first_step: [tol] * len(a), np.zeros((1, 2, 2)),
                    np.zeros(1), accept)
    assert tols == [1e-2 / 2.0**k for k in range(48)]
    assert tols[-2] >= TOL_FLOOR > tols[-1]


@pytest.mark.parametrize("shape,cut", [((6, 40), GRAM_CUT_FLOOR), ((40, 6), 1e-2)],
                         ids=["gram", "svd"])
def test_stack_left_svd_of_one_matrix_is_left_svd(shape, cut):
    # a stack of one unpadded matrix takes the same route and sign rule as
    # the matrix alone, bit for bit
    m = np.random.default_rng(21).standard_normal(shape)
    u, s = _stack_left_svd(m[np.newaxis], [shape[0]], cut)
    ref_u, ref_s = mode_left_svd(m, 0, cut)
    np.testing.assert_array_equal(u[0], ref_u)
    np.testing.assert_array_equal(s[0], ref_s)


def test_tt_and_qtt_reconstruct_c_ordered():
    f = TTFactorization(_random_carriages((4, 3, 5, 2), (2, 3, 2)))
    assert f.reconstruct().flags.c_contiguous
    # as archived: carriages read back in F order
    g = TTFactorization(tuple(np.asfortranarray(c) for c in f.carriages))
    assert g.reconstruct().flags.c_contiguous
    np.testing.assert_array_equal(g.reconstruct(), f.reconstruct())
    q = qtt_compress(synth_block()[:, :, :, :8], tol=1e-2)
    assert q.reconstruct().flags.c_contiguous
    archived = QttFactorization(TTFactorization(tuple(np.asfortranarray(c) for c in q.arrays())),
                                q.mode_factors)
    assert archived.reconstruct().flags.c_contiguous
    np.testing.assert_array_equal(archived.reconstruct(), q.reconstruct())


@pytest.mark.parametrize("cut", [1e-2, 1e-9], ids=["gram", "svd"])
def test_stack_left_svd_sorts_padding_last(cut):
    # rank index slowest with rank 1, 2 and 3 padded to 3, so each block's
    # own rows come first: a constant (rank-deficient) block, an all-zero
    # one and a full-rank one.  Each block's own directions come first,
    # orthonormal on its own rows; its padded directions follow with S = 0,
    # and no column has a padded entry
    n_k, cols = 4, 40
    r_prev = [1, 2, 3]
    rows = [r * n_k for r in r_prev]
    real = np.arange(3 * n_k) < np.array(rows)[:, None]
    c = np.zeros((3, 3 * n_k, cols))
    c[0][real[0]] = 1.0
    c[2][real[2]] = np.random.default_rng(8).standard_normal((3 * n_k, cols))
    u, s = _stack_left_svd(c, rows, cut)
    for b, rw in enumerate(rows):
        own = u[b][real[b]][:, :rw]
        np.testing.assert_allclose(own.T @ own, np.eye(rw), rtol=0, atol=1e-12)
        assert not u[b][~real[b]].any()
        assert not s[b, rw:].any()
    np.testing.assert_array_equal(u[1][:, 0], np.eye(3 * n_k)[0])  # zero spectrum


def _qtt_stack(x, **kwargs):
    # qtt_compress of every block x[b] of the stack x, in one sweep
    return _qtt_of_chain(x.shape[1:], _chain_stack(x), **kwargs)


@pytest.mark.parametrize("sweep", [_ttsvd_stack, _qtt_stack], ids=["tt", "qtt"])
@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-9])
def test_stacked_sweep_keeps_no_padded_direction(sweep, tol):
    # every kept carriage is left-orthonormal on its own rows: a padded
    # direction would show as a (near) zero column
    x = np.stack(interval_stack())
    facs = sweep(x, tol=tol)
    assert len({f.ranks for f in facs}) > 1  # the stack is padded
    for f in facs:
        carriages = f.arrays()
        for g in carriages[:-1]:
            assert g.flags.c_contiguous
            m = g.reshape(-1, g.shape[2])
            np.testing.assert_allclose(m.T @ m, np.eye(g.shape[2]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("sweep", [_ttsvd_stack, _qtt_stack], ids=["tt", "qtt"])
def test_stacked_sweep_matches_each_block_alone(sweep):
    # same ranks as each block swept alone, carriages within rounding
    blocks = interval_stack()
    x = np.stack(blocks)
    for b, f in enumerate(sweep(x, tol=1e-2)):
        alone = sweep(blocks[b][np.newaxis], tol=1e-2)[0]
        assert f.ranks == alone.ranks
        scale = max(1.0, float(np.max(np.abs(blocks[b]))))
        for g, h in zip(f.arrays(), alone.arrays()):
            assert np.max(np.abs(g - h)) <= 1e-9 * scale


def test_halving_search_takes_each_first_step_once(monkeypatch):
    # a block's first basis does not depend on the sweep tolerance: over a
    # search of three or more rounds the first step runs once per block,
    # and the search finds what sweeps that each recompute it find
    x = synth_block()
    blocks = [x[..., 0:8], x[..., 8:16], x[..., 16:24]]
    first_cols = math.prod(blocks[0].shape[1:])  # the first unfolding's columns
    firsts, rounds = [], []
    left_svd, sweep = tt._stack_left_svd, tt._ttsvd_stack

    def spy_left_svd(c, rows, cut):
        if c.shape[2] == first_cols:
            firsts.append(len(c))
        return left_svd(c, rows, cut)

    def spy_sweep(a, **kwargs):
        rounds.append(len(a))
        return sweep(a, **kwargs)

    monkeypatch.setattr(tt, "_stack_left_svd", spy_left_svd)
    monkeypatch.setattr(tt, "_ttsvd_stack", spy_sweep)
    found = budgeted_search(TTFactorization, blocks, 2e-4)
    assert len(rounds) >= 3 and firsts == [len(blocks)]
    monkeypatch.setattr(tt, "_ttsvd_stack", lambda a, first_step, **kwargs: sweep(a, **kwargs))
    fresh = budgeted_search(TTFactorization, blocks, 2e-4)
    assert sum(firsts) == len(blocks) + sum(rounds)  # the fresh sweeps recompute it
    for (fac, cheb, rel), (ref, ref_cheb, ref_rel) in zip(found, fresh):
        for a, b in zip(fac.arrays(), ref.arrays()):
            np.testing.assert_array_equal(a, b)
        assert (cheb, rel) == (ref_cheb, ref_rel)
