import numpy as np
import pytest

from helpers import exact_tucker_tensor
from tenblock.completion import (
    SvpParams,
    random_mask,
    svp_complete,
    update_rank,
)
from tenblock.tensor_core import frobenius_norm


def test_random_mask_count_and_bounds():
    m = random_mask((10, 10), 2, seed=0)
    assert m.dtype == bool and m.shape == (10, 10)
    assert np.count_nonzero(m) == 50


def test_random_mask_cr_one_observes_everything():
    m = random_mask((6, 7), 1, seed=1)
    assert m.shape == (6, 7) and m.all()


def test_random_mask_sets_the_cells_of_one_draw():
    # floor(N / cr) flat cells drawn without replacement, in row-major order
    m = random_mask((8, 9, 4), 3, seed=2)
    flat = np.random.default_rng(2).choice(8 * 9 * 4, size=96, replace=False)
    expected = np.zeros(8 * 9 * 4, dtype=bool)
    expected[flat] = True
    np.testing.assert_array_equal(m, expected.reshape(8, 9, 4))


def test_random_mask_deterministic():
    a = random_mask((5, 5, 5), 4, seed=7)
    b = random_mask((5, 5, 5), 4, seed=7)
    np.testing.assert_array_equal(a, b)
    c = random_mask((5, 5, 5), 4, seed=8)
    assert not np.array_equal(a, c)


def test_random_mask_validation():
    with pytest.raises(ValueError):
        random_mask((4, 4), 17, seed=0)  # under one observed entry
    with pytest.raises(ValueError):
        random_mask((4, 4), 0.5, seed=0)


def test_update_rank_examples():
    assert update_rank([3, 3, 3, 3], 1, [5, 5, 5, 5]) == [4, 4, 4, 4]
    assert update_rank([5, 5], 1, [5, 5]) == [5, 5]
    assert update_rank([1, 4], 2, [5, 5]) == [3, 5]


def test_svp_params_validation():
    with pytest.raises(ValueError):
        SvpParams((0, 2), eps=1e-3)
    with pytest.raises(ValueError):
        SvpParams((2, 2), eps=-1.0)
    with pytest.raises(ValueError):
        SvpParams((2, 2), delta=0)
    with pytest.raises(ValueError):
        SvpParams((2, 2), max_iters=0)
    # not finite: NaN eps never stops the loop, NaN or inf eta breaks the SVD
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            SvpParams((2, 2), eps=bad)
        with pytest.raises(ValueError, match="eta"):
            SvpParams((2, 2), eta=bad)
    # integer fields take integers only: not bools, not floats
    for ranks in ((True, 2, 2), (2.7, 2, 2)):
        with pytest.raises(ValueError, match="target rank"):
            SvpParams(ranks)
    with pytest.raises(ValueError, match="delta"):
        SvpParams((2, 2), delta=1.5)
    with pytest.raises(ValueError, match="max_iters"):
        SvpParams((2, 2), max_iters=2.5)
    with pytest.raises(ValueError, match="max_iters"):
        SvpParams((2, 2), max_iters=True)
    p = SvpParams((np.int64(3), 2), delta=np.int32(2), max_iters=np.int64(7))
    assert p.target_ranks == (3, 2) and (p.delta, p.max_iters) == (2, 7)
    assert all(type(v) is int for v in (*p.target_ranks, p.delta, p.max_iters))


def test_svp_fully_observed_converges():
    x = exact_tucker_tensor((12, 10, 8), (2, 3, 2), seed=0, scale=4.0)
    mask = random_mask(x.shape, 1, seed=0)
    res = svp_complete(x, mask, SvpParams((2, 3, 2), eps=1e-6))
    assert res.converged
    rel = frobenius_norm(res.completion - x) / frobenius_norm(x)
    assert rel < 1e-6


def test_svp_caps_at_true_rank_recovers_from_quarter_sampling():
    x = exact_tucker_tensor((20, 20, 8, 12), (2, 2, 2, 2), seed=1, scale=5.0)
    mask = random_mask(x.shape, 4, seed=1)
    res = svp_complete(x, mask, SvpParams((2, 2, 2, 2), eps=1e-6, max_iters=500))
    assert res.converged
    full = frobenius_norm(res.completion - x) / frobenius_norm(x)
    assert res.rel_error < 1e-6
    assert full < 1e-4


def test_svp_full_rank_caps_interpolate_in_few_iterations():
    # with eta=1 the gradient step replaces observed entries exactly, and
    # truncation at full ranks is the identity up to roundoff
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 5, 4))
    mask = random_mask(x.shape, 2, seed=2)
    params = SvpParams(x.shape, eps=1e-10, delta=max(x.shape), max_iters=5)
    res = svp_complete(x, mask, params)
    assert res.converged
    assert res.n_iters <= 3
    np.testing.assert_allclose(np.where(mask, res.completion, 0.0),
                               np.where(mask, x, 0.0), atol=1e-9)


def test_svp_nonconvergence_reports_best_iterate():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8, 8))  # full rank, tiny caps
    mask = random_mask(x.shape, 2, seed=3)
    params = SvpParams((1, 1, 1), eps=1e-12, max_iters=3, trace=True)
    res = svp_complete(x, mask, params)
    assert not res.converged
    assert res.n_iters == 3
    assert len(res.trace) == 3
    masked = [t[0] for t in res.trace]
    assert res.rel_error == pytest.approx(min(masked))


def test_svp_trace_lengths_and_monotone_endpoints():
    x = exact_tucker_tensor((10, 10, 6), (2, 2, 2), seed=4, scale=3.0)
    mask = random_mask(x.shape, 2, seed=4)
    res = svp_complete(x, mask, SvpParams((2, 2, 2), eps=1e-5, trace=True))
    assert res.converged
    assert len(res.trace) == res.n_iters
    assert res.trace[-1][0] <= res.trace[0][0]


def test_svp_trace_chebyshev_against_reference():
    x = exact_tucker_tensor((8, 8, 6), (2, 2, 2), seed=5, scale=2.0)
    mask = random_mask(x.shape, 2, seed=5)
    params = SvpParams((2, 2, 2), eps=1e-6, trace=True)
    res = svp_complete(x, mask, params, reference=x)
    cheb = [t[1] for t in res.trace]
    assert cheb[-1] < cheb[0]
    assert cheb[-1] < 1e-4


def test_svp_deterministic():
    x = exact_tucker_tensor((9, 9, 5), (2, 2, 2), seed=6)
    mask = random_mask(x.shape, 3, seed=6)
    params = SvpParams((3, 3, 3), eps=1e-6)
    a = svp_complete(x, mask, params)
    b = svp_complete(x, mask, params)
    assert np.array_equal(a.completion, b.completion)
    assert a.n_iters == b.n_iters and a.rel_error == b.rel_error


def test_svp_input_validation():
    x = np.ones((4, 4))
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        svp_complete(bad, random_mask((4, 4), 1, seed=0), SvpParams((2, 2)))
    # a rank cap above its mode's extent fails up front, naming the mode
    y = np.random.default_rng(0).standard_normal((6, 5, 4))
    for caps, mode in (((9, 9, 9), 0), ((6, 5, 5), 2)):
        with pytest.raises(ValueError, match=f"mode {mode} "):
            svp_complete(y, random_mask(y.shape, 2, seed=0), SvpParams(caps))


@pytest.mark.parametrize("omega, message", [
    (random_mask((4, 4), 2, seed=0).astype(float), "must be boolean"),  # 0/1 floats
    (random_mask((5, 5), 2, seed=0), "mask shape"),
    (random_mask((16,), 2, seed=0), "mask shape"),  # the same cells, raveled
    (np.zeros((4, 4), dtype=bool), "empty observation mask"),
], ids=["float", "larger", "raveled", "all_false"])
def test_svp_rejects_bad_observation_mask(omega, message):
    with pytest.raises(ValueError, match=message):
        svp_complete(np.ones((4, 4)), omega, SvpParams((2, 2)))
