import numpy as np
import pytest

from helpers import exact_tucker_tensor, synth_block
from tenblock.tensor_core import frobenius_norm, unfold
from tenblock.tucker import (
    TOL0,
    TuckerFactorization,
    hosvd,
    hosvd_tol,
    tucker_compress_abs,
    tucker_reconstruct,
    tucker_storage_count,
)


def test_hosvd_rank_one_outer_product():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([1.0, -1.0])
    w = np.array([2.0, 0.5, 1.0, 4.0])
    x = np.einsum("i,j,k->ijk", u, v, w)
    f = hosvd(x, (1, 1, 1))
    assert f.ranks == (1, 1, 1)
    np.testing.assert_allclose(tucker_reconstruct(f), x, atol=1e-12)


def test_hosvd_exact_at_construction_ranks():
    x = exact_tucker_tensor((20, 20, 10, 16), (3, 4, 2, 5), seed=0)
    f = hosvd(x, (3, 4, 2, 5))
    err = frobenius_norm(tucker_reconstruct(f) - x) / frobenius_norm(x)
    assert err <= 1e-10


def test_hosvd_full_ranks_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6, 4))
    f = hosvd(x, x.shape)
    err = frobenius_norm(tucker_reconstruct(f) - x) / frobenius_norm(x)
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
        frobenius_norm(tucker_reconstruct(f)), rel=1e-8)


def test_hosvd_error_bounded_by_discarded_spectrum():
    rng = np.random.default_rng(4)
    for trial in range(5):
        x = rng.standard_normal((7, 6, 5, 4))
        ranks = tuple(int(rng.integers(1, n + 1)) for n in x.shape)
        f = hosvd(x, ranks)
        err = frobenius_norm(tucker_reconstruct(f) - x)
        tail = 0.0
        for k, r in enumerate(ranks):
            s = np.linalg.svd(unfold(x, k), compute_uv=False)
            tail += float(np.sum(s[r:] ** 2))
        assert err <= np.sqrt(tail) + 1e-9


def test_hosvd_error_monotone_in_rank():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 7, 6))
    errs = []
    for r in range(1, 7):
        f = hosvd(x, (r, r, r))
        errs.append(frobenius_norm(tucker_reconstruct(f) - x))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_hosvd_rank_validation():
    x = np.zeros((3, 4, 5))
    with pytest.raises(ValueError):
        hosvd(x, (3, 4))
    with pytest.raises(ValueError):
        hosvd(x, (0, 4, 5))
    with pytest.raises(ValueError):
        hosvd(x, (4, 4, 5))


def test_hosvd_tol_keeps_dominant_rank():
    x = exact_tucker_tensor((10, 12, 8), (2, 2, 2), seed=6, scale=5.0)
    f = hosvd_tol(x, 1e-10)
    assert f.ranks == (2, 2, 2)


def test_first_candidate_ranks_match_svd_reference():
    x = synth_block()
    ref = []
    for k in range(x.ndim):
        s = np.linalg.svd(unfold(x, k), compute_uv=False)
        ref.append(int(np.count_nonzero(s >= TOL0 * s[0])))
    assert next(TuckerFactorization.candidates(x)).ranks == tuple(ref)


def test_hosvd_tol_tau_one_collapses_to_rank_one():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 6, 7))
    f = hosvd_tol(x, 1.0)
    assert f.ranks == (1, 1, 1)


def test_hosvd_tol_tiny_tau_keeps_full_rank():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 5, 6))
    f = hosvd_tol(x, 1e-15)
    assert f.ranks == (4, 5, 6)


def test_tucker_reconstruct_zero_core():
    from tenblock.tucker import TuckerFactorization
    core = np.zeros((2, 2))
    factors = (np.eye(3)[:, :2], np.eye(4)[:, :2])
    f = TuckerFactorization(core, factors)
    np.testing.assert_array_equal(tucker_reconstruct(f), np.zeros((3, 4)))


def test_tucker_storage_count_examples():
    assert tucker_storage_count([15, 25, 10, 15], [62, 199, 20, 256]) == 66195
    assert tucker_storage_count([1, 1], [5, 5]) == 11
    assert tucker_storage_count([3, 4, 2], [10, 10, 10]) == 24 + 30 + 40 + 20


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
        assert np.max(np.abs(tucker_reconstruct(f) - x)) <= eps


def test_compress_abs_cheap_ranks_for_loose_budget():
    x = exact_tucker_tensor((14, 13, 9), (2, 2, 2), seed=11, scale=3.0)
    f = tucker_compress_abs(x, 1e-6)
    assert all(r <= 2 for r in f.ranks)
    assert np.max(np.abs(tucker_reconstruct(f) - x)) <= 1e-6


def test_compress_abs_quantize_error_measured_after_rounding():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10, 9, 8)) * 100

    def quantize(a):
        return a.astype(np.float32).astype(np.float64)

    eps = 1e-3
    f = tucker_compress_abs(x, eps, quantize=quantize)
    assert np.max(np.abs(tucker_reconstruct(f) - x)) <= eps
    for u in f.factors:
        np.testing.assert_array_equal(u, quantize(u))


def test_compress_abs_validation():
    x = np.ones((3, 3))
    with pytest.raises(ValueError):
        tucker_compress_abs(x, 0.0)
    with pytest.raises(ValueError):
        tucker_compress_abs(x, -1.0)
