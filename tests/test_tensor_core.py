from dataclasses import dataclass

import numpy as np
import pytest

from helpers import mode_product, random_orthonormal
from tenblock import tensor_core
from tenblock.tensor_core import (
    GRAM_CUT_FLOOR,
    GRAM_SLICE_MIN,
    Factorization,
    GappyTensor4,
    budgeted_search,
    chebyshev_norm,
    frobenius_norm,
    left_svd,
    mode_gram,
    rank_from_spectrum,
    unfold,
)


def test_unfold_hand_trace():
    # 2x2x2 tensor with entries 0..7 laid out so that x[i,j,k] = i + 2j + 4k
    x = np.arange(8).reshape(2, 2, 2, order="F")
    m0 = unfold(x, 0)
    assert m0.shape == (2, 4)
    np.testing.assert_array_equal(m0, [[0, 2, 4, 6], [1, 3, 5, 7]])
    m1 = unfold(x, 1)
    np.testing.assert_array_equal(m1, [[0, 1, 4, 5], [2, 3, 6, 7]])
    m2 = unfold(x, 2)
    np.testing.assert_array_equal(m2, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_unfold_column_order_remaining_modes_ascending():
    # column index of unfold(x, 1) must advance fastest along mode 0
    x = np.arange(24, dtype=float).reshape(2, 3, 4, order="F")
    m = unfold(x, 1)
    assert m.shape == (3, 8)
    for j in range(3):
        np.testing.assert_array_equal(m[j], x[:, j, :].ravel(order="F"))


def test_unfold_bad_mode():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        unfold(x, 2)
    with pytest.raises(ValueError):
        unfold(x, -1)


def test_mode_product_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 5))
    for mode in range(3):
        np.testing.assert_allclose(mode_product(x, np.eye(x.shape[mode]), mode), x)


def test_mode_product_matches_unfolding_definition():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5, 3))
    a = rng.standard_normal((7, 5))
    y = mode_product(x, a, 1)
    assert y.shape == (4, 7, 3)
    np.testing.assert_allclose(unfold(y, 1), a @ unfold(x, 1))


def test_mode_products_commute_across_modes():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5, 6))
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 6))
    y1 = mode_product(mode_product(x, a, 0), b, 2)
    y2 = mode_product(mode_product(x, b, 2), a, 0)
    np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_mode_product_same_mode_composes():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 5, 6))
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((2, 3))
    y1 = mode_product(mode_product(x, a, 1), b, 1)
    y2 = mode_product(x, b @ a, 1)
    np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_frobenius_norm_all_ones():
    assert frobenius_norm(np.ones((2, 3, 4))) == pytest.approx(np.sqrt(24.0))


def test_frobenius_norm_equals_unfolding_norm():
    # C-ordered, F-ordered and strided inputs: the norm must not depend on
    # the layout it reads in memory order
    rng = np.random.default_rng(5)
    base = rng.standard_normal((7, 9, 11))
    for x in (base[:3, :4, :5].copy(), np.asfortranarray(base[:3, :4, :5]),
              base[1:7:2, ::-2, 3:8]):
        for mode in range(3):
            assert frobenius_norm(x) == pytest.approx(
                np.linalg.norm(unfold(x, mode)), rel=1e-14)


def test_chebyshev_norm_ignores_nan():
    assert chebyshev_norm(np.array([1.0, np.nan, -5.0])) == 5.0


def test_chebyshev_norm_with_mask():
    x = np.array([1.0, -9.0, 3.0])
    mask = np.array([True, False, True])
    assert chebyshev_norm(x, mask) == 3.0


def test_chebyshev_norm_empty_raises():
    with pytest.raises(ValueError):
        chebyshev_norm(np.array([np.nan, np.nan]))
    with pytest.raises(ValueError):
        chebyshev_norm(np.ones(3), np.zeros(3, dtype=bool))


def test_truncation_error_matches_tail_spectrum():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((20, 14))
    full = np.linalg.svd(m, compute_uv=False)
    r = 5
    u = left_svd(m, 0.0)[0][:, :r]
    err = np.linalg.norm(m - u @ (u.T @ m))
    assert err == pytest.approx(np.sqrt(np.sum(full[r:] ** 2)), rel=1e-10)


def _reference_left_svd(m):
    # NumPy's thin SVD under the sign rule: largest-magnitude entry positive
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    for j in range(u.shape[1]):
        if u[np.argmax(np.abs(u[:, j])), j] < 0:
            u[:, j] *= -1.0
    return u, s


def test_left_svd_gram_route_matches_svd_reference():
    # separated leading spectrum over a tail that reaches below the floor
    rng = np.random.default_rng(12)
    rows, cols = 20, 300
    spectrum = np.concatenate([[10.0, 7.0, 5.0, 3.0, 2.0], np.logspace(-2, -9, rows - 5)])
    m = random_orthonormal(rng, rows, rows) * spectrum @ random_orthonormal(rng, cols, rows).T
    u, s = left_svd(m, 1e-3)
    ref_u, ref_s = _reference_left_svd(m)
    above = ref_s >= GRAM_CUT_FLOOR * ref_s[0]
    assert 5 < above.sum() < rows
    np.testing.assert_allclose(s[above], ref_s[above], rtol=0, atol=1e-8 * ref_s[0])
    np.testing.assert_allclose(u[:, :5], ref_u[:, :5], rtol=0, atol=1e-8)
    np.testing.assert_allclose(u.T @ u, np.eye(rows), atol=1e-12)
    assert np.all(np.diff(s) <= 0)
    for j in range(rows):
        assert u[np.argmax(np.abs(u[:, j])), j] > 0


@pytest.mark.parametrize("shape,cut,gram", [
    ((20, 300), 1e-2, True),
    ((20, 20), GRAM_CUT_FLOOR, True),
    ((20, 300), GRAM_CUT_FLOOR / 10, False),
    ((20, 300), 0.0, False),
    ((300, 20), 1e-2, False),
])
def test_left_svd_route(monkeypatch, shape, cut, gram):
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    m = np.random.default_rng(13).standard_normal(shape)
    u, s = left_svd(m, cut)
    assert calls == ([(shape[0], shape[0])] if gram else [])
    if not gram:
        ref_u, ref_s = _reference_left_svd(m)
        assert np.array_equal(u, ref_u) and np.array_equal(s, ref_s)


def _block_view(field_shape, rect, interval, seed=15):
    # a block x interval subtensor sliced the way compress_dataset slices it
    field = np.random.default_rng(seed).standard_normal(field_shape)
    (x0, x1), (y0, y1), (t0, t1) = rect[0], rect[1], interval
    return field[x0:x1, y0:y1][..., t0:t1]


@pytest.mark.parametrize("slice_min", [0, GRAM_SLICE_MIN, 10**9])
@pytest.mark.parametrize("x", [
    _block_view((9, 8, 3, 20), ((2, 7), (1, 6)), (5, 13)),
    _block_view((6, 40, 8, 70), ((1, 5), (2, 38)), (3, 67)),
    _block_view((9, 8, 1, 20), ((3, 4), (1, 6)), (5, 6)),
    _block_view((9, 8, 3, 20), ((0, 9), (7, 8)), (0, 20)),
    _block_view((9, 80, 12), ((1, 6), (2, 75)), (3, 10)),
], ids=["4d", "4d-wide-slices", "4d-extent1", "4d-one-column", "3d"])
def test_mode_gram_of_view_matches_unfolding(monkeypatch, x, slice_min):
    # every middle mode both as a sum over slices and through the unfolding
    monkeypatch.setattr(tensor_core, "GRAM_SLICE_MIN", slice_min)
    assert not x.flags.c_contiguous
    for k in range(x.ndim):
        m = unfold(x, k)
        ref = m @ m.T
        g = mode_gram(x, k)
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


@dataclass(frozen=True)
class _Values(Factorization):
    """Stub factorization that stores its reconstruction."""

    values: np.ndarray
    kind = "values"

    @property
    def dims(self):
        return self.values.shape

    def arrays(self):
        return [self.values]

    def reconstruct(self):
        return self.values

    @classmethod
    def from_arrays(cls, arrays, dims, fields):
        return cls(arrays[0])

    @staticmethod
    def candidates(x):
        with_nan = x.copy()
        with_nan[1, 2, 0] = np.nan
        yield _Values(with_nan)
        yield _Values(x + 0.25)


def test_budgeted_search_rejects_nan_reconstruction():
    x = np.random.default_rng(14).standard_normal((3, 4, 2))
    [(fac, cheb, _)] = budgeted_search(_Values, [x], 0.5)
    assert not np.isnan(fac.values).any()
    assert cheb == pytest.approx(0.25)


def test_budgeted_search_returns_last_candidate_when_all_fail():
    # no candidate meets the budget: the search ends when the candidates
    # run out, with the last one and its errors
    x = np.random.default_rng(15).standard_normal((3, 4, 2))
    [(fac, cheb, rel)] = budgeted_search(_Values, [x], 0.1)
    np.testing.assert_array_equal(fac.values, x + 0.25)
    assert cheb == pytest.approx(0.25)
    assert rel == pytest.approx(0.25 * np.sqrt(x.size) / np.linalg.norm(x))


def test_rank_from_spectrum():
    s = np.array([1.0, 1e-2, 1e-6])
    assert rank_from_spectrum(s, 1e-3) == 2
    assert rank_from_spectrum(s, 1e-8) == 3
    assert rank_from_spectrum(s, 0.5) == 1
    assert rank_from_spectrum(s, 1.0) == 1
    assert rank_from_spectrum(np.zeros(3), 1e-3) == 1


def _square_field(nx=6, ny=5, nl=3, nt=4, land=((0, 0), (5, 4))):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((nx, ny, nl, nt))
    mask = np.ones((nx, ny), dtype=bool)
    for i, j in land:
        mask[i, j] = False
        values[i, j] = np.nan
    return values, mask


def test_gappy_tensor_accepts_consistent_field():
    values, mask = _square_field()
    g = GappyTensor4(values, mask)
    assert g.dims == (6, 5, 3, 4)
    assert g.defined_count == int(mask.sum()) * 3 * 4


def test_gappy_tensor_rejects_partial_nan_column():
    values, mask = _square_field()
    values[1, 1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        GappyTensor4(values, mask)


def test_gappy_tensor_rejects_defined_value_at_masked_cell():
    values, mask = _square_field()
    values[0, 0] = 0.0  # mask says undefined
    with pytest.raises(ValueError):
        GappyTensor4(values, mask)


def test_gappy_tensor_rejects_inf():
    values, mask = _square_field()
    values[2, 2, 1, 1] = np.inf
    with pytest.raises(ValueError):
        GappyTensor4(values, mask)


def test_gappy_tensor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GappyTensor4(np.zeros((2, 2, 2)), np.ones((2, 2), bool))
    with pytest.raises(ValueError):
        GappyTensor4(np.zeros((2, 2, 2, 2)), np.ones((2, 3), bool))


@pytest.mark.parametrize("cell,value,message", [
    ((1, 1, 0, 0), np.nan, "NaN pattern"),
    ((0, 0, 1, 2), 0.0, "NaN pattern"),
    ((0, 0, 1, 2), np.inf, "NaN pattern"),
    ((2, 2, 1, 1), -np.inf, "finite"),
])
def test_gappy_tensor_names_the_fault(cell, value, message):
    # (0, 0) is a land column; an inf there is neither NaN nor defined
    values, mask = _square_field()
    values[cell] = value
    with pytest.raises(ValueError, match=message):
        GappyTensor4(values, mask)
    with pytest.raises(ValueError, match=message):
        GappyTensor4(np.asfortranarray(values), mask)
