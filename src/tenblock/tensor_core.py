"""Dense multiway-array primitives: unfoldings, mode products, norms,
masked projection, a deterministic truncated SVD, and the interface and
error-budgeted search shared by the block factorizations.

Tensors are plain ``numpy.ndarray`` objects in float64.  Whenever a linear
(flat) ordering of entries matters -- unfolding columns, serialization --
the convention is Fortran order: the first index varies fastest, then the
second, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np


@dataclass(frozen=True)
class GappyTensor4:
    """4-D field (x, y, depth, time) with horizontally structured gaps.

    ``values`` carries NaN at every missing cell and ``domain_mask`` is the
    x-y grid of defined (ocean) positions; a cell is missing exactly when
    its horizontal position is masked out, for every depth and time.
    """

    values: np.ndarray
    domain_mask: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.domain_mask, dtype=bool)
        if v.ndim != 4:
            raise ValueError(f"values must be 4-D, got {v.ndim}-D")
        if m.shape != v.shape[:2]:
            raise ValueError(f"mask shape {m.shape} does not match grid {v.shape[:2]}")
        nan_cols = np.isnan(v)
        if np.any(nan_cols != ~m[:, :, None, None]):
            raise ValueError("NaN pattern inconsistent with domain mask")
        if not np.all(np.isfinite(v[m])):
            raise ValueError("defined values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "domain_mask", m)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.values.shape

    @property
    def defined_count(self) -> int:
        return int(self.domain_mask.sum()) * self.values.shape[2] * self.values.shape[3]


class FormatError(ValueError):
    """Malformed file input (also raised by a factorization's record checks)."""


QuantizeFn = Callable[[np.ndarray], np.ndarray]


class Factorization:
    """A block factorization kind (``kind`` names its method and archive
    records): ``dims``, ``ranks``, ``arrays()`` in archive order and
    ``reconstruct()``; per class ``candidates(x)`` (smallest first),
    ``check_header`` and ``from_arrays``, the inverse of ``arrays()``."""

    kind: ClassVar[str]
    pow2_blocks: ClassVar[bool] = False  # wants power-of-two block sides

    @property
    def n_elements(self) -> int:
        return int(sum(a.size for a in self.arrays()))

    def header_fields(self) -> dict:
        return {}


def budgeted_search(cls: type[Factorization], x: np.ndarray, eps_max: float,
                    quantize: QuantizeFn | None = None) -> tuple[Factorization, float, float]:
    """First of ``cls.candidates(x)`` within ``eps_max`` of ``x`` in the
    Chebyshev norm (else the last) as ``(fac, cheb_error, rel_frob_error)``,
    measured after ``quantize`` (e.g. a float32 round trip) of its arrays.
    The Frobenius error is absolute for an all-zero ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    for fac in cls.candidates(x):
        if quantize is not None:
            fac = cls.from_arrays([quantize(a) for a in fac.arrays()],
                                  fac.dims, fac.header_fields())
        diff = fac.reconstruct() - x
        cheb = chebyshev_norm(diff)
        if cheb <= eps_max:
            break
    return fac, cheb, frobenius_norm(diff) / (frobenius_norm(x) or 1.0)


class SvdResult(NamedTuple):
    """Thin SVD with a fixed sign convention (see :func:`truncated_svd`)."""

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray


def _check_mode(x: np.ndarray, mode: int) -> None:
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for {x.ndim}-way tensor")


def unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``x`` along ``mode`` (0-based).

    Rows run over the ``mode`` index; columns run over the remaining
    indices with the first one varying fastest.
    """
    x = np.asarray(x)
    _check_mode(x, mode)
    return np.reshape(np.moveaxis(x, mode, 0), (x.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    m = np.asarray(m)
    dims = tuple(int(n) for n in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    rest = tuple(n for i, n in enumerate(dims) if i != mode)
    expected = (dims[mode], int(np.prod(rest, dtype=np.int64)))
    if m.ndim != 2 or m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match {expected} for dims {dims}")
    return np.moveaxis(np.reshape(m, (dims[mode],) + rest, order="F"), 0, mode)


def mode_product(x: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``x`` by the matrix ``a`` along ``mode``.

    The mode-``k`` unfolding of the result equals ``a @ unfold(x, k)``.
    """
    x = np.asarray(x)
    a = np.asarray(a)
    _check_mode(x, mode)
    if a.ndim != 2 or a.shape[1] != x.shape[mode]:
        raise ValueError(f"matrix {a.shape} does not act on mode of extent {x.shape[mode]}")
    y = np.tensordot(a, x, axes=([1], [mode]))
    return np.moveaxis(y, 0, mode)


def frobenius_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel()))


def chebyshev_norm(x: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Largest absolute entry over defined cells.

    Without an explicit ``mask``, NaN entries count as undefined; at least
    one defined cell is required.
    """
    x = np.asarray(x, dtype=np.float64)
    if mask is None:
        mask = ~np.isnan(x)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    vals = x[mask]
    if vals.size == 0:
        raise ValueError("no defined cells")
    return float(np.max(np.abs(vals)))


def project_mask(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Copy the entries selected by ``omega`` and zero the rest.

    ``omega`` is either a boolean array of the same shape as ``x`` or an
    (m, d) integer array of multi-indices.
    """
    x = np.asarray(x)
    omega = np.asarray(omega)
    if omega.dtype == bool:
        if omega.shape != x.shape:
            raise ValueError(f"mask shape {omega.shape} does not match {x.shape}")
        return np.where(omega, x, 0.0)
    if omega.size == 0:
        return np.zeros_like(x)
    idx = np.atleast_2d(omega.astype(np.int64))
    if idx.shape[1] != x.ndim:
        raise ValueError(f"index rows of length {idx.shape[1]}, expected {x.ndim}")
    for k in range(x.ndim):
        col = idx[:, k]
        if np.any(col < 0) or np.any(col >= x.shape[k]):
            raise ValueError(f"index out of range along mode {k}")
    out = np.zeros_like(x)
    sel = tuple(idx.T)
    out[sel] = x[sel]
    return out


def _svd_deterministic(m: np.ndarray) -> SvdResult:
    """Thin SVD with each left singular vector flipped so that its
    largest-magnitude entry is positive (first such entry on ties)."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return SvdResult(u * signs, s, vt * signs[:, None])


def truncated_svd(m: np.ndarray, rank: int | None = None, tol: float | None = None) -> SvdResult:
    """Deterministic truncated SVD of a matrix.

    Exactly one of ``rank`` (retain that many singular values) or ``tol``
    (retain all values with ``s_i / s_1 >= tol``, at least one) must be
    given.
    """
    m = np.asarray(m)
    if (rank is None) == (tol is None):
        raise ValueError("give exactly one of rank or tol")
    full = _svd_deterministic(m)
    if rank is not None:
        if not 1 <= rank <= min(m.shape):
            raise ValueError(f"rank {rank} out of range for {m.shape} matrix")
        r = rank
    else:
        if not 0.0 < tol <= 1.0:
            raise ValueError(f"tol {tol} not in (0, 1]")
        r = rank_from_spectrum(full.S, tol)
    return SvdResult(np.ascontiguousarray(full.U[:, :r]), full.S[:r].copy(),
                     np.ascontiguousarray(full.Vt[:r]))


def rank_from_spectrum(s: np.ndarray, tol: float) -> int:
    """Count singular values with ``s_i / s_1 >= tol`` (at least 1)."""
    s = np.asarray(s)
    if s.size == 0 or s[0] == 0.0:
        return 1
    return max(1, int(np.count_nonzero(s >= tol * s[0])))
