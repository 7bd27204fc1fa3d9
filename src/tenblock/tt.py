"""Tensor-train (TT) decomposition via the sequential SVD sweep, and the
quantized variant (QTT) that first splits every mode into prime factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import (Factorization, FormatError, QuantizeFn, budgeted_search,
                          frobenius_norm, truncated_svd)

TOL0 = 1e-2  # first sweep tolerance of tt_compress_abs
TOL_FLOOR = 1e-16  # the search stops at the first tolerance below this


@dataclass(frozen=True)
class TTFactorization(Factorization):
    """Chain of order-3 carriages G_k of shape (r_{k-1}, n_k, r_k).

    Boundary ranks are 1, so the first carriage has shape (1, n_1, r_1)
    and the last (r_{d-1}, n_d, 1).
    """

    carriages: tuple[np.ndarray, ...]
    kind = "tt"

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g.shape[1] for g in self.carriages)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Internal ranks r_1 .. r_{d-1} (empty for a single carriage)."""
        return tuple(g.shape[2] for g in self.carriages[:-1])

    def arrays(self) -> list[np.ndarray]:
        return list(self.carriages)

    def reconstruct(self) -> np.ndarray:
        dims = self.dims
        x = self.carriages[0].reshape(dims[0], -1)
        for g in self.carriages[1:]:
            r_prev, n, r = g.shape
            x = x @ g.reshape(r_prev, n * r, order="F")
            x = x.reshape(-1, r, order="F")
        return x.reshape(dims, order="F")

    @classmethod
    def from_arrays(cls, arrays, dims, fields) -> TTFactorization:
        return cls(tuple(arrays))

    @staticmethod
    def check_header(shapes, dims, fields) -> None:
        if len(shapes) != len(dims):
            raise FormatError(f"{len(shapes)} carriages for {len(dims)} modes")
        if any(len(s) != 3 for s in shapes):
            raise FormatError("carriages must be 3-D")
        if shapes[0][0] != 1 or shapes[-1][2] != 1:
            raise FormatError("boundary carriage ranks must be 1")
        for k, (s, n) in enumerate(zip(shapes, dims)):
            if s[1] != n:
                raise FormatError(f"carriage {k} extent {s[1]}, expected {n}")
            if k and shapes[k - 1][2] != s[0]:
                raise FormatError(f"carriage {k} rank mismatch")

    @staticmethod
    def candidates(x: np.ndarray):
        return _halving_sweeps(ttsvd, x)


@dataclass(frozen=True)
class QttFactorization(Factorization):
    """TT factorization of the reshaped tensor plus the mode split used."""

    tt: TTFactorization
    dims: tuple[int, ...]
    mode_factors: tuple[tuple[int, ...], ...]
    kind = "qtt"
    pow2_blocks = True

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.tt.ranks

    def arrays(self) -> list[np.ndarray]:
        return self.tt.arrays()

    def reconstruct(self) -> np.ndarray:
        return np.reshape(self.tt.reconstruct(), self.dims, order="F")

    def header_fields(self) -> dict:
        return {"mode_factors": [list(f) for f in self.mode_factors]}

    @classmethod
    def from_arrays(cls, arrays, dims, fields) -> QttFactorization:
        return cls(TTFactorization(tuple(arrays)), tuple(dims),
                   tuple(tuple(f) for f in fields["mode_factors"]))

    @staticmethod
    def check_header(shapes, dims, fields) -> None:
        mode_factors = fields.get("mode_factors")
        if (not isinstance(mode_factors, list) or len(mode_factors) != len(dims)
                or any(not isinstance(f, list) or not f for f in mode_factors)):
            raise FormatError("qtt block needs mode_factors for each mode")
        for f, n in zip(mode_factors, dims):
            if any(not isinstance(p, int) or p < 1 for p in f):
                raise FormatError(f"bad mode factors {f!r}")
            if int(np.prod(f, dtype=np.int64)) != n:
                raise FormatError(f"mode factors {f} do not multiply to {n}")
        TTFactorization.check_header(shapes, [p for f in mode_factors for p in f], fields)

    @staticmethod
    def candidates(x: np.ndarray):
        return _halving_sweeps(qtt_compress, x)


def _halving_sweeps(sweep, x: np.ndarray):
    # the sweep tolerance bounds the relative Frobenius error, not the
    # pointwise one, so it is halved until the budget holds or the floor
    tol = TOL0
    while True:
        yield sweep(x, tol=tol)
        if tol < TOL_FLOOR:
            return
        tol = tol / 2.0


def _unfolding_rank_bounds(dims: Sequence[int]) -> list[int]:
    # r_k <= min(n_1*..*n_k, n_{k+1}*..*n_d) for the exact TT ranks
    d = len(dims)
    left = np.cumprod(dims, dtype=np.float64)
    right = np.cumprod(dims[::-1], dtype=np.float64)[::-1]
    return [int(min(left[k], right[k + 1])) for k in range(d - 1)]


def ttsvd(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
) -> TTFactorization:
    """TT-SVD sweep in Fortran (first-index-fastest) linear order.

    Exactly one of ``tol`` and ``ranks`` must be given.  With ``tol`` the
    per-step truncation keeps the discarded tail energy below
    ``(tol * ||x||_F / sqrt(d - 1))**2``, which caps the overall relative
    Frobenius error at ``tol``.  With ``ranks`` each internal rank is used
    as stated, silently clipped to the attainable unfolding bound.
    """
    x = np.asarray(x, dtype=np.float64)
    if (tol is None) == (ranks is None):
        raise ValueError("exactly one of tol and ranks is required")
    dims = x.shape
    d = x.ndim
    if d == 1:
        return TTFactorization((x.reshape(1, dims[0], 1),))
    if ranks is not None:
        ranks = [int(r) for r in ranks]
        if len(ranks) != d - 1:
            raise ValueError(f"{len(ranks)} internal ranks for {d} modes")
        if any(r < 1 for r in ranks):
            raise ValueError("ranks must be positive")
        ranks = [min(r, b) for r, b in zip(ranks, _unfolding_rank_bounds(dims))]
        delta = None
    else:
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        delta = tol * frobenius_norm(x) / np.sqrt(d - 1)

    carriages = []
    r_prev = 1
    c = np.reshape(x, (r_prev * dims[0], -1), order="F")
    for k in range(d - 1):
        svd = truncated_svd(c, rank=min(c.shape))
        if delta is not None:
            tail = np.cumsum(svd.S[::-1] ** 2)[::-1]
            keep = int(np.sum(tail > delta**2))
            r = max(1, keep)
        else:
            r = min(ranks[k], svd.S.size)
        carriages.append(np.reshape(svd.U[:, :r], (r_prev, dims[k], r), order="F"))
        c = svd.S[:r, None] * svd.Vt[:r]
        r_prev = r
        c = np.reshape(c, (r_prev * dims[k + 1], -1), order="F")
    carriages.append(np.reshape(c, (r_prev, dims[-1], 1), order="F"))
    return TTFactorization(tuple(carriages))


def tt_element(f: TTFactorization, index: Sequence[int]) -> float:
    """Evaluate one entry as the product of carriage slices."""
    index = tuple(int(i) for i in index)
    if len(index) != len(f.carriages):
        raise ValueError("index length mismatch")
    v = f.carriages[0][:, index[0], :]
    for g, i in zip(f.carriages[1:], index[1:]):
        v = v @ g[:, i, :]
    return float(v[0, 0])


tt_reconstruct = TTFactorization.reconstruct


def tt_storage_count(ranks: Sequence[int], dims: Sequence[int]) -> int:
    """Stored elements summed over carriages r_{k-1} * n_k * r_k."""
    dims = [int(n) for n in dims]
    ranks = [1] + [int(r) for r in ranks] + [1]
    if len(ranks) != len(dims) + 1:
        raise ValueError("need d - 1 internal ranks for d dims")
    return sum(ranks[k] * dims[k] * ranks[k + 1] for k in range(len(dims)))


def _prime_factors(n: int) -> list[int]:
    if n < 1:
        raise ValueError(f"extent {n} not factorable")
    if n == 1:
        return [1]
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def qtt_factorize_modes(dims: Sequence[int]) -> list[list[int]]:
    """Prime factorization of every extent, ascending within each mode."""
    return [_prime_factors(int(n)) for n in dims]


def qtt_reshape(x: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    factors = qtt_factorize_modes(x.shape)
    fine = [p for fs in factors for p in fs]
    return np.reshape(x, fine, order="F"), factors


def qtt_compress(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
) -> QttFactorization:
    """TT-SVD on the prime-factor reshaping of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    fine, factors = qtt_reshape(x)
    return QttFactorization(
        ttsvd(fine, tol=tol, ranks=ranks),
        tuple(x.shape),
        tuple(tuple(fs) for fs in factors),
    )


qtt_reconstruct = QttFactorization.reconstruct


def tt_compress_abs(
    x: np.ndarray,
    eps_max: float,
    quantize: QuantizeFn | None = None,
    qtt: bool = False,
) -> TTFactorization | QttFactorization:
    """Smallest TT (or QTT) among the tolerance-halving sweeps within
    ``eps_max`` in the Chebyshev norm (see ``budgeted_search``)."""
    return budgeted_search(QttFactorization if qtt else TTFactorization, x, eps_max, quantize)[0]
