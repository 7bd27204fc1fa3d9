"""Tucker decomposition built from truncated SVDs of the unfoldings,
plus rank selection for tolerance and absolute-error targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import (
    Factorization,
    FormatError,
    QuantizeFn,
    SvdResult,
    _svd_deterministic,
    budgeted_search,
    mode_product,
    rank_from_spectrum,
    unfold,
)

TOL0 = 1e-2  # spectrum tolerance of the first ranks tucker_compress_abs tries


@dataclass(frozen=True)
class TuckerFactorization(Factorization):
    """Core tensor plus one column-orthonormal factor per mode."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]
    kind = "tucker"

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self.core.shape)

    def arrays(self) -> list[np.ndarray]:
        return [self.core, *self.factors]

    def reconstruct(self) -> np.ndarray:
        x = self.core
        for k, u in enumerate(self.factors):
            x = mode_product(x, u, k)
        return x

    @classmethod
    def from_arrays(cls, arrays, dims, fields) -> TuckerFactorization:
        return cls(arrays[0], tuple(arrays[1:]))

    @staticmethod
    def check_header(shapes, dims, fields) -> None:
        d = len(dims)
        if len(shapes) != d + 1 or len(shapes[0]) != d:
            raise FormatError(f"tucker block needs a {d}-D core and {d} factors")
        for k, (fshape, n, r) in enumerate(zip(shapes[1:], dims, shapes[0])):
            if fshape != (n, r):
                raise FormatError(f"factor {k} shape {fshape} does not match "
                                  f"extent {n} and rank {r}")

    @staticmethod
    def candidates(x: np.ndarray):
        """HOSVD at the ranks ``hosvd_tol(TOL0)`` keeps, then with every
        mode rank grown by ``max(1, ceil(0.1 r))``, up to full ranks."""
        svds = _mode_svds(x)
        ranks = [rank_from_spectrum(svd.S, TOL0) for svd in svds]
        while True:
            yield _hosvd_at(x, svds, ranks)
            if ranks == list(x.shape):
                return
            ranks = [min(n, r + max(1, math.ceil(0.1 * r))) for r, n in zip(ranks, x.shape)]


def _check_ranks(dims, ranks) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks for {len(dims)} modes")
    for r, n in zip(ranks, dims):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range for mode of extent {n}")
    return ranks


def _mode_svds(x: np.ndarray) -> list[SvdResult]:
    return [_svd_deterministic(unfold(x, k)) for k in range(x.ndim)]


def _hosvd_at(x: np.ndarray, svds: Sequence[SvdResult], ranks) -> TuckerFactorization:
    factors = tuple(np.ascontiguousarray(svd.U[:, :r]) for svd, r in zip(svds, ranks))
    core = x
    for k, u in enumerate(factors):
        core = mode_product(core, u.T, k)
    return TuckerFactorization(core, factors)


def hosvd(x: np.ndarray, ranks: Sequence[int]) -> TuckerFactorization:
    """Orthogonal Tucker decomposition at the given multilinear ranks.

    Factor ``k`` holds the leading left singular vectors of the mode-``k``
    unfolding; the core is the projection of ``x`` onto those factors.
    """
    x = np.asarray(x, dtype=np.float64)
    ranks = _check_ranks(x.shape, ranks)
    return _hosvd_at(x, _mode_svds(x), ranks)


def hosvd_tol(x: np.ndarray, tol: float) -> TuckerFactorization:
    """HOSVD with per-mode ranks chosen from the normalized spectra.

    Mode ``k`` keeps every singular value within a factor ``tol`` of the
    largest one (at least one).
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"tol {tol} not in (0, 1]")
    svds = _mode_svds(x)
    return _hosvd_at(x, svds, [rank_from_spectrum(svd.S, tol) for svd in svds])


tucker_reconstruct = TuckerFactorization.reconstruct


def tucker_storage_count(ranks: Sequence[int], dims: Sequence[int]) -> int:
    """Stored elements: core volume plus one n_k-by-r_k factor per mode."""
    ranks = [int(r) for r in ranks]
    dims = [int(n) for n in dims]
    if len(ranks) != len(dims):
        raise ValueError("ranks and dims length mismatch")
    if any(not 1 <= r <= n for r, n in zip(ranks, dims)):
        raise ValueError("rank out of range for its extent")
    return int(np.prod(ranks, dtype=np.int64)) + sum(n * r for n, r in zip(dims, ranks))


def tucker_compress_abs(
    x: np.ndarray,
    eps_max: float,
    quantize: QuantizeFn | None = None,
) -> TuckerFactorization:
    """Smallest HOSVD among ``TuckerFactorization.candidates`` within
    ``eps_max`` in the Chebyshev norm (see ``budgeted_search``)."""
    return budgeted_search(TuckerFactorization, x, eps_max, quantize)[0]
