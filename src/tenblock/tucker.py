"""Tucker decompositions: the HOSVD at given ranks or at a spectrum
tolerance, and the error-budgeted search, which escalates the ranks of one
sequentially truncated HOSVD (ST-HOSVD; Vannieuwenhoven, Vandebril &
Meerbergen, SISC 2012).

The search visits the modes in ascending extent.  Each mode's basis comes
from the block already projected onto the modes before it, so the large
(time) mode's basis is taken from a shrunk tensor.  Each projection keeps
``HEADROOM_STEPS`` escalation steps of columns past the first rank, and
every candidate slices the one core that results.
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
    budgeted_search,
    mode_left_svd,
    mode_product,
    rank_from_spectrum,
)

TOL0 = 1e-2  # spectrum tolerance of the first ranks the Tucker budgeted search tries
# escalation steps of columns the search keeps past the ranks its pass
# starts from; most blocks need at most two, so one pass serves the search
HEADROOM_STEPS = 2


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
        # last mode first on C-order reshapes, so each step is one matmul
        # over views: (lead, r_k, trail) -> (lead, n_k, trail)
        ranks = self.core.shape
        x = self.core.reshape(-1, ranks[-1]) @ self.factors[-1].T
        for k in range(len(ranks) - 2, -1, -1):
            x = np.matmul(self.factors[k], x.reshape(math.prod(ranks[:k]), ranks[k], -1))
        return x.reshape(self.dims)

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
        """Slices of one ST-HOSVD core: first at the ranks each mode's
        spectrum keeps at ``TOL0``, then with every mode rank grown by
        ``max(1, ceil(0.1 r))``, up to full ranks.  When the ranks pass the
        pass's headroom, the pass runs again from them."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        core, factors, ranks, heads = _truncated_pass(x)
        while True:
            yield TuckerFactorization(
                np.ascontiguousarray(core[tuple(slice(r) for r in ranks)]),
                tuple(np.ascontiguousarray(u[:, :r]) for u, r in zip(factors, ranks)))
            if ranks == list(x.shape):
                return
            ranks = [_grow(r, n) for r, n in zip(ranks, x.shape)]
            if any(r > h for r, h in zip(ranks, heads)):
                core, factors, ranks, heads = _truncated_pass(x, ranks)


def _grow(r: int, n: int) -> int:
    # one escalation step of a mode rank, capped by the extent
    return min(n, r + max(1, math.ceil(0.1 * r)))


def _truncated_pass(x: np.ndarray, ranks=None):
    """ST-HOSVD of the C-contiguous ``x`` at ``HEADROOM_STEPS`` escalation
    steps past ``ranks`` (default: each mode's ``TOL0`` rank of the block
    projected so far), modes in ascending extent.  Returns the core at the
    kept columns, the factors, the ranks and the headrooms (column counts
    asked for; a factor holds fewer when the unfolding has fewer)."""
    y = x
    factors = [None] * x.ndim
    ranks = list(ranks) if ranks is not None else [None] * x.ndim
    heads = [0] * x.ndim
    for k in sorted(range(x.ndim), key=lambda k: x.shape[k]):
        u, s = mode_left_svd(y, k, TOL0)
        if ranks[k] is None:
            ranks[k] = rank_from_spectrum(s, TOL0)
        heads[k] = ranks[k]
        for _ in range(HEADROOM_STEPS):
            heads[k] = _grow(heads[k], x.shape[k])
        factors[k] = u[:, :heads[k]]
        y = _project(y, factors[k], k)
    return y, factors, ranks, heads


def _project(y: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    # y times u^T along mode k as one (batched) matmul on the C-order
    # (lead, n_k, trail) view; the result is C-contiguous again
    shape = y.shape[:k] + (u.shape[1],) + y.shape[k + 1:]
    if k == y.ndim - 1:
        return (y.reshape(-1, y.shape[k]) @ u).reshape(shape)
    return np.matmul(u.T, y.reshape(math.prod(y.shape[:k]), y.shape[k], -1)).reshape(shape)


def _check_ranks(dims, ranks) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks for {len(dims)} modes")
    for r, n in zip(ranks, dims):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range for mode of extent {n}")
    return ranks


def _mode_bases(x: np.ndarray, cut: float) -> list[tuple[np.ndarray, np.ndarray]]:
    # (U, S) of every unfolding for ranks cut at s_i / s_1 >= cut (see
    # left_svd); one C-contiguous copy of the block serves every mode's Gram
    x = np.ascontiguousarray(x, dtype=np.float64)
    return [mode_left_svd(x, k, cut) for k in range(x.ndim)]


def _hosvd_at(x: np.ndarray, bases, ranks) -> TuckerFactorization:
    factors = tuple(np.ascontiguousarray(u[:, :r]) for (u, _), r in zip(bases, ranks))
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
    return _hosvd_at(x, _mode_bases(x, 0.0), ranks)


def hosvd_tol(x: np.ndarray, tol: float) -> TuckerFactorization:
    """HOSVD with per-mode ranks chosen from the normalized spectra.

    Mode ``k`` keeps every singular value within a factor ``tol`` of the
    largest one (at least one).
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"tol {tol} not in (0, 1]")
    bases = _mode_bases(x, tol)
    return _hosvd_at(x, bases, [rank_from_spectrum(s, tol) for _, s in bases])


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
    """First of ``TuckerFactorization.candidates`` (slices of one ST-HOSVD
    core) within ``eps_max`` in the Chebyshev norm (see ``budgeted_search``)."""
    return budgeted_search(TuckerFactorization, [x], eps_max, quantize)[0][0]
