"""Tensor-train (TT) decomposition via the sequential SVD sweep, and the
quantized variant (QTT) that first splits every mode into prime factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import (AcceptFn, Factorization, FormatError, QuantizeFn, _gram_left_svd,
                          _takes_gram, _thin_left_svd, budgeted_search, frobenius_norm)

TOL0 = 1e-2  # first sweep tolerance of the TT and QTT budgeted search
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
        """The full tensor, C-contiguous: the order of the search's block
        copy, which the verify subtracts, and of the field's block slices.

        The partial product is carried in C order, ``(n_1*..*n_k, r_k)``
        with the last index fastest, so each step is one matmul and the
        reshapes of the carry are views; a carriage that is not
        C-contiguous (as archived, in F order) is copied, at
        ``r_{k-1} * n_k * r_k`` entries."""
        y = np.ones((1, 1))
        for g in self.carriages:
            r_prev, n, r = g.shape
            y = (y @ g.reshape(r_prev, n * r)).reshape(-1, r)
        return y.reshape(self.dims)

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
    def search(stack: np.ndarray, accept: AcceptFn) -> None:
        _halving_search(_ttsvd_stack, stack, accept)


@dataclass(frozen=True)
class QttFactorization(Factorization):
    """TT factorization of the reshaped tensor plus the mode split used."""

    tt: TTFactorization
    dims: tuple[int, ...]
    mode_factors: tuple[tuple[int, ...], ...]
    kind = "qtt"
    pow2_blocks = True
    order = "F"

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.tt.ranks

    def arrays(self) -> list[np.ndarray]:
        return self.tt.arrays()

    def reconstruct(self) -> np.ndarray:
        """The full tensor, F-contiguous.

        The mode split puts the first prime digit fastest, an F-order view
        of the block, so the product is carried transposed: C-contiguous
        ``(r_k, n_1*..*n_k)`` with the first index fastest along a row.
        Each step is one matmul and every reshape, the last one too, is a
        view; a C-order product would need a transposing copy at the end."""
        y = np.ones((1, 1))
        for g in self.tt.carriages:
            r_prev, n, r = g.shape
            y = (g.transpose(2, 1, 0).reshape(r * n, r_prev) @ y).reshape(r, -1)
        return y.reshape(self.dims, order="F")

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
            if any(type(p) is not int or p < 1 for p in f):
                raise FormatError(f"bad mode factors {f!r}")
            if math.prod(f) != n:
                raise FormatError(f"mode factors {f} do not multiply to {n}")
        TTFactorization.check_header(shapes, [p for f in mode_factors for p in f], fields)

    @staticmethod
    def search(stack: np.ndarray, accept: AcceptFn) -> None:
        _halving_search(_qtt_stack, stack, accept)


def _halving_search(sweep, stack: np.ndarray, accept: AcceptFn) -> None:
    # the sweep tolerance bounds the relative Frobenius error, not the
    # pointwise one, so it is halved until the budget holds or the floor;
    # each round sweeps the blocks still failing at once, from one F-ordered
    # stack (n_1, .., n_d, B) on which every block's first-index-fastest
    # reshapes are views (a QTT search's stack already is one)
    x = np.asfortranarray(np.moveaxis(stack, 0, -1))
    blocks, tol = list(range(x.shape[-1])), TOL0
    while True:
        sub = x if len(blocks) == x.shape[-1] else x[..., blocks]
        blocks = [b for b, fac in zip(blocks, sweep(sub, tol=tol)) if not accept(b, fac)]
        if not blocks or tol < TOL_FLOOR:
            return
        tol /= 2.0


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
    """TT-SVD sweep in Fortran (first-index-fastest) linear order: the
    stacked sweep of ``_ttsvd_stack`` on a stack of one.

    An F-contiguous ``x`` is read through views (any other is copied once
    into F order by the first reshape).

    Exactly one of ``tol`` and ``ranks`` must be given.  With ``tol`` the
    per-step truncation keeps the discarded tail energy below
    ``(tol * ||x||_F / sqrt(d - 1))**2``, which caps the overall relative
    Frobenius error at ``tol``.  With ``ranks`` each internal rank is used
    as stated, silently clipped to the attainable unfolding bound.
    """
    x = np.asarray(x, dtype=np.float64)
    return _ttsvd_stack(x[..., np.newaxis], tol=tol, ranks=ranks)[0]


def _ttsvd_stack(x: np.ndarray, tol: float | None = None,
                 ranks: Sequence[int] | None = None) -> list[TTFactorization]:
    """``ttsvd`` of every block ``x[..., b]`` of the stack ``x``, shape
    ``(n_1, .., n_d, B)``, in one sweep.

    Each step's unfoldings form one stack ``(B, m, cols)``, F-contiguous
    per block, whose rows are padded to the largest rank ``R`` of the step
    before: row ``i + R*j`` holds rank index ``i`` and mode index ``j``,
    and a block's rows ``i >= r_{k-1}`` are zero.  One batched left SVD
    (``_stack_left_svd``) sorts the padded directions after every block's
    own, so none is ever kept; each block takes its ranks from its own
    spectrum and its carriage, C-contiguous, from its own rows and columns.
    The kept columns past a block's rank are zeroed, so its padded rows of
    the next remainder ``(C^T U)^T`` are zero too; that remainder is
    F-contiguous per block, so the reshape that starts the next step is a
    view.
    """
    if (tol is None) == (ranks is None):
        raise ValueError("exactly one of tol and ranks is required")
    *dims, n_blocks = x.shape
    d = len(dims)
    if d == 1:
        return [TTFactorization((np.reshape(x[:, b], (1, dims[0], 1)),))
                for b in range(n_blocks)]
    if ranks is not None:
        ranks = [int(r) for r in ranks]
        if len(ranks) != d - 1:
            raise ValueError(f"{len(ranks)} internal ranks for {d} modes")
        if any(r < 1 for r in ranks):
            raise ValueError("ranks must be positive")
        ranks = [min(r, b) for r, b in zip(ranks, _unfolding_rank_bounds(dims))]
        delta, cut = None, 0.0
    else:
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        # delta is at least cut * s_1 of every step's matrix, whose
        # Frobenius norm is at most ||x||_F
        cut = tol / np.sqrt(d - 1)
        delta = cut * np.array([frobenius_norm(x[..., b]) for b in range(n_blocks)])

    # per-block ranks are Python lists: a step makes few NumPy calls on
    # them, whatever the stack's size
    carriages = [[] for _ in range(n_blocks)]
    r_prev = [1] * n_blocks
    c = np.reshape(x, (dims[0], -1, n_blocks), order="F")
    for k in range(d - 1):
        pad = c.shape[0] // dims[k]
        rows = [r * dims[k] for r in r_prev]
        real = (None if min(r_prev) == pad
                else np.arange(c.shape[0]) % pad < np.array(r_prev)[:, np.newaxis])
        u, s = _stack_left_svd(c.transpose(2, 0, 1), rows, real, cut)
        if delta is not None:
            tail = np.cumsum(s[:, ::-1] ** 2, axis=1)[:, ::-1]
            r = [max(keep, 1) for keep in (tail > delta[:, np.newaxis] ** 2).sum(axis=1).tolist()]
        else:
            r = [min(ranks[k], m, c.shape[1]) for m in rows]
        width = max(r)
        u = u[:, :, :width]
        if min(r) < width:
            u = u * (np.arange(width) < np.array(r)[:, np.newaxis])[:, np.newaxis, :]
        g = u.reshape(n_blocks, dims[k], pad, width)
        for b in range(n_blocks):
            carriages[b].append(np.ascontiguousarray(
                g[b, :, :r_prev[b], :r[b]].transpose(1, 0, 2)))
        c = np.reshape(np.matmul(c.transpose(2, 1, 0), u).transpose(2, 1, 0),
                       (width * dims[k + 1], -1, n_blocks), order="F")
        r_prev = r
    last = np.reshape(c, (-1, dims[-1], n_blocks), order="F")
    return [TTFactorization((*carriages[b], np.ascontiguousarray(
        last[:r_prev[b], :, b, np.newaxis]))) for b in range(n_blocks)]


def _stack_left_svd(c: np.ndarray, rows: list[int], real: np.ndarray | None, cut: float):
    """``left_svd`` (route, sign rule) of each matrix ``c[b]`` of the stack
    ``(B, m, n)``: its ``rows[b]`` rows in ``real[b]`` are its own, the
    others zero padding (``real`` is None when no block is padded).

    Returns ``U`` and ``S``, ``(B, m, k)`` and ``(B, k)`` with ``k`` at
    least ``min(m, n)``: each block's own directions by descending value,
    then padded ones with ``S = 0`` and no entry on a padded row.  A block
    takes the route its own unfolding would, so a stack makes one batched
    Gram ``eigh`` for its wide blocks and batched thin SVDs for the rest:

    - a Gram sorts the directions of each block's padded rows strictly
      last (see ``_gram_left_svd``);
    - an SVD takes only each block's own rows (one call per row count),
      because the null directions of a tall or rank-deficient matrix
      would mix its padding in.

    When a stack takes both routes, each is padded only to its own
    largest rank.  A zero spectrum (an all-zero block) takes the unit
    vectors of its own rows in order, so the choice does not depend on
    the padding.
    """
    n_blocks, m, n = c.shape
    routes = {}
    for b, rw in enumerate(rows):
        routes.setdefault(0 if _takes_gram(rw, n, cut) else rw, []).append(b)
    if len(routes) == 1:
        # one route for the whole stack (an SVD's blocks then share their
        # row count, so none is padded)
        u, s = (_gram_left_svd(np.matmul(c, c.transpose(0, 2, 1)), real) if 0 in routes
                else _thin_left_svd(c))
    else:
        k = min(m, n)
        u, s = np.zeros((n_blocks, m, k)), np.zeros((n_blocks, k))
        for rw, blocks in routes.items():
            own = np.ones((len(blocks), m), dtype=bool) if real is None else real[blocks]
            idx = np.flatnonzero(own.any(axis=0))
            cg, own = c[np.ix_(blocks, idx)], own[:, idx]
            ug, sg = (_gram_left_svd(np.matmul(cg, cg.transpose(0, 2, 1)),
                                     None if own.all() else own) if rw == 0
                      else _thin_left_svd(cg))
            kg = min(k, sg.shape[1])
            u[np.ix_(blocks, idx, np.arange(kg))] = ug[:, :, :kg]
            s[blocks, :kg] = sg[:, :kg]
    for b in np.flatnonzero(s[:, 0] == 0.0):
        own = (np.arange(m) if real is None else np.flatnonzero(real[b]))[:min(m, n)]
        u[b] = 0.0
        u[b, own, np.arange(len(own))] = 1.0
    return u, s


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
    return _qtt_stack(x[..., np.newaxis], tol=tol, ranks=ranks)[0]


def _qtt_stack(x: np.ndarray, tol: float | None = None,
               ranks: Sequence[int] | None = None) -> list[QttFactorization]:
    # qtt_compress of every block x[..., b]: the stacked TT sweep of the
    # prime-factor split, an F-order view of an F-contiguous stack
    *dims, n_blocks = x.shape
    factors = qtt_factorize_modes(dims)
    fine = np.reshape(x, [p for fs in factors for p in fs] + [n_blocks], order="F")
    mode_factors = tuple(tuple(fs) for fs in factors)
    return [QttFactorization(f, tuple(dims), mode_factors)
            for f in _ttsvd_stack(fine, tol=tol, ranks=ranks)]


qtt_reconstruct = QttFactorization.reconstruct


def tt_compress_abs(
    x: np.ndarray,
    eps_max: float,
    quantize: QuantizeFn | None = None,
    qtt: bool = False,
) -> TTFactorization | QttFactorization:
    """Smallest TT (or QTT) among the tolerance-halving sweeps within
    ``eps_max`` in the Chebyshev norm (see ``budgeted_search``)."""
    return budgeted_search(QttFactorization if qtt else TTFactorization, [x], eps_max,
                           quantize)[0][0]
