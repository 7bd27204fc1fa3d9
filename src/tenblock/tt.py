"""Tensor-train (TT) decomposition via the sequential SVD sweep, and the
quantized variant (QTT) that first splits every mode into prime factors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Sequence

import numpy as np

from .tensor_core import (AcceptFn, Factorization, _gram_left_svd, _integer,
                          _takes_gram, _thin_left_svd, frobenius_norm)

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

    def __post_init__(self):
        shapes = [g.shape for g in self.carriages]
        if not shapes or any(len(s) != 3 for s in shapes):
            raise ValueError("carriages must be 3-D")
        if shapes[0][0] != 1 or shapes[-1][2] != 1:
            raise ValueError("boundary carriage ranks must be 1")
        for k in range(1, len(shapes)):
            if shapes[k - 1][2] != shapes[k][0]:
                raise ValueError(f"carriage {k} rank mismatch")

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
        reshapes of the carry and of each carriage are views: the search
        and ``read_gsa`` both make C-contiguous carriages, so none is
        copied."""
        return _carry(self.carriages).reshape(self.dims)

    def with_arrays(self, arrays) -> TTFactorization:
        return self._unchecked(carriages=tuple(arrays))

    @classmethod
    def from_arrays(cls, arrays, fields) -> TTFactorization:
        return cls(tuple(arrays))

    @staticmethod
    def search(stack: np.ndarray, norms: np.ndarray, accept: AcceptFn) -> None:
        _halving_search(_ttsvd_stack, stack, norms, accept)


@dataclass(frozen=True)
class QttFactorization(Factorization):
    """TT factorization of the reshaped tensor plus the mode split used.

    The chain runs over the prime digits of every mode in turn, the first
    (least significant) digit of a mode first: an F-order split of each
    extent into the prime factors of ``qtt_factorize_modes``."""

    tt: TTFactorization
    mode_factors: tuple[tuple[int, ...], ...]
    kind = "qtt"
    pow2_blocks = True

    def __post_init__(self):
        extents = [g.shape[1] for g in self.tt.carriages]
        if extents != [p for f in self.mode_factors for p in f]:
            raise ValueError(f"carriage extents {extents} do not match "
                             f"mode factors {self.mode_factors!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(math.prod(f) for f in self.mode_factors)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.tt.ranks

    def arrays(self) -> list[np.ndarray]:
        return self.tt.arrays()

    def reconstruct(self) -> np.ndarray:
        """The full tensor, C-contiguous.

        The carriages are contracted from both ends to the mode boundary
        where the two partial products, ``(digits of the modes before it,
        r)`` and ``(r, digits of the modes after it)`` in chain order, are
        smallest together.  Each is reordered to C order (within a mode,
        the most significant digit first) by a copy, and one GEMM of the
        two writes the block.  At an inner boundary both are small; a block
        of one mode has only the two ends, where one side is the block."""
        carriages, mode_factors = self.tt.carriages, self.mode_factors
        fine = [g.shape[1] for g in carriages]
        inner = [g.shape[0] for g in carriages] + [1]  # the rank before each position
        size = list(accumulate(fine, operator.mul, initial=1))  # extent before each position
        ends = list(accumulate(map(len, mode_factors), initial=0))  # the mode boundaries
        j = min(ends, key=lambda e: inner[e] * (size[e] + size[-1] // size[e]))
        m = ends.index(j)
        y = _carry(carriages[:j])
        z = np.ones((1, 1))
        for g in reversed(carriages[j:]):
            r_prev, n, r = g.shape
            z = (g.reshape(r_prev * n, r) @ z).reshape(r_prev, -1)
        y = np.reshape(y, fine[:j] + [-1]).transpose(_digit_axes(mode_factors[:m], 0) + [j])
        z = np.reshape(z, [-1] + fine[j:]).transpose([0] + _digit_axes(mode_factors[m:], 1))
        return (y.reshape(size[j], -1) @ z.reshape(inner[j], -1)).reshape(self.dims)

    def with_arrays(self, arrays) -> QttFactorization:
        return self._unchecked(tt=self.tt.with_arrays(arrays), mode_factors=self.mode_factors)

    def header_fields(self) -> dict:
        return {"mode_factors": [list(f) for f in self.mode_factors]}

    @classmethod
    def from_arrays(cls, arrays, fields) -> QttFactorization:
        mode_factors = fields.get("mode_factors")
        if (not isinstance(mode_factors, list)
                or any(not isinstance(f, list) or not f or any(type(p) is not int for p in f)
                       for f in mode_factors)):
            raise ValueError("qtt block needs integer mode_factors for each mode")
        return cls(TTFactorization(tuple(arrays)), tuple(tuple(f) for f in mode_factors))

    @staticmethod
    def search(stack: np.ndarray, norms: np.ndarray, accept: AcceptFn) -> None:
        _halving_search(partial(_qtt_of_chain, stack.shape[1:]), _chain_stack(stack), norms,
                        accept)


def _carry(carriages: Sequence[np.ndarray]) -> np.ndarray:
    # the product of the carriages, first to last, as (n_1*..*n_k, r_k) in
    # C order (see TTFactorization.reconstruct)
    y = np.ones((1, 1))
    for g in carriages:
        r_prev, n, r = g.shape
        y = (y @ g.reshape(r_prev, n * r)).reshape(-1, r)
    return y


def _halving_search(sweep, stack: np.ndarray, norms: np.ndarray, accept: AcceptFn) -> None:
    # the sweep tolerance bounds the relative Frobenius error, not the
    # pointwise one, so it is halved until the budget holds or the floor;
    # each round sweeps the blocks still failing at once: the stack as it
    # is given, then the failing blocks' slice of it.  A block's first
    # unfolding does not depend on the tolerance, and its basis depends on
    # it only through the route (see _stack_left_svd), so the first round's
    # first step serves every later round on the same route
    blocks, tol = list(range(len(stack))), TOL0
    kept = None  # the first round's route and its (U, S) of every block

    def first_step(c: np.ndarray, rows: list[int], cut: float):
        nonlocal kept
        gram = _takes_gram(rows[0], c.shape[2], cut)
        if kept is None:
            kept = gram, _stack_left_svd(c, rows, cut)
        elif kept[0] != gram:
            return _stack_left_svd(c, rows, cut)
        u, s = kept[1]
        return (u, s) if len(blocks) == len(stack) else (u[blocks], s[blocks])

    while True:
        sub = stack if len(blocks) == len(stack) else stack[blocks]
        facs = sweep(sub, tol=tol, norms=norms[blocks], first_step=first_step)
        blocks = [b for b, fac in zip(blocks, facs) if not accept(b, fac)]
        if not blocks or tol < TOL_FLOOR:
            return
        tol /= 2.0


def ttsvd(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
) -> TTFactorization:
    """TT-SVD sweep, first mode first: the stacked sweep of
    ``_ttsvd_stack`` on a stack of one.

    A C-contiguous ``x`` is read through views (any other is copied once
    into C order by the first reshape).

    Exactly one of ``tol`` and ``ranks`` must be given.  With ``tol`` the
    per-step truncation keeps the discarded tail energy below
    ``(tol * ||x||_F / sqrt(d - 1))**2``, which caps the overall relative
    Frobenius error at ``tol``.  With ``ranks`` each internal rank is used
    as stated, silently clipped to the attainable unfolding bound.
    """
    x = np.asarray(x, dtype=np.float64)
    return _ttsvd_stack(x[np.newaxis], tol=tol, ranks=ranks)[0]


def _ttsvd_stack(x: np.ndarray, tol: float | None = None, ranks: Sequence[int] | None = None,
                 norms: Sequence[float] | None = None,
                 first_step=None) -> list[TTFactorization]:
    """``ttsvd`` of every block ``x[b]`` of the stack ``x``, shape
    ``(B, n_1, .., n_d)``, in one sweep.  ``norms[b]``, when given, is the
    Frobenius norm of ``x[b]``; it sets the block's truncation at ``tol``.
    ``first_step``, when given, stands in for ``_stack_left_svd`` at the
    first step (the search's kept first bases).

    The sweep reads the stack in C order, the first (slowest) mode first.
    Each step's unfoldings form one C-contiguous stack ``(B, m, cols)``,
    whose rows are padded to the largest rank ``R`` of the step before:
    row ``i * n_k + j`` holds rank index ``i`` and mode index ``j``, so a
    block's padded rows (``i >= r_{k-1}``) are the suffix past its first
    ``r_{k-1} * n_k``, and they are zero.  One batched left SVD
    (``_stack_left_svd``) sorts the padded directions after every block's
    own, so none is ever kept; each block takes its ranks from its own
    spectrum and its carriage from its own rows and columns of ``U``.  The
    kept columns past a block's rank are zeroed, so its padded rows of the
    next remainder ``U^T C`` are zero too; that remainder is C-contiguous,
    so the reshape that starts the next step is a view.
    """
    if (tol is None) == (ranks is None):
        raise ValueError("exactly one of tol and ranks is required")
    n_blocks, *dims = x.shape
    d = len(dims)
    if d == 1:
        return [TTFactorization((np.reshape(x[b], (1, dims[0], 1)),)) for b in range(n_blocks)]
    if ranks is not None:
        ranks = [_integer("rank", r) for r in ranks]
        if len(ranks) != d - 1:
            raise ValueError(f"{len(ranks)} internal ranks for {d} modes")
        if any(r < 1 for r in ranks):
            raise ValueError("ranks must be positive")
        delta, cut = None, 0.0
    else:
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        if norms is None:
            norms = [frobenius_norm(a) for a in x]
        # delta is at least cut * s_1 of every step's matrix, whose
        # Frobenius norm is at most ||x||_F
        cut = tol / np.sqrt(d - 1)
        delta = cut * np.asarray(norms, dtype=np.float64)

    # per-block ranks are Python lists: a step makes few NumPy calls on
    # them, whatever the stack's size
    carriages = [[] for _ in range(n_blocks)]
    r_prev = [1] * n_blocks
    c = np.reshape(x, (n_blocks, dims[0], -1))
    for k in range(d - 1):
        rows = [r * dims[k] for r in r_prev]
        step = first_step if k == 0 and first_step is not None else _stack_left_svd
        u, s = step(c, rows, cut)
        if delta is not None:
            tail = np.cumsum(s[:, ::-1] ** 2, axis=1)[:, ::-1]
            r = [max(keep, 1) for keep in (tail > delta[:, np.newaxis] ** 2).sum(axis=1).tolist()]
        else:
            r = [min(ranks[k], m, c.shape[2]) for m in rows]
        width = max(r)
        u = u[:, :, :width]
        if min(r) < width:
            u = u * (np.arange(width) < np.array(r)[:, np.newaxis])[:, np.newaxis, :]
        for b in range(n_blocks):
            carriages[b].append(np.ascontiguousarray(u[b, :rows[b], :r[b]]).reshape(
                r_prev[b], dims[k], r[b]))
        c = np.reshape(np.matmul(u.transpose(0, 2, 1), c), (n_blocks, width * dims[k + 1], -1))
        r_prev = r
    return [TTFactorization((*carriages[b], np.ascontiguousarray(
        c[b, :r_prev[b] * dims[-1]]).reshape(r_prev[b], dims[-1], 1))) for b in range(n_blocks)]


def _stack_left_svd(c: np.ndarray, rows: list[int], cut: float):
    """``mode_left_svd(c[b], 0, cut)`` (route, sign rule of
    ``_column_signs``) of each matrix ``c[b]`` of the stack ``(B, m, n)``:
    its first ``rows[b]`` rows are its own, the rest zero padding.

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
        u, s = (_gram_left_svd(np.matmul(c, c.transpose(0, 2, 1)), rows) if 0 in routes
                else _thin_left_svd(c))
    else:
        k = min(m, n)
        u, s = np.zeros((n_blocks, m, k)), np.zeros((n_blocks, k))
        for rw, blocks in routes.items():
            top = max(rows[b] for b in blocks)
            cg = c[blocks, :top]
            ug, sg = (_gram_left_svd(np.matmul(cg, cg.transpose(0, 2, 1)),
                                     [rows[b] for b in blocks]) if rw == 0
                      else _thin_left_svd(cg))
            kg = min(k, sg.shape[1])
            u[blocks, :top, :kg] = ug[:, :, :kg]
            s[blocks, :kg] = sg[:, :kg]
    for b in np.flatnonzero(s[:, 0] == 0.0):
        own = np.arange(min(rows[b], n))
        u[b] = 0.0
        u[b, own, own] = 1.0
    return u, s


def tt_storage_count(ranks: Sequence[int], dims: Sequence[int]) -> int:
    """Stored elements summed over carriages r_{k-1} * n_k * r_k."""
    dims = [_integer("dims entry", n) for n in dims]
    ranks = [1] + [_integer("rank", r) for r in ranks] + [1]
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


def _digit_axes(factors: Sequence[Sequence[int]], start: int) -> list[int]:
    # the axes, from start on, of the prime digits of each mode, reversed
    # within the mode: a transpose by them turns chain order (a mode's
    # least significant digit first) into C order (its most significant
    # first), and back
    axes = []
    for fs in factors:
        axes += range(start + len(fs) - 1, start - 1, -1)
        start += len(fs)
    return axes


def _chain_stack(x: np.ndarray) -> np.ndarray:
    # the stack x (B, n_1, .., n_d) as one C-contiguous copy in chain
    # order: each mode split into its prime digits, most significant first
    # (a view of a C-contiguous x), then the digits of each mode reversed
    factors = qtt_factorize_modes(x.shape[1:])
    digits = [p for fs in factors for p in reversed(fs)]
    return np.ascontiguousarray(
        np.reshape(x, [len(x)] + digits).transpose([0] + _digit_axes(factors, 1)))


def _qtt_of_chain(dims: tuple[int, ...], chain: np.ndarray, **kwargs) -> list[QttFactorization]:
    # the stacked TT sweep of a chain-order stack of blocks of extents dims
    mode_factors = tuple(tuple(fs) for fs in qtt_factorize_modes(dims))
    return [QttFactorization(f, mode_factors) for f in _ttsvd_stack(chain, **kwargs)]


def qtt_compress(
    x: np.ndarray,
    tol: float | None = None,
    ranks: Sequence[int] | None = None,
) -> QttFactorization:
    """TT-SVD on the prime-factor reshaping of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    return _qtt_of_chain(x.shape, _chain_stack(x[np.newaxis]), tol=tol, ranks=ranks)[0]
