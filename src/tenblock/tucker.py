"""Tucker decompositions by one sequentially truncated HOSVD pass (ST-HOSVD;
Vannieuwenhoven, Vandebril & Meerbergen, SISC 2012): ``hosvd`` at given
ranks, and the error-budgeted search, which escalates the ranks of the pass.

The pass visits the modes in ascending extent.  Each mode's basis comes
from the block already projected onto the modes before it, so the large
(time) mode's basis is taken from a shrunk tensor.  In the search each
projection keeps ``HEADROOM_STEPS`` escalation steps of columns past the
first rank, and every candidate slices the one core that results.

The pass runs on a stack of same-shaped blocks (a run of time intervals of
one rectangle) at once: per mode, one batched Gram and ``eigh`` (or thin
SVD) for each group of blocks that share a projected shape, then one
batched projection per group of equal headroom.  Nothing is padded, so
every block's BLAS and LAPACK calls get the operands they would get for
the block alone; ``hosvd`` is the pass on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import (AcceptFn, Factorization, _integer, _stack_mode_left_svd,
                          rank_from_spectrum)

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

    def __post_init__(self):
        if len(self.factors) != self.core.ndim or any(u.ndim != 2 for u in self.factors):
            raise ValueError("tucker block needs one 2-D factor per mode of its core")
        for k, (u, r) in enumerate(zip(self.factors, self.core.shape)):
            if u.shape[1] != r:
                raise ValueError(f"factor {k} has {u.shape[1]} columns for core rank {r}")

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

    def with_arrays(self, arrays) -> TuckerFactorization:
        return self._unchecked(core=arrays[0], factors=tuple(arrays[1:]))

    @classmethod
    def from_arrays(cls, arrays, fields) -> TuckerFactorization:
        return cls(arrays[0], tuple(arrays[1:]))

    @staticmethod
    def search(stack: np.ndarray, norms: np.ndarray, accept: AcceptFn) -> None:
        """Offer each block views of its ST-HOSVD core and factors, in
        rounds: first at the ranks each mode's spectrum keeps at ``TOL0``,
        then with every mode rank grown by ``max(1, ceil(0.1 r))``, up to
        full ranks.  One stacked pass serves the first candidates of every
        block; a round offers the next candidate of every block still
        searched, and the blocks whose ranks then pass their headroom rerun
        the pass from those ranks, together."""
        dims = list(stack.shape[1:])
        passes = _truncated_pass(stack)
        searched = range(len(stack))
        while searched:
            grown = []
            for b in searched:
                core, factors, ranks, heads = passes[b]
                fac = TuckerFactorization(core[tuple(slice(r) for r in ranks)],
                                          tuple(u[:, :r] for u, r in zip(factors, ranks)))
                if not accept(b, fac) and ranks != dims:
                    passes[b] = core, factors, [_grow(r, n) for r, n in zip(ranks, dims)], heads
                    grown.append(b)
            rerun = [b for b in grown if any(r > h for r, h in zip(passes[b][2], passes[b][3]))]
            if rerun:
                again = _truncated_pass(stack if len(rerun) == len(stack) else stack[rerun],
                                        [passes[b][2] for b in rerun])
                for b, p in zip(rerun, again):
                    passes[b] = p
            searched = grown


def _grow(r: int, n: int) -> int:
    # one escalation step of a mode rank, capped by the extent
    return min(n, r + max(1, math.ceil(0.1 * r)))


def _truncated_pass(stack: np.ndarray, ranks=None, steps: int = HEADROOM_STEPS,
                    cut: float = TOL0) -> list:
    """ST-HOSVD of each block of the C-contiguous stack ``(B, n_1, ..,
    n_d)`` at ``steps`` escalation steps past its ``ranks[b]`` (default:
    each mode's ``cut`` rank of the block projected so far), modes in
    ascending extent; each basis is ``mode_left_svd`` of the block at
    ``cut``.  Returns per block its core at the kept columns, its factors,
    ranks and headrooms (column counts asked for; a factor holds fewer
    when the unfolding has fewer).

    The blocks are carried in groups of one projected shape, each one
    C-contiguous stack: per mode, one ``_stack_mode_left_svd`` of each
    group, then one projection of each subgroup of equal kept width (a
    subgroup that is the whole group is projected without a copy)."""
    n_blocks, *dims = stack.shape
    ranks = ([list(r) for r in ranks] if ranks is not None
             else [[None] * len(dims) for _ in range(n_blocks)])
    factors = [[None] * len(dims) for _ in range(n_blocks)]
    heads = [[0] * len(dims) for _ in range(n_blocks)]
    groups = [(list(range(n_blocks)), stack)]
    for k in sorted(range(len(dims)), key=dims.__getitem__):
        projected = []
        for blocks, y in groups:
            u, s = _stack_mode_left_svd(y, k, cut)
            widths = {}
            for i, b in enumerate(blocks):
                if ranks[b][k] is None:
                    ranks[b][k] = rank_from_spectrum(s[i], cut)
                h = ranks[b][k]
                for _ in range(steps):
                    h = _grow(h, dims[k])
                heads[b][k] = h
                factors[b][k] = u[i, :, :h]
                widths.setdefault(factors[b][k].shape[1], []).append(i)
            for w, members in widths.items():
                if len(members) == len(blocks):
                    projected.append((blocks, _project(y, u[:, :, :w], k)))
                else:
                    projected.append(([blocks[i] for i in members],
                                      _project(y[members], u[members][:, :, :w], k)))
        groups = projected
    cores = [None] * n_blocks
    for blocks, y in groups:
        for i, b in enumerate(blocks):
            cores[b] = y[i]
    return [(cores[b], factors[b], ranks[b], heads[b]) for b in range(n_blocks)]


def _project(y: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    # each block y[b] of the stack times u[b]^T along its mode k, as one
    # batched matmul on the C-order (B, lead, n_k, trail) view, which makes
    # per block the calls of the block alone; the result is C-contiguous
    n_blocks, *dims = y.shape
    shape = (n_blocks, *dims[:k], u.shape[2], *dims[k + 1:])
    if k == len(dims) - 1:
        return np.matmul(y.reshape(n_blocks, -1, dims[k]), u).reshape(shape)
    return np.matmul(u.transpose(0, 2, 1)[:, np.newaxis],
                     y.reshape(n_blocks, math.prod(dims[:k]), dims[k], -1)).reshape(shape)


def _check_ranks(dims, ranks) -> tuple[int, ...]:
    ranks = tuple(_integer("rank", r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks for {len(dims)} modes")
    for r, n in zip(ranks, dims):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range for mode of extent {n}")
    return ranks


def hosvd(x: np.ndarray, ranks: Sequence[int]) -> TuckerFactorization:
    """Orthogonal Tucker decomposition at the given multilinear ranks: one
    ST-HOSVD pass, modes in ascending extent (the search's pass on a stack
    of one, with no headroom).

    Factor ``k`` holds the leading left singular vectors (thin SVD) of the
    mode-``k`` unfolding of ``x`` already projected onto the modes before
    it; the core is ``x`` projected onto every factor.  Each rank must lie
    in ``[1, n_k]`` and is used as stated, silently clipped to the rank
    bound of that partly projected unfolding, so the result's ``ranks`` may
    be smaller than requested.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    [(core, factors, _, _)] = _truncated_pass(x[np.newaxis], [_check_ranks(x.shape, ranks)],
                                              steps=0, cut=0.0)
    return TuckerFactorization(core, tuple(np.ascontiguousarray(u) for u in factors))


def tucker_storage_count(ranks: Sequence[int], dims: Sequence[int]) -> int:
    """Stored elements: core volume plus one n_k-by-r_k factor per mode."""
    dims = [_integer("dims entry", n) for n in dims]
    ranks = _check_ranks(dims, ranks)
    return math.prod(ranks) + sum(n * r for n, r in zip(dims, ranks))
