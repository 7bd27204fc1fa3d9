"""Dense multiway-array primitives: unfoldings, norms, left singular bases
under one sign rule by the cheaper of a Gram eigendecomposition and a thin
SVD (mode Grams formed from views, without an unfolding), and the interface
and error-budgeted search shared by the block factorizations.

Tensors are plain ``numpy.ndarray`` objects in float64.  Whenever a linear
(flat) ordering of entries matters -- unfolding columns, serialization --
the convention is Fortran order: the first index varies fastest, then the
second, and so on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np


@dataclass(frozen=True)
class GappyTensor4:
    """4-D field (x, y, depth, time) with horizontally structured gaps.

    ``values`` carries NaN at every missing cell and ``domain_mask`` is the
    x-y grid of defined (ocean) positions; a cell is missing exactly when
    its horizontal position is masked out, for every depth and time.

    The constructor checks all of this, three passes over the field.  Two
    callers skip them and build their result with ``_unchecked``, because
    each has checked every value it wrote and writes each cell of the field
    exactly as the checks require: ``pipeline.decompress_dataset``, and
    ``synth.synth``, which checks each slab of x rows finite at its defined
    positions before it writes NaN at the others.
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
        defined = m[:, :, None, None]
        # valid exactly when the finite cells are the defined ones and every
        # other cell is NaN (not inf); on failure the slower checks name it
        n_undefined = v.size - int(np.count_nonzero(m)) * v.shape[2] * v.shape[3]
        if not (np.all(np.isfinite(v) == defined)
                and np.count_nonzero(np.isnan(v)) == n_undefined):
            if np.any(np.isnan(v) != ~defined):
                raise ValueError("NaN pattern inconsistent with domain mask")
            raise ValueError("defined values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "domain_mask", m)

    @classmethod
    def _unchecked(cls, values: np.ndarray, domain_mask: np.ndarray) -> GappyTensor4:
        """A ``GappyTensor4`` of these arrays as they are, without the
        constructor's checks.  The caller establishes what they check:
        ``values`` is a 4-D float64 array, ``domain_mask`` a bool array of
        shape ``values.shape[:2]``, and a cell of ``values`` is finite where
        its position is defined and NaN where it is not."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain_mask", domain_mask)
        return self

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.values.shape

    @property
    def defined_count(self) -> int:
        return int(self.domain_mask.sum()) * self.values.shape[2] * self.values.shape[3]


class FormatError(ValueError):
    """Malformed file input (also raised by a factorization's record checks)."""


QuantizeFn = Callable[[np.ndarray], np.ndarray]
AcceptFn = Callable[[int, "Factorization"], bool]  # accept(b, fac): block b done?


class Factorization:
    """A block factorization kind (``kind`` names its method and archive
    records): ``dims``, ``ranks``, ``arrays()`` in archive order and
    ``reconstruct()``, whose output is contiguous in the class's ``order``;
    per class ``search(stack, accept)``, which offers the budgeted search
    its candidates, ``check_header`` and ``from_arrays``, the inverse of
    ``arrays()``."""

    kind: ClassVar[str]
    pow2_blocks: ClassVar[bool] = False  # wants power-of-two block sides
    # memory order of reconstruct() and so of each block of a search's
    # stack: the verify then subtracts like-ordered arrays
    order: ClassVar[str] = "C"

    @property
    def n_elements(self) -> int:
        return int(sum(a.size for a in self.arrays()))

    def header_fields(self) -> dict:
        return {}

    @classmethod
    def search(cls, stack: np.ndarray, accept: AcceptFn) -> None:
        """Offer candidates for the blocks ``stack[b]`` to ``accept(b, fac)``,
        smallest first, until it returns True (the block is done) or the
        block has none left.  This default runs the class's ``candidates(x)``
        in rounds: the next candidate of every block still searched, then
        ``accept`` on each (a round keeps the candidates' SVDs together)."""
        searches = {b: cls.candidates(x) for b, x in enumerate(stack)}
        while searches:
            found = [(b, next(s, None)) for b, s in searches.items()]
            for b, fac in found:
                if fac is None or accept(b, fac):
                    del searches[b]


def budgeted_search(cls: type[Factorization], blocks: Sequence[np.ndarray], eps_max: float,
                    quantize: QuantizeFn | None = None
                    ) -> list[tuple[Factorization, float, float]]:
    """For each of the same-shaped ``blocks``, the first of its candidates
    within ``eps_max`` in the Chebyshev norm (else its last), as
    ``(fac, cheb_error, rel_frob_error)`` in the order of ``blocks``,
    measured after ``quantize`` (e.g. a float32 round trip) of its arrays.
    Blocks are fully defined, so a NaN in a reconstruction is an error and
    fails the budget.  The Frobenius error is absolute for an all-zero block.

    The blocks are copied once into one stack, each block contiguous in
    ``cls.order``; ``cls.search`` searches the stack (TT and QTT sweep all
    blocks still failing at once), and each verify diff and both norms use
    the block's slice of it, so a strided block view is not copied again
    per candidate or per norm."""
    if isinstance(blocks, np.ndarray):
        raise TypeError("blocks must be a sequence of arrays, not one array")
    if not (math.isfinite(eps_max) and eps_max > 0):
        raise ValueError(f"eps_max must be finite and positive, got {eps_max!r}")
    if not blocks:
        return []
    shape = np.shape(blocks[0])
    if any(np.shape(x) != shape for x in blocks):
        raise ValueError("the blocks of one search must share one shape")
    n = len(blocks)
    if cls.order == "F":
        stack = np.moveaxis(np.empty(shape + (n,), order="F"), -1, 0)
    else:
        stack = np.empty((n,) + shape)
    for b, x in enumerate(blocks):
        stack[b] = x
    norms = [frobenius_norm(x) or 1.0 for x in stack]
    results = [None] * n

    def accept(b: int, fac: Factorization) -> bool:
        if quantize is not None:
            fac = cls.from_arrays([quantize(a) for a in fac.arrays()],
                                  fac.dims, fac.header_fields())
        diff = fac.reconstruct() - stack[b]
        cheb = float(np.max(np.abs(diff, out=diff)))
        results[b] = (fac, cheb, frobenius_norm(diff) / norms[b])
        return cheb <= eps_max

    cls.search(stack, accept)
    return results


def _integer(name: str, v) -> int:
    # a parameter that must be an integer (numpy ones too), not a bool or a
    # float that would be truncated
    if isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


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


def frobenius_norm(x: np.ndarray) -> float:
    # memory order, so a C- or F-contiguous x is not copied
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel(order="K")))


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


def _column_signs(u: np.ndarray) -> np.ndarray:
    # flips each column so that its largest-magnitude entry is positive
    # (first such entry on ties); for a stack (B, m, k) of matrices the
    # signs are (B, k)
    pivot = np.argmax(np.abs(u), axis=-2)
    cols = np.arange(u.shape[-1])
    signs = np.sign(u[pivot, cols] if u.ndim == 2
                    else u[np.arange(len(u))[:, None], pivot, cols])
    signs[signs == 0] = 1.0
    return signs


# Gram eigenvalues carry an absolute error of about n*eps*s_1**2, so singular
# values below about 1e-7*s_1 are noise there; only cuts above this resolve.
GRAM_CUT_FLOOR = 1e-6


# below this many entries per (n, trail) slice, one GEMM call per slice
# costs more than copying the block into its unfolding (about 1 us a call
# against 2 ns an entry on a 2-core x86 VM)
GRAM_SLICE_MIN = 512


def _takes_gram(rows: int, cols: int, cut: float) -> bool:
    # the Gram route of left_svd: a wide matrix cut no finer than the floor
    return rows <= cols and cut >= GRAM_CUT_FLOOR


def _gram_left_svd(g: np.ndarray, real: np.ndarray | None = None):
    # (U, S) of M, or of each M[b] of a stack, from its Gram g = M M^T:
    # eigenpairs in descending order, rounding-negative eigenvalues clipped
    # to 0, S = sqrt(lambda), U signed by _column_signs.  Rows of a
    # stack outside real (B, m) are padding: g gets -max(diag) on them, so
    # their directions sort after all of the block's own, and their
    # entries of U are zeroed
    if real is not None:
        blocks, rows = np.nonzero(~real)
        top = g.diagonal(axis1=1, axis2=2).max(axis=1)
        g[blocks, rows, rows] = -np.where(top > 0.0, top, 1.0)[blocks]
    lam, u = np.linalg.eigh(g)
    u = u[..., ::-1]
    if real is not None:
        u[~real] = 0.0
    return u * _column_signs(u)[..., np.newaxis, :], np.sqrt(np.maximum(lam[..., ::-1], 0.0))


def _thin_left_svd(m: np.ndarray):
    # (U, S) of the thin SVD of a matrix or of each of a stack, U signed
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u * _column_signs(u)[..., np.newaxis, :], s


def left_svd(m: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors ``U`` (columns, sign rule of
    :func:`_column_signs`) and descending singular values ``S`` of ``m``,
    for a caller that truncates at ``s_i / s_1`` no smaller than ``cut``.

    A wide ``m`` with ``cut >= GRAM_CUT_FLOOR`` takes them from
    ``eigh(m @ m.T)``, which skips the right singular vectors; values below
    about ``1e-7 * s_1`` are then inexact, and the columns stay orthonormal.
    Any other ``m`` takes a thin SVD.
    """
    m = np.asarray(m, dtype=np.float64)
    if _takes_gram(*m.shape, cut):
        return _gram_left_svd(m @ m.T)
    return _thin_left_svd(m)


def mode_gram(x: np.ndarray, mode: int) -> np.ndarray:
    """``unfold(x, mode) @ unfold(x, mode).T`` without the unfolding.

    The Gram does not depend on the order of the unfolding's columns, so it
    is formed from reshaped views of the C-contiguous ``x`` (a copy is made
    only if ``x`` is not C-contiguous): ``x`` as ``(lead, n, trail)`` gives
    the sum over ``lead`` of its ``(n, trail)`` slices times their
    transposes.  A middle mode whose slices hold fewer than
    ``GRAM_SLICE_MIN`` entries unfolds instead.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    _check_mode(x, mode)
    n = x.shape[mode]
    if mode == 0:
        m = x.reshape(n, -1)
        return m @ m.T
    if mode == x.ndim - 1:
        m = x.reshape(-1, n)
        return m.T @ m
    v = x.reshape(math.prod(x.shape[:mode]), n, -1)
    if v[0].size < GRAM_SLICE_MIN:
        m = unfold(x, mode)
        return m @ m.T
    return np.matmul(v, v.transpose(0, 2, 1)).sum(axis=0)


def mode_left_svd(x: np.ndarray, mode: int, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """``left_svd(unfold(x, mode), cut)``, with the Gram route's Gram formed
    by :func:`mode_gram`; pass a C-contiguous ``x`` to spare the copy."""
    x = np.asarray(x, dtype=np.float64)
    _check_mode(x, mode)
    n = x.shape[mode]
    if _takes_gram(n, x.size // n, cut):
        return _gram_left_svd(mode_gram(x, mode))
    return _thin_left_svd(unfold(x, mode))


def rank_from_spectrum(s: np.ndarray, tol: float) -> int:
    """Count singular values with ``s_i / s_1 >= tol`` (at least 1)."""
    s = np.asarray(s)
    if s.size == 0 or s[0] == 0.0:
        return 1
    return max(1, int(np.count_nonzero(s >= tol * s[0])))
