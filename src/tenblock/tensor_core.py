"""Dense multiway-array primitives: unfoldings, norms, left singular bases
under one sign rule by the cheaper of a Gram eigendecomposition and a thin
SVD (mode Grams formed from views, without an unfolding), of one block or
of each block of a stack in batched calls, and the interface and
error-budgeted search shared by the block factorizations.

Tensors are plain ``numpy.ndarray`` objects in float64.  In memory a
block and every reconstruction are C-contiguous (the last index fastest),
and a budgeted search holds its blocks as one C-contiguous stack
``(B, n_1, .., n_d)``.  On disk (serialization) and in ``unfold``'s
columns the convention is Fortran order: the first index varies fastest,
then the second, and so on.
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


QuantizeFn = Callable[[np.ndarray], np.ndarray]  # to an array of the same shape
# accept(b, fac): is candidate fac of block b within budget?  The kind's
# search stops offering the block candidates at True; the budgeted search
# keeps the cheapest candidate within budget (else the least error)
AcceptFn = Callable[[int, "Factorization"], bool]


class Factorization:
    """A block factorization kind (``kind`` names its method and archive
    records): ``dims``, ``ranks``, ``arrays()`` in archive order and
    ``reconstruct()``, C-contiguous like the search's stack, so that the
    verify subtracts like-ordered arrays; ``with_arrays(arrays)``, itself
    with each array replaced by one of its shape; per class ``search(stack,
    norms, accept)``, which offers candidates for the blocks ``stack[b]``,
    of Frobenius norms ``norms[b]``, to ``accept(b, fac)`` (``AcceptFn``),
    smallest first, until it returns True or the block has none left; and
    for the reader and writer ``from_arrays(arrays, fields)``, the inverse
    of ``arrays()`` and ``header_fields()`` (it checks the JSON types of
    ``fields``).  The constructor raises ``ValueError`` on arrays whose
    shapes are inconsistent (their fit to a region is
    ``CompressedArchive``'s), so ``with_arrays`` needs no check."""

    kind: ClassVar[str]
    pow2_blocks: ClassVar[bool] = False  # wants power-of-two block sides

    @property
    def n_elements(self) -> int:
        return int(sum(a.size for a in self.arrays()))

    def header_fields(self) -> dict:
        return {}

    def _unchecked(self, **fields) -> Factorization:
        # this kind with these fields, past the constructor's checks (for
        # with_arrays, whose arrays have the shapes already checked)
        other = object.__new__(type(self))
        other.__dict__.update(fields)
        return other


def budgeted_search(cls: type[Factorization], blocks: Sequence[np.ndarray], eps_max: float,
                    quantize: QuantizeFn | None = None
                    ) -> list[tuple[Factorization, float, float]]:
    """For each of the same-shaped ``blocks``, the candidate of least
    ``n_elements`` within ``eps_max`` in the Chebyshev norm (the earliest
    on ties), else the one of least Chebyshev error (a NaN error never
    wins), as ``(fac, cheb_error, rel_frob_error)`` in the order of
    ``blocks``, measured after ``quantize`` (e.g. a float32 round trip) of
    its arrays.  Blocks are fully defined, so a NaN in a reconstruction is
    an error and fails the budget.  The Frobenius error is absolute for an
    all-zero block, and taken only for a candidate that is kept.

    The blocks are copied once into one C-contiguous stack ``(B, ..)``
    and their norms taken once; ``cls.search`` searches the stack (Tucker
    takes the first bases of all its blocks in one stacked pass, TT and QTT
    sweep all blocks still failing at once).  Each verify subtracts the
    candidate's reconstruction from the block's slice of the stack into one
    scratch block, so a strided block view is not copied again per
    candidate or per norm, and no candidate allocates a diff."""
    if isinstance(blocks, np.ndarray):
        raise TypeError("blocks must be a sequence of arrays, not one array")
    if not (math.isfinite(eps_max) and eps_max > 0):
        raise ValueError(f"eps_max must be finite and positive, got {eps_max!r}")
    if not blocks:
        return []
    shape = np.shape(blocks[0])
    if any(np.shape(x) != shape for x in blocks):
        raise ValueError("the blocks of one search must share one shape")
    stack = np.empty((len(blocks),) + shape)
    for b, x in enumerate(blocks):
        stack[b] = x
    norms = np.array([frobenius_norm(x) for x in stack])
    scratch = np.empty(shape)
    results = [None] * len(blocks)
    costs = [(math.inf,)] * len(blocks)  # of each block's kept candidate

    def accept(b: int, fac: Factorization) -> bool:
        if quantize is not None:
            fac = fac.with_arrays([quantize(a) for a in fac.arrays()])
        # into the scratch block, never into reconstruct()'s output, which
        # a factorization may own; a NaN makes both extremes NaN
        diff = np.subtract(fac.reconstruct(), stack[b], out=scratch)
        cheb = float(max(diff.max(), -diff.min()))
        passed = cheb <= eps_max
        # within budget by size, else by error, a NaN error last
        cost = (0, fac.n_elements) if passed else (2,) if math.isnan(cheb) else (1, cheb)
        if cost < costs[b]:
            results[b], costs[b] = (fac, cheb, frobenius_norm(diff) / (norms[b] or 1.0)), cost
        return passed

    cls.search(stack, norms, accept)
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
    indices with the first one varying fastest.  The result is an
    F-contiguous copy.
    """
    x = np.asarray(x)
    _check_mode(x, mode)
    return _stack_unfold(x[np.newaxis], mode)[0]


def _stack_unfold(y: np.ndarray, mode: int) -> np.ndarray:
    # unfold(y[b], mode) of each block of the stack y (B, n_1, .., n_d), as
    # (B, n_mode, cols), each matrix F-contiguous: one C-order copy of y with
    # the other modes last to first, then the mode
    n_blocks, *dims = y.shape
    others = [k + 1 for k in range(len(dims)) if k != mode]
    c = np.ascontiguousarray(y.transpose([0] + others[::-1] + [mode + 1]))
    return c.reshape(n_blocks, -1, dims[mode]).transpose(0, 2, 1)


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
    # the Gram route of mode_left_svd: a wide matrix cut no finer than the floor
    return rows <= cols and cut >= GRAM_CUT_FLOOR


def _gram_left_svd(g: np.ndarray, own: Sequence[int] | None = None):
    # (U, S) of M, or of each M[b] of a stack, from its Gram g = M M^T:
    # eigenpairs in descending order, rounding-negative eigenvalues clipped
    # to 0, S = sqrt(lambda), U signed by _column_signs.  The rows of a
    # stack's M[b] past its first own[b] are padding: g gets -max(diag) on
    # them, so their directions sort after all of the block's own, and
    # their entries of U are zeroed
    m = g.shape[-1]
    pad = None if own is None or min(own) == m else np.arange(m) >= np.array(own)[:, np.newaxis]
    if pad is not None:
        blocks, rows = np.nonzero(pad)
        top = g.diagonal(axis1=1, axis2=2).max(axis=1)
        g[blocks, rows, rows] = -np.where(top > 0.0, top, 1.0)[blocks]
    lam, u = np.linalg.eigh(g)
    u = u[..., ::-1]
    if pad is not None:
        u[pad] = 0.0
    return u * _column_signs(u)[..., np.newaxis, :], np.sqrt(np.maximum(lam[..., ::-1], 0.0))


def _thin_left_svd(m: np.ndarray):
    # (U, S) of the thin SVD of a matrix or of each of a stack, U signed
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u * _column_signs(u)[..., np.newaxis, :], s


def mode_gram(x: np.ndarray, mode: int) -> np.ndarray:
    """``unfold(x, mode) @ unfold(x, mode).T`` without the unfolding.

    The Gram does not depend on the order of the unfolding's columns, so it
    is formed from reshaped views of the C-contiguous ``x`` (a copy is made
    only if ``x`` is not C-contiguous): ``x`` as ``(lead, n, trail)`` gives
    the sum over ``lead`` of its ``(n, trail)`` slices times their
    transposes.  A middle mode whose slices hold fewer than
    ``GRAM_SLICE_MIN`` entries unfolds instead.  This is the stacked
    ``_stack_mode_gram`` on a stack of one.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_mode(x, mode)
    return _stack_mode_gram(x[np.newaxis], mode)[0]


def _stack_mode_gram(y: np.ndarray, mode: int) -> np.ndarray:
    # mode_gram(y[b], mode) of each block of the stack y, (B, n, n): one
    # batched matmul, which makes the same GEMM (or SYRK) call per block,
    # on the same operands, as the block alone
    y = np.ascontiguousarray(y, dtype=np.float64)
    n_blocks, *dims = y.shape
    n = dims[mode]
    if mode == 0:
        m = y.reshape(n_blocks, n, -1)
        return np.matmul(m, m.transpose(0, 2, 1))
    if mode == len(dims) - 1:
        m = y.reshape(n_blocks, -1, n)
        return np.matmul(m.transpose(0, 2, 1), m)
    v = y.reshape(n_blocks, math.prod(dims[:mode]), n, -1)
    if v[0, 0].size < GRAM_SLICE_MIN:
        m = _stack_unfold(y, mode)
        return np.matmul(m, m.transpose(0, 2, 1))
    return np.matmul(v, v.transpose(0, 1, 3, 2)).sum(axis=1)


def mode_left_svd(x: np.ndarray, mode: int, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors ``U`` (columns, sign rule of
    :func:`_column_signs`) and descending singular values ``S`` of
    ``unfold(x, mode)``, for a caller that truncates at ``s_i / s_1`` no
    smaller than ``cut``: the stacked ``_stack_mode_left_svd`` on a stack of
    one.

    A wide unfolding with ``cut >= GRAM_CUT_FLOOR`` takes them from
    ``eigh`` of its Gram, formed by :func:`mode_gram` (pass a C-contiguous
    ``x`` to spare the copy), which skips the right singular vectors;
    values below about ``1e-7 * s_1`` are then inexact, and the columns
    stay orthonormal.  Any other unfolding takes a thin SVD.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_mode(x, mode)
    u, s = _stack_mode_left_svd(x[np.newaxis], mode, cut)
    return u[0], s[0]


def _stack_mode_left_svd(y: np.ndarray, mode: int, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """``mode_left_svd(y[b], mode, cut)`` of each block of the stack ``y``,
    ``(B, n_1, .., n_d)``, as ``U`` ``(B, n_mode, k)`` and ``S`` ``(B, k)``:
    one batched Gram and ``eigh``, or one batched thin SVD of the
    unfoldings.  The blocks share a shape, hence a route, and each
    block's LAPACK call gets the operands it would get alone, so its
    ``U`` and ``S`` are those of the block alone, bit for bit."""
    n = y.shape[mode + 1]
    if _takes_gram(n, y[0].size // n, cut):
        return _gram_left_svd(_stack_mode_gram(y, mode))
    return _thin_left_svd(_stack_unfold(y, mode))


def rank_from_spectrum(s: np.ndarray, tol: float) -> int:
    """Count singular values with ``s_i / s_1 >= tol`` (at least 1)."""
    s = np.asarray(s)
    if s.size == 0 or s[0] == 0.0:
        return 1
    return max(1, int(np.count_nonzero(s >= tol * s[0])))
