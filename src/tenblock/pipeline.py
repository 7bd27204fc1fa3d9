"""End-to-end compression of a gappy 4-D field: spatial partition,
per-block low-rank compression under an absolute error budget, raw
storage of leftover cells, archive assembly and accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import (
    BlockIndex,
    greedy_partition,
    pow2_partition,
    temporal_split,
)
from .tensor_core import Factorization, GappyTensor4, budgeted_search
from .tt import QttFactorization, TTFactorization
from .tucker import TuckerFactorization

# block factorization classes by kind; a method compresses into its kind
KINDS = {cls.kind: cls for cls in (TuckerFactorization, TTFactorization, QttFactorization)}
METHODS = tuple(KINDS)


def _quantize_f32(a: np.ndarray) -> np.ndarray:
    # storage rounds payloads to float32; measuring errors after the same
    # rounding keeps the archived budget honest
    return a.astype(np.float32).astype(np.float64)


@dataclass(frozen=True)
class BlockRecord:
    rect: BlockIndex
    interval: int
    fac: Factorization


@dataclass(frozen=True)
class CompressedArchive:
    method: str
    eps_max: float
    dims: tuple[int, int, int, int]
    domain_mask: np.ndarray
    splits: tuple[tuple[int, int], ...]
    blocks: tuple[BlockRecord, ...]
    leftover_values: np.ndarray  # (n_cells, L, K) float32, cells row-major

    @property
    def stored_elements(self) -> int:
        return sum(b.fac.n_elements for b in self.blocks) + self.leftover_values.size


@dataclass(frozen=True)
class BlockStats:
    rect: BlockIndex
    interval: int
    elements_before: int
    elements_after: int
    rel_frob_error: float
    cheb_error: float

    @property
    def cr(self) -> float:
        return self.elements_before / self.elements_after


@dataclass(frozen=True)
class CompressionReport:
    method: str
    eps_max: float
    dims: tuple[int, int, int, int]
    n_splits: int
    total_elements: int  # full bounding tensor, land included
    defined_elements: int
    block_stats: tuple[BlockStats, ...]
    leftover_count: int
    cr_all: float
    cr_sub: float
    max_cheb_error: float

    @property
    def elements_before_blocks(self) -> int:
        return sum(s.elements_before for s in self.block_stats)

    @property
    def elements_after_blocks(self) -> int:
        return sum(s.elements_after for s in self.block_stats)


def cr_metrics(
    total_elements: int,
    block_elements_before: int,
    block_elements_after: int,
    leftover_count: int,
) -> tuple[float, float]:
    """(CR_all, CR_sub): whole-tensor ratio with leftovers counted raw, and
    the ratio restricted to the partitioned blocks."""
    if min(total_elements, block_elements_before, block_elements_after, leftover_count) < 0:
        raise ValueError("negative element count")
    if block_elements_after == 0:
        raise ValueError("zero compressed-block element count")
    if block_elements_after + leftover_count == 0:
        raise ValueError("empty archive")
    cr_sub = block_elements_before / block_elements_after
    cr_all = total_elements / (block_elements_after + leftover_count)
    return cr_all, cr_sub


def leftover_cells(domain_mask: np.ndarray, blocks: Sequence[BlockIndex]) -> np.ndarray:
    """Defined cells covered by no block, as an (n, 2) index array in
    row-major order."""
    uncovered = np.asarray(domain_mask, dtype=bool).copy()
    for b in blocks:
        uncovered[b.x_start:b.x_end, b.y_start:b.y_end] = False
    return np.argwhere(uncovered)


def compress_dataset(
    data: GappyTensor4,
    method: str,
    eps_max: float,
    s_min: int = 8,
    n_splits: int = 1,
) -> tuple[CompressedArchive, CompressionReport]:
    """Partition the horizontal domain (greedy rectangles; power-of-two
    sides for qtt), split time into n_splits intervals, compress every
    block x interval subtensor to within eps_max in the Chebyshev norm,
    and store the uncovered defined cells raw."""
    cls = KINDS.get(method)
    if cls is None:
        raise ValueError(f"unknown method {method!r}")
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    mask = data.domain_mask
    if not mask.any():
        raise ValueError("empty domain")
    nx, ny, nl, nt = data.dims

    part = (pow2_partition if cls.pow2_blocks else greedy_partition)(mask, s_min)
    splits = temporal_split(nt, n_splits)

    records = []
    stats = []
    max_cheb = 0.0
    for rect in part.blocks:
        block_vals = data.values[rect.x_start:rect.x_end, rect.y_start:rect.y_end]
        for iv, (t0, t1) in enumerate(splits):
            sub = block_vals[:, :, :, t0:t1]
            fac, cheb, rel_frob = budgeted_search(cls, sub, eps_max, _quantize_f32)
            max_cheb = max(max_cheb, cheb)
            stats.append(BlockStats(rect, iv, sub.size, fac.n_elements, rel_frob, cheb))
            records.append(BlockRecord(rect, iv, fac))

    cells = leftover_cells(mask, part.blocks)
    raw = data.values[cells[:, 0], cells[:, 1]]
    leftover = np.ascontiguousarray(raw, dtype=np.float32)
    if raw.size:
        max_cheb = max(max_cheb, float(np.max(np.abs(leftover - raw))))
    if max_cheb > eps_max:
        raise ValueError(
            f"32-bit payloads cannot meet eps_max={eps_max:g}; "
            f"best achievable here is {max_cheb:g}")

    archive = CompressedArchive(
        method, float(eps_max), data.dims, mask, tuple(splits),
        tuple(records), leftover,
    )

    total = int(np.prod(data.dims, dtype=np.int64))
    before = sum(s.elements_before for s in stats)
    after = sum(s.elements_after for s in stats)
    if records:
        cr_all, cr_sub = cr_metrics(total, before, after, leftover.size)
    else:
        cr_all, cr_sub = total / leftover.size, math.nan
    report = CompressionReport(
        method, float(eps_max), data.dims, n_splits, total,
        data.defined_count, tuple(stats), leftover.size, cr_all, cr_sub, max_cheb,
    )
    return archive, report


def decompress_dataset(archive: CompressedArchive) -> GappyTensor4:
    """Rebuild the field: block cells from their factorizations, leftover
    cells from the raw store, land cells NaN."""
    nx, ny, nl, nt = archive.dims
    values = np.full((nx, ny, nl, nt), np.nan)
    for rec in archive.blocks:
        t0, t1 = archive.splits[rec.interval]
        r = rec.rect
        values[r.x_start:r.x_end, r.y_start:r.y_end, :, t0:t1] = rec.fac.reconstruct()
    covered = [rec.rect for rec in archive.blocks]
    cells = leftover_cells(archive.domain_mask, covered)
    if cells.shape[0] != archive.leftover_values.shape[0]:
        raise ValueError("leftover store does not match mask and block list")
    values[cells[:, 0], cells[:, 1]] = archive.leftover_values.astype(np.float64)
    return GappyTensor4(values, archive.domain_mask)


def sweep_splits(
    data: GappyTensor4,
    method: str,
    eps_max: float,
    split_list: Sequence[int],
    s_min: int = 8,
) -> list[CompressionReport]:
    """Run compress_dataset once per split count and collect the reports."""
    return [compress_dataset(data, method, eps_max, s_min, n)[1] for n in split_list]


def _g(x: float) -> str:
    return f"{x:.6g}"


def render_report(report: CompressionReport) -> str:
    """Per-block table plus totals, in the layout of the result tables."""
    lines = [
        f"method={report.method} eps_max={_g(report.eps_max)} "
        f"dims={'x'.join(str(d) for d in report.dims)} splits={report.n_splits}",
        f"{'block':<22}{'interval':>9}{'before':>12}{'after':>10}"
        f"{'CR':>10}{'rel_frob':>12}{'cheb':>10}",
    ]
    for s in report.block_stats:
        r = s.rect
        rect = f"[{r.x_start}:{r.x_end})x[{r.y_start}:{r.y_end})"
        lines.append(
            f"{rect:<22}{s.interval:>9}{s.elements_before:>12}{s.elements_after:>10}"
            f"{_g(s.cr):>10}{_g(s.rel_frob_error):>12}{_g(s.cheb_error):>10}")
    lines += [
        f"total elements        {report.total_elements}",
        f"defined elements      {report.defined_elements}",
        f"block elements before {report.elements_before_blocks}",
        f"block elements after  {report.elements_after_blocks}",
        f"leftover raw elements {report.leftover_count}",
        f"max chebyshev error   {_g(report.max_cheb_error)}",
        f"CR_sub                {_g(report.cr_sub)}",
        f"CR_all                {_g(report.cr_all)}",
    ]
    return "\n".join(lines)


def render_sweep(reports: Sequence[CompressionReport]) -> str:
    lines = [f"{'splits':>7}{'CR_all':>12}{'CR_sub':>12}{'after':>12}{'max_cheb':>12}"]
    for rep in reports:
        lines.append(
            f"{rep.n_splits:>7}{_g(rep.cr_all):>12}{_g(rep.cr_sub):>12}"
            f"{rep.elements_after_blocks + rep.leftover_count:>12}{_g(rep.max_cheb_error):>12}")
    return "\n".join(lines)


def report_to_dict(report: CompressionReport) -> dict:
    """Machine-readable mirror of render_report."""
    return {
        "method": report.method,
        "eps_max": report.eps_max,
        "dims": list(report.dims),
        "n_splits": report.n_splits,
        "total_elements": report.total_elements,
        "defined_elements": report.defined_elements,
        "block_elements_before": report.elements_before_blocks,
        "block_elements_after": report.elements_after_blocks,
        "leftover_count": report.leftover_count,
        "cr_all": report.cr_all,
        "cr_sub": report.cr_sub,
        "max_cheb_error": report.max_cheb_error,
        "blocks": [
            {
                "rect": list(s.rect),
                "interval": s.interval,
                "elements_before": s.elements_before,
                "elements_after": s.elements_after,
                "cr": s.cr,
                "rel_frob_error": s.rel_frob_error,
                "cheb_error": s.cheb_error,
            }
            for s in report.block_stats
        ],
    }
