"""End-to-end compression of a gappy 4-D field: spatial partition,
per-block low-rank compression under an absolute error budget, raw
storage of leftover cells, archive assembly and accounting.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Sequence

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
    """Block records of a partitioned field plus its leftover store.

    The constructor checks all but the values (each ``fac`` checked its own
    arrays), and raises ``ValueError`` when it does not hold: ``method`` is
    a key of ``KINDS`` and every ``fac.kind``; ``0 < eps_max <=`` float64's
    largest (kept as float); ``domain_mask`` is an (nx, ny) grid (kept as
    bool); the time splits tile ``[0, nt)``; every rectangle lies in the
    grid on defined cells, overlaps no other rectangle and has exactly one
    record per interval, whose ``fac.dims`` are the rectangle x L x the
    interval's length; the leftover store holds one (L, K) row per defined
    cell no rectangle covers (``leftover_cells``)."""

    method: str
    eps_max: float
    dims: tuple[int, int, int, int]
    domain_mask: np.ndarray
    splits: tuple[tuple[int, int], ...]
    blocks: tuple[BlockRecord, ...]
    leftover_values: np.ndarray  # (n_cells, L, K) float32, cells row-major

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # float(): 10**400 against the NumPy scalar raises OverflowError
        if not 0 < self.eps_max <= float(np.finfo(np.float64).max):
            raise ValueError(f"bad eps_max {self.eps_max!r}")
        nx, ny, nl, nt = self.dims
        mask = np.asarray(self.domain_mask, dtype=bool)
        if mask.shape != (nx, ny):
            raise ValueError(f"mask shape {mask.shape} does not match grid {(nx, ny)}")
        splits = self.splits
        ends = [t1 for _, t1 in splits]
        if ends[-1:] != [nt] or any(t0 != prev or t1 <= t0
                                    for (t0, t1), prev in zip(splits, [0] + ends)):
            raise ValueError(f"time splits {splits} do not tile [0, {nt})")
        intervals = {}
        for rec in self.blocks:
            if rec.fac.kind != self.method:
                raise ValueError(f"block kind {rec.fac.kind!r} in a {self.method} archive")
            intervals.setdefault(rec.rect, []).append(rec.interval)
        for r, ivs in intervals.items():
            if not (0 <= r.x_start < r.x_end <= nx and 0 <= r.y_start < r.y_end <= ny):
                raise ValueError(f"block {r} lies outside the {nx}x{ny} grid")
            if not mask[r.x_start:r.x_end, r.y_start:r.y_end].all():
                raise ValueError(f"block {r} covers undefined cells")
            if sorted(ivs) != list(range(len(splits))):
                raise ValueError(f"block {r} has records for intervals {sorted(ivs)}, "
                                 f"expected one for each of {len(splits)}")
        for rec in self.blocks:
            r, (t0, t1) = rec.rect, splits[rec.interval]
            shape = (r.x_end - r.x_start, r.y_end - r.y_start, nl, t1 - t0)
            if rec.fac.dims != shape:
                raise ValueError(f"block {r} interval {rec.interval} has a record of shape "
                                 f"{rec.fac.dims}, expected {shape}")
        n_cells = leftover_cells(mask, intervals).shape[0]
        # the rectangles lie on defined cells, so their areas add up to the
        # covered cells exactly when no two of them overlap
        if sum(r.area for r in intervals) + n_cells != np.count_nonzero(mask):
            raise ValueError("block rectangles overlap")
        if self.leftover_values.shape != (n_cells, nl, nt):
            raise ValueError(f"leftover store of shape {self.leftover_values.shape}, "
                             f"mask and block list imply {(n_cells, nl, nt)}")
        object.__setattr__(self, "domain_mask", mask)
        object.__setattr__(self, "eps_max", float(self.eps_max))

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


def leftover_cells(domain_mask: np.ndarray, blocks: Iterable[BlockIndex]) -> np.ndarray:
    """Defined cells covered by no block, as an (n, 2) index array in
    row-major order."""
    uncovered = np.asarray(domain_mask, dtype=bool).copy()
    for b in blocks:
        uncovered[b.x_start:b.x_end, b.y_start:b.y_end] = False
    return np.argwhere(uncovered)


def interval_runs(splits: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The intervals of ``splits`` in runs of consecutive same-length
    intervals, in order.  ``compress_dataset`` searches a rectangle's run as
    one stack, and ``decompress_dataset`` writes it with one copy, so
    neither holds more than the rectangle's full-time slab."""
    return [list(ivs) for _, ivs in groupby(range(len(splits)),
                                            lambda iv: splits[iv][1] - splits[iv][0])]


def _cpu_count() -> int:
    # the CPUs this process may run on: its affinity set where the platform
    # has one, so `taskset -c 0` gives one
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper_cpus() -> list[int]:
    """The CPUs of the process's affinity set other than the one the calling
    thread runs on, lowest first: the CPU of each helper thread in turn."""
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:
        return []
    getcpu = ctypes.CDLL(None).sched_getcpu
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    # sched_getcpu is -1 where the C library cannot say
    return sorted(cpus - {getcpu()})


def _pin(cpu: int | None) -> None:
    # keep the calling thread on `cpu`; left where the scheduler puts it
    # when there is no CPU for it or the system refuses
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass


def _search_rectangles(search: Callable[[BlockIndex], list],
                       rects: Sequence[BlockIndex]) -> list[list]:
    """``[search(r) for r in rects]``, on the calling thread and one helper
    thread per further CPU (``_cpu_count``), at most one thread per
    rectangle.  The threads take rectangles from one queue sorted by area:
    the caller from the large end, the helpers from the small end, so the
    last ones taken are small and the threads finish close together.  Much
    of a search is LAPACK and BLAS calls, which release the GIL.  The
    caller searches too, so there is one thread, and one glibc malloc
    arena, fewer than with a pool and an idle caller.

    Each helper keeps to its own CPU of the affinity set, one the caller is
    not on (``_helper_cpus``), while there are such CPUs.  Left to the
    scheduler, threads this short-lived were seen to share one CPU of a
    2-vCPU VM for whole runs while the other idled, so the search took 6%
    longer than on one thread in some runs and 20% less in others.

    The first exception of any thread empties the queue, so no thread takes
    another rectangle, and is raised here once every helper has joined.
    Helpers run in a copy of the caller's context, so ``np.errstate``
    holds in them too."""
    results = [None] * len(rects)
    # deque's pop, popleft and clear are atomic, so the queue needs no lock
    queue = deque(sorted(range(len(rects)), key=lambda i: rects[i].area))
    errors = []

    def work(take: Callable[[], int], cpu: int | None = None) -> None:
        _pin(cpu)
        while True:
            try:
                i = take()
            except IndexError:  # the queue is empty
                return
            try:
                results[i] = search(rects[i])
            except BaseException as exc:
                errors.append(exc)
                queue.clear()
                return

    started = []
    n_helpers = min(_cpu_count(), len(rects)) - 1
    cpus = _helper_cpus() if n_helpers > 0 else []
    try:
        for k in range(n_helpers):
            helper = threading.Thread(target=contextvars.copy_context().run,
                                      args=(work, queue.popleft,
                                            cpus[k] if k < len(cpus) else None))
            helper.start()
            started.append(helper)
        work(queue.pop)
    finally:
        queue.clear()
        for helper in started:
            helper.join()
    if errors:
        raise errors[0]
    return results


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
    and store the uncovered defined cells raw.  Each run of consecutive
    same-length intervals of a rectangle is searched together
    (``interval_runs``).

    Rectangles are searched concurrently, one thread per CPU in the
    process's affinity set (``os.sched_getaffinity``), the calling thread
    included, each helper on its own CPU; every helper thread is joined
    before this returns or raises.  Records and report are built in partition order, so the output does not
    depend on the number of threads.  BLAS's own threads come on top of
    these; pin them (``OPENBLAS_NUM_THREADS=1``) to keep one per CPU."""
    cls = KINDS.get(method)
    if cls is None:
        raise ValueError(f"unknown method {method!r}")
    if not (math.isfinite(eps_max) and eps_max > 0):
        raise ValueError(f"eps_max must be finite and positive, got {eps_max!r}")
    mask = data.domain_mask
    if not mask.any():
        raise ValueError("empty domain")
    nx, ny, nl, nt = data.dims

    part = (pow2_partition if cls.pow2_blocks else greedy_partition)(mask, s_min)
    splits = temporal_split(nt, n_splits)
    runs = interval_runs(splits)

    def search(rect: BlockIndex) -> list:
        # (fac, cheb, rel_frob) of each interval of one rectangle
        block_vals = data.values[rect.x_start:rect.x_end, rect.y_start:rect.y_end]
        subs = [block_vals[:, :, :, t0:t1] for t0, t1 in splits]
        found = {}
        for ivs in runs:
            found.update(zip(ivs, budgeted_search(cls, [subs[iv] for iv in ivs], eps_max,
                                                  _quantize_f32)))
        return [found[iv] for iv in range(len(subs))]

    records = []
    stats = []
    for rect, found in zip(part.blocks, _search_rectangles(search, part.blocks)):
        for iv, (fac, cheb, rel_frob) in enumerate(found):
            stats.append(BlockStats(rect, iv, math.prod(fac.dims), fac.n_elements, rel_frob, cheb))
            records.append(BlockRecord(rect, iv, fac))

    errors = [s.cheb_error for s in stats]
    cells = leftover_cells(mask, part.blocks)
    raw = data.values[cells[:, 0], cells[:, 1]]
    leftover = np.ascontiguousarray(raw, dtype=np.float32)
    if raw.size:
        # the float32 rounding error, in place on the gathered copy
        np.abs(np.subtract(raw, leftover, out=raw), out=raw)
        errors.append(float(np.max(raw)))
    # NumPy's max, which a NaN error (a non-finite reconstruction) wins
    max_cheb = float(np.max(errors, initial=0.0))
    if not max_cheb <= eps_max:
        raise ValueError(
            f"32-bit payloads cannot meet eps_max={eps_max:g}; "
            f"best achievable here is {max_cheb:g}")

    archive = CompressedArchive(
        method, float(eps_max), data.dims, mask, tuple(splits),
        tuple(records), leftover,
    )

    total = math.prod(data.dims)
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
    cells from the raw store, land cells NaN.

    Each cell is written once, in the field's memory order.  The field is
    allocated unfilled and NaN is written under land only: the archive's
    layout, record shapes included, was checked when it was built (see
    ``CompressedArchive``), so every defined cell is covered by a record of
    its rectangle x interval or by the leftover store.  A rectangle's
    records are written a run of consecutive same-length intervals
    (``interval_runs``) at a time: each block is placed in one run buffer,
    at most the rectangle's full-time slab, and the run goes into the field
    with one copy (a run of one interval is written straight into the
    field).

    What is left to check is the values, on what this writes rather than
    by a scan of the rebuilt field: every reconstructed block is finite
    (checked right after it is built, while it is still in cache, since
    finite float32 factors can overflow), and the leftover store is
    finite.  Every defined cell is then written finite and every other
    cell is NaN, so the result skips ``GappyTensor4``'s own checks.  An
    archive that fails one raises ``ValueError``."""
    values = np.empty(archive.dims)
    values[~archive.domain_mask] = np.nan
    splits = archive.splits
    runs = interval_runs(splits)
    facs = {}
    for rec in archive.blocks:
        facs.setdefault(rec.rect, {})[rec.interval] = rec.fac
    for r, rect_facs in facs.items():
        slab = values[r.x_start:r.x_end, r.y_start:r.y_end]
        for ivs in runs:
            (t0, t1), t_end = splits[ivs[0]], splits[ivs[-1]][1]
            # the field is C-ordered, so splitting the slab's contiguous time
            # range into (interval, step) is a view: writing dst writes the field
            dst = slab[:, :, :, t0:t_end].reshape(slab.shape[:3] + (len(ivs), t1 - t0))
            # a run of one interval has nothing to interleave and goes straight in
            run = (dst.transpose(3, 0, 1, 2, 4) if len(ivs) == 1
                   else np.empty((len(ivs),) + slab.shape[:3] + (t1 - t0,)))
            for out, iv in zip(run, ivs):
                block = rect_facs[iv].reconstruct()
                if not np.isfinite(block).all():
                    raise ValueError(f"block {r} interval {iv} reconstructs to non-finite values")
                out[...] = block
            if len(ivs) > 1:
                dst[...] = run.transpose(1, 2, 3, 0, 4)
            # free this run's arrays before the next run builds its own
            del run, out, block
    leftover = archive.leftover_values
    if not np.isfinite(leftover).all():
        raise ValueError("leftover store holds non-finite values")
    cells = leftover_cells(archive.domain_mask, facs)
    values[cells[:, 0], cells[:, 1]] = leftover
    return GappyTensor4._unchecked(values, archive.domain_mask)


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
        "cr_sub": None if math.isnan(report.cr_sub) else report.cr_sub,  # NaN is not JSON
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
