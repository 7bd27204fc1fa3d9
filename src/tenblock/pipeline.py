"""End-to-end compression of a gappy 4-D field: spatial partition,
per-block low-rank compression under an absolute error budget, archive
assembly and accounting.  An archive is a list of records, each a region
(a rectangle of the partition, or the leftover: the defined cells no
rectangle covers, stored raw), a time span and a factorization.
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


@dataclass(frozen=True)
class RawFactorization(Factorization):
    """A record stored as it is: one float32 array, which ``reconstruct``
    returns.  It has no search: no method makes it."""

    values: np.ndarray
    kind = "raw"

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    def arrays(self) -> list[np.ndarray]:
        return [self.values]

    def reconstruct(self) -> np.ndarray:
        return self.values

    @classmethod
    def from_arrays(cls, arrays, fields) -> RawFactorization:
        [values] = arrays  # ValueError unless there is exactly one
        return cls(values)


# record classes by kind: each method's, for its rectangles, and the leftover's
KINDS = {cls.kind: cls for cls in (TuckerFactorization, TTFactorization, QttFactorization,
                                   RawFactorization)}
METHODS = tuple(kind for kind in KINDS if kind != RawFactorization.kind)


def _quantize_f32(a: np.ndarray) -> np.ndarray:
    # a record holds its arrays as stored: the float32 the file writes, so
    # the errors the search measures are those of what is archived
    return a.astype(np.float32)


@dataclass(frozen=True)
class BlockRecord:
    rect: BlockIndex | None  # None: the leftover cells, as ``leftover_cells`` orders them
    span: tuple[int, int]  # the time steps [t0, t1)
    fac: Factorization


@dataclass(frozen=True)
class CompressedArchive:
    """The records of a partitioned field.

    The constructor checks all but the values (each ``fac`` checked its own
    arrays), and raises ``ValueError`` when it does not hold: ``method`` is
    one of ``METHODS``; ``0 < eps_max <=`` float64's largest (kept as
    float); ``domain_mask`` is an (nx, ny) grid (kept as bool); rectangles
    lie in the grid on defined cells and do not overlap; there are leftover
    records exactly when some defined cell is uncovered, all raw, and
    rectangle records are of the method's kind; each region's spans tile
    ``[0, nt)``; and each ``fac.dims`` is its region's shape (its sides, or
    the leftover's cell count) x L x its span's length."""

    method: str
    eps_max: float
    dims: tuple[int, int, int, int]
    domain_mask: np.ndarray
    blocks: tuple[BlockRecord, ...]

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
        regions = {}
        for rec in self.blocks:
            regions.setdefault(rec.rect, []).append(rec)
        rects = [r for r in regions if r is not None]
        for r in rects:
            if not (0 <= r.x_start < r.x_end <= nx and 0 <= r.y_start < r.y_end <= ny):
                raise ValueError(f"block {r} lies outside the {nx}x{ny} grid")
            if not mask[r.x_start:r.x_end, r.y_start:r.y_end].all():
                raise ValueError(f"block {r} covers undefined cells")
        n_cells = leftover_cells(mask, rects).shape[0]
        # the rectangles lie on defined cells, so their areas add up to the
        # covered cells exactly when no two of them overlap
        if sum(r.area for r in rects) + n_cells != np.count_nonzero(mask):
            raise ValueError("block rectangles overlap")
        if (None in regions) != (n_cells > 0):
            raise ValueError(f"{n_cells} defined cells are uncovered, and there are "
                             f"{'' if None in regions else 'no '}leftover records")
        for r, recs in regions.items():
            kind, shape = ((RawFactorization.kind, (n_cells,)) if r is None
                           else (self.method, (r.x_end - r.x_start, r.y_end - r.y_start)))
            where = r or "the leftover"
            spans = sorted(tuple(rec.span) for rec in recs)
            ends = [t1 for _, t1 in spans]
            if ends[-1] != nt or any(t0 != prev or t1 <= t0
                                     for (t0, t1), prev in zip(spans, [0] + ends)):
                raise ValueError(f"{where} has records for time spans {spans}, "
                                 f"which do not tile [0, {nt})")
            for rec in recs:
                if rec.fac.kind != kind:
                    raise ValueError(f"{where} has a record of kind {rec.fac.kind!r} "
                                     f"in a {self.method} archive, expected {kind!r}")
                t0, t1 = rec.span
                if rec.fac.dims != shape + (nl, t1 - t0):
                    raise ValueError(f"{where} span {(t0, t1)} has a record of shape "
                                     f"{rec.fac.dims}, expected {shape + (nl, t1 - t0)}")
        object.__setattr__(self, "domain_mask", mask)
        object.__setattr__(self, "eps_max", float(self.eps_max))

    @property
    def stored_elements(self) -> int:
        return sum(b.fac.n_elements for b in self.blocks)


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
    and store the uncovered defined cells as one float32 raw record for all
    time, the last record.  Each run of consecutive same-length intervals
    of a rectangle is searched together (``interval_runs``).

    Rectangles are searched concurrently, one thread per CPU in the
    process's affinity set (``os.sched_getaffinity``), the calling thread
    included, each helper on its own CPU; every helper thread is joined
    before this returns or raises.  Records and report are built in partition order, so the output does not
    depend on the number of threads.  BLAS's own threads come on top of
    these; pin them (``OPENBLAS_NUM_THREADS=1``) to keep one per CPU."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cls = KINDS[method]
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
        found = []  # the runs are consecutive, so this is in interval order
        for ivs in runs:
            found += budgeted_search(cls, [subs[iv] for iv in ivs], eps_max, _quantize_f32)
        return found

    records = []
    stats = []
    for rect, found in zip(part.blocks, _search_rectangles(search, part.blocks)):
        for iv, (span, (fac, cheb, rel_frob)) in enumerate(zip(splits, found)):
            stats.append(BlockStats(rect, iv, math.prod(fac.dims), fac.n_elements, rel_frob, cheb))
            records.append(BlockRecord(rect, span, fac))

    errors = [s.cheb_error for s in stats]
    cells = leftover_cells(mask, part.blocks)
    raw = data.values[cells[:, 0], cells[:, 1]]
    leftover = np.ascontiguousarray(raw, dtype=np.float32)
    if raw.size:
        # the float32 rounding error, in place on the gathered copy
        np.abs(np.subtract(raw, leftover, out=raw), out=raw)
        errors.append(float(np.max(raw)))
        records.append(BlockRecord(None, (0, nt), RawFactorization(leftover)))
    # NumPy's max, which a NaN error (a non-finite reconstruction) wins
    max_cheb = float(np.max(errors, initial=0.0))
    if not max_cheb <= eps_max:
        raise ValueError(
            f"32-bit payloads cannot meet eps_max={eps_max:g}; "
            f"best achievable here is {max_cheb:g}")

    archive = CompressedArchive(method, float(eps_max), data.dims, mask, tuple(records))

    total = math.prod(data.dims)
    before = sum(s.elements_before for s in stats)
    after = sum(s.elements_after for s in stats)
    # CR_sub is undefined when no rectangle was placed
    cr_sub = before / after if stats else math.nan
    report = CompressionReport(
        method, float(eps_max), data.dims, n_splits, total, data.defined_count,
        tuple(stats), leftover.size, total / archive.stored_elements, cr_sub, max_cheb,
    )
    return archive, report


def decompress_dataset(archive: CompressedArchive) -> GappyTensor4:
    """Rebuild the field: every record's cells from its factorization, land
    cells NaN.

    Each cell is written once, in the field's memory order.  The field is
    allocated unfilled and NaN is written under land only: the archive's
    layout was checked when it was built (``CompressedArchive``), so one
    record covers each defined cell.  A rectangle's run of consecutive
    same-length spans (``interval_runs``) goes through one buffer, at most
    its full-time slab, into the field with one copy; any other record goes
    straight in, the leftover's by the index of its cells.

    What is left to check is the values, on what this writes rather than
    by a scan of the rebuilt field: every reconstructed record is finite
    (checked right after it is built, while it is still in cache, since
    finite float32 factors can overflow).  Every defined cell is then
    written finite and every other cell is NaN, so the result skips
    ``GappyTensor4``'s own checks.  An archive that fails one raises
    ``ValueError``."""
    values = np.empty(archive.dims)
    values[~archive.domain_mask] = np.nan
    regions = {}
    for rec in archive.blocks:
        regions.setdefault(rec.rect, []).append(rec)

    def finite(rec: BlockRecord) -> np.ndarray:
        block = rec.fac.reconstruct()
        if not np.isfinite(block).all():
            raise ValueError(f"{rec.rect or 'the leftover'} span {rec.span} reconstructs "
                             f"to non-finite values")
        return block

    for r, recs in regions.items():
        recs.sort(key=lambda rec: rec.span)
        if r is None:
            cells = tuple(leftover_cells(archive.domain_mask, filter(None, regions)).T)
        else:
            cells = (slice(r.x_start, r.x_end), slice(r.y_start, r.y_end))
        for run in interval_runs([rec.span for rec in recs]):
            (t0, t1), t_end = recs[run[0]].span, recs[run[-1]].span[1]
            if r is None or len(run) == 1:
                for iv in run:
                    values[cells + (slice(None), slice(*recs[iv].span))] = finite(recs[iv])
                continue
            # the field is C-ordered, so splitting the slab's contiguous time
            # range into (interval, step) is a view: writing dst writes the field
            slab = values[cells + (slice(None), slice(t0, t_end))]
            dst = slab.reshape(slab.shape[:3] + (len(run), t1 - t0))
            buf = np.empty((len(run),) + slab.shape[:3] + (t1 - t0,))
            for out, iv in zip(buf, run):
                out[...] = finite(recs[iv])
            dst[...] = buf.transpose(1, 2, 3, 0, 4)
            # free this run's buffer before the next run builds its own
            del buf, out
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
