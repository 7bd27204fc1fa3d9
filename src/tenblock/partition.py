"""Greedy cover of a 2-D validity mask by maximal rectangles, a
power-of-two variant, and temporal interval splitting.

The greedy scan visits seeds in row-major order, expands each seed first
down the x axis and then along y (never revisiting x), and keeps the
first rectangle of strictly largest area.  One vectorized NumPy scan
does this exactly: run lengths bound every seed's area from above, and
only the seeds whose bound reaches an area already found get their exact
width.  The tests hold it to a literal cell-by-cell transliteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .tensor_core import _integer

# read by the traced runs of perfbench/run.py; there is no compiled lane
_speedups = None


class BlockIndex(NamedTuple):
    """Half-open horizontal rectangle [x_start, x_end) x [y_start, y_end)."""

    x_start: int
    x_end: int
    y_start: int
    y_end: int

    @property
    def area(self) -> int:
        return (self.x_end - self.x_start) * (self.y_end - self.y_start)


@dataclass(frozen=True)
class PartitionResult:
    blocks: tuple[BlockIndex, ...]
    leftover_cells: int


def kernel_backend() -> str:
    # recorded in the run environment by perfbench/run.py
    return "numpy"


def _runs(cells: np.ndarray, axis: int) -> np.ndarray:
    """Length of the run of True cells that starts at each cell and goes
    forward along ``axis`` (down for 0, right for 1)."""
    n = cells.shape[axis]
    pos = np.arange(n, dtype=np.int32).reshape((n, 1) if axis == 0 else (1, n))
    # stop: the first blocked position at or after each cell, or n
    stop = np.where(cells, np.int32(n), pos)
    backward = np.flip(stop, axis)
    np.minimum.accumulate(backward, axis=axis, out=backward)
    stop -= pos
    return stop


def _areas(v: np.ndarray, d: np.ndarray, s_min: int, seeds: np.ndarray) -> np.ndarray:
    """Exact block area of each flat seed index: depth d, width up to the
    first column past the seed square whose downward run v is shorter than
    d.  That column is found by binary lifting over a sparse table of
    windowed minima of v, built for the seed rows only."""
    ny = v.shape[1]
    i, j = np.divmod(seeds, ny)
    depth = d[i, j]
    rows, row_of = np.unique(i, return_inverse=True)
    # level k holds min(v[row, y:y + 2**k]), or -1 where that runs past ny
    level = np.full((len(rows), ny + 1), -1, dtype=v.dtype)
    level[:, :ny] = v[rows]
    levels = [level]
    while 2 ** len(levels) <= ny:
        step = 2 ** (len(levels) - 1)
        level = level.copy()
        level[:, :ny + 1 - step] = np.minimum(level[:, :ny + 1 - step], level[:, step:])
        levels.append(level)
    end = j + s_min
    for k in range(len(levels) - 1, -1, -1):
        end = end + np.where(levels[k][row_of, end] >= depth, 2 ** k, 0)
    return depth * (end - j)


def _find_largest(free: np.ndarray, s_min: int):
    nx, ny = free.shape
    if s_min < 1 or nx < s_min or ny < s_min:
        return None
    h = _runs(free, 1)
    d = _runs(h >= s_min, 0)   # x-expansion depth of each seed
    v = _runs(free, 0)
    # a seed's block is d deep and at most its own row's run h wide
    bound = (np.multiply(d, h, dtype=np.int64) * (d >= s_min)).ravel()
    top = int(np.argmax(bound))
    if bound[top] == 0:
        return None
    # the top seed's exact area is a floor on the largest one; only seeds
    # whose bound reaches it can hold the first maximum
    i, j = divmod(top, ny)
    short = np.flatnonzero(v[i, j + s_min:] < d[i, j])
    width = s_min + (int(short[0]) if short.size else ny - j - s_min)
    seeds = np.flatnonzero(bound >= int(d[i, j]) * width)
    areas = _areas(v, d, s_min, seeds)
    k = int(np.argmax(areas))
    i, j = divmod(int(seeds[k]), ny)
    depth = int(d[i, j])
    return i, i + depth, j, j + int(areas[k]) // depth


def greedy_partition(domain_mask, s_min: int) -> PartitionResult:
    """Repeatedly take the largest free rectangle until no s_min square
    remains; leftover_cells counts the defined cells no block covers."""
    domain_mask = np.asarray(domain_mask, dtype=bool)
    if domain_mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    s_min = _integer("s_min", s_min)
    if s_min < 1:
        raise ValueError("s_min must be >= 1")
    free = domain_mask.copy()
    blocks = []
    while True:
        found = _find_largest(free, s_min)
        if found is None:
            break
        blocks.append(BlockIndex(*found))
        free[found[0]:found[1], found[2]:found[3]] = False
    return PartitionResult(tuple(blocks), int(free.sum()))


def _pow2_shapes(nx: int, ny: int, s_min: int) -> list[tuple[int, int]]:
    # area desc, then aspect ratio closest to square, then wider in x
    a_min = s_min.bit_length() - 1
    ws = [1 << a for a in range(a_min, nx.bit_length()) if (1 << a) <= nx]
    hs = [1 << b for b in range(a_min, ny.bit_length()) if (1 << b) <= ny]
    shapes = [(w, h) for w in ws for h in hs]
    shapes.sort(key=lambda s: (-s[0] * s[1],
                               abs(s[0].bit_length() - s[1].bit_length()),
                               -s[0]))
    return shapes


def pow2_partition(domain_mask, s_min: int) -> PartitionResult:
    """Greedy cover by rectangles whose sides are powers of two >= s_min.

    Each round tries candidate shapes in decreasing area, preferring the
    shape closest to square (then the wider one) among equal areas, and
    places the first shape that fits anywhere, at its earliest row-major
    position.  This favors e.g. 16x8 over 4x32 wherever both would fit.
    """
    domain_mask = np.asarray(domain_mask, dtype=bool)
    if domain_mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    s_min = _integer("s_min", s_min)
    if s_min < 1 or s_min & (s_min - 1):
        raise ValueError("s_min must be a power of two")
    nx, ny = domain_mask.shape
    shapes = _pow2_shapes(nx, ny, s_min)
    free = domain_mask.copy()
    blocks = []
    ii = np.zeros((nx + 1, ny + 1), dtype=np.int64)   # integral image of free
    ii[1:, 1:] = free.cumsum(axis=0).cumsum(axis=1)
    k = 0
    while k < len(shapes):
        w, h = shapes[k]
        fits = ii[w:, h:] - ii[:-w, h:] - ii[w:, :-h] + ii[:-w, :-h] == w * h
        if not fits.any():
            # free cells only shrink, so this shape never fits again
            k += 1
            continue
        i, j = divmod(int(np.argmax(fits)), fits.shape[1])
        blocks.append(BlockIndex(i, i + w, j, j + h))
        free[i:i + w, j:j + h] = False
        ii[1:, 1:] = free.cumsum(axis=0).cumsum(axis=1)
    return PartitionResult(tuple(blocks), int(free.sum()))


def temporal_split(t: int, n: int) -> list[tuple[int, int]]:
    """N contiguous half-open intervals covering [0, t); base length
    floor(t/n) with the remainder absorbed by the last interval."""
    t = _integer("t", t)
    n = _integer("n", n)
    if not 1 <= n <= t:
        raise ValueError(f"need 1 <= n <= {t}, got {n}")
    base = t // n
    return [(k * base, (k + 1) * base if k < n - 1 else t) for k in range(n)]
