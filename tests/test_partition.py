import json
from pathlib import Path

import numpy as np
import pytest

from helpers import is_valid_block
from tenblock.partition import (
    BlockIndex,
    _pow2_shapes,
    greedy_partition,
    kernel_backend,
    pow2_partition,
    temporal_split,
)
from tenblock.synth import coastline_mask


def find_largest_block(domain_mask, used_mask, s_min):
    # the largest free rectangle is the first block greedy_partition places
    blocks = greedy_partition(domain_mask & ~used_mask, s_min).blocks
    return blocks[0] if blocks else None


def l_shape_mask():
    # 20x20 with the top-right 10x10 quadrant missing
    m = np.ones((20, 20), dtype=bool)
    m[:10, 10:] = False
    return m


def reference_find_largest(domain_mask, used_mask, s_min):
    """Literal transliteration of the scan: every seed in row-major order,
    expand rows first, then columns, keep the first strictly larger area."""
    nx, ny = domain_mask.shape
    best = None
    best_area = 0
    for i in range(nx):
        for j in range(ny):
            if not is_valid_block(domain_mask, used_mask,
                                  (i, i + s_min, j, j + s_min), s_min):
                continue
            x_end = i + s_min
            while is_valid_block(domain_mask, used_mask,
                                 (i, x_end + 1, j, j + s_min), s_min):
                x_end += 1
            y_end = j + s_min
            while is_valid_block(domain_mask, used_mask,
                                 (i, x_end, j, y_end + 1), s_min):
                y_end += 1
            area = (x_end - i) * (y_end - j)
            if area > best_area:
                best_area = area
                best = (i, x_end, j, y_end)
    return best


def test_is_valid_block_basics():
    mask = l_shape_mask()
    used = np.zeros_like(mask)
    assert is_valid_block(mask, used, (0, 10, 0, 10), 10)
    assert not is_valid_block(mask, used, (0, 10, 5, 15), 10)   # covers a hole
    assert not is_valid_block(mask, used, (0, 21, 0, 10), 10)   # out of bounds
    assert not is_valid_block(mask, used, (0, 9, 0, 10), 10)    # too thin
    used[5, 5] = True
    assert not is_valid_block(mask, used, (0, 10, 0, 10), 10)   # overlaps used


def test_find_largest_none_when_all_missing():
    mask = np.zeros((30, 30), dtype=bool)
    assert find_largest_block(mask, np.zeros_like(mask), 4) is None


def test_find_largest_none_when_too_small():
    mask = np.zeros((30, 30), dtype=bool)
    mask[:3, :10] = True
    assert find_largest_block(mask, np.zeros_like(mask), 4) is None


def test_find_largest_full_square():
    mask = np.ones((10, 10), dtype=bool)
    b = find_largest_block(mask, np.zeros_like(mask), 10)
    assert b == BlockIndex(0, 10, 0, 10)


def test_find_largest_l_shape():
    mask = l_shape_mask()
    b = find_largest_block(mask, np.zeros_like(mask), 10)
    assert b == BlockIndex(0, 20, 0, 10)


def test_greedy_partition_l_shape_trace():
    res = greedy_partition(l_shape_mask(), 10)
    assert [tuple(b) for b in res.blocks] == [(0, 20, 0, 10), (10, 20, 10, 20)]
    assert res.leftover_cells == 0


def test_greedy_partition_all_missing():
    res = greedy_partition(np.zeros((12, 12), dtype=bool), 4)
    assert res.blocks == ()
    assert res.leftover_cells == 0


def test_greedy_partition_disjoint_and_in_domain():
    rng = np.random.default_rng(0)
    mask = coastline_mask(60, 45, 0.15, rng)
    res = greedy_partition(mask, 5)
    covered = np.zeros_like(mask)
    for b in res.blocks:
        assert b.x_end - b.x_start >= 5 and b.y_end - b.y_start >= 5
        sub = covered[b.x_start:b.x_end, b.y_start:b.y_end]
        assert not sub.any()
        sub[:] = True
        assert mask[b.x_start:b.x_end, b.y_start:b.y_end].all()
    assert res.leftover_cells == int((mask & ~covered).sum())


@pytest.mark.parametrize("shape, s_mins, density", [
    ((18, 15), (2, 5), (0.4, 0.95)),
    ((18, 15), (1, 3), (0.4, 0.95)),
    ((1, 15), (1, 3), (0.4, 1.0)),
    ((18, 1), (1, 3), (0.4, 1.0)),
    ((18, 15), (1, 6), (1.0, 1.0)),
], ids=["s_min2-4", "s_min1-2", "one-row", "one-column", "all-free"])
def test_find_largest_matches_reference_scan(shape, s_mins, density):
    rng = np.random.default_rng(1)
    for trial in range(30):
        mask = rng.random(shape) < rng.uniform(*density)
        used = np.zeros_like(mask)
        s_min = int(rng.integers(*s_mins))
        want = reference_find_largest(mask, used, s_min)
        got = find_largest_block(mask, used, s_min)
        assert (got is None and want is None) or tuple(got) == want


@pytest.mark.parametrize("shape, s_min, density", [
    ((16, 14), 3, 0.85),
    ((16, 14), 1, 0.85),
    ((16, 14), 2, 0.85),
    ((1, 14), 1, 0.85),
    ((16, 1), 2, 0.85),
    ((16, 14), 3, 1.0),
], ids=["s_min3", "s_min1", "s_min2", "one-row", "one-column", "all-free"])
def test_greedy_matches_reference_scan_with_used_cells(shape, s_min, density):
    rng = np.random.default_rng(2)
    for trial in range(8):
        mask = rng.random(shape) < density
        res = greedy_partition(mask, s_min)
        used = np.zeros_like(mask)
        for b in res.blocks:
            want = reference_find_largest(mask, used, s_min)
            assert tuple(b) == want
            used[b.x_start:b.x_end, b.y_start:b.y_end] = True


def test_kernel_backend_reports_a_known_name():
    assert kernel_backend() in ("compiled", "numpy")


def test_greedy_partition_no_remaining_block():
    rng = np.random.default_rng(4)
    mask = coastline_mask(80, 60, 0.2, rng)
    s_min = 6
    res = greedy_partition(mask, s_min)
    free = mask.copy()
    for b in res.blocks:
        free[b.x_start:b.x_end, b.y_start:b.y_end] = False
    # integral image; any s_min x s_min all-free window disproves maximality
    ii = np.zeros((free.shape[0] + 1, free.shape[1] + 1), dtype=np.int64)
    ii[1:, 1:] = free.cumsum(axis=0).cumsum(axis=1)
    w = s_min
    sums = ii[w:, w:] - ii[:-w, w:] - ii[w:, :-w] + ii[:-w, :-w]
    assert not (sums == w * w).any()


def test_greedy_partition_deterministic():
    rng = np.random.default_rng(5)
    mask = coastline_mask(50, 40, 0.15, rng)
    a = greedy_partition(mask, 5)
    b = greedy_partition(mask, 5)
    assert a.blocks == b.blocks and a.leftover_cells == b.leftover_cells


def test_pow2_partition_full_square():
    mask = np.ones((16, 16), dtype=bool)
    res = pow2_partition(mask, 4)
    assert [tuple(b) for b in res.blocks] == [(0, 16, 0, 16)]
    assert res.leftover_cells == 0


def test_pow2_partition_trims_to_power_of_two():
    # at s_min=8 the 4-wide strips around the 16x16 block stay leftover
    mask = np.ones((20, 20), dtype=bool)
    res = pow2_partition(mask, 8)
    assert [tuple(b) for b in res.blocks] == [(0, 16, 0, 16)]
    assert res.leftover_cells == 400 - 256
    # at s_min=4 those strips are coverable
    res4 = pow2_partition(mask, 4)
    assert res4.blocks[0] == BlockIndex(0, 16, 0, 16)
    assert res4.leftover_cells == 0


def test_pow2_partition_sides_are_powers_of_two():
    rng = np.random.default_rng(6)
    mask = coastline_mask(70, 50, 0.15, rng)
    res = pow2_partition(mask, 4)
    for b in res.blocks:
        for side in (b.x_end - b.x_start, b.y_end - b.y_start):
            assert side >= 4 and side & (side - 1) == 0
        assert mask[b.x_start:b.x_end, b.y_start:b.y_end].all()


def test_pow2_partition_prefers_squarer_shape_of_equal_area():
    # a 4x32 strip and a 16x8 region both have area 128; the squarer
    # shape must be placed first
    mask = np.zeros((30, 40), dtype=bool)
    mask[0:4, 0:32] = True
    mask[10:26, 0:8] = True
    res = pow2_partition(mask, 4)
    assert tuple(res.blocks[0]) == (10, 26, 0, 8)


def reference_pow2_partition(domain_mask, s_min):
    """The cover loop as first written: every round restarts at the
    largest shape and builds a fresh integral image per shape tried."""
    free = np.asarray(domain_mask, dtype=bool).copy()
    nx, ny = free.shape
    shapes = _pow2_shapes(nx, ny, s_min)
    blocks = []
    placed = True
    while placed:
        placed = False
        for w, h in shapes:
            ii = np.zeros((nx + 1, ny + 1), dtype=np.int64)
            ii[1:, 1:] = free.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
            hits = ii[w:, h:] - ii[:-w, h:] - ii[w:, :-h] + ii[:-w, :-h] == w * h
            if hits.any():
                i, j = divmod(int(np.argmax(hits)), hits.shape[1])
                blocks.append(BlockIndex(i, i + w, j, j + h))
                free[i:i + w, j:j + h] = False
                placed = True
                break
    return tuple(blocks), int(free.sum())


@pytest.mark.parametrize("s_min", [1, 2, 4, 8])
def test_pow2_partition_matches_restarting_loop(s_min):
    rng = np.random.default_rng(7)
    for trial in range(12):
        nx, ny = (int(n) for n in rng.integers(1, 64, size=2))
        if trial % 2:
            mask = rng.random((nx, ny)) < rng.uniform(0.7, 1.0)
        else:
            mask = coastline_mask(nx, ny, rng.uniform(0.05, 0.3), rng)
        res = pow2_partition(mask, s_min)
        assert (res.blocks, res.leftover_cells) == reference_pow2_partition(mask, s_min)


def test_partitions_pinned_at_scale():
    # block lists written by the row-loop scan this one replaced
    pinned = json.loads((Path(__file__).parent / "partition_pinned.json").read_text())
    mask = coastline_mask(128, 96, 0.15, np.random.default_rng(0))
    for name, partition in [("greedy", greedy_partition), ("pow2", pow2_partition)]:
        res = partition(mask, pinned["s_min"])
        assert [list(b) for b in res.blocks] == pinned[name]["blocks"], name
        assert res.leftover_cells == pinned[name]["leftover_cells"], name
        areas = np.array([b.area for b in res.blocks], dtype=np.int64)
        assert areas.sum() + res.leftover_cells == np.count_nonzero(mask)


def test_pow2_partition_requires_power_of_two_s_min():
    with pytest.raises(ValueError):
        pow2_partition(np.ones((8, 8), dtype=bool), 3)


def test_temporal_split_examples():
    assert temporal_split(2922, 4) == [(0, 730), (730, 1460), (1460, 2190), (2190, 2922)]
    assert temporal_split(10, 1) == [(0, 10)]
    assert temporal_split(7, 3) == [(0, 2), (2, 4), (4, 7)]


def test_temporal_split_covers_range():
    for t, n in [(256, 7), (100, 100), (13, 5)]:
        parts = temporal_split(t, n)
        assert len(parts) == n
        assert parts[0][0] == 0 and parts[-1][1] == t
        for (a0, a1), (b0, b1) in zip(parts, parts[1:]):
            assert a1 == b0 and a1 > a0


def test_temporal_split_validation():
    with pytest.raises(ValueError):
        temporal_split(10, 0)
    with pytest.raises(ValueError):
        temporal_split(10, 11)
