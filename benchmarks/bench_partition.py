"""Time the greedy and power-of-two partitions on coastline masks.

Runs both covers on synthetic coastline masks of growing size and reports
the best wall time of three runs with the block counts.

Usage: python3 benchmarks/bench_partition.py [--sizes 128x96,306x200]
"""

import argparse
import time

import numpy as np

from tenblock.partition import greedy_partition, pow2_partition
from tenblock.synth import coastline_mask


def bench(partition, mask, s_min, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = partition(mask, s_min)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="64x48,128x96,306x200,512x384")
    ap.add_argument("--s-min", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sizes = []
    for tok in args.sizes.split(","):
        nx, ny = tok.lower().split("x")
        sizes.append((int(nx), int(ny)))

    print(f"{'size':>10} {'greedy':>10} {'blocks':>7} {'pow2':>10} {'blocks':>7}")
    rng = np.random.default_rng(args.seed)
    for nx, ny in sizes:
        mask = coastline_mask(nx, ny, 0.15, rng)
        t_g, greedy = bench(greedy_partition, mask, args.s_min)
        t_p, pow2 = bench(pow2_partition, mask, args.s_min)
        label = f"{nx}x{ny}"
        print(f"{label:>10} {t_g:>9.4f}s {len(greedy.blocks):>7} "
              f"{t_p:>9.4f}s {len(pow2.blocks):>7}")


if __name__ == "__main__":
    main()
