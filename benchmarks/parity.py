"""Parity table: what a change to the compressor does to its outputs.

For each case and method (tucker, tt, qtt) it compresses the field, writes
the archive (no metrics in the header), reads it back and decompresses it,
and prints CR_all, the largest read-back Chebyshev error over the defined
cells, the SHA-256 of the archive bytes and the ranks of every block record
(``rect/interval: ranks``, rect-major, interval-minor).  Before a case's
methods it prints ``field sha256=...``, the SHA-256 of the field's float64
``values`` bytes (NaN under the mask included), so that two checkouts
compare the synthesized inputs as well as the archives.

Cases:

- ``readme``: the README walkthrough field, ``tenblock synth --dims
  64x48x8x64 --seed 7`` (float32 values, as the GST file stores them), at
  ``eps_max`` 0.5 in 4 time intervals;
- ``deep-<seed>`` and ``split16-<seed>``: the 72x54x16x128 field of the
  perfbench workloads, built by its recipe (synth geometry seed 0, noise
  0.02, the phase of the seasonal cycle drawn from the seed), at ``eps_max``
  0.5 in 1 interval and 0.25 in 16.

All at ``s_min`` 8.  Last it prints one ``svp`` line: the masked and full
relative errors and the iterations of ``svp_complete`` on the instance of
acceptance criterion 8 (rank-(3,3,2,3) 30x30x10x16 truth, CR=4 sampling,
caps (5,5,4,5)), so that two checkouts compare the completion too.  Two
checkouts print comparable tables; diff them.

Usage: PYTHONPATH=src python3 benchmarks/parity.py [--seeds 1,2,3]
"""

import argparse
import hashlib
import math
import os
import random
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tenblock import (SvpParams, SynthSpec, compress_dataset, decompress_dataset,  # noqa: E402
                      frobenius_norm, random_mask, read_gsa, read_gst, svp_complete, synth,
                      write_gsa, write_gst)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from helpers import exact_tucker_tensor  # noqa: E402

METHODS = ("tucker", "tt", "qtt")
BENCH_DIMS = (72, 54, 16, 128)
GEOMETRY_SEED = 0  # the perfbench field's mask, background and noise


def bench_field(seed):
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return synth(SynthSpec(dims=BENCH_DIMS, seed=GEOMETRY_SEED, noise=0.02, phase=phase))


def readme_field(work):
    path = os.path.join(work, "field.gst")
    write_gst(synth(SynthSpec(dims=(64, 48, 8, 64), seed=7)), path)
    return read_gst(path)


def cases(seeds, work):
    yield "readme", readme_field(work), 0.5, 4
    for seed in seeds:
        g = bench_field(seed)
        yield f"deep-{seed}", g, 0.5, 1
        yield f"split16-{seed}", g, 0.25, 16


def run(g, method, eps_max, n_splits, work):
    archive, report = compress_dataset(g, method, eps_max, 8, n_splits)
    path = os.path.join(work, "archive.gsa")
    write_gsa(archive, path)
    with open(path, "rb") as f:
        sha = hashlib.sha256(f.read()).hexdigest()
    restored = decompress_dataset(read_gsa(path)[0])
    diff = np.abs(restored.values - g.values)
    cheb = float(np.max(diff[g.domain_mask]))
    ranks = [f"{'.'.join(map(str, r.rect))}/{r.interval}:{'.'.join(map(str, r.fac.ranks))}"
             for r in archive.blocks]
    return report.cr_all, cheb, sha, ranks


def svp_line():
    x = exact_tucker_tensor((30, 30, 10, 16), (3, 3, 2, 3), seed=11, scale=10.0)
    res = svp_complete(x, random_mask(x.shape, 4, seed=111),
                       SvpParams((5, 5, 4, 5), eps=1e-3, delta=1, eta=1.0, max_iters=500))
    full = frobenius_norm(res.completion - x) / frobenius_norm(x)
    return f"{'svp':<20}masked={res.rel_error!r} full={full!r} iters={res.n_iters}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as work:
        for name, g, eps_max, n_splits in cases(seeds, work):
            field_sha = hashlib.sha256(g.values.tobytes()).hexdigest()
            print(f"{name:<12}field   sha256={field_sha}")
            for method in METHODS:
                cr_all, cheb, sha, ranks = run(g, method, eps_max, n_splits, work)
                print(f"{name:<12}{method:<8}cr_all={cr_all!r} cheb={cheb:.9g} sha256={sha}")
                print("    ranks " + " ".join(ranks))
    print(svp_line())


if __name__ == "__main__":
    main()
