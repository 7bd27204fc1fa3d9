"""Time the factorization layers on the blocks of the benchmark field.

Builds the 72x54x16x128 synthetic field of the `deep` and `split16`
workloads (``SynthSpec(dims=(72, 54, 16, 128), seed=0, noise=0.02)``),
partitions it at ``s_min=8`` (greedy blocks; power-of-two blocks for QTT)
and cuts time into 1 and 16 intervals.  For each split count it times every
layer summed over all block x interval subtensors.  These layers run at the
first candidate a budgeted search tries (Tucker ranks and TT/QTT sweep
tolerance ``TOL0``):

- the Tucker search's truncated pass (mode bases and the one core that
  every candidate slices) as the search runs it: once per search stack
  (below), over a copy of the stack's blocks into one array as the search
  makes it; and Tucker reconstruct of each block's first candidate;
- ``ttsvd`` and ``qtt_compress``;
- TT and QTT reconstruct.

The "tucker search", "tt search" and "qtt search" rows time the whole
search as ``compress_dataset`` runs it: one ``budgeted_search`` per
rectangle and run of consecutive same-length intervals, over the run's
stack (``interval_runs``), with float32 quantization at the workload's budget
(``eps_max`` 0.5 at 1 split as in `deep`, else 0.25 as in `split16`): the
stack copies, every candidate (Tucker's rounds of core slices, TT's and
QTT's stacked tolerance-halving sweeps) and every verify.  The
"read_gsa" and "decompress" rows of each method time the restore of the
workload's archive (``compress_dataset`` at that budget, written by
``write_gsa`` to a temporary file): ``read_gsa`` of the file and
``decompress_dataset`` of what it read.  The last two rows are ``synth``
of the field and the ``GappyTensor4`` validation of the whole field,
which neither ``synth`` nor decompress repeats.  Each figure is the median
wall time of ``--repeats`` runs in one process, BLAS pinned to one thread.

Usage: python3 benchmarks/bench_layers.py [--repeats 15] [--splits 1,16]
"""

import argparse
import os
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tenblock.formats import read_gsa, write_gsa  # noqa: E402
from tenblock.partition import greedy_partition, pow2_partition, temporal_split  # noqa: E402
from tenblock.pipeline import (KINDS, _quantize_f32, compress_dataset,  # noqa: E402
                               decompress_dataset, interval_runs)
from tenblock.synth import SynthSpec, synth  # noqa: E402
from tenblock.tensor_core import GappyTensor4, budgeted_search  # noqa: E402
from tenblock.tt import (TOL0 as TT_TOL0, QttFactorization, TTFactorization,  # noqa: E402
                         qtt_compress, ttsvd)
from tenblock.tucker import TuckerFactorization, _truncated_pass  # noqa: E402

DIMS = (72, 54, 16, 128)


def median_ms(fn, items, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def subtensors(values, blocks, splits):
    return [values[b.x_start:b.x_end, b.y_start:b.y_end, :, t0:t1]
            for b in blocks for t0, t1 in splits]


def search_stacks(values, blocks, splits):
    # the block lists compress_dataset hands to one budgeted_search each
    return [[values[b.x_start:b.x_end, b.y_start:b.y_end, :, splits[iv][0]:splits[iv][1]]
             for iv in ivs] for b in blocks for ivs in interval_runs(splits)]


def first_tuckers(stack):
    # the first candidate the Tucker search offers each block of the stack:
    # an accept that finds every candidate within budget ends each block there
    found = []
    TuckerFactorization.search(stack, np.ones(len(stack)),
                               lambda b, fac: found.append(fac) or True)
    return found


def layer_times(g, n_splits, repeats):
    splits = temporal_split(g.dims[3], n_splits)
    greedy = greedy_partition(g.domain_mask, 8).blocks
    pow2 = pow2_partition(g.domain_mask, 8).blocks
    subs = subtensors(g.values, greedy, splits)
    pow2_subs = subtensors(g.values, pow2, splits)
    stacks = search_stacks(g.values, greedy, splits)

    tuckers = [fac for s in stacks for fac in first_tuckers(np.stack(s))]
    tts = [ttsvd(x, tol=TT_TOL0) for x in subs]
    qtts = [qtt_compress(x, tol=TT_TOL0) for x in pow2_subs]
    eps_max = 0.5 if n_splits == 1 else 0.25
    times = {
        # the stack copy included, as the search makes it
        "tucker bases+core": median_ms(lambda s: _truncated_pass(np.stack(s)), stacks, repeats),
        "tucker reconstruct": median_ms(lambda f: f.reconstruct(), tuckers, repeats),
        "ttsvd": median_ms(lambda x: ttsvd(x, tol=TT_TOL0), subs, repeats),
        "qtt_compress": median_ms(lambda x: qtt_compress(x, tol=TT_TOL0), pow2_subs, repeats),
        "tt reconstruct": median_ms(lambda f: f.reconstruct(), tts, repeats),
        "qtt reconstruct": median_ms(lambda f: f.reconstruct(), qtts, repeats),
        "tucker search": median_ms(
            lambda s: budgeted_search(TuckerFactorization, s, eps_max, _quantize_f32),
            stacks, repeats),
        "tt search": median_ms(
            lambda s: budgeted_search(TTFactorization, s, eps_max, _quantize_f32),
            stacks, repeats),
        "qtt search": median_ms(
            lambda s: budgeted_search(QttFactorization, s, eps_max, _quantize_f32),
            search_stacks(g.values, pow2, splits), repeats),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for method in KINDS:
            path = os.path.join(tmp, f"{method}.gsa")
            write_gsa(compress_dataset(g, method, eps_max, 8, n_splits)[0], path)
            times[f"{method} read_gsa"] = median_ms(read_gsa, [path], repeats)
            times[f"{method} decompress"] = median_ms(
                decompress_dataset, [read_gsa(path)[0]], repeats)
    return times, len(subs), len(pow2_subs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--splits", default="1,16")
    args = ap.parse_args()

    spec = SynthSpec(dims=DIMS, seed=0, noise=0.02)
    g = synth(spec)
    split_counts = [int(s) for s in args.splits.split(",")]
    columns = []
    for n in split_counts:
        times, n_greedy, n_pow2 = layer_times(g, n, args.repeats)
        columns.append(times)
        print(f"splits={n}: {n_greedy} greedy and {n_pow2} pow2 subtensors")
    synth_ms = median_ms(synth, [spec], args.repeats)
    validate = median_ms(lambda _: GappyTensor4(g.values, g.domain_mask), [None], args.repeats)

    print(f"{'layer (ms)':<22}" + "".join(f"{f'splits={n}':>12}" for n in split_counts))
    for layer in columns[0]:
        print(f"{layer:<22}" + "".join(f"{c[layer]:>12.2f}" for c in columns))
    print(f"{'synth':<22}{synth_ms:>12.2f}")
    print(f"{'GappyTensor4 check':<22}{validate:>12.2f}")


if __name__ == "__main__":
    main()
