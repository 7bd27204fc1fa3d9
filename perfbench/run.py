"""Whole-path benchmark of tenblock: synth -> compress_dataset -> write_gsa ->
read_gsa -> decompress_dataset -> verify, for tucker, tt and qtt.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 56 --trace 0

One process, one job at a time (closed loop, one client).  Passes over the
three methods repeat while the next one fits in ``--seconds``; the first is a
warm-up that is checked but not timed, and every metric is the median over
the rest.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates traced and untraced passes and prints the per-layer metrics.  The
last line of standard output is the result as JSON; the lines before it name
the environment and the per-pass figures.  See README.md in
this directory for the metric and workload definitions.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# Pinned before NumPy loads OpenBLAS.  One thread: the factorizations here
# are too small to gain from a second one, and a single-threaded run is not
# stalled when a neighbour takes the other core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

METHODS = ("tucker", "tt", "qtt")
SETUP_REPEATS = 5
# The land mask is part of a workload, as a model grid is for real data, so
# the field always comes from this synth seed; the run seed only shifts the
# seasonal phase.  Seed-drawn masks moved CR_all by 20% between seeds, and
# seed-drawn amplitude and depth decay changed how many TT sweeps a block
# needs, so compress time varied with the seed rather than with the code.
GEOMETRY_SEED = 0


@dataclass(frozen=True)
class Workload:
    dims: tuple[int, int, int, int]
    eps_max: float
    n_splits: int
    noise: float = 0.02
    s_min: int = 8

    def spec(self, seed):
        """Synth recipe for one run: the workload's field with a seed-drawn
        phase of the seasonal cycle."""
        from tenblock import SynthSpec
        phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        return SynthSpec(dims=self.dims, seed=GEOMETRY_SEED, noise=self.noise, phase=phase)


WORKLOADS = {
    # factorization-bound: a few large deep blocks, LAPACK dominates
    "deep": Workload((72, 54, 16, 128), eps_max=0.5, n_splits=1),
    # partition-bound: a large grid of shallow, cheap blocks.  Runnable but
    # not listed in BENCHMARK.json: its interpreter-bound partition loops
    # made run medians spread by 0.27-0.42 (IQR over median) on a shared
    # host, past any bound a regression gate can hold
    "wide": Workload((224, 168, 4, 16), eps_max=0.5, n_splits=1),
    # the deep field cut into many small 8-step factorizations and records
    "split16": Workload((72, 54, 16, 128), eps_max=0.25, n_splits=16),
    # tiny field for the smoke test; not a measured workload
    "smoke": Workload((32, 24, 4, 16), eps_max=0.5, n_splits=2),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_tenblock():
    if not (SRC / "tenblock" / "__init__.py").is_file():
        sys.exit(f"no tenblock sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import tenblock
    return tenblock


def time_import():
    """Wall time of a fresh interpreter that imports NumPy and tenblock, as a
    user's script starts; the benchmark waits for it to exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, tenblock"],
                   env=env, check=True, timeout=120)
    return time.perf_counter() - t0


class Bench:
    def __init__(self, tb, workload: Workload, seed: int, work_dir: Path):
        self.tb = tb
        self.wl = workload
        self.seed = seed
        self.work_dir = work_dir
        self.field = None

    def synth(self):
        spec = self.wl.spec(self.seed)
        self.field = None  # release the previous copy before building the next
        self.field = self.tb.synth(spec)

    def warm_up(self):
        tb = self.tb
        small = tb.synth(WORKLOADS["smoke"].spec(self.seed))
        for method in METHODS:
            archive, _ = tb.compress_dataset(small, method, 0.5, 8, 2)
            path = self.work_dir / "warm.gsa"
            tb.write_gsa(archive, str(path))
            tb.decompress_dataset(tb.read_gsa(str(path))[0])

    def run_method(self, method, tracer=None):
        """Compress, write, read back, decompress and verify one method.

        Returns the pass figures of this method and the list of correctness
        violations (empty when the read-back field is right)."""
        tb = self.tb
        wl = self.wl
        span = tracer.span if tracer else lambda name: nullcontext()
        first = self.work_dir / f"{method}.gsa"
        second = self.work_dir / f"{method}.again.gsa"
        gc.collect()  # start every method from the same heap state
        t0 = time.perf_counter()
        with span("compress"):
            archive, report = tb.compress_dataset(
                self.field, method, wl.eps_max, wl.s_min, wl.n_splits)
        with span("write"):
            tb.write_gsa(archive, str(first))
        t1 = time.perf_counter()
        del archive
        with span("read"):
            back, _ = tb.read_gsa(str(first))
        with span("decompress"):
            restored = tb.decompress_dataset(back)
        t2 = time.perf_counter()

        errors = []
        got = restored.values
        undefined = ~self.field.domain_mask[:, :, None, None]
        if not np.array_equal(np.isnan(got), np.broadcast_to(undefined, got.shape)):
            errors.append("NaN pattern differs from the undefined cells")
        diff = got - self.field.values  # NaN exactly on the undefined cells
        np.abs(diff, out=diff)
        cheb = float(np.fmax.reduce(diff, axis=None))
        del diff, got, restored
        if not cheb <= wl.eps_max:
            errors.append(f"read-back Chebyshev error {cheb:g} > eps_max {wl.eps_max:g}")
        tb.write_gsa(back, str(second))
        blob = first.read_bytes()
        if blob != second.read_bytes():
            errors.append("rewrite of the read-back archive differs")
        payload = 4 * (report.elements_after_blocks + report.leftover_count)
        return {
            "compress_s": t1 - t0,
            "decompress_s": t2 - t1,
            "cr_all": report.cr_all,
            "cr_sub": report.cr_sub,
            "archive_bytes": len(blob),
            "header_bytes": len(blob) - payload,
            "cheb": cheb,
        }, errors


def run_pass(bench, pass_idx, tracer=None):
    out = {}
    failed = 0
    for method in METHODS:
        if tracer is not None:
            tracer.request = (pass_idx, method)
        try:
            out[method], errors = bench.run_method(method, tracer)
        except Exception as e:  # a crash is a failed operation, not a result
            traceback.print_exc()
            errors = [f"{type(e).__name__}: {e}"]
        for err in errors:
            print(f"FAIL pass {pass_idx} {method}: {err}", file=sys.stderr)
        failed += bool(errors)
    return out, failed


def lane_parity(mask, s_min):
    """Time the greedy cover of ``mask`` in both partition lanes and compare
    the block lists.  Returns None when the compiled lane is not importable."""
    from tenblock import partition
    if partition._speedups is None:
        return None
    t0 = time.perf_counter()
    compiled = partition.greedy_partition(mask, s_min).blocks
    t1 = time.perf_counter()
    free = mask.copy()
    blocks = []
    while (found := partition._find_largest_numpy(free, s_min)) is not None:
        blocks.append(partition.BlockIndex(*found))
        free[found[0]:found[1], found[2]:found[3]] = False
    t2 = time.perf_counter()
    return {"compiled_s": t1 - t0, "numpy_s": t2 - t1, "identical": tuple(blocks) == compiled}


def environment(tb, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": tb.kernel_backend(),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _per_method(name, unit):
    return {f"{name}.{method}": unit for method in METHODS}


# metric name -> unit, in the order they are printed; BENCHMARK.json lists
# the same names with their directions and bounds
END_TO_END = {
    **_per_method("compress_s", "s"),
    "decompress_s": "s",
    **_per_method("cr_all", "ratio"),
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "synth.s": "s",
    "partition.greedy_s": "s",
    "partition.pow2_s": "s",
    **_per_method("partition.blocks", "count"),
    **_per_method("partition.leftover_cells", "count"),
    "tucker.compress_abs_s": "s",
    "tucker.calls": "count",
    "tucker.elements_after": "count",
    "tt.compress_abs_s.tt": "s",
    "tt.compress_abs_s.qtt": "s",
    "tt.sweeps_per_block.tt": "ratio",
    "tt.sweeps_per_block.qtt": "ratio",
    "tensor_core.lapack_s": "s",
    "tensor_core.lapack_calls": "count",
    "tensor_core.lapack_share": "ratio",
    "pipeline.reconstruct_s": "s",
    "pipeline.reconstruct_calls": "count",
    "pipeline.verify_s": "s",
    "pipeline.self_s": "s",
    "pipeline.decompress_s": "s",
    **_per_method("pipeline.cr_sub", "ratio"),
    "formats.write_s": "s",
    "formats.read_s": "s",
    **_per_method("formats.archive_bytes", "bytes"),
    **_per_method("formats.header_bytes", "bytes"),
    **_per_method("trace.overhead", "ratio"),
}


def end_to_end(passes, setup_s):
    m = {"decompress_s": median(sum(p[x]["decompress_s"] for x in METHODS) for p in passes)}
    for method in METHODS:
        m[f"compress_s.{method}"] = median(p[method]["compress_s"] for p in passes)
        m[f"cr_all.{method}"] = median(p[method]["cr_all"] for p in passes)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["setup_s"] = setup_s
    return m


def per_layer(traced, untraced, synth_s):
    """Medians over the traced passes, given as (layer numbers, pass
    figures); an entry point the program no longer has reads as 0."""
    m = {name: median(layers.get(name, 0.0) for layers, _ in traced) for name in PER_LAYER}
    m["synth.s"] = synth_s
    for method in METHODS:
        for key, name in (("cr_sub", "pipeline.cr_sub"),
                          ("archive_bytes", "formats.archive_bytes"),
                          ("header_bytes", "formats.header_bytes")):
            m[f"{name}.{method}"] = median(p[method][key] for _, p in traced)
        slow = median(p[method]["compress_s"] for _, p in traced)
        fast = median(p[method]["compress_s"] for p in untraced)
        m[f"trace.overhead.{method}"] = slow / fast
    return m


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    tb = load_tenblock()
    import_s = time.perf_counter() - T_START  # recorded, not a metric: once per process

    work_dir = ROOT / ".perfbench_work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        return measure(tb, args, work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(tb, args, work_dir, import_s):
    bench = Bench(tb, WORKLOADS[args.workload], args.seed, work_dir)
    # set-up is repeated and its median reported: one import alone varied
    # by 20-40% between runs
    import_times, synth_times, setup_times = [], [], []
    for _ in range(SETUP_REPEATS):
        imported = time_import()
        t0 = time.perf_counter()
        bench.synth()
        t1 = time.perf_counter()
        bench.warm_up()
        t2 = time.perf_counter()
        import_times.append(imported)
        synth_times.append(t1 - t0)
        setup_times.append(imported + t2 - t0)
    setup_s = median(setup_times)

    env = environment(tb, args)
    env["setup"] = {"import_s": import_s, "import_rounds_s": import_times,
                    "rounds_s": setup_times, "synth_s": synth_times}
    if args.trace:
        parity = lane_parity(bench.field.domain_mask, bench.wl.s_min)
        env["lane_parity"] = parity if parity else "compiled lane not importable"
    print("env " + json.dumps(env))

    if args.trace:
        from tracing import Tracer, layer_metrics
    traced, untraced = [], []
    failed = attempted = 0
    t_begin = time.perf_counter()
    pass_idx = 0
    while True:
        t_pass = time.perf_counter()
        tracer = None
        if args.trace and pass_idx % 2 == 1:
            tracer = Tracer()
            restore = tracer.install()
        try:
            result, n_failed = run_pass(bench, pass_idx, tracer)
        finally:
            if tracer is not None:
                restore()
        attempted += len(METHODS)
        failed += n_failed
        # pass 0 warms the heap and caches on the full field: it is checked
        # but not timed (its compress ran 5-10% slower than later passes)
        kind = "warm-up" if pass_idx == 0 else "traced" if tracer else "untraced"
        if n_failed == 0 and pass_idx > 0:
            if tracer is None:
                untraced.append(result)
            else:
                traced.append((layer_metrics(tracer), result))
        print(f"pass {pass_idx} {kind} " + json.dumps(
            {m: {k: round(v, 6) for k, v in r.items()} for m, r in result.items()}))
        pass_idx += 1
        # stop before a pass that would end past --seconds, going by the last
        # one; after the warm-up a traced run needs at least one traced and
        # one untraced pass
        now = time.perf_counter()
        if now - t_begin + (now - t_pass) > args.seconds and pass_idx >= 2 + args.trace:
            break

    correct = failed == 0
    if args.trace:
        if parity is not None and not parity["identical"]:
            correct = False
        units = PER_LAYER
        values = per_layer(traced, untraced, median(synth_times)) if traced and untraced else {}
    else:
        units = END_TO_END
        values = end_to_end(untraced, setup_s) if untraced else {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
