"""Command-line front end: generate synthetic datasets, partition,
compress, decompress, inspect and sweep, plus the completion baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import formats, pipeline
from .completion import SvpParams, random_mask, svp_complete
from .partition import greedy_partition, pow2_partition
from .synth import SynthSpec, synth
from .tensor_core import chebyshev_norm


def _g(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, want e.g. 64x48x8x64")
    if len(dims) != 4 or any(n < 1 for n in dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, want 4 positive extents")
    return dims


DEFAULT_CAPS = (5, 5, 4, 5)  # completion rank caps, before clipping to the extents


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}, want e.g. 1,2,4")


def _ratio(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}")
    if not (math.isfinite(v) and v >= 1):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 1")
    return v


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=1, allow_nan=False)  # strict JSON, before the file is made
    with open(path, "w") as f:
        f.write(text + "\n")


def _print_bytes(path: str, defined_elements: int) -> None:
    # the archive's size, and cr_bytes: the raw float32 bytes of the
    # defined cells over it
    size = os.path.getsize(path)
    print(f"{'archive bytes':<22}{size}")
    print(f"{'cr_bytes':<22}{_g(4 * defined_elements / size)}")


def _cmd_synth(args) -> int:
    spec = SynthSpec(args.dims, args.seed, args.roughness, args.amplitude,
                     args.phase, args.depth_decay, args.noise, args.background_rank)
    data = synth(spec)
    formats.write_gst(data, args.out)
    frac = data.domain_mask.mean()
    print(f"wrote {args.out}: dims {'x'.join(map(str, data.dims))}, "
          f"defined fraction {_g(float(frac))}")
    return 0


def _cmd_partition(args) -> int:
    data = formats.read_gst(args.infile)
    part = (pow2_partition if args.pow2 else greedy_partition)(data.domain_mask, args.s_min)
    print(f"{len(part.blocks)} blocks, {part.leftover_cells} leftover cells "
          f"(s_min={args.s_min}, {'pow2' if args.pow2 else 'greedy'})")
    for b in part.blocks:
        print(f"  [{b.x_start}:{b.x_end}) x [{b.y_start}:{b.y_end})  area {b.area}")
    if args.out:
        _write_json(args.out, {
            "s_min": args.s_min,
            "pow2": bool(args.pow2),
            "blocks": [list(b) for b in part.blocks],
            "leftover_cells": part.leftover_cells,
        })
    return 0


def _cmd_compress(args) -> int:
    data = formats.read_gst(args.infile)
    archive, report = pipeline.compress_dataset(
        data, args.method, args.eps_max, args.s_min, args.splits)
    metrics = pipeline.report_to_dict(report)
    formats.write_gsa(archive, args.out, metrics)
    print(pipeline.render_report(report))
    _print_bytes(args.out, report.defined_elements)
    if args.report_out:
        _write_json(args.report_out, metrics)
    return 0


def _cmd_decompress(args) -> int:
    archive, _ = formats.read_gsa(args.infile)
    data = pipeline.decompress_dataset(archive)
    formats.write_gst(data, args.out)
    print(f"wrote {args.out}: dims {'x'.join(map(str, data.dims))}")
    return 0


def _cmd_stats(args) -> int:
    with open(args.infile, "rb") as f:
        magic = f.read(4)
    if magic == formats.GST_MAGIC:
        data = formats.read_gst(args.infile)
        defined = data.values[data.domain_mask]
        print(f"GST dims {'x'.join(map(str, data.dims))}")
        print(f"{'defined cells':<22}{data.defined_count} "
              f"({_g(float(data.domain_mask.mean()))} of grid)")
        span = defined.size and f"[{_g(float(defined.min()))}, {_g(float(defined.max()))}]"
        print(f"{'value range':<22}{span or 'absent'}")
        return 0
    archive, metrics = formats.read_gsa(args.infile)
    print(f"GSA method={archive.method} eps_max={_g(archive.eps_max)} "
          f"dims {'x'.join(map(str, archive.dims))}")
    print(f"{'time splits':<22}{len(archive.splits)}")
    print(f"{'block payloads':<22}{len(archive.blocks)}")
    print(f"{'stored elements':<22}{archive.stored_elements}")
    _, _, nl, nt = archive.dims
    _print_bytes(args.infile, np.count_nonzero(archive.domain_mask) * nl * nt)
    for key in ("block_elements_before", "block_elements_after", "leftover_count",
                "cr_sub", "cr_all", "max_cheb_error"):
        if metrics.get(key) is not None:  # an archive of no rectangles has a null cr_sub
            print(f"{key:<22}{_g(metrics[key])}")
    return 0


def _cmd_sweep(args) -> int:
    data = formats.read_gst(args.infile)
    reports = pipeline.sweep_splits(data, args.method, args.eps_max,
                                    args.splits, args.s_min)
    print(pipeline.render_sweep(reports))
    if args.report_out:
        _write_json(args.report_out, [pipeline.report_to_dict(r) for r in reports])
    return 0


def _cmd_complete(args) -> int:
    data = formats.read_gst(args.infile)
    _, _, nl, nt = data.dims
    # a 1/cr sample of the defined cells, drawn over (defined cell, level,
    # step) with the defined cells in row-major order
    n_defined = int(np.count_nonzero(data.domain_mask))
    omega = np.zeros(data.dims, dtype=bool)
    omega[data.domain_mask] = random_mask((n_defined, nl, nt), args.cr, args.seed)
    caps = (args.caps if args.caps is not None
            else [min(c, n) for c, n in zip(DEFAULT_CAPS, data.dims)])
    params = SvpParams(tuple(caps), args.eps, args.delta, args.eta,
                       args.max_iters, trace=args.trace_out is not None)
    observed = np.nan_to_num(data.values)
    result = svp_complete(observed, omega, params, reference=data.values)
    cheb = chebyshev_norm(result.completion - data.values)
    status = "converged" if result.converged else "not converged"
    print(f"{status} after {result.n_iters} iterations: masked rel error "
          f"{_g(result.rel_error)}, chebyshev vs input {_g(cheb)}, "
          f"observed cells {np.count_nonzero(omega)}")
    if args.trace_out:
        lines = ["# iter masked_rel_frob chebyshev"]
        lines += [f"{i + 1} {_g(fr)} {_g(ch)}" for i, (fr, ch) in enumerate(result.trace)]
        with open(args.trace_out, "w") as f:
            f.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tenblock",
        description="Block-partitioned low-rank compression of gappy 4-D fields.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--dims", type=_dims, default=(64, 48, 8, 64), metavar="NxMxLxK")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--roughness", type=float, default=0.15)
    s.add_argument("--amplitude", type=float, default=8.0)
    s.add_argument("--phase", type=float, default=0.3)
    s.add_argument("--depth-decay", type=float, default=1.5)
    s.add_argument("--noise", type=float, default=0.02)
    s.add_argument("--background-rank", type=int, default=2)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("partition", help="partition the validity mask into blocks")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--s-min", type=int, default=8)
    s.add_argument("--pow2", action="store_true")
    s.add_argument("--out", help="optional JSON block list")
    s.set_defaults(func=_cmd_partition)

    s = sub.add_parser("compress", help="compress a dataset into an archive")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=pipeline.METHODS, required=True)
    s.add_argument("--eps-max", type=float, required=True)
    s.add_argument("--s-min", type=int, default=8)
    s.add_argument("--splits", type=int, default=1)
    s.add_argument("--out", required=True)
    s.add_argument("--report-out", help="optional JSON report")
    s.set_defaults(func=_cmd_compress)

    s = sub.add_parser("decompress", help="restore a dataset from an archive")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_decompress)

    s = sub.add_parser("stats", help="describe a dataset or archive file")
    s.add_argument("--in", dest="infile", required=True)
    s.set_defaults(func=_cmd_stats)

    s = sub.add_parser("sweep", help="compress at several time-split counts")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=pipeline.METHODS, required=True)
    s.add_argument("--eps-max", type=float, required=True)
    s.add_argument("--splits", type=_int_list, required=True, metavar="1,2,4")
    s.add_argument("--s-min", type=int, default=8)
    s.add_argument("--report-out", help="optional JSON report")
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("complete", help="completion baseline from random samples")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--cr", type=_ratio, required=True,
                   help="target ratio of defined cells to observed cells")
    s.add_argument("--caps", type=_int_list, metavar="R1,R2,R3,R4",
                   help="rank caps (default 5,5,4,5, each clipped to its mode's extent)")
    s.add_argument("--eta", type=float, default=1.0)
    s.add_argument("--delta", type=int, default=1)
    s.add_argument("--eps", type=float, default=1e-3)
    s.add_argument("--max-iters", type=int, default=500)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace-out", help="optional per-iteration error table")
    s.set_defaults(func=_cmd_complete)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
