"""Spans around the calls into each tenblock layer, recorded from outside.

``Tracer.install()`` rebinds module attributes (for example
``tenblock.pipeline.greedy_partition`` or ``numpy.linalg.svd``) to timing
wrappers and returns a function that restores them.  Nothing in ``src/`` is
edited; an attribute the program no longer has is simply not traced, so its
spans read as zero.

Each span records its name, the request it belongs to (pass index and
method), start, end and the index of its parent span.  Spans stay in memory
until ``layer_metrics`` folds them into per-layer numbers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import tenblock.pipeline
import tenblock.tt
import tenblock.tucker

LAPACK = ("svd", "eigh", "qr")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, request, start, end, parent]
        self.stack = []
        self.request = None
        self.counts = defaultdict(float)  # (name, request) -> value

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.request, 0.0, 0.0, parent])
        self.stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name, value):
        self.counts[(name, self.request)] += value

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def install(self):
        """Rebind the traced entry points; returns the undo function."""
        def partition_counts(tr, result):
            tr.count("partition.blocks", len(result.blocks))
            tr.count("partition.leftover_cells", result.leftover_cells)

        def tucker_counts(tr, fac):
            tr.count("tucker.elements_after", fac.n_elements)

        targets = [
            (tenblock.pipeline, "greedy_partition", "partition.greedy", partition_counts),
            (tenblock.pipeline, "pow2_partition", "partition.pow2", partition_counts),
            (tenblock.pipeline, "tucker_compress_abs", "tucker.compress_abs", tucker_counts),
            (tenblock.pipeline, "tt_compress_abs", "tt.compress_abs", None),
            (tenblock.tt, "ttsvd", "tt.ttsvd", None),
            (tenblock.pipeline, "chebyshev_norm", "verify", None),
            (tenblock.tucker, "chebyshev_norm", "verify", None),
            (tenblock.tt, "chebyshev_norm", "verify", None),
        ]
        targets += [(tenblock.pipeline, f, "pipeline.reconstruct", None)
                    for f in ("tucker_reconstruct", "tt_reconstruct", "qtt_reconstruct")]
        targets += [(np.linalg, f, "lapack", None) for f in LAPACK]
        undo = []
        for module, attr, name, on_result in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, on_result))

        def restore():
            for module, attr, fn in reversed(undo):
                setattr(module, attr, fn)
        return restore


def _fold(tracer):
    """Per request: seconds and calls of each span name inside compress,
    plus the self time of compress and the top-level span totals."""
    inner = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    top = defaultdict(lambda: defaultdict(float))
    self_s = defaultdict(float)
    root = []
    for idx, (name, request, t0, t1, parent) in enumerate(tracer.spans):
        root.append(idx if parent < 0 else root[parent])
        if parent < 0:
            top[request][name] += t1 - t0
            if name == "compress":
                self_s[request] += t1 - t0
            continue
        if tracer.spans[parent][4] < 0 and tracer.spans[parent][0] == "compress":
            self_s[request] -= t1 - t0
        if tracer.spans[root[idx]][0] == "compress":
            entry = inner[request][name]
            entry[0] += t1 - t0
            entry[1] += 1
    return inner, top, self_s


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    inner, top, self_s = _fold(tracer)
    out = defaultdict(float)
    calls = defaultdict(int)
    for request, spans in inner.items():
        method = request[1]
        for name in ("partition.greedy", "partition.pow2"):
            out[name + "_s"] += spans[name][0]
            calls[name] += spans[name][1]
        if method == "tucker":
            out["tucker.compress_abs_s"] += spans["tucker.compress_abs"][0]
            out["tucker.calls"] += spans["tucker.compress_abs"][1]
        else:
            out[f"tt.compress_abs_s.{method}"] += spans["tt.compress_abs"][0]
            blocks = spans["tt.compress_abs"][1]
            out[f"tt.sweeps_per_block.{method}"] = spans["tt.ttsvd"][1] / max(blocks, 1)
        out["tensor_core.lapack_s"] += spans["lapack"][0]
        out["tensor_core.lapack_calls"] += spans["lapack"][1]
        out["pipeline.reconstruct_s"] += spans["pipeline.reconstruct"][0]
        out["pipeline.reconstruct_calls"] += spans["pipeline.reconstruct"][1]
        out["pipeline.verify_s"] += spans["verify"][0]
    # a partition time is per call: greedy runs once for tucker, once for tt
    for name in ("partition.greedy", "partition.pow2"):
        out[name + "_s"] /= max(calls[name], 1)
    compress_s = 0.0
    for request, totals in top.items():
        compress_s += totals["compress"]
        out["pipeline.self_s"] += self_s[request]
        out["pipeline.decompress_s"] += totals["decompress"]
        out["formats.write_s"] += totals["write"]
        out["formats.read_s"] += totals["read"]
    out["tensor_core.lapack_share"] = out["tensor_core.lapack_s"] / compress_s
    for (name, (_, method)), value in tracer.counts.items():
        if name.startswith("partition."):
            out[f"{name}.{method}"] = value
        else:
            out[name] += value
    return dict(out)
