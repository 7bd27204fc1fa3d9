"""The scripts under benchmarks/ import private names of tenblock and of the
tests; a refactor that renames one breaks the script only when it is run,
so import each here, and run the parity table's per-case step on a small
field.  The layering of the package is pinned here too."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tenblock import compress_dataset, synth
from tenblock.partition import temporal_split
from tenblock.synth import SynthSpec

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))

# load the file as a module named for it, not as __main__, so only its
# imports and definitions run
IMPORT = """
import importlib.util, pathlib, sys
path = pathlib.Path(sys.argv[1])
spec = importlib.util.spec_from_file_location(path.stem, path)
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def test_benchmark_scripts_found():
    assert {p.name for p in SCRIPTS} >= {"bench_layers.py", "bench_partition.py", "parity.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_script_imports(script):
    # a subprocess, so the thread-count variables a script sets at import
    # stay out of this process
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", IMPORT, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("method", ["tucker", "tt", "qtt"])
def test_parity_run_on_a_small_field(monkeypatch, tmp_path, method):
    # the script pins the BLAS thread counts at import; monkeypatch puts
    # back what the environment held
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("parity", ROOT / "benchmarks" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    g = synth(SynthSpec(dims=(32, 24, 4, 16), seed=7))
    cr_all, cheb, size, _, _, _, ranks = parity.run(g, method, 0.5, 2, str(tmp_path))
    archive, report = compress_dataset(g, method, 0.5, 8, 2)
    assert cr_all == report.cr_all and cheb <= 0.5
    assert size == (tmp_path / "archive.gsa").stat().st_size
    # the rectangle records only, rect-major, each labelled by its interval
    splits = temporal_split(16, 2)
    records = [rec for rec in archive.blocks if rec.rect is not None]
    assert records and len(records) < len(archive.blocks)  # and a leftover record
    assert ranks == [f"{'.'.join(map(str, rec.rect))}/{splits.index(rec.span)}:"
                     f"{'.'.join(map(str, rec.fac.ranks))}" for rec in records]


PACKAGE = ROOT / "src" / "tenblock"


def imports_formats(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "formats" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if ((node.module or "").split(".")[-1] == "formats"
                    or any(a.name == "formats" for a in node.names)):
                return True
    return False


def test_only_formats_knows_the_file_format():
    # each factorization checks itself with ValueError; the file format,
    # and FormatError with it, belongs to formats.py, which the tensor
    # layers do not import
    modules = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {"formats.py", "tensor_core.py", "tucker.py", "tt.py"} <= set(modules)
    defining = {name for name, tree in modules.items()
                if any(isinstance(n, ast.ClassDef) and n.name == "FormatError"
                       for n in ast.walk(tree))}
    assert defining == {"formats.py"}
    for name in ("tensor_core.py", "tucker.py", "tt.py"):
        assert not imports_formats(modules[name]), name


def test_only_formats_calls_the_file_round_trip():
    # from_arrays and header_fields turn a record into header fields and
    # back; the search builds its quantized candidates with with_arrays
    modules = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    calling = {name for name, tree in modules.items()
               if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr in ("from_arrays", "header_fields")
                      for n in ast.walk(tree))}
    assert calling == {"formats.py"}


def test_formats_reaches_kinds_only_through_kinds():
    # a record holds its arrays as stored, so the payload path moves bytes
    # for every kind alike: formats.py names no factorization class and no
    # kind, and finds a record's class by its header's kind in KINDS
    modules = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    classes = {"Factorization"} | {
        n.name for tree in modules.values() for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef)
        and any(getattr(b, "id", None) == "Factorization" for b in n.bases)}
    kinds = {n.value.value for tree in modules.values() for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef) and c.name in classes for n in c.body
             if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["kind"]}
    assert {"TuckerFactorization", "RawFactorization"} <= classes
    assert kinds == {"tucker", "tt", "qtt", "raw"}
    tree = modules["formats.py"]
    imported = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    literals = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert "KINDS" in imported and "KINDS" in named
    assert not classes & (imported | named)
    assert not kinds & literals


def test_the_package_reads_no_environment_variable():
    # compress takes its thread count from the process's CPUs; no variable
    # of the environment changes what the library does
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            assert not {"environ", "getenv"} & set(names), path.name


def test_compress_dataset_takes_no_thread_option():
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "compress_dataset"]
    args = fn.args
    assert [a.arg for a in args.posonlyargs + args.args] == [
        "data", "method", "eps_max", "s_min", "n_splits"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)


def _import_time_calls(node):
    # the calls a module makes when it is imported: not those inside a
    # function body, which run only when the function is called
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _import_time_calls(child)


def test_no_module_starts_a_thread_at_import():
    # compress starts and joins its helper threads inside the call; there
    # is no module-level pool
    pools = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool", "ThreadPool"}
    for path in PACKAGE.glob("*.py"):
        for call in _import_time_calls(ast.parse(path.read_text())):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            assert name not in pools, f"{path.name}:{call.lineno} calls {name} at import"
