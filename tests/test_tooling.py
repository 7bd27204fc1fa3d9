"""The scripts under benchmarks/ import private names of tenblock and of the
tests; a refactor that renames one breaks the script only when it is run,
so import each here.  The layering of the package is pinned here too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
