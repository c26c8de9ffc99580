"""The export list and the names the benchmark tracer patches must resolve,
and the runtime imports only the standard library.

``bench/tracing.py`` wraps package functions by module and attribute name.
Deleting or renaming one of them would break the traced benchmark without
failing any solver test, so this module checks every name in its
``BOUNDARIES`` table.  The file is read as text and executed in a private
namespace: nothing is imported from, or written under, ``bench/``.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import disclose

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return [(module, attr) for module, attr, _key, _kind in namespace["BOUNDARIES"]]


def test_exports_resolve():
    assert [name for name in disclose.__all__ if not hasattr(disclose, name)] == []


def test_traced_boundaries_resolve():
    names = traced_names()
    assert names
    for module, attr in names:
        obj = importlib.import_module(f"{disclose.__name__}.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_runtime_imports_only_stdlib():
    modules = sorted(Path(disclose.__file__).resolve().parent.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}: import {name}"
