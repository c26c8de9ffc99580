"""The export list is what its users import, the names the benchmark
tracer patches resolve, and the runtime imports only the standard library.

``disclose.__all__`` is pinned to the names the acceptance suite and its
fixtures import from ``disclose``, the ``pkg.X`` names the benchmark
workloads call, and the README quickstart, plus ``__version__`` and the
error classes; everything else is imported from its module.

``bench/tracing.py`` wraps package functions by module and attribute name.
Deleting or renaming one of them would break the traced benchmark without
failing any solver test, so this module checks every name in its
``BOUNDARIES`` table.  The bench files are read as text (``tracing.py`` is
executed in a private namespace): nothing is imported from, or written
under, ``bench/``.

The settable options are read from the source with ``ast`` and pinned by
name, so a change that adds, removes or swaps a knob says so here.  The
same reading checks that only ``frontier`` reads a slope inverse
``inv_dfn`` or a piecewise frontier's ``_us`` and ``_slopes``: every slope
inversion goes through ``level_at_slope``, which takes the same parameters
on both frontier kinds.

Every package helper has a caller: each top-level function and class under
``src/disclose``, and each method but a dunder or an override of a base
class's method (its base's callers call it), must be read as an ``ast``
name or attribute outside its own definition, in the package or in a
bench file (the tracer's ``BOUNDARIES`` names count), or be exported.  A
helper that only tests call is dead weight in the package.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import math
import re
import sys
from pathlib import Path

import pytest

import disclose
from disclose import errors

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
README = ROOT / "README.md"
TESTS = Path(__file__).resolve().parent
SRC = Path(disclose.__file__).resolve().parent

# what settable_options() finds at this revision, sorted
SETTABLE_OPTIONS = [
    "cli._mechanism_csv(extra=)",
    "cli._num(integer=)",
    "cli.main(argv=)",
    "config key 'command'",
    "config key 'm'",
    "config key 'r'",
    "config key 'reward'",
    "config key 'solver'",
    "deadline.optimize_deadline(tol=)",
    "flag --config",
    "flag --out",
    "flag --tol-residual",
    "flag --tol-root",
    "numerics.bisect_down(tol_f=)",
]


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def imported_from_package(path: Path) -> set:
    """Names a file imports with ``from disclose import ...``."""
    tree = parsed(path)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == disclose.__name__ for alias in node.names}


def quickstart() -> str:
    """The python block of the README's "Library quickstart" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def used_names() -> set:
    """The package-level names the acceptance suite, its fixtures, the
    benchmark workloads and the README quickstart use."""
    names = imported_from_package(TESTS / "test_acceptance.py")
    names |= imported_from_package(TESTS / "conftest.py")
    pkg_dir = Path(disclose.__file__).resolve().parent
    names |= {name for name in re.findall(r"\bpkg\.([A-Za-z_]\w*)",
                                          WORKLOADS.read_text(encoding="utf-8"))
              if not (pkg_dir / f"{name}.py").exists()}   # submodules: pkg.cli
    tree = ast.parse(quickstart())
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names


def traced_names():
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         namespace)
    return [(module, attr) for module, attr, _key, _kind in namespace["BOUNDARIES"]]


def loaded_names(tree):
    """``(name, line)`` of every name and attribute ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def package_helpers():
    """``(path, qualified name, node)`` of every top-level function and
    class under ``src/disclose``, and of every method that is neither a
    dunder nor an override of a base-class method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in parsed(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path, node.name, node))
            if not isinstance(node, ast.ClassDef):
                continue
            module = importlib.import_module(f"{disclose.__name__}.{path.stem}")
            bases = getattr(module, node.name).__mro__[1:]
            out += [(path, f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and not any(hasattr(base, item.name) for base in bases)]
    return out


def settable_options() -> list:
    """Every option a caller can set, one string each:

    * each defaulted parameter of every ``def`` under ``src/disclose``
      (positional or keyword-only, nested functions included);
    * each ``cli`` flag, an ``add_argument`` whose name starts with ``-``;
    * each distinct config key ``cli`` reads with ``.get``, so with a
      default (``None`` when none is given).

    Required parameters, the positional command and required config keys
    are not options.
    """
    out, keys = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = parsed(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                pos = a.posonlyargs + a.args
                named = pos[len(pos) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out += [f"{path.stem}.{node.name}({arg.arg}=)" for arg in named]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.args and isinstance(node.args[0], ast.Constant)
                  and isinstance(node.args[0].value, str)):
                name = node.args[0].value
                if node.func.attr == "add_argument" and name.startswith("-"):
                    out.append(f"flag {name}")
                elif node.func.attr == "get" and path.stem == "cli":
                    keys.add(f"config key {name!r}")
    return out + sorted(keys)


def test_settable_options_are_counted():
    options = settable_options()
    assert len(options) == len(set(options))
    assert sorted(options) == SETTABLE_OPTIONS


def test_exports_resolve():
    assert [name for name in disclose.__all__ if not hasattr(disclose, name)] == []


def test_exports_are_what_users_use():
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.DiscloseError)}
    expected = used_names() | error_classes | {"__version__"}
    assert len(disclose.__all__) == len(set(disclose.__all__))
    assert sorted(disclose.__all__) == sorted(expected)


def test_readme_quickstart_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart(), str(README), "exec"), {"__name__": "quickstart"})
    t, value, satisfied = out.getvalue().split()
    assert float(t) == pytest.approx(1.0 + math.log(3.5), abs=1e-8)
    assert float(value) == pytest.approx(1.147151776468577, abs=1e-9)
    assert satisfied == "True"


def test_traced_boundaries_resolve():
    # resolved as the tracer resolves them when it starts: a module
    # attribute, or ``vars(cls)[meth]`` for ``Class.method`` (so a method
    # inherited from a base class would not do)
    names = traced_names()
    assert names
    for module, attr in names:
        owner = importlib.import_module(f"{disclose.__name__}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            obj = vars(getattr(owner, cls_name)).get(meth)
        else:
            obj = getattr(owner, attr, None)
        assert callable(obj), f"{module}.{attr}"


def test_every_package_helper_has_a_caller():
    reads = {path: list(loaded_names(parsed(path))) for path in sorted(SRC.glob("*.py"))}
    outside = set(disclose.__all__)
    outside |= {part for _module, attr in traced_names() for part in attr.split(".")}
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= {name for name, _line in loaded_names(parsed(path))}

    def read_outside_its_definition(path, name, node):
        return any(read == name and not (p == path and node.lineno <= line <= node.end_lineno)
                   for p, names in reads.items() for read, line in names)

    uncalled = []
    for path, qualname, node in package_helpers():
        name = qualname.rsplit(".", 1)[-1]
        if name not in outside and not read_outside_its_definition(path, name, node):
            uncalled.append(f"{path.stem}.{qualname}")
    assert uncalled == []


def test_runtime_imports_only_stdlib():
    modules = sorted(Path(disclose.__file__).resolve().parent.rglob("*.py"))
    assert modules
    for path in modules:
        tree = parsed(path)
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


def test_only_frontier_reads_the_slope_inverse():
    # level_at_slope is the one slope inversion, on either frontier kind: no
    # other module reads a parametric frontier's inv_dfn or a piecewise
    # frontier's breakpoint and slope tables
    private = {"inv_dfn", "_us", "_slopes"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = parsed(path)
        if any(isinstance(node, ast.Attribute) and node.attr in private
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers == {"frontier.py"}


@pytest.mark.parametrize("cls", ["PiecewiseFrontier", "ParametricFrontier"])
def test_level_at_slope_takes_one_signature(cls):
    # the same five parameters on both kinds, and no search tolerance
    method = getattr(disclose, cls).level_at_slope
    params = list(inspect.signature(method).parameters)
    assert params == ["self", "y", "lo", "hi", "d_lo", "d_hi"]
