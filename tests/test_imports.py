"""Every module-level import in the package is used (no linter is installed,
so this walks the syntax trees), every name in a module's ``__all__`` exists,
and every name the benchmark's tracer wraps exists."""

import ast
import functools
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "laplab"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py"))
             if "__all__" in p.read_text(encoding="utf-8")],
    ids=lambda p: p.name)
def test_all_names_resolve(path):
    # a stale __all__ entry breaks `from laplab.<module> import *`
    name = "laplab" if path.stem == "__init__" else f"laplab.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_tracer_targets_resolve():
    # bench/tracer.py looks each target up by name when it installs, so a
    # renamed or deleted function breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"laplab.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), f"laplab.{module}.{attr}"


def test_detector_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["os (line 1)", "tau (line 2)"]
