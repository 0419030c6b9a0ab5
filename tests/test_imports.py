"""Every module-level import in the package is used (no linter is installed,
so this walks the syntax trees), every function, class and method of the
package is used somewhere, every name in a module's ``__all__`` and every
name the benchmark's tracer wraps exists, and importing the CLI leaves out
scipy.ndimage."""

import ast
import functools
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "laplab"


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


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
        if _is_all(node):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def dead_definitions(library: dict, sources: dict) -> list:
    """The top-level functions and classes of the ``library`` files, and their
    methods, that no file of ``sources`` references outside the definition
    itself.

    Both arguments map a path to its text.  A reference is a name read, an
    attribute read, or a dotted-name string (the benchmark's tracer looks its
    targets up by name); an ``__all__`` entry or an import is not a use, and
    a dunder method is called implicitly.  Matching is by name only, so a
    definition can be hidden by a namesake, never flagged by one."""
    refs: dict = {}
    for path, text in sources.items():
        tree = ast.parse(text)
        exported = {id(c) for node in tree.body if _is_all(node)
                    for c in ast.walk(node)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names = [n.id]
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                names = [n.attr]
            elif (isinstance(n, ast.Constant) and id(n) not in exported
                  and isinstance(n.value, str)
                  and re.fullmatch(r"[A-Za-z_][\w.]*", n.value)):
                names = n.value.split(".")
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, n.lineno))
    defined = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, text in library.items():
        for node in ast.parse(text).body:
            if not isinstance(node, kinds):
                continue
            defined.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(path, f"{node.name}.{m.name}", m)
                            for m in node.body if isinstance(m, kinds)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))]
    dead = []
    for path, qualname, node in defined:
        if not any(ref_path != path
                   or not node.lineno <= line <= node.end_lineno
                   for ref_path, line in refs.get(node.name, [])):
            dead.append(f"{path}: {qualname}")
    return sorted(dead)


def _sources(*dirs) -> dict:
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
            for d in dirs for p in sorted(d.rglob("*.py"))}


def test_no_dead_definitions():
    sources = _sources(ROOT / "src", ROOT / "tests", ROOT / "bench")
    assert dead_definitions(_sources(SRC), sources) == []


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


def test_cli_import_leaves_out_scipy_ndimage():
    # only the test oracle SpectralInterpolator needs scipy.ndimage, and it
    # imports it itself: every lapcli start would otherwise pay for it
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = "import sys, laplab.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def test_detector_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(src) == ["os (line 1)", "tau (line 2)"]


def test_detector_flags_a_dead_definition():
    lib = ('__all__ = ["dead", "C"]\n'
           "def used():\n    return 1\n"
           "def dead():\n    return dead()\n"
           "class C:\n"
           "    def __init__(self):\n        pass\n"
           "    def kept(self):\n        return used()\n"
           "    def orphan(self):\n        return self.orphan()\n"
           "    def by_name(self):\n        pass\n")
    user = ("from lib import C, dead\n"
            "C().kept()\n"
            "getattr(C, 'by_name')\n")
    assert dead_definitions({"lib.py": lib},
                            {"lib.py": lib, "user.py": user}) == [
        "lib.py: C.orphan", "lib.py: dead"]


def test_package_versions_agree():
    # __version__, which every table header carries, is the declared one
    import laplab
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert found and found.group(1) == laplab.__version__
