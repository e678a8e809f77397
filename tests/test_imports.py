"""No module in src/, tests/ or demos/ imports a name at module level that it never uses,
and no module in src/ defines a private function that nothing refers to.

Names listed in a module's __all__ are exempt, and so is every import of
spintransfer/__init__.py, whose imports are the package's re-exports.  A
private function is a module-level def whose name starts with an underscore,
is no dunder and has no decorator (which may register it).  It is dead when
no module of src/, tests/, demos/ or bench/ refers to its name outside its
own def, by a name, an attribute, an import or a string equal to it.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src", "tests", "demos") for path in (ROOT / tree).rglob("*.py"))
SCANNED = MODULES + sorted((ROOT / "bench").rglob("*.py"))
REEXPORTS = ROOT / "src" / "spintransfer" / "__init__.py"


def _imported(module: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    bound = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(module: ast.Module) -> set[str]:
    """The string entries of a module-level __all__."""
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in getattr(node.value, "elts", ())
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level import never referenced in source."""
    module = ast.parse(source)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted(((name, line) for name, line in _imported(module).items()
                   if name not in used | _exported(module)), key=lambda item: item[1])


@pytest.mark.parametrize("path", [p for p in MODULES if p != REEXPORTS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import pi, tau as circle\n"
              "from .chain import ChainSpec\n"
              "__all__ = ['ChainSpec']\n"
              "def f():\n"
              "    import sys\n"
              "    return os.sep, pi\n")
    assert unused_imports(source) == [("np", 3), ("circle", 4)]


def _referenced(node: ast.AST) -> set[str]:
    """Every name, attribute, imported name and string constant in node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


@functools.cache
def _names_in(path: Path) -> frozenset[str]:
    return frozenset(_referenced(ast.parse(path.read_text(encoding="utf-8"))))


def dead_private_functions(source: str, others: set[str]) -> list[tuple[str, int]]:
    """(name, line) of each undecorated module-level private function of source
    that neither source outside its own def nor others (names) refers to."""
    module = ast.parse(source)
    dead = []
    for fn in module.body:
        if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.decorator_list
                and fn.name.startswith("_") and not fn.name.endswith("__")):
            here = set().union(*(_referenced(node) for node in module.body if node is not fn))
            if fn.name not in here | others:
                dead.append((fn.name, fn.lineno))
    return dead


@pytest.mark.parametrize("path", [p for p in MODULES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_function_is_referenced(path):
    others = set().union(*(_names_in(p) for p in SCANNED if p != path))
    assert dead_private_functions(path.read_text(encoding="utf-8"), others) == []


def test_the_function_scan_sees_what_it_should():
    source = ("def _dead(n):\n"
              "    return _dead(n - 1) if n else 0\n"  # calling itself is no use
              "def _called():\n"
              "    pass\n"
              "def _patched():\n"
              "    pass\n"
              "def _elsewhere():\n"
              "    pass\n"
              "@register\n"
              "def _registered():\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    pass\n"
              "def public():\n"
              "    return _called(), getattr(mod, '_patched')\n"
              "class _Hidden:\n"
              "    def _method(self):\n"
              "        pass\n")
    others = _referenced(ast.parse("from m import _elsewhere\n"))
    assert dead_private_functions(source, others) == [("_dead", 1)]
    assert dead_private_functions(source, set()) == [("_dead", 1), ("_elsewhere", 7)]
