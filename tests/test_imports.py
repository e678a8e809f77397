"""No module in src/, tests/ or demos/ imports a name at module level that it never uses.

Names listed in a module's __all__ are exempt, and so is every import of
spintransfer/__init__.py, whose imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src", "tests", "demos") for path in (ROOT / tree).rglob("*.py"))
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
