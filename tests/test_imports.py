"""No module in src/, tests/ or demos/ imports a name at module level that it never uses,
no module in src/ defines a private function that nothing refers to, the
brute-force validator (full_space) imports nothing of the package but chain,
no module in src/ uses a name that numpy added in 2.0, below the floor
(numpy 1.24) that pyproject.toml declares, and the command line catches only
the errors of its flags and files: the chain text, the overflow of f and the
field box are refused by the modules whose rules they break.  The public
names, the package's __all__ and each module's, are pinned as literal sets,
and each has one home: no __all__ in src/ lists a name that its module only
imports, save the package's own submodules in the package's __all__.

Names listed in a module's __all__ are exempt from the import scan.  A
private function is a module-level def whose name starts with an underscore,
is no dunder and has no decorator (which may register it).  It is dead when
no module of src/, tests/, demos/ or bench/ refers to its name outside its
own def, by a name, an attribute, an import or a string equal to it.
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import spintransfer

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src", "tests", "demos") for path in (ROOT / tree).rglob("*.py"))
SCANNED = MODULES + sorted((ROOT / "bench").rglob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
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


def listed_elsewhere(source: str, package: bool = False) -> list[str]:
    """Names in source's __all__ that source does not define by a def, a class or an
    assignment at module level; in a package (package=True) `from . import m` defines m."""
    module = ast.parse(source)
    defined = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif package and isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module:
            defined |= {alias.asname or alias.name for alias in node.names}
    return sorted(_exported(module) - defined)


@pytest.mark.parametrize("path", [p for p in MODULES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_name_has_one_home(path):
    assert listed_elsewhere(path.read_text(encoding="utf-8"), path.name == "__init__.py") == []


def test_the_home_scan_sees_what_it_should():
    source = ("from . import chain\n"
              "from .chain import ChainSpec, preset as make\n"
              "import numpy as np\n"
              "LIMIT: int = 3\n"
              "def solve():\n"
              "    pass\n"
              "class Spectrum:\n"
              "    pass\n"
              "__all__ = ['chain', 'ChainSpec', 'make', 'np', 'LIMIT', 'solve', 'Spectrum']\n")
    assert listed_elsewhere(source) == ["ChainSpec", "chain", "make", "np"]
    assert listed_elsewhere(source, package=True) == ["ChainSpec", "make", "np"]


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


def package_imports(source: str) -> set[str]:
    """The modules of spintransfer that source imports anywhere, by name in the package."""
    dotted = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "spintransfer." * bool(node.level) + (node.module or "")
            dotted |= {f"{base.rstrip('.')}.{alias.name}" for alias in node.names}
    return {name.split(".")[1] for name in dotted if name.startswith("spintransfer.")}


def test_the_validator_imports_only_the_chain_description():
    # full_space checks the engine's reduction, so it must share none of its code
    validator = ROOT / "src" / "spintransfer" / "full_space.py"
    assert package_imports(validator.read_text(encoding="utf-8")) == {"chain"}
    source = ("import numpy as np\n"
              "from . import chain\n"
              "from .fidelity import BlochState\n"
              "from spintransfer import excitation as ex\n"
              "def f():\n"
              "    import spintransfer.optimize\n")
    assert package_imports(source) == {"chain", "fidelity", "excitation", "optimize"}


# numpy 2.0 names: the array API aliases, and functions new or renamed in 2.0.
_NUMPY_2_ONLY = {"isdtype", "concat", "unstack", "permute_dims", "matrix_transpose", "astype",
                 "trapezoid", "bitwise_count", "vecdot", "cumulative_sum"}


def numpy_2_uses(source: str) -> list[tuple[str, int]]:
    """(use, line) of each numpy-2-only name in source: np.<name> or numpy.<name>,
    a from-numpy import of it, and asarray's copy argument."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in _NUMPY_2_ONLY
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((f"np.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(f"np.{alias.name}", node.lineno)
                      for alias in node.names if alias.name in _NUMPY_2_ONLY]
        elif (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "asarray"
                and any(keyword.arg == "copy" for keyword in node.keywords)):
            found.append(("asarray(copy=)", node.lineno))
    return sorted(found, key=lambda use: use[1])


@pytest.mark.parametrize("path", [p for p in MODULES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_needs_numpy_2(path):
    assert numpy_2_uses(path.read_text(encoding="utf-8")) == []


def test_the_numpy_scan_sees_what_it_should():
    source = ("import numpy as np\n"
              "from numpy import concat, stack\n"
              "a = np.asarray([1.0], dtype=float)\n"
              "b = a.astype(float, copy=False)\n"  # the array method is as old as numpy
              "c = np.isdtype(a.dtype, 'real floating')\n"
              "d = numpy.trapezoid(a)\n"
              "e = np.asarray(a, copy=False)\n"
              "f = np.linalg.norm(np.astype(a, int))\n")
    assert numpy_2_uses(source) == [("np.concat", 2), ("np.isdtype", 5), ("np.trapezoid", 6),
                                    ("asarray(copy=)", 7), ("np.astype", 8)]


# What cli.py may catch: file errors, the package's refusals (ChainSpecError is
# a ValueError), argparse's exit and its own usage error.
_CLI_CATCHES = {"OSError", "ValueError", "SystemExit", "_UsageError", "ChainSpecError"}


def handlers(source: str) -> tuple[set[str], list[int]]:
    """The exceptions the except clauses of source name ("" for a bare except),
    and the line of each errstate call (a decorator included)."""
    caught, errstate = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {"" if t is None else ast.unparse(t) for t in types}
        elif (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "errstate"):
            errstate.append(node.lineno)
    return caught, sorted(errstate)


def test_the_cli_catches_only_flag_and_file_errors():
    caught, errstate = handlers((ROOT / "src" / "spintransfer" / "cli.py").read_text(
        encoding="utf-8"))
    assert caught <= _CLI_CATCHES and errstate == []


def test_the_handler_scan_sees_what_it_should():
    source = ("try:\n"
              "    pass\n"
              "except (json.JSONDecodeError, OSError) as exc:\n"
              "    pass\n"
              "except RecursionError:\n"
              "    pass\n"
              "except:\n"
              "    pass\n"
              "with np.errstate(over='ignore'):\n"
              "    pass\n"
              "@errstate(invalid='ignore')\n"
              "def f():\n"
              "    pass\n")
    assert handlers(source) == ({"json.JSONDecodeError", "OSError", "RecursionError", ""},
                                [9, 11])


# Every public name, by module (None: no __all__).  Adding or dropping one is a
# change of the public API: edit this pin with it.
_PUBLIC = {
    "spintransfer": {
        "__version__", "chain", "closed_forms", "excitation", "fidelity", "full_space",
        "optimize", "verification",
    },
    "spintransfer.chain": {
        "BadArgsError", "BadSpinError", "ChainFormatError", "ChainSpec", "ChainSpecError",
        "EmptyChainError", "LengthMismatchError", "NonFiniteError", "PRESET_NAMES",
        "SPIN_HALF", "SPIN_ONE", "SiteSpec", "SpinMagnitude", "TooManySitesError",
        "UnknownPresetError", "dumps_chain", "engineered_chain",
        "engineered_couplings", "load_chain", "loads_chain", "preset", "save_chain", "validate",
    },
    "spintransfer.cli": None,
    "spintransfer.closed_forms": {
        "DegenerateSystemError", "NotTunableError", "PresetSystem", "analytic_f",
        "analytic_spectrum", "critical_field", "zero_field_critical_time",
    },
    "spintransfer.excitation": {
        "SingleExcitationHamiltonian", "Spectrum", "eigensolve", "reduce", "solve",
        "synthesize_f",
    },
    "spintransfer.fidelity": {
        "AmplitudeOutOfRangeError", "BlochState", "FidelityReport", "average_fidelity",
        "bloch_average_quadrature", "corrected_average_fidelity", "fidelity",
        "fidelity_report", "reduced_density",
    },
    "spintransfer.full_space": {
        "DIMENSION_CAP", "DimensionCapError", "FullSpaceModel", "STATE_CAP",
        "excitation_sector_indices", "full_hamiltonian", "spin_operators",
        "sz_commutator_max", "total_sz_diagonal",
    },
    "spintransfer.optimize": {
        "GridBudgetError", "OptimizationResult", "SearchConfig", "critical_times",
        "maximize_fidelity", "tune_uniform_field",
    },
    "spintransfer.verification": {"CHECK_NAMES", "CheckResult", "run_all"},
}


def test_the_public_names_are_pinned():
    modules = [spintransfer] + [importlib.import_module(f"spintransfer.{info.name}")
                                for info in pkgutil.iter_modules(spintransfer.__path__)]
    listed = {m.__name__: getattr(m, "__all__", None) for m in modules}
    assert {name: names and set(names) for name, names in listed.items()} == _PUBLIC
    # and no name listed twice
    assert all(len(names) == len(set(names)) for names in listed.values() if names)
