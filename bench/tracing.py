"""Per-layer timing shims for the traced benchmark run.

The shims wrap public functions of `spintransfer` at every name a module of
the package bound them to (so `spintransfer.cli.eigensolve`,
`spintransfer.optimize.eigensolve` and `spintransfer.excitation.eigensolve`
are all replaced), plus two methods of `full_space.FullSpaceModel`.
`traced(tracer)` installs them and restores every original on exit.

A span's busy time includes its children; its self time does not.  Only
aggregates are kept, because an optimize run makes millions of calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from spintransfer import chain, closed_forms, excitation, fidelity, full_space, optimize

# (layer metric prefix, module, attribute) for every timed function.
TIMED = (
    ("chain.load_chain", chain, "load_chain"),
    ("excitation.reduce", excitation, "reduce"),
    ("excitation.eigensolve", excitation, "eigensolve"),
    ("excitation.amplitudes", excitation, "amplitudes"),
    ("fidelity.fidelity_report", fidelity, "fidelity_report"),
    ("fidelity.average_fidelity", fidelity, "average_fidelity"),
    ("fidelity.corrected_average_fidelity", fidelity, "corrected_average_fidelity"),
    ("fidelity.bloch_average_quadrature", fidelity, "bloch_average_quadrature"),
    ("closed_forms.analytic_f", closed_forms, "analytic_f"),
)

# Called about 4e5 times per verify suite: counted, not timed, so the shim
# stays cheap next to the function it wraps.
COUNTED = (("fidelity.fidelity", fidelity, "fidelity"),)

# Optimizers whose result reports an `evaluations` counter.
SOLVERS = (
    ("optimize.solve", optimize, "maximize_fidelity"),
    ("optimize.solve", optimize, "tune_uniform_field"),
)

# Methods patched on the class itself, so every caller sees them.
METHODS = (
    ("full_space.model_build", full_space.FullSpaceModel, "__init__"),
    ("full_space.fidelity", full_space.FullSpaceModel, "fidelity"),
)


class Tracer:
    """Busy time, self time and call counts per span name."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.evaluations_reported = 0
        self.solve_amplitudes = 0
        self._children: list[float] = []  # child time of each open span

    def record(self, name: str, elapsed: float, children: float = 0.0) -> None:
        """Account one finished span; `children` is the time its child spans took."""
        self.busy[name] += elapsed
        self.self_time[name] += elapsed - children
        self.calls[name] += 1
        if self._children:
            self._children[-1] += elapsed

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def shim(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, time.perf_counter() - start, self._children.pop())

        return shim

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        def shim(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return shim

    def solver(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self.timed(name, fn)

        def shim(*args: Any, **kwargs: Any) -> Any:
            before = self.calls["excitation.amplitudes"]
            result = timed(*args, **kwargs)
            self.solve_amplitudes += self.calls["excitation.amplitudes"] - before
            self.evaluations_reported += result.evaluations
            return result

        return shim


def _package_modules() -> list[Any]:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "spintransfer" or name.startswith("spintransfer."))
    ]


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Install every shim; returns (owner, attribute, original) for restore()."""
    wrappers = [(tracer.timed, entry) for entry in TIMED]
    wrappers += [(tracer.counted, entry) for entry in COUNTED]
    wrappers += [(tracer.solver, entry) for entry in SOLVERS]
    patches: list[tuple[Any, str, Any]] = []
    modules = _package_modules()
    for wrap, (name, home, attr) in wrappers:
        original = getattr(home, attr)
        shim = wrap(name, original)
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, bound, original))
                    setattr(module, bound, shim)
    for name, cls, attr in METHODS:
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.timed(name, original))
    return patches


def restore(patches: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    patches = install(tracer)
    try:
        yield
    finally:
        restore(patches)
