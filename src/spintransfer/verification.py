"""Self-check suite: every headline number is recomputed and compared.

Each check is deterministic (fixed seeds, no network, no external data) and
reports its name, the tolerance it enforces, and the measured value, so a
failure names exactly which piece of physics broke.

A check's name is stated once, in the _register call of its group.  A group
returns one (passed, tolerance, measured, detail) outcome per registered
name, in order, and run_all pairs names with outcomes.  A check with a
tolerance states it once, in its _within call, which also holds the pass
rule measured <= tolerance.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import closed_forms, fidelity, full_space, optimize
from .chain import (
    ChainSpec,
    PRESET_NAMES,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    engineered_chain,
    preset,
)
from .closed_forms import PresetSystem
from .excitation import amplitudes, eigensolve, reduce, solve, synthesize_f
from .optimize import SearchConfig

__all__ = ["CheckResult", "CHECK_NAMES", "run_all"]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float | None
    measured: float | None
    detail: str = ""
    seconds: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # numpy scalars leak in from vectorised checks; keep the record
        # plain-Python so it serialises everywhere
        object.__setattr__(self, "passed", bool(self.passed))
        if self.tolerance is not None:
            object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.measured is not None:
            object.__setattr__(self, "measured", float(self.measured))


# (passed, tolerance, measured, detail) of one check; run_all adds its name
_Outcome = tuple[bool, float | None, float | None, str]

_REGISTRY: list[tuple[tuple[str, ...], Callable[[], list[_Outcome]]]] = []


def _register(*names: str):
    def deco(fn: Callable[[], list[_Outcome]]):
        _REGISTRY.append((names, fn))
        return fn

    return deco


def _within(measured: float, tolerance: float, detail: str) -> _Outcome:
    return measured <= tolerance, tolerance, measured, detail


@_register("two-spin-impurity-max-fbar", "two-spin-impurity-peak-time")
def _check_two_spin_impurity_peak() -> list[_Outcome]:
    """Bare two-site spin-impurity channel peaks at Fbar = 2/3, t = pi/(sqrt2 J)."""
    j = 1.0
    t_star = math.pi / (_SQRT2 * j)
    spec = preset("sec2-two-spin", j, 0.0)
    res = optimize.maximize_fidelity(spec, SearchConfig(t_max=1.25 * t_star))
    return [
        _within(abs(res.fbar - 2.0 / 3.0), 1e-9, f"fbar={res.fbar:.12f}"),
        _within(abs(res.best_t - t_star), 1e-8, f"t={res.best_t:.12f} vs {t_star:.12f}"),
    ]


@_register("field-tuning-perfect-fbar", "uniform-field-phase-law")
def _check_field_tuning() -> list[_Outcome]:
    """Tuned (t_c, B_c) pairs reach Fbar = 1 for both spin-impurity systems, and
    a uniform field b only rotates f, f(t, b) = f(t, 0) e^{ibt} (field tuning).

    The printed tuning rules are checked here: t_c is the k-th zero-field
    critical time, B_c the l-th critical field for the parity of k, and the
    engine evaluates Fbar at t_c on the chain rebuilt with the field B_c."""
    j = 1.3
    worst = 0.0
    for name in ("sec2-two-spin", "sec2-three-spin-center"):
        for k in (0, 1):
            t_c = closed_forms.zero_field_critical_time(name, j, k)
            parity = "even" if k % 2 == 0 else "odd"
            for l in (0, 1):
                b_c = closed_forms.critical_field(PresetSystem(name, j, 0.0), t_c, parity, l)
                f = synthesize_f(solve(preset(name, j, b_c)), t_c)
                worst = max(worst, abs(1.0 - fidelity.average_fidelity(f)))

    rng = np.random.default_rng(47)
    specs = [preset(name, 1.1, 0.0) for name in ("sec2-two-spin", "sec2-three-spin-center")]
    worst_law = 0.0
    for spec in specs + [_random_chain(rng, 12) for _ in range(4)]:
        b, times = float(rng.uniform(-3.0, 3.0)), rng.uniform(0.0, 50.0, 20)
        rotated = synthesize_f(solve(spec), times) * np.exp(1j * b * times)
        direct = synthesize_f(solve(spec.with_uniform_field(b)), times)
        worst_law = max(worst_law, float(np.max(np.abs(direct - rotated))))
    return [
        _within(worst, 1e-9, "8 (system, k, l) combinations"),
        _within(worst_law, 1e-12, "6 chains, 20 random t and one random b in [-3, 3] each"),
    ]


@_register("three-spin-impurity-bare-max", "three-spin-impurity-corrected")
def _check_three_spin_impurity() -> list[_Outcome]:
    """Bare centre-impurity chain is a dead channel; a phase flip rescues it."""
    j = 1.0
    spec = preset("sec2-three-spin-center", j, 0.0)
    res = optimize.maximize_fidelity(spec, SearchConfig(t_max=4.0 * math.pi / j))
    t_c = math.pi / j
    corrected, phase = fidelity.corrected_average_fidelity(synthesize_f(solve(spec), t_c))
    return [
        _within(abs(res.fbar - 0.5), 1e-9, f"fbar={res.fbar:.12f} at t={res.best_t:.3e}"),
        _within(abs(corrected - 1.0), 1e-9,
                f"corrected={corrected:.12f}, gate phase={phase:.6f}"),
    ]


@_register("field-impurity-amplitude-bound", "field-impurity-strictly-lossy")
def _check_field_impurity_bound() -> list[_Outcome]:
    """sup_t |f| of the edge-field two-site chain equals J/mu and stays below 1."""
    rng = np.random.default_rng(11)
    worst_err = 0.0
    worst_sup = 0.0
    for _ in range(20):
        j = rng.uniform(0.2, 2.5)
        b = rng.uniform(0.2, 2.5) * rng.choice([-1.0, 1.0])
        mu = math.hypot(b, j)
        spec = preset("sec3-two-spin", j, b)
        cfg = SearchConfig(t_max=20.0 * math.pi / mu)
        res = optimize.maximize_fidelity(spec, cfg, corrected=True)
        worst_err = max(worst_err, abs(res.abs_f - j / mu))
        worst_sup = max(worst_sup, res.abs_f)
    return [
        _within(worst_err, 1e-6, "20 random (J, B), 10 periods each"),
        (worst_sup < 1.0, None, worst_sup, "sup|f| must stay strictly below 1"),
    ]


def _check_corrected_peak(name: str, j: float) -> list[_Outcome]:
    """Three-site chain with the field B = 1 on its centre, at the coupling j
    where the paper reports a corrected peak near 0.9678."""
    res = optimize.maximize_fidelity(preset(name, j, 1.0), SearchConfig(t_max=200.0),
                                     corrected=True)
    return [_within(abs(res.fbar_corrected - 0.9678), 5e-4,
                    f"corrected max={res.fbar_corrected:.6f} at t={res.best_t:.4f}")]


# Centre-field chain at J = 2 sqrt(2) B / 3, and the spin-1 centre carrying the
# field at J = 2B/3.
_register("corrected-peak-field-impurity")(
    functools.partial(_check_corrected_peak, "sec3-three-spin-center", 2.0 * _SQRT2 / 3.0))
_register("corrected-peak-double-impurity")(
    functools.partial(_check_corrected_peak, "sec4-three-spin-center", 2.0 / 3.0))


@_register("strong-coupling-fbar")
def _check_strong_coupling() -> list[_Outcome]:
    """J = 100 B nearly restores the edge-field channel without any correction."""
    b = 1.0
    spec = preset("sec3-two-spin", 100.0 * b, b)
    res = optimize.maximize_fidelity(spec, SearchConfig(t_max=1.5 * math.pi / b))
    return [(res.fbar >= 0.999, None, res.fbar, "requires fbar >= 0.999")]


@_register(*[f"closed-form-f-{name}" for name in PRESET_NAMES])
def _check_closed_form_amplitudes() -> list[_Outcome]:
    """Printed amplitude formulas agree with the spectral engine."""
    rng = np.random.default_rng(23)
    outcomes = []
    for name in PRESET_NAMES:
        worst = 0.0
        # the (J, B, t) rows take the same draws as 300 scalar uniform calls
        for j, b, t in rng.uniform([0.1, 0.0, 0.0], [3.0, 3.0, 50.0], (100, 3)).tolist():
            sys = PresetSystem(name, j, b)
            f = synthesize_f(solve(sys.chain()), t)
            worst = max(worst, abs(f - closed_forms.analytic_f(sys, t)))
        outcomes.append(_within(worst, 1e-10, "100 random (J, B, t)"))
    return outcomes


@_register(*[f"spectrum-{name}" for name in PRESET_NAMES])
def _check_spectra() -> list[_Outcome]:
    """Engine spectra reproduce the printed eigenvalues, vacuum included."""
    j, b = 1.1, 0.7
    outcomes = []
    for name in PRESET_NAMES:
        sys = PresetSystem(name, j, b)
        values, _ = closed_forms.analytic_spectrum(sys)
        h = reduce(sys.chain())
        numeric = np.sort(np.append(eigensolve(h)[0], h.vacuum_energy))
        worst = float(np.max(np.abs(np.sort(values) - numeric)))
        outcomes.append(_within(worst, 1e-12, f"J={j}, B={b}"))
    return outcomes


def _random_chain(rng: np.random.Generator, max_sites: int) -> ChainSpec:
    """A chain of 2 to max_sites sites: spin 1 or 1/2 and a field in [-2, 2) per site,
    couplings in [-2, 2); the draws of one scalar call per number, in one call each."""
    n = int(rng.integers(2, max_sites + 1))
    u = rng.uniform(size=2 * n).tolist()  # (spin, field) per site
    sites = tuple(SiteSpec(spin=SPIN_ONE if s < 0.5 else SPIN_HALF, field=-2.0 + 4.0 * x)
                  for s, x in zip(u[0::2], u[1::2]))
    return ChainSpec(sites=sites, couplings=tuple(rng.uniform(-2.0, 2.0, n - 1).tolist()))


@_register("excitation-block-embedding", "subspace-vs-full", "sz-conservation")
def _check_full_space_equivalence() -> list[_Outcome]:
    """Tensor-product dynamics agrees with the subspace pipeline."""
    rng = np.random.default_rng(37)
    specs = [preset(name, 0.9, 0.6) for name in PRESET_NAMES]
    specs += [_random_chain(rng, 6) for _ in range(50)]

    worst_block = 0.0
    worst_fid = 0.0
    worst_comm = 0.0
    for spec in specs:
        model = full_space.FullSpaceModel(spec)
        h = reduce(spec)

        block = model.block.real
        expected = np.zeros_like(block)
        expected[0, 0] = h.vacuum_energy
        expected[1:, 1:] = h.matrix()
        worst_block = max(worst_block, float(np.max(np.abs(block - expected))))

        worst_comm = max(worst_comm, full_space.sz_commutator_max(spec))

        # the (t, theta, phi) rows take the same draws as 60 scalar uniform calls
        t, theta, phi = rng.uniform([0.0, 0.0, 0.0], [20.0, math.pi, 2.0 * math.pi], (20, 3)).T
        f_sub = fidelity.fidelity(synthesize_f(solve(spec), t), theta)
        f_full = model.fidelity(theta, phi, t)
        worst_fid = max(worst_fid, float(np.max(np.abs(f_full - f_sub))))

    return [
        _within(worst_block, 1e-13, "55 chains"),
        _within(worst_fid, 1e-10, "55 chains, 20 random (t, theta, phi) each"),
        _within(worst_comm, 1e-13, "max |[H, Sz_total]| entry"),
    ]


@_register("fbar-quadrature")
def _check_quadrature() -> list[_Outcome]:
    """Sphere quadrature reproduces the closed-form average fidelity."""
    rng = np.random.default_rng(41)
    f = [math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
         for _ in range(100)]
    quad = [fidelity.bloch_average_quadrature(z) for z in f]
    worst = float(np.max(np.abs(fidelity.average_fidelity(f) - quad)))
    return [_within(worst, 1e-10, "100 random f in the unit disk, 64 nodes in theta")]


@_register("unitarity-excitation-norm", "unitarity-vacuum-phase")
def _check_unitarity() -> list[_Outcome]:
    """Evolution stays unitary: sum |fn|^2 = 1 and |f0| = 1 on random chains."""
    rng = np.random.default_rng(43)
    worst_norm = 0.0
    worst_vac = 0.0
    for _ in range(200):
        spec = _random_chain(rng, 12)
        h = reduce(spec)
        f0, fn = amplitudes(h, eigensolve(h), float(rng.uniform(0.0, 50.0)))
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(fn) ** 2)) - 1.0))
        worst_vac = max(worst_vac, abs(abs(f0) - 1.0))
    return [
        _within(worst_norm, 1e-12, "200 random chains and times"),
        _within(worst_vac, 1e-12, "200 random chains and times"),
    ]


@_register("engineered-chain-transfer")
def _check_engineered_transfer() -> list[_Outcome]:
    """Engineered couplings give perfect transfer on plain chains (found, not assumed)."""
    worst = 0.0
    details = []
    for n in (5, 8):
        spec = engineered_chain(n, lam=1.0)
        res = optimize.maximize_fidelity(spec, SearchConfig(t_max=1.3 * math.pi),
                                         corrected=True)
        worst = max(worst, 1.0 - res.abs_f)
        details.append(f"N={n}: max|f|={res.abs_f:.12f} at t={res.best_t:.6f}")
    return [_within(worst, 1e-9, "; ".join(details))]


@_register("engineered-spin-impurity-report")
def _check_engineered_impurity_report() -> list[_Outcome]:
    """Report-only experiment: engineered chain with one spin-1 site.

    No threshold is asserted; the measured peaks are recorded so the claim
    that a spin impurity merely shifts the perfect-transfer time can be
    judged from data.  Each entry also gives the bound sum_k |w_k| on |f| at
    every time; below 1 it rules out perfect transfer at any time.
    """
    details = []
    for n in (4, 5, 6, 8):
        for k in sorted({2, (n + 1) // 2}):
            spec = engineered_chain(n, lam=1.0, spin_one_site=k)
            res = optimize.maximize_fidelity(spec, SearchConfig(t_max=60.0 * math.pi),
                                             corrected=True)
            bound = solve(spec).transfer_bound
            details.append(f"N={n} k={k}: max|f|={res.abs_f:.6f} at t={res.best_t:.4f} "
                           f"bound={bound:.6f}")
    return [(True, None, None, "; ".join(details))]


CHECK_NAMES: tuple[str, ...] = tuple(name for names, _ in _REGISTRY for name in names)


def run_all(
    only: str | None = None,
    on_result: Callable[[CheckResult], None] | None = None,
) -> list[CheckResult]:
    """Run every check (or those whose name contains `only`), in order.

    A group that raises, or returns other than one outcome per name, is
    reported as failed under each of its names rather than aborting the run.
    Every result carries in `seconds` the wall time of the group it came from.
    """
    results: list[CheckResult] = []
    for names, fn in _REGISTRY:
        if only is not None and not any(only in name for name in names):
            continue
        started = time.perf_counter()
        try:
            outcomes = list(zip(names, fn(), strict=True))
        except Exception as exc:  # noqa: BLE001 - a broken check is a failed check
            outcomes = [(name, (False, None, None, f"error: {exc!r}")) for name in names]
        seconds = time.perf_counter() - started
        for name, outcome in outcomes:
            result = CheckResult(name, *outcome, seconds=seconds)
            results.append(result)
            if on_result is not None:
                on_result(result)
    return results
