"""Deterministic search for critical times, peak fidelities, and tuned fields.

Strategy: sample the objective on a uniform grid whose spacing is tied to the
spectral spread of the chain (the objective is a trigonometric polynomial
whose frequencies are level differences, so spacing pi / (10 * spread) cannot
skip an oscillation), then refine every candidate bracket by golden-section
search.  A final three-point parabolic correction sharpens each extremum past
the floating-point tie plateau that makes raw golden-section comparisons
uninformative on flat tops.  No randomness is used anywhere; identical inputs
give identical results, and ties between equal peaks resolve to the earliest
time.  Field tuning searches t alone: a uniform field b only rotates the
phase of f, f(t, b) = f(t, 0) e^{ibt}, so the best field at each t is known,
and the grid is finer only while the field box cannot align every phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closed_forms, fidelity
from .chain import ChainSpec, preset
from .closed_forms import PresetSystem
from .excitation import amplitudes, solve, synthesize_f

__all__ = [
    "GridBudgetError",
    "SearchConfig",
    "OptimizationResult",
    "FieldTuningReport",
    "critical_times",
    "maximize_fidelity",
    "tune_uniform_field",
    "verify_field_formula",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Peaks of |f| below this are indistinguishable from a dead channel.
_PEAK_FLOOR = 1e-12

# Two candidate maxima whose objectives differ by less than this are treated
# as tied, and the earlier time wins.
_TIE_TOL = 1e-12


# Longest search grid (the benchmark's largest holds about 4 000 points).
_MAX_GRID_POINTS = 2**20


class GridBudgetError(ValueError):
    """The search grid on [0, t_max] would hold more than _MAX_GRID_POINTS times."""


@dataclass(frozen=True)
class SearchConfig:
    """Search horizon and refinement budget.

    refine_tol is a tolerance on the time; when omitted it defaults to
    1e-10 * t_max.
    """

    t_max: float
    n_samples: int = 256
    refine_tol: float | None = None
    max_refine_iters: int = 200

    def __post_init__(self) -> None:
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.n_samples < 16:
            raise ValueError(f"n_samples must be at least 16, got {self.n_samples}")
        if self.refine_tol is None:
            object.__setattr__(self, "refine_tol", 1e-10 * self.t_max)
        if not self.refine_tol > 0.0:
            raise ValueError(f"refine_tol must be positive, got {self.refine_tol!r}")
        if self.max_refine_iters < 1:
            raise ValueError("max_refine_iters must be at least 1")


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found, its fidelities, and search diagnostics.

    evaluations is the number of time points at which f was evaluated, grid
    points included, each counted once.
    """

    best_t: float
    best_field: float | None
    fbar: float
    fbar_corrected: float
    abs_f: float
    evaluations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class FieldTuningReport:
    """Outcome of checking one tuned (t_c, B_c) pair against the engine."""

    system: str
    k: int
    l: int
    t_c: float
    b_c: float
    abs_f: float
    gamma: float
    fbar: float
    ok: bool


class _Evaluations:
    """f(t) on solved chains, counting every time point at which f is evaluated."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, solved, t):
        self.count += np.size(t)
        return synthesize_f(*solved, t)


def _level_spread(h, eig) -> float:
    """Spread of the full zero-plus-one-excitation spectrum, vacuum included."""
    lo = min(float(eig.values[0]), h.vacuum_energy)
    hi = max(float(eig.values[-1]), h.vacuum_energy)
    return hi - lo


def _time_grid(cfg: SearchConfig, *pieces: tuple[float, float]) -> np.ndarray:
    """Grid on [0, t_max] of (t_end, spread) pieces, t_end ascending to t_max; each
    is sampled at spacing min(t_max / n_samples, pi / (10 * spread))."""
    ends, steps = [0.0], []
    for t_end, spread in pieces:
        spacing = cfg.t_max / cfg.n_samples
        if spread > 0.0:
            spacing = min(spacing, math.pi / (10.0 * spread))
        steps.append((t_end - ends[-1]) / spacing if spacing > 0.0 else math.inf)  # spread overflowed
        ends.append(t_end)
    total = sum(steps)  # the grid holds sum(ceil(steps)) + 1 points; total may be inf
    if not (total < _MAX_GRID_POINTS and sum(map(math.ceil, steps)) < _MAX_GRID_POINTS):
        raise GridBudgetError(f"t_max = {cfg.t_max!r} needs {total + 1:.4g} grid points (limit "
                              f"{_MAX_GRID_POINTS}); split the horizon into pieces of at most "
                              f"{cfg.t_max * (_MAX_GRID_POINTS - 1) / total:.6g}")
    parts = [np.linspace(lo, hi, math.ceil(n) + 1) for lo, hi, n in zip(ends, ends[1:], steps)]
    return np.concatenate([parts[0]] + [part[1:] for part in parts[1:]])


def _golden_max(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iters: int,
) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    iters = 0
    while (b - a) > tol and iters < max_iters:
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        iters += 1
    if f1 > f2:
        return x1, f1
    return x2, f2


def _parabolic_polish(
    fn: Callable[[float], float],
    x: float,
    value: float,
    lo: float,
    hi: float,
    h: float,
) -> tuple[float, float]:
    """One three-point parabolic step with stencil width h, clamped to [lo, hi].

    Golden-section alone stalls once objective differences drop below the
    floating-point resolution of the flat top; a stencil wide enough to see
    real curvature relocates the vertex to far better than the plateau width.
    """
    if h <= 0.0 or hi - lo <= 2.0 * h:
        return x, value
    left = min(max(x - h, lo), hi - 2.0 * h)
    xs = (left, left + h, left + 2.0 * h)
    ys = (fn(xs[0]), fn(xs[1]), fn(xs[2]))
    denom = ys[0] - 2.0 * ys[1] + ys[2]
    if denom >= 0.0:
        return x, value
    vertex = xs[1] + 0.5 * h * (ys[0] - ys[2]) / denom
    vertex = min(max(vertex, lo), hi)
    v_val = fn(vertex)
    best_x, best_val = x, value
    for cand_x, cand_val in ((xs[0], ys[0]), (xs[1], ys[1]), (xs[2], ys[2])):
        if cand_val > best_val:
            best_x, best_val = cand_x, cand_val
    # On a flat top the vertex ties the incumbent; its position is still the
    # better estimate because it comes from the visible curvature.
    if v_val >= best_val:
        best_x, best_val = vertex, v_val
    return best_x, best_val


def _refine_bracket(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: SearchConfig,
) -> tuple[float, float, tuple[float, float]]:
    x, val = _golden_max(fn, lo, hi, cfg.refine_tol, cfg.max_refine_iters)
    h = max(1e4 * cfg.refine_tol, 1e-6 * cfg.t_max)
    x, val = _parabolic_polish(fn, x, val, lo, hi, h)
    return x, val, (max(lo, x - cfg.refine_tol), min(hi, x + cfg.refine_tol))


def _interior_peaks(values: np.ndarray) -> list[int]:
    idx = []
    for i in range(1, values.size - 1):
        left, mid, right = values[i - 1], values[i], values[i + 1]
        if mid >= left and mid >= right and (mid > left or mid > right):
            idx.append(i)
    return idx


def critical_times(spec: ChainSpec, cfg: SearchConfig) -> list[tuple[float, float]]:
    """Local maxima of |f(t)| on [0, t_max], refined, ascending in t.

    Returns an empty list when the channel is dead (|f| identically zero,
    for instance with all couplings zero).
    """
    solved = solve(spec)
    grid = _time_grid(cfg, (cfg.t_max, _level_spread(*solved)))
    values = np.abs(synthesize_f(*solved, grid))

    peaks = []
    for i in _interior_peaks(values):
        if values[i] <= _PEAK_FLOOR:
            continue
        t, val, _ = _refine_bracket(lambda t: abs(synthesize_f(*solved, t)),
                                    grid[i - 1], grid[i + 1], cfg)
        peaks.append((t, val))
    peaks.sort(key=lambda pair: pair[0])
    return peaks


def _result(f: complex, best_t: float, best_field: float | None, evaluations: int,
            bracket: tuple[float, float]) -> OptimizationResult:
    corrected_val, _ = fidelity.corrected_average_fidelity(f)
    return OptimizationResult(
        best_t=best_t,
        best_field=best_field,
        fbar=fidelity.average_fidelity(f),
        fbar_corrected=corrected_val,
        abs_f=abs(f),
        evaluations=evaluations,
        bracket=bracket,
    )


def _global_max(objective: Callable[[float], float], grid: np.ndarray, values: np.ndarray,
                cfg: SearchConfig) -> tuple[float, tuple[float, float]]:
    """Time and bracket of the largest refined candidate; values is objective on grid."""
    candidates = [(0.0, float(values[0]), (0.0, 0.0)),
                  (cfg.t_max, float(values[-1]), (cfg.t_max, cfg.t_max))]
    brackets = [(0, 1), (grid.size - 2, grid.size - 1)]
    brackets.extend((i - 1, i + 1) for i in _interior_peaks(values))
    candidates.extend(_refine_bracket(objective, grid[lo], grid[hi], cfg) for lo, hi in brackets)

    candidates.sort(key=lambda c: c[0])
    best_t, best_val, best_bracket = candidates[0]
    for t, val, bracket in candidates[1:]:
        if val > best_val + _TIE_TOL:
            best_t, best_val, best_bracket = t, val, bracket
    return best_t, best_bracket


def maximize_fidelity(spec: ChainSpec, cfg: SearchConfig, corrected: bool = False) -> OptimizationResult:
    """Global maximum of the (plain or corrected) average fidelity on [0, t_max].

    Candidates are both endpoints and every interior grid peak; each is
    refined by golden-section plus a parabolic polish.  Ties within 1e-12
    resolve to the earliest time.
    """
    solved = solve(spec)
    f_of = _Evaluations()

    def objective(t: float) -> float:
        f = f_of(solved, t)
        if corrected:
            return fidelity.corrected_average_fidelity(f)[0]
        return fidelity.average_fidelity(f)

    grid = _time_grid(cfg, (cfg.t_max, _level_spread(*solved)))
    reports = fidelity.fidelity_reports(grid, f_of(solved, grid))
    values = reports.fbar_corrected if corrected else reports.fbar
    best_t, bracket = _global_max(objective, grid, values, cfg)

    f = f_of(solved, best_t)
    return _result(f, best_t, None, f_of.count, bracket)


def tune_uniform_field(
    base: ChainSpec,
    cfg: SearchConfig,
    b_range: tuple[float, float],
    n_b: int = 32,
) -> OptimizationResult:
    """Maximise the average fidelity over (t, uniform field B) on a box.

    The field, added to every site, commutes with the chain: it only rotates f,
    f(t, B) = f(t, 0) e^{iBt}, and with a local impurity field Fbar stays below
    1.  The chain is solved once, at the box centre B_c.  At time t the field
    B_c - arg f(t, B_c) / t aligns the phase; clipped to the box (the nearer
    edge leaves the smaller phase) it gives the exact maximum over the box.  t
    is searched as in maximize_fidelity, with W / 2 (W the box width) added to
    the grid's spread up to t = 2 pi / W; from there on every phase is aligned
    and the objective, the corrected Fbar, oscillates only at differences of
    excitation levels.  The reported values come from a solve of the tuned
    chain.  n_b is ignored; the field needs no grid.
    """
    b_lo, b_hi = float(b_range[0]), float(b_range[1])
    if not b_lo < b_hi:
        raise ValueError(f"need B_lo < B_hi, got {b_range!r}")
    b_c = (b_lo + b_hi) / 2.0
    solved = solve(base.with_uniform_field(b_c))
    f_of = _Evaluations()

    def tuned(t, f):
        """Best field at time(s) t, given f at B_c there, and f at that field."""
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 keeps B_c
            b = np.clip(np.where(t > 0.0, b_c - np.angle(f) / t, b_c), b_lo, b_hi)
        return b, f * np.exp(1j * (b - b_c) * t)

    def objective(t: float) -> float:
        return fidelity.average_fidelity(complex(tuned(t, f_of(solved, t))[1]))

    t_aligned, levels = min(cfg.t_max, 2.0 * math.pi / (b_hi - b_lo)), solved[1].values
    grid = _time_grid(cfg, (t_aligned, _level_spread(*solved) + (b_hi - b_lo) / 2.0),
                      (cfg.t_max, float(levels[-1] - levels[0])))
    values = fidelity.fidelity_reports(grid, tuned(grid, f_of(solved, grid))[1]).fbar
    best_t, bracket = _global_max(objective, grid, values, cfg)

    best_b = float(tuned(best_t, f_of(solved, best_t))[0])
    f = f_of(solve(base.with_uniform_field(best_b)), best_t)
    return _result(f, best_t, best_b, f_of.count, bracket)


def verify_field_formula(
    sys: PresetSystem, k: int, l: int, target_tol: float = 1e-9
) -> FieldTuningReport:
    """Check that the printed (t_c, B_c) rules really give perfect transfer.

    t_c is the k-th zero-field critical time of sys (its field value is
    ignored), B_c the matching tuned field; the chain is rebuilt with B_c and
    the engine evaluates the average fidelity at t_c.  ok is set when that
    value reaches 1 - target_tol.  Raises NotTunableError for the systems
    with no exact tuning.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    t_c = closed_forms.zero_field_critical_time(sys.name, sys.J, k)
    parity = "even" if k % 2 == 0 else "odd"
    b_c = closed_forms.critical_field(sys, t_c, parity, l)
    record = amplitudes(*solve(preset(sys.name, sys.J, b_c)), t_c)
    fbar = fidelity.average_fidelity(record.f)
    return FieldTuningReport(
        system=sys.name,
        k=k,
        l=l,
        t_c=t_c,
        b_c=b_c,
        abs_f=abs(record.f),
        gamma=record.gamma,
        fbar=fbar,
        ok=fbar >= 1.0 - target_tol,
    )
