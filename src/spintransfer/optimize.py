"""Deterministic search for critical times, peak fidelities, and tuned fields.

Strategy: sample the objective on a uniform grid whose spacing is tied to the
spectral spread of the chain (the objective is a trigonometric polynomial
whose frequencies are level differences, so spacing pi / (10 * spread) cannot
skip an oscillation), then refine candidate brackets by golden-section
search.  The brackets are refined in lockstep: each step evaluates f at one
new time per bracket still open, in one array synthesis, and each bracket
visits the same times a search on it alone would.  A final three-point
parabolic correction sharpens each extremum past the floating-point tie
plateau that makes raw golden-section comparisons uninformative on flat
tops.  critical_times refines every peak of |f|.  The fidelity searches skip
a bracket whose grid peak plus _MAX_RISE, a bound on how far the objective
can rise between grid points, stays more than 2 * _TIE_TOL below the best
value found: it can neither win nor tie.  No randomness is used anywhere;
identical inputs give identical results, and the winner is the earliest
candidate within _TIE_TOL of the largest.  Field tuning searches t alone: a
uniform field b only rotates the phase of f, f(t, b) = f(t, 0) e^{ibt}, so
the best field at each t is known, and the grid is finer only while the
field box cannot align every phase.
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

# How far a fidelity objective can rise above the larger of two neighbouring
# grid values.  On each piece of _time_grid it is the max, over a family
# (plain Fbar: theta = 0; corrected: every theta; tuned: every field of the
# box), of h = 1/2 + Re(e^{i theta} g) / 3 + |g|^2 / 6 with g = sum_k w_k
# e^{-i nu_k t}, sum_k |w_k| <= 1 and every frequency of h at most Omega, the
# spread the piece is spaced for.  h lies in [1/6, 1] on all of R, so
# Bernstein's inequality gives |h''| <= Omega^2 * 5/12, and over a step of at
# most pi / (10 Omega) the maximum exceeds the larger end by at most
# |h''| step^2 / 8.
_MAX_RISE = (5.0 / 12.0) * (math.pi / 10.0) ** 2 / 8.0

# Longest search grid (the benchmark's largest holds about 4 000 points).
_MAX_GRID_POINTS = 2**20

# Golden-section steps per bracket, at most.
_MAX_REFINE_ITERS = 200

# verify_field_formula accepts a tuned pair whose Fbar reaches 1 minus this.
_FIELD_TUNING_TOL = 1e-9


class GridBudgetError(ValueError):
    """The search grid on [0, t_max] would hold more than _MAX_GRID_POINTS times."""


@dataclass(frozen=True)
class SearchConfig:
    """Search horizon and coarse-grid sample floor."""

    t_max: float
    n_samples: int = 256

    def __post_init__(self) -> None:
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.t_max == math.inf:  # no grid of finitely many points covers it
            raise GridBudgetError("t_max must be finite, got inf")
        if self.n_samples < 16:
            raise ValueError(f"n_samples must be at least 16, got {self.n_samples}")

    @property
    def refine_tol(self) -> float:
        """Tolerance on the time at which refinement stops."""
        return 1e-10 * self.t_max


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found, its fidelities, and search diagnostics.

    evaluations is the number of time points at which f was evaluated, grid
    points included, each counted once; brackets that are never refined
    add nothing.
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
    # density is steps per unit time, still finite when a step count overflows
    ends, steps, density = [0.0], [], 0.0
    for t_end, spread in pieces:
        spacing = cfg.t_max / cfg.n_samples
        if spread > 0.0:
            spacing = min(spacing, math.pi / (10.0 * spread))
        length = t_end - ends[-1]
        steps.append(length / spacing if spacing > 0.0 else math.inf)  # spread overflowed
        density += length / cfg.t_max / spacing if spacing > 0.0 else math.inf
        ends.append(t_end)
    total = sum(steps)  # the grid holds sum(ceil(steps)) + 1 points; total may be inf
    if not (total < _MAX_GRID_POINTS and sum(map(math.ceil, steps)) < _MAX_GRID_POINTS):
        hint = (f"split the horizon into pieces of at most {(_MAX_GRID_POINTS - 1) / density:.6g}"
                if density < math.inf else "the spread of the levels or the field box overflows")
        raise GridBudgetError(f"t_max = {cfg.t_max!r} needs {total + 1:.4g} grid points "
                              f"(limit {_MAX_GRID_POINTS}); {hint}")
    parts = [np.linspace(lo, hi, math.ceil(n) + 1) for lo, hi, n in zip(ends, ends[1:], steps)]
    return np.concatenate([parts[0]] + [part[1:] for part in parts[1:]])


def _refine_brackets(
    objective: Callable[[np.ndarray], np.ndarray],
    los: np.ndarray,
    his: np.ndarray,
    cfg: SearchConfig,
) -> list[tuple[float, float, tuple[float, float]]]:
    """Refine every bracket [los[i], his[i]] at once; (t, value, bracket) for each.

    objective maps an array of times to an array of values.  Golden-section
    steps run on all brackets in lockstep, one objective call per step on the
    new time of every bracket still wider than refine_tol, for at most
    _MAX_REFINE_ITERS steps.  One three-point parabolic step of width h then
    polishes every bracket wider than 2h: golden-section stalls once objective
    differences drop below the resolution of a flat top, and a stencil wide
    enough to see real curvature places the vertex far better.  Each bracket
    visits the times, and takes the branches, of a search on it alone.
    """
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    a, b = los.copy(), his.copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f12 = objective(np.concatenate([x1, x2]))
    f1, f2 = f12[:a.size], f12[a.size:]
    for _ in range(_MAX_REFINE_ITERS):
        active = np.flatnonzero(b - a > cfg.refine_tol)
        if not active.size:
            break
        first = f1[active] > f2[active]
        lower, upper = active[first], active[~first]  # keep [a, x2], or [x1, b]
        b[lower], x2[lower], f2[lower] = x2[lower], x1[lower], f1[lower]
        x1[lower] = b[lower] - _GOLDEN * (b[lower] - a[lower])
        a[upper], x1[upper], f1[upper] = x1[upper], x2[upper], f2[upper]
        x2[upper] = a[upper] + _GOLDEN * (b[upper] - a[upper])
        new = objective(np.concatenate([x1[lower], x2[upper]]))
        f1[lower], f2[upper] = new[:lower.size], new[lower.size:]
    first = f1 > f2
    x, val = np.where(first, x1, x2), np.where(first, f1, f2)

    h = max(1e4 * cfg.refine_tol, 1e-6 * cfg.t_max)
    wide = np.flatnonzero(his - los > 2.0 * h)
    left = np.minimum(np.maximum(x[wide] - h, los[wide]), his[wide] - 2.0 * h)
    xs = np.stack([left, left + h, left + 2.0 * h])
    ys = objective(xs.ravel()).reshape(xs.shape)
    denom = ys[0] - 2.0 * ys[1] + ys[2]
    curved = denom < 0.0  # the other stencils keep the golden-section point
    wide, xs, ys, denom = wide[curved], xs[:, curved], ys[:, curved], denom[curved]
    vertex = xs[1] + 0.5 * h * (ys[0] - ys[2]) / denom
    vertex = np.minimum(np.maximum(vertex, los[wide]), his[wide])
    v_val = objective(vertex)
    best_x, best_val = x[wide], val[wide]
    for xk, yk in zip(xs, ys):
        better = yk > best_val
        best_x, best_val = np.where(better, xk, best_x), np.where(better, yk, best_val)
    # On a flat top the vertex ties the incumbent; its position is still the
    # better estimate because it comes from the visible curvature.
    take = v_val >= best_val
    x[wide], val[wide] = np.where(take, vertex, best_x), np.where(take, v_val, best_val)

    brackets = zip(np.maximum(los, x - cfg.refine_tol).tolist(),
                   np.minimum(his, x + cfg.refine_tol).tolist())
    return list(zip(x.tolist(), val.tolist(), brackets))


def _interior_peaks(values: np.ndarray) -> np.ndarray:
    """Indices i with values[i] >= both neighbours and > at least one of them."""
    left, mid, right = values[:-2], values[1:-1], values[2:]
    return 1 + np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))


def critical_times(spec: ChainSpec, cfg: SearchConfig) -> list[tuple[float, float]]:
    """Local maxima of |f(t)| on [0, t_max], refined, ascending in t.

    Returns an empty list when the channel is dead (|f| identically zero,
    for instance with all couplings zero).
    """
    solved = solve(spec)

    def objective(t: np.ndarray) -> np.ndarray:
        f = synthesize_f(*solved, t)
        return np.hypot(f.real, f.imag)  # bit for bit Python's abs(complex)

    grid = _time_grid(cfg, (cfg.t_max, _level_spread(*solved)))
    values = objective(grid)
    peaks = _interior_peaks(values)
    peaks = peaks[values[peaks] > _PEAK_FLOOR]
    refined = _refine_brackets(objective, grid[peaks - 1], grid[peaks + 1], cfg)
    return sorted(((t, val) for t, val, _ in refined), key=lambda pair: pair[0])


def _result(f: complex, best_t: float, best_field: float | None, evaluations: int,
            bracket: tuple[float, float]) -> OptimizationResult:
    rep = fidelity.fidelity_report(best_t, f)
    return OptimizationResult(
        best_t=best_t,
        best_field=best_field,
        fbar=rep.fbar,
        fbar_corrected=rep.fbar_corrected,
        abs_f=abs(f),
        evaluations=evaluations,
        bracket=bracket,
    )


def _global_max(objective: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                cfg: SearchConfig) -> tuple[float, tuple[float, float]]:
    """Time and bracket of the earliest candidate within _TIE_TOL of the largest.

    The candidates are both ends of the grid and the refined brackets around
    both end intervals and every interior peak.  No point of a bracket lies
    more than _MAX_RISE above the bracket's grid peak, so a bracket whose
    peak plus _MAX_RISE stays below best - 2 * _TIE_TOL is never refined: even
    with round-off its value cannot come within _TIE_TOL of best.  best is
    first the largest grid value, then the largest candidate value; should
    the refined values fall short of the grid, the brackets the lower best
    admits are refined in a second pass.
    """
    values = objective(grid)
    peaks = _interior_peaks(values)
    los = np.concatenate([[0, grid.size - 2], peaks - 1])
    his = np.concatenate([[1, grid.size - 1], peaks + 1])
    bound = np.concatenate([[values[:2].max(), values[-2:].max()], values[peaks]]) + _MAX_RISE
    ends = [(0.0, float(values[0]), (0.0, 0.0)),
            (cfg.t_max, float(values[-1]), (cfg.t_max, cfg.t_max))]
    refined, best = {}, float(values.max())
    while True:
        todo = [i for i in np.flatnonzero(bound >= best - 2.0 * _TIE_TOL).tolist()
                if i not in refined]
        if not todo:
            break
        refined.update(zip(todo, _refine_brackets(objective, grid[los[todo]], grid[his[todo]], cfg)))
        best = max(val for _, val, _ in ends + list(refined.values()))

    candidates = ends + [refined[i] for i in sorted(refined)]
    best_t, _, bracket = min((c for c in candidates if c[1] >= best - _TIE_TOL),
                             key=lambda c: c[0])
    return best_t, bracket


def maximize_fidelity(spec: ChainSpec, cfg: SearchConfig, corrected: bool = False) -> OptimizationResult:
    """Global maximum of the (plain or corrected) average fidelity on [0, t_max].

    Candidates are both endpoints and the brackets around both end intervals
    and every interior grid peak.  A bracket is refined by golden-section
    plus a parabolic polish unless its grid peak plus _MAX_RISE stays more
    than 2 * _TIE_TOL below the best value (see _global_max).  The earliest
    candidate within _TIE_TOL of the largest wins.
    """
    solved = solve(spec)
    f_of = _Evaluations()

    def objective(t: np.ndarray) -> np.ndarray:
        return fidelity.average_fidelities(f_of(solved, t), corrected)

    grid = _time_grid(cfg, (cfg.t_max, _level_spread(*solved)))
    best_t, bracket = _global_max(objective, grid, cfg)

    f = f_of(solved, best_t)
    return _result(f, best_t, None, f_of.count, bracket)


def tune_uniform_field(
    base: ChainSpec,
    cfg: SearchConfig,
    b_range: tuple[float, float],
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
    chain.
    """
    b_lo, b_hi = float(b_range[0]), float(b_range[1])
    b_c = (b_lo + b_hi) / 2.0
    if not (b_lo < b_hi and math.isfinite(b_c)):
        raise ValueError(f"the field box needs B_lo < B_hi and a finite centre, got {b_range!r}")
    solved = solve(base.with_uniform_field(b_c))
    f_of = _Evaluations()

    def tuned(t, f):
        """Best field at time(s) t, given f at B_c there, and f at that field."""
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 keeps B_c
            b = np.clip(np.where(t > 0.0, b_c - np.angle(f) / t, b_c), b_lo, b_hi)
        return b, f * np.exp(1j * (b - b_c) * t)

    def objective(t: np.ndarray) -> np.ndarray:
        return fidelity.average_fidelities(tuned(t, f_of(solved, t))[1])

    t_aligned, levels = min(cfg.t_max, 2.0 * math.pi / (b_hi - b_lo)), solved[1].values
    grid = _time_grid(cfg, (t_aligned, _level_spread(*solved) + (b_hi - b_lo) / 2.0),
                      (cfg.t_max, float(levels[-1] - levels[0])))
    best_t, bracket = _global_max(objective, grid, cfg)

    best_b = float(tuned(best_t, f_of(solved, best_t))[0])
    f = f_of(solve(base.with_uniform_field(best_b)), best_t)
    return _result(f, best_t, best_b, f_of.count, bracket)


def verify_field_formula(sys: PresetSystem, k: int, l: int) -> FieldTuningReport:
    """Check that the printed (t_c, B_c) rules really give perfect transfer.

    t_c is the k-th zero-field critical time of sys (its field value is
    ignored), B_c the matching tuned field; the chain is rebuilt with B_c and
    the engine evaluates the average fidelity at t_c.  ok is set when that
    value reaches 1 - _FIELD_TUNING_TOL.  Raises NotTunableError for the
    systems with no exact tuning.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    t_c = closed_forms.zero_field_critical_time(sys.name, sys.J, k)
    parity = "even" if k % 2 == 0 else "odd"
    b_c = closed_forms.critical_field(sys, t_c, parity, l)
    f = amplitudes(*solve(preset(sys.name, sys.J, b_c)), t_c).f
    rep = fidelity.fidelity_report(t_c, f)
    return FieldTuningReport(
        system=sys.name,
        k=k,
        l=l,
        t_c=t_c,
        b_c=b_c,
        abs_f=abs(f),
        gamma=rep.gamma,
        fbar=rep.fbar,
        ok=rep.fbar >= 1.0 - _FIELD_TUNING_TOL,
    )
