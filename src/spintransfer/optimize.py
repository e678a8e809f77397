"""Deterministic search for critical times, peak fidelities, and tuned fields.

Every search builds one _Search on the solved chain.  _time_grid splits
[0, t_max] into (start, end, steps) pieces, each spaced for the spectral
spread it covers: the objective is a trigonometric polynomial whose
frequencies are level differences, so spacing pi / (10 * spread) cannot skip
an oscillation.  _grid_f gives the grid times and f there by one matrix
product per piece: with lambda_k = eps_k - E0 and blocks of _GRID_BLOCK
points from grid time t_b on, f(t_b + m dt) = sum_k [w_k e^{-i lambda_k t_b}]
e^{-i lambda_k m dt}, a (blocks x N) by (N x _GRID_BLOCK) product in place of
an exponential per point and level.  These values lie within _grid_error of
synthesize_f's, which the pruning margin allows for; every other value of f,
refined or reported, comes from synthesize_f through the search, which counts
each time point once.  Candidate brackets are refined by golden-section
search in lockstep: each step evaluates f at one new time per bracket still
open, in one array synthesis, and each bracket visits the same times a search
on it alone would.  A final three-point parabolic correction sharpens each
extremum past the floating-point tie plateau that makes raw golden-section
comparisons uninformative on flat tops.  critical_times refines every peak of
|f|.  The fidelity searches skip a bracket whose grid peak plus _MAX_RISE, a
bound on how far the objective can rise between grid points, plus twice the
grid values' error stays more than 2 * _TIE_TOL below the best value found:
it can neither win nor tie.  No randomness is used anywhere; identical inputs
give identical results, and the winner is the earliest candidate within
_TIE_TOL of the largest.  Field tuning searches t alone: a uniform field b
only rotates the phase of f, f(t, b) = f(t, 0) e^{ibt}, so the best field at
each t is known, and the grid is finer only while the field box cannot align
every phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fidelity
from .chain import ChainSpec
from .excitation import _TIME_BLOCK, solve, synthesize_f

__all__ = [
    "GridBudgetError",
    "SearchConfig",
    "OptimizationResult",
    "critical_times",
    "maximize_fidelity",
    "tune_uniform_field",
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
# spread the piece is spaced for.  h lies in [1/3, 1] on all of R (its least
# value, at Re(e^{i theta} g) = -|g|, falls with |g| to 1/3 at |g| = 1), so
# Bernstein's inequality on h - 2/3 gives |h''| <= Omega^2 / 3, and over a
# step of at most pi / (10 Omega) the maximum exceeds the larger end by at
# most |h''| step^2 / 8.
_MAX_RISE = (1.0 / 3.0) * (math.pi / 10.0) ** 2 / 8.0

# Grid points per block of _grid_f's matrix product.
_GRID_BLOCK = 64

# Longest search grid (the benchmark's largest holds about 4 000 points).
_MAX_GRID_POINTS = 2**20

# Golden-section steps per bracket, at most.
_MAX_REFINE_ITERS = 200


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
        if self.t_max / self.n_samples == 0.0:
            raise ValueError(f"t_max = {self.t_max!r} is too small for {self.n_samples} "
                             f"samples: their spacing underflows to 0")

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


def _level_spread(h, eig) -> float:
    """Spread of the full zero-plus-one-excitation spectrum, vacuum included."""
    lo = min(float(eig.values[0]), h.vacuum_energy)
    hi = max(float(eig.values[-1]), h.vacuum_energy)
    return hi - lo


def _time_grid(cfg: SearchConfig, *pieces: tuple[float, float]) -> list[tuple[float, float, int]]:
    """(start, end, steps) pieces of a grid on [0, t_max], none of zero steps.

    pieces are (t_end, spread), t_end ascending to t_max; each is sampled at
    spacing at most min(t_max / n_samples, pi / (10 * spread)).
    """
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
        if density == math.inf:
            hint = "the spread of the levels or the field box overflows"
        elif cfg.n_samples + 1 < _MAX_GRID_POINTS:
            # a short enough piece takes at most n_samples + 1 steps, and fits
            hint = f"split the horizon into pieces of at most {(_MAX_GRID_POINTS - 1) / density:.6g}"
        else:  # no piece fits: each takes n_samples steps or more, whatever its length
            hint = f"lower n_samples = {cfg.n_samples}"
        raise GridBudgetError(f"t_max = {cfg.t_max!r} needs {total + 1:.4g} grid points "
                              f"(limit {_MAX_GRID_POINTS}); {hint}")
    return [(lo, hi, math.ceil(n)) for lo, hi, n in zip(ends, ends[1:], steps) if n > 0.0]


def _grid_f(h, eig, pieces) -> tuple[np.ndarray, np.ndarray]:
    """The grid times of _time_grid's pieces, and f there by block products.

    Each piece is linspace(start, end, steps + 1), so a block of _GRID_BLOCK
    points from grid time t_b holds f(t_b + m dt) = sum_k [w_k e^{-i lambda_k
    t_b}] e^{-i lambda_k m dt}, lambda_k = eps_k - E0: one (blocks x N) by
    (N x _GRID_BLOCK) product.  dt is linspace's own step and every t_b a grid
    time, so the times differ from the grid's by rounding alone (see
    _grid_error).  Where two pieces share an end point, the later piece's
    value is kept.  Chunks of _TIME_BLOCK times keep the phase matrix within
    the _TIME_BLOCK x N of synthesize_f.
    """
    weights, levels = eig.end_weights, eig.values - h.vacuum_energy
    times = [np.linspace(start, end, steps + 1) for start, end, steps in pieces]
    grid = np.concatenate([times[0]] + [piece[1:] for piece in times[1:]])
    f = np.empty(grid.size, dtype=complex)
    lo = 0
    for start, end, steps in pieces:
        hi, step = lo + steps, (end - start) / steps  # as linspace computes it
        offsets = np.exp(np.multiply.outer(-1j * levels, np.arange(_GRID_BLOCK) * step))
        for first in range(lo, hi + 1, _TIME_BLOCK):
            last = min(first + _TIME_BLOCK, hi + 1)
            phases = np.multiply.outer(-1j * grid[first:last:_GRID_BLOCK], levels)
            np.exp(phases, out=phases)
            phases *= weights
            f[first:last] = (phases @ offsets).ravel()[:last - first]
        lo = hi
    return grid, f


def _grid_error(h, eig, t_max: float) -> float:
    """Bound on |_grid_f - synthesize_f| at every point of a grid on [0, t_max].

    With u = 2^-53: a time t_b + m dt of the block product lies within
    3 u t_max of a + m dt (a the start of its piece) and linspace's grid time
    within 2 u t_max, so the two differ by at most 5 u t_max; rounding
    lambda_k t in synthesize_f and in the block's two phase products adds
    3 u |lambda_k| t_max, so each term's phase is off by at most
    8 u |lambda_k| t_max.  The exponentials, the products with w_k and the two
    sums over the N levels add at most (sqrt(2) (N + log2 N) + 9) u sum_k |w_k|,
    less than 16 N u sum_k |w_k|.  The phase constant is doubled for the terms
    of second order.
    """
    levels = eig.values - h.vacuum_energy
    scale = 16.0 * float(np.max(np.abs(levels))) * t_max + 16.0 * levels.size
    return eig.transfer_bound * scale * 2.0**-53


class _Search:
    """One search on a solved chain: its grid, the objective value(t, f) there,
    and every time point at which f is evaluated, each counted once.

    The grid values of f come from _grid_f, within grid_error of synthesize_f,
    which gives f everywhere else.
    """

    def __init__(self, solved, value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 cfg: SearchConfig, *pieces: tuple[float, float]) -> None:
        self.solved, self.value = solved, value
        self.grid, grid_f = _grid_f(*solved, _time_grid(cfg, *pieces))
        self.values = value(self.grid, grid_f)
        self.grid_error = _grid_error(*solved, cfg.t_max)
        self.count = self.grid.size

    def f(self, t, solved=None):
        """f at time(s) t on the searched chain, or on solved if given."""
        self.count += np.size(t)
        return synthesize_f(*(solved or self.solved), t)

    def objective(self, t: np.ndarray) -> np.ndarray:
        return self.value(t, self.f(t))

    def result(self, best_t: float, bracket: tuple[float, float], best_field: float | None = None,
               solved=None) -> OptimizationResult:
        """The result at best_t, its values from f on solved if given."""
        f = self.f(best_t, solved)
        rep = fidelity.fidelity_report(best_t, f)
        return OptimizationResult(
            best_t=best_t,
            best_field=best_field,
            fbar=rep.fbar,
            fbar_corrected=rep.fbar_corrected,
            abs_f=abs(f),
            evaluations=self.count,
            bracket=bracket,
        )


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
    # np.hypot is bit for bit Python's abs(complex)
    search = _Search(solved, lambda t, f: np.hypot(f.real, f.imag), cfg,
                     (cfg.t_max, _level_spread(*solved)))
    peaks = _interior_peaks(search.values)
    peaks = peaks[search.values[peaks] > _PEAK_FLOOR]
    grid = search.grid
    refined = _refine_brackets(search.objective, grid[peaks - 1], grid[peaks + 1], cfg)
    return sorted(((t, val) for t, val, _ in refined), key=lambda pair: pair[0])


def _global_max(objective: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                values: np.ndarray, grid_error: float,
                cfg: SearchConfig) -> tuple[float, tuple[float, float]]:
    """Time and bracket of the earliest candidate within _TIE_TOL of the largest.

    values are the objective's values on grid, from an f within grid_error of
    synthesize_f's; objective gives every other value.  The candidates are
    both ends of the grid and the refined brackets around both end intervals
    and every interior peak.  No point of a bracket lies more than _MAX_RISE
    above the bracket's grid peak, and a fidelity objective moves by at most
    2/3 of a change in f, so a bracket whose peak plus _MAX_RISE plus
    2 * (2/3) * grid_error (its own grid values and best may each be off by
    (2/3) * grid_error) stays below best - 2 * _TIE_TOL is never refined: even
    with round-off its value cannot come within _TIE_TOL of best.  best is
    first the largest grid value, then the largest candidate value; should
    the refined values fall short of the grid, the brackets the lower best
    admits are refined in a second pass.
    """
    peaks = _interior_peaks(values)
    los = np.concatenate([[0, grid.size - 2], peaks - 1])
    his = np.concatenate([[1, grid.size - 1], peaks + 1])
    margin = _MAX_RISE + 2.0 * (2.0 / 3.0) * grid_error
    bound = np.concatenate([[values[:2].max(), values[-2:].max()], values[peaks]]) + margin
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
    search = _Search(solved, lambda t, f: fidelity.average_fidelities(f, corrected), cfg,
                     (cfg.t_max, _level_spread(*solved)))
    best_t, bracket = _global_max(search.objective, search.grid, search.values,
                                  search.grid_error, cfg)
    return search.result(best_t, bracket)


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

    def tuned(t, f):
        """Best field at time(s) t, given f at B_c there, and f at that field."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # t = 0 keeps B_c;
            # an angle over a tiny t overflows to +-inf, which the clip takes to a box edge
            b = np.clip(np.where(t > 0.0, b_c - np.angle(f) / t, b_c), b_lo, b_hi)
        return b, f * np.exp(1j * (b - b_c) * t)

    t_aligned, levels = min(cfg.t_max, 2.0 * math.pi / (b_hi - b_lo)), solved[1].values
    search = _Search(solved, lambda t, f: fidelity.average_fidelities(tuned(t, f)[1]), cfg,
                     (t_aligned, _level_spread(*solved) + (b_hi - b_lo) / 2.0),
                     (cfg.t_max, float(levels[-1]) - float(levels[0])))
    best_t, bracket = _global_max(search.objective, search.grid, search.values,
                                  search.grid_error, cfg)
    best_b = float(tuned(best_t, search.f(best_t))[0])
    return search.result(best_t, bracket, best_b, solve(base.with_uniform_field(best_b)))
