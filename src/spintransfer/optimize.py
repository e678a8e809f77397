"""Deterministic search for critical times, peak fidelities, and tuned fields.

Every search builds one _Search on the Spectrum that excitation.solve returns:
the levels and weights of f and their widths, no eigenvector.  _time_grid splits
[0, t_max] into (start, end, steps) pieces, each spaced for the spectral
spread it covers: the objective is a trigonometric polynomial whose
frequencies are level differences, so spacing pi / (10 * spread) cannot skip
an oscillation.  excitation._grid_f, the block-product route to f on evenly
spaced grids, gives the grid times and f there, one complex exponential per
level for each block of 64 points; these values lie within _grid_error of
synthesize_f's, which the pruning margin allows for; every other value of f,
refined or reported, comes from synthesize_f through the search, which counts
each time point it visits once.  Candidate brackets are refined by
golden-section search in lockstep: each pass takes, on every bracket still
open, the step whose branch is known and evaluates the new times in one array
synthesis, and each bracket visits the same times a search on it alone would.
While few brackets are open the same call also evaluates, for each bracket,
the candidate times of the next steps, one per outcome of the comparisons not
yet known, and those steps are read off the stored candidates; the
candidates never visited are the search's probes, not counted in
evaluations.  A step costs its share of an objective call plus a few Python
float operations per open bracket, whose ends, probes and values are Python
floats.  A final three-point parabolic correction sharpens each extremum past
the floating-point tie plateau that makes raw golden-section comparisons
uninformative on flat tops.  critical_times refines every peak of |f|.  The
fidelity searches skip a bracket whose grid peak plus _MAX_RISE, a bound on
how far the objective can rise between grid points, plus twice the grid
values' error stays more than 2 * _TIE_TOL below the best value found: it can
neither win nor tie.  Where the weighted levels are commensurate, so that
the objective has a period T to within _TIE_TOL / 4 on [0, t_max] (_period),
maximize_fidelity also skips every bracket that starts at or after T: it can
only tie an earlier one.  No randomness is used anywhere; identical inputs
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
from .chain import ChainSpec, NonFiniteError, _count, _finite, _finites
from .excitation import Spectrum, _grid_error, _grid_f, solve, synthesize_f

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

# Longest search grid (the benchmark's largest: 13 515-15 669 points; presets under 4 000).
_MAX_GRID_POINTS = 2**20

# Golden-section steps per bracket, at most.
_MAX_REFINE_ITERS = 200

# Most candidate times one lookahead call of the refine evaluates: with n
# brackets open it looks d steps ahead, the largest d with (2**d - 1) * n at
# most this; at d = 1 the step alone, no tree.  On a 2-core x86-64 VM an
# objective call costs 8-27 us for one time and 10-31 us for 31, while a
# lookahead's Python work costs 0.2-0.7 us a candidate.  32 lets one bracket
# take 5 steps a call and keeps d = 1 from 11 open brackets on.  On the
# benchmark's optimize and tune-field inputs 16-64 were within 4 % of each
# other, 32 fastest; 8 and 128 were slower.
_LOOKAHEAD_PROBES = 32


class GridBudgetError(ValueError):
    """The search grid on [0, t_max] would hold more than _MAX_GRID_POINTS times."""


@dataclass(frozen=True)
class SearchConfig:
    """Search horizon and coarse-grid sample floor.

    t_max follows the chain's number rule (_finite), is stored as a float and
    must be positive; inf raises GridBudgetError.  n_samples is a count in
    [16, _MAX_GRID_POINTS - 2] (_count: ValueError below or for a
    non-integer, GridBudgetError above).  refine_tol = 1e-10 t_max is
    subnormal below t_max = 2^-1022 / 1e-10, about 2.2251e-298; there best_t
    loses its stated accuracy without a refusal (the corrected sec3-two-spin
    at J = 2B = 2^1020 and t_max = 30 / 2^1020: off by 6e-10 t_max).
    """

    t_max: float
    n_samples: int = 256

    def __post_init__(self) -> None:
        try:
            t_max = _finite(self.t_max, "t_max")
        except NonFiniteError as refusal:  # no grid of finitely many points covers inf
            raise GridBudgetError(str(refusal)) if self.t_max == math.inf else refusal from None
        if not t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {t_max!r}")
        object.__setattr__(self, "t_max", t_max)
        # 2 below the budget: rounding may give n_samples one more step
        _count(self.n_samples, "n_samples", 16, _MAX_GRID_POINTS - 2, ValueError, GridBudgetError)
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

    evaluations is the number of time points the search visited, each
    counted once: the grid, the golden-section path and the parabolic polish
    of every refined bracket, and best_t.  The candidate times of the
    refine's lookahead trees that no step visited are not counted (they are
    the search's probes); brackets that are never refined add nothing: the
    pruned ones and, in maximize_fidelity, those that start after the first
    period of a periodic objective.
    """

    best_t: float
    best_field: float | None
    fbar: float
    fbar_corrected: float
    abs_f: float
    evaluations: int
    bracket: tuple[float, float]


def _time_grid(cfg: SearchConfig, *pieces: tuple[float, float]) -> list[tuple[float, float, int]]:
    """(start, end, steps) pieces of a grid on [0, t_max], none of zero steps.

    pieces are (t_end, spread), t_end ascending to t_max; each is sampled at
    spacing at most min(t_max / n_samples, pi / (10 * spread)).  Over the
    budget, the hint is the longest horizon whose own grid fits: its pieces
    cut at that horizon, each at its own spacing there.  The step count grows
    with the horizon, so bisection finds it, and it is printed in full.
    """
    def grid(t_max: float) -> tuple[list[float], list[float], bool]:
        """Piece ends and steps on [0, t_max], and whether they fit the budget."""
        floor = t_max / cfg.n_samples
        ends = [0.0] + [min(t_end, t_max) for t_end, _ in pieces]
        spacings = [min(floor, math.pi / (10.0 * s) or math.pi / 10.0 / s) if s > 0.0 else floor
                    for _, s in pieces]  # pi / 10 / s where 10 s overflows (s past 1.8e307)
        # s is 0 where the spread overflowed, or where floor underflowed
        steps = [(hi - lo) / s if s > 0.0 else math.inf
                 for lo, hi, s in zip(ends, ends[1:], spacings)]
        # the grid holds sum(ceil(steps)) + 1 points; the sum may be inf
        return ends, steps, (sum(steps) < _MAX_GRID_POINTS
                             and sum(map(math.ceil, steps)) < _MAX_GRID_POINTS)

    ends, steps, fits = grid(cfg.t_max)
    if not fits:
        lo, hi = 0.0, cfg.t_max  # lo fits (or is 0), hi does not
        while lo < (mid := lo + (hi - lo) / 2.0) < hi:
            lo, hi = (mid, hi) if grid(mid)[2] else (lo, mid)
        hint = (f"lower t_max to at most {lo!r}" if lo > 0.0
                else "the spread of the levels or the field box overflows")
        raise GridBudgetError(f"t_max = {cfg.t_max!r} needs {sum(steps) + 1:.4g} grid points "
                              f"(limit {_MAX_GRID_POINTS}); {hint}")
    return [(lo, hi, math.ceil(n)) for lo, hi, n in zip(ends, ends[1:], steps) if n > 0.0]


class _Search:
    """One search on a chain's spectrum: its grid, the objective value(t, f)
    there, and every time point at which f is evaluated, each counted once.

    The grid values of f come from _grid_f, within grid_error of synthesize_f,
    which gives f everywhere else.
    """

    def __init__(self, spectrum: Spectrum, value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 cfg: SearchConfig, *pieces: tuple[float, float]) -> None:
        self.spectrum, self.value = spectrum, value
        self.grid, grid_f = _grid_f(spectrum, _time_grid(cfg, *pieces))
        self.values = value(self.grid, grid_f)
        self.grid_error = _grid_error(spectrum, cfg.t_max)
        self.count, self.probes = self.grid.size, 0

    def f(self, t, spectrum: Spectrum | None = None):
        """f at time(s) t on the searched chain, or on spectrum if given."""
        self.count += np.size(t)
        return synthesize_f(spectrum or self.spectrum, t)

    def objective(self, t: np.ndarray) -> np.ndarray:
        return self.value(t, self.f(t))

    def discard(self, n: int) -> None:
        """Move n evaluated times, tree candidates no refine step visited, from count to probes."""
        self.count, self.probes = self.count - n, self.probes + n

    def result(self, best_t: float, bracket: tuple[float, float], best_field: float | None = None,
               spectrum: Spectrum | None = None) -> OptimizationResult:
        """The result at best_t, its values from f on spectrum if given."""
        rep = fidelity.fidelity_report(best_t, self.f(best_t, spectrum))
        return OptimizationResult(
            best_t=best_t,
            best_field=best_field,
            fbar=rep.fbar,
            fbar_corrected=rep.fbar_corrected,
            abs_f=rep.abs_f,
            evaluations=self.count,
            bracket=bracket,
        )


def _refine_brackets(
    objective: Callable[[np.ndarray], np.ndarray],
    los: np.ndarray,
    his: np.ndarray,
    cfg: SearchConfig,
    discard: Callable[[int], object] = lambda n: None,
) -> list[tuple[float, float, tuple[float, float]]]:
    """Refine every bracket [los[i], his[i]] at once; (t, value, bracket) for each.

    objective maps an array of times to an array of values.  Golden-section
    steps run on all brackets in lockstep, on every bracket still wider than
    refine_tol, for at most _MAX_REFINE_ITERS steps.  Each pass takes, on
    every open bracket, the step whose branch is known (f1 > f2).  With n
    brackets open a pass covers d steps, the largest d with (2**d - 1) * n at
    most _LOOKAHEAD_PROBES, capped by the steps left.  At d >= 2 the pass also
    builds, from each bracket's state after that step, the tree of the d - 1
    steps below it: node 0 is that state, and node k's children are 2k + 1
    (keep [a, x2]) and 2k + 2 (keep [x1, b]), 2**d - 2 candidate times in
    all.  One objective call evaluates the new times and the candidates; each
    tree is replayed on the returned values by reading its stored nodes, up
    to a node no wider than refine_tol, and discard is told how many
    candidates no step visited.  At d = 1 no tree is built.  Each bracket's a,
    b, x1, x2, f1, f2 are Python floats, whose IEEE arithmetic is that of
    float64 array elements, and objective must give a time the same value in
    an array of any length, as synthesize_f and the searches' objectives do.
    One three-point parabolic step of width h then polishes every bracket
    wider than 2h: golden-section stalls once objective differences drop
    below the resolution of a flat top, and a stencil wide enough to see real
    curvature places the vertex far better.  Each bracket visits the times,
    and takes the branches, of a search on it alone.
    """
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    tol = cfg.refine_tol
    a, b = los.tolist(), his.tolist()
    x1 = [hi - _GOLDEN * (hi - lo) for lo, hi in zip(a, b)]
    x2 = [lo + _GOLDEN * (hi - lo) for lo, hi in zip(a, b)]
    f12 = objective(np.array(x1 + x2)).tolist()
    f1, f2 = f12[:len(a)], f12[len(a):]
    active, steps = range(len(a)), 0
    while steps < _MAX_REFINE_ITERS:
        active = [i for i in active if b[i] - a[i] > tol]
        if not active:
            break
        depth = min(max(1, (_LOOKAHEAD_PROBES // len(active) + 1).bit_length() - 1),
                    _MAX_REFINE_ITERS - steps)
        steps += depth
        size, times, nodes, filled = 2**depth - 1, [], [], []
        for i in active:  # the step whose branch is known
            if f1[i] > f2[i]:  # keep [a, x2]
                b[i], x2[i], f2[i] = x2[i], x1[i], f1[i]
                x1[i] = t = b[i] - _GOLDEN * (b[i] - a[i])
                filled.append(f1)
            else:  # keep [x1, b]
                a[i], x1[i], f1[i] = x1[i], x2[i], f2[i]
                x2[i] = t = a[i] + _GOLDEN * (b[i] - a[i])
                filled.append(f2)
            times.append(t)
            if size > 1:  # the tree of the depth - 1 steps below it
                base = len(nodes)
                nodes.append((a[i], b[i], x1[i], x2[i]))
                for k in range(base, base + size // 2):  # the nodes with children
                    lo, hi, p1, p2 = nodes[k]
                    left, right = p2 - _GOLDEN * (p2 - lo), p1 + _GOLDEN * (hi - p1)
                    nodes += (lo, p2, left, p1), (p1, hi, p2, right)
                    times += left, right
        values = objective(np.array(times)).tolist()
        for f, i, value in zip(filled, active, values[::size]):
            f[i] = value
        if size == 1:
            continue
        visited = 0
        for base, i in zip(range(0, len(values), size), active):  # replay each tree
            k, v1, v2 = 0, f1[i], f2[i]
            for _ in range(depth - 1):
                node = nodes[base + k]
                if not node[1] - node[0] > tol:
                    break
                if v1 > v2:  # keep [a, x2]
                    k, v2 = 2 * k + 1, v1
                    v1 = values[base + k]
                else:  # keep [x1, b]
                    k, v1 = 2 * k + 2, v2
                    v2 = values[base + k]
                visited += 1
            a[i], b[i], x1[i], x2[i] = nodes[base + k]
            f1[i], f2[i] = v1, v2
        discard(len(values) - len(active) - visited)
    first = np.greater(f1, f2)
    x, val = np.where(first, x1, x2), np.where(first, f1, f2)

    h = max(1e4 * tol, 1e-6 * cfg.t_max)
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

    brackets = zip(np.maximum(los, x - tol).tolist(), np.minimum(his, x + tol).tolist())
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
    spectrum = solve(spec)
    # np.hypot is bit for bit Python's abs(complex)
    search = _Search(spectrum, lambda t, f: np.hypot(f.real, f.imag), cfg,
                     (cfg.t_max, spectrum.spread))
    peaks = _interior_peaks(search.values)
    peaks = peaks[search.values[peaks] > _PEAK_FLOOR]
    grid = search.grid
    refined = _refine_brackets(search.objective, grid[peaks - 1], grid[peaks + 1], cfg,
                               discard=search.discard)
    return sorted(((t, val) for t, val, _ in refined), key=lambda pair: pair[0])


def _period(spectrum: Spectrum, corrected: bool, t_max: float) -> float:
    """A period T of the fidelity objective on [0, t_max], or inf where none is found.

    The objective is a function of g(t) = sum_k w_k e^{-i lambda_k t} over the
    weighted levels (w_k != 0): the corrected one of |g| alone, so level
    differences suffice; the plain one of Re g too, so the vacuum level 0
    joins them.  omega is the least of their gaps that exceeds pi / t_max (a
    smaller one, say the round-off residue of a level equal to the vacuum's,
    is left to the drift test), n_k = round(d_k / omega) for each offset d_k
    from the lowest, omega is refitted to every d_k by least squares, and
    T = 2 pi / omega.  A shift by m T <= t_max moves
    each phase d_k t by 2 pi n_k m plus r_k m T, r_k = d_k - n_k omega, so with
    S = transfer_bound and r = max |r_k| it changes |g| by at most S r t_max
    and g, the vacuum's phase included, by at most 2 S r t_max.  A fidelity
    moves by at most 2/3 of a change in g, so the objective moves by at most
    (2/3) S r t_max corrected and (4/3) S r t_max plain, both below drift =
    2 S r t_max, and T is returned only when drift <= _TIE_TOL / 4.  Two
    levels have r = 0.  inf is returned where the test fails, and where no gap
    exceeds pi / t_max: T could not fall below t_max (the refitted omega is at
    most 1.5 gaps), which also keeps every n_k small.
    """
    levels = {lam for lam, w in zip(spectrum.levels.tolist(), spectrum.weights.tolist()) if w}
    levels = sorted(levels if corrected else levels | {0.0})
    gap = min((b - a for a, b in zip(levels, levels[1:]) if (b - a) * t_max > math.pi), default=0)
    if not gap:
        return math.inf
    offsets = [lam - levels[0] for lam in levels[1:]]
    n = [round(d / gap) for d in offsets]
    omega = sum(k * d for k, d in zip(n, offsets)) / sum(k * k for k in n)
    residual = max(abs(d - k * omega) for k, d in zip(n, offsets))
    drift = 2.0 * spectrum.transfer_bound * residual * t_max
    return 2.0 * math.pi / omega if drift <= _TIE_TOL / 4.0 else math.inf


def _global_max(objective: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
                values: np.ndarray, grid_error: float, cfg: SearchConfig,
                discard: Callable[[int], object] = lambda n: None, period: float = math.inf,
                ) -> tuple[float, tuple[float, float]]:
    """Time and bracket of the earliest candidate within _TIE_TOL of the largest.

    values are the objective's values on grid, from an f within grid_error of
    synthesize_f's; objective gives every other value.  The candidates are
    both ends of the grid and the refined brackets around both end intervals
    and every interior peak that start before period.  A bracket that starts
    at or after period covers a translate of an earlier stretch of the
    objective, moved by at most _period's drift, so it can only tie an
    earlier candidate, and the earliest tie wins; with the default inf every
    bracket is a candidate.  No point of a bracket lies more than _MAX_RISE
    above the bracket's grid peak, and a fidelity objective moves by at most
    2/3 of a change in f, so a bracket whose peak plus _MAX_RISE plus
    2 * (2/3) * grid_error (its own grid values and best may each be off by
    (2/3) * grid_error) stays below best - 2 * _TIE_TOL is never refined: even
    with round-off its value cannot come within _TIE_TOL of best.  best is
    first the largest grid value, then the largest candidate value; should
    the refined values fall short of the grid, the brackets the lower best
    admits are refined in a second pass.  discard is passed to _refine_brackets.
    """
    peaks = _interior_peaks(values)
    los = np.concatenate([[0, grid.size - 2], peaks - 1])
    his = np.concatenate([[1, grid.size - 1], peaks + 1])
    margin = _MAX_RISE + 2.0 * (2.0 / 3.0) * grid_error
    bound = np.concatenate([[values[:2].max(), values[-2:].max()], values[peaks]]) + margin
    ends = [(0.0, float(values[0]), (0.0, 0.0)),
            (cfg.t_max, float(values[-1]), (cfg.t_max, cfg.t_max))]
    first = grid[los] < period
    refined, best = {}, float(values.max())
    while True:
        todo = [i for i in np.flatnonzero(first & (bound >= best - 2.0 * _TIE_TOL)).tolist()
                if i not in refined]
        if not todo:
            break
        refined.update(zip(todo, _refine_brackets(objective, grid[los[todo]], grid[his[todo]],
                                                  cfg, discard=discard)))
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
    than 2 * _TIE_TOL below the best value (see _global_max).  Where the
    objective is periodic (_period), only the brackets that start within its
    first period are candidates.  The earliest candidate within _TIE_TOL of
    the largest wins.
    """
    spectrum = solve(spec)
    search = _Search(spectrum, lambda t, f: fidelity.average_fidelity(f, corrected), cfg,
                     (cfg.t_max, spectrum.spread))
    best_t, bracket = _global_max(search.objective, search.grid, search.values,
                                  search.grid_error, cfg, discard=search.discard,
                                  period=_period(spectrum, corrected, cfg.t_max))
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
    chain.  b_range is (B_lo, B_hi) by the number rule (_finites), B_lo < B_hi, else ValueError.
    """
    box = _finites(b_range, "the field box")
    if box.shape != (2,):
        raise ValueError(f"the field box must hold two numbers (B_lo, B_hi), got {box.size}")
    b_lo, b_hi = box.tolist()
    b_c = (b_lo + b_hi) / 2.0
    if not (b_lo < b_hi and math.isfinite(b_c)):
        raise ValueError(f"the field box needs B_lo < B_hi and a finite centre, got {b_lo, b_hi}")
    spectrum = solve(base.with_uniform_field(b_c))

    def tuned(t, f):
        """Best field at time(s) t, given f at B_c there, and f at that field."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # t = 0 keeps B_c;
            # an angle over a tiny t overflows to +-inf, which the clip takes to a box edge;
            # arctan2 is np.angle's own, and clip np.clip's, which keeps a zero edge's sign
            b = np.where(t > 0.0, b_c - np.arctan2(f.imag, f.real) / t, b_c).clip(b_lo, b_hi)
        return b, f * np.exp(1j * (b - b_c) * t)

    t_aligned = min(cfg.t_max, 2.0 * math.pi / (b_hi - b_lo))
    search = _Search(spectrum, lambda t, f: fidelity.average_fidelity(tuned(t, f)[1]), cfg,
                     (t_aligned, spectrum.spread + (b_hi - b_lo) / 2.0),
                     (cfg.t_max, spectrum.band))
    best_t, bracket = _global_max(search.objective, search.grid, search.values,
                                  search.grid_error, cfg, discard=search.discard)
    best_b = float(tuned(best_t, search.f(best_t))[0])
    return search.result(best_t, bracket, best_b, solve(base.with_uniform_field(best_b)))
