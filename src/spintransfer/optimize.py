"""Deterministic search for critical times, peak fidelities, and tuned fields.

Every search builds one _Search on the Spectrum that excitation.solve returns:
the levels and weights of f and their widths, no eigenvector.  _time_grid splits
[0, t_max] into (start, end, steps) pieces, each spaced at pi / (10 * Omega)
for an Omega that bounds the objective's curvature there, h'' >= -Omega^2 / 3:
the spread of the levels for critical_times, which must resolve every peak of
|f|, and for the fidelity searches the smaller Omega_eff of _effective_spread,
which weighs each level by |w_k|.  That coarse grid bounds how far the
objective rises between two of its points, but where f is weak a whole peak
can lie between them, so the fidelity searches then resample every interval
that may hold a value near the best for the piece's bound on every frequency
(the spread, or for the tuned search max(max |lambda_k| + W / 2, band) and
then the band; _Search.near_best), and form their brackets on the merged
samples.  Every sample of f, on the grid (excitation._grid_f) and near the
best (excitation._block_f), comes from block products, one complex
exponential per level for each block of 64 points, within _grid_error of
synthesize_f's, which the pruning margin allows for; every value of f refined
or reported comes from excitation._f_slopes, with synthesize_f's bits, and
the search counts each time point it visits once.  Candidate brackets are
refined by safeguarded Newton steps on the objective's slope, in lockstep:
each pass evaluates the current time of every open bracket in one call of
_f_slopes, which gives f with its first two derivatives, and the objective's
own two derivatives follow in closed form (_slopes); each bracket visits the
times a search on it alone would.  The step's position comes from the slope, so
it is exact where the values tie to round-off on a flat top.  critical_times
refines every peak of |f|, and the last interval where |f| rises into
t_max.  The fidelity searches skip a bracket whose grid peak plus _MAX_RISE, a
bound on how far the objective can rise between grid points, plus twice the
grid values' error stays more than 2 * _TIE_TOL below the best value found: it
can neither win nor tie.  No randomness is used anywhere; identical inputs give
identical results, and the winner is the earliest candidate within _TIE_TOL of
the largest.  Field tuning searches t alone: a uniform field b only rotates the
phase of f, f(t, b) = f(t, 0) e^{ibt}, so the best field at each t is known,
the grid is finer only while the field box cannot align every phase, and the
report turns f at best_t by that field's phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fidelity
from .chain import ChainSpec, NonFiniteError, _finite, _finites
from .excitation import Spectrum, _GRID_BLOCK, _block_f, _f_slopes, _grid_error, _grid_f, solve

__all__ = [
    "GridBudgetError",
    "SearchConfig",
    "OptimizationResult",
    "critical_times",
    "maximize_fidelity",
    "tune_uniform_field",
]

# Peaks of |f| below this are indistinguishable from a dead channel.
_PEAK_FLOOR = 1e-12

# Two candidate maxima whose objectives differ by less than this are treated
# as tied, and the earlier time wins.
_TIE_TOL = 1e-12

# How far a fidelity objective can rise above the larger of two neighbouring
# grid values.  On each piece of _time_grid it is the sup, over a family
# (plain Fbar: theta = 0; corrected: every theta; tuned: every field of the
# box), of h = 1/2 + Re(e^{i theta} g) / 3 + |g|^2 / 6 with g = sum_k w_k
# e^{-i nu_k t}.  Two bounds give each member h'' >= -Omega^2 / 3, with Omega
# the frequency the piece is spaced for.  The spread: h lies in [1/3, 1] on
# all of R (sum_k |w_k| <= 1; its least value, at Re(e^{i theta} g) = -|g|,
# falls with |g| to 1/3 at |g| = 1) and its frequencies are at most the
# spread, so Bernstein's inequality on h - 2/3 gives |h''| <= spread^2 / 3.
# The moments (_effective_spread): with S = sum_k |w_k| and M2 = sum_k |w_k|
# nu_k^2, |g| <= S, |g''| <= M2 and |g'|^2 <= S M2, so |Re(e^{i theta} g)''|
# <= M2 and |(|g|^2)''| = |2 |g'|^2 + 2 Re(conj(g) g'')| <= 4 S M2, and
# |h''| <= M2 (1 + 2 S) / 3.  A sup of functions with h'' >= -Omega^2 / 3 has
# it too (h + Omega^2 t^2 / 6 is a sup of convex functions), so over a step of
# at most pi / (10 Omega) the maximum exceeds the larger end by at most
# Omega^2 step^2 / 24.
_MAX_RISE = (1.0 / 3.0) * (math.pi / 10.0) ** 2 / 8.0

# Most points a search samples, coarse and fine (the benchmark's largest coarse grid at
# seeds 1-5: 3 899 points, on a preset; its engineered chains 916-2 952).
_MAX_GRID_POINTS = 2**20

# Fewest steps of the coarse grid on [0, t_max].  On short horizons its grid is already finer
# than pi / (10 Omega), so no interval is resampled: its block products cost less time than
# the fine level and the extra refine passes of a coarser grid (ROADMAP, "Measured and parked").
_SAMPLE_FLOOR = 256

# Objective evaluations per refined bracket, at most.
_MAX_REFINE_ITERS = 200


class GridBudgetError(ValueError):
    """A search on [0, t_max] would sample more than _MAX_GRID_POINTS times.

    needs says what it would sample.  horizon, where given, is the longest
    t_max found to fit, 0.0 where none does (the spread of the levels or the
    field box overflows), and the message ends with it.
    """

    def __init__(self, needs: str, horizon: float | None = None) -> None:
        self.needs, self.horizon = needs, horizon
        if horizon is not None:
            needs += (f"; lower t_max to at most {horizon!r}" if horizon > 0.0
                      else "; the spread of the levels or the field box overflows")
        super().__init__(needs)


@dataclass(frozen=True)
class SearchConfig:
    """Search horizon.

    t_max follows the chain's number rule (_finite), is stored as a float and
    must be positive, with t_max / _SAMPLE_FLOOR above 0; inf raises
    GridBudgetError.  refine_tol = 1e-10 t_max is
    subnormal below t_max = 2^-1022 / 1e-10, about 2.2251e-298, at no cost:
    a converged Newton step is 0, within any tolerance.  The corrected
    sec3-two-spin at J = 2B = 2^k and t_max = 30 / 2^k keeps the bits of k = 0
    through k = 1023, and its tuned search with the box (-0.7, 1.3) 2^k through
    1022 (at 1023 the box is 2^1024 wide); the bracket, best_t -+ refine_tol,
    moves by an ulp from k = 1020 with the bits the subnormal tolerance loses.
    """

    t_max: float

    def __post_init__(self) -> None:
        try:
            t_max = _finite(self.t_max, "t_max")
        except NonFiniteError as refusal:  # no grid of finitely many points covers inf
            raise GridBudgetError(str(refusal)) if self.t_max == math.inf else refusal from None
        if not t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {t_max!r}")
        object.__setattr__(self, "t_max", t_max)
        if t_max / _SAMPLE_FLOOR == 0.0:
            raise ValueError(f"t_max = {t_max!r} is too small for {_SAMPLE_FLOOR} samples: "
                             f"their spacing underflows to 0")

    @property
    def refine_tol(self) -> float:
        """Tolerance on the time at which refinement stops."""
        return 1e-10 * self.t_max


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found, its fidelities, and search diagnostics.

    evaluations is the number of time points the search visited, each
    counted once: the grid, the Newton path of every refined bracket, and
    best_t.  Pruned brackets are never refined and add nothing.  Every search
    solves its chain once and reports the value it maximised, bit for bit.
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

    pieces are (t_end, Omega), t_end ascending, the last at or past t_max,
    with Omega the frequency that bounds the objective's curvature there (the spread, or
    _effective_spread's Omega_eff); each is sampled at spacing at most
    min(t_max / _SAMPLE_FLOOR, _spacing(Omega)).  Over the budget,
    GridBudgetError before any grid is built, its horizon the longest whose
    own grid fits: its pieces cut at that horizon, each at its own spacing
    there.  The step count grows with the horizon, so bisection finds it.
    """
    def grid(t_max: float) -> tuple[list[float], list[float], bool]:
        """Piece ends and steps on [0, t_max], and whether they fit the budget."""
        floor = t_max / _SAMPLE_FLOOR
        ends = [0.0] + [min(t_end, t_max) for t_end, _ in pieces]
        spacings = [min(floor, _spacing(s)) for _, s in pieces]
        # a spacing is 0 where the spread overflowed, or where floor underflowed
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
        raise GridBudgetError(f"t_max = {cfg.t_max!r} needs {sum(steps) + 1:.4g} grid points "
                              f"(limit {_MAX_GRID_POINTS})", lo)
    return [(lo, hi, math.ceil(n)) for lo, hi, n in zip(ends, ends[1:], steps) if n > 0.0]


def _spacing(omega: float) -> float:
    """pi / (10 omega), the grid spacing for the frequency omega; inf for omega 0."""
    if not omega > 0.0:
        return math.inf
    return math.pi / (10.0 * omega) or math.pi / 10.0 / omega  # where 10 omega overflows


def _effective_spread(spectrum: Spectrum, spread: float,
                      centres: tuple[float, ...] | None = None) -> float:
    """Omega_eff = min(spread, sqrt(M2 (1 + 2 S))), which bounds a fidelity
    objective's curvature as the spread does (see _MAX_RISE).

    S = sum_k |w_k| and M2 = sum_k |w_k| nu_k^2, nu_k = lambda_k - c, at the c
    of centres that gives the larger M2, or at the |w|-weighted mean of the
    levels (which minimises M2) for centres None.  The moments are formed on
    nu / spread, within [-1, 1], and multiplied back by spread, so they do not
    overflow and power-of-two scaling keeps their bits.  A spread of 0 or inf
    is returned as it is.
    """
    if not 0.0 < spread < math.inf:
        return spread
    x, w, s = spectrum.levels / spread, np.abs(spectrum.weights), spectrum.transfer_bound
    if centres is None:  # S = 0: f is 0, and so is M2 about any centre
        shifts = [float((w * x).sum()) / s if s > 0.0 else 0.0]
    else:
        shifts = [c / spread for c in centres]
    m2 = max(float((w * (x - c) ** 2).sum()) for c in shifts)
    return spread * min(1.0, math.sqrt(m2 * (1.0 + 2.0 * s)))


class _Search:
    """One search on a chain's spectrum: its grid, the objective there, and
    every time point at which f is evaluated, each counted once.

    objective(t, f) gives the objective's values at times t from f there, and
    objective(t, f, (f1, f2)), with f1 and f2 the first two derivatives of f in
    tau = scale * t, also positive multiples of its own (_slopes).  pieces are
    (t_end, Omega, Omega_eff), t_end ascending, the last at or past t_max:
    Omega bounds every frequency of the objective there and Omega_eff its
    curvature.  The grid is spaced for Omega_eff (_time_grid); splits, each grid
    piece's steps of at most _spacing(Omega) per interval (inf on overflow), is
    formed once; scale is the power of two in (s / 2, s] for the largest Omega s.
    Where sum_k |w_k| = 0, f is 0 and the objective constant, so every Omega is
    0: _SAMPLE_FLOOR steps at any horizon, none split.  Every sample of f comes from block
    products within grid_error of synthesize_f, and every refined or reported one from _f_slopes.
    """

    def __init__(self, spectrum: Spectrum, objective: Callable, cfg: SearchConfig,
                 *pieces: tuple[float, float, float]) -> None:
        self.spectrum, self.objective, self.t_max = spectrum, objective, cfg.t_max
        if spectrum.transfer_bound == 0.0:
            pieces = tuple((t_end, 0.0, 0.0) for t_end, _, _ in pieces)
        self.pieces = _time_grid(cfg, *((t_end, omega_eff) for t_end, _, omega_eff in pieces))
        # a grid piece takes the Omega of the first piece that reaches its end
        self.splits = [max(1.0, float(np.ceil((end - start) / steps / _spacing(
            next(omega for t_end, omega, _ in pieces if t_end >= end)))))
            for start, end, steps in self.pieces]
        self.grid, grid_f = _grid_f(spectrum, self.pieces)
        self.values = objective(self.grid, grid_f)
        self.grid_error = _grid_error(spectrum, cfg.t_max)
        self.scale = math.ldexp(0.5, math.frexp(max(omega for _, omega, _ in pieces))[1])
        self.count = self.grid.size

    def near_best(self) -> list[tuple[np.ndarray, float, float]]:
        """The fidelity grid's intervals that may hold a value near its best, each with the
        count of steps of at most _spacing(Omega) that split it: (intervals, step, splits)
        for each piece of the grid spaced wider than its Omega.

        On an interval [a, b] with end values u and v, h'' >= -c keeps h below the
        chord plus c (t - a)(b - t) / 2, whose top is (u + v) / 2 + R + (u - v)^2 / (16 R)
        while |u - v| < 4 R and max(u, v) from there, with R = c (b - a)^2 / 8 at most
        _MAX_RISE (see _global_max); an interval is near where that top plus twice
        the grid values' error reaches the largest grid value less 2 * _TIE_TOL.  The
        samples each interval adds, splits - 1 where near and else 0, are counted once, in
        added; past _MAX_GRID_POINTS in all, GridBudgetError with the horizon where the
        points up to each grid point, coarse and fine, reach the budget, by np.interp.
        Where no piece is spaced wider than its Omega (every split 1), [] at once: nothing
        can be split, and _time_grid has already fitted the grid to the budget.
        """
        if max(self.splits) <= 1.0:
            return []
        values, rise = self.values, _MAX_RISE
        floor = values.max() - 2.0 * _TIE_TOL - 2.0 * (2.0 / 3.0) * self.grid_error
        # the top, max(u, v) + R (1 - |u - v| / (4 R))^2 where |u - v| < 4 R, lies at most
        # R above max(u, v): only the intervals that reach floor - R so need it
        top = np.maximum(values[:-1], values[1:])
        at = np.flatnonzero(top >= floor - rise)
        lift = np.maximum(1.0 - np.abs(values[at] - values[at + 1]) / (4.0 * rise), 0.0)
        at, chosen, first = at[top[at] + rise * lift * lift >= floor], [], 0
        added = np.zeros(self.grid.size - 1)
        for (start, end, steps), splits in zip(self.pieces, self.splits):
            lo, hi = np.searchsorted(at, (first, first + steps))
            if splits > 1.0 and hi > lo:
                chosen.append((at[lo:hi], (end - start) / steps, splits))
                added[at[lo:hi]] = splits - 1.0
            first += steps
        if not self.grid.size + added.sum() <= _MAX_GRID_POINTS:
            reach = np.cumsum(np.concatenate([[1.0], added + 1.0]))  # points up to each grid point
            raise GridBudgetError(
                f"t_max = {self.t_max!r} needs {reach[-1]:.4g} samples (limit {_MAX_GRID_POINTS}): "
                f"{self.grid.size} on its grid and {reach[-1] - self.grid.size:.4g} more near its "
                f"best value", float(np.interp(_MAX_GRID_POINTS, reach, self.grid)))
        return chosen

    def resample(self, chosen: list[tuple[np.ndarray, float, float]]) -> None:
        """Split the intervals near_best chose, np.insert adding the new times and the
        objective there to grid and values.  f there comes from _block_f, within grid_error
        as _grid_f's: one complex exponential per level for every _GRID_BLOCK new times,
        and per piece for each of at most _GRID_BLOCK offsets."""
        if not chosen:
            return
        new = []
        for intervals, step, splits in chosen:
            n, dt = int(splits) - 1, step / splits
            t = self.grid[intervals, None] + dt * np.arange(1.0, n + 1.0)
            f = _block_f(self.spectrum, t[:, ::_GRID_BLOCK].ravel(), dt, min(n, _GRID_BLOCK))
            f = f.reshape(intervals.size, -1)[:, :n].ravel()
            new.append((np.repeat(intervals + 1, n), t.ravel(), f))  # before its interval's end
        at, t, f = (np.concatenate(column) for column in zip(*new))
        self.count += t.size
        self.grid = np.insert(self.grid, at, t)
        self.values = np.insert(self.values, at, self.objective(t, f))

    def slopes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The objective at times t, and positive multiples of its first two derivatives in tau."""
        self.count += t.size
        f, *df = _f_slopes(self.spectrum, t, self.scale)
        return self.objective(t, f, df)

    def result(self, best_t: float, bracket: tuple[float, float],
               tuned: Callable | None = None) -> OptimizationResult:
        """The result at best_t, from f there by _f_slopes as in the refine; tuned(t, f), where
        given, gives the best field and the phase it turns f by.  fbar, fbar_corrected and
        abs_f are fidelity_report's at best_t, bit for bit, from the same _checked_amplitudes
        and _average, with no phase and no report objects."""
        t, best_field = np.array([best_t]), None
        f = _f_slopes(self.spectrum, t, self.scale)[0]
        self.count += 1
        if tuned is not None:
            b, turn = tuned(t, f)
            f, best_field = f * turn, float(b[0])
        f, mag = fidelity._checked_amplitudes(f)
        return OptimizationResult(
            best_t=best_t,
            best_field=best_field,
            fbar=fidelity._average(f.real, mag)[0].item(),
            fbar_corrected=fidelity._average(mag, mag)[0].item(),
            abs_f=mag[0].item(),
            evaluations=self.count,
            bracket=bracket,
        )


@np.errstate(divide="ignore", invalid="ignore")  # |f| = 0: NaN, which stops a refine
def _slopes(f: np.ndarray, f1: np.ndarray, f2: np.ndarray, measure: str,
            ) -> tuple[np.ndarray, np.ndarray]:
    """h' and h'' for h = |f| ("abs"), and 3 h' and 3 h'' for h = Fbar ("plain") or
    the corrected Fbar ("corrected"), of f with the derivatives f1 and f2.

    With m = |f|, p = Re(conj(f) f1) = m m' and q = |f1|^2 + Re(conj(f) f2) =
    (m^2)'' / 2: m' = p / m and m'' = (q - m'^2) / m; 3 Fbar = 3/2 + Re f + m^2 / 2
    has 3 Fbar' = Re f1 + p and 3 Fbar'' = Re f2 + q; the corrected one, with m
    for Re f, has m' + p and m'' + q.
    """
    p = f.real * f1.real + f.imag * f1.imag
    q = f1.real * f1.real + f1.imag * f1.imag + f.real * f2.real + f.imag * f2.imag
    if measure == "plain":
        return f1.real + p, f2.real + q
    m = np.hypot(f.real, f.imag)
    dm = p / m
    ddm = (q - dm * dm) / m
    return (dm, ddm) if measure == "abs" else (dm + p, ddm + q)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # steps to +-inf leave the bracket
def _refine_brackets(
    slopes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    scale: float,
    los: np.ndarray,
    his: np.ndarray,
    cfg: SearchConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine every bracket [los[i], his[i]] at once; the arrays (t, value, lo, hi).

    slopes maps an array of times to the objective h there and positive
    multiples of h' and h'' in tau = scale * t (see _Search).  Each pass
    evaluates, in one call, the time x of every open bracket, first its
    midpoint, and keeps the bracket [a, b] by the sign of h'(x): a = x where
    h rises, b = x where it falls.  The next x is the Newton step
    x - h'(x) / h''(x), taken in tau (a step in t can be subnormal where t is
    not), where h''(x) < 0 and it lands inside (a, b).  Where it leaves the
    bracket, or h''(x) >= 0 and the step runs on toward the rise, the next x
    is the end it leaves through if that end was never evaluated (an end where
    h still rises then closes the bracket: a = b), and the midpoint of [a, b]
    otherwise.  A bracket stops when its next step is at most refine_tol (a
    closed bracket's is 0, and so is that of an x where h' is 0 or NaN) or after
    _MAX_REFINE_ITERS evaluations; it returns its last evaluated time t and
    value, since on a flat top the values tie to round-off and only the slope
    places the maximum, and the bracket [lo, hi], t -+ refine_tol within
    [los[i], his[i]].  All the arithmetic is elementwise, so each bracket
    visits the times of a search on it alone, and slopes must give a time the
    same values in an array of any length, as _f_slopes and the searches'
    objectives do.
    """
    lo, hi = np.array(los, dtype=float), np.array(his, dtype=float)
    tol, idx = cfg.refine_tol, np.arange(lo.size)
    a, b, x = lo, hi, lo + (hi - lo) / 2.0
    unseen_a = unseen_b = np.ones(lo.size, dtype=bool)
    t, value = x.copy(), np.empty(lo.size)
    for _ in range(_MAX_REFINE_ITERS):
        value[idx], d1, d2 = slopes(x)
        t[idx] = x
        up, down = d1 > 0.0, d1 < 0.0
        a, b = np.where(up, x, a), np.where(down, x, b)
        unseen_a, unseen_b = unseen_a & ~up, unseen_b & ~down
        step = np.where(d2 < 0.0, -(d1 / d2), np.where(up, math.inf, -math.inf))
        step[~(up | down)] = 0.0
        nxt, mid = (x * scale + step) / scale, a + (b - a) / 2.0
        nxt = np.where(up & ~(nxt < b), np.where(unseen_b, b, mid), nxt)
        nxt = np.where(down & ~(nxt > a), np.where(unseen_a, a, mid), nxt)
        go = np.abs(nxt - x) > tol
        if go.all():
            x = nxt
        elif go.any():
            idx, a, b, unseen_a, unseen_b, x = (v[go] for v in (idx, a, b, unseen_a, unseen_b, nxt))
        else:
            break
    return t, value, np.maximum(lo, t - tol), np.minimum(hi, t + tol)


def _interior_peaks(values: np.ndarray) -> np.ndarray:
    """Indices i with values[i] >= both neighbours and > at least one of them."""
    left, mid, right = values[:-2], values[1:-1], values[2:]
    return 1 + np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))


def critical_times(spec: ChainSpec, cfg: SearchConfig) -> list[tuple[float, float]]:
    """Local maxima of |f(t)| on [0, t_max), refined, ascending in t.

    |f| still rising at t_max gives no maximum there.  Returns an empty list,
    at any horizon, when the channel is dead: sum_k |w_k| = 0, so f is 0, as
    with a zero coupling.
    """
    spectrum = solve(spec)

    def magnitude(t, f, df=None):
        mag = np.hypot(f.real, f.imag)  # bit for bit Python's abs(complex)
        return mag if df is None else (mag, *_slopes(f, *df, "abs"))

    search = _Search(spectrum, magnitude, cfg, (cfg.t_max, spectrum.spread, spectrum.spread))
    grid, values = search.grid, search.values
    last = grid.size - 1
    peaks = _interior_peaks(values)
    if values[last] > values[last - 1]:  # |f| rises into t_max: its last interval may hold a peak
        peaks = np.append(peaks, last)
    peaks = peaks[values[peaks] > _PEAK_FLOOR]
    t, value, _, _ = _refine_brackets(search.slopes, search.scale, grid[peaks - 1],
                                      grid[np.minimum(peaks + 1, last)], cfg)
    order = np.argsort(t, kind="stable")
    order = order[t[order] < cfg.t_max]  # still rising at t_max: no peak
    return list(zip(t[order].tolist(), value[order].tolist()))


def _global_max(search: _Search, cfg: SearchConfig) -> tuple[float, tuple[float, float]]:
    """Time and bracket of the earliest candidate within _TIE_TOL of the largest.

    search.values are the objective's values on search.grid, from block products
    within search.grid_error of synthesize_f's; search.slopes, by _f_slopes, gives
    every refined value.  The candidates are both ends of the grid and the refined brackets
    around both end intervals and every interior peak.  No point of a bracket
    lies more than _MAX_RISE above the bracket's grid peak, and a fidelity
    objective moves by at most 2/3 of a change in f, so a bracket whose peak
    plus _MAX_RISE plus 2 * (2/3) * grid_error (its own grid values and best
    may each be off by (2/3) * grid_error) stays below best - 2 * _TIE_TOL is
    never refined: even with round-off its value cannot come within _TIE_TOL
    of best.  best is first the largest grid value, then the largest candidate
    value; should the refined values fall short of the grid, the brackets the
    lower best admits are refined in a second pass.
    """
    grid, values = search.grid, search.values
    peaks = _interior_peaks(values)
    los = np.concatenate([[0, grid.size - 2], peaks - 1])
    his = np.concatenate([[1, grid.size - 1], peaks + 1])
    margin = _MAX_RISE + 2.0 * (2.0 / 3.0) * search.grid_error
    bound = np.concatenate([[values[:2].max(), values[-2:].max()], values[peaks]]) + margin
    # rows t, value, lo and hi of the candidates: the grid's ends, each its own
    # bracket, then every bracket in index order, at value -inf until refined
    ends = np.array([0.0, cfg.t_max])
    candidates = np.concatenate([[ends, values[[0, -1]], ends, ends],
                                 np.full((4, los.size), -math.inf)], axis=1)
    unrefined, best = np.ones(los.size, dtype=bool), values.max()
    while (todo := np.flatnonzero(unrefined & (bound >= best - 2.0 * _TIE_TOL))).size:
        unrefined[todo] = False
        candidates[:, 2 + todo] = _refine_brackets(search.slopes, search.scale,
                                                   grid[los[todo]], grid[his[todo]], cfg)
        best = candidates[1].max()

    t, value, lo, hi = candidates
    tied = np.flatnonzero(value >= best - _TIE_TOL)
    won = tied[np.argmin(t[tied])]  # the first of the earliest
    return float(t[won]), (float(lo[won]), float(hi[won]))


def _fidelity_search(spectrum: Spectrum, objective: Callable, cfg: SearchConfig,
                     *pieces: tuple[float, float, float]) -> _Search:
    """A fidelity search's _Search, resampled near its best.

    pieces are _Search's (t_end, Omega, Omega_eff).  Over the budget,
    GridBudgetError with the advice of a horizon where the search fits: the
    refusal's own horizon, and while the search there is refused, that
    refusal's in turn; each try builds a grid within the budget.
    """
    def planned(t_max: float) -> tuple[_Search, list]:
        search = _Search(spectrum, objective, SearchConfig(t_max), *pieces)
        return search, search.near_best()

    try:
        search, chosen = planned(cfg.t_max)
    except GridBudgetError as refused:
        horizon = refused.horizon
        while horizon > 0.0:
            try:
                planned(horizon)
                break
            except GridBudgetError as again:
                horizon = again.horizon
        raise GridBudgetError(refused.needs, horizon) from None
    search.resample(chosen)
    return search


def maximize_fidelity(spec: ChainSpec, cfg: SearchConfig, corrected: bool = False) -> OptimizationResult:
    """Global maximum of the (plain or corrected) average fidelity on [0, t_max].

    The grid is spaced for _effective_spread's Omega_eff, with the moments
    about 0 for the plain Fbar (Re f turns at the levels themselves) and about
    the levels' weighted mean for the corrected one (|f| turns only at their
    differences); the intervals that may hold a value near the best are
    resampled for the spread.  Candidates are both endpoints and the brackets
    around both end intervals and every interior peak of the merged samples.
    A bracket is refined by safeguarded Newton steps (_refine_brackets) unless
    its peak plus _MAX_RISE stays more than 2 * _TIE_TOL below the best value
    (see _global_max).  The earliest candidate within _TIE_TOL of the largest
    wins.
    """
    spectrum = solve(spec)
    measure = "corrected" if corrected else "plain"

    def fbar(t, f, df=None):
        value = fidelity.average_fidelity(f, corrected)
        return value if df is None else (value, *_slopes(f, *df, measure))

    omega = _effective_spread(spectrum, spectrum.spread, None if corrected else (0.0,))
    search = _fidelity_search(spectrum, fbar, cfg, (cfg.t_max, spectrum.spread, omega))
    best_t, bracket = _global_max(search, cfg)
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
    is searched as in maximize_fidelity.  Up to t = 2 pi / W (W the box width)
    the objective is the sup over phi in [-W/2, W/2] of the plain Fbar of
    f e^{i phi t}, whose levels are lambda_k - phi: Re f turns at most at
    max |lambda_k| + W / 2 and |f|^2 at the band, and its grid is spaced for
    the larger of the two, and for the moments about the box edge phi = -+W/2 that
    gives the larger M2 (M2 is convex in phi).  From there on every phase is
    aligned and the objective, the corrected Fbar, oscillates only at
    differences of excitation levels: the band, and the moments about their
    weighted mean.  The report is the search's own f at best_t, turned by the
    chosen field's phase e^{i (B - B_c) t}, with no second solve.  b_range is
    (B_lo, B_hi) by the number rule (_finites), B_lo < B_hi, else ValueError.
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
        """Best field at time(s) t, given f at B_c there, and the phase e^{i (b - B_c) t} it adds."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # t = 0 keeps B_c;
            # an angle over a tiny t overflows to +-inf, which the clip takes to a box edge;
            # arctan2 is np.angle's own, and clip np.clip's, which keeps a zero edge's sign
            b = np.where(t > 0.0, b_c - np.arctan2(f.imag, f.real) / t, b_c).clip(b_lo, b_hi)
        return b, np.exp(1j * (b - b_c) * t)

    def fbar(t, f, df=None):
        """Inside the box the field aligns the phase: the corrected Fbar of f.  At an edge
        it is fixed: the plain Fbar of f e^{i phi t}, phi = b - B_c.  C^1 where they meet.
        f e^{i phi t} is formed once, and the turned derivatives and plain slopes only at
        the times whose field is on an edge: each time gets the bits of its own branch."""
        b, turn = tuned(t, f)
        f_turned = f * turn
        value = fidelity.average_fidelity(f_turned)
        if df is None:
            return value
        f1, f2 = df
        d1, d2 = _slopes(f, f1, f2, "corrected")
        edge = np.flatnonzero(~((b_lo < b) & (b < b_hi)))
        if edge.size:
            f, f1, f2, turn = f[edge], f1[edge], f2[edge], turn[edge]
            phi = (b[edge] - b_c) / search.scale  # phi per unit of tau
            d1[edge], d2[edge] = _slopes(f_turned[edge], (f1 + 1j * phi * f) * turn,
                                         (f2 + 2j * phi * f1 - phi * phi * f) * turn, "plain")
        return value, d1, d2

    t_aligned, half = min(cfg.t_max, 2.0 * math.pi / (b_hi - b_lo)), (b_hi - b_lo) / 2.0
    spread = max(float(np.max(np.abs(spectrum.levels))) + half, spectrum.band)
    search = _fidelity_search(
        spectrum, fbar, cfg, (t_aligned, spread, _effective_spread(spectrum, spread, (-half, half))),
        (cfg.t_max, spectrum.band, _effective_spread(spectrum, spectrum.band)))
    best_t, bracket = _global_max(search, cfg)
    return search.result(best_t, bracket, tuned)
