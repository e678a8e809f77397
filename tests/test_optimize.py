"""Critical-time search, fidelity maximization, field tuning."""

import gc
import math
import sys
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintransfer import excitation, fidelity, optimize
from spintransfer.chain import ChainSpec, SPIN_HALF, SPIN_ONE, SiteSpec, engineered_chain, preset
from spintransfer.closed_forms import (
    NotTunableError,
    PresetSystem,
    critical_field,
    zero_field_critical_time,
)
from spintransfer.excitation import eigensolve, reduce, solve, synthesize_f
from spintransfer.fidelity import average_fidelity, corrected_average_fidelity
from spintransfer.optimize import (
    GridBudgetError,
    SearchConfig,
    critical_times,
    maximize_fidelity,
    tune_uniform_field,
)

SQRT2 = math.sqrt(2.0)


def _dead_chain():
    return ChainSpec(
        sites=(SiteSpec(SPIN_HALF, 0.0), SiteSpec(SPIN_HALF, 0.0)), couplings=(0.0,)
    )


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(t_max=10.0)
        assert cfg.refine_tol == pytest.approx(1e-9, rel=1e-12)
        assert cfg.n_samples >= 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(t_max=0.0)
        with pytest.raises(ValueError):
            SearchConfig(t_max=1.0, n_samples=4)
        with pytest.raises(ValueError, match="t_max = 1e-322 is too small for 256 samples"):
            SearchConfig(t_max=1e-322)  # t_max / 256 underflows to 0
        for n_samples in (15, -1, 256.0, "256", None):  # below the range, or not an integer
            with pytest.raises(ValueError) as refused:
                SearchConfig(t_max=1.0, n_samples=n_samples)
            assert not isinstance(refused.value, GridBudgetError)

    @pytest.mark.parametrize("t_max", [
        "1", None, True, pytest.param(10**400, id="10**400"), math.nan, -1, 0, math.inf,
    ])
    def test_bad_horizon_is_a_one_line_value_error(self, t_max):
        # a ValueError subclass, so neither TypeError nor OverflowError
        with pytest.raises(ValueError) as refused:
            SearchConfig(t_max=t_max)
        assert "\n" not in str(refused.value) and len(str(refused.value)) < 80
        assert isinstance(refused.value, GridBudgetError) == (t_max == math.inf)

    def test_horizon_is_stored_as_a_float(self):
        for t_max in (3, np.float64(2.5), 1.5):
            cfg = SearchConfig(t_max=t_max)
            assert type(cfg.t_max) is float and cfg.t_max == t_max

    @pytest.mark.parametrize("k", [1, 500, 990])
    def test_power_of_two_scaling_keeps_every_bit(self, k):
        # J, B times c = 2^k and t_max over c: best_t over c, the same values and work
        c = 2.0**k
        cfg = SearchConfig(t_max=30.0)
        base = maximize_fidelity(preset("sec3-two-spin", 1.0, 0.5), cfg, corrected=True)
        res = maximize_fidelity(preset("sec3-two-spin", c, 0.5 * c),
                                SearchConfig(t_max=30.0 / c), corrected=True)
        assert res.best_t * c == base.best_t == 2.809925892405826
        assert tuple(end * c for end in res.bracket) == base.bracket
        assert (res.fbar, res.fbar_corrected, res.abs_f, res.evaluations) == (
            base.fbar, base.fbar_corrected, base.abs_f, base.evaluations)

    def test_refine_tol_turns_subnormal_between_2_to_the_990_and_1000(self):
        # below t_max = 2^-1022 / 1e-10 (about 2.2251e-298) best_t loses its stated
        # accuracy, with no refusal: the scaling above then breaks at k = 1000
        assert SearchConfig(t_max=30.0 / 2.0**990).refine_tol >= sys.float_info.min
        assert SearchConfig(t_max=30.0 / 2.0**1000).refine_tol < sys.float_info.min

    def test_sample_floor_range_is_inclusive(self):
        for n_samples in (16, np.int64(16), optimize._MAX_GRID_POINTS - 2,
                          np.int64(optimize._MAX_GRID_POINTS - 2)):
            assert SearchConfig(t_max=1.0, n_samples=n_samples).n_samples == n_samples


def _advised(refusal: GridBudgetError) -> float:
    """The horizon a grid-budget refusal advises."""
    return float(str(refusal).split("lower t_max to at most ")[1])


class TestGridBudget:
    """A grid longer than _MAX_GRID_POINTS is refused before it is allocated."""

    @pytest.mark.parametrize("search", [
        lambda spec, cfg: maximize_fidelity(spec, cfg),
        lambda spec, cfg: critical_times(spec, cfg),
        lambda spec, cfg: tune_uniform_field(spec, cfg, (0.0, 2.0)),
    ])
    def test_runaway_horizon_is_refused(self, refuse_alloc, search):
        refuse_alloc("linspace")
        spec = preset("sec2-two-spin", 1.0, 0.0)
        cfg = SearchConfig(t_max=1e9)
        h = reduce(spec)
        values, _ = eigensolve(h)
        spread = max(values[-1], h.vacuum_energy) - min(values[0], h.vacuum_energy)
        points = math.ceil(cfg.t_max * 10.0 * spread / math.pi) + 1
        assert points > 1000 * optimize._MAX_GRID_POINTS
        with pytest.raises(GridBudgetError, match="lower t_max to at most "):
            search(spec, cfg)

    @pytest.mark.parametrize("n_samples", [
        optimize._MAX_GRID_POINTS - 1, optimize._MAX_GRID_POINTS, 10**20,
        pytest.param(10**400, id="10**400"),  # beyond the floats: t_max / n_samples overflows
    ])
    def test_sample_floor_over_the_budget_is_refused_without_a_split_hint(self, refuse_alloc,
                                                                          n_samples):
        # every horizon takes n_samples steps or more, so no lower t_max can fit
        refuse_alloc("linspace")
        with pytest.raises(GridBudgetError) as refused:
            SearchConfig(t_max=1.0, n_samples=n_samples)
        shown = "a 1329-bit integer" if n_samples == 10**400 else str(n_samples)
        assert str(refused.value) == (f"n_samples must be an integer in "
                                      f"[16, {optimize._MAX_GRID_POINTS - 2}], got {shown}")

    @pytest.mark.parametrize("search", [
        lambda spec, cfg: maximize_fidelity(spec, cfg),
        lambda spec, cfg: maximize_fidelity(spec, cfg, corrected=True),
        lambda spec, cfg: tune_uniform_field(spec, cfg, (0.0, 2.0)),
    ], ids=["plain", "corrected", "tuned"])
    def test_advised_horizon_is_searched(self, monkeypatch, search):
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 200)
        spec = preset("sec2-two-spin", 1.0, 0.0)
        with pytest.raises(GridBudgetError) as refused:
            search(spec, SearchConfig(t_max=1e3, n_samples=16))
        advised = _advised(refused.value)
        assert 0.0 < advised < 1e3
        res = search(spec, SearchConfig(t_max=advised, n_samples=16))
        assert 0.0 <= res.best_t <= advised
        with pytest.raises(GridBudgetError):  # the advice is the longest horizon that fits
            search(spec, SearchConfig(t_max=1.05 * advised, n_samples=16))

    @pytest.mark.parametrize("n_samples", [256, optimize._MAX_GRID_POINTS - 2])
    def test_advised_horizon_fits_the_full_budget(self, refuse_alloc, n_samples):
        # the grid's step counts alone, at the real budget: no grid is built
        refuse_alloc("linspace")
        spec = preset("sec2-two-spin", 1.0, 0.0)
        with pytest.raises(GridBudgetError) as refused:
            maximize_fidelity(spec, SearchConfig(t_max=1e9, n_samples=n_samples))
        advised = _advised(refused.value)
        cfg = SearchConfig(t_max=advised, n_samples=n_samples)
        pieces = optimize._time_grid(cfg, (advised, solve(spec).spread))
        assert pieces[0][2] == optimize._MAX_GRID_POINTS - 1  # the advice fills the budget

    def test_infinite_horizon_is_refused(self, refuse_alloc):
        refuse_alloc("linspace")
        with pytest.raises(GridBudgetError):
            maximize_fidelity(preset("sec2-two-spin", 1.0, 0.0), SearchConfig(t_max=math.inf))

    def test_box_too_wide_for_a_float_is_refused(self, refuse_alloc):
        # the width 2e308 overflows to inf, and so does the grid's spread
        refuse_alloc("linspace")
        with pytest.raises(GridBudgetError, match="overflows$"):
            tune_uniform_field(preset("sec2-two-spin", 1.0, 0.0), SearchConfig(t_max=5.0),
                               (-1e308, 1e308))

    def test_budget_is_inclusive(self, monkeypatch):
        # spread 1: spacing pi / 10, so t_max = 6.4 pi needs exactly 65 points
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 65)
        cfg = SearchConfig(t_max=6.4 * math.pi, n_samples=16)
        spectrum = solve(preset("sec2-two-spin", 1.0, 0.0))
        pieces = optimize._time_grid(cfg, (cfg.t_max, 1.0))
        assert pieces == [(0.0, cfg.t_max, 64)]
        assert optimize._grid_f(spectrum, pieces)[0].size == 65
        with pytest.raises(GridBudgetError):
            optimize._time_grid(cfg, (cfg.t_max, 1.01))
        # pieces of 40 steps (spacing pi / 20) and 44 (pi / 10) share a point
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 85)
        pieces = optimize._time_grid(cfg, (2.0 * math.pi, 2.0), (cfg.t_max, 1.0))
        assert pieces == [(0.0, 2.0 * math.pi, 40), (2.0 * math.pi, cfg.t_max, 44)]
        grid, _ = optimize._grid_f(spectrum, pieces)
        assert grid.size == 85
        assert grid[0] == 0.0 and grid[40] == 2.0 * math.pi and grid[-1] == cfg.t_max
        assert np.all(np.diff(grid) > 0.0)
        with pytest.raises(GridBudgetError):
            optimize._time_grid(cfg, (2.0 * math.pi, 2.0), (cfg.t_max, 1.01))


class TestCriticalTimes:
    def test_two_spin_impurity_peaks(self):
        j = 1.0
        cfg = SearchConfig(t_max=3.3 * math.pi / (SQRT2 * j))
        peaks = critical_times(preset("sec2-two-spin", j, 0.0), cfg)
        assert len(peaks) == 2
        expected = [math.pi / (SQRT2 * j), 3 * math.pi / (SQRT2 * j)]
        for (t, mag), t_exp in zip(peaks, expected):
            assert t == pytest.approx(t_exp, abs=1e-8)
            assert mag == pytest.approx(1.0, abs=1e-9)

    def test_three_spin_impurity_peaks(self):
        j = 1.0
        cfg = SearchConfig(t_max=3.5 * math.pi / j)
        peaks = critical_times(preset("sec2-three-spin-center", j, 0.0), cfg)
        times = [t for t, _ in peaks]
        assert times == pytest.approx([math.pi / j, 3 * math.pi / j], abs=1e-8)
        assert all(mag == pytest.approx(1.0, abs=1e-9) for _, mag in peaks)

    def test_dead_channel_empty(self):
        assert critical_times(_dead_chain(), SearchConfig(t_max=5.0)) == []

    def test_ascending_order(self):
        peaks = critical_times(
            preset("sec3-two-spin", 1.0, 0.7), SearchConfig(t_max=40.0)
        )
        times = [t for t, _ in peaks]
        assert times == sorted(times)


class TestMaximizeFidelity:
    def test_two_spin_impurity_bare(self):
        j = 1.0
        t_star = math.pi / (SQRT2 * j)
        res = maximize_fidelity(preset("sec2-two-spin", j, 0.0),
                                SearchConfig(t_max=1.25 * t_star))
        assert abs(res.fbar - 2.0 / 3.0) <= 1e-9
        assert abs(res.best_t - t_star) <= 1e-8
        assert res.best_field is None
        assert res.evaluations > 0

    def test_dead_channel(self):
        res = maximize_fidelity(_dead_chain(), SearchConfig(t_max=5.0))
        assert res.fbar == pytest.approx(0.5, abs=0)
        assert res.best_t == 0.0

    def test_corrected_at_least_plain(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = preset("sec3-three-spin-center", rng.uniform(0.3, 2), rng.uniform(0.1, 2))
            cfg = SearchConfig(t_max=30.0)
            plain = maximize_fidelity(spec, cfg, corrected=False)
            corrected = maximize_fidelity(spec, cfg, corrected=True)
            assert corrected.fbar_corrected >= plain.fbar - 1e-12

    def test_corrected_peak_value(self):
        # closed-form peak: |f| = sin(2 pi / 5) exactly, at t = 12 pi / 5
        b = 1.0
        spec = preset("sec3-three-spin-center", 2 * SQRT2 * b / 3, b)
        res = maximize_fidelity(spec, SearchConfig(t_max=25.0 / b), corrected=True)
        m = math.sin(2 * math.pi / 5)
        assert res.abs_f == pytest.approx(m, abs=1e-9)
        assert res.fbar_corrected == pytest.approx(0.5 + m / 3 + m * m / 6, abs=1e-9)
        assert res.best_t == pytest.approx(12 * math.pi / 5, abs=1e-6)

    def test_local_max_property(self):
        j = 1.0
        cfg = SearchConfig(t_max=1.25 * math.pi / (SQRT2 * j))
        spec = preset("sec2-two-spin", j, 0.0)
        res = maximize_fidelity(spec, cfg)
        from spintransfer.fidelity import average_fidelity

        for dt in (-10 * cfg.refine_tol, 10 * cfg.refine_tol):
            nearby = average_fidelity(synthesize_f(solve(spec), res.best_t + dt))
            assert nearby <= res.fbar + 1e-12

    def test_deterministic(self):
        spec = preset("sec4-three-spin-center", 0.7, 1.0)
        cfg = SearchConfig(t_max=40.0)
        a = maximize_fidelity(spec, cfg, corrected=True)
        b = maximize_fidelity(spec, cfg, corrected=True)
        assert a == b

    def test_amplitude_bound_never_exceeded(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            j, b = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            mu = math.hypot(j, b)
            res = maximize_fidelity(
                preset("sec3-two-spin", j, b),
                SearchConfig(t_max=20 * math.pi / mu),
                corrected=True,
            )
            assert res.abs_f <= j / mu + 1e-9

    def test_abs_f_is_the_reports(self):
        # abs_f is the |f| that fbar and fbar_corrected come from, rescaled with
        # them: a second abs(f) read above 1 on 39 of these 116 searches
        cfg = SearchConfig(t_max=1.3 * math.pi)
        for n in range(2, 60):
            spec = engineered_chain(n)
            spectrum = solve(spec)
            for corrected in (False, True):
                res = maximize_fidelity(spec, cfg, corrected)
                rep = fidelity.fidelity_report(res.best_t, synthesize_f(spectrum, res.best_t))
                assert res.abs_f == rep.abs_f <= 1.0, (n, corrected)


class TestTuneUniformField:
    def test_two_spin_topology_reaches_unity(self):
        j = 1.0
        t_star = math.pi / (SQRT2 * j)
        res = tune_uniform_field(
            preset("sec2-two-spin", j, 0.0),
            SearchConfig(t_max=1.25 * t_star),
            (0.0, 2.0),
        )
        assert res.fbar == pytest.approx(1.0, abs=1e-6)
        assert res.best_field == pytest.approx(math.pi / (2 * t_star), abs=1e-4)
        assert res.best_t == pytest.approx(t_star, abs=1e-4)

    def test_three_spin_topology_reaches_unity(self):
        j = 1.0
        res = tune_uniform_field(
            preset("sec2-three-spin-center", j, 0.0),
            SearchConfig(t_max=1.3 * math.pi / j),
            (0.0, 2.0),
        )
        assert res.fbar == pytest.approx(1.0, abs=1e-6)
        assert res.best_field == pytest.approx(1.0, abs=1e-4)

    def test_fixed_impurity_field_cannot_reach_unity(self):
        # base chain keeps its local impurity field: a uniform offset only
        # rotates the phase of f, so fbar stays below the J/mu ceiling
        j, b = 1.0, 1.0
        mu = math.hypot(j, b)
        ceiling = 0.5 + (j / mu) / 3 + (j / mu) ** 2 / 6
        res = tune_uniform_field(
            preset("sec3-two-spin", j, b),
            SearchConfig(t_max=20 * math.pi / mu),
            (-1.0, 1.0),
        )
        assert res.fbar <= ceiling + 1e-9
        assert res.fbar < 1.0 - 1e-3

    def test_bad_range(self):
        with pytest.raises(ValueError):
            tune_uniform_field(_dead_chain(), SearchConfig(t_max=1.0), (2.0, 1.0))

    @pytest.mark.parametrize("box, refusal", [
        ((0.0,), "the field box must hold two numbers (B_lo, B_hi), got 1"),
        (2.0, "the field box must hold two numbers (B_lo, B_hi), got 1"),
        ((0.0, 1.0, 2.0), "the field box must hold two numbers (B_lo, B_hi), got 3"),
        (((0.0, 1.0), (2.0, 3.0)), "the field box must be a scalar or one-dimensional"),
    ])
    def test_a_box_that_is_not_a_pair_is_refused(self, box, refusal):
        with pytest.raises(ValueError) as refused:
            tune_uniform_field(_dead_chain(), SearchConfig(t_max=1.0), box)
        assert str(refused.value) == refusal


def _brute_force_max(spec, t_max, b_lo, b_hi, n_t=4001, n_b=41):
    """Largest Fbar on a (t, B) grid, the chain solved again at every B."""
    t = np.linspace(0.0, t_max, n_t)
    best = -math.inf
    for b in np.linspace(b_lo, b_hi, n_b):
        f = synthesize_f(solve(spec.with_uniform_field(b)), t)
        best = max(best, float(np.max(0.5 + f.real / 3.0 + np.abs(f) ** 2 / 6.0)))
    return best


class TestTunedOptimum:
    def test_box_edge_local_maximum_is_avoided(self):
        # a coarse (t, B) grid plus coordinate descent stopped at the box edge
        # B = 3.116 here, 2e-4 short; B = 0.633 inside the box aligns the phase
        spec = preset("sec2-two-spin", 0.895557603128256, 0.0)
        t_max, box = 4.455717774085757, (-0.29725379021842846, 3.1160026099689166)
        res = tune_uniform_field(spec, SearchConfig(t_max=t_max), box)
        t = np.linspace(0.0, t_max, 2**17 + 1)
        mag = np.abs(synthesize_f(solve(spec), t))
        sampled = float(np.max(0.5 + mag / 3.0 + mag**2 / 6.0))
        assert abs(res.fbar - sampled) <= 1e-9
        assert box[0] <= res.best_field <= box[1]

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(["sec2-two-spin", "sec2-three-spin-center", "sec3-two-spin",
                                 "sec3-three-spin-center", "sec4-three-spin-center"]),
           j=st.floats(0.5, 1.5), b=st.floats(0.2, 1.2), t_max=st.floats(2.0, 15.0),
           b_lo=st.floats(-1.0, 1.0), share=st.floats(0.05, 0.95))
    def test_narrow_box_beats_brute_force(self, name, j, b, t_max, b_lo, share):
        # narrower than 2 pi / t_max: no field aligns the phase at every time
        spec = preset(name, j, 0.0 if name.startswith("sec2") else b)
        b_hi = b_lo + share * 2.0 * math.pi / t_max
        res = tune_uniform_field(spec, SearchConfig(t_max=t_max), (b_lo, b_hi))
        assert b_lo <= res.best_field <= b_hi
        assert 0.0 <= res.best_t <= t_max
        assert res.fbar >= _brute_force_max(spec, t_max, b_lo, b_hi) - 1e-9
        # the reported values belong to the tuned chain at (best_t, best_field)
        f = synthesize_f(solve(spec.with_uniform_field(res.best_field)), res.best_t)
        assert res.fbar == average_fidelity(f)

    def test_wide_box_gives_the_corrected_optimum(self):
        # every phase can be aligned from t = 2 pi / W on, so a wide box finds
        # the phase-corrected optimum, and its grid does not grow with W
        spec = preset("sec3-three-spin-center", 0.9, 0.6)
        cfg = SearchConfig(t_max=12.0)
        corrected = maximize_fidelity(spec, cfg, corrected=True)
        for width in (1e2, 1e6):
            res = tune_uniform_field(spec, cfg, (-width / 2.0, width / 2.0))
            assert abs(res.fbar - corrected.fbar_corrected) <= 1e-9
            assert res.evaluations < 2 * corrected.evaluations + 1000


class TestVerifyFieldFormula:
    """The tuning rules that pick a (t_c, B_c) pair refuse what they cannot tune."""

    def test_not_tunable(self):
        with pytest.raises(NotTunableError):
            zero_field_critical_time("sec3-two-spin", 1.0, 0)
        with pytest.raises(NotTunableError):
            critical_field(PresetSystem("sec3-two-spin", 1.0, 0.0), 1.0, "even", 0)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            zero_field_critical_time("sec2-two-spin", 1.0, -1)
        t_c = zero_field_critical_time("sec2-two-spin", 1.0, 0)
        with pytest.raises(ValueError):
            critical_field(PresetSystem("sec2-two-spin", 1.0, 0.0), t_c, "even", -1)


class TestEvaluationCount:
    """`evaluations` counts every time point the search visits, once; the
    lookahead probes it evaluates but never visits are its `probes`."""

    @pytest.fixture
    def synthesized(self, monkeypatch):
        # f reaches the search by two routes: the grid's block products and
        # synthesize_f everywhere else; returns the sizes of those calls and
        # a function giving the probes of every search so far
        points, searches = [], []
        real, real_grid = optimize.synthesize_f, optimize._grid_f

        class Recorded(optimize._Search):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        def counting(spectrum, t):
            points.append(np.size(t))
            return real(spectrum, t)

        def counting_grid(spectrum, pieces):
            grid, f = real_grid(spectrum, pieces)
            points.append(grid.size)
            return grid, f

        monkeypatch.setattr(optimize, "synthesize_f", counting)
        monkeypatch.setattr(optimize, "_grid_f", counting_grid)
        monkeypatch.setattr(optimize, "_Search", Recorded)
        return points, lambda: sum(search.probes for search in searches)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_maximize_fidelity(self, synthesized, corrected):
        points, probes = synthesized
        res = maximize_fidelity(preset("sec2-three-spin-center", 1.0, 0.0),
                                SearchConfig(t_max=3.8), corrected=corrected)
        assert res.evaluations + probes() == sum(points)
        assert len(points) > 1  # one grid call plus the refinements
        assert probes() > 0  # few brackets: the refine looked ahead

    def test_tune_uniform_field(self, synthesized):
        points, probes = synthesized
        res = tune_uniform_field(preset("sec2-two-spin", 1.0, 0.0),
                                 SearchConfig(t_max=2.8), (0.0, 2.0))
        assert res.evaluations + probes() == sum(points)
        assert probes() > 0

    @pytest.mark.parametrize("kind", ["plain", "corrected", "tuned"])
    def test_many_brackets(self, synthesized, kind):
        # unpruned, 43-45 brackets of about one width, which close together:
        # every step runs at d = 1, with nothing to discard
        points, probes = synthesized
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            res = _search(preset("sec3-three-spin-center", 0.9, 0.6), 200.0, kind, (0.0, 2.0))
        assert res.evaluations + probes() == sum(points)
        assert probes() == 0

    @pytest.mark.parametrize("corrected, count", [(False, 343), (True, 387)])
    def test_count_is_that_of_the_scalar_search(self, corrected, count):
        # refining every bracket in lockstep visits the points a scalar search did
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            res = maximize_fidelity(preset("sec2-three-spin-center", 1.0, 0.0),
                                    SearchConfig(t_max=3.8), corrected=corrected)
        assert res.evaluations == count

    # 343, 387 and 2 906 without pruning; the last is the README example
    @pytest.mark.parametrize("system, t_max, corrected, count", [
        (("sec2-three-spin-center", 1.0, 0.0), 3.8, False, 301),
        (("sec2-three-spin-center", 1.0, 0.0), 3.8, True, 302),
        (("sec3-three-spin-center", 0.942809, 1.0), 200.0, True, 2006),
    ])
    def test_pruned_count(self, synthesized, system, t_max, corrected, count):
        points, probes = synthesized
        res = maximize_fidelity(preset(*system), SearchConfig(t_max=t_max), corrected=corrected)
        assert res.evaluations == sum(points) - probes() == count


class TestSpectrumOnly:
    """A search keeps the levels and weights of f, not the N x N eigenvectors."""

    @pytest.mark.parametrize("search", [
        lambda spec, cfg: maximize_fidelity(spec, cfg),
        lambda spec, cfg: maximize_fidelity(spec, cfg, corrected=True),
        lambda spec, cfg: tune_uniform_field(spec, cfg, (0.0, 2.0)),
    ], ids=["plain", "corrected", "tuned"])
    def test_no_eigensystem_outlives_its_solve(self, monkeypatch, search):
        solved, calls = [], []
        real_eigensolve, real_fbar = excitation.eigensolve, fidelity.average_fidelity

        def recording(h):
            values, vectors = real_eigensolve(h)
            solved.append(weakref.ref(vectors))
            return values, vectors

        def objective(f, corrected=False):
            gc.collect()
            assert solved and all(ref() is None for ref in solved)
            calls.append(np.size(f))
            return real_fbar(f, corrected)

        monkeypatch.setattr(excitation, "eigensolve", recording)
        monkeypatch.setattr(fidelity, "average_fidelity", objective)
        search(preset("sec2-two-spin", 1.0, 0.0), SearchConfig(t_max=2.8))
        assert len(calls) > 1  # the grid and the refinements


def _interior_peaks_loop(values):
    idx = []
    for i in range(1, values.size - 1):
        left, mid, right = values[i - 1], values[i], values[i + 1]
        if mid >= left and mid >= right and (mid > left or mid > right):
            idx.append(i)
    return idx


@given(st.lists(st.floats(allow_nan=False, width=64), max_size=50)
       | st.lists(st.integers(0, 3), max_size=50))  # small integers make plateaus
def test_interior_peaks_match_the_loop(values):
    values = np.array(values, dtype=float)
    assert optimize._interior_peaks(values).tolist() == _interior_peaks_loop(values)


# The scalar refine that _refine_brackets replaced, kept as its oracle.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo, hi, tol, max_iters):
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


def _parabolic_polish(fn, x, value, lo, hi, h):
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
    if v_val >= best_val:
        best_x, best_val = vertex, v_val
    return best_x, best_val


def _scalar_refine(fn, lo, hi, cfg):
    """(t, value, bracket) of the scalar search, its golden-section steps and the
    polish's evaluations: 0 (bracket no wider than 2h), 3 (denom >= 0) or 4."""
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    x, val = _golden_max(counted, lo, hi, cfg.refine_tol, optimize._MAX_REFINE_ITERS)
    steps = len(calls) - 2
    x, val = _parabolic_polish(counted, x, val, lo, hi,
                               max(1e4 * cfg.refine_tol, 1e-6 * cfg.t_max))
    bracket = (max(lo, x - cfg.refine_tol), min(hi, x + cfg.refine_tol))
    return (x, val, bracket), steps, len(calls) - 2 - steps


def _bits(candidate):
    t, value, (lo, hi) = candidate
    return tuple(float(x).hex() for x in (t, value, lo, hi))


@st.composite
def _chains(draw, max_sites=7):
    n = draw(st.integers(2, max_sites))
    sites = tuple(SiteSpec(draw(st.sampled_from([SPIN_HALF, SPIN_ONE])), draw(st.floats(-2.0, 2.0)))
                  for _ in range(n))
    return ChainSpec(sites=sites, couplings=tuple(draw(st.floats(0.2, 2.0)) for _ in range(n - 1)))


class TestLockstepRefine:
    """_refine_brackets returns, bit for bit, what a scalar search gives on each bracket."""

    @staticmethod
    def _compare(spec, cfg, corrected):
        spectrum = solve(spec)

        def scalar(t):
            visited[float(t).hex()] += 1
            f = synthesize_f(spectrum, t)
            return corrected_average_fidelity(f)[0] if corrected else average_fidelity(f)

        def array(t):
            return average_fidelity(synthesize_f(spectrum, t), corrected)

        def counted(t):
            evaluated.update(x.hex() for x in np.asarray(t, dtype=float).ravel().tolist())
            return array(t)

        # the brackets _global_max refines, one around every grid minimum, and
        # one a single stencil step h wide
        pieces = optimize._time_grid(cfg, (cfg.t_max, spectrum.spread))
        grid, _ = optimize._grid_f(spectrum, pieces)
        values = array(grid)
        inner = np.concatenate([optimize._interior_peaks(values), optimize._interior_peaks(-values)])
        h = max(1e4 * cfg.refine_tol, 1e-6 * cfg.t_max)
        los = np.concatenate([[grid[0], grid[-2]], grid[inner - 1], [grid[3]]])
        his = np.concatenate([[grid[1], grid[-1]], grid[inner + 1], [grid[3] + h]])
        evaluated, visited, discarded = Counter(), Counter(), []
        refined = optimize._refine_brackets(counted, los, his, cfg, discard=discarded.append)
        oracle = [_scalar_refine(scalar, lo, hi, cfg) for lo, hi in zip(los, his)]
        assert [_bits(c) for c in refined] == [_bits(c) for c, _, _ in oracle]
        # every time the scalar search visits, to the bit, is evaluated, and
        # the rest are the discarded probes
        assert visited <= evaluated
        assert evaluated.total() - sum(discarded) == visited.total()
        # alone, a bracket looks further ahead and still gets the same bits
        for k in range(0, los.size, max(1, los.size // 4)):
            alone, = optimize._refine_brackets(array, los[k:k + 1], his[k:k + 1], cfg)
            assert _bits(alone) == _bits(oracle[k][0])
        return [(steps, polish) for _, steps, polish in oracle]

    @pytest.mark.parametrize("corrected", [False, True])
    def test_every_branch_is_taken(self, corrected):
        spec = preset("sec3-three-spin-center", 0.9, 0.6)
        paths = self._compare(spec, SearchConfig(t_max=25.0), corrected)
        assert {polish for _, polish in paths} == {0, 3, 4}
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", 6):
            capped = self._compare(spec, SearchConfig(t_max=25.0), corrected)
        assert {steps for steps, _ in capped} == {6}

    @settings(max_examples=30, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 30.0), corrected=st.booleans(),
           max_iters=st.sampled_from([1, 2, 3, 4, 7, 200]),
           probes=st.sampled_from([1, 3, optimize._LOOKAHEAD_PROBES, 100]))
    def test_random_chains(self, spec, t_max, corrected, max_iters, probes):
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", max_iters), \
                mock.patch.object(optimize, "_LOOKAHEAD_PROBES", probes):
            self._compare(spec, SearchConfig(t_max=t_max), corrected)

    # 115 brackets, as in a many-bracket search of the benchmark's optimize
    # inputs, whose largest searches hold 161-182 at seeds 1-3
    @pytest.mark.parametrize("n, depth", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 2), (10, 2),
                                          (11, 1), (40, 1), (115, 1)])
    def test_depth_follows_the_open_brackets(self, n, depth):
        # brackets of one width close together, so n stay open to the end
        assert optimize._LOOKAHEAD_PROBES == 32
        events = []

        def objective(t):
            events.append(("call", np.size(t)))
            return np.cos(2.0 * np.pi * np.asarray(t))

        cfg = SearchConfig(t_max=float(n))
        los = np.arange(n) - 0.25
        refined = optimize._refine_brackets(objective, los, los + 0.5, cfg,
                                            discard=lambda k: events.append(("discard", k)))
        assert [c[0] for c in refined] == pytest.approx(np.arange(n), abs=1e-8)
        # the first probes, then the steps; the polish last
        calls = [size for kind, size in events if kind == "call"][1:-2]
        # each discard follows its pass's call, one of more than the n new times
        discards = [(before, k) for before, (kind, k) in zip(events, events[1:])
                    if kind == "discard"]
        assert all(before[0] == "call" and before[1] > n and k >= 0 for before, k in discards)
        if depth == 1:  # one call per step on the n new times
            assert not discards and set(calls) == {n}
        else:
            assert calls[0] == n * (2**depth - 1) <= optimize._LOOKAHEAD_PROBES
            assert len(calls) < optimize._MAX_REFINE_ITERS / depth
            assert len(discards) == len(calls)

    @staticmethod
    def _scalar_brackets(objective, los, his, cfg, discard=None):
        """_refine_brackets by the scalar oracle, one bracket and one time at a time."""
        def scalar(t):
            return float(objective(np.array([t]))[0])

        return [_scalar_refine(scalar, lo, hi, cfg)[0]
                for lo, hi in zip(np.asarray(los).tolist(), np.asarray(his).tolist())]

    # box edges at 0.0 and -0.0, each where the best field is that edge, and
    # boxes centred off and on b_c = 0
    @pytest.mark.parametrize("system, t_max, kind, box, best_field", [
        (("sec3-three-spin-center", 0.9, 0.6), 25.0, "plain", None, None),
        (("sec3-three-spin-center", 0.9, 0.6), 25.0, "corrected", None, None),
        (("sec3-two-spin", 1.0, 0.5), 6.0, "tuned", (-1.0, 0.0), 0.0),
        (("sec3-two-spin", 1.0, 0.5), 6.0, "tuned", (-1.0, -0.0), -0.0),
        (("sec3-three-spin-center", 0.9, 0.6), 25.0, "tuned", (0.0, 2.0), None),
        (("sec3-three-spin-center", 0.9, 0.6), 25.0, "tuned", (-1.0, 1.0), None),
    ])
    def test_searches_return_the_scalar_oracle_result(self, system, t_max, kind, box,
                                                      best_field):
        # every OptimizationResult field, evaluations included
        def bits(res):
            return [x.hex() if isinstance(x, float) else x
                    for x in (res.best_t, res.best_field, res.fbar, res.fbar_corrected,
                              res.abs_f, res.evaluations, *res.bracket)]

        lockstep = _search(preset(*system), t_max, kind, box)
        with mock.patch.object(optimize, "_refine_brackets", self._scalar_brackets):
            oracle = _search(preset(*system), t_max, kind, box)
        assert bits(lockstep) == bits(oracle)
        if best_field is not None:  # np.clip keeps the sign of a zero edge
            assert lockstep.best_field.hex() == best_field.hex()


def _recording(name):
    """Patch optimize.<name> with a wrapper that records (args, result) of each call."""
    calls = []
    real = getattr(optimize, name)

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    return mock.patch.object(optimize, name, record), calls


def _search(spec, t_max, kind, box):
    cfg = SearchConfig(t_max=t_max)
    if kind == "tuned":
        return tune_uniform_field(spec, cfg, box)
    return maximize_fidelity(spec, cfg, corrected=kind == "corrected")


_boxes = st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 10.0)).map(lambda p: (p[0], p[0] + p[1]))


class TestLookahead:
    """Looking ahead changes no bit of any search result, evaluations included."""

    @staticmethod
    def _results(spec, t_max, box):
        def bits(res):
            return [x.hex() if isinstance(x, float) else x
                    for x in (res.best_t, res.best_field, res.fbar, res.fbar_corrected,
                              res.abs_f, res.evaluations, *res.bracket)]

        peaks = critical_times(spec, SearchConfig(t_max=t_max))
        return ([bits(_search(spec, t_max, kind, box)) for kind in ("plain", "corrected", "tuned")],
                [(t.hex(), value.hex()) for t, value in peaks])

    # horizons from one bracket to hundreds, each refine step capped inside a
    # lookahead at 1, 2, 3 and 7 steps
    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 80.0), box=_boxes,
           max_iters=st.sampled_from([1, 2, 3, 7, 200]))
    def test_searches_return_the_scalar_oracle_result(self, spec, t_max, box, max_iters):
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", max_iters):
            lookahead = self._results(spec, t_max, box)
            with mock.patch.object(optimize, "_refine_brackets",
                                   TestLockstepRefine._scalar_brackets):
                oracle = self._results(spec, t_max, box)
        assert lookahead == oracle


class TestPruning:
    """Skipping brackets that cannot win changes nothing but the evaluation count."""

    @staticmethod
    def _pieces(spec, kind, box):
        """(t_end, Omega) pieces: Omega bounds every frequency of the objective there."""
        if kind != "tuned":
            h = reduce(spec)
            nu = eigensolve(h)[0] - h.vacuum_energy
            return [(math.inf, max(np.max(np.abs(nu)), np.ptp(nu)))]
        width = box[1] - box[0]
        h = reduce(spec.with_uniform_field((box[0] + box[1]) / 2.0))
        values, _ = eigensolve(h)
        nu = values - h.vacuum_energy  # a field b shifts them by b - b_c
        return [(2.0 * math.pi / width, max(np.max(np.abs(nu)) + width / 2.0, np.ptp(nu))),
                (math.inf, np.ptp(values))]  # centred levels after the phase is aligned

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_grid_spacing_bounds_every_frequency(self, spec, t_max, kind, box):
        patch, grids = _recording("_grid_f")
        with patch:
            _search(spec, t_max, kind, box)
        (_, (grid, _)), = grids
        start = 0.0
        for t_end, omega in self._pieces(spec, kind, box):
            t_end = min(t_end, t_max)
            piece = grid[(grid >= start) & (grid <= t_end)]
            assert piece[0] == start and piece[-1] == t_end  # no step straddles a piece end
            # 1e-12: linspace rounds each point
            assert np.all(np.diff(piece) <= math.pi / (10.0 * omega) * (1.0 + 1e-12))
            start = t_end

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_no_bracket_rises_further_than_the_bound(self, spec, t_max, kind, box):
        rise = optimize._MAX_RISE
        grid_patch, grids = _recording("_grid_f")
        refine_patch, refines = _recording("_refine_brackets")
        with grid_patch, refine_patch, mock.patch.object(optimize, "_MAX_RISE", math.inf):
            _search(spec, t_max, kind, box)
        (_, (grid, _)), = grids
        ((objective, los, his, _), refined), = refines
        values = objective(grid)
        for lo, hi, (_, value, _) in zip(los, his, refined):
            inside = values[np.searchsorted(grid, lo):np.searchsorted(grid, hi, side="right")]
            assert value <= np.max(inside) + rise

    @settings(max_examples=60, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_pruned_search_is_bit_identical(self, spec, t_max, kind, box):
        pruned = _search(spec, t_max, kind, box)
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            full = _search(spec, t_max, kind, box)

        def bits(res):
            return np.array([res.best_t, res.fbar, res.fbar_corrected, res.abs_f, *res.bracket,
                             res.best_field if kind == "tuned" else 0.0]).tobytes()

        assert bits(pruned) == bits(full)
        assert pruned.evaluations <= full.evaluations

    def test_a_grid_peak_that_refines_low_reopens_the_pruned_brackets(self):
        # a spike on one grid point is the largest grid value, but golden-section
        # never lands on it: the bump pruned against it must still be refined
        def objective(t):
            t = np.asarray(t, dtype=float)
            return np.where(t == 5.0, 1.0, 0.5 + 0.49 * np.exp(-((t - 2.05) / 0.3) ** 2))

        cfg = SearchConfig(t_max=10.0)
        grid = np.linspace(0.0, 10.0, 101)
        assert objective(grid).max() == 1.0 and objective(grid)[19:23].max() + optimize._MAX_RISE < 1.0
        best_t, bracket = optimize._global_max(objective, grid, objective(grid), 0.0, cfg)
        assert best_t == pytest.approx(2.05, abs=1e-6)
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            assert optimize._global_max(objective, grid, objective(grid), 0.0, cfg) == (best_t, bracket)

    def test_earliest_candidate_within_the_tie_margin_of_the_largest_wins(self):
        # flat tops refine to exactly their height; a chain of near-ties goes to
        # the earliest top within _TIE_TOL of the highest, not along the chain
        tops = [(2.0, 1.0), (5.0, 1.0 + 0.8e-12), (8.0, 1.0 + 1.6e-12)]

        def objective(t):
            t = np.asarray(t, dtype=float)
            out = np.full(t.shape, 0.5)
            for centre, height in tops:
                out[np.abs(t - centre) < 0.35] = height
            return out

        grid = np.linspace(0.0, 10.0, 101)
        best_t, _ = optimize._global_max(objective, grid, objective(grid), 0.0,
                                         SearchConfig(t_max=10.0))
        assert abs(best_t - 5.0) < 0.35


@st.composite
def _periodic_chains(draw):
    """Chains whose f lies on two levels, or on equally spaced ones."""
    kind = draw(st.sampled_from(["two-level", "sec2-three-spin-center", "engineered"]))
    if kind == "engineered":
        return engineered_chain(draw(st.integers(2, 9)), draw(st.floats(0.2, 2.0)))
    name = draw(st.sampled_from(["sec2-two-spin", "sec3-two-spin"])) if kind == "two-level" else kind
    return preset(name, draw(st.floats(0.2, 2.0)), draw(st.floats(-2.0, 2.0)))


def _unfolded():
    """A patch under which maximize_fidelity finds no period and refines every bracket."""
    return mock.patch.object(optimize, "_period", lambda *args: math.inf)


class TestPeriodicFold:
    """Refining only the first period of a periodic objective changes nothing but `evaluations`."""

    @staticmethod
    def _bits(res):
        return np.array([res.best_t, res.fbar, res.fbar_corrected, res.abs_f, *res.bracket]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(spec=_periodic_chains(), periods=st.floats(2.0, 300.0), corrected=st.booleans())
    def test_folded_search_is_bit_identical(self, spec, periods, corrected):
        levels = solve(spec).levels
        cfg = SearchConfig(t_max=periods * 2.0 * math.pi / np.min(np.diff(levels)))
        folded = maximize_fidelity(spec, cfg, corrected)
        with _unfolded():
            full = maximize_fidelity(spec, cfg, corrected)
        assert self._bits(folded) == self._bits(full)
        assert folded.evaluations <= full.evaluations

    def test_two_level_count(self):
        # a benchmark input: 115 of 117 candidate brackets lie after the first period
        spec = preset("sec2-two-spin", 1.8852983559908165, 1.1230681777994065)
        cfg = SearchConfig(t_max=270.81564036525845)
        folded = maximize_fidelity(spec, cfg, corrected=True)
        with _unfolded():
            full = maximize_fidelity(spec, cfg, corrected=True)
        assert (full.evaluations, folded.evaluations) == (6901, 2341)
        assert self._bits(folded) == self._bits(full)

    def test_nearly_commensurate_levels_are_not_folded(self):
        # the README example: offsets 4 : 5 to a residual of 8.6e-9, which
        # drifts by 3e-6 over t_max = 200; at J = 2 sqrt(2) / 3 they are exact
        cfg = SearchConfig(t_max=200.0)
        near = preset("sec3-three-spin-center", 0.942809, 1.0)
        exact = preset("sec3-three-spin-center", 2.0 * SQRT2 / 3.0, 1.0)
        assert optimize._period(solve(near), True, cfg.t_max) == math.inf
        assert maximize_fidelity(near, cfg, corrected=True).evaluations == 2006
        assert optimize._period(solve(exact), True, cfg.t_max) == pytest.approx(6.0 * math.pi)
        folded = maximize_fidelity(exact, cfg, corrected=True)
        with _unfolded():
            full = maximize_fidelity(exact, cfg, corrected=True)
        assert folded.evaluations < full.evaluations
        assert self._bits(folded) == self._bits(full)

    @pytest.mark.parametrize("name, j, b, t_max, period, counts", [
        ("sec3-three-spin-center", 2.0 * SQRT2 / 3.0, 1.0, 200.0, 6.0 * math.pi, (1514, 1145)),
        ("sec4-three-spin-center", 2.0 / 3.0, 1.0, 200.0, 6.0 * math.pi, (1514, 1145)),
        ("sec2-three-spin-center", 1.0, 0.0, 4.0 * math.pi, 2.0 * math.pi, (388, 345)),
    ], ids=["sec3-three-spin-center", "sec4-three-spin-center", "sec2-three-spin-center"])
    def test_a_level_at_the_vacuum_is_folded(self, name, j, b, t_max, period, counts):
        # the dark level is 0 in exact arithmetic, a round-off residue of about
        # 1e-16 in the solve; the plain objective is folded all the same
        spec, cfg = preset(name, j, b), SearchConfig(t_max=t_max)
        spectrum = solve(spec)
        assert np.min(np.abs(spectrum.levels)) < 1e-14
        assert optimize._period(spectrum, False, t_max) == pytest.approx(period)
        folded = maximize_fidelity(spec, cfg)
        with _unfolded():
            full = maximize_fidelity(spec, cfg)
        assert (full.evaluations, folded.evaluations) == counts
        assert self._bits(folded) == self._bits(full)

    def test_random_chains_are_not_folded(self):
        # TestPruning's chains: mixed spins and site fields put f on
        # incommensurate levels, so those tests cover the unfolded search; only
        # two sites give two levels, and a corrected objective with a period
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            spec = ChainSpec(
                sites=tuple(SiteSpec(SPIN_ONE if rng.random() < 0.5 else SPIN_HALF,
                                     float(rng.uniform(-2.0, 2.0))) for _ in range(n)),
                couplings=tuple(rng.uniform(0.2, 2.0, n - 1).tolist()))
            spectrum, t_max = solve(spec), float(rng.uniform(1.0, 60.0))
            assert optimize._period(spectrum, False, t_max) == math.inf
            period = optimize._period(spectrum, True, t_max)
            if n > 2 or np.ptp(spectrum.levels) * t_max <= math.pi:
                assert period == math.inf
            else:
                assert period == 2.0 * math.pi / np.ptp(spectrum.levels)


class TestGridProduct:
    """The grid's block products stay within _grid_error of synthesize_f and
    change no search result."""

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(max_sites=40), t_max=st.floats(1.0, 100.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_within_the_error_bound(self, spec, t_max, kind, box):
        patch, grids = _recording("_grid_f")
        with patch:
            _search(spec, t_max, kind, box)
        ((spectrum, pieces), (grid, fast)), = grids
        # a tuned grid has a second piece when some t < t_max aligns every phase
        two = kind == "tuned" and 2.0 * math.pi / (box[1] - box[0]) < t_max
        assert len(pieces) == (2 if two else 1)
        gap = np.max(np.abs(fast - synthesize_f(spectrum, grid)))
        assert gap <= optimize._grid_error(spectrum, t_max)

    def test_empty_piece(self):
        # a field box narrower than 2 pi / t_max aligns every phase only at
        # t_max: the second piece holds no step, and it is dropped
        spectrum = solve(preset("sec2-three-spin-center", 1.0, 0.0))
        cfg = SearchConfig(t_max=3.0)
        pieces = optimize._time_grid(cfg, (cfg.t_max, 2.0), (cfg.t_max, 1.0))
        one_piece = optimize._time_grid(cfg, (cfg.t_max, 2.0))
        assert pieces == one_piece and len(pieces) == 1
        with np.errstate(all="raise"):
            grid, fast = optimize._grid_f(spectrum, pieces)
        assert np.array_equal(fast, optimize._grid_f(spectrum, one_piece)[1])
        gap = np.max(np.abs(fast - synthesize_f(spectrum, grid)))
        assert gap <= optimize._grid_error(spectrum, cfg.t_max)

    def test_a_shared_end_point_takes_the_later_piece(self):
        # the point where two pieces meet is the first of the later piece's
        # blocks, not the last point of the earlier one's
        spectrum = solve(preset("sec3-three-spin-center", 0.9, 0.6))
        cfg = SearchConfig(t_max=12.0)
        pieces = optimize._time_grid(cfg, (5.0, 3.0), (cfg.t_max, 1.0))
        grid, fast = optimize._grid_f(spectrum, pieces)
        shared = pieces[0][2]
        assert grid[shared] == 5.0
        assert fast[shared] == optimize._grid_f(spectrum, pieces[1:])[1][0]
        assert np.array_equal(fast[:shared], optimize._grid_f(spectrum, pieces[:1])[1][:-1])

    @settings(max_examples=60, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 200.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_search_is_bit_identical_to_an_exact_grid(self, spec, t_max, kind, box):
        fast = _search(spec, t_max, kind, box)
        fast_peaks = critical_times(spec, SearchConfig(t_max=t_max))
        real = optimize._grid_f

        def exact_grid_f(spectrum, pieces):
            grid, _ = real(spectrum, pieces)
            return grid, synthesize_f(spectrum, grid)

        with mock.patch.object(optimize, "_grid_f", exact_grid_f):
            exact = _search(spec, t_max, kind, box)
            exact_peaks = critical_times(spec, SearchConfig(t_max=t_max))

        def bits(res):
            return np.array([res.best_t, res.fbar, res.fbar_corrected, res.abs_f, *res.bracket,
                             res.best_field if kind == "tuned" else 0.0]).tobytes()

        # evaluations may differ: where the objective is flat to round-off
        # (0.5 + 1e-8 on a uniform 6-site chain up to t = 1), the last bit of
        # each grid value decides which grid points are interior peaks
        assert bits(fast) == bits(exact)
        assert np.array(fast_peaks).tobytes() == np.array(exact_peaks).tobytes()


@settings(max_examples=40, deadline=None)
@given(spec=_chains(), t_max=st.floats(1.0, 60.0), corrected=st.booleans())
def test_no_amplitude_found_exceeds_the_transfer_bound(spec, t_max, corrected):
    bound = solve(spec).transfer_bound
    cfg = SearchConfig(t_max=t_max)
    assert maximize_fidelity(spec, cfg, corrected=corrected).abs_f <= bound + 1e-12
    assert all(mag <= bound + 1e-12 for _, mag in critical_times(spec, cfg))
