"""Critical-time search, fidelity maximization, field tuning."""

import dataclasses
import gc
import hashlib
import math
import sys
import weakref
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spintransfer import excitation, fidelity, optimize
from spintransfer.chain import (PRESET_NAMES, ChainSpec, SPIN_HALF, SPIN_ONE, SiteSpec,
                                SpinMagnitude, engineered_chain, preset)
from spintransfer.closed_forms import (
    NotTunableError,
    PresetSystem,
    critical_field,
    zero_field_critical_time,
)
from spintransfer.excitation import eigensolve, reduce, solve, synthesize_f
from spintransfer.fidelity import average_fidelity
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
        # the horizon is the one setting: the spectrum sets every spacing
        assert [field.name for field in dataclasses.fields(SearchConfig)] == ["t_max"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(t_max=0.0)
        with pytest.raises(ValueError, match="t_max = 1e-322 is too small for 256 samples"):
            SearchConfig(t_max=1e-322)  # t_max / 256 underflows to 0

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

    @pytest.mark.parametrize("k", [1, 500, 990, 1000, 1019, 1020, 1022, 1023])
    def test_power_of_two_scaling_keeps_every_bit(self, k):
        # J, B and the field box times c = 2^k and t_max over c: best_t over c,
        # best_field times c, the same values and work; the bracket, best_t -+ the
        # subnormal refine_tol, over c through k = 1019 and within an ulp after.  At
        # k = 1023 the tuned box's width, 2^1024, overflows and the search refuses it
        def searches(c):
            spec, cfg = preset("sec3-two-spin", c, 0.5 * c), SearchConfig(t_max=30.0 / c)
            if c == 2.0**1023:
                with pytest.raises(GridBudgetError, match="the field box overflows"):
                    tune_uniform_field(spec, cfg, (-0.7 * c, 1.3 * c))
                return (maximize_fidelity(spec, cfg, corrected=True),)
            return (maximize_fidelity(spec, cfg, corrected=True),
                    tune_uniform_field(spec, cfg, (-0.7 * c, 1.3 * c)))

        c = 2.0**k
        bases = searches(1.0)
        # pi / mu = 2.8099258924162904, mu = sqrt(J^2 + B^2): the tuned one exactly
        assert [base.best_t for base in bases] == [2.809925892416291, 2.8099258924162904]
        for base, res in zip(bases, searches(c)):
            assert res.best_t * c == base.best_t
            for end, base_end in zip(res.bracket, base.bracket):
                assert abs(end * c - base_end) <= (0.0 if k <= 1019 else math.ulp(base_end))
            assert (res.best_field and res.best_field / c) == base.best_field
            assert (res.fbar, res.fbar_corrected, res.abs_f, res.evaluations) == (
                base.fbar, base.fbar_corrected, base.abs_f, base.evaluations)

    def test_refine_tol_turns_subnormal_between_2_to_the_990_and_1000(self):
        # below t_max = 2^-1022 / 1e-10 (about 2.2251e-298); a converged Newton
        # step is 0, which meets the subnormal tolerance too: the scaling above
        # still holds at k = 1000
        assert SearchConfig(t_max=30.0 / 2.0**990).refine_tol >= sys.float_info.min
        assert SearchConfig(t_max=30.0 / 2.0**1000).refine_tol < sys.float_info.min


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
        # the advice is tried on grids within the budget, never on the runaway one
        refuse_alloc("linspace", over=optimize._MAX_GRID_POINTS)
        spec = preset("sec2-two-spin", 1.0, 0.0)
        cfg = SearchConfig(t_max=1e9)
        h = reduce(spec)
        values, _ = eigensolve(h)
        spread = max(values[-1], h.vacuum_energy) - min(values[0], h.vacuum_energy)
        points = math.ceil(cfg.t_max * 10.0 * spread / math.pi) + 1
        assert points > 1000 * optimize._MAX_GRID_POINTS
        with pytest.raises(GridBudgetError, match="lower t_max to at most "):
            search(spec, cfg)

    @pytest.mark.parametrize("search", [
        lambda spec, cfg: maximize_fidelity(spec, cfg),
        lambda spec, cfg: maximize_fidelity(spec, cfg, corrected=True),
        lambda spec, cfg: tune_uniform_field(spec, cfg, (0.0, 2.0)),
    ], ids=["plain", "corrected", "tuned"])
    def test_advised_horizon_is_searched(self, monkeypatch, search):
        # the advice counts the grid and the samples near its best value
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 2000)
        spec = preset("sec2-two-spin", 1.0, 0.0)
        with pytest.raises(GridBudgetError) as refused:
            search(spec, SearchConfig(t_max=1e4))
        advised = _advised(refused.value)
        assert 0.0 < advised < 1e4
        res = search(spec, SearchConfig(t_max=advised))
        assert 0.0 <= res.best_t <= advised
        with pytest.raises(GridBudgetError):  # the advice is the longest horizon that fits
            search(spec, SearchConfig(t_max=1.05 * advised))

    @pytest.mark.parametrize("t_max", [100.0, 3000.0, 1e5, 1e12])
    def test_dead_channel_fits_at_any_horizon(self, t_max):
        # the zero coupling leaves sum_k |w_k| = 0 under a spread of 3.32: f is 0 and
        # every objective 1/2, so the grid is the 256-step floor and nothing is split
        spec = ChainSpec((SiteSpec(SPIN_HALF, 3.0), SiteSpec(SPIN_ONE, 0.0),
                          SiteSpec(SPIN_HALF, 0.0)), (1.0, 0.0))
        cfg = SearchConfig(t_max)
        assert critical_times(spec, cfg) == []
        found = [maximize_fidelity(spec, cfg), maximize_fidelity(spec, cfg, corrected=True),
                 tune_uniform_field(spec, cfg, (-0.5, 0.5))]
        assert [(res.best_t, res.fbar, res.evaluations) for res in found] == [
            (0.0, 0.5, 260), (0.0, 0.5, 260), (0.0, 0.5, 261)]

    @pytest.mark.parametrize("t_max", [1600.0, 1e5])
    def test_advice_counts_the_samples_near_the_best(self, monkeypatch, t_max):
        # on the weak chain B nearly every grid interval is near the best: past the
        # advice the samples there, not the grid, exceed the budget
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 2000)
        with pytest.raises(GridBudgetError) as refused:
            maximize_fidelity(_CHAIN_B, SearchConfig(t_max))
        advised = _advised(refused.value)
        res = maximize_fidelity(_CHAIN_B, SearchConfig(advised))
        assert 0.0 <= res.best_t <= advised
        with pytest.raises(GridBudgetError, match="more near its best value; lower t_max"):
            maximize_fidelity(_CHAIN_B, SearchConfig(1.05 * advised))

    def test_advised_horizon_fits_the_full_budget(self, refuse_alloc):
        # at the real budget: the grid and the samples near its best value fill it
        refuse_alloc("linspace", over=optimize._MAX_GRID_POINTS)
        spec = preset("sec2-two-spin", 1.0, 0.0)
        with pytest.raises(GridBudgetError) as refused:
            maximize_fidelity(spec, SearchConfig(t_max=1e9))
        advised = _advised(refused.value)
        search = _fbar_search(spec, SearchConfig(t_max=advised), False)
        chosen = search.near_best()
        samples = search.grid.size + sum(at.size * (splits - 1.0) for at, _, splits in chosen)
        splits = max(splits for _, _, splits in chosen)
        assert optimize._MAX_GRID_POINTS - 2 * splits < samples <= optimize._MAX_GRID_POINTS

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
        # spread 1: spacing pi / 10, below t_max / 256, so t_max = 102.35 pi needs
        # 1023.5 steps: 1025 points
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 1025)
        cfg = SearchConfig(t_max=102.35 * math.pi)
        spectrum = solve(preset("sec2-two-spin", 1.0, 0.0))
        pieces = optimize._time_grid(cfg, (cfg.t_max, 1.0))
        assert pieces == [(0.0, cfg.t_max, 1024)]
        assert optimize._grid_f(spectrum, pieces)[0].size == 1025
        with pytest.raises(GridBudgetError):
            optimize._time_grid(cfg, (cfg.t_max, 1.01))
        # pieces of 40 steps (spacing pi / 20) and 1003.5 (pi / 10) share a point
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 1045)
        pieces = optimize._time_grid(cfg, (2.0 * math.pi, 2.0), (cfg.t_max, 1.0))
        assert pieces == [(0.0, 2.0 * math.pi, 40), (2.0 * math.pi, cfg.t_max, 1004)]
        grid, _ = optimize._grid_f(spectrum, pieces)
        assert grid.size == 1045
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

    def test_a_peak_in_the_last_interval_is_found(self):
        # |f| = |sin(t / 2)|: the peak at 3 pi lies in the grid's last interval,
        # [3 pi - 0.027, 3 pi + 0.01], where |f| rises into t_max and no interior
        # grid peak lies
        spec = preset("sec3-two-spin", 1.0, 0.0)
        peaks = critical_times(spec, SearchConfig(t_max=3.0 * math.pi + 0.01))
        assert [t for t, _ in peaks] == pytest.approx([math.pi, 3.0 * math.pi], abs=1e-9)
        assert all(mag == pytest.approx(1.0, abs=1e-12) for _, mag in peaks)
        # still rising at t_max: no peak there
        peaks = critical_times(spec, SearchConfig(t_max=3.0 * math.pi - 0.01))
        assert [t for t, _ in peaks] == pytest.approx([math.pi], abs=1e-9)


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


def _sign_flip_chains():
    """The 5 presets at J 1, B 0.37, engineered N = 5, 8, 21 and 400 with a centre spin-1
    site, and 20 seeded random mixed-spin chains of up to 39 sites with site fields."""
    rng = np.random.default_rng(16)
    chains = [preset(name, 1.0, 0.37) for name in PRESET_NAMES]
    chains += [engineered_chain(n, spin_one_site=(n + 1) // 2) for n in (5, 8, 21, 400)]
    for _ in range(20):
        n = int(rng.integers(2, 40))
        chains.append(ChainSpec(
            sites=tuple(SiteSpec(SPIN_ONE if rng.uniform() < 0.5 else SPIN_HALF,
                                 float(rng.uniform(-1.0, 1.0))) for _ in range(n)),
            couplings=tuple(rng.uniform(-1.5, 1.5, n - 1).tolist())))
    return chains


def _flipped(spec):
    """spec with every coupling J -> -J."""
    return ChainSpec(sites=spec.sites, couplings=tuple(-j for j in spec.couplings))


class TestSignFlip:
    """J -> -J keeps the levels and multiplies the weights by (-1)^(N-1), bit for bit, so
    |f| and the corrected measures keep every bit."""

    def test_levels_keep_and_weights_take_the_sign(self):
        for spec in _sign_flip_chains():
            base, flipped = solve(spec), solve(_flipped(spec))
            sign = (-1.0) ** (len(spec.sites) - 1)
            assert flipped.levels.tobytes() == base.levels.tobytes(), spec
            assert flipped.weights.tobytes() == (sign * base.weights).tobytes(), spec

    def test_the_corrected_search_keeps_every_bit(self):
        cfg = SearchConfig(t_max=20.0)
        for spec in _sign_flip_chains():
            base = maximize_fidelity(spec, cfg, corrected=True)
            res = maximize_fidelity(_flipped(spec), cfg, corrected=True)
            assert (res.best_t, res.fbar_corrected, res.abs_f, res.evaluations) == (
                base.best_t, base.fbar_corrected, base.abs_f, base.evaluations), spec


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
        # the report is the phase law on the searched spectrum, at the box centre, bit
        # for bit, and a direct solve at (best_t, best_field) agrees to the 1e-12 of
        # verify's uniform-field-phase-law
        b_c, t = (b_lo + b_hi) / 2.0, np.array([res.best_t])
        turned = synthesize_f(solve(spec.with_uniform_field(b_c)), t) * np.exp(
            1j * (res.best_field - b_c) * t)
        assert res.fbar == average_fidelity(turned)[0]
        f = synthesize_f(solve(spec.with_uniform_field(res.best_field)), res.best_t)
        assert abs(res.fbar - average_fidelity(f)) <= 1e-12

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
    """`evaluations` counts every time point the search visits, once."""

    @pytest.fixture
    def synthesized(self, monkeypatch):
        # f reaches the search by three routes: the grid's block products, the
        # intervals resampled near the best (block products too), and _f_slopes
        # in the refine and for the report; returns the sizes of those calls
        points = []
        real_grid, real_slopes = optimize._grid_f, optimize._f_slopes
        real_resample = optimize._Search.resample

        def counting_grid(spectrum, pieces):
            grid, f = real_grid(spectrum, pieces)
            points.append(grid.size)
            return grid, f

        def counting_slopes(spectrum, t, scale):
            points.append(np.size(t))
            return real_slopes(spectrum, t, scale)

        def counting_resample(search, chosen):
            before = search.grid.size
            real_resample(search, chosen)
            points.append(search.grid.size - before)

        monkeypatch.setattr(optimize, "_grid_f", counting_grid)
        monkeypatch.setattr(optimize._Search, "resample", counting_resample)
        monkeypatch.setattr(optimize, "_f_slopes", counting_slopes)
        return points

    @pytest.mark.parametrize("corrected", [False, True])
    def test_maximize_fidelity(self, synthesized, corrected):
        res = maximize_fidelity(preset("sec2-three-spin-center", 1.0, 0.0),
                                SearchConfig(t_max=3.8), corrected=corrected)
        assert res.evaluations == sum(synthesized)
        assert len(synthesized) > 2  # one grid call, the refinements and the report

    def test_tune_uniform_field(self, synthesized):
        res = tune_uniform_field(preset("sec2-two-spin", 1.0, 0.0),
                                 SearchConfig(t_max=2.8), (0.0, 2.0))
        assert res.evaluations == sum(synthesized)

    @pytest.mark.parametrize("kind", ["plain", "corrected", "tuned"])
    def test_many_brackets(self, synthesized, kind):
        # unpruned, 43-45 brackets of about one width, refined in lockstep
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            res = _search(preset("sec3-three-spin-center", 0.9, 0.6), 200.0, kind, (0.0, 2.0))
        assert res.evaluations == sum(synthesized)

    @pytest.mark.parametrize("corrected, count", [(False, 262), (True, 265)])
    def test_count_is_that_of_the_scalar_search(self, corrected, count):
        # refining every bracket in lockstep visits the points of a search on each alone
        spec, cfg = preset("sec2-three-spin-center", 1.0, 0.0), SearchConfig(t_max=3.8)
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            res = maximize_fidelity(spec, cfg, corrected=corrected)
            with mock.patch.object(optimize, "_refine_brackets",
                                   TestLockstepRefine._scalar_brackets):
                alone = maximize_fidelity(spec, cfg, corrected=corrected)
        assert res.evaluations == alone.evaluations == count

    # 262, 265 and 1722 without pruning, which resamples every grid interval; the
    # last is the README example
    @pytest.mark.parametrize("system, t_max, corrected, count", [
        (("sec2-three-spin-center", 1.0, 0.0), 3.8, False, 260),
        (("sec2-three-spin-center", 1.0, 0.0), 3.8, True, 261),
        (("sec3-three-spin-center", 0.942809, 1.0), 200.0, True, 642),
    ])
    def test_pruned_count(self, synthesized, system, t_max, corrected, count):
        res = maximize_fidelity(preset(*system), SearchConfig(t_max=t_max), corrected=corrected)
        assert res.evaluations == sum(synthesized) == count


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


# One bracket refined alone, in scalar steps: the oracle of the lockstep _refine_brackets.
def _scalar_newton(slopes, scale, lo, hi, cfg):
    """(t, value, lo, hi) of the search on [lo, hi] alone, one time per call, and
    the kind of every step it takes: "newton", "end" or "midpoint"."""
    tol, a, b = cfg.refine_tol, lo, hi
    unseen_a = unseen_b = True
    x, kinds = lo + (hi - lo) / 2.0, []
    for _ in range(optimize._MAX_REFINE_ITERS):
        t, (value, d1, d2) = x, (float(column[0]) for column in slopes(np.array([x])))
        if not (d1 > 0.0 or d1 < 0.0):  # h' is 0 or NaN: no direction to go
            break
        up = d1 > 0.0
        if up:
            a, unseen_a = x, False
        else:
            b, unseen_b = x, False
        # the Newton step in tau = scale * t, as _refine_brackets takes it
        kind = "newton"
        nxt = (x * scale - d1 / d2) / scale if d2 < 0.0 else math.copysign(math.inf, d1)
        if up and not nxt < b:
            kind, nxt = ("end", b) if unseen_b else ("midpoint", a + (b - a) / 2.0)
        elif not up and not nxt > a:
            kind, nxt = ("end", a) if unseen_a else ("midpoint", a + (b - a) / 2.0)
        if not abs(nxt - x) > tol:
            break
        kinds.append(kind)
        x = nxt
    return (t, value, max(lo, t - tol), min(hi, t + tol)), kinds


def _bits(candidate):
    """(t, value, lo, hi) of one refined bracket, as hex."""
    return tuple(float(x).hex() for x in candidate)


@st.composite
def _chains(draw, max_sites=7, fields=st.floats(-2.0, 2.0)):
    n = draw(st.integers(2, max_sites))
    sites = tuple(SiteSpec(draw(st.sampled_from([SPIN_HALF, SPIN_ONE])), draw(fields))
                  for _ in range(n))
    return ChainSpec(sites=sites, couplings=tuple(draw(st.floats(0.2, 2.0)) for _ in range(n - 1)))


def _fbar_search(spec, cfg, corrected):
    """The _Search of maximize_fidelity on spec."""
    spectrum = solve(spec)
    measure = "corrected" if corrected else "plain"

    def objective(t, f, df=None):
        value = average_fidelity(f, corrected)
        return value if df is None else (value, *optimize._slopes(f, *df, measure))

    omega = optimize._effective_spread(spectrum, spectrum.spread, None if corrected else (0.0,))
    return optimize._Search(spectrum, objective, cfg, (cfg.t_max, spectrum.spread, omega))


class TestLockstepRefine:
    """_refine_brackets returns, bit for bit, what a scalar search gives on each bracket."""

    @staticmethod
    def _compare(spec, cfg, corrected):
        search = _fbar_search(spec, cfg, corrected)

        def scalar(t):
            visited[t[0].hex()] += 1
            return search.slopes(t)

        def counted(t):
            evaluated.update(x.hex() for x in t.tolist())
            return search.slopes(t)

        # the brackets _global_max refines, one around every grid minimum, and
        # windows of 40 grid steps, which hold several turns of the objective
        grid, values = search.grid, search.values
        inner = np.concatenate([optimize._interior_peaks(values), optimize._interior_peaks(-values)])
        los = np.concatenate([[grid[0], grid[-2]], grid[inner - 1], grid[:-40:3]])
        his = np.concatenate([[grid[1], grid[-1]], grid[inner + 1], grid[40::3]])
        visited = Counter()
        oracle = [_scalar_newton(scalar, search.scale, lo, hi, cfg)
                  for lo, hi in zip(los.tolist(), his.tolist())]
        # every pass on numpy arrays, the default switch, and every pass on Python floats
        for floats in (0, optimize._FLOAT_PASS_BRACKETS, sys.maxsize):
            evaluated = Counter()
            with mock.patch.object(optimize, "_FLOAT_PASS_BRACKETS", floats):
                refined = optimize._refine_brackets(counted, search.scale, los, his, cfg)
            assert [_bits(c) for c in zip(*refined)] == [_bits(c) for c, _ in oracle]
            # the lockstep evaluates the times the scalar searches visit, each as often
            assert evaluated == visited
        # alone, a bracket gets the same bits
        for k in range(0, los.size, max(1, los.size // 4)):
            alone, = zip(*optimize._refine_brackets(search.slopes, search.scale, los[k:k + 1],
                                                    his[k:k + 1], cfg))
            assert _bits(alone) == _bits(oracle[k][0])
        return [kinds for _, kinds in oracle]

    @pytest.mark.parametrize("corrected", [False, True])
    def test_every_branch_is_taken(self, corrected):
        spec = preset("sec3-three-spin-center", 0.9, 0.6)
        paths = self._compare(spec, SearchConfig(t_max=25.0), corrected)
        assert {kind for kinds in paths for kind in kinds} == {"newton", "end", "midpoint"}
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", 2):
            capped = self._compare(spec, SearchConfig(t_max=25.0), corrected)
        # two evaluations: a longer path is cut after its second step
        assert [len(kinds) for kinds in capped] == [min(len(kinds), 2) for kinds in paths]
        assert max(len(kinds) for kinds in paths) > 2

    @settings(max_examples=30, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 30.0), corrected=st.booleans(),
           max_iters=st.sampled_from([1, 2, 3, 4, 7, 200]))
    def test_random_chains(self, spec, t_max, corrected, max_iters):
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", max_iters):
            self._compare(spec, SearchConfig(t_max=t_max), corrected)

    # 115 brackets, as in a many-bracket search of the benchmark's optimize
    # inputs, whose largest searches hold 161-182 at seeds 1-3
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11, 40, 115])
    def test_each_call_holds_every_open_bracket(self, n):
        # a pass evaluates the open brackets in one call, and a bracket stays
        # open for as many calls as it takes alone
        sizes = []

        def slopes(t):  # cos(2 pi t) and its derivatives in tau = 8 t
            sizes.append(t.size)
            phase, rate = 2.0 * np.pi * t, 2.0 * np.pi / 8.0
            return np.cos(phase), -rate * np.sin(phase), -rate * rate * np.cos(phase)

        cfg = SearchConfig(t_max=float(n))
        los = np.arange(n) - 0.3
        refined = optimize._refine_brackets(slopes, 8.0, los, los + 0.5, cfg)
        assert refined[0] == pytest.approx(np.arange(n), abs=1e-8)
        lockstep, alone = sizes[:], []
        for lo in los:
            sizes.clear()
            optimize._refine_brackets(slopes, 8.0, [lo], [lo + 0.5], cfg)
            alone.append(len(sizes))
        assert lockstep == [sum(calls > k for calls in alone) for k in range(max(alone))]

    def test_both_updates_take_the_non_finite_branches(self):
        # synthetic slopes in tau = 8 t, one bracket [10 r + 1, 10 r + 3] per row r, and four
        # where x * 8 overflows, which no search reaches (f's phases E t overflow first)
        rows = [  # (h', h''), or from row 2 on (target, h'') with h' = 8 (target - t)
            (0.0, -1.0), (math.nan, -1.0),  # h' 0 and NaN at the midpoint
            (22.3, 0.0), (32.3, -0.0), (42.3, math.nan), (52.3, 1.0),  # end and midpoint steps
            (62.5, -1.0), (72.5, -1.0),  # a Newton step onto h' = 0, and onto NaN past 72.4
            (81.3, 0.0)]  # falling: the end a first

        def h(t):
            if t <= -1e300:  # rising: x * 8 is -inf and the step +inf, so the next x is NaN
                return 1e300, -1e-300
            if t >= 1e300:  # rising, falling (its step lands at inf, as the oracle's), flat
                return (1.0 if t < 1.3e308 else -1.0 if t < 1.65e308 else 0.0), -1.0
            r = int(t // 10.0)
            first, d2 = rows[r]
            if r < 2:
                return first, d2
            return (math.nan if r == 7 and t > 72.4 else 8.0 * first - 8.0 * t), d2

        def slopes(t):
            d1, d2 = np.array([h(x) for x in t.tolist()]).reshape(-1, 2).T
            return -np.abs(t - 1.0), d1, d2

        def scalar(t):
            visited[t[0].hex()] += 1
            return slopes(t)

        def counted(t):
            evaluated.update(x.hex() for x in t.tolist())
            return slopes(t)

        cfg = SearchConfig(t_max=100.0)
        los = np.array([10.0 * r + 1.0 for r in range(len(rows))]
                       + [-1.2e308, 1.0e308, 1.4e308, 1.7e308])
        his = np.array([10.0 * r + 3.0 for r in range(len(rows))]
                       + [-1.0e308, 1.2e308, 1.6e308, 1.79e308])
        visited = Counter()
        oracle = [_scalar_newton(scalar, 8.0, lo, hi, cfg) for lo, hi in zip(los.tolist(), his.tolist())]
        assert {kind for _, kinds in oracle for kind in kinds} == {"newton", "end", "midpoint"}
        # numpy arrays on every pass, a switch to floats at 4 open brackets, floats throughout
        for floats in (0, 4, sys.maxsize):
            evaluated = Counter()
            with mock.patch.object(optimize, "_FLOAT_PASS_BRACKETS", floats):
                refined = optimize._refine_brackets(counted, 8.0, los, his, cfg)
            assert [_bits(c) for c in zip(*refined)] == [_bits(c) for c, _ in oracle]
            assert evaluated == visited

    @staticmethod
    def _scalar_brackets(slopes, scale, los, his, cfg):
        """_refine_brackets by the scalar oracle, one bracket and one time at a time."""
        rows = [_scalar_newton(slopes, scale, lo, hi, cfg)[0]
                for lo, hi in zip(np.asarray(los).tolist(), np.asarray(his).tolist())]
        return tuple(np.array(rows, dtype=float).reshape(-1, 4).T)

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
        lockstep = _search(preset(*system), t_max, kind, box)
        with mock.patch.object(optimize, "_refine_brackets", self._scalar_brackets):
            oracle = _search(preset(*system), t_max, kind, box)
        assert _result_bits(lockstep) == _result_bits(oracle)
        if best_field is not None:  # np.clip keeps the sign of a zero edge
            assert lockstep.best_field.hex() == best_field.hex()


def _result_bits(res):
    """Every field of an OptimizationResult, floats as hex."""
    return [x.hex() if isinstance(x, float) else x
            for x in (res.best_t, res.best_field, res.fbar, res.fbar_corrected,
                      res.abs_f, res.evaluations, *res.bracket)]


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

# 0 or at least 2^-900 in magnitude: times 2^k with |k| <= 64, and as a product B_i s_i,
# such a field or box edge stays normal, so power-of-two scaling rounds it exactly
_normal_floats = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-900)
_normal_boxes = st.tuples(_normal_floats, st.floats(0.05, 10.0)).map(lambda p: (p[0], p[0] + p[1]))


class TestLockstepSearches:
    """Refining every bracket in lockstep changes no bit of any search result, evaluations
    included."""

    @staticmethod
    def _results(spec, t_max, box):
        peaks = critical_times(spec, SearchConfig(t_max=t_max))
        return ([_result_bits(_search(spec, t_max, kind, box))
                 for kind in ("plain", "corrected", "tuned")],
                [(t.hex(), value.hex()) for t, value in peaks])

    # horizons from one bracket to hundreds, each refine capped at 1, 2, 3 and 7 steps
    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 80.0), box=_boxes,
           max_iters=st.sampled_from([1, 2, 3, 7, 200]))
    def test_searches_return_the_scalar_oracle_result(self, spec, t_max, box, max_iters):
        with mock.patch.object(optimize, "_MAX_REFINE_ITERS", max_iters):
            lockstep = self._results(spec, t_max, box)
            with mock.patch.object(optimize, "_refine_brackets",
                                   TestLockstepRefine._scalar_brackets):
                oracle = self._results(spec, t_max, box)
        assert lockstep == oracle


class TestSlopes:
    """The refine's closed-form derivatives are those of the objective's values."""

    @settings(max_examples=30, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 30.0), box=_boxes,
           kind=st.sampled_from(["abs", "plain", "corrected", "tuned"]))
    def test_slopes_match_central_differences(self, spec, t_max, box, kind):
        # h' and h'' (3 h' and 3 h'' for a fidelity) in tau = scale * t, against
        # central differences of the values at a step of 1e-4 in tau
        if kind == "abs":
            patch, calls = _recording("_refine_brackets")
            with patch:
                critical_times(spec, SearchConfig(t_max=t_max))
            if not calls:
                return
            search, factor = calls[0][0][0].__self__, 1.0
        else:
            patch, calls = _recording("_global_max")
            with patch:
                _search(spec, t_max, kind, box)
            search, factor = calls[0][0][0], 3.0
        step = 1e-4 / search.scale
        t = np.linspace(2.0 * step, t_max - 2.0 * step, 41)
        value, h1, h2 = search.slopes(t)
        below = search.objective(t - step, synthesize_f(search.spectrum, t - step))
        above = search.objective(t + step, synthesize_f(search.spectrum, t + step))
        keep = np.ones(t.size, dtype=bool)
        if kind == "tuned":  # the field on one piece at all three times: inside the box or at one edge
            b_lo, b_hi = box
            b_c = (b_lo + b_hi) / 2.0
            fields = [np.clip(b_c - np.angle(synthesize_f(search.spectrum, u)) / u, b_lo, b_hi)
                      for u in (t - step, t, t + step)]
            inside = [(b_lo < b) & (b < b_hi) for b in fields]
            keep = (inside[0] & inside[1] & inside[2]) | (
                (fields[0] == fields[1]) & (fields[1] == fields[2]))
        elif kind != "plain":  # |f| has a kink where f = 0
            keep = np.abs(synthesize_f(search.spectrum, t)) > 1e-3
        slope = factor * (above - below) / 2e-4
        curvature = factor * (above - 2.0 * value + below) / 1e-8
        assert np.allclose(h1[keep], slope[keep], rtol=1e-5, atol=1e-6)
        assert np.allclose(h2[keep], curvature[keep], rtol=1e-3, atol=1e-5)


def _scaled(spec, c):
    """spec with every coupling and field times c."""
    return ChainSpec(sites=tuple(SiteSpec(site.spin, site.field * c) for site in spec.sites),
                     couplings=tuple(j * c for j in spec.couplings))


class TestExactSymmetries:
    """Power-of-two scaling and the sign flip J -> -J, bit for bit, on random mixed-spin
    chains of up to 40 sites."""

    @settings(max_examples=20, deadline=None)
    @given(spec=_chains(max_sites=40, fields=_normal_floats), k=st.integers(-64, 64),
           t_max=st.floats(1.0, 20.0), box=_normal_boxes)
    def test_power_of_two_scaling_keeps_every_bit(self, spec, k, t_max, box):
        # J, B and the field box times c = 2^k and t_max over c: the levels times c
        # and the same weights; every time over c, every field times c, the same
        # values and evaluations
        c = 2.0**k
        scaled = _scaled(spec, c)
        base, big = solve(spec), solve(scaled)
        assert big.levels.tobytes() == (c * base.levels).tobytes()
        assert big.weights.tobytes() == base.weights.tobytes()
        for kind in ("plain", "corrected", "tuned"):
            res = _search(scaled, t_max / c, kind, (box[0] * c, box[1] * c))
            res = dataclasses.replace(res, best_t=res.best_t * c,
                                      bracket=tuple(end * c for end in res.bracket),
                                      best_field=res.best_field and res.best_field / c)
            assert _result_bits(res) == _result_bits(_search(spec, t_max, kind, box)), kind
        peaks = [(t * c, value) for t, value in critical_times(scaled, SearchConfig(t_max / c))]
        assert np.array(peaks).tobytes() == np.array(critical_times(spec, SearchConfig(t_max))).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(spec=_chains(max_sites=40), t_max=st.floats(1.0, 20.0))
    def test_sign_flip_keeps_the_corrected_search_and_the_peaks(self, spec, t_max):
        # f changes sign for even N: |f| and the corrected measures keep every bit
        def bits(res):
            return _result_bits(res)[:1] + _result_bits(res)[3:]  # all but best_field and fbar

        cfg = SearchConfig(t_max=t_max)
        assert bits(maximize_fidelity(_flipped(spec), cfg, corrected=True)) == bits(
            maximize_fidelity(spec, cfg, corrected=True))
        assert np.array(critical_times(_flipped(spec), cfg)).tobytes() == np.array(
            critical_times(spec, cfg)).tobytes()


def _uniform_chain(n):
    """n spin-1/2 sites, no fields, every coupling 1."""
    return ChainSpec(sites=(SiteSpec(SPIN_HALF),) * n, couplings=(1.0,) * (n - 1))


def _ratchet_searches():
    """The work ratchet's fixed set, as calls: the five presets at J 1, B 0.37 and
    engineered N = 5, 8 and 21 with a centre spin-1 site, plain and corrected at
    t_max 20; both README examples; a uniform 6-site chain at t_max 1, whose
    plain Fbar is flat to round-off near t = 0 (ROADMAP's smaller carry-overs);
    and the corrected search on engineered N = 401 and 1,001 at t_max 20 pi, the
    north star's sizes, whose counts are the same under every OpenBLAS kernel set
    tried (SkylakeX, Haswell, Zen, Sandybridge)."""
    cfg = SearchConfig(t_max=20.0)
    chains = [preset(name, 1.0, 0.37) for name in PRESET_NAMES]
    chains += [engineered_chain(n, spin_one_site=(n + 1) // 2) for n in (5, 8, 21)]
    calls = [lambda spec=spec, corrected=corrected: maximize_fidelity(spec, cfg, corrected)
             for spec in chains for corrected in (False, True)]
    return calls + [
        lambda: maximize_fidelity(preset("sec3-three-spin-center", 0.942809, 1.0),
                                  SearchConfig(t_max=200.0), corrected=True),
        lambda: tune_uniform_field(preset("sec2-three-spin-center", 1.0, 0.0),
                                   SearchConfig(t_max=3.8), (0.0, 3.0)),
        lambda: maximize_fidelity(_uniform_chain(6), SearchConfig(t_max=1.0)),
    ] + [lambda n=n: maximize_fidelity(engineered_chain(n, spin_one_site=n // 2 + 1),
                                       SearchConfig(t_max=20.0 * math.pi), corrected=True)
         for n in (401, 1001)]


def test_the_work_of_a_fixed_set_of_searches_is_pinned(monkeypatch):
    # a ratchet: a change that lowers the work lowers these pins in the same
    # commit; raising them is a declared contract move.  Calls are the objective
    # calls after the grid (the resample's block products, the refine's passes and
    # the report's _f_slopes).
    calls = []

    def counted(real):
        def call(*args):
            calls.append(1)
            return real(*args)
        return call

    for name in ("_f_slopes", "_block_f"):
        monkeypatch.setattr(optimize, name, counted(getattr(optimize, name)))
    evaluations, most = 0, 0
    for search in _ratchet_searches():
        calls.clear()
        evaluations += search().evaluations
        most = max(most, len(calls))
    assert (evaluations, most) == (14575, 6)


def test_the_bytes_of_the_small_searches_are_pinned():
    # a byte ratchet beside the work ratchet: one SHA-256 over the repr of every result
    # of its searches up to N = 21, the same under the SkylakeX, Haswell, Sandybridge
    # and Zen kernels and at one or two BLAS threads.  A change that moves a bit of one
    # re-pins it in the same commit and says why.  N = 401 and 1,001 are left out:
    # their bits follow the BLAS thread count (ROADMAP item 14)
    digest = hashlib.sha256()
    for search in _ratchet_searches()[:-2]:  # all but engineered N = 401 and 1,001
        digest.update(repr(search()).encode())
    assert digest.hexdigest() == "c96f635039cce0bd0d244ff31dcd1136c4256efe6de9eaea832602738d7acfa1"


def test_the_work_of_a_tuned_search_past_the_sample_floor_is_pinned():
    # the ratchet's one tuned search runs on the 256-step floor's grid; here the first
    # piece's pi / (10 Omega_eff) spacing sets the grid (34 ms).  The last bit of fbar
    # follows eigh's kernel set and thread count; evaluations do not.
    res = tune_uniform_field(engineered_chain(401, spin_one_site=201),
                             SearchConfig(t_max=20.0 * math.pi), (-0.5, 0.5))
    assert res.evaluations == 3549
    assert res.fbar == pytest.approx(0.9997914529933931, abs=1e-15)


class TestPruning:
    """Skipping brackets that cannot win changes nothing but the evaluation count."""

    @staticmethod
    def _pieces(spec, kind, box):
        """(t_end, Omega, Omega_eff) pieces: Omega bounds every frequency of the objective
        there, and Omega_eff = min(Omega, sqrt(M2 (1 + 2 S))) its curvature, with S =
        sum_k |w_k| and M2 = sum_k |w_k| (nu_k - c)^2 at the larger of the centres c,
        formed here from eigensolve's vectors on the raw levels."""
        def effective(omega, nu, w, centres):
            s = np.sum(np.abs(w))
            m2 = max(np.sum(np.abs(w) * (nu - c) ** 2) for c in centres)
            return min(omega, math.sqrt(m2 * (1.0 + 2.0 * s)))

        def mean(nu, w):
            return np.sum(np.abs(w) * nu) / np.sum(np.abs(w)) if np.any(w) else 0.0

        h = reduce(spec.with_uniform_field((box[0] + box[1]) / 2.0) if kind == "tuned" else spec)
        values, vectors = eigensolve(h)
        nu, w = values - h.vacuum_energy, vectors[0] * vectors[-1]  # a field b shifts nu by b - b_c
        if kind != "tuned":
            omega = max(np.max(np.abs(nu)), np.ptp(nu))
            return [(math.inf, omega,
                     effective(omega, nu, w, [0.0] if kind == "plain" else [mean(nu, w)]))]
        width = box[1] - box[0]
        omega = max(np.max(np.abs(nu)) + width / 2.0, np.ptp(nu))
        return [(2.0 * math.pi / width, omega,
                 effective(omega, nu, w, [-width / 2.0, width / 2.0])),
                (math.inf, np.ptp(nu),  # centred levels after the phase is aligned
                 effective(np.ptp(nu), nu, w, [mean(nu, w)]))]

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    # levels -2.81, -2.24 and 0.56: max |nu_k| + W / 2 is 3.31, the spread plus W / 2 3.87
    @example(spec=ChainSpec(sites=(SiteSpec(SPIN_HALF, 2.0), SiteSpec(SPIN_HALF, 0.0),
                                   SiteSpec(SPIN_ONE, 1.0)), couplings=(1.0, 2.0)),
             t_max=22.0, kind="tuned", box=(0.0, 1.0))
    def test_grid_spacing_bounds_every_frequency(self, spec, t_max, kind, box):
        patch, searches = _recording("_global_max")
        grid_patch, grids = _recording("_grid_f")
        with patch, grid_patch:
            _search(spec, t_max, kind, box)
        ((search, _), _), = searches
        (_, (grid, grid_f)), = grids
        values = search.objective(grid, grid_f)
        pieces, start = self._pieces(spec, kind, box), 0.0
        for t_end, omega, omega_eff in pieces:
            t_end = min(t_end, t_max)
            piece = grid[(grid >= start) & (grid <= t_end)]
            assert piece[0] == start and piece[-1] == t_end  # no step straddles a piece end
            # 1e-12: linspace rounds each point, and the search forms the moments on nu / Omega
            assert np.all(np.diff(piece) <= math.pi / (10.0 * omega_eff) * (1.0 + 1e-12))
            # Omega_eff <= Omega: never more steps than a grid spaced for Omega (+1 for rounding)
            spacing = min(t_max / 256, math.pi / (10.0 * omega))
            assert piece.size - 1 <= math.ceil((t_end - start) / spacing) + 1
            start = t_end
        # between grid points the objective stays below the chord plus the parabola of
        # curvature -Omega_eff^2 / 3 through both ends, plus the grid values' error; its
        # top lies at most _MAX_RISE above the larger end (as _global_max prunes)
        error = 2.0 * (2.0 / 3.0) * search.grid_error
        ends = [min(t_end, t_max) for t_end, _, _ in pieces]
        owner = np.searchsorted(ends, grid[:-1], side="right")
        curvature = np.array([omega_eff for _, _, omega_eff in pieces])[owner] ** 2 / 3.0
        step, x = np.diff(grid)[:, None], np.arange(1, 8) / 8.0
        assert np.all(curvature * step[:, 0] ** 2 / 8.0 <= optimize._MAX_RISE * (1.0 + 1e-12))
        inner = (grid[:-1, None] + step * x).ravel()
        dense = search.objective(inner, synthesize_f(search.spectrum, inner)).reshape(-1, 7)
        u, v = values[:-1], values[1:]
        chord = u[:, None] + (v - u)[:, None] * x + curvature[:, None] * step**2 * x * (1.0 - x) / 2.0
        assert np.all(dense <= chord + error)
        # so every interval whose top, with _MAX_RISE for the parabola's, comes within
        # 2 _TIE_TOL of the largest grid value is resampled at its piece's pi / (10 Omega),
        # the others hold no value that close, and keep their grid points
        gap, rise = np.abs(v - u), optimize._MAX_RISE
        top = np.where(gap < 4.0 * rise, (u + v) / 2.0 + rise + gap**2 / (16.0 * rise),
                       np.maximum(u, v))
        near = top + error >= values.max() - 2.0 * optimize._TIE_TOL
        assert np.all(dense[~near] < values.max() - 2.0 * optimize._TIE_TOL)
        merged = search.grid
        owner = np.searchsorted(grid, merged[:-1], side="right") - 1
        assert np.array_equal(merged[np.isin(merged, grid)], grid)
        assert np.array_equal(np.unique(owner), np.arange(grid.size - 1))
        assert not np.any(~near[owner[:-1]] & (owner[:-1] == owner[1:]))
        omegas = np.array([omega for _, omega, _ in pieces])
        fine = math.pi / (10.0 * omegas[np.searchsorted(ends, merged[:-1], side="right")])
        assert np.all((np.diff(merged) <= fine * (1.0 + 1e-12))[near[owner]])
        assert np.array_equal(search.values[np.isin(merged, grid)], values)

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_no_bracket_rises_further_than_the_bound(self, spec, t_max, kind, box):
        # without pruning every interval is resampled, and the brackets lie on those samples
        rise = optimize._MAX_RISE
        global_patch, searches = _recording("_global_max")
        refine_patch, refines = _recording("_refine_brackets")
        with global_patch, refine_patch, mock.patch.object(optimize, "_MAX_RISE", math.inf):
            _search(spec, t_max, kind, box)
        ((search, _), _), = searches
        ((slopes, _, los, his, _), refined), = refines
        grid = search.grid
        values = slopes(grid)[0]
        for lo, hi, value in zip(los, his, refined[1]):
            inside = values[np.searchsorted(grid, lo):np.searchsorted(grid, hi, side="right")]
            assert value <= np.max(inside) + rise

    @settings(max_examples=60, deadline=None)
    @given(spec=_chains(), t_max=st.floats(1.0, 60.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    # _MAX_RISE also sets the intervals near_best resamples: inf in near_best too
    # resampled every interval here, and the refine took another Newton path to
    # best_t 1.2322340188012544, 1.1e-10 from the pruned search's
    @example(spec=ChainSpec(sites=(SiteSpec(SPIN_ONE, 0.0), SiteSpec(SPIN_ONE, 0.5)),
                            couplings=(1.25,)), t_max=36.0, kind="corrected", box=(0.0, 1.0))
    def test_pruned_search_is_bit_identical(self, spec, t_max, kind, box):
        # pruning off alone: _global_max refines every bracket, on the same samples
        real_global_max = optimize._global_max

        def unpruned(search, cfg):
            with mock.patch.object(optimize, "_MAX_RISE", math.inf):
                return real_global_max(search, cfg)

        pruned = _search(spec, t_max, kind, box)
        with mock.patch.object(optimize, "_global_max", unpruned):
            full = _search(spec, t_max, kind, box)

        def bits(res):
            return np.array([res.best_t, res.fbar, res.fbar_corrected, res.abs_f, *res.bracket,
                             res.best_field if kind == "tuned" else 0.0]).tobytes()

        assert bits(pruned) == bits(full)
        assert pruned.evaluations <= full.evaluations

    def test_a_grid_peak_that_refines_low_reopens_the_pruned_brackets(self):
        # a spike on one grid point is the largest grid value, but the refine
        # of its bracket starts at the midpoint 5.1, one ulp off the grid time
        # 5.1000000000000005, and never lands on it: the bump pruned against it
        # must still be refined
        grid = np.linspace(0.0, 10.0, 101)
        spike = grid[51]

        def slopes(t):  # the objective and its derivatives in tau = t
            u = (t - 2.05) / 0.3
            bump = 0.49 * np.exp(-u * u)
            on = t == spike
            return (np.where(on, 1.0, 0.5 + bump), np.where(on, 0.0, -2.0 * u / 0.3 * bump),
                    np.where(on, 0.0, (4.0 * u * u - 2.0) / 0.09 * bump))

        search = SimpleNamespace(grid=grid, values=slopes(grid)[0], grid_error=0.0,
                                 slopes=slopes, scale=1.0)
        cfg = SearchConfig(t_max=10.0)
        assert search.values.max() == 1.0
        assert search.values[19:23].max() + optimize._MAX_RISE < 1.0
        best_t, bracket = optimize._global_max(search, cfg)
        assert best_t == pytest.approx(2.05, abs=1e-9)
        with mock.patch.object(optimize, "_MAX_RISE", math.inf):
            assert optimize._global_max(search, cfg) == (best_t, bracket)

    def test_earliest_candidate_within_the_tie_margin_of_the_largest_wins(self):
        # flat tops refine to exactly their height; a chain of near-ties goes to
        # the earliest top within _TIE_TOL of the highest, not along the chain
        tops = [(2.0, 1.0), (5.0, 1.0 + 0.8e-12), (8.0, 1.0 + 1.6e-12)]

        def slopes(t):
            out = np.full(t.shape, 0.5)
            for centre, height in tops:
                out[np.abs(t - centre) < 0.35] = height
            return out, np.zeros(t.shape), np.zeros(t.shape)

        grid = np.linspace(0.0, 10.0, 101)
        search = SimpleNamespace(grid=grid, values=slopes(grid)[0], grid_error=0.0,
                                 slopes=slopes, scale=1.0)
        best_t, _ = optimize._global_max(search, SearchConfig(t_max=10.0))
        assert abs(best_t - 5.0) < 0.35


@st.composite
def _periodic_chains(draw):
    """Chains whose f lies on two levels, or on equally spaced ones."""
    kind = draw(st.sampled_from(["two-level", "sec2-three-spin-center", "engineered"]))
    if kind == "engineered":
        return engineered_chain(draw(st.integers(2, 9)), draw(st.floats(0.2, 2.0)))
    name = draw(st.sampled_from(["sec2-two-spin", "sec3-two-spin"])) if kind == "two-level" else kind
    return preset(name, draw(st.floats(0.2, 2.0)), draw(st.floats(-2.0, 2.0)))


def _sampled_best(spec, t_max, kind, box=None):
    """The largest objective value on synthesize_f's sample twice as dense as a grid
    spaced at most t_max / 256 and pi / (10 Omega) apart, with Omega the spread (plus
    half the box width for the tuned search).  The tuned
    value at t is the plain Fbar with Re f e^{i phi t} at its largest over the box's
    fields phi: |f| where the phases arg f + phi t span a multiple of 2 pi, else the
    larger of the two edges'."""
    b_c = 0.0 if box is None else (box[0] + box[1]) / 2.0
    spectrum = solve(spec.with_uniform_field(b_c) if kind == "tuned" else spec)
    half = 0.0 if kind != "tuned" else (box[1] - box[0]) / 2.0
    steps = 2 * math.ceil(t_max / min(t_max / 256, math.pi / (10.0 * (spectrum.spread + half))))
    t = np.linspace(0.0, t_max, steps + 1)
    f = synthesize_f(spectrum, t)
    if kind != "tuned":
        return float(average_fidelity(f, kind == "corrected").max())
    mag, lo, hi = np.abs(f), np.angle(f) - half * t, np.angle(f) + half * t
    spans = np.floor(hi / (2.0 * math.pi)) >= np.ceil(lo / (2.0 * math.pi))
    re = np.where(spans, mag, mag * np.maximum(np.cos(lo), np.cos(hi)))
    return float(np.max(0.5 + re / 3.0 + mag**2 / 6.0))


def _found(spec, t_max, kind, box=None):
    res = _search(spec, t_max, kind, box)
    return res.fbar_corrected if kind == "corrected" else res.fbar


class TestDenseAudit:
    """At the north star's size, each search's optimum is checked against values it
    never saw: synthesize_f's objective on a sample twice as dense as a grid spaced
    for the full spread (the search's own samples, spaced for Omega_eff and near the
    best for the spread, are no denser)."""

    @pytest.mark.parametrize("n, corrected", [(400, False), (401, True)])
    def test_no_sample_beats_the_search(self, n, corrected):
        # engineered chains at t_max = 10 pi; the sample is spaced at pi / (20 spread)
        spec = engineered_chain(n, spin_one_site=n // 2 + 1)
        kind = "corrected" if corrected else "plain"
        assert _found(spec, 10.0 * math.pi, kind) >= (
            _sampled_best(spec, 10.0 * math.pi, kind) - 2.0 * optimize._TIE_TOL)

    def test_no_sample_beats_the_tuned_search(self):
        # engineered N = 401 at t_max = 10 pi, the box (-0.5, 0.5): the sample is spaced
        # at pi / (20 (spread + 1 / 2))
        spec, box = engineered_chain(401, spin_one_site=201), (-0.5, 0.5)
        assert _found(spec, 10.0 * math.pi, "tuned", box) >= (
            _sampled_best(spec, 10.0 * math.pi, "tuned", box) - 2.0 * optimize._TIE_TOL)

    # on 300 such chains the sample's largest value exceeded the search's by at most 9.2e-13
    @settings(max_examples=60, deadline=None)
    @given(spec=_chains(max_sites=60) | _periodic_chains(), t_max=st.floats(1.0, 50.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_no_sample_beats_the_search_on_random_chains(self, spec, t_max, kind, box):
        # mixed-spin chains with site fields, and chains whose f lies on two or on
        # equally spaced levels, so that the objective is periodic
        box = box if kind == "tuned" else None
        assert _found(spec, t_max, kind, box) >= (
            _sampled_best(spec, t_max, kind, box) - 2.0 * optimize._TIE_TOL)


def _chain(spins, fields, couplings):
    return ChainSpec(sites=tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields)),
                     couplings=tuple(couplings))


# Two chains that transfer weakly (sum_k |w_k| about 0.007), on which a grid spaced
# for Omega_eff alone returned maxima 4.6e-5 to 1.5e-4 too low
_CHAIN_A = _chain((0.5, 0.5, 1, 1, 1, 0.5, 1, 0.5, 1, 0.5), (0, 2, -1.5, 0, 0, 1, 0, 0, 0, 0),
                  (0.5, 1, 0.25, 2, 0.25, 0.5, 2, 2, 1))
_CHAIN_B = _chain((0.5,) * 18, (0, 0, 0, 0, 0.75) + (0,) * 11 + (1.5, 2),
                  (1, 1, 1, 0.25, 1, 1, 1, 0.5, 1, 1, 0.5, 1, 0.25, 1, 2, 1, 1))


def _weak_chain(rng):
    """2-40 sites of spin 1/2, 1 or 3/2 (probabilities 0.7, 0.2, 0.1), 30 % of them
    with a field from U(-2, 2), and couplings from {0.25, 0.5, 1, 2}: most such
    chains transfer weakly."""
    n = int(rng.integers(2, 41))
    spins = rng.choice([0.5, 1.0, 1.5], size=n, p=[0.7, 0.2, 0.1])
    fields = np.where(rng.random(n) < 0.3, rng.uniform(-2.0, 2.0, n), 0.0)
    couplings = rng.choice([0.25, 0.5, 1.0, 2.0], n - 1)
    return _chain(spins.tolist(), fields.tolist(), couplings.tolist())


class TestWeakChains:
    """Where f is weak, Omega_eff lies far below the spread and a grid spaced for it
    alone can step over the maximum; the intervals near the best are resampled for
    the spread, so no sample at pi / (20 spread) beats the search."""

    @pytest.mark.parametrize("spec, t_max, kind, box", [
        pytest.param(_CHAIN_A, 500.0, "corrected", None, id="A-corrected"),
        pytest.param(_CHAIN_A, 1000.0, "tuned", (-0.5, 0.5), id="A-tuned"),
        # Omega_eff 0.047 against a spread of 3.51: the grid's step is 6.25
        pytest.param(_CHAIN_B, 1600.0, "plain", None, id="B-plain"),
    ])
    def test_no_sample_beats_the_search(self, spec, t_max, kind, box):
        assert _found(spec, t_max, kind, box) >= (
            _sampled_best(spec, t_max, kind, box) - 2.0 * optimize._TIE_TOL)

    def test_a_seeded_sweep(self):
        # 63 chains at horizons log-uniform in [1, 3000], plain, corrected and tuned
        # in turn; a grid spaced for Omega_eff alone fell short on seeds 21, 51 and
        # 61, by up to 4.9e-5
        short = []
        for seed in range(63):
            rng = np.random.default_rng(seed)
            spec, t_max = _weak_chain(rng), float(np.exp(rng.uniform(0.0, math.log(3000.0))))
            kind = ("plain", "corrected", "tuned")[seed % 3]
            box = (-0.5, 0.5) if kind == "tuned" else None
            gap = _sampled_best(spec, t_max, kind, box) - _found(spec, t_max, kind, box)
            if gap > 2.0 * optimize._TIE_TOL:
                short.append((seed, gap))
        assert short == []


class TestOneSolve:
    """Every search solves its chain once and reports the value it maximised: the
    objective at best_t, bit for bit, from synthesize_f on a one-element array."""

    @pytest.mark.parametrize("search", [
        lambda spec, cfg: critical_times(spec, cfg),
        lambda spec, cfg: maximize_fidelity(spec, cfg),
        lambda spec, cfg: maximize_fidelity(spec, cfg, corrected=True),
        lambda spec, cfg: tune_uniform_field(spec, cfg, (0.0, math.pi / 8.0)),
    ], ids=["critical_times", "plain", "corrected", "tuned"])
    def test_one_solve(self, search):
        with mock.patch.object(optimize, "solve", wraps=optimize.solve) as solved:
            search(preset("sec2-two-spin", 1.0, 0.0), SearchConfig(t_max=2.0))
        assert solved.call_count == 1

    # a narrow box, (0, pi / 8) at t_max 2, whose report by a direct solve at the chosen
    # field lay 2 ulp from the searched value, and the weak chains A and B
    @pytest.mark.parametrize("spec, t_max, box", [
        pytest.param(preset("sec2-two-spin", 0.5, 0.0), 2.0, (0.0, math.pi / 8.0), id="narrow-box"),
        pytest.param(_CHAIN_A, 200.0, (-0.5, 0.5), id="A"),
        pytest.param(_CHAIN_B, 300.0, (-0.5, 0.5), id="B"),
    ])
    @pytest.mark.parametrize("kind", ["plain", "corrected", "tuned"])
    def test_the_report_is_the_maximised_value(self, spec, t_max, box, kind):
        patch, searches = _recording("_global_max")
        with patch:
            res = _search(spec, t_max, kind, box)
        ((search, _), _), = searches
        t = np.array([res.best_t])
        value = search.objective(t, synthesize_f(search.spectrum, t))
        assert (res.fbar_corrected if kind == "corrected" else res.fbar) == value[0]


class TestReport:
    """The report's fbar, fbar_corrected and abs_f are fidelity_report's at best_t, bit
    for bit, at |f| = 0, below 1 and in (1, 1 + _CLAMP_EXCESS], where f is rescaled."""

    @pytest.mark.parametrize("f", [
        0j, complex(-0.0, 0.0), 0.3 - 0.4j, complex(-0.6, 1e-17), 0.8j,
        (1.0 + 4e-10) * np.exp(0.7j), (1.0 + 4e-10) * np.exp(-2.9j), complex(1.0 + 9e-10, 0.0),
    ])
    @pytest.mark.parametrize("kind", ["plain", "corrected", "tuned"])
    def test_the_report_is_fidelity_reports(self, kind, f):
        calls, real = [], optimize._Search.result

        def record(search, *args):
            calls.append((search, args))
            return real(search, *args)

        with mock.patch.object(optimize._Search, "result", record):
            _search(preset("sec2-two-spin", 1.0, 0.0), 2.0, kind, (0.0, math.pi / 8.0))
        (search, (best_t, bracket, *tuned)), = calls
        # f at best_t as _f_slopes' first row; the tuned report turns it by its field's phase
        rows = np.array([[f], [0j], [0j]])
        with mock.patch.object(optimize, "_f_slopes", lambda *args: rows.copy()):
            res = search.result(best_t, bracket, *tuned)
        reported = f
        if tuned:
            reported = (rows[0] * tuned[0](np.array([best_t]), rows[0])[1])[0]
        if abs(f) > 1.0:
            assert 1.0 < abs(reported) <= 1.0 + fidelity._CLAMP_EXCESS
        rep = fidelity.fidelity_report(best_t, reported)
        got, want = (res.fbar, res.fbar_corrected, res.abs_f), (rep.fbar, rep.fbar_corrected,
                                                                rep.abs_f)
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def _tuned_both_branches(box, scale, t, f, f1, f2):
    """The tuned objective with its slopes as both full branches picked by np.where, and
    the field at each time: the oracle of the objective that forms the edge slopes only
    where the field sits on an edge."""
    b_lo, b_hi = box
    b_c = (b_lo + b_hi) / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b = np.where(t > 0.0, b_c - np.arctan2(f.imag, f.real) / t, b_c).clip(b_lo, b_hi)
    turn = np.exp(1j * (b - b_c) * t)
    value = average_fidelity(f * turn)
    phi = (b - b_c) / scale
    turned = f * turn, (f1 + 1j * phi * f) * turn, (f2 + 2j * phi * f1 - phi * phi * f) * turn
    inside = (b_lo < b) & (b < b_hi)
    return b, (value, *(np.where(inside, aligned, edge) for aligned, edge in zip(
        optimize._slopes(f, f1, f2, "corrected"), optimize._slopes(*turned, "plain"))))


@st.composite
def _tuned_points(draw, half):
    """Arrays (t, f, f1, f2) and where their fields lie: "inside" the box, on its "edges"
    or "mixed".  arg f = -u half t with |u half t| <= pi, so for t > 0 and f != 0 the field
    is about b_c + u half: |u| < 1 inside, |u| > 1 clipped to an edge."""
    where = draw(st.sampled_from(["inside", "edges", "mixed"]))
    t_max = math.pi / (3.0 * half)
    times, sizes = st.floats(1e-6 * t_max, t_max), st.floats(1e-6, 1.0)
    offsets = {"inside": st.floats(-0.99, 0.99),
               "edges": st.tuples(st.floats(1.01, 3.0), st.sampled_from([-1.0, 1.0])).map(
                   lambda p: p[0] * p[1]),
               "mixed": st.floats(-3.0, 3.0)}[where]
    if where == "mixed":  # t = 0 or f = 0 keeps the field at b_c
        times, sizes = times | st.just(0.0), sizes | st.just(0.0)
    parts = st.floats(-2.0, 2.0)
    rows = draw(st.lists(st.tuples(times, offsets, sizes, parts, parts, parts, parts),
                         min_size=1, max_size=40))
    t, u, r, *parts = (np.array(column) for column in zip(*rows))
    f = r * np.exp(-1j * u * half * t)
    return where, t, f, parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]


class TestTunedObjective:
    """The tuned objective's value and both slopes are those of both branches picked by
    np.where, bit for bit, with fields inside the box, on each edge and mixed."""

    @settings(max_examples=60, deadline=None)
    @given(box=st.sampled_from([(-1.0, 0.0), (-1.0, -0.0), (0.0, 2.0), (-0.0, 2.0)]) | _boxes,
           data=st.data())
    def test_the_slopes_are_the_both_branches_form(self, box, data):
        patch, searches = _recording("_global_max")
        with patch:
            tune_uniform_field(preset("sec3-two-spin", 1.0, 0.5), SearchConfig(t_max=3.0), box)
        ((search, _), _), = searches
        where, t, f, f1, f2 = data.draw(_tuned_points((box[1] - box[0]) / 2.0))
        b, want = _tuned_both_branches(box, search.scale, t, f, f1, f2)
        inside = (box[0] < b) & (b < box[1])
        at_edge = (b == box[0]) | (b == box[1])
        if where == "inside":
            assert inside.all()
        elif where == "edges":
            assert at_edge.all()
        assert (inside | at_edge).all()
        got = search.objective(t, f, (f1, f2))
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def _bracket_cases():
    """The per-bracket audit's inputs: the five presets at J 1, B 0.37 and t_max 20,
    engineered N = 5-20 with a spin-1 site at 60 pi, plain and corrected,
    engineered N = 400 plain and N = 401 corrected at 10 pi, and the weak chains
    A (corrected, t_max 500) and B (plain, t_max 1600)."""
    cases = [pytest.param(preset(name, 1.0, 0.37), 20.0, corrected,
                          id=f"{name}-{'corrected' if corrected else 'plain'}")
             for name in PRESET_NAMES for corrected in (False, True)]
    cases += [pytest.param(engineered_chain(n, spin_one_site=n // 2 + 1), 60.0 * math.pi,
                           corrected, id=f"engineered-{n}-{'corrected' if corrected else 'plain'}")
              for n in range(5, 21) for corrected in (False, True)]
    return cases + [pytest.param(engineered_chain(n, spin_one_site=n // 2 + 1), 10.0 * math.pi,
                                 corrected, id=f"engineered-{n}-{kind}")
                    for n, corrected, kind in ((400, False, "plain"), (401, True, "corrected"))] + [
        pytest.param(_CHAIN_A, 500.0, True, id="A-corrected"),
        pytest.param(_CHAIN_B, 1600.0, False, id="B-plain")]


class TestBracketAudit:
    """Every bracket _global_max refines holds no point above its refined value, every
    bracket it prunes none that comes within _TIE_TOL of the best, and no interval of
    the grid a point more than 2 _TIE_TOL above the result (ROADMAP item 20)."""

    @pytest.mark.parametrize("spec, t_max, corrected", _bracket_cases())
    def test_every_bracket_is_sampled(self, spec, t_max, corrected):
        global_patch, searches = _recording("_global_max")
        refine_patch, refines = _recording("_refine_brackets")
        grid_patch, grids = _recording("_grid_f")
        with global_patch, refine_patch, grid_patch:
            res = maximize_fidelity(spec, SearchConfig(t_max), corrected)
        ((search, _), _), = searches
        # 50 times in every interval of the grid, whether resampled or not
        (_, (coarse, _)), = grids
        times = (coarse[:-1, None] + np.diff(coarse)[:, None] * np.linspace(0.0, 1.0, 50)).ravel()
        sampled = average_fidelity(synthesize_f(search.spectrum, times), corrected).max()
        assert sampled <= (res.fbar_corrected if corrected else res.fbar) + 2.0 * optimize._TIE_TOL
        # the brackets, as _global_max forms them on the resampled grid: both end
        # intervals and one around every interior peak
        grid, values = search.grid, search.values
        peaks = optimize._interior_peaks(values)
        los = grid[np.concatenate([[0, grid.size - 2], peaks - 1])]
        his = grid[np.concatenate([[1, grid.size - 1], peaks + 1])]
        refined = {}
        for (_, _, lo, hi, _), (_, value, _, _) in refines:
            refined.update(zip(zip(lo.tolist(), hi.tolist()), value.tolist()))
        best = max(max(refined.values()), values[0], values[-1])
        times = (los[:, None] + (his - los)[:, None] * np.linspace(0.0, 1.0, 400)).ravel()
        tops = average_fidelity(synthesize_f(search.spectrum, times), corrected)
        tops = tops.reshape(-1, 400).max(axis=1)
        brackets = list(zip(los.tolist(), his.tolist()))
        assert set(refined) <= set(brackets)
        for (lo, hi), top in zip(brackets, tops.tolist()):
            if (lo, hi) in refined:
                assert top <= refined[lo, hi] + 2.0 * optimize._TIE_TOL, (lo, hi)
            else:
                assert top < best - optimize._TIE_TOL, (lo, hi)


def _compensated_chain(n, lam, seed):
    """An engineered chain with about 5 % of its sites at spin 1, 3/2 or 2, drawn by
    seed, and couplings J_i = (lam / 2) sqrt(i (N - i)) / sqrt(s_i s_{i+1}): its
    hoppings are those of the bare chain, so whatever the spins, f(pi / lam) =
    e^{-i pi (N - 1) / 2} (Christandl et al., PRL 92, 187902 (2004))."""
    rng = np.random.default_rng(seed)
    spins = [0.5] * n
    for site in rng.choice(n, size=round(0.05 * n), replace=False):
        spins[site] = float(rng.choice([1.0, 1.5, 2.0]))
    couplings = tuple(lam / 2.0 * math.sqrt(i * (n - i)) / math.sqrt(spins[i - 1] * spins[i])
                      for i in range(1, n))
    return ChainSpec(sites=tuple(SiteSpec(SpinMagnitude(s)) for s in spins), couplings=couplings)


class TestCompensatedChains:
    """A spin impurity cannot prevent perfect transfer (ROADMAP item 12, first leg):
    at the north star's sizes the corrected search finds it at t* = pi / lam."""

    @pytest.mark.parametrize("n, lam", [(401, 1.0), (1001, 0.7)])
    def test_the_corrected_search_finds_perfect_transfer(self, n, lam):
        spec, t_star = _compensated_chain(n, lam, seed=n), math.pi / lam
        res = maximize_fidelity(spec, SearchConfig(1.5 * t_star), corrected=True)
        assert res.abs_f >= 1.0 - 1e-12
        assert abs(res.best_t - t_star) <= 1e-9 * t_star
        assert abs(synthesize_f(solve(spec), t_star) - np.exp(-0.5j * math.pi * (n - 1))) <= 1e-12


class TestGridProduct:
    """The block products of the grid and of the samples added near its best stay
    within _grid_error of synthesize_f and change no search result."""

    @settings(max_examples=40, deadline=None)
    @given(spec=_chains(max_sites=40), t_max=st.floats(1.0, 100.0),
           kind=st.sampled_from(["plain", "corrected", "tuned"]), box=_boxes)
    def test_within_the_error_bound(self, spec, t_max, kind, box):
        patch, grids = _recording("_grid_f")
        global_patch, searches = _recording("_global_max")
        with patch, global_patch:
            _search(spec, t_max, kind, box)
        ((spectrum, pieces), (grid, fast)), = grids
        # a tuned grid has a second piece when some t < t_max aligns every phase
        two = kind == "tuned" and 2.0 * math.pi / (box[1] - box[0]) < t_max
        assert len(pieces) == (2 if two else 1)
        gap = np.max(np.abs(fast - synthesize_f(spectrum, grid)))
        assert gap <= optimize._grid_error(spectrum, t_max)
        # the merged samples: a fidelity objective moves by at most 2/3 of a change in f,
        # and each of its two evaluations, of a value at most 1, rounds by 2 ulp of 1 at most
        ((search, _), _), = searches
        exact = search.objective(search.grid, synthesize_f(spectrum, search.grid))
        gap = np.max(np.abs(search.values - exact))
        assert gap <= (2.0 / 3.0) * search.grid_error + 4.0 * np.spacing(1.0)

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
