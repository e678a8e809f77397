"""Closed-form amplitudes, spectra, and field-tuning rules."""

import cmath
import math

import numpy as np
import pytest

from spintransfer.chain import PRESET_NAMES, UnknownPresetError, preset
from spintransfer.closed_forms import (
    DegenerateSystemError,
    NotTunableError,
    PresetSystem,
    analytic_f,
    analytic_spectrum,
    critical_field,
    zero_field_critical_time,
)
from spintransfer.excitation import eigensolve, reduce, solve, synthesize_f, transfer_amplitude
from spintransfer.fidelity import average_fidelity

SQRT2 = math.sqrt(2.0)


class TestAnalyticF:
    def test_two_spin_impurity_at_critical_time(self):
        j = 1.0
        f = analytic_f(PresetSystem("sec2-two-spin", j, 0.0), math.pi / (SQRT2 * j))
        assert f == pytest.approx(-1j, abs=1e-15)

    def test_three_spin_impurity_at_critical_time(self):
        j = 1.0
        f = analytic_f(PresetSystem("sec2-three-spin-center", j, 0.0), math.pi / j)
        assert f == pytest.approx(-1.0, abs=1e-15)

    def test_field_impurity_substitution(self):
        j, b = 1.2, 0.8
        mu = math.hypot(j, b)
        t = math.pi / mu
        expected = -1j * cmath.exp(1j * math.pi * b / (2 * mu)) * (j / mu)
        f = analytic_f(PresetSystem("sec3-two-spin", j, b), t)
        assert f == pytest.approx(expected, abs=1e-15)

    def test_degenerate_inputs_raise(self):
        for name in ("sec3-two-spin", "sec3-three-spin-center", "sec4-three-spin-center"):
            with pytest.raises(DegenerateSystemError):
                analytic_f(PresetSystem(name, 0.0, 0.0), 1.0)

    def test_zero_field_limit_by_substitution(self):
        # at B = 0 the split-level form must reduce smoothly, no special casing
        j = 0.9
        sys = PresetSystem("sec3-three-spin-center", j, 0.0)
        nu = SQRT2 * j
        t = 1.7
        expected = 0.25 * cmath.exp(-1j * nu * t / 2) + 0.25 * cmath.exp(1j * nu * t / 2) - 0.5
        assert analytic_f(sys, t) == pytest.approx(expected, abs=1e-15)

    def test_structural_twin_identity(self):
        # the double-impurity amplitude at J equals the field-impurity
        # amplitude at sqrt(2) J, exactly (shared kernel)
        rng = np.random.default_rng(17)
        for _ in range(50):
            j, b, t = rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 40.0)
            lhs = analytic_f(PresetSystem("sec4-three-spin-center", j, b), t)
            rhs = analytic_f(PresetSystem("sec3-three-spin-center", SQRT2 * j, b), t)
            assert lhs == rhs

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_agrees_with_engine(self, name):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(40):
            j, b, t = rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 50.0)
            sys = PresetSystem(name, j, b)
            worst = max(worst, abs(analytic_f(sys, t) - transfer_amplitude(sys.chain(), t).f))
        assert worst <= 1e-10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_engine_error_grows_linearly_in_t(name):
    """Both routes lose about |eps| t 2^-53 of phase, eps the largest energy:
    on 200 random presets the error over |eps| t 2^-53 had median 0.77 and
    maximum 3.3 for every t in 10^3 ... 10^9 (log-log slope 1.00), so 8 is
    the bound.  No clamp hides the growth: past t ~ 2^53 / |eps| the phase of f
    is noise."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        sys = PresetSystem(name, rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        h, eig = solve(sys.chain())
        eps = max(float(np.max(np.abs(eig.values))), abs(h.vacuum_energy))
        for t in 10.0 ** rng.uniform(3.0, 9.0, 7):
            error = abs(synthesize_f(h, eig, t) - analytic_f(sys, t))
            assert error <= 8.0 * eps * t * 2.0**-53, (sys, t)


class TestAnalyticSpectrum:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_orthonormal_eigenvectors(self, name):
        values, vectors = analytic_spectrum(PresetSystem(name, 1.1, 0.7))
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(len(values)))) <= 1e-14

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_eigen_equation_against_reduced_block(self, name):
        sys = PresetSystem(name, 1.1, 0.7)
        values, vectors = analytic_spectrum(sys)
        h = reduce(sys.chain())
        full = np.zeros((len(h.onsite) + 1, len(h.onsite) + 1))
        full[0, 0] = h.vacuum_energy
        full[1:, 1:] = h.matrix()
        resid = full @ vectors - vectors * values
        assert np.max(np.abs(resid)) <= 1e-12

    def test_two_spin_impurity_levels(self):
        j, b = 1.0, 0.4
        values, _ = analytic_spectrum(PresetSystem("sec2-two-spin", j, b))
        assert values == pytest.approx([1.5 * b, (b + SQRT2 * j) / 2, (b - SQRT2 * j) / 2],
                                       abs=1e-15)

    def test_three_spin_impurity_levels(self):
        j, b = 0.9, 1.2
        values, _ = analytic_spectrum(PresetSystem("sec2-three-spin-center", j, b))
        assert values == pytest.approx([2 * b, b, b + j, b - j], abs=1e-15)

    def test_centre_field_levels(self):
        j, b = 0.8, 0.5
        nu = math.sqrt(b * b + 2 * j * j)
        values, _ = analytic_spectrum(PresetSystem("sec3-three-spin-center", j, b))
        assert values == pytest.approx([b / 2, b / 2, nu / 2, -nu / 2], abs=1e-15)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_engine_spectrum(self, name):
        sys = PresetSystem(name, 1.3, 0.6)
        values, _ = analytic_spectrum(sys)
        h = reduce(sys.chain())
        numeric = np.sort(np.append(eigensolve(h).values, h.vacuum_energy))
        assert np.max(np.abs(np.sort(values) - numeric)) <= 1e-12

    def test_degenerate_vectors_raise(self):
        for name in ("sec3-two-spin", "sec3-three-spin-center", "sec4-three-spin-center"):
            with pytest.raises(DegenerateSystemError):
                analytic_spectrum(PresetSystem(name, 0.0, 1.0))


class TestFieldTuningRules:
    def test_two_spin_even_odd(self):
        t_c = 2.0
        sys = PresetSystem("sec2-two-spin", 1.0, 0.0)
        assert critical_field(sys, t_c, "even", 0) == pytest.approx(math.pi / (2 * t_c), abs=0)
        assert critical_field(sys, t_c, "odd", 0) == pytest.approx(3 * math.pi / (2 * t_c), abs=0)
        assert critical_field(sys, t_c, "even", 1) == pytest.approx(5 * math.pi / (2 * t_c), abs=0)

    def test_three_spin_rule(self):
        j = 1.0
        t_c = math.pi / j
        sys = PresetSystem("sec2-three-spin-center", j, 0.0)
        assert critical_field(sys, t_c, "even", 0) == pytest.approx(j, abs=1e-15)
        assert critical_field(sys, t_c, "even", 1) == pytest.approx(3 * j, abs=1e-15)

    def test_not_tunable_systems(self):
        for name in ("sec3-two-spin", "sec3-three-spin-center", "sec4-three-spin-center"):
            with pytest.raises(NotTunableError):
                critical_field(PresetSystem(name, 1.0, 0.0), 1.0, "even", 0)
            with pytest.raises(NotTunableError):
                zero_field_critical_time(name, 1.0, 0)

    def test_zero_field_critical_times(self):
        j = 0.7
        assert zero_field_critical_time("sec2-two-spin", j, 0) == pytest.approx(
            math.pi / (SQRT2 * j), abs=0
        )
        assert zero_field_critical_time("sec2-two-spin", j, 2) == pytest.approx(
            5 * math.pi / (SQRT2 * j), abs=0
        )
        assert zero_field_critical_time("sec2-three-spin-center", j, 1) == pytest.approx(
            3 * math.pi / j, abs=0
        )

    def test_argument_validation(self):
        sys = PresetSystem("sec2-two-spin", 1.0, 0.0)
        with pytest.raises(ValueError):
            critical_field(sys, -1.0, "even", 0)
        with pytest.raises(ValueError):
            critical_field(sys, 1.0, "sideways", 0)
        with pytest.raises(ValueError):
            critical_field(sys, 1.0, "even", -1)
        with pytest.raises(ValueError):
            zero_field_critical_time("sec2-two-spin", 1.0, -1)
        with pytest.raises(DegenerateSystemError):
            zero_field_critical_time("sec2-two-spin", 0.0, 0)
        with pytest.raises(UnknownPresetError):
            zero_field_critical_time("no-such-preset", 1.0, 0)

    @pytest.mark.parametrize("name", ["sec2-two-spin", "sec2-three-spin-center"])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("l", [0, 1])
    def test_tuned_pairs_are_perfect(self, name, k, l):
        j = 1.3
        t_c = zero_field_critical_time(name, j, k)
        b_c = critical_field(PresetSystem(name, j, 0.0), t_c, "even" if k % 2 == 0 else "odd", l)
        f = transfer_amplitude(preset(name, j, b_c), t_c).f
        assert average_fidelity(f) == pytest.approx(1.0, abs=1e-9)
        assert abs(f) == pytest.approx(1.0, abs=1e-9)


def test_unknown_preset_system():
    with pytest.raises(UnknownPresetError):
        PresetSystem("bogus", 1.0, 0.0)
