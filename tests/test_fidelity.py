"""Receiver density matrix, fidelity formulas, phase correction, quadrature."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintransfer import fidelity as fidelity_module
from spintransfer.chain import preset
from spintransfer.excitation import solve, synthesize_f
from spintransfer.fidelity import (
    _report_blocks,
    AmplitudeOutOfRangeError,
    BlochState,
    average_fidelity,
    bloch_average_quadrature,
    corrected_average_fidelity,
    fidelity,
    fidelity_report,
    reduced_density,
)


def _density_by_substitution(f, theta, phi):
    """Independent route: write the 2x2 matrix entry by entry."""
    s2 = math.sin(theta / 2.0) ** 2
    off = 0.5 * math.sin(theta) * cmath.exp(-1j * phi) * complex(f).conjugate()
    return np.array(
        [[1.0 - s2 * abs(f) ** 2, off], [off.conjugate(), s2 * abs(f) ** 2]]
    )


def _reference_average(z, corrected=False):
    """Independent pure-Python Fbar (or corrected Fbar): Python's abs, one rescale
    of a round-off excess |f| in (1, 1 + 1e-9], and the clip of 1 + 1e-12 to 1."""
    z = complex(z)
    mag = abs(z)
    if mag > 1.0 + 1e-9:
        raise AmplitudeOutOfRangeError(mag)
    if mag > 1.0:
        z = z / mag
        mag = abs(z)
    value = 0.5 + (mag if corrected else z.real) / 3.0 + mag * mag / 6.0
    return 1.0 if 1.0 < value <= 1.0 + 1e-12 else value


def _reference_fidelity(z, theta):
    """Independent pure-Python <in|rho|in>: Python's abs and one rescale, as above."""
    z = complex(z)
    if abs(z) > 1.0 + 1e-9:
        raise AmplitudeOutOfRangeError(abs(z))
    if abs(z) > 1.0:
        z = z / abs(z)
    c2, s2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
    return c2 * (1.0 - abs(z) ** 2 * s2 + 2.0 * s2 * z.real) + abs(z) ** 2 * s2 * s2


unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestBlochState:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            BlochState(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochState(math.pi + 0.1, 0.0)
        with pytest.raises(ValueError):
            BlochState(1.0, 2.0 * math.pi)

    def test_amplitudes(self):
        a0, a1 = BlochState(math.pi / 2, 0.0).amplitudes()
        assert a0 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert a1 == pytest.approx(1 / math.sqrt(2), abs=1e-15)


class TestReducedDensity:
    def test_perfect_channel_is_pure(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            a = np.array(state.amplitudes())
            rho = reduced_density(1.0, state)
            assert np.max(np.abs(rho - np.outer(a, a.conj()))) <= 1e-15

    def test_dead_channel_flipped_input(self):
        rho = reduced_density(0.0, BlochState(math.pi, 0.0))
        assert rho == pytest.approx(np.diag([1.0, 0.0]), abs=1e-15)

    def test_quarter_turn_amplitude(self):
        # direct substitution at f = -i, theta = pi/2, phi = 0:
        # populations {1/2, 1/2}, off-diagonal (1/2) * conj(-i) = i/2
        rho = reduced_density(-1j, BlochState(math.pi / 2, 0.0))
        expected = _density_by_substitution(-1j, math.pi / 2, 0.0)
        assert np.max(np.abs(rho - expected)) == 0.0
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert rho[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert abs(rho[0, 1]) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        f=unit_disk,
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_density_matrix_properties(self, f, theta, phi):
        rho = reduced_density(f, BlochState(theta, phi))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert abs(np.trace(rho).real - 1.0) <= 1e-15
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14

    def test_amplitude_out_of_range(self):
        with pytest.raises(AmplitudeOutOfRangeError):
            reduced_density(1.0 + 2e-9, BlochState(1.0, 0.0))
        # a hair above 1 is clamped, not fatal
        rho = reduced_density(1.0 + 5e-10, BlochState(math.pi, 0.0))
        assert rho[1, 1] == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_perfect_channel(self):
        assert fidelity(1.0, 1.2) == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_input_always_perfect(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.uniform() * np.exp(2j * math.pi * rng.uniform())
            assert fidelity(f, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_dead_channel_equator(self):
        assert fidelity(0.0, math.pi / 2) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        f=unit_disk,
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_matches_density_matrix_route(self, f, theta, phi):
        state = BlochState(theta, phi)
        a = np.array(state.amplitudes())
        via_rho = float(np.real(a.conj() @ reduced_density(f, state) @ a))
        per_state = fidelity(f, theta)
        assert type(per_state) is float and abs(per_state - via_rho) <= 1e-14


class TestFidelities:
    """fidelity on arrays: f broadcast against theta, entry i bit for bit the
    scalar call at (f[i], theta[i])."""

    def test_matches_the_reference(self):
        f = TestAverageFidelities._amplitudes()
        theta = np.random.default_rng(24).uniform(0.0, math.pi, f.size)
        values = fidelity(f, theta)
        assert values.shape == f.shape
        for i, (z, th) in enumerate(zip(f.tolist(), theta.tolist())):
            assert abs(values[i] - _reference_fidelity(z, th)) <= 1e-15, i
            assert values[i].hex() == fidelity(z, th).hex(), i

    def test_scalar_amplitude_broadcasts_over_angles(self):
        theta = np.linspace(0.0, math.pi, 7)
        values = fidelity(0.3 + 0.4j, theta)
        assert values.shape == (7,)
        for value, th in zip(values.tolist(), theta.tolist()):
            assert value.hex() == fidelity(0.3 + 0.4j, th).hex()

    def test_out_of_range_raises(self):
        with pytest.raises(AmplitudeOutOfRangeError):
            fidelity([0.5, 1.0 + 2e-9], [1.0, 2.0])


class TestAverageFidelity:
    def test_landmarks(self):
        assert average_fidelity(1.0) == pytest.approx(1.0, abs=1e-15)
        assert average_fidelity(-1j) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert average_fidelity(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_corrected_landmarks(self):
        value, phase = corrected_average_fidelity(-1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert phase == pytest.approx(math.pi, abs=1e-15)

        value, phase = corrected_average_fidelity(-1j)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert phase == pytest.approx(-math.pi / 2, abs=1e-15)

        f = 0.8 * cmath.exp(1.3j)
        value, phase = corrected_average_fidelity(f)
        assert value == pytest.approx(0.5 + 0.8 / 3 + 0.64 / 6, abs=1e-15)
        assert phase == pytest.approx(1.3, abs=1e-12)

    def test_corrected_at_zero(self):
        assert corrected_average_fidelity(0.0) == (0.5, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(f=unit_disk)
    def test_correction_never_hurts(self, f):
        value, _ = corrected_average_fidelity(f)
        assert value >= average_fidelity(f) - 1e-12

    def test_corrected_monotone_in_magnitude(self):
        mags = np.linspace(0.0, 1.0, 200)
        values = [corrected_average_fidelity(m)[0] for m in mags]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestQuadrature:
    def test_quarter_phase(self):
        assert bloch_average_quadrature(-1j) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
            direct = average_fidelity(f)
            quad = bloch_average_quadrature(f)
            assert abs(direct - quad) <= 1e-10

    def test_cached_nodes_are_read_only(self):
        theta, weights = fidelity_module._theta_rule()
        assert theta.size == weights.size == 64
        for array in (theta, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestFidelityReport:
    def test_fields_consistent(self):
        f = 0.6 * cmath.exp(0.7j)
        rep = fidelity_report(2.0, f)
        assert rep.abs_f == pytest.approx(0.6, abs=1e-15)
        assert rep.fbar == pytest.approx(average_fidelity(f), abs=0)
        assert rep.fbar_corrected == pytest.approx(
            0.5 + rep.abs_f / 3 + rep.abs_f**2 / 6, abs=0
        )
        assert rep.fbar_corrected >= rep.fbar - 1e-12
        assert rep.gamma == pytest.approx(0.7, abs=1e-12)
        assert corrected_average_fidelity(f)[1] == rep.gamma

    def test_degenerate_phase(self):
        rep = fidelity_report(0.0, 0.0)
        assert rep.gamma == 0.0
        assert corrected_average_fidelity(0.0)[1] == 0.0
        assert rep.fbar == 0.5

    def test_phase_below_the_degeneracy_floor_is_zero(self):
        # |f| = 1e-13 <= 1e-12: the phase pi/2 is not reported
        assert corrected_average_fidelity(1e-13j)[1] == 0.0
        assert fidelity_report(0.0, 1e-13j).gamma == 0.0

    @pytest.mark.parametrize("f", [-1 - 1e-17j, complex(-1.0, -0.0)])
    def test_negative_real_axis_is_plus_pi(self, f):
        # arctan2 gives -pi here; the phase lies on (-pi, pi]
        rep = fidelity_report(0.0, f)
        assert rep.gamma == corrected_average_fidelity(f)[1] == math.pi


class TestFidelityReports:
    def _amplitudes(self):
        rng = np.random.default_rng(17)
        f = rng.uniform(0, 1, 4000) * np.exp(2j * math.pi * rng.uniform(size=4000))
        # a hair above 1 (rescaled by the scalar rules), at 1, and near 0
        f[:200] *= (1.0 + rng.uniform(0.0, 5e-10, 200)) / np.abs(f[:200])
        f[200:300] = rng.uniform(-1e-12, 1e-12, 100) * 1j
        f[300:308] = [1.0, -1.0, 1j, -1j, 0.0, 1.0 + 1e-16, -1 - 1e-17j, complex(-1.0, -0.0)]
        return f

    def test_bitwise_equal_to_fidelity_report(self):
        # a scalar call runs the array code on one row, so this holds by
        # construction; the reference test below carries the guarantee
        f = self._amplitudes()
        t = np.linspace(0.0, 7.0, f.size)
        reports = fidelity_report(t, f)
        for i, (t_i, z) in enumerate(zip(t.tolist(), f.tolist())):
            row = fidelity_report(t_i, z)
            assert [type(v) for v in vars(row).values()] == [float, complex] + [float] * 4
            for name, value in vars(row).items():
                assert np.array(value).tobytes() == getattr(reports, name)[i:i + 1].tobytes(), \
                    (i, name)

    def test_matches_the_reference(self):
        f = self._amplitudes()
        reports = fidelity_report(0.0, f)
        for i, z in enumerate(f.tolist()):
            assert reports.fbar[i].hex() == _reference_average(z).hex(), i
            assert reports.fbar_corrected[i].hex() == _reference_average(z, True).hex(), i
            checked = z / abs(z) if abs(z) > 1.0 else z
            assert complex(reports.f[i]) == checked and reports.abs_f[i] == abs(checked), i
            # arg f on (-pi, pi], 0 where |f| <= 1e-12; np.arctan2 is not
            # correctly rounded: allow 2 ulp against math.atan2
            phase = math.atan2(checked.imag, checked.real)
            phase = 0.0 if abs(z) <= 1e-12 else math.pi if phase == -math.pi else phase
            assert abs(reports.gamma[i] - phase) <= 2 * math.ulp(phase), i
            assert corrected_average_fidelity(z)[1] == reports.gamma[i], i

    def test_report_and_scalar_functions_agree_in_the_rescale_band(self):
        # the report rescales |f| in (1, 1 + 1e-9] once, exactly as average_fidelity
        # and corrected_average_fidelity do, so the CSV and the optimize JSON agree
        rng = np.random.default_rng(29)
        f = np.exp(2j * math.pi * rng.uniform(size=4000))
        f = f * (1.0 + rng.uniform(0.0, 1e-9, 4000)) / np.abs(f)
        for z in f.tolist():
            rep = fidelity_report(0.0, z)
            assert rep.fbar.hex() == average_fidelity(z).hex() == _reference_average(z).hex()
            assert (rep.fbar_corrected.hex() == corrected_average_fidelity(z)[0].hex()
                    == _reference_average(z, True).hex())

    def test_out_of_range_raises(self):
        f = self._amplitudes()
        f[-1] = 1.0 + 2e-9
        with pytest.raises(AmplitudeOutOfRangeError):
            fidelity_report(0.0, f)

    def test_times_broadcast_to_the_amplitudes(self):
        f = self._amplitudes()
        assert np.array_equal(fidelity_report(0.5, f).t, np.full(f.size, 0.5))
        with pytest.raises(ValueError):
            fidelity_report(np.zeros(f.size - 1), f)

    def test_report_does_not_alias_its_input(self):
        f = self._amplitudes()
        t = np.linspace(0.0, 7.0, f.size)
        reports = fidelity_report(t, f)
        kept = reports.f.copy(), reports.t.copy()
        f[:] = 0.25
        t[:] = -1.0
        assert np.array_equal(reports.f, kept[0]) and np.array_equal(reports.t, kept[1])

    def test_blocks_concatenate_to_the_whole_report(self):
        # 4,000 rows: three full 1,024-row blocks and a partial one
        f = self._amplitudes()
        t = np.linspace(0.0, 7.0, f.size)
        whole = fidelity_report(t, f)
        blocks = list(_report_blocks(t, f))
        assert [len(b.t) for b in blocks] == [1024, 1024, 1024, 928]
        for name, column in vars(whole).items():
            joined = np.concatenate([getattr(b, name) for b in blocks])
            assert joined.tobytes() == column.tobytes(), name

    def test_blocks_raise_before_the_first_block(self):
        f = self._amplitudes()
        f[-1] = 1.0 + 2e-9
        with pytest.raises(AmplitudeOutOfRangeError):
            _report_blocks(np.zeros(f.size), f)  # the call, not iteration, raises


class TestAverageFidelities:
    @staticmethod
    def _amplitudes():
        rng = np.random.default_rng(23)
        f = rng.uniform(0, 1, 3000) * np.exp(2j * math.pi * rng.uniform(size=3000))
        # |f| in (1, 1 + _CLAMP_EXCESS] (rescaled by the scalar rules), within
        # a few ulp below 1, and exactly on the axes
        excess = rng.uniform(0.0, fidelity_module._CLAMP_EXCESS, 300)
        f[:300] *= (1.0 + excess) / np.abs(f[:300])
        f[300:600] *= (1.0 - rng.uniform(0.0, 1e-15, 300)) / np.abs(f[300:600])
        f[600:606] = [1.0, -1.0, 1j, -1j, 0.0, 1.0 + 1e-16]
        f[606] = 1.0 + fidelity_module._CLAMP_EXCESS
        return f

    @staticmethod
    def _assert_scalar_calls_are_the_entries(f, corrected, theta):
        """Entry i of each array call is the scalar call at f[i] bit for bit, and
        a scalar call gives Python floats."""
        values = average_fidelity(f, corrected)
        gated, phase = corrected_average_fidelity(f)
        per_state = fidelity(f, theta)
        assert values.shape == gated.shape == phase.shape == per_state.shape == f.shape
        for i, z in enumerate(f.tolist()):
            scalars = (average_fidelity(z, corrected), *corrected_average_fidelity(z),
                       fidelity(z, theta))
            assert [type(x) for x in scalars] == [float] * 4, i
            entries = (values[i], gated[i], phase[i], per_state[i])
            assert [x.hex() for x in entries] == [x.hex() for x in scalars], i
            assert scalars[0].hex() == _reference_average(z, corrected).hex(), i
            assert scalars[1].hex() == _reference_average(z, True).hex(), i

    # A scalar call runs the array code on one row, so the agreement holds by
    # construction; the reference carries the guarantee.
    @pytest.mark.parametrize("corrected", [False, True])
    def test_bitwise_equal_to_the_scalar_functions(self, corrected):
        f = self._amplitudes()
        assert max(abs(z) for z in f.tolist()) == 1.0 + fidelity_module._CLAMP_EXCESS
        self._assert_scalar_calls_are_the_entries(f, corrected, 1.2)

    @settings(max_examples=50)
    @given(f=st.lists(unit_disk, max_size=30), corrected=st.booleans(),
           theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_random_amplitudes(self, f, corrected, theta):
        self._assert_scalar_calls_are_the_entries(np.array(f, dtype=complex), corrected, theta)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_out_of_range_raises(self, corrected):
        f = self._amplitudes()
        f[-1] = 1.0 + 2e-9
        with pytest.raises(AmplitudeOutOfRangeError):
            average_fidelity(f, corrected)


_STATE = BlochState(1.0)
# The functions under the shape rule, each called on f alone.
_SHAPE_RULE = {
    "average_fidelity": average_fidelity,
    "average_fidelity-corrected": lambda f: average_fidelity(f, True),
    "corrected_average_fidelity": corrected_average_fidelity,
    "fidelity": lambda f: fidelity(f, 1.0),
    "fidelity_report": lambda f: fidelity_report(0.0, f),
    "fidelity_report_blocks": lambda f: _report_blocks(0.0, f),  # simulate's row blocks
}
_ONE_AMPLITUDE = {
    "reduced_density": lambda f: reduced_density(f, _STATE),
    "bloch_average_quadrature": bloch_average_quadrature,
}


@pytest.mark.parametrize("call, f, message", [
    *(pytest.param(call, np.full((2, 3), 0.5j), "scalar or one-dimensional", id=f"{name}-2d")
      for name, call in _SHAPE_RULE.items()),
    *(pytest.param(call, np.full(n, 0.5j), "one amplitude", id=f"{name}-{n}")
      for name, call in _ONE_AMPLITUDE.items() for n in (2, 64)),
])
def test_refused_amplitude_shapes(call, f, message):
    with pytest.raises(ValueError, match=message):
        call(f)


@pytest.mark.parametrize("report", [fidelity_report, _report_blocks])
@pytest.mark.parametrize("t, f, message", [
    ([1.0, 2.0], 0.5, "t of shape (2,) does not broadcast to f of shape ()"),
    (np.zeros(3), np.full(2, 0.5j), "t of shape (3,) does not broadcast to f of shape (2,)"),
])
def test_a_time_that_does_not_broadcast_names_both_shapes(report, t, f, message):
    with pytest.raises(ValueError) as refused:
        report(t, f)  # the call, not iteration, raises
    assert str(refused.value) == message


@pytest.mark.parametrize("name", [*_SHAPE_RULE, *_ONE_AMPLITUDE])
def test_nan_amplitude_is_refused(name):
    with np.errstate(invalid="ignore", over="ignore"):  # B t overflows at a finite time
        f = synthesize_f(solve(preset("sec3-two-spin", 1.0, 1e300)), 1e10)
    assert f != f
    call = {**_SHAPE_RULE, **_ONE_AMPLITUDE}[name]
    for value in (f, np.array([0.5, f])) if name in _SHAPE_RULE else (f,):
        with pytest.raises(AmplitudeOutOfRangeError, match=r"^\|f\| is nan"):
            call(value)
