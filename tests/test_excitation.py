"""Single-excitation reduction, eigensolver, and transfer amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintransfer.chain import (
    ChainSpec,
    NonFiniteError,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    SpinMagnitude,
    engineered_chain,
    preset,
)
from spintransfer.excitation import (
    AmplitudeRecord,
    SingleExcitationHamiltonian,
    amplitudes,
    eigensolve,
    reduce,
    solve,
    synthesize_f,
    transfer_amplitude,
)
from spintransfer.fidelity import fidelity_report

SQRT2 = math.sqrt(2.0)


class TestReduce:
    def test_two_spin_impurity(self):
        j, b = 1.7, 0.4
        h = reduce(preset("sec2-two-spin", j, b))
        assert h.vacuum_energy == pytest.approx(1.5 * b, abs=1e-15)
        assert h.onsite == pytest.approx((b / 2, b / 2), abs=1e-15)
        assert h.hopping == pytest.approx((j / SQRT2,), abs=1e-15)

    def test_two_spin_field_impurity(self):
        j, b = 0.9, 1.3
        h = reduce(preset("sec3-two-spin", j, b))
        assert h.vacuum_energy == pytest.approx(b / 2, abs=1e-15)
        assert h.onsite == pytest.approx((-b / 2, b / 2), abs=1e-15)
        assert h.hopping == pytest.approx((j / 2,), abs=1e-15)

    def test_decoupled_chain(self):
        spec = ChainSpec(
            sites=(SiteSpec(SPIN_HALF, 0.0), SiteSpec(SPIN_HALF, 0.0)),
            couplings=(0.0,),
        )
        h = reduce(spec)
        assert h.vacuum_energy == 0.0
        assert h.onsite == (0.0, 0.0)
        assert h.hopping == (0.0,)

    def test_onsite_invariant(self):
        spec = preset("sec4-three-spin-center", 0.8, 1.1)
        h = reduce(spec)
        for n, site in enumerate(spec.sites):
            assert h.onsite[n] == pytest.approx(h.vacuum_energy - site.field, abs=1e-15)

    def test_hopping_spin_rescale(self):
        # a 1/2 - 1 bond carries sqrt(2) more hopping than a 1/2 - 1/2 bond
        mixed = ChainSpec(
            sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_ONE)), couplings=(1.0,)
        )
        plain = ChainSpec(
            sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF)), couplings=(1.0,)
        )
        ratio = reduce(mixed).hopping[0] / reduce(plain).hopping[0]
        assert ratio == pytest.approx(SQRT2, abs=1e-15)

    @pytest.mark.parametrize("spins,fields,message", [
        ((1e200, 1e200), (0.0, 0.0), "the hopping J_1 sqrt(s_1 s_2) of bond 1 is not finite"),
        ((1.0, 1.0), (1e308, 1e308), "the vacuum energy sum_i B_i s_i is not finite"),
        ((1.0, 0.5), (-1.7e308, 1e308), "the flip energy E0 - B_2 of site 2 is not finite"),
    ], ids=["bond", "vacuum-energy", "flip-energy"])
    def test_overflowing_entry_is_refused(self, spins, fields, message):
        # each entry is finite in the chain; a RuntimeWarning would fail the test too
        spec = ChainSpec(tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields)),
                         (1.0,))
        with pytest.raises(NonFiniteError) as info:
            reduce(spec)
        assert str(info.value) == message


def _random_tridiagonal(rng, n):
    return SingleExcitationHamiltonian(
        vacuum_energy=float(rng.uniform(-2, 2)),
        onsite=tuple(rng.uniform(-3, 3) for _ in range(n)),
        hopping=tuple(rng.uniform(-3, 3) for _ in range(n - 1)),
    )


class TestEigensolve:
    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 8, 13, 40):
            h = _random_tridiagonal(rng, n)
            eig = eigensolve(h)
            expected = np.linalg.eigvalsh(h.matrix())
            assert eig.values == pytest.approx(expected, abs=1e-12 * max(1, n))

    def test_orthonormal_and_residual(self):
        rng = np.random.default_rng(6)
        for n in (2, 7, 25, 80):
            h = _random_tridiagonal(rng, n)
            eig = eigensolve(h)
            gram = eig.vectors.T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            m = h.matrix()
            resid = m @ eig.vectors - eig.vectors * eig.values
            assert np.max(np.abs(resid)) <= 1e-11 * max(1.0, np.max(np.abs(m)))

    def test_two_spin_impurity_spectrum(self):
        j, b = 1.0, 0.6
        eig = eigensolve(reduce(preset("sec2-two-spin", j, b)))
        expected = sorted([(b - SQRT2 * j) / 2, (b + SQRT2 * j) / 2])
        assert eig.values == pytest.approx(expected, abs=1e-14)

    def test_double_impurity_spectrum(self):
        j, b = 0.9, 0.5
        xi = math.sqrt(b * b + 4 * j * j)
        eig = eigensolve(reduce(preset("sec4-three-spin-center", j, b)))
        expected = sorted([(b - xi) / 2, b, (b + xi) / 2])
        assert eig.values == pytest.approx(expected, abs=1e-14)

    def test_diagonal_matrix(self):
        h = SingleExcitationHamiltonian(0.0, (3.0, -1.0, 2.0), (0.0, 0.0))
        eig = eigensolve(h)
        assert eig.values == pytest.approx([-1.0, 2.0, 3.0], abs=0)

    def test_degenerate_levels(self):
        h = SingleExcitationHamiltonian(0.0, (1.0, 1.0, 1.0), (0.0, 0.0))
        eig = eigensolve(h)
        assert eig.values == pytest.approx([1.0, 1.0, 1.0], abs=0)
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(3))) <= 1e-12


class TestAmplitudes:
    def test_identity_at_t0(self):
        rec = transfer_amplitude(preset("sec2-three-spin-center", 1.0, 0.7), 0.0)
        assert rec.f0 == pytest.approx(1.0, abs=1e-15)
        assert rec.fn == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
        assert rec.f == pytest.approx(0.0, abs=1e-14)
        assert fidelity_report(rec.t, rec.f).gamma == 0.0

    def test_two_spin_impurity_amplitude(self):
        # f = -i exp(iBt) sin(sqrt(2) J t / 2); at B=0, t = pi/(sqrt2 J) this is -i
        j = 1.3
        rec = transfer_amplitude(preset("sec2-two-spin", j, 0.0), math.pi / (SQRT2 * j))
        assert rec.f == pytest.approx(-1j, abs=1e-12)
        assert fidelity_report(rec.t, rec.f).gamma == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_tuned_three_spin_is_perfect(self):
        j = 1.0
        t_c = math.pi / j
        rec = transfer_amplitude(preset("sec2-three-spin-center", j, math.pi / t_c), t_c)
        assert rec.f == pytest.approx(1.0, abs=1e-12)

    def test_f_is_phase_referenced_tail(self):
        # f comes from synthesize_f, the one route to it; with a vacuum energy
        # it equals the tail conj(f0) fn[N] to rounding (measured 1.1e-16 here)
        spec = preset("sec3-three-spin-center", 0.8, 0.3)
        rec = transfer_amplitude(spec, 2.5)
        assert rec.f == synthesize_f(*solve(spec), 2.5)
        assert rec.f == pytest.approx(complex(np.conj(rec.f0) * rec.fn[-1]), abs=1e-15)

    def test_gamma_branch(self):
        # f real negative must report +pi, not -pi
        j = 1.0
        rec = transfer_amplitude(preset("sec2-three-spin-center", j, 0.0), math.pi / j)
        assert rec.f == pytest.approx(-1.0, abs=1e-12)
        assert fidelity_report(rec.t, rec.f).gamma == pytest.approx(math.pi, abs=1e-12)


class TestTimeSeries:
    """synthesize_f on whole time grids, from a single eigensolve."""

    def test_single_point(self):
        solved = solve(preset("sec2-two-spin", 1.0, 0.0))
        f = synthesize_f(*solved, [0.0])
        assert f.shape == (1,)
        assert f[0] == synthesize_f(*solved, 0.0)
        assert f[0] == pytest.approx(0.0, abs=1e-14)

    def test_oscillation_matches_closed_form(self):
        j = 1.0
        grid = np.linspace(0.0, 4 * math.pi / j, 1000)
        f = synthesize_f(*solve(preset("sec2-two-spin", j, 0.0)), grid)
        expected = np.abs(np.sin(SQRT2 * j * grid / 2))
        got = np.abs(f)
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert got.max() == pytest.approx(1.0, abs=1e-6)

    def test_field_impurity_peak_magnitude(self):
        # dense sampling of |f| = (J/mu)|sin(mu t/2)| gives sup = J/mu = 1/sqrt(2) at B=J
        j = b = 1.0
        mu = math.hypot(j, b)
        grid = np.linspace(0.0, 6 * math.pi / mu, 20001)
        peak = np.abs(synthesize_f(*solve(preset("sec3-two-spin", j, b)), grid)).max()
        assert peak == pytest.approx(1.0 / SQRT2, abs=1e-6)


@st.composite
def random_chain(draw, max_sites=12):
    n = draw(st.integers(min_value=2, max_value=max_sites))
    spins = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
    fields = draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=n, max_size=n
    ))
    couplings = draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=n - 1, max_size=n - 1,
    ))
    sites = tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields))
    return ChainSpec(sites=sites, couplings=tuple(couplings))


@settings(max_examples=60, deadline=None)
@given(spec=random_chain(), t=st.floats(min_value=0.0, max_value=50.0))
def test_unitarity_property(spec, t):
    rec = transfer_amplitude(spec, t)
    assert abs(float(np.sum(np.abs(rec.fn) ** 2)) - 1.0) <= 1e-12
    assert abs(abs(rec.f0) - 1.0) <= 1e-12
    assert isinstance(rec, AmplitudeRecord)


@st.composite
def chain_parts(draw, max_sites, spin_values=(0.5, 1.0, 1.5)):
    """(spins, fields, couplings) of a random mixed-spin chain, N = 1..max_sites."""
    n = draw(st.integers(min_value=1, max_value=max_sites))
    spins = draw(st.lists(st.sampled_from(spin_values), min_size=n, max_size=n))
    fields = draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=n, max_size=n
    ))
    couplings = draw(st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=n - 1, max_size=n - 1,
    ))
    return spins, fields, couplings


def _block(spins, fields, couplings):
    if len(spins) == 1:  # a chain needs two sites; the one-site block follows reduce's rules
        e0 = fields[0] * spins[0]
        return SingleExcitationHamiltonian(e0, (e0 - fields[0],), ())
    sites = tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields))
    return reduce(ChainSpec(sites=sites, couplings=tuple(couplings)))


@st.composite
def random_block(draw, max_sites=40):
    """Excitation block of a random mixed-spin chain with site fields, N = 1..max_sites."""
    return _block(*draw(chain_parts(max_sites)))


def _phase_referenced_tail(h, eig, t):
    """conj(f0) fn[N] of the amplitude record: f by the O(N^2) route."""
    rec = amplitudes(h, eig, t)
    return complex(np.conj(rec.f0) * rec.fn[-1])


class TestSynthesizeF:
    @settings(max_examples=60, deadline=None)
    @given(h=random_block(), times=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40))
    def test_array_path_matches_amplitudes(self, h, times):
        eig = eigensolve(h)
        f = synthesize_f(h, eig, np.array(times))
        expected = np.array([_phase_referenced_tail(h, eig, t) for t in times])
        assert np.max(np.abs(f - expected)) <= 1e-12
        # a scalar time is a one-element array: the same terms in the same order
        assert all(synthesize_f(h, eig, t) == z for t, z in zip(times, f))

    def test_bitwise_equal_to_amplitudes_without_vacuum_energy(self):
        # E0 = 0: the folded and the referenced phase are the same numbers
        rng = np.random.default_rng(14)
        for n in (2, 3, 9, 17, 40):
            h = SingleExcitationHamiltonian(0.0, tuple(rng.uniform(-2, 2, n)),
                                            tuple(rng.uniform(-2, 2, n - 1)))
            eig = eigensolve(h)
            times = np.linspace(0.0, 30.0, 2500)  # spans three blocks
            expected = np.array([_phase_referenced_tail(h, eig, t) for t in times])
            assert np.array_equal(synthesize_f(h, eig, times), expected)

    def test_scalar_returns_complex(self):
        spec = preset("sec2-two-spin", 1.3, 0.0)
        h = reduce(spec)
        f = synthesize_f(h, eigensolve(h), math.pi / (SQRT2 * 1.3))
        assert isinstance(f, complex)
        assert f == pytest.approx(-1j, abs=1e-12)

    def test_empty_grid_and_bad_shape(self):
        h = reduce(preset("sec2-two-spin", 1.0, 0.0))
        eig = eigensolve(h)
        assert synthesize_f(h, eig, np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            synthesize_f(h, eig, np.zeros((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(half=random_block(max_sites=20),
           t_max=st.floats(min_value=1.0, max_value=50.0))
    def test_cut_chain_is_dead(self, half, t_max):
        # two identical halves joined by a zero coupling: every level is
        # doubly degenerate and nothing reaches the far end
        h = SingleExcitationHamiltonian(
            2.0 * half.vacuum_energy,
            tuple(x + half.vacuum_energy for x in half.onsite * 2),
            half.hopping + (0.0,) + half.hopping,
        )
        eig = eigensolve(h)
        f = synthesize_f(h, eig, np.linspace(0.0, t_max, 200))
        assert np.max(np.abs(f)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(parts=chain_parts(max_sites=12, spin_values=(0.5, 1.0)),
       b=st.floats(min_value=-3.0, max_value=3.0),
       times=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=20))
def test_uniform_field_only_rotates_f(parts, b, times):
    # a uniform field commutes with the chain: f(t, b) = f(t, 0) e^{ibt}
    spins, fields, couplings = parts
    t = np.array(times)
    h0 = _block(spins, fields, couplings)
    hb = _block(spins, [x + b for x in fields], couplings)
    rotated = synthesize_f(h0, eigensolve(h0), t) * np.exp(1j * b * t)
    assert np.max(np.abs(synthesize_f(hb, eigensolve(hb), t) - rotated)) <= 1e-12


class TestEigensolveProperties:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2**32 - 1))
    def test_ascending_and_reconstructs(self, n, seed):
        h = _random_tridiagonal(np.random.default_rng(seed), n)
        eig = eigensolve(h)
        assert np.all(np.diff(eig.values) >= 0.0)
        m = h.matrix()
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-12 * np.linalg.norm(m, 2)


class TestTransferBound:
    """EigenSystem.transfer_bound = sum_k |v_k[1] v_k[N]|."""

    @settings(max_examples=60, deadline=None)
    @given(half=st.lists(st.tuples(st.sampled_from([SPIN_HALF, SPIN_ONE]), st.floats(-2.0, 2.0),
                                   st.floats(0.2, 2.0)), min_size=1, max_size=4),
           centre=st.none() | st.tuples(st.sampled_from([SPIN_HALF, SPIN_ONE]),
                                        st.floats(-2.0, 2.0)))
    def test_one_on_mirror_chains(self, half, centre):
        # sites and couplings read the same from either end
        sites = [SiteSpec(s, b) for s, b, _ in half]
        couplings = [j for _, _, j in half]
        middle = [SiteSpec(*centre)] if centre is not None else []
        spec = ChainSpec(sites=tuple(sites + middle + sites[::-1]),
                         couplings=tuple(couplings[:-1] + [couplings[-1]] * (1 + bool(middle))
                                         + couplings[:-1][::-1]))
        assert abs(solve(spec)[1].transfer_bound - 1.0) <= 1e-12

    @pytest.mark.parametrize("n, site", [(4, 2), (5, 2), (6, 3), (8, 2), (8, 4)])
    def test_below_one_with_an_off_centre_spin_one(self, n, site):
        assert solve(engineered_chain(n, 1.0, spin_one_site=site))[1].transfer_bound < 1.0 - 1e-3
