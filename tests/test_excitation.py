"""Single-excitation reduction, eigensolver, and transfer amplitudes."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintransfer import excitation
from spintransfer.chain import (
    ChainSpec,
    NonFiniteError,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    SpinMagnitude,
    _shown,
    engineered_chain,
    preset,
)
from spintransfer.excitation import (
    _TIME_BLOCK,
    _grid_f,
    SingleExcitationHamiltonian,
    Spectrum,
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
        ((2.0, 2.0), (1e308, -1e308), "the vacuum energy sum_i B_i s_i is not finite"),
        ((1.0, 0.5), (-1.7e308, 1e308), "the flip energy E0 - B_2 of site 2 is not finite"),
    ], ids=["bond", "vacuum-energy", "vacuum-energy-infinities", "flip-energy"])
    def test_overflowing_entry_is_refused(self, spins, fields, message):
        # each entry is finite in the chain; a RuntimeWarning would fail the test too
        spec = ChainSpec(tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields)),
                         (1.0,))
        with pytest.raises(NonFiniteError) as info:
            reduce(spec)
        assert str(info.value) == message

    def test_mirror_image_keeps_every_bit_of_the_vacuum_energy(self):
        # sum_i B_i s_i is exactly rounded, so the order of the sites cannot move
        # its last bit; a BLAS dot product moved it on most of these chains
        rng = np.random.default_rng(42)
        for _ in range(250):
            n = int(rng.integers(8, 401))
            sites = tuple(SiteSpec(SPIN_ONE if rng.uniform() < 0.5 else SPIN_HALF,
                                   float(rng.uniform(-2.0, 2.0))) for _ in range(n))
            spec = ChainSpec(sites, tuple(rng.uniform(0.2, 2.0, n - 1).tolist()))
            mirror = ChainSpec(sites[::-1], spec.couplings[::-1])
            assert reduce(mirror).vacuum_energy.hex() == reduce(spec).vacuum_energy.hex(), n


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
            values, _ = eigensolve(h)
            expected = np.linalg.eigvalsh(h.matrix())
            assert values == pytest.approx(expected, abs=1e-12 * max(1, n))

    def test_orthonormal_and_residual(self):
        rng = np.random.default_rng(6)
        for n in (2, 7, 25, 80):
            h = _random_tridiagonal(rng, n)
            values, vectors = eigensolve(h)
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            m = h.matrix()
            resid = m @ vectors - vectors * values
            assert np.max(np.abs(resid)) <= 1e-11 * max(1.0, np.max(np.abs(m)))

    def test_two_spin_impurity_spectrum(self):
        j, b = 1.0, 0.6
        values, _ = eigensolve(reduce(preset("sec2-two-spin", j, b)))
        expected = sorted([(b - SQRT2 * j) / 2, (b + SQRT2 * j) / 2])
        assert values == pytest.approx(expected, abs=1e-14)

    def test_double_impurity_spectrum(self):
        j, b = 0.9, 0.5
        xi = math.sqrt(b * b + 4 * j * j)
        values, _ = eigensolve(reduce(preset("sec4-three-spin-center", j, b)))
        expected = sorted([(b - xi) / 2, b, (b + xi) / 2])
        assert values == pytest.approx(expected, abs=1e-14)

    def test_diagonal_matrix(self):
        h = SingleExcitationHamiltonian(0.0, (3.0, -1.0, 2.0), (0.0, 0.0))
        values, _ = eigensolve(h)
        assert values == pytest.approx([-1.0, 2.0, 3.0], abs=0)

    def test_degenerate_levels(self):
        h = SingleExcitationHamiltonian(0.0, (1.0, 1.0, 1.0), (0.0, 0.0))
        values, vectors = eigensolve(h)
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=0)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(3))) <= 1e-12


class TestAmplitudes:
    def test_identity_at_t0(self):
        t = 0.0
        spec = preset("sec2-three-spin-center", 1.0, 0.7)
        f0, fn = transfer_amplitude(spec, t)
        f = synthesize_f(solve(spec), t)
        assert f0 == pytest.approx(1.0, abs=1e-15)
        assert fn == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
        assert f == pytest.approx(0.0, abs=1e-14)
        assert fidelity_report(t, f).gamma == 0.0

    def test_two_spin_impurity_amplitude(self):
        # f = -i exp(iBt) sin(sqrt(2) J t / 2); at B=0, t = pi/(sqrt2 J) this is -i
        j = 1.3
        t = math.pi / (SQRT2 * j)
        f = synthesize_f(solve(preset("sec2-two-spin", j, 0.0)), t)
        assert f == pytest.approx(-1j, abs=1e-12)
        assert fidelity_report(t, f).gamma == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_tuned_three_spin_is_perfect(self):
        j = 1.0
        t_c = math.pi / j
        f = synthesize_f(solve(preset("sec2-three-spin-center", j, math.pi / t_c)), t_c)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_f_is_phase_referenced_tail(self):
        # with a vacuum energy f equals the tail conj(f0) fn[N] to rounding
        # (measured 1.1e-16 here)
        spec = preset("sec3-three-spin-center", 0.8, 0.3)
        f0, fn = transfer_amplitude(spec, 2.5)
        f = synthesize_f(solve(spec), 2.5)
        assert f == pytest.approx(complex(np.conj(f0) * fn[-1]), abs=1e-15)

    def test_synthesize_f_is_the_only_route_to_f(self, monkeypatch):
        # amplitudes builds no Spectrum and calls no synthesize_f
        spec = preset("sec3-three-spin-center", 0.8, 0.3)
        expected_f0, expected_fn = transfer_amplitude(spec, 2.5)

        def second_route(*args):
            raise AssertionError("amplitudes took a second route to f")

        monkeypatch.setattr(excitation.Spectrum, "of", second_route)
        monkeypatch.setattr(excitation, "synthesize_f", second_route)
        f0, fn = transfer_amplitude(spec, 2.5)
        assert f0 == expected_f0 and np.array_equal(fn, expected_fn)

    def test_gamma_branch(self):
        # f real negative must report +pi, not -pi
        j = 1.0
        t = math.pi / j
        f = synthesize_f(solve(preset("sec2-three-spin-center", j, 0.0)), t)
        assert f == pytest.approx(-1.0, abs=1e-12)
        assert fidelity_report(t, f).gamma == pytest.approx(math.pi, abs=1e-12)


class TestTimeSeries:
    """synthesize_f on whole time grids, from a single eigensolve."""

    def test_single_point(self):
        spectrum = solve(preset("sec2-two-spin", 1.0, 0.0))
        f = synthesize_f(spectrum, [0.0])
        assert f.shape == (1,)
        assert f[0] == synthesize_f(spectrum, 0.0)
        assert f[0] == pytest.approx(0.0, abs=1e-14)

    def test_oscillation_matches_closed_form(self):
        j = 1.0
        grid = np.linspace(0.0, 4 * math.pi / j, 1000)
        f = synthesize_f(solve(preset("sec2-two-spin", j, 0.0)), grid)
        expected = np.abs(np.sin(SQRT2 * j * grid / 2))
        got = np.abs(f)
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert got.max() == pytest.approx(1.0, abs=1e-6)

    def test_field_impurity_peak_magnitude(self):
        # dense sampling of |f| = (J/mu)|sin(mu t/2)| gives sup = J/mu = 1/sqrt(2) at B=J
        j = b = 1.0
        mu = math.hypot(j, b)
        grid = np.linspace(0.0, 6 * math.pi / mu, 20001)
        peak = np.abs(synthesize_f(solve(preset("sec3-two-spin", j, b)), grid)).max()
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
    f0, fn = transfer_amplitude(spec, t)
    assert abs(float(np.sum(np.abs(fn) ** 2)) - 1.0) <= 1e-12
    assert abs(abs(f0) - 1.0) <= 1e-12


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


def _reduce_by_arrays(spec):
    """reduce as it was written on numpy arrays: the products B_i s_i by one array
    product, the fields read back by tolist; the reference for reduce's bits."""
    spins = np.array([site.spin.s for site in spec.sites])
    fields = np.array([site.field for site in spec.sites])
    with np.errstate(over="ignore"):
        terms = (fields * spins).tolist()
    try:
        e0 = math.fsum(terms)
    except (OverflowError, ValueError):
        e0 = math.inf
    if not math.isfinite(e0):
        raise NonFiniteError("the vacuum energy sum_i B_i s_i is not finite")
    onsite = tuple(e0 - b for b in fields.tolist())
    s = spins.tolist()
    hopping = tuple(j * math.sqrt(s[i] * s[i + 1]) for i, j in enumerate(spec.couplings))
    for n, value in enumerate(onsite, 1):
        if not math.isfinite(value):
            raise NonFiniteError(f"the flip energy E0 - B_{n} of site {n} is not finite")
    for i, value in enumerate(hopping, 1):
        if not math.isfinite(value):
            raise NonFiniteError(f"the hopping J_{i} sqrt(s_{i} s_{i + 1}) of bond {i} "
                                 f"is not finite")
    return SingleExcitationHamiltonian(vacuum_energy=e0, onsite=onsite, hopping=hopping)


def _outcome(build, spec):
    """Every entry of build(spec) as float.hex, or the text of its refusal."""
    try:
        h = build(spec)
    except NonFiniteError as exc:
        return str(exc)
    return [x.hex() for x in (h.vacuum_energy, *h.onsite, *h.hopping)]


def _matrix_by_diag(h):
    """The dense block as np.diag and two fancy-indexed off-diagonal writes form it."""
    m = np.diag(np.asarray(h.onsite, dtype=float))
    off = np.asarray(h.hopping, dtype=float)
    idx = np.arange(len(off))
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


# every finite float, the subnormals, -0.0 and the products that overflow included
_ANY_FINITE = st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)


class TestTheBlockKeepsItsBits:
    """reduce on Python floats and matrix by strided writes give the bits and refusals
    of the array forms they replace."""

    @settings(max_examples=150, deadline=None)
    @given(parts=chain_parts(max_sites=40).filter(lambda parts: len(parts[0]) > 1),
           wide=st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.5, 1e200]), _ANY_FINITE,
                                   _ANY_FINITE), min_size=0, max_size=3))
    def test_reduce_equals_the_array_products(self, parts, wide):
        spins, fields, couplings = parts
        for spin, field, coupling in wide:  # a few sites of any size at the end
            spins, fields, couplings = spins + [spin], fields + [field], couplings + [coupling]
        spec = ChainSpec(tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields)),
                         tuple(couplings))
        assert _outcome(reduce, spec) == _outcome(_reduce_by_arrays, spec)

    @pytest.mark.parametrize("spins,fields,couplings,message", [
        ((1e200, 1e200, 2.0), (1e308, 1e308, -1e308), (1e300, 1e300),
         "the vacuum energy sum_i B_i s_i is not finite"),
        ((1.0, 0.5, 4.0), (-1.7e308, 1e308, 0.0), (1.0, 1.7e308),
         "the flip energy E0 - B_2 of site 2 is not finite"),
        ((0.5, 0.5, 0.5, 1.0), (1e308, 1e308, -1.7e308, -1.7e308), (1.0, 1e300, 1.0),
         "the flip energy E0 - B_1 of site 1 is not finite"),
        ((0.5, 1e200, 1e200, 1e200), (0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 1.0),
         "the hopping J_2 sqrt(s_2 s_3) of bond 2 is not finite"),
    ], ids=["vacuum-before-all", "flip-before-hopping", "first-flip", "first-hopping"])
    def test_refusals_keep_their_order_and_text(self, spins, fields, couplings, message):
        spec = ChainSpec(tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields)),
                         couplings)
        assert _outcome(reduce, spec) == _outcome(_reduce_by_arrays, spec) == message

    def test_matrix_has_the_bytes_of_the_diagonal_form(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 40):
            onsite = rng.uniform(-2.0, 2.0, n).tolist()
            hopping = rng.uniform(-2.0, 2.0, n - 1).tolist()
            onsite[::3] = [-0.0] * len(onsite[::3])  # -0.0 on the diagonal ...
            hopping[1::3] = [-0.0] * len(hopping[1::3])  # ... and off it
            h = SingleExcitationHamiltonian(0.5, tuple(onsite), tuple(hopping))
            m = h.matrix()
            assert m.dtype == float and m.flags.c_contiguous
            assert m.tobytes() == _matrix_by_diag(h).tobytes(), n
        assert np.signbit(m[0, 0]) and np.signbit(m[1, 2]) and np.signbit(m[2, 1])


def _phase_referenced_tail(h, eig, t):
    """conj(f0) fn[N] from the pair (f0, fn) of amplitudes: f by the O(N^2) route."""
    f0, fn = amplitudes(h, eig, t)
    return complex(np.conj(f0) * fn[-1])


class TestSynthesizeF:
    @settings(max_examples=60, deadline=None)
    @given(h=random_block(), times=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40))
    def test_array_path_matches_amplitudes(self, h, times):
        eig = eigensolve(h)
        f = synthesize_f(Spectrum.of(h, eig), np.array(times))
        expected = np.array([_phase_referenced_tail(h, eig, t) for t in times])
        assert np.max(np.abs(f - expected)) <= 1e-12
        # a scalar time is a one-element array: the same terms in the same order
        assert all(synthesize_f(Spectrum.of(h, eig), t) == z for t, z in zip(times, f))

    def test_bitwise_equal_to_amplitudes_without_vacuum_energy(self):
        # E0 = 0: the folded and the referenced phase are the same numbers
        rng = np.random.default_rng(14)
        for n in (2, 3, 9, 17, 40):
            h = SingleExcitationHamiltonian(0.0, tuple(rng.uniform(-2, 2, n)),
                                            tuple(rng.uniform(-2, 2, n - 1)))
            eig = eigensolve(h)
            spectrum = Spectrum.of(h, eig)
            times = np.linspace(0.0, 30.0, 2500)  # spans three blocks
            expected = np.array([_phase_referenced_tail(h, eig, t) for t in times])
            # the last 1 and _TIME_BLOCK times are one block, one more is two
            for size in (1, _TIME_BLOCK, _TIME_BLOCK + 1, times.size):
                assert np.array_equal(synthesize_f(spectrum, times[-size:]), expected[-size:])

    def test_scalar_returns_complex(self):
        spec = preset("sec2-two-spin", 1.3, 0.0)
        h = reduce(spec)
        f = synthesize_f(Spectrum.of(h, eigensolve(h)), math.pi / (SQRT2 * 1.3))
        assert isinstance(f, complex)
        assert f == pytest.approx(-1j, abs=1e-12)

    def test_empty_grid_and_bad_shape(self):
        h = reduce(preset("sec2-two-spin", 1.0, 0.0))
        eig = eigensolve(h)
        assert synthesize_f(Spectrum.of(h, eig), np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            synthesize_f(Spectrum.of(h, eig), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="int-beyond-floats"),
                                     pytest.param(Fraction(10**400), id="fraction-beyond-floats"),
                                     pytest.param(Fraction(-10**400), id="fraction-below-floats")])
    def test_non_finite_time_is_refused_before_any_exponential(self, bad):
        spec = preset("sec2-two-spin", 1.0, 0.5)
        spectrum = solve(spec)
        # a non-int number is named by the float it rounds to, an infinity
        infinity = math.inf if bad > 0 else -math.inf
        shown = _shown(bad) if isinstance(bad, (int, float)) else repr(infinity)
        refusal = f"times must be finite, got {re.escape(shown)}$"
        other = math.inf if bad != bad else math.nan
        with np.errstate(all="raise"):
            for times in (bad, np.array([0.0, 1.5, bad, other, 2.0])):
                with pytest.raises(ValueError, match=refusal):
                    synthesize_f(spectrum, times)
            with pytest.raises(ValueError, match=refusal):
                transfer_amplitude(spec, bad)

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
        f = synthesize_f(Spectrum.of(h, eig), np.linspace(0.0, t_max, 200))
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
    rotated = synthesize_f(Spectrum.of(h0, eigensolve(h0)), t) * np.exp(1j * b * t)
    assert np.max(np.abs(synthesize_f(Spectrum.of(hb, eigensolve(hb)), t) - rotated)) <= 1e-12


class TestGridF:
    """_grid_f returns only finite f: a grid that meets an overflow is refused
    at its first bad row, with no numpy warning."""

    @pytest.mark.parametrize("t_max, steps, first", [
        (25.5, 127, "25.5"),  # only the last row of a block overflows
        (40.0, 199, "25.527638190954775"),  # the first overflowing row is mid-block
    ])
    def test_refused_at_the_first_overflowing_row(self, t_max, steps, first):
        # the levels +-sqrt(2) 5e306 overflow t lambda from t = 25.42 on; the block
        # product alone gives those rows finite values, synthesize_f NaN
        spectrum = solve(ChainSpec((SiteSpec(SPIN_HALF),) * 3, (1e307, 1e307)))
        with pytest.raises(NonFiniteError) as refused:
            _grid_f(spectrum, [(0.0, t_max, steps)])
        assert str(refused.value) == (f"f is not finite at t = {first}: the phases E t overflow; "
                                      f"lower t_max or rescale the chain")

    @settings(max_examples=100, deadline=None)
    @given(coupling=st.floats(1e300, 1.7e308), t_max=st.floats(0.0, 1e9),
           steps=st.integers(0, 300))
    def test_never_returns_a_non_finite_f(self, coupling, t_max, steps):
        spectrum = solve(ChainSpec((SiteSpec(SPIN_HALF),) * 3, (coupling, coupling)))
        grid = np.linspace(0.0, t_max, steps + 1)
        with np.errstate(over="ignore"):
            overflow = grid[np.isinf(grid * np.max(np.abs(spectrum.levels)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                times, f = _grid_f(spectrum, [(0.0, t_max, steps)])
            except NonFiniteError as refusal:
                t = float(re.fullmatch(r"f is not finite at t = (\S+): .*", str(refusal))[1])
                assert t in grid and (overflow.size == 0 or t <= overflow[0])
            else:
                assert overflow.size == 0 and np.isfinite(f).all()
                assert np.array_equal(times, grid)


class TestEigensolveProperties:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2**32 - 1))
    def test_ascending_and_reconstructs(self, n, seed):
        h = _random_tridiagonal(np.random.default_rng(seed), n)
        values, vectors = eigensolve(h)
        assert np.all(np.diff(values) >= 0.0)
        m = h.matrix()
        rebuilt = (vectors * values) @ vectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-12 * np.linalg.norm(m, 2)


class TestTransferBound:
    """Spectrum.transfer_bound = sum_k |v_k[1] v_k[N]|."""

    @settings(max_examples=60, deadline=None)
    @given(spec=random_chain())
    def test_spectrum_has_the_bits_of_the_eigensystem(self, spec):
        # the expressions each consumer of f evaluated on the eigensystem
        # before the Spectrum held them
        h = reduce(spec)
        values, vectors = eigensolve(h)
        e0 = h.vacuum_energy
        weights = vectors[0] * vectors[-1]
        expected = {
            "levels": values - e0,
            "weights": weights,
            "spread": max(float(values[-1]), e0) - min(float(values[0]), e0),
            "band": float(values[-1]) - float(values[0]),
            "transfer_bound": float(np.abs(weights).sum()),
        }
        spectrum = solve(spec)
        for name, value in expected.items():
            got = getattr(spectrum, name)
            assert type(got) is type(value), name
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name

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
        assert abs(solve(spec).transfer_bound - 1.0) <= 1e-12

    @pytest.mark.parametrize("n, site", [(4, 2), (5, 2), (6, 3), (8, 2), (8, 4)])
    def test_below_one_with_an_off_centre_spin_one(self, n, site):
        assert solve(engineered_chain(n, 1.0, spin_one_site=site)).transfer_bound < 1.0 - 1e-3
