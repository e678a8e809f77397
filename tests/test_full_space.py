"""Full-Hilbert-space reference against the subspace pipeline.

Two earlier constructions of the validator are kept here as oracles: a dense
H summed from kron chains and evolved by a full-space eigh, which the
sector-restricted route is compared with, and the bond-wise application of
the local terms to dense state arrays, which the index-arithmetic `_apply`
must match bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spintransfer import full_space
from spintransfer.chain import (
    ChainSpec,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    SpinMagnitude,
    engineered_chain,
    preset,
)
from spintransfer.excitation import reduce, solve, synthesize_f
from spintransfer.fidelity import BlochState, fidelity
from spintransfer.full_space import (
    DimensionCapError,
    FullSpaceModel,
    excitation_sector_indices,
    full_hamiltonian,
    spin_operators,
    sz_commutator_max,
    total_sz_diagonal,
)


def _kron_embed(ops: dict, dims: list[int]) -> np.ndarray:
    """ops[i] on site i, identity on every other site."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, ops.get(i, np.eye(d, dtype=complex)))
    return out


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense H summed term by term from kron chains over the whole space."""
    dims = [site.spin.dim for site in spec.sites]
    total = math.prod(dims)
    h = np.zeros((total, total), dtype=complex)
    ops = [spin_operators(site.spin) for site in spec.sites]
    for bond, j in enumerate(spec.couplings):
        (sx_a, sy_a, _), (sx_b, sy_b, _) = ops[bond], ops[bond + 1]
        h += j * (_kron_embed({bond: sx_a, bond + 1: sx_b}, dims)
                  + _kron_embed({bond: sy_a, bond + 1: sy_b}, dims))
    for site, spec_site in enumerate(spec.sites):
        if spec_site.field != 0.0:
            h += spec_site.field * _kron_embed({site: ops[site][2]}, dims)
    return h


def dense_receiver_density(spec: ChainSpec, state: BlochState, t: float) -> np.ndarray:
    """Receiver density from a full-space eigh of the kron-built H."""
    dims = [site.spin.dim for site in spec.sites]
    values, vectors = np.linalg.eigh(kron_hamiltonian(spec))
    a0, a1 = state.amplitudes()
    psi = np.zeros(math.prod(dims), dtype=complex)
    psi[0] = a0
    psi[math.prod(dims[1:])] = a1
    psi = vectors @ (np.exp(-1j * values * t) * (vectors.conj().T @ psi))
    block = psi.reshape(-1, dims[-1])
    return (block.T @ block.conj())[:2, :2]


def subspace_gap(model: FullSpaceModel, spec: ChainSpec, state: BlochState,
                 t: float) -> float:
    """|F_full - F_subspace| for one input and time, with the subspace fidelity
    taken from fidelity(synthesize_f(solve(spec), t), state.theta)."""
    f_sub = fidelity(synthesize_f(solve(spec), t), state.theta)
    return abs(model.fidelity(state.theta, state.phi, t) - f_sub)


def bondwise_apply(terms, dims, states):
    """Every local term applied to dense states (prod(dims), k) on the
    (left, local, right * k) view of the site tensor, one matrix element at a time."""
    out = np.zeros_like(states)
    for site, op in terms:
        shape = (math.prod(dims[:site]), op.shape[0], -1)
        src, dst = states.reshape(shape), out.reshape(shape)
        for row, col in zip(*np.nonzero(op)):
            dst[:, row] += op[row, col] * src[:, col]
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


_values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def mixed_chain_parts(draw, min_sites, max_sites, fields=_values):
    """(spins, fields, couplings) with spins 1/2, 1 and 3/2."""
    n = draw(st.integers(min_value=min_sites, max_value=max_sites))
    spins = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=n, max_size=n))
    site_fields = draw(st.lists(fields, min_size=n, max_size=n))
    couplings = draw(st.lists(_values, min_size=n - 1, max_size=n - 1))
    return spins, site_fields, couplings


def _chain(spins, fields, couplings) -> ChainSpec:
    sites = tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields))
    return ChainSpec(sites=sites, couplings=tuple(couplings))


@st.composite
def mixed_chains(draw, min_sites=2, max_sites=4, fields=_values):
    return _chain(*draw(mixed_chain_parts(min_sites, max_sites, fields)))


bloch_states = st.builds(BlochState, st.floats(0.0, math.pi),
                         st.floats(0.0, 2.0 * math.pi, exclude_max=True))


class TestSpinOperators:
    def test_spin_half_matrices(self):
        sx, sy, sz = spin_operators(SPIN_HALF)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]], atol=0)
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]], atol=0)
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]], atol=0)

    def test_spin_one_matrices(self):
        sx, _, sz = spin_operators(SPIN_ONE)
        r = 1 / math.sqrt(2)
        assert np.allclose(sx, [[0, r, 0], [r, 0, r], [0, r, 0]], atol=1e-15)
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]), atol=0)

    def test_cached_and_read_only(self):
        ops = spin_operators(SPIN_ONE)
        assert spin_operators(SpinMagnitude(1.0)) is ops
        for op in ops:
            assert not op.flags.writeable

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.5])
    def test_su2_algebra(self, s):
        sx, sy, sz = spin_operators(SpinMagnitude(s))
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) <= 1e-14
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(casimir, s * (s + 1) * np.eye(sx.shape[0]), atol=1e-13)


class TestFullHamiltonian:
    def test_single_bond_two_half_spins(self):
        spec = ChainSpec(sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF)), couplings=(1.3,))
        h = full_hamiltonian(spec)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.3 / 2.0
        assert np.max(np.abs(h - expected)) <= 1e-15

    def test_excitation_block_matches_reduce(self):
        spec = preset("sec2-two-spin", 1.1, 0.4)
        h_full = full_hamiltonian(spec)
        assert h_full.shape == (6, 6)
        h = reduce(spec)
        idx = excitation_sector_indices(spec)
        block = h_full[np.ix_(idx, idx)].real
        expected = np.zeros((3, 3))
        expected[0, 0] = h.vacuum_energy
        expected[1:, 1:] = h.matrix()
        assert np.max(np.abs(block - expected)) <= 1e-13

    def test_vacuum_decoupled_from_excitations(self):
        spec = preset("sec3-three-spin-center", 0.9, 0.7)
        h_full = full_hamiltonian(spec)
        idx = excitation_sector_indices(spec)
        assert np.max(np.abs(h_full[idx[0], idx[1:]])) == 0.0

    def test_sz_commutator_vanishes(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sites = tuple(
                SiteSpec(SPIN_ONE if rng.uniform() < 0.5 else SPIN_HALF,
                         float(rng.uniform(-2, 2)))
                for _ in range(n)
            )
            spec = ChainSpec(sites=sites,
                             couplings=tuple(rng.uniform(-2, 2) for _ in range(n - 1)))
            h = full_hamiltonian(spec)
            sz = total_sz_diagonal(spec)
            comm = h * (sz[None, :] - sz[:, None])
            assert np.max(np.abs(comm)) <= 1e-13

    def test_dimension_cap(self):
        sites = tuple(SiteSpec(SPIN_ONE) for _ in range(8))  # 3^8 = 6561 > 4096
        spec = ChainSpec(sites=sites, couplings=(1.0,) * 7)
        with pytest.raises(DimensionCapError):
            full_hamiltonian(spec)


class TestEvolveAndTrace:
    def test_initial_receiver_state(self):
        spec = preset("sec2-three-spin-center", 1.0, 0.3)
        rho = FullSpaceModel(spec).receiver_densities(2.0, 1.0, 0.0)[0]
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) <= 1e-14

    def test_density_matrix_properties(self):
        spec = preset("sec4-three-spin-center", 0.8, 1.1)
        rng = np.random.default_rng(22)
        model = FullSpaceModel(spec)
        for _ in range(10):
            state = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            rho = model.receiver_densities(state.theta, state.phi, float(rng.uniform(0, 20)))[0]
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-13
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12

    def test_spin_one_receiver_block(self):
        # receiver with spin 1: only its top two levels are reachable
        spec = ChainSpec(
            sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF), SiteSpec(SPIN_ONE, 0.4)),
            couplings=(1.0, 0.8),
        )
        model = FullSpaceModel(spec)
        rho = model.receiver_densities(math.pi / 2, 1.0, 3.0)[0]
        assert rho.shape == (2, 2)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


class TestCrossCheck:
    def test_presets_random_inputs(self):
        rng = np.random.default_rng(25)
        for name in ("sec2-two-spin", "sec3-three-spin-center", "sec4-three-spin-center"):
            spec = preset(name, 1.2, 0.6)
            model = FullSpaceModel(spec)
            spectrum = solve(spec)
            for _ in range(20):
                t = float(rng.uniform(0, 20))
                theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
                f_sub = fidelity(synthesize_f(spectrum, t), theta)
                assert abs(model.fidelity(theta, phi, t) - f_sub) <= 1e-10

    def test_vacuum_input_exact(self):
        spec = preset("sec2-two-spin", 1.0, 0.3)
        assert subspace_gap(FullSpaceModel(spec), spec, BlochState(0.0, 0.0), 4.2) <= 1e-14

    def test_uncoupled_chain_exact(self):
        spec = ChainSpec(
            sites=(SiteSpec(SPIN_HALF, 0.7), SiteSpec(SPIN_HALF, -0.2)),
            couplings=(0.0,),
        )
        assert subspace_gap(FullSpaceModel(spec), spec, BlochState(2.1, 0.5), 9.0) <= 1e-14

    def test_reference_transfer_matches_density_route(self):
        # at the critical time of the two-site impurity chain, the full-space
        # density matrix must match the f-based one entry by entry
        from spintransfer.fidelity import reduced_density

        j = 1.0
        t_c = math.pi / (math.sqrt(2) * j)
        spec = preset("sec2-two-spin", j, 0.0)
        state = BlochState(math.pi / 2, 0.0)
        rho_full = FullSpaceModel(spec).receiver_densities(state.theta, state.phi, t_c)[0]
        rho_sub = reduced_density(synthesize_f(solve(spec), t_c), state)
        assert np.max(np.abs(rho_full - rho_sub)) <= 1e-12


class TestAgainstKronOracle:
    @settings(max_examples=40, deadline=None)
    @given(spec=mixed_chains())
    def test_bondwise_hamiltonian_matches_kron_oracle(self, spec):
        assert np.max(np.abs(full_hamiltonian(spec) - kron_hamiltonian(spec))) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(spec=mixed_chains(), state=bloch_states, t=st.floats(0.0, 20.0))
    def test_sector_evolution_matches_dense_eigh(self, spec, state, t):
        rho = FullSpaceModel(spec).receiver_densities(state.theta, state.phi, t)[0]
        assert np.max(np.abs(rho - dense_receiver_density(spec, state, t))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(spec=mixed_chains())
    def test_basis_images_match_the_bondwise_oracle_bit_for_bit(self, spec):
        dims = [site.spin.dim for site in spec.sites]
        oracle = bondwise_apply(full_space._local_terms(spec), dims,
                                np.eye(math.prod(dims), dtype=complex))
        assert np.array_equal(_bits(full_hamiltonian(spec)), _bits(oracle))
        sector = excitation_sector_indices(spec)
        block = oracle[np.ix_(sector, sector)]
        assert np.array_equal(_bits(FullSpaceModel(spec).block), _bits(block))

    @settings(max_examples=60, deadline=None)
    @given(spec=mixed_chains(), seed=st.integers(0, 2**32 - 1))
    def test_sz_commutator_max_equals_the_dense_commutator(self, spec, seed):
        def dense() -> float:
            sz = total_sz_diagonal(spec)
            return float(np.max(np.abs(full_hamiltonian(spec) * (sz[None, :] - sz[:, None]))))

        assert sz_commutator_max(spec) == dense()
        # XX bonds conserve Sz, so both are 0 above.  Random entries that change
        # the levels of both sites of a bond break it and must be found alike.
        rng = np.random.default_rng(seed)
        terms = []
        for site, op in full_space._local_terms(spec):
            if op.shape[0] > spec.sites[site].spin.dim:
                level_a, level_b = np.divmod(np.arange(op.shape[0]),
                                             spec.sites[site + 1].spin.dim)
                both = np.not_equal.outer(level_a, level_a) & np.not_equal.outer(level_b, level_b)
                op = op + both * (rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape))
            terms.append((site, op))
        with mock.patch.object(full_space, "_local_terms", lambda _: terms):
            assert sz_commutator_max(spec) == dense() > 0.0

    @settings(max_examples=30, deadline=None)
    @given(spec=mixed_chains(),
           draws=st.lists(st.tuples(bloch_states, st.floats(0.0, 20.0)), min_size=1,
                          max_size=6))
    def test_batched_receiver_densities(self, spec, draws):
        model = FullSpaceModel(spec)
        theta, phi, t = (np.array(column) for column in zip(
            *[(state.theta, state.phi, time) for state, time in draws]))
        rho = model.receiver_densities(theta, phi, t)
        fid = model.fidelity(theta, phi, t)
        assert rho.shape == (len(draws), 2, 2) and fid.shape == (len(draws),)
        for j, (state, time) in enumerate(draws):
            assert np.max(np.abs(rho[j] - dense_receiver_density(spec, state, time))) <= 1e-12
            alone = model.receiver_densities(state.theta, state.phi, time)[0]
            assert np.array_equal(_bits(rho[j]), _bits(alone))
            assert fid[j].hex() == model.fidelity(state.theta, state.phi, time).hex()

    def test_fidelity_takes_a_scalar_or_one_dimensional_t(self):
        model = FullSpaceModel(preset("sec2-two-spin", 1.0, 0.0))
        theta, phi, t = 1.1, 0.4, np.array([0.5, 1.0, 2.0])
        values = model.fidelity(theta, phi, t)
        alone = model.fidelity(theta, phi, 1.0)
        assert values.shape == (3,) and type(alone) is float and alone.hex() == values[1].hex()
        # a float only when all three are scalars
        for args in ((np.array([theta]), phi, 1.0), (theta, [phi], 1.0)):
            assert model.fidelity(*args).tobytes() == np.array([alone]).tobytes()
        with pytest.raises(ValueError, match="one-dimensional"):
            model.fidelity(theta, phi, t.reshape(3, 1))

    def test_batches_over_the_state_cap_give_the_same_bits(self, monkeypatch):
        spec = ChainSpec(sites=(SiteSpec(SPIN_HALF, 0.3), SiteSpec(SPIN_ONE, -0.4),
                                SiteSpec(SPIN_HALF)), couplings=(1.0, 0.7))
        rng = np.random.default_rng(27)
        theta, phi, t = rng.uniform(0, math.pi, 7), rng.uniform(0, 6, 7), rng.uniform(0, 9, 7)
        whole = FullSpaceModel(spec)
        monkeypatch.setattr(full_space, "STATE_CAP", 2 * 12)  # two columns per batch
        split = FullSpaceModel(spec)
        assert np.array_equal(_bits(split.block), _bits(whole.block))
        assert np.array_equal(_bits(split.receiver_densities(theta, phi, t)),
                              _bits(whole.receiver_densities(theta, phi, t)))

    @settings(max_examples=25, deadline=None)
    @given(spec=mixed_chains(fields=st.floats(0.1, 2.0)))
    def test_broken_sz_conservation_is_refused(self, spec):
        def tilted(spin):
            sx, sy, sz = spin_operators(spin)
            return sx, sy, sz + 1e-3 * sx

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(full_space, "spin_operators", tilted)
            with pytest.raises(RuntimeError, match="out of the excitation sector"):
                FullSpaceModel(spec)

    def test_receiver_leak_is_refused(self):
        model = FullSpaceModel(preset("sec4-three-spin-center", 1.0, 0.5))
        model.eigenvectors = model.eigenvectors * (1 + 1e-6)
        with pytest.raises(RuntimeError, match="leaked out of the receiver's reachable levels"):
            model.receiver_densities(1.0, 0.5, 2.0)

    def test_overflowing_phase_is_refused(self):
        # E t overflows at a finite t: the state is NaN, which passes no leak test
        model = FullSpaceModel(preset("sec2-two-spin", 10.0, 0.0))
        for method in (model.receiver_densities, model.fidelity):
            for t in (1.7e308, [1.0, 1.7e308]):
                with pytest.raises(ValueError, match=r"^the state is not finite at t = 1\.7e\+308: "
                                                     r"the phases E t overflow"):
                    method(0.5, 0.5, t)

    @pytest.mark.parametrize("bad", ["theta", "phi", "t"])
    def test_non_finite_inputs_are_refused(self, bad):
        model = FullSpaceModel(preset("sec2-two-spin", 1.0, 0.0))
        draws = {"theta": np.array([1.0, 2.0]), "phi": np.array([0.5, 0.5]), "t": 3.0}
        # an int beyond the floats is refused as an infinity is
        values = (np.array([1.0, math.nan]), [1.0, 10**400]) if bad != "t" else (math.inf, 10**400)
        for value in values:
            draws[bad] = value
            for method in (model.receiver_densities, model.fidelity):
                with pytest.raises(ValueError, match="must be finite"):
                    method(**draws)


class TestLimits:
    def test_spin_one_chain_beyond_the_dense_cap(self):
        rng = np.random.default_rng(26)
        sites = tuple(SiteSpec(SPIN_ONE, float(rng.uniform(-1, 1))) for _ in range(8))
        spec = ChainSpec(sites=sites, couplings=tuple(rng.uniform(-1.5, 1.5, 7)))
        with pytest.raises(DimensionCapError, match="6561"):
            full_hamiltonian(spec)
        theta, phi, t = np.array([(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                                   rng.uniform(0, 20)) for _ in range(5)]).T
        f_sub = fidelity(synthesize_f(solve(spec), t), theta)
        assert np.max(np.abs(FullSpaceModel(spec).fidelity(theta, phi, t) - f_sub)) <= 1e-10

    def test_engineered_sixteen_site_chain(self):
        spec = engineered_chain(16, lam=1.0)
        model = FullSpaceModel(spec)
        assert model.sector[-1] == 1 and model.dims == [2] * 16
        spectrum = solve(spec)
        for t, theta, phi in [(1.3, 0.4, 2.0), (math.pi, math.pi / 2, 1.0), (7.9, 2.9, 5.5)]:
            f_sub = fidelity(synthesize_f(spectrum, t), theta)
            assert abs(model.fidelity(theta, phi, t) - f_sub) <= 1e-10

    def test_state_cap_refused_before_any_vector(self, refuse_alloc):
        spec = ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 21, couplings=(1.0,) * 20)
        refuse_alloc("zeros")
        with pytest.raises(DimensionCapError, match=str(2**21)):
            FullSpaceModel(spec)

    def test_dimension_beyond_printable_digits_is_refused_by_its_size(self, refuse_alloc):
        # (2e290 + 1)^20 has some 5,800 digits, more than Python prints
        refuse_alloc("zeros")
        spec = ChainSpec(sites=(SiteSpec(SpinMagnitude(1e290)),) * 20, couplings=(1.0,) * 19)
        for build, refusal in [
            (FullSpaceModel, "the total dimension must be an integer in [1, 1048576], "
                             "got a 19288-bit integer"),
            (full_hamiltonian, "the total dimension must be an integer in [1, 4096], "
                               "got a 19288-bit integer"),
            (sz_commutator_max, "the widest bond's dimension must be an integer in [1, 4096], "
                                "got a 1929-bit integer"),
        ]:
            with pytest.raises(DimensionCapError) as refused:
                build(spec)
            assert str(refused.value) == refusal

    @pytest.mark.parametrize("build", [FullSpaceModel, sz_commutator_max, full_hamiltonian])
    def test_bond_over_the_dense_cap_refused_before_any_operator(self, refuse_alloc, build):
        # 201^2 = 40,401 states fit STATE_CAP, but the bond's dense operator
        # would take 16 * 201^4 bytes, about 26 GB; the levels of a spin 1e9
        # alone would take 16 GB
        for name in ("zeros", "multiply", "arange"):
            refuse_alloc(name)
        for s, dim in [(100.0, 201), (1e9, 2 * 10**9 + 1)]:
            spec = ChainSpec(sites=(SiteSpec(SpinMagnitude(s)),) * 2, couplings=(1.0,))
            with pytest.raises(DimensionCapError, match=str(dim**2)):
                build(spec)

    def test_bond_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(full_space, "DIMENSION_CAP", 6)
        half_one = ChainSpec(sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_ONE)), couplings=(1.0,))
        assert sz_commutator_max(half_one) == 0.0
        assert FullSpaceModel(half_one).block.shape == (3, 3)
        with pytest.raises(DimensionCapError) as refused:
            sz_commutator_max(ChainSpec(sites=(SiteSpec(SPIN_ONE),) * 2, couplings=(1.0,)))
        assert str(refused.value) == ("the widest bond's dimension must be an integer in [1, 6], "
                                      "got 9")

    def test_state_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(full_space, "STATE_CAP", 8)
        three = ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 3, couplings=(1.0, 0.5))
        assert subspace_gap(FullSpaceModel(three), three, BlochState(1.0, 0.5), 2.0) <= 1e-14
        with pytest.raises(DimensionCapError):
            FullSpaceModel(ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 4, couplings=(1.0,) * 3))


class TestSpectra:
    @settings(max_examples=40, deadline=None)
    @given(parts=mixed_chain_parts(2, 6), state=bloch_states, t=st.floats(0.0, 50.0))
    def test_reciprocity_on_mirror_chains(self, parts, state, t):
        spins, fields, couplings = parts
        spec = _chain(spins, fields, couplings)
        mirror = _chain(spins[::-1], fields[::-1], couplings[::-1])
        assert abs(synthesize_f(solve(spec), t) - synthesize_f(solve(mirror), t)) <= 1e-12
        rho = FullSpaceModel(spec).receiver_densities(state.theta, state.phi, t)[0]
        rho_mirror = FullSpaceModel(mirror).receiver_densities(state.theta, state.phi, t)[0]
        assert np.max(np.abs(rho - rho_mirror)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(half=mixed_chain_parts(1, 3), eps=st.floats(1e-9, 1e-5), state=bloch_states,
           t=st.floats(0.0, 50.0))
    def test_near_degenerate_halves(self, half, eps, state, t):
        # two identical halves joined by a weak bond: every level is split by O(eps)
        spins, fields, couplings = half
        spec = _chain(spins * 2, fields * 2, couplings + [eps] + couplings)
        f_sub = fidelity(synthesize_f(solve(spec), t), state.theta)
        assert abs(FullSpaceModel(spec).fidelity(state.theta, state.phi, t) - f_sub) <= 1e-10
