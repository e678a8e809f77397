"""Full-Hilbert-space reference against the subspace pipeline.

The original construction of the validator, a dense H summed from kron chains
and evolved by a full-space eigh, is kept here as the oracle the bond-wise,
sector-restricted route is compared with.
"""

import math

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
from spintransfer.excitation import amplitudes, eigensolve, reduce, solve, synthesize_f
from spintransfer.fidelity import BlochState, fidelity
from spintransfer.full_space import (
    DimensionCapError,
    FullSpaceModel,
    cross_check,
    evolve_and_trace,
    excitation_sector_indices,
    full_fidelity,
    full_hamiltonian,
    spin_operators,
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


bloch_states = st.builds(BlochState, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


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
        rho = evolve_and_trace(spec, BlochState(2.0, 1.0), 0.0)
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) <= 1e-14

    def test_density_matrix_properties(self):
        spec = preset("sec4-three-spin-center", 0.8, 1.1)
        rng = np.random.default_rng(22)
        model = FullSpaceModel(spec)
        for _ in range(10):
            state = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            rho = model.receiver_density(state, float(rng.uniform(0, 20)))
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-13
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12

    def test_norm_preserved(self):
        spec = preset("sec2-two-spin", 1.0, 0.5)
        model = FullSpaceModel(spec)
        psi = model.initial_state(BlochState(1.0, 2.0))
        for t in (0.0, 1.0, 7.7, 31.4):
            assert abs(np.linalg.norm(model.evolve(psi, t)) - 1.0) <= 1e-12

    def test_spin_one_receiver_block(self):
        # receiver with spin 1: only its top two levels are reachable
        spec = ChainSpec(
            sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF), SiteSpec(SPIN_ONE, 0.4)),
            couplings=(1.0, 0.8),
        )
        model = FullSpaceModel(spec)
        rho = model.receiver_density(BlochState(math.pi / 2, 1.0), 3.0)
        assert rho.shape == (2, 2)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


class TestCrossCheck:
    def test_presets_random_inputs(self):
        rng = np.random.default_rng(25)
        for name in ("sec2-two-spin", "sec3-three-spin-center", "sec4-three-spin-center"):
            spec = preset(name, 1.2, 0.6)
            model = FullSpaceModel(spec)
            h = reduce(spec)
            eig = eigensolve(h)
            for _ in range(20):
                t = float(rng.uniform(0, 20))
                state = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                f_sub = fidelity(amplitudes(h, eig, t).f, state)
                assert abs(model.fidelity(state, t) - f_sub) <= 1e-10

    def test_vacuum_input_exact(self):
        spec = preset("sec2-two-spin", 1.0, 0.3)
        assert cross_check(spec, BlochState(0.0, 0.0), 4.2) <= 1e-14

    def test_uncoupled_chain_exact(self):
        spec = ChainSpec(
            sites=(SiteSpec(SPIN_HALF, 0.7), SiteSpec(SPIN_HALF, -0.2)),
            couplings=(0.0,),
        )
        assert cross_check(spec, BlochState(2.1, 0.5), 9.0) <= 1e-14

    def test_reference_transfer_matches_density_route(self):
        # at the critical time of the two-site impurity chain, the full-space
        # density matrix must match the f-based one entry by entry
        from spintransfer.fidelity import reduced_density

        j = 1.0
        t_c = math.pi / (math.sqrt(2) * j)
        spec = preset("sec2-two-spin", j, 0.0)
        state = BlochState(math.pi / 2, 0.0)
        rho_full = evolve_and_trace(spec, state, t_c)
        record = amplitudes(reduce(spec), eigensolve(reduce(spec)), t_c)
        rho_sub = reduced_density(record.f, state)
        assert np.max(np.abs(rho_full - rho_sub)) <= 1e-12


class TestAgainstKronOracle:
    @settings(max_examples=40, deadline=None)
    @given(spec=mixed_chains())
    def test_bondwise_hamiltonian_matches_kron_oracle(self, spec):
        assert np.max(np.abs(full_hamiltonian(spec) - kron_hamiltonian(spec))) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(spec=mixed_chains(), state=bloch_states, t=st.floats(0.0, 20.0))
    def test_sector_evolution_matches_dense_eigh(self, spec, state, t):
        rho = FullSpaceModel(spec).receiver_density(state, t)
        assert np.max(np.abs(rho - dense_receiver_density(spec, state, t))) <= 1e-12

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

    def test_state_outside_the_sector_is_refused(self):
        model = FullSpaceModel(preset("sec2-two-spin", 1.0, 0.0))
        psi = np.zeros(6, dtype=complex)
        psi[-1] = 1.0  # both sites lowered: a three-excitation state
        with pytest.raises(ValueError, match="outside the excitation sector"):
            model.evolve(psi, 1.0)


class TestLimits:
    def test_spin_one_chain_beyond_the_dense_cap(self):
        rng = np.random.default_rng(26)
        sites = tuple(SiteSpec(SPIN_ONE, float(rng.uniform(-1, 1))) for _ in range(8))
        spec = ChainSpec(sites=sites, couplings=tuple(rng.uniform(-1.5, 1.5, 7)))
        with pytest.raises(DimensionCapError, match="6561"):
            full_hamiltonian(spec)
        for _ in range(5):
            state = BlochState(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert cross_check(spec, state, float(rng.uniform(0, 20))) <= 1e-10

    def test_engineered_sixteen_site_chain(self):
        spec = engineered_chain(16, lam=1.0)
        model = FullSpaceModel(spec)
        assert model.sector[-1] == 1 and model.dims == [2] * 16
        h, eig = solve(spec)
        for t, theta, phi in [(1.3, 0.4, 2.0), (math.pi, math.pi / 2, 1.0), (7.9, 2.9, 5.5)]:
            state = BlochState(theta, phi)
            f_sub = fidelity(amplitudes(h, eig, t).f, state)
            assert abs(model.fidelity(state, t) - f_sub) <= 1e-10

    def test_state_cap_refused_before_any_vector(self, monkeypatch):
        spec = ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 21, couplings=(1.0,) * 20)

        def refuse(*args, **kwargs):
            raise AssertionError("a state vector was allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(DimensionCapError, match=str(2**21)):
            FullSpaceModel(spec)
        with pytest.raises(DimensionCapError):
            full_fidelity(spec, BlochState(1.0, 0.0), 1.0)

    def test_state_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(full_space, "STATE_CAP", 8)
        three = ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 3, couplings=(1.0, 0.5))
        assert cross_check(three, BlochState(1.0, 0.5), 2.0) <= 1e-14
        with pytest.raises(DimensionCapError):
            FullSpaceModel(ChainSpec(sites=(SiteSpec(SPIN_HALF),) * 4, couplings=(1.0,) * 3))


class TestSpectra:
    @settings(max_examples=40, deadline=None)
    @given(parts=mixed_chain_parts(2, 6), state=bloch_states, t=st.floats(0.0, 50.0))
    def test_reciprocity_on_mirror_chains(self, parts, state, t):
        spins, fields, couplings = parts
        spec = _chain(spins, fields, couplings)
        mirror = _chain(spins[::-1], fields[::-1], couplings[::-1])
        assert abs(synthesize_f(*solve(spec), t) - synthesize_f(*solve(mirror), t)) <= 1e-12
        rho = FullSpaceModel(spec).receiver_density(state, t)
        assert np.max(np.abs(rho - FullSpaceModel(mirror).receiver_density(state, t))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(half=mixed_chain_parts(1, 3), eps=st.floats(1e-9, 1e-5), state=bloch_states,
           t=st.floats(0.0, 50.0))
    def test_near_degenerate_halves(self, half, eps, state, t):
        # two identical halves joined by a weak bond: every level is split by O(eps)
        spins, fields, couplings = half
        spec = _chain(spins * 2, fields * 2, couplings + [eps] + couplings)
        f_sub = fidelity(synthesize_f(*solve(spec), t), state)
        assert abs(FullSpaceModel(spec).fidelity(state, t) - f_sub) <= 1e-10
