"""Two independent routes to the same physics: subspace engine vs full tensor product.

The engine works in the (N+1)-dimensional zero-plus-single-excitation sector.
The brute-force route applies the product-space Hamiltonian (dimension
prod(2 s_i + 1)) built from the spin matrices to the sector states, evolves
exactly inside that invariant block, and partial-traces onto the receiver.
Their fidelities agree to near machine precision, which validates the
sqrt(s_i s_{i+1}) hopping rule and the sector reduction in one stroke.
"""

import math

import numpy as np

from spintransfer.chain import ChainSpec, SPIN_HALF, SPIN_ONE, SiteSpec, preset
from spintransfer.excitation import reduce, solve, synthesize_f
from spintransfer.fidelity import BlochState, fidelity
from spintransfer.full_space import (FullSpaceModel, excitation_sector_indices, full_hamiltonian,
                                     total_sz_diagonal)

rng = np.random.default_rng(2)

print("=== a mixed-spin random chain, dimension", end=" ")
sites = tuple(
    SiteSpec(SPIN_ONE if rng.uniform() < 0.5 else SPIN_HALF, float(rng.uniform(-1, 1)))
    for _ in range(5)
)
spec = ChainSpec(sites=sites, couplings=tuple(rng.uniform(-1.5, 1.5) for _ in range(4)))
h_full = full_hamiltonian(spec)
print(f"{h_full.shape[0]} ===")
print("spins:", [s.spin.s for s in spec.sites])

print("\nconservation: max |[H, Sz_total]| entry =", end=" ")
sz = total_sz_diagonal(spec)
print(f"{np.max(np.abs(h_full * (sz[None, :] - sz[:, None]))):.3e}")

print("\nembedding: the excitation block of the dense H vs the reduced engine block")
h = reduce(spec)
idx = excitation_sector_indices(spec)
block = h_full[np.ix_(idx, idx)].real
expected = np.zeros_like(block)
expected[0, 0] = h.vacuum_energy
expected[1:, 1:] = h.matrix()
print(f"max entry difference = {np.max(np.abs(block - expected)):.3e}")

print("\nfidelities along a trajectory (theta = pi/2, phi = 1):")
state = BlochState(math.pi / 2, 1.0)
model = FullSpaceModel(spec)
print("      t    F (subspace)   F (full)      |diff|")
for t in np.linspace(0.0, 12.0, 7):
    f_sub = fidelity(synthesize_f(solve(spec), t), state.theta)
    f_full = model.fidelity(state.theta, state.phi, t)
    print(f"  {t:6.2f}   {f_sub:.10f}  {f_full:.10f}  {abs(f_sub - f_full):.2e}")

print("\nreference system, receiver density matrix at the critical time:")
spec2 = preset("sec2-two-spin", 1.0, 0.0)
t_c = math.pi / math.sqrt(2.0)
rho = FullSpaceModel(spec2).receiver_densities(state.theta, state.phi, t_c)[0]
print(np.array_str(rho, precision=6, suppress_small=True))
print("(populations 1/2, 1/2 and coherence magnitude 1/2: the f = -i channel)")
