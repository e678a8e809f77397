"""Engineered couplings J_i = lam sqrt(i(N-i)): perfect mirrors, until an impurity.

On a plain spin-1/2 chain these couplings make the excitation block a scaled
angular-momentum ladder, so the chain transfers perfectly at t = pi / lam.
Dropping a spin-1 site into the chain rescales its two bonds by sqrt(2),
detunes the ladder, and the searched peaks stop reaching 1.  The experiment
below reports what the search finds; it asserts nothing.
"""

import math

from spintransfer.chain import engineered_chain
from spintransfer.optimize import SearchConfig, maximize_fidelity

print("=== plain engineered chains transfer perfectly ===")
for n in (5, 8):
    spec = engineered_chain(n, lam=1.0)
    res = maximize_fidelity(spec, SearchConfig(t_max=1.3 * math.pi), corrected=True)
    print(f"  N={n}: max|f| = {res.abs_f:.12f} at t = {res.best_t:.9f}  (pi = {math.pi:.9f})")

print()
print("=== same chains with one spin-1 site (search over t <= 60 pi) ===")
print("  N  site   max|f|      at t")
for n in (4, 5, 6, 8):
    for k in sorted({2, (n + 1) // 2}):
        spec = engineered_chain(n, lam=1.0, spin_one_site=k)
        res = maximize_fidelity(spec, SearchConfig(t_max=60.0 * math.pi), corrected=True)
        print(f"  {n}  {k:4d}   {res.abs_f:.6f}  {res.best_t:9.4f}")

print()
print("Reading the table: the rescaled bonds break the equally spaced ladder")
print("spectrum, so no sampled time reaches |f| = 1 again.  Mirror-symmetric")
print("placements (the centre of an odd chain) recur closest to perfect;")
print("off-centre placements also break mirror symmetry and fare worse.")
