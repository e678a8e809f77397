"""A site-local field genuinely damages the channel: |f| < J / mu < 1.

With the field B on the sender site of a two-site chain,
f(t) = -i e^{iBt/2} (J/mu) sin(mu t / 2) with mu = sqrt(B^2 + J^2), so the
amplitude can never reach unit magnitude and no local gate or field shift
can fix that.  A receiver phase gate still recovers everything the magnitude
allows, and J >> B pushes the ceiling back toward 1.
"""

import math

from spintransfer.chain import preset
from spintransfer.optimize import SearchConfig, maximize_fidelity

print("=== the J/mu ceiling (two sites, field on the sender) ===")
print("     J      B     J/mu    sup|f|   max corrected Fbar")
for j, b in [(1.0, 1.0), (1.0, 0.5), (2.0, 1.0), (0.5, 1.5)]:
    mu = math.hypot(j, b)
    spec = preset("sec3-two-spin", j, b)
    res = maximize_fidelity(spec, SearchConfig(t_max=20 * math.pi / mu), corrected=True)
    print(f"  {j:4.1f}  {b:5.1f}  {j / mu:.4f}  {res.abs_f:.6f}  {res.fbar_corrected:.6f}")

print()
print("=== three sites, field on the centre: the 0.9678 sweet spot ===")
# at J = 2 sqrt(2) B / 3 the level splitting is nu = 5B/3 and the corrected
# peak reaches sin(2 pi / 5) in |f|, about 0.9678 in corrected Fbar
b = 1.0
j = 2.0 * math.sqrt(2.0) * b / 3.0
spec = preset("sec3-three-spin-center", j, b)
res = maximize_fidelity(spec, SearchConfig(t_max=200.0 / b), corrected=True)
m = math.sin(2.0 * math.pi / 5.0)
print(f"J = {j:.6f}, B = {b}")
print(f"numerical:   sup|f| = {res.abs_f:.9f} at t = {res.best_t:.6f}")
print(f"closed form: sin(2 pi/5) = {m:.9f} at t = 12 pi/5 = {12 * math.pi / 5:.6f}")
print(f"corrected Fbar max = {res.fbar_corrected:.6f} (reference value 0.9678)")

print()
print("=== strong coupling pushes the bare channel toward 1 ===")
for ratio in (3.0, 10.0, 100.0):
    spec = preset("sec3-two-spin", ratio * b, b)
    res = maximize_fidelity(spec, SearchConfig(t_max=1.5 * math.pi / b))
    print(f"  J/B = {ratio:6.1f}: max Fbar (no correction) = {res.fbar:.6f}")
