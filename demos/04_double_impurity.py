"""Spin-1 centre carrying the field: exactly the magnetic-impurity chain in disguise.

The spin-1 site rescales both bonds by sqrt(2), so this chain's amplitude at
coupling J equals the centre-field spin-1/2 chain's amplitude at sqrt(2) J,
identically in t and B.  Its corrected optimum therefore lands on the same
0.9678 at J = 2B/3.
"""

import math

import numpy as np

from spintransfer.chain import preset
from spintransfer.closed_forms import PresetSystem, analytic_f
from spintransfer.excitation import solve, synthesize_f
from spintransfer.optimize import SearchConfig, maximize_fidelity

SQRT2 = math.sqrt(2.0)
B = 1.0

print("=== the exact twin mapping J -> sqrt(2) J ===")
j = 0.75
rng = np.random.default_rng(1)
worst = 0.0
for t in rng.uniform(0.0, 40.0, size=8):
    double = analytic_f(PresetSystem("sec4-three-spin-center", j, B), t)
    single = analytic_f(PresetSystem("sec3-three-spin-center", SQRT2 * j, B), t)
    worst = max(worst, abs(double - single))
    print(f"  t = {t:7.3f}: f_double = {double:+.6f}  f_single(sqrt2 J) = {single:+.6f}")
print(f"max |difference| over the samples: {worst:.3e}")

print()
print("=== engine agreement on the double-impurity chain ===")
spec = preset("sec4-three-spin-center", j, B)
for t in (1.0, 5.0, 17.3):
    engine = synthesize_f(solve(spec), t)
    closed = analytic_f(PresetSystem("sec4-three-spin-center", j, B), t)
    print(f"  t = {t:5.1f}: engine {engine:+.9f}  closed form {closed:+.9f}")

print()
print("=== the corrected optimum at J = 2B/3 ===")
spec = preset("sec4-three-spin-center", 2.0 * B / 3.0, B)
res = maximize_fidelity(spec, SearchConfig(t_max=200.0 / B), corrected=True)
print(f"corrected Fbar max = {res.fbar_corrected:.6f} at t = {res.best_t:.6f}")
print("(same 0.9678 as the single-field chain at J = 2 sqrt(2) B / 3)")
