"""Three-site chain with a spin-1 centre: a dead channel until corrected.

Here f(t) = -e^{iBt} sin^2(J t / 2).  At B = 0 the amplitude sits on the
negative real axis, cos(gamma) = -1, and the average fidelity never beats
1/2 (no communication).  Either a phase-flip gate at the receiver or a tuned
field turns the same chain into a perfect channel.
"""

import math

import numpy as np

from spintransfer.chain import preset
from spintransfer.excitation import solve, synthesize_f
from spintransfer.fidelity import average_fidelity, corrected_average_fidelity, fidelity_report
from spintransfer.optimize import SearchConfig, maximize_fidelity, tune_uniform_field

J = 1.0
T_C = math.pi / J

print("=== bare channel (B = 0) is useless on average ===")
spec = preset("sec2-three-spin-center", J, 0.0)
best = maximize_fidelity(spec, SearchConfig(t_max=4.0 * math.pi / J))
print(f"max Fbar over four periods = {best.fbar:.9f} (attained at t = {best.best_t:.2e})")

grid = np.linspace(0.0, 2.0 * T_C, 9)
print("      t      |f|     gamma     Fbar")
rep = fidelity_report(grid, synthesize_f(solve(spec), grid))
for t, abs_f, gamma, fbar in zip(rep.t, rep.abs_f, rep.gamma, rep.fbar):
    print(f"  {t:7.3f}  {abs_f:.4f}  {gamma:+.4f}  {fbar:.4f}")

print()
print("=== a Z gate at the receiver rescues it ===")
f = synthesize_f(solve(spec), T_C)
corrected, phase = corrected_average_fidelity(f)
print(f"f(t_c) = {f:.6f}, gate phase = {phase:+.6f} (|phase| = pi: a Z gate)")
print(f"corrected Fbar at t_c = pi/J: {corrected:.12f}")

print()
print("=== or tune the uniform field to B_c = (2l+1) pi / t_c ===")
res = tune_uniform_field(spec, SearchConfig(t_max=1.3 * T_C), (0.0, 2.0))
print(f"tuned optimum: Fbar = {res.fbar:.9f} at t = {res.best_t:.6f}, B = {res.best_field:.6f}")

tuned = preset("sec2-three-spin-center", J, math.pi / T_C)
f = synthesize_f(solve(tuned), T_C)
print(f"closed-form check at B = pi/t_c: f(t_c) = {f:.6f} -> Fbar = "
      f"{average_fidelity(f):.12f}")
