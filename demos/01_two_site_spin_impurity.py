"""Two-site chain whose sender is a spin-1: the impurity does not spoil transfer.

The excitation block of this chain has hopping J / sqrt(2) (the spin-1 site
rescales the bond), so f(t) = -i e^{iBt} sin(sqrt(2) J t / 2).  Without a
field the best average fidelity is 2/3, the classical benchmark; tuning a
uniform field aligns the phase and lifts it to 1.
"""

import math

import numpy as np

from spintransfer import (
    SearchConfig,
    average_fidelity,
    corrected_average_fidelity,
    critical_times,
    fidelity_report,
    maximize_fidelity,
    preset,
    transfer_amplitude,
    tune_uniform_field,
)
from spintransfer.closed_forms import PresetSystem, critical_field, zero_field_critical_time
from spintransfer.excitation import solve, synthesize_f

J = 1.0
T_STAR = math.pi / (math.sqrt(2.0) * J)

print("=== bare channel (B = 0) ===")
spec = preset("sec2-two-spin", J, 0.0)
grid = np.linspace(0.0, 2.5 * T_STAR, 9)
print("      t      |f|     gamma     Fbar")
rep = fidelity_report(grid, synthesize_f(solve(spec), grid))
for t, abs_f, gamma, fbar in zip(rep.t, rep.abs_f, rep.gamma, rep.fbar):
    print(f"  {t:7.3f}  {abs_f:.4f}  {gamma:+.4f}  {fbar:.4f}")

peaks = critical_times(spec, SearchConfig(t_max=3.5 * T_STAR))
print("critical times:", ", ".join(f"{t:.6f} (|f|={m:.6f})" for t, m in peaks))
print(f"expected (2k+1) pi / (sqrt(2) J) = {T_STAR:.6f}, {3 * T_STAR:.6f}")

best = maximize_fidelity(spec, SearchConfig(t_max=1.25 * T_STAR))
print(f"max Fbar = {best.fbar:.9f} at t = {best.best_t:.9f}  (2/3 = {2 / 3:.9f})")

print()
print("=== receiver-side phase gate instead of a field ===")
# at t*, f = -i: the gate diag{1, e^{i pi/2}} (an S gate) makes it real
rec = transfer_amplitude(spec, T_STAR)
corrected, phase = corrected_average_fidelity(rec.f)
print(f"f(t*) = {rec.f:.4f}; gate phase = {phase:+.4f} (-pi/2 means an S gate)")
print(f"corrected Fbar = {corrected:.9f}")

print()
print("=== tuning a uniform field to B_c ===")
res = tune_uniform_field(spec, SearchConfig(t_max=1.25 * T_STAR), (0.0, 2.0))
print(f"tuned optimum: Fbar = {res.fbar:.9f} at t = {res.best_t:.6f}, B = {res.best_field:.6f}")
print(f"closed-form B_c = pi / (2 t*) = {math.pi / (2 * T_STAR):.6f}")

print()
print("=== the printed (t_c, B_c) rules, checked numerically ===")
for k in (0, 1):
    t_c = zero_field_critical_time("sec2-two-spin", J, k)
    parity = "even" if k % 2 == 0 else "odd"
    for l in (0, 1):
        b_c = critical_field(PresetSystem("sec2-two-spin", J, 0.0), t_c, parity, l)
        fbar = average_fidelity(transfer_amplitude(preset("sec2-two-spin", J, b_c), t_c).f)
        print(f"  k={k} l={l}: t_c={t_c:.4f} B_c={b_c:.4f} -> Fbar={fbar:.12f}")
