"""Receiver-side density matrix and fidelity measures for a channel amplitude f.

For the input state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> sent through a
channel with end-to-end amplitude f, the receiver's reduced density matrix is

    rho = [[1 - sin^2(theta/2) |f|^2,   (1/2) sin(theta) e^{-i phi} conj(f)],
           [(1/2) sin(theta) e^{i phi} f,        sin^2(theta/2) |f|^2      ]]

and the fidelity F = <in|rho|in>.  Averaging F uniformly over the Bloch sphere
gives

    Fbar = 1/2 + |f| cos(gamma) / 3 + |f|^2 / 6,   gamma = arg(f).

A receiver-side gate diag{1, e^{-i vartheta}} with vartheta = arg(f) removes
the phase penalty, raising the average to 1/2 + |f|/3 + |f|^2/6; no local
gate can repair |f| < 1.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AmplitudeOutOfRangeError",
    "BlochState",
    "FidelityReport",
    "reduced_density",
    "fidelity",
    "average_fidelity",
    "corrected_average_fidelity",
    "average_fidelities",
    "bloch_average_quadrature",
    "fidelity_report",
    "fidelity_reports",
]

# |f| may exceed 1 by at most this much (upstream round-off); beyond it the
# input is treated as corrupt.
_CLAMP_EXCESS = 1e-9
_BOUNDARY_TOL = 1e-12


class AmplitudeOutOfRangeError(ValueError):
    """|f| exceeds 1 by more than round-off can explain."""


@dataclass(frozen=True)
class BlochState:
    """A pure qubit state by its polar and azimuthal Bloch angles."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")

    def amplitudes(self) -> tuple[complex, complex]:
        """(amplitude on |0>, amplitude on |1>)."""
        return (
            complex(math.cos(self.theta / 2.0)),
            cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0),
        )


def _checked_amplitude(f: complex) -> complex:
    f = complex(f)
    mag = abs(f)
    if mag > 1.0 + _CLAMP_EXCESS:
        raise AmplitudeOutOfRangeError(
            f"|f| = {mag!r} exceeds 1 beyond the round-off allowance {_CLAMP_EXCESS}"
        )
    if mag > 1.0:
        return f / mag
    return f


def _clip_boundary(value: float) -> float:
    if 1.0 < value <= 1.0 + _BOUNDARY_TOL:
        return 1.0
    if -_BOUNDARY_TOL <= value < 0.0:
        return 0.0
    return value


def reduced_density(f: complex, state: BlochState) -> np.ndarray:
    """2x2 receiver density matrix; Hermitian, trace one, positive semidefinite."""
    f = _checked_amplitude(f)
    pop = math.sin(state.theta / 2.0) ** 2 * abs(f) ** 2
    off = 0.5 * math.sin(state.theta) * cmath.exp(-1j * state.phi) * f.conjugate()
    return np.array([[1.0 - pop, off], [off.conjugate(), pop]], dtype=complex)


def _state_fidelity(f: complex, theta):
    """<in|rho|in> for a checked f and polar angle(s) theta; phi drops out."""
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    mag2 = abs(f) ** 2
    return c2 * (1.0 - mag2 * s2 + 2.0 * s2 * f.real) + mag2 * s2 * s2


def fidelity(f: complex, state: BlochState) -> float:
    """Overlap of the received state with the sent one for a single input."""
    return float(_state_fidelity(_checked_amplitude(f), state.theta))


def _average(re, mag):
    """1/2 + re/3 + mag^2/6 on floats or arrays.

    Fbar at re = Re f, mag = |f|; the corrected Fbar at re = mag = |f|.
    """
    return 0.5 + re / 3.0 + mag * mag / 6.0


def average_fidelity(f: complex) -> float:
    """Fidelity averaged uniformly over all pure input states."""
    f = _checked_amplitude(f)
    return _clip_boundary(_average(f.real, abs(f)))


def corrected_average_fidelity(f: complex) -> tuple[float, float]:
    """Best average fidelity after the receiver's phase gate, and the gate phase.

    The gate diag{1, e^{-i vartheta}} with vartheta = arg(f) rotates f onto
    the positive real axis, so the corrected value is the average fidelity
    evaluated at |f|.  At f = 0 the phase is reported as 0.
    """
    f = _checked_amplitude(f)
    mag = abs(f)
    phase = math.atan2(f.imag, f.real)
    return _clip_boundary(_average(mag, mag)), phase


def average_fidelities(f, corrected: bool = False) -> np.ndarray:
    """average_fidelity, or the value of corrected_average_fidelity, on a 1-D array of f.

    Element i equals the scalar function at f[i] bit for bit: |f| comes from
    Python's abs, because numpy's can differ in the last bit, and the rare
    rows that the scalar rules rescale or clip are taken from the scalar
    functions, which also raise AmplitudeOutOfRangeError.  No phase is
    computed.
    """
    f = np.asarray(f, dtype=complex)
    mag = np.empty(f.size)
    for lo in range(0, f.size, 1024):  # blocks keep the Python objects few
        mag[lo:lo + 1024] = [abs(z) for z in f[lo:lo + 1024].tolist()]
    values = _average(mag if corrected else f.real, mag)
    # No average fidelity falls below 1/6, so the clip at 0 never applies.
    for i in np.flatnonzero((mag > 1.0) | (values > 1.0)):
        values[i] = corrected_average_fidelity(f[i])[0] if corrected else average_fidelity(f[i])
    return values


@lru_cache(maxsize=8)
def _theta_rule(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre angles arccos(x_i) and weights, read-only; leggauss costs ms."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    rule = np.arccos(nodes), weights
    for array in rule:
        array.setflags(write=False)
    return rule


def bloch_average_quadrature(f: complex, n_theta: int = 64, n_phi: int = 64) -> float:
    """Numerical sphere average of fidelity(f, .) as an independent check.

    Gauss-Legendre in cos(theta) with n_theta nodes crossed with the uniform
    trapezoid rule in phi (endpoints identified) with n_phi nodes.  The
    integrand is a low-degree polynomial in cos(theta), so modest resolutions
    are already exact to round-off.  It does not depend on phi, so every
    ring of n_phi trapezoid nodes averages to its value at the ring's theta,
    and only the theta nodes, cached per n_theta, are evaluated.
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("need at least 2 nodes per angle")
    theta, weights = _theta_rule(n_theta)
    rings = _state_fidelity(_checked_amplitude(f), theta)
    return float(weights @ rings) / 2.0


@dataclass(frozen=True)
class FidelityReport:
    """Average-fidelity summary of a channel amplitude at one time."""

    t: float
    f: complex
    abs_f: float
    gamma: float
    fbar: float
    fbar_corrected: float
    correction_phase: float


def fidelity_report(t: float, f: complex, phase_degenerate: bool = False) -> FidelityReport:
    """Bundle plain and corrected average fidelities for one (t, f) pair."""
    f = _checked_amplitude(f)
    fbar = average_fidelity(f)
    corrected, phase = corrected_average_fidelity(f)
    if phase_degenerate:
        phase = 0.0
    return FidelityReport(
        t=float(t),
        f=f,
        abs_f=abs(f),
        gamma=phase,
        fbar=fbar,
        fbar_corrected=corrected,
        correction_phase=phase,
    )


def fidelity_reports(t, f, phase_degenerate=False) -> FidelityReport:
    """fidelity_report over 1-D arrays: one FidelityReport whose fields are arrays.

    Element i of every field equals the field of fidelity_report(t[i], f[i],
    phase_degenerate[i]) bit for bit.  Magnitudes and phases come from
    Python's abs and math.atan2, because numpy's can differ in the last bit,
    and the rare rows that the scalar rules rescale or clip are taken from
    fidelity_report itself.  AmplitudeOutOfRangeError is raised before any
    row is computed.
    """
    t = np.array(t, dtype=float)
    f = np.array(f, dtype=complex)
    mag = np.empty(f.size)
    phase = np.empty(f.size)
    for lo in range(0, f.size, 1024):  # blocks keep the Python objects few
        block = f[lo:lo + 1024].tolist()
        mag[lo:lo + 1024] = [abs(z) for z in block]
        phase[lo:lo + 1024] = [math.atan2(z.imag, z.real) for z in block]
    if mag.size and mag.max() > 1.0 + _CLAMP_EXCESS:
        _checked_amplitude(f[np.argmax(mag)])
    degenerate = np.broadcast_to(phase_degenerate, f.shape)
    phase[degenerate] = 0.0
    rep = FidelityReport(t=t, f=f, abs_f=mag, gamma=phase, fbar=_average(f.real, mag),
                         fbar_corrected=_average(mag, mag), correction_phase=phase.copy())
    # No average fidelity falls below 1/6, so the clip at 0 never applies.
    for i in np.flatnonzero((mag > 1.0) | (rep.fbar > 1.0) | (rep.fbar_corrected > 1.0)):
        row = fidelity_report(t[i], f[i], bool(degenerate[i]))
        for field in dataclasses.fields(FidelityReport):
            getattr(rep, field.name)[i] = getattr(row, field.name)
    return rep
