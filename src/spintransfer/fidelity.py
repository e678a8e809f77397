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

The reports are the one place that computes the reported phase of f: gamma
= vartheta = arg(f) on (-pi, pi], with 0 where |f| <= PHASE_DEGENERATE_TOL,
below which the phase is numerically meaningless.  The tuned search
(optimize.tune_uniform_field) takes arg(f) too, but only to choose its field.

Shape rule, as excitation.synthesize_f's for times: average_fidelity,
corrected_average_fidelity and fidelity_report give Python scalars for a scalar
f and arrays for a 1-D f, entry i bit for bit the scalar result at f[i]; more
dimensions raise ValueError.  fidelity broadcasts f against the polar angle
theta, and gives a Python float only when both are scalars; theta and the
reports' t go by the chain's number rule (chain._finites), as times do, and
a reports' t that does not broadcast to f is refused, naming both shapes.
_report_blocks (simulate's rows) always gives arrays; reduced_density and
bloch_average_quadrature refuse an array.  A NaN |f| or one above
1 + _CLAMP_EXCESS raises AmplitudeOutOfRangeError before any value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .chain import _finite, _finites

__all__ = [
    "AmplitudeOutOfRangeError",
    "BlochState",
    "FidelityReport",
    "reduced_density",
    "fidelity",
    "average_fidelity",
    "corrected_average_fidelity",
    "bloch_average_quadrature",
    "fidelity_report",
]

# Below this |f| the phase of f is reported as 0.
PHASE_DEGENERATE_TOL = 1e-12
# |f| may exceed 1 by at most this much (upstream round-off); beyond it the
# input is treated as corrupt.
_CLAMP_EXCESS = 1e-9
# Rows per _report_blocks block: its eight columns stay near 64 kB.
_REPORT_BLOCK = 1024


class AmplitudeOutOfRangeError(ValueError):
    """|f| is NaN, or exceeds 1 by more than round-off can explain."""


@dataclass(frozen=True)
class BlochState:
    """A pure qubit state by its Bloch angles: floats by the chain's number rule, in range."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = _finite(self.theta, "theta"), _finite(self.phi, "phi")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def amplitudes(self) -> tuple[complex, complex]:
        """(amplitude on |0>, amplitude on |1>)."""
        return (
            complex(math.cos(self.theta / 2.0)),
            cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0),
        )


def _checked_amplitudes(f) -> tuple[np.ndarray, np.ndarray]:
    """(f, |f|) as 1-D arrays, |f| in (1, 1 + _CLAMP_EXCESS] rescaled to 1, NaN or more refused.

    |f| is np.hypot(Re f, Im f), the libm hypot that Python's abs(complex)
    calls, so it equals abs(z) for every element z.  A rescaled row divides
    Re f and Im f by |f| separately, as Python's complex / float does, and
    takes its |f| again.
    """
    f = np.array(f, dtype=complex, ndmin=1)  # a copy: rescaled in place, kept in reports
    if f.ndim > 1:
        raise ValueError(f"f must be a scalar or one-dimensional, got shape {f.shape}")
    mag = np.hypot(f.real, f.imag)
    peak = np.max(mag, initial=0.0)  # NaN if any |f| is, 0 for no rows
    if not peak <= 1.0 + _CLAMP_EXCESS:
        raise AmplitudeOutOfRangeError("|f| is nan: the amplitude is not a number" if peak != peak
                                       else f"|f| = {float(peak)!r} exceeds 1 beyond "
                                       f"the round-off allowance {_CLAMP_EXCESS}")
    if peak > 1.0:
        over = mag > 1.0
        f.real[over] /= mag[over]
        f.imag[over] /= mag[over]
        mag[over] = np.hypot(f.real[over], f.imag[over])
    return f, mag


def _shaped(f, column: np.ndarray):
    """A result column as the shape rule returns it for the amplitude argument f."""
    return column if np.ndim(f) else column[0].item()


def _one(f):
    """f, refused with ValueError if it is an array rather than one amplitude."""
    if np.ndim(f):
        raise ValueError(f"f must be one amplitude, got shape {np.shape(f)}")
    return f


def reduced_density(f: complex, state: BlochState) -> np.ndarray:
    """2x2 receiver density matrix; Hermitian, trace one, positive semidefinite."""
    f = complex(_checked_amplitudes(_one(f))[0][0])
    pop = math.sin(state.theta / 2.0) ** 2 * abs(f) ** 2
    off = 0.5 * math.sin(state.theta) * cmath.exp(-1j * state.phi) * f.conjugate()
    return np.array([[1.0 - pop, off], [off.conjugate(), pop]], dtype=complex)


def fidelity(f, theta) -> float | np.ndarray:
    """<in|rho|in>, the overlap of the received state with the sent one, for
    amplitudes f and polar angles theta broadcast against each other; the
    azimuth phi drops out.  A float when f and theta are both scalars: the
    array code on one row, so each entry of an array is the scalar call's bits."""
    f_checked, mag = _checked_amplitudes(f)
    theta = _finites(theta, "theta")
    half = np.atleast_1d(theta) / 2.0
    c2, s2 = np.cos(half) ** 2, np.sin(half) ** 2
    mag2 = mag * mag
    value = c2 * (1.0 - mag2 * s2 + 2.0 * s2 * f_checked.real) + mag2 * s2 * s2
    return value if np.ndim(f) or theta.ndim else value[0].item()


def _average(re, mag) -> np.ndarray:
    """1/2 + re/3 + mag^2/6 on arrays, a round-off excess over 1 clipped to 1.

    Fbar at re = Re f, mag = |f|; the corrected Fbar at re = mag = |f|.  No
    average fidelity falls below 1/6, so only the upper boundary is clipped.
    """
    value = 0.5 + re / 3.0 + mag * mag / 6.0
    return np.minimum(value, 1.0, out=value)


def average_fidelity(f, corrected: bool = False) -> float | np.ndarray:
    """Fidelity averaged uniformly over all pure input states; with corrected, after
    the receiver's phase gate (corrected_average_fidelity's value, no phase computed)."""
    f_checked, mag = _checked_amplitudes(f)
    return _shaped(f, _average(mag if corrected else f_checked.real, mag))


def corrected_average_fidelity(f) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Best average fidelity after the receiver's phase gate, and the gate phase.

    The gate diag{1, e^{-i vartheta}} with vartheta = arg(f) rotates f onto
    the positive real axis, so the corrected value is the average fidelity
    evaluated at |f|.  Where |f| <= PHASE_DEGENERATE_TOL the phase is
    reported as 0.
    """
    rep = _reports(0.0, *_checked_amplitudes(f))
    return _shaped(f, rep.fbar_corrected), _shaped(f, rep.gamma)


@cache
def _theta_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre angles arccos(x_i) and weights, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rule = np.arccos(nodes), weights
    for array in rule:
        array.setflags(write=False)
    return rule


def bloch_average_quadrature(f: complex) -> float:
    """Numerical sphere average of fidelity(f, .) as an independent check.

    A 64-node Gauss-Legendre rule in cos(theta), built on first use.  The
    integrand is a polynomial of degree 2 in cos(theta), so the rule is exact
    to round-off.  It does not depend on phi, so the average over phi is the
    integrand itself and needs no nodes.
    """
    theta, weights = _theta_rule()
    return float(weights @ fidelity(_one(f), theta)) / 2.0


@dataclass(frozen=True)
class FidelityReport:
    """Average-fidelity summary of a channel amplitude at one time, or arrays over times."""

    t: float
    f: complex
    abs_f: float
    gamma: float
    fbar: float
    fbar_corrected: float


def _checked_rows(t, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, f, |f|) for the reports: t by the number rule, then f as
    _checked_amplitudes gives it, then t broadcast to f's rows; a t of
    another shape is refused, naming both shapes, before any value."""
    t = _finites(t, "t")
    f_checked, mag = _checked_amplitudes(f)
    try:
        return np.broadcast_to(t, f_checked.shape), f_checked, mag
    except ValueError:
        raise ValueError(f"t of shape {t.shape} does not broadcast to f of shape "
                         f"{np.shape(f)}") from None


def fidelity_report(t, f) -> FidelityReport:
    """Plain and corrected average fidelities, |f| and the phase of f, at t broadcast to f."""
    rep = _reports(*_checked_rows(t, f))
    return FidelityReport(**{name: _shaped(f, column) for name, column in vars(rep).items()})


def _report_blocks(t, f) -> Iterator[FidelityReport]:
    """fidelity_report(t, f) as consecutive blocks of rows, each an array report.

    Every t, |f| and the shape of t is checked, and the refusal raised, by
    the call itself, before the first block exists; each block is computed
    only when the iterator reaches it, so the whole report is never held at
    once.
    """
    t, f, mag = _checked_rows(t, f)
    blocks = (slice(lo, lo + _REPORT_BLOCK) for lo in range(0, f.size, _REPORT_BLOCK))
    return (_reports(t[b], f[b], mag[b]) for b in blocks)


def _reports(t, f, mag) -> FidelityReport:
    """The report columns for checked f and |f| from _checked_amplitudes, at t.

    The phase is arg(f) on (-pi, pi]: arctan2 gives -pi for negative Re f
    when Im f is -0.0 or too small a negative to move the angle, and that
    point is folded onto +pi.
    """
    phase = np.arctan2(f.imag, f.real)
    phase[phase == -np.pi] = np.pi
    phase[mag <= PHASE_DEGENERATE_TOL] = 0.0
    t = np.array(np.broadcast_to(t, f.shape), dtype=float)  # a copy: never the caller's t
    return FidelityReport(t=t, f=f, abs_f=mag, gamma=phase, fbar=_average(f.real, mag),
                          fbar_corrected=_average(mag, mag))
