"""Closed-form spectra, transfer amplitudes, and field-tuning rules.

Each of the five reference systems admits an exact solution.  The formulas
here are written straight from those solutions, independently of the
numerical engine, so the two paths cross-check each other.

Shorthand used below (all for coupling J and field B):

    mu = sqrt(B^2 + J^2)      two spin-1/2 sites, field on the first
    nu = sqrt(B^2 + 2c J^2)   spin-s centre carrying the field, c = 2s
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _count, _finite, _known_preset, preset

__all__ = [
    "DegenerateSystemError",
    "NotTunableError",
    "PresetSystem",
    "analytic_f",
    "analytic_spectrum",
    "critical_field",
    "zero_field_critical_time",
]

_SQRT2 = math.sqrt(2.0)
_R = 1.0 / _SQRT2
# J = 0 is refused also where B^2 overflows and n+- is inf or NaN rather than 0.
_DEGENERATE_VECTORS = ("printed eigenvectors degenerate: J = 0, or a printed normalisation "
                       "n+- is 0 (J^2 lost beside B^2, or underflowed)")
_OVERFLOW = "closed form not finite: a level or normalisation overflows (|B| or |J| too large)"
_PHASE_OVERFLOW = "closed form not finite: a phase overflows (|B| t or |J| t too large)"


class DegenerateSystemError(ValueError):
    """The closed form is ill-posed for these parameters (J = B = 0 style)."""


class NotTunableError(ValueError):
    """No exact field tuning exists for this system."""


@dataclass(frozen=True)
class PresetSystem:
    """One of the five reference systems with its coupling and field; J and B
    follow the chain's number rule, as in preset."""

    name: str
    J: float
    B: float

    def __post_init__(self) -> None:
        _known_preset(self.name)
        object.__setattr__(self, "J", _finite(self.J, "J"))
        object.__setattr__(self, "B", _finite(self.B, "B"))

    def chain(self) -> ChainSpec:
        return preset(self.name, self.J, self.B)


def _phase(x: float) -> float:
    """x, a phase of analytic_f; one that overflowed to inf (or NaN) is refused."""
    if not math.isfinite(x):
        raise DegenerateSystemError(_PHASE_OVERFLOW)
    return x


def _split_level_amplitude(j_eff: float, b: float, t: float) -> complex:
    """Common kernel of the two centre-field three-site amplitudes.

    f = j_eff^2 e^{i(B-w)t/2} / (2w(w-B)) + j_eff^2 e^{i(B+w)t/2} / (2w(w+B)) - 1/2
    with w = sqrt(B^2 + 2 j_eff^2).  The weights are evaluated as (w +- B)/(4w),
    equal by w^2 - B^2 = 2 j_eff^2, which stays finite as j_eff -> 0.
    """
    w = math.sqrt(b * b + 2.0 * j_eff * j_eff)
    if w == 0.0:
        raise DegenerateSystemError("closed form undefined at J = B = 0")
    if w == math.inf:
        raise DegenerateSystemError(_OVERFLOW)
    w_minus = (w + b) / (4.0 * w)
    w_plus = (w - b) / (4.0 * w)
    return (
        w_minus * cmath.exp(1j * _phase((b - w) * t / 2.0))
        + w_plus * cmath.exp(1j * _phase((b + w) * t / 2.0))
        - 0.5
    )


def analytic_f(sys: PresetSystem, t: float) -> complex:
    """Exact end-to-end amplitude f(t) for a reference system, t by the number rule.

    Raises DegenerateSystemError when a phase such as B t overflows.
    """
    j, b, t = sys.J, sys.B, _finite(t, "t")
    if sys.name == "sec2-two-spin":
        return -1j * cmath.exp(1j * _phase(b * t)) * math.sin(_phase(_SQRT2 * j * t / 2.0))
    if sys.name == "sec2-three-spin-center":
        return -cmath.exp(1j * _phase(b * t)) * math.sin(_phase(j * t / 2.0)) ** 2
    if sys.name == "sec3-two-spin":
        mu = math.hypot(b, j)
        if mu == 0.0:
            raise DegenerateSystemError("closed form undefined at J = B = 0")
        if mu == math.inf:
            raise DegenerateSystemError(_OVERFLOW)
        return (-1j * cmath.exp(1j * _phase(b * t / 2.0)) * (j / mu)
                * math.sin(_phase(mu * t / 2.0)))
    if sys.name == "sec3-three-spin-center":
        return _split_level_amplitude(j, b, t)
    # sec4-three-spin-center, the last preset: the same kernel with
    # j_eff = sqrt(2) J, as the spin-1 centre rescales both bonds.
    return _split_level_amplitude(_SQRT2 * j, b, t)


def _with_vacuum(e0: float, levels: list, vectors: list) -> tuple[np.ndarray, np.ndarray]:
    """The excitation eigenpairs with the decoupled vacuum |0>, energy e0, in front."""
    full = np.pad(np.array(vectors), ((1, 0), (1, 0)))
    full[0, 0] = 1.0
    return np.array([e0, *levels]), full


def _checked_normalisations(j: float, n_plus: float, n_minus: float) -> None:
    """Refuse an n+- of 0, inf or NaN; a finite n+- has a finite root mu or nu, and levels."""
    if j == 0.0 or n_plus == 0.0 or n_minus == 0.0:
        raise DegenerateSystemError(_DEGENERATE_VECTORS)
    if not (math.isfinite(n_plus) and math.isfinite(n_minus)):
        raise DegenerateSystemError(_OVERFLOW)


def _centre_field(j: float, b: float, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a spin-s centre carrying B between two spin-1/2 ends; c = 2s
    scales J^2.  The vacuum and the dark level sit at sB, the bright pair at
    ((c - 1)B +- nu)/2.  The operations are grouped so that c = 1 and c = 2
    evaluate each system's printed form step for step, to the bit."""
    nu = math.sqrt(b * b + 2.0 * c * j * j)
    root_c = math.sqrt(c)
    n_plus = math.sqrt(2.0 / c * nu * (nu - b))
    n_minus = math.sqrt(2.0 / c * nu * (nu + b))
    _checked_normalisations(j, n_plus, n_minus)
    e0 = 0.5 * c * b
    return _with_vacuum(e0, [e0, 0.5 * ((c - 1) * b + nu), 0.5 * ((c - 1) * b - nu)], [
        [-_R, j / n_plus, j / n_minus],
        [0.0, (nu - b) / (root_c * n_plus), -(b + nu) / (root_c * n_minus)],
        [_R, j / n_plus, j / n_minus],
    ])


def analytic_spectrum(sys: PresetSystem) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigenpairs over the basis (|0>, |1>, .., |N>), vacuum included.

    Returns (values, vectors) with one eigenvector per column, ordered as the
    levels are conventionally listed for each system (vacuum first).
    """
    j, b = sys.J, sys.B
    if sys.name == "sec2-two-spin":
        return _with_vacuum(1.5 * b, [0.5 * (b + _SQRT2 * j), 0.5 * (b - _SQRT2 * j)],
                            [[_R, -_R], [_R, _R]])
    if sys.name == "sec2-three-spin-center":
        h = 0.5 * _SQRT2
        return _with_vacuum(2.0 * b, [b, b + j, b - j],
                            [[-_R, 0.5, 0.5], [0.0, h, -h], [_R, 0.5, 0.5]])
    if sys.name == "sec3-two-spin":
        mu = math.hypot(b, j)
        n_plus = math.sqrt(2.0 * mu * (mu + b))
        n_minus = math.sqrt(2.0 * mu * (mu - b))
        _checked_normalisations(j, n_plus, n_minus)
        return _with_vacuum(0.5 * b, [0.5 * mu, -0.5 * mu],
                            [[j / n_plus, j / n_minus], [(b + mu) / n_plus, (b - mu) / n_minus]])
    if sys.name == "sec3-three-spin-center":
        return _centre_field(j, b, 1)
    # sec4-three-spin-center, the last preset: the spin-1 centre doubles J^2.
    return _centre_field(j, b, 2)


def zero_field_critical_time(name: str, J: float, k: int = 0) -> float:
    """k-th time at which |f| peaks at unit magnitude when B = 0.

    Only the two spin-impurity systems reach |f| = 1; for the others no such
    time exists and NotTunableError is raised.  k is a count in [0, 2^52 - 1]
    (ValueError otherwise) and J follows the chain's number rule.
    """
    k = _count(k, "k", 0, 2**52 - 1, ValueError)  # so 2k + 1 < 2^53 is exact in a float
    if _finite(J, "J") == 0.0:
        raise DegenerateSystemError("no critical time for an uncoupled chain")
    if name == "sec2-two-spin":
        return (2 * k + 1) * math.pi / (_SQRT2 * abs(J))
    if name == "sec2-three-spin-center":
        return (2 * k + 1) * math.pi / abs(J)
    raise NotTunableError(f"{_known_preset(name)} admits no unit-amplitude critical time")


def critical_field(sys: PresetSystem, t_c: float, k_parity: str, l: int = 0) -> float:
    """Field strength that makes the transfer at t_c perfect, Fbar(t_c) = 1.

    k_parity is "even" or "odd" and refers to the index k of the critical
    time t_c = (2k+1)pi/(sqrt(2) J) of the two-site system, whose amplitude
    at t_c flips sign with that parity.  For the three-site system the sign
    is parity independent.  Raises NotTunableError for the systems where no
    exact tuning exists.  t_c follows the chain's number rule and must be
    positive; l is a count in [0, 2^51 - 1] (ValueError otherwise).  A
    field that overflows to inf or underflows to 0 is refused, naming t_c.
    """
    if (t_c := _finite(t_c, "t_c")) <= 0.0:
        raise ValueError(f"t_c must be positive, got {t_c!r}")
    l = _count(l, "l", 0, 2**51 - 1, ValueError)  # so 4l + 3 < 2^53 is exact in a float
    if k_parity not in ("even", "odd"):
        raise ValueError(f'k_parity must be "even" or "odd", got {k_parity!r}')
    if sys.name == "sec2-two-spin":
        field = (4 * l + (1 if k_parity == "even" else 3)) * math.pi / (2.0 * t_c)
    elif sys.name == "sec2-three-spin-center":
        field = (2 * l + 1) * math.pi / t_c
    else:
        raise NotTunableError(f"{sys.name} cannot be tuned to perfect transfer")
    if not 0.0 < field < math.inf:
        raise ValueError(f"t_c = {t_c!r} gives no finite nonzero field, got {field!r}")
    return field
