"""Chain descriptions: per-site spins and local fields, bond couplings, presets.

A chain is an ordered list of sites, each carrying a spin magnitude (1/2, 1,
or any larger half-integer) and a local magnetic field, plus one coupling
constant per nearest-neighbour bond.  Energies use hbar = 1, so times carry
units of inverse energy.  Fields and couplings may be negative or zero.

All values are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "ChainSpecError",
    "EmptyChainError",
    "TooManySitesError",
    "NonFiniteError",
    "BadSpinError",
    "LengthMismatchError",
    "UnknownPresetError",
    "BadArgsError",
    "ChainFormatError",
    "SpinMagnitude",
    "SPIN_HALF",
    "SPIN_ONE",
    "SiteSpec",
    "ChainSpec",
    "validate",
    "engineered_couplings",
    "engineered_chain",
    "preset",
    "PRESET_NAMES",
    "chain_to_dict",
    "dumps_chain",
    "loads_chain",
    "save_chain",
    "load_chain",
]


class ChainSpecError(ValueError):
    """A chain description violates the chain invariants."""


class EmptyChainError(ChainSpecError):
    """Fewer than two sites."""


class TooManySitesError(ChainSpecError):
    """More sites than the dense excitation block allows."""


class NonFiniteError(ChainSpecError):
    """A field or coupling is NaN or infinite."""


class BadSpinError(ChainSpecError):
    """A spin magnitude is not a positive half-integer."""


class LengthMismatchError(ChainSpecError):
    """Coupling count does not equal site count minus one."""


class UnknownPresetError(ChainSpecError):
    """Preset name not recognised."""


class BadArgsError(ChainSpecError):
    """Invalid arguments to a chain generator."""


class ChainFormatError(ChainSpecError):
    """Raw chain description is structurally malformed."""


@dataclass(frozen=True)
class SpinMagnitude:
    """Spin quantum number of one site; 2s must be a positive integer."""

    s: float

    def __post_init__(self) -> None:
        s = self.s
        if isinstance(s, bool) or not (isinstance(s, (int, float)) and math.isfinite(s)):
            raise BadSpinError(f"spin magnitude must be a finite number, got {s!r}")
        object.__setattr__(self, "s", float(s))
        twice = 2.0 * self.s
        if twice < 1.0 or twice != round(twice):
            raise BadSpinError(f"2s must be a positive integer, got s = {s!r}")

    @property
    def dim(self) -> int:
        """Number of magnetic levels, 2s + 1."""
        return int(round(2.0 * self.s)) + 1


# The dense N x N excitation block takes 8 N^2 bytes (128 MiB at this cap,
# 80 GB at 10^5 sites) and O(N^3) time to diagonalise; full_space.DIMENSION_CAP
# is the same figure.
_MAX_SITES = 4096


SPIN_HALF = SpinMagnitude(0.5)
SPIN_ONE = SpinMagnitude(1.0)


def _finite(value: Any, what: str) -> float:
    """value as a float.  A bool or a non-number is malformed; NaN, +-inf and
    an int beyond the floats are not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChainFormatError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise NonFiniteError(f"{what} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class SiteSpec:
    """One lattice site: its spin magnitude and its local field (energy units)."""

    spin: SpinMagnitude
    field: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.spin, SpinMagnitude):
            raise BadSpinError(f"spin must be a SpinMagnitude, got {self.spin!r}")
        object.__setattr__(self, "field", _finite(self.field, "site field"))


@dataclass(frozen=True)
class ChainSpec:
    """An open chain of N >= 2 sites with N - 1 nearest-neighbour couplings."""

    sites: tuple[SiteSpec, ...]
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        if len(sites) < 2:
            raise EmptyChainError(f"a chain needs at least 2 sites, got {len(sites)}")
        if len(sites) > _MAX_SITES:
            raise TooManySitesError(f"a chain may have at most {_MAX_SITES} sites, "
                                    f"got {len(sites)}")
        for site in sites:
            if not isinstance(site, SiteSpec):
                raise ChainFormatError(f"sites must be SiteSpec instances, got {site!r}")
        object.__setattr__(self, "couplings", tuple(_finite(j, "coupling") for j in self.couplings))
        if len(self.couplings) != len(sites) - 1:
            raise LengthMismatchError(
                f"{len(sites)} sites need {len(sites) - 1} couplings, "
                f"got {len(self.couplings)}"
            )

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def spins(self) -> np.ndarray:
        """Spin magnitudes s_1 .. s_N as a float array."""
        return np.array([site.spin.s for site in self.sites])

    def fields(self) -> np.ndarray:
        """Local fields B_1 .. B_N as a float array."""
        return np.array([site.field for site in self.sites])

    def with_uniform_field(self, b: float) -> "ChainSpec":
        """The same chain with b added to the field of every site."""
        return ChainSpec(tuple(SiteSpec(s.spin, s.field + b) for s in self.sites), self.couplings)


def _parse_spin(value: Any) -> SpinMagnitude:
    if value == "half":
        return SPIN_HALF
    if value == "one":
        return SPIN_ONE
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChainFormatError(
            f'spin must be "half", "one", or a number, got {value!r}'
        )
    return SpinMagnitude(float(value))


def validate(raw: Mapping[str, Any]) -> ChainSpec:
    """Turn a raw (JSON-shaped) chain description into a checked ChainSpec.

    Raises ChainFormatError for structural problems and the more specific
    ChainSpecError subclasses for invariant violations.
    """
    if not isinstance(raw, Mapping):
        raise ChainFormatError(f"chain description must be an object, got {type(raw).__name__}")
    try:
        sites_raw = raw["sites"]
        couplings_raw = raw["couplings"]
    except KeyError as missing:
        raise ChainFormatError(f"chain description is missing key {missing}") from None
    if not isinstance(sites_raw, Sequence) or isinstance(sites_raw, (str, bytes)):
        raise ChainFormatError('"sites" must be a list')
    if not isinstance(couplings_raw, Sequence) or isinstance(couplings_raw, (str, bytes)):
        raise ChainFormatError('"couplings" must be a list')
    sites = []
    for entry in sites_raw:
        if not isinstance(entry, Mapping):
            raise ChainFormatError(f"each site must be an object, got {entry!r}")
        try:
            spin_raw = entry["spin"]
            field_raw = entry["field"]
        except KeyError as missing:
            raise ChainFormatError(f"site entry is missing key {missing}") from None
        sites.append(SiteSpec(spin=_parse_spin(spin_raw), field=field_raw))
    return ChainSpec(sites=tuple(sites), couplings=tuple(couplings_raw))


def engineered_couplings(n_sites: int, lam: float) -> tuple[float, ...]:
    """Couplings J_i = lam * sqrt(i * (N - i)), i = 1 .. N-1.

    The profile is exactly mirror symmetric, J_i = J_{N-i}, because the
    integer product i * (N - i) is.
    """
    if n_sites < 2:
        raise BadArgsError(f"need at least 2 sites, got {n_sites}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
        raise BadArgsError(f"scale must be positive and finite, got {lam!r}")
    return tuple(float(lam) * math.sqrt(i * (n_sites - i)) for i in range(1, n_sites))


def engineered_chain(
    n_sites: int,
    lam: float = 1.0,
    spin_one_site: int | None = None,
) -> ChainSpec:
    """Zero-field chain with engineered couplings, all sites spin-1/2.

    When spin_one_site is given (1-based), that site carries spin 1 instead,
    which models a single spin impurity embedded in the engineered chain.
    """
    couplings = engineered_couplings(n_sites, lam)
    sites = [SiteSpec(spin=SPIN_HALF, field=0.0) for _ in range(n_sites)]
    if spin_one_site is not None:
        if not 1 <= spin_one_site <= n_sites:
            raise BadArgsError(
                f"impurity site must be in 1..{n_sites}, got {spin_one_site}"
            )
        sites[spin_one_site - 1] = SiteSpec(spin=SPIN_ONE, field=0.0)
    return ChainSpec(sites=tuple(sites), couplings=couplings)


PRESET_NAMES = (
    "sec2-two-spin",
    "sec2-three-spin-center",
    "sec3-two-spin",
    "sec3-three-spin-center",
    "sec4-three-spin-center",
)


def preset(name: str, J: float, B: float) -> ChainSpec:
    """Build one of the five named reference systems.

    sec2-two-spin:            spin-1 sender, spin-1/2 receiver, field B on both.
    sec2-three-spin-center:   spin-1 central site, field B everywhere.
    sec3-two-spin:            two spin-1/2 sites, field B on the first site only.
    sec3-three-spin-center:   three spin-1/2 sites, field B on the centre only.
    sec4-three-spin-center:   spin-1 central site carrying field B, edges bare.
    """
    half = SPIN_HALF
    one = SPIN_ONE
    if name == "sec2-two-spin":
        sites = (SiteSpec(one, B), SiteSpec(half, B))
        couplings: tuple[float, ...] = (J,)
    elif name == "sec2-three-spin-center":
        sites = (SiteSpec(half, B), SiteSpec(one, B), SiteSpec(half, B))
        couplings = (J, J)
    elif name == "sec3-two-spin":
        sites = (SiteSpec(half, B), SiteSpec(half, 0.0))
        couplings = (J,)
    elif name == "sec3-three-spin-center":
        sites = (SiteSpec(half, 0.0), SiteSpec(half, B), SiteSpec(half, 0.0))
        couplings = (J, J)
    elif name == "sec4-three-spin-center":
        sites = (SiteSpec(half, 0.0), SiteSpec(one, B), SiteSpec(half, 0.0))
        couplings = (J, J)
    else:
        raise UnknownPresetError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return ChainSpec(sites=sites, couplings=couplings)


def _spin_to_json(spin: SpinMagnitude) -> Any:
    if spin.s == 0.5:
        return "half"
    if spin.s == 1.0:
        return "one"
    return spin.s


def chain_to_dict(spec: ChainSpec) -> dict[str, Any]:
    """External JSON form: {"sites": [{"spin": ..., "field": ...}], "couplings": [...]}."""
    return {
        "sites": [
            {"spin": _spin_to_json(site.spin), "field": site.field} for site in spec.sites
        ],
        "couplings": list(spec.couplings),
    }


def dumps_chain(spec: ChainSpec) -> str:
    return json.dumps(chain_to_dict(spec), indent=2, allow_nan=False) + "\n"


def loads_chain(text: str) -> ChainSpec:
    return validate(json.loads(text))


def save_chain(spec: ChainSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_chain(spec), encoding="utf-8")


def load_chain(path: str | Path) -> ChainSpec:
    return loads_chain(Path(path).read_text(encoding="utf-8"))
