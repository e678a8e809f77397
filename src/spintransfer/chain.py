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
import numbers
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
    """A number that must be finite (a field, a coupling, a time) is not."""


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


def _shown(value: Any) -> str:
    """repr(value), but an int of more than 128 bits by its size: its digits
    would not fit a line, and past 4,300 of them Python refuses to print it."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"a {'negative ' * (value < 0)}{value.bit_length()}-bit integer"
    return repr(value)


def _finite(value: Any, what: str) -> float:
    """value as a float, the one rule for every real number given: a numbers.Real, not a
    bool, else ChainFormatError; NaN, +-inf or beyond the floats, NonFiniteError.  A finite
    plain float, the common case, returns itself before any other test."""
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):  # slow ABC last
        raise ChainFormatError(f"{what} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int or Fraction beyond the floats
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise NonFiniteError(f"{what} must be finite, got "
                             f"{_shown(value if isinstance(value, int) else number)}")
    return number


def _finites(values: Any, what: str) -> np.ndarray:
    """values, a number or a 1-D sequence of them, as floats of its ndim by _finite: a
    float, int or uint array by one np.isfinite, else entry by entry, naming the first bad."""
    if type(values) is float and math.isfinite(values):  # a 0-d float array, not a 0-d object one
        return np.array(values)
    array = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if array.ndim > 1:
        raise ValueError(f"{what} must be a scalar or one-dimensional")
    if array.dtype.kind in "fiu" and np.isfinite(array := array.astype(float, copy=False)).all():
        return array
    return np.array([_finite(entry, what) for entry in array.flat], float).reshape(array.shape)


def _count(value: Any, what: str, lo: int, hi: int, error: type[Exception],
           over: type[Exception] | None = None) -> int:
    """value as an int in [lo, hi], the one rule for every count: an Integral
    but not a bool (np.int64 passes).  A non-integer or a value below lo
    raises error, one above hi over (or error), naming the value by _shown."""
    integer = type(value) is int or (  # a plain int first: the ABC test is slow
        isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if integer and lo <= value <= hi:
        return int(value)
    refusal = over if integer and value > hi and over else error
    raise refusal(f"{what} must be an integer in [{lo}, {hi}], got {_shown(value)}")


@dataclass(frozen=True)
class SpinMagnitude:
    """Spin quantum number of one site; 2s must be a positive integer."""

    s: float

    def __post_init__(self) -> None:
        raw = self.s
        try:
            s = _finite(raw, "spin magnitude")
        except ChainSpecError as exc:
            raise BadSpinError(str(exc)) from None
        if s < 0.5 or not (2.0 * s).is_integer():
            raise BadSpinError(f"2s must be a positive integer, got s = {raw!r}")
        object.__setattr__(self, "s", s)

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


@dataclass(frozen=True)
class SiteSpec:
    """One lattice site: its spin magnitude and its local field (energy units)."""

    spin: SpinMagnitude
    field: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.spin, SpinMagnitude):
            raise BadSpinError(f"spin must be a SpinMagnitude, got {_shown(self.spin)}")
        object.__setattr__(self, "field", _finite(self.field, "site field"))


@dataclass(frozen=True)
class ChainSpec:
    """An open chain of N >= 2 sites with N - 1 nearest-neighbour couplings."""

    sites: tuple[SiteSpec, ...]
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        _count(len(sites), "the number of sites", 2, _MAX_SITES, EmptyChainError, TooManySitesError)
        for site in sites:
            if not isinstance(site, SiteSpec):
                raise ChainFormatError(f"sites must be SiteSpec instances, got {_shown(site)}")
        object.__setattr__(self, "couplings", tuple(_finite(j, "coupling") for j in self.couplings))
        if len(self.couplings) != len(sites) - 1:
            raise LengthMismatchError(
                f"{len(sites)} sites need {len(sites) - 1} couplings, "
                f"got {len(self.couplings)}"
            )

    @property
    def n_sites(self) -> int:
        return len(self.sites)

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
            f'spin must be "half", "one", or a number, got {_shown(value)}'
        )
    return SpinMagnitude(value)


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
            raise ChainFormatError(f"each site must be an object, got {_shown(entry)}")
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
    integer product i * (N - i) is.  n_sites is a count in [2, 4096]
    (_count: BadArgsError below or for a non-integer, TooManySitesError above).
    """
    n_sites = _count(n_sites, "n_sites", 2, _MAX_SITES, BadArgsError, TooManySitesError)
    scale = _finite(lam, "scale")
    if scale <= 0:
        raise BadArgsError(f"scale must be positive, got {lam!r}")
    return tuple(scale * math.sqrt(i * (n_sites - i)) for i in range(1, n_sites))


def engineered_chain(
    n_sites: int,
    lam: float = 1.0,
    spin_one_site: int | None = None,
) -> ChainSpec:
    """Zero-field chain with engineered couplings, all sites spin-1/2.

    When spin_one_site is given, a count in [1, n_sites] (BadArgsError
    otherwise), that site carries spin 1 instead, which models a single spin
    impurity embedded in the engineered chain.
    """
    couplings = engineered_couplings(n_sites, lam)
    sites = [SiteSpec(spin=SPIN_HALF, field=0.0) for _ in range(n_sites)]
    if spin_one_site is not None:
        sites[_count(spin_one_site, "spin_one_site", 1, n_sites, BadArgsError) - 1] = SiteSpec(
            spin=SPIN_ONE, field=0.0)
    return ChainSpec(sites=tuple(sites), couplings=couplings)


# The five reference systems: name -> (site spins, the sites that carry the
# field B); every bond has coupling J and every other site is bare.
_PRESETS = {
    "sec2-two-spin": ((SPIN_ONE, SPIN_HALF), (0, 1)),
    "sec2-three-spin-center": ((SPIN_HALF, SPIN_ONE, SPIN_HALF), (0, 1, 2)),
    "sec3-two-spin": ((SPIN_HALF, SPIN_HALF), (0,)),
    "sec3-three-spin-center": ((SPIN_HALF, SPIN_HALF, SPIN_HALF), (1,)),
    "sec4-three-spin-center": ((SPIN_HALF, SPIN_ONE, SPIN_HALF), (1,)),
}
PRESET_NAMES = tuple(_PRESETS)


def _known_preset(name: Any) -> str:
    """name, if it names a preset; UnknownPresetError otherwise.  Membership is
    tested on the tuple, so an unhashable name is refused, not a TypeError."""
    if name not in PRESET_NAMES:
        raise UnknownPresetError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return name


def preset(name: str, J: float, B: float) -> ChainSpec:
    """Build one of the five named reference systems.

    sec2-two-spin:            spin-1 sender, spin-1/2 receiver, field B on both.
    sec2-three-spin-center:   spin-1 central site, field B everywhere.
    sec3-two-spin:            two spin-1/2 sites, field B on the first site only.
    sec3-three-spin-center:   three spin-1/2 sites, field B on the centre only.
    sec4-three-spin-center:   spin-1 central site carrying field B, edges bare.
    """
    spins, fielded = _PRESETS[_known_preset(name)]
    sites = tuple(SiteSpec(s, B if n in fielded else 0.0) for n, s in enumerate(spins))
    return ChainSpec(sites=sites, couplings=(J,) * (len(spins) - 1))


def _spin_to_json(spin: SpinMagnitude) -> Any:
    if spin.s == 0.5:
        return "half"
    if spin.s == 1.0:
        return "one"
    return spin.s


def dumps_chain(spec: ChainSpec) -> str:
    """External JSON form: {"sites": [{"spin": ..., "field": ...}], "couplings": [...]}."""
    sites = [{"spin": _spin_to_json(site.spin), "field": site.field} for site in spec.sites]
    return json.dumps({"sites": sites, "couplings": list(spec.couplings)},
                      indent=2, allow_nan=False) + "\n"


def loads_chain(text: str | bytes) -> ChainSpec:
    """A chain, or a ChainSpecError for any content: bytes not UTF-8, text not JSON or nested
    too deeply give ChainFormatError.  Numbers parse as floats, a huge integer as +-inf."""
    try:
        return validate(json.loads(text.decode("utf-8") if isinstance(text, bytes) else text,
                                   parse_int=float))
    except UnicodeDecodeError as exc:
        raise ChainFormatError(f"not UTF-8 at byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ChainFormatError(f"invalid JSON at offset {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise ChainFormatError("JSON nested too deeply") from None


def save_chain(spec: ChainSpec, path: str | Path) -> None:
    Path(path).write_text(dumps_chain(spec), encoding="utf-8")


def load_chain(path: str | Path) -> ChainSpec:
    return loads_chain(Path(path).read_bytes())
