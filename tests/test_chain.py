"""Chain construction, validation, presets, and JSON round-trips."""

import json
import math
import numbers
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spintransfer import chain
from spintransfer.chain import (
    BadArgsError,
    BadSpinError,
    ChainFormatError,
    ChainSpec,
    ChainSpecError,
    EmptyChainError,
    LengthMismatchError,
    NonFiniteError,
    PRESET_NAMES,
    SPIN_HALF,
    SPIN_ONE,
    SiteSpec,
    SpinMagnitude,
    TooManySitesError,
    UnknownPresetError,
    chain_to_dict,
    dumps_chain,
    engineered_chain,
    engineered_couplings,
    load_chain,
    loads_chain,
    preset,
    validate,
)
from spintransfer.closed_forms import (
    PresetSystem,
    analytic_f,
    critical_field,
    zero_field_critical_time,
)
from spintransfer.excitation import solve, synthesize_f, transfer_amplitude
from spintransfer.fidelity import BlochState, _report_blocks, fidelity, fidelity_report
from spintransfer.full_space import FullSpaceModel
from spintransfer.optimize import SearchConfig, tune_uniform_field


def test_minimal_chain_is_valid():
    raw = {
        "sites": [{"spin": "half", "field": 0.0}, {"spin": "half", "field": 0.0}],
        "couplings": [1.0],
    }
    spec = validate(raw)
    assert spec.n_sites == 2
    assert spec.couplings == (1.0,)


def test_coupling_length_mismatch():
    raw = {
        "sites": [{"spin": "half", "field": 0.0}, {"spin": "half", "field": 0.0}],
        "couplings": [1.0, 2.0],
    }
    with pytest.raises(LengthMismatchError):
        validate(raw)


def test_single_site_rejected():
    with pytest.raises(EmptyChainError):
        ChainSpec(sites=(SiteSpec(SPIN_HALF, 0.0),), couplings=())


def test_site_count_is_capped():
    # the cap applies before any dense N x N block is built; nothing is solved here
    site = SiteSpec(SPIN_HALF)
    assert ChainSpec((site,) * 4096, (1.0,) * 4095).n_sites == 4096
    with pytest.raises(TooManySitesError) as refused:
        ChainSpec((site,) * 4097, (1.0,) * 4096)
    assert str(refused.value) == "the number of sites must be an integer in [2, 4096], got 4097"


@pytest.mark.parametrize("build", [engineered_couplings, engineered_chain])
def test_engineered_chain_over_the_site_cap_is_refused_before_it_is_built(refuse_alloc, build):
    refuse_alloc("sqrt", math)
    refuse_alloc("SiteSpec", chain)
    with pytest.raises(TooManySitesError) as refused:
        build(10**9, 1.0)
    assert str(refused.value) == "n_sites must be an integer in [2, 4096], got 1000000000"


def test_engineered_chain_site_cap_is_inclusive():
    assert engineered_chain(4096).n_sites == 4096
    with pytest.raises(TooManySitesError, match="got 4097"):
        engineered_couplings(4097, 1.0)


# Each count parameter, the start of its refusal, and the classes it raises.
_COUNT_PARAMETERS = [
    (lambda n: engineered_couplings(n, 1.0), "n_sites", (BadArgsError, TooManySitesError)),
    (lambda n: engineered_chain(5, spin_one_site=n), "spin_one_site", BadArgsError),
    (lambda n: SearchConfig(1.0, n), "n_samples", ValueError),
    (lambda n: zero_field_critical_time("sec2-two-spin", 1.0, n), "k", ValueError),
    (lambda n: critical_field(PresetSystem("sec2-two-spin", 1.0, 0.0), 1.0, "even", n), "l",
     ValueError),
]


@settings(max_examples=200, deadline=None)
@given(value=st.one_of(st.integers(), st.integers(-10, 5000), st.booleans(), st.floats(),
                       st.integers(-2**63, 2**63 - 1).map(np.int64), st.text(max_size=4),
                       st.none()))
@example(value=10**5000)  # more digits than Python prints
@example(value=-10**5000)
def test_every_count_returns_or_raises_its_own_refusal(value):
    for call, what, error in _COUNT_PARAMETERS:
        try:
            call(value)
        except error as exc:
            assert str(exc).startswith(f"{what} must be an integer in [")
            assert "\n" not in str(exc) and len(str(exc)) < 100


# Levels +-1/4, so no phase of a finite time overflows and every finite number returns.
_SPEC = preset("sec3-two-spin", 0.5, 0.0)
_MODEL = FullSpaceModel(_SPEC)
_INPUT = {"theta": 0.5, "phi": 0.5, "t": 0.5}
# Each time or angle parameter, the name its refusal gives, and the starts of
# the refusals of its own range (after the number rule).
_REAL_PARAMETERS = [
    (lambda x: synthesize_f(solve(_SPEC), x), "times", ()),
    (lambda x: transfer_amplitude(_SPEC, x), "times", ()),
    (lambda x: analytic_f(PresetSystem("sec3-two-spin", 0.5, 0.0), x), "t", ()),
    *((lambda x, method=method, name=name: getattr(_MODEL, method)(**{**_INPUT, name: x}),
       name, ()) for method in ("receiver_densities", "fidelity") for name in _INPUT),
    (lambda x: fidelity(0.5, x), "theta", ()),
    (lambda x: fidelity_report(x, 0.5), "t", ()),
    (lambda x: _report_blocks(x, 0.5), "t", ()),
    (lambda x: BlochState(x), "theta", ("theta must lie in [0, pi], got ",)),
    (lambda x: BlochState(0.5, x), "phi", ("phi must lie in [0, 2*pi), got ",)),
    (lambda x: SearchConfig(x), "t_max", ("t_max must be positive, got ", "t_max = ")),
    (lambda x: critical_field(PresetSystem("sec2-two-spin", 1.0, 0.0), x, "even"), "t_c",
     ("t_c must be positive, got ", "t_c = ")),
    (lambda x: SiteSpec(SPIN_HALF, x), "site field", ()),
    (lambda x: tune_uniform_field(_SPEC, SearchConfig(1.0), (x, 3.0)), "the field box",
     ("the field box needs B_lo < B_hi",)),
    (lambda x: tune_uniform_field(_SPEC, SearchConfig(1.0), (-3.0, x)), "the field box",
     ("the field box needs B_lo < B_hi",)),
]
_NUMBER_RULE = ("must be a number, got ", "must be finite, got ",
                "must be a scalar or one-dimensional")
_REALS = st.one_of(st.floats(), st.integers(), st.integers(-10**5000, 10**5000), st.booleans(),
                   st.none(), st.text(max_size=4), st.complex_numbers(), st.fractions(),
                   st.decimals(min_value=-10**6, max_value=10**6, places=2),
                   st.just(Decimal("nan")), st.floats(width=32).map(np.float32),
                   st.integers(-2**63, 2**63 - 1).map(np.int64))


def _rule_refusals(value) -> tuple[str, ...]:
    """The number rule's refusals that value may get: none for a finite real,
    only "not finite" for another real, only "not a number" for anything else,
    and for a list also its shape."""
    if isinstance(value, list):
        return _NUMBER_RULE[0], _NUMBER_RULE[2]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return _NUMBER_RULE[:1]
    try:
        return () if math.isfinite(value) else _NUMBER_RULE[1:2]
    except OverflowError:  # an int or Fraction beyond the floats
        return _NUMBER_RULE[1:2]


@settings(max_examples=200, deadline=None)
@given(value=_REALS | st.lists(st.lists(st.sampled_from([0, 0.5, math.nan, None]),
                                        min_size=1, max_size=2), min_size=1, max_size=2))
@example(value=10**400)  # analytic_f once refused it as an overflowing phase
@example(value=Fraction(-10**400, 3))  # beyond the floats, named by the float it rounds to
@example(value=[[1.0, 2.0], [3.0, 4.0]])
@example(value=5e-324)  # critical_field's field once overflowed to inf here
@example(value=1.7e308)  # and underflowed to 0 here
@example(value=-1.7976931348623157e308)  # a field box whose 10 x half-width overflows
@example(value=True)  # an end of the field box once read as 1.0
def test_every_real_number_returns_or_raises_its_own_refusal(value):
    for call, what, own in _REAL_PARAMETERS:
        try:
            call(value)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(tuple(f"{what} {rule}" for rule in _rule_refusals(value))
                                      + own), message
            assert "\n" not in message and len(message) < 100


@pytest.mark.parametrize("values, refusal", [
    ([1.0, None, math.nan], "x must be a number, got None"),
    ((0.5, 10**400, math.inf), "x must be finite, got a 1329-bit integer"),
    (np.array([1.0, -math.inf, math.nan]), "x must be finite, got -inf"),
    ((0.5, True, 1 + 1j), "x must be a number, got True"),
    (np.zeros((1, 2)), "x must be a scalar or one-dimensional"),
])
def test_the_first_bad_entry_is_named(values, refusal):
    with pytest.raises(ValueError) as refused:
        chain._finites(values, "x")
    assert str(refused.value) == refusal


def test_numbers_become_floats_of_the_same_ndim():
    for values in (np.float32(0.5), Fraction(1, 2), np.array(0.5), [0.5], (0.5,),
                   np.array([0.5], dtype=np.float32), np.array([1], dtype=np.uint8)):
        array = chain._finites(values, "x")
        assert array.dtype == float and array.ndim == np.ndim(values)
        assert array.tolist() == np.asarray(values, dtype=float).tolist()


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        SiteSpec(SPIN_HALF, float("nan"))
    with pytest.raises(NonFiniteError):
        ChainSpec(
            sites=(SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF)),
            couplings=(float("inf"),),
        )
    with pytest.raises(NonFiniteError):  # an int past the largest float
        SiteSpec(SPIN_HALF, 10**400)


def test_bools_and_non_numbers_are_malformed():
    # the rule validate applies to JSON input holds for the dataclasses too
    with pytest.raises(ChainFormatError, match="site field must be a number, got True"):
        SiteSpec(SPIN_HALF, True)
    with pytest.raises(ChainFormatError, match="site field must be a number, got 'x'"):
        SiteSpec(SPIN_HALF, "x")
    with pytest.raises(ChainFormatError, match="coupling must be a number, got True"):
        ChainSpec((SiteSpec(SPIN_HALF),) * 2, (True,))


@pytest.mark.parametrize("bad", [0.0, -0.5, 0.3, 0.75, float("nan"), True,
                                 pytest.param(10**400, id="10**400"), 1e308])
def test_bad_spin_rejected(bad):
    with pytest.raises(BadSpinError):
        SpinMagnitude(bad)


@pytest.mark.parametrize("s,dim", [(0.5, 2), (1.0, 3), (1.5, 4), (2.0, 5)])
def test_spin_dims(s, dim):
    assert SpinMagnitude(s).dim == dim


def test_malformed_raw_descriptions():
    with pytest.raises(ChainFormatError):
        validate({"sites": []})
    with pytest.raises(ChainFormatError):
        validate({"sites": "oops", "couplings": []})
    with pytest.raises(ChainFormatError):
        validate({"sites": [{"spin": "half"}], "couplings": []})
    with pytest.raises(ChainFormatError, match="each site must be an object"):
        validate({"sites": ["half"], "couplings": []})
    with pytest.raises(ChainFormatError):
        validate({"sites": [{"spin": "two", "field": 0.0}] * 2, "couplings": [1.0]})
    for couplings in ("1.0", 1.0, {"a": 1}, None):
        with pytest.raises(ChainFormatError, match='"couplings" must be a list'):
            validate({"sites": [{"spin": "half", "field": 0.0}] * 2, "couplings": couplings})


def test_engineered_couplings_values():
    assert engineered_couplings(2, 1.0) == (1.0,)
    expected = (2.0, math.sqrt(6.0), math.sqrt(6.0), 2.0)
    assert engineered_couplings(5, 1.0) == pytest.approx(expected, abs=0)
    assert engineered_couplings(3, 2.0) == pytest.approx((2.0 * math.sqrt(2.0),) * 2, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 31])
def test_engineered_couplings_mirror_symmetry(n):
    j = engineered_couplings(n, 0.7)
    assert j == tuple(reversed(j))


def test_engineered_couplings_bad_args():
    with pytest.raises(BadArgsError):
        engineered_couplings(1, 1.0)
    with pytest.raises(BadArgsError):
        engineered_couplings(4, 0.0)
    with pytest.raises(BadArgsError):
        engineered_couplings(4, -1.0)
    with pytest.raises(NonFiniteError):  # an int past the largest float
        engineered_couplings(4, 10**400)
    with pytest.raises(ChainFormatError, match="scale must be a number, got True"):
        engineered_couplings(3, True)


def test_engineered_chain_impurity_placement():
    spec = engineered_chain(5, lam=1.0, spin_one_site=3)
    assert [site.spin.s for site in spec.sites] == [0.5, 0.5, 1.0, 0.5, 0.5]
    assert all(site.field == 0.0 for site in spec.sites)
    with pytest.raises(BadArgsError):
        engineered_chain(5, spin_one_site=6)


def test_preset_structures():
    spec = preset("sec2-two-spin", 1.5, 0.25)
    assert spec.sites == (SiteSpec(SPIN_ONE, 0.25), SiteSpec(SPIN_HALF, 0.25))
    assert spec.couplings == (1.5,)

    spec = preset("sec3-two-spin", 2.0, 0.5)
    assert spec.sites == (SiteSpec(SPIN_HALF, 0.5), SiteSpec(SPIN_HALF, 0.0))

    spec = preset("sec4-three-spin-center", 2.0 / 3.0, 1.0)
    assert spec.sites == (
        SiteSpec(SPIN_HALF, 0.0),
        SiteSpec(SPIN_ONE, 1.0),
        SiteSpec(SPIN_HALF, 0.0),
    )
    assert spec.couplings == (2.0 / 3.0, 2.0 / 3.0)

    half, one, bare = SPIN_HALF, SPIN_ONE, 0.0
    for b in (0.25, -0.75, -0.0):
        expected = {
            "sec2-two-spin": (SiteSpec(one, b), SiteSpec(half, b)),
            "sec2-three-spin-center": (SiteSpec(half, b), SiteSpec(one, b), SiteSpec(half, b)),
            "sec3-two-spin": (SiteSpec(half, b), SiteSpec(half, bare)),
            "sec3-three-spin-center": (SiteSpec(half, bare), SiteSpec(half, b),
                                       SiteSpec(half, bare)),
            "sec4-three-spin-center": (SiteSpec(half, bare), SiteSpec(one, b),
                                       SiteSpec(half, bare)),
        }
        assert tuple(expected) == PRESET_NAMES
        for name, sites in expected.items():
            spec = preset(name, -1.25, b)
            assert spec.sites == sites
            # 0.0 == -0.0, so compare signs too: B keeps its sign, a bare site is +0.0
            assert ([math.copysign(1.0, site.field) for site in spec.sites]
                    == [math.copysign(1.0, site.field) for site in sites])
            assert spec.couplings == (-1.25,) * (len(sites) - 1)


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset("bogus", 1.0, 0.0)
    for name in (["sec2-two-spin"], None):  # not a name, and unhashable or not a str
        with pytest.raises(UnknownPresetError):
            preset(name, 1, 0)
        with pytest.raises(UnknownPresetError):
            PresetSystem(name, 1, 0)
        with pytest.raises(UnknownPresetError):
            zero_field_critical_time(name, 1.0)


def _random_spec(rng):
    n = int(rng.integers(2, 9))
    spins = [0.5, 1.0, 1.5, 2.0]
    sites = tuple(
        SiteSpec(SpinMagnitude(float(rng.choice(spins))), float(rng.uniform(-3, 3)))
        for _ in range(n)
    )
    return ChainSpec(sites=sites, couplings=tuple(rng.uniform(-3, 3) for _ in range(n - 1)))


def test_json_round_trip_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = _random_spec(rng)
        again = loads_chain(dumps_chain(spec))
        assert again == spec
        # a second pass through text stays bit-identical
        assert dumps_chain(again) == dumps_chain(spec)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64) | st.text(max_size=64))
@example(data="[" * 100_000)
@example(data=b'{"sites": ' + b"[" * 100_000 + b"]" * 100_000 + b', "couplings": []}')
@example(data=b'{"sites": [{"spin": "half", "field": 1' + b"0" * 5000 + b'}], "couplings": []}')
@example(data=b"\xef\xbb\xbf{}")  # a byte-order mark
def test_any_content_gives_a_chain_or_a_chain_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        for load, source in ((loads_chain, data), (load_chain, path)):
            try:
                assert isinstance(load(source), ChainSpec)
            except ChainSpecError as refusal:
                assert "\n" not in str(refusal)


@pytest.mark.parametrize("data, refusal", [
    (b'{"sites": \xff}', "not UTF-8 at byte 10: invalid start byte"),
    ('{"sites": [}', "invalid JSON at offset 11: Expecting value"),
    ("[" * 100_000, "JSON nested too deeply"),
], ids=["not-utf8", "not-json", "nested-100000-deep"])
def test_malformed_text_is_a_format_error(data, refusal):
    with pytest.raises(ChainFormatError) as refused:
        loads_chain(data)
    assert str(refused.value) == refusal


def test_spin_json_encoding():
    spec = preset("sec2-two-spin", 1.0, 0.0)
    d = chain_to_dict(spec)
    assert d["sites"][0]["spin"] == "one"
    assert d["sites"][1]["spin"] == "half"
    big = ChainSpec(
        sites=(SiteSpec(SpinMagnitude(1.5)), SiteSpec(SpinMagnitude(2.0))),
        couplings=(1.0,),
    )
    text = dumps_chain(big)
    assert json.loads(text)["sites"][0]["spin"] == 1.5
    assert loads_chain(text) == big


def test_numeric_spin_accepted():
    raw = {
        "sites": [{"spin": 0.5, "field": 0.0}, {"spin": 1, "field": 0.0}],
        "couplings": [1.0],
    }
    spec = validate(raw)
    assert spec.sites[0].spin == SPIN_HALF
    assert spec.sites[1].spin == SPIN_ONE


def test_preset_names_all_buildable():
    for name in PRESET_NAMES:
        spec = preset(name, 1.0, 0.5)
        assert spec.n_sites in (2, 3)
