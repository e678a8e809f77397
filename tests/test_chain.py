"""Chain construction, validation, presets, and JSON round-trips."""

import json
import math

import numpy as np
import pytest

from spintransfer.chain import (
    BadArgsError,
    BadSpinError,
    ChainFormatError,
    ChainSpec,
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
    loads_chain,
    preset,
    validate,
)


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
    with pytest.raises(TooManySitesError, match="at most 4096 sites, got 4097"):
        ChainSpec((site,) * 4097, (1.0,) * 4096)


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


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        preset("bogus", 1.0, 0.0)


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
