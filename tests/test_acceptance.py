"""Acceptance gate: every headline claim, re-derived numerically.

Runs the built-in check suite once and asserts each named check at its
pinned tolerance, printing one line per check.  `pytest -s tests/test_acceptance.py`
shows the lines as they pass; the same suite backs `spintransfer verify`.
"""

import dataclasses
import json
import re
import time
from unittest import mock

import pytest

from spintransfer import fidelity, full_space, verification

_RUNTIME_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def suite():
    started = time.perf_counter()
    results = verification.run_all()
    elapsed = time.perf_counter() - started
    return {r.name: r for r in results}, elapsed


def _line(result):
    status = "PASS" if result.passed else "FAIL"
    tol = "-" if result.tolerance is None else format(result.tolerance, ".1e")
    measured = "-" if result.measured is None else format(result.measured, ".3e")
    return f"{status}  {result.name}  measured={measured}  tol={tol}"


@pytest.mark.parametrize("name", verification.CHECK_NAMES)
def test_criterion(suite, name):
    results, _ = suite
    assert name in results, f"check {name} never ran"
    result = results[name]
    print(_line(result))
    assert result.passed, f"{_line(result)}  {result.detail}"


def test_every_registered_check_ran(suite):
    results, _ = suite
    assert set(results) == set(verification.CHECK_NAMES)


# The verify contract: every check name in run order, and its tolerance.
_CONTRACT = (
    ("two-spin-impurity-max-fbar", 1e-9),
    ("two-spin-impurity-peak-time", 1e-8),
    ("field-tuning-perfect-fbar", 1e-9),
    ("uniform-field-phase-law", 1e-12),
    ("three-spin-impurity-bare-max", 1e-9),
    ("three-spin-impurity-corrected", 1e-9),
    ("field-impurity-amplitude-bound", 1e-6),
    ("field-impurity-strictly-lossy", None),
    ("corrected-peak-field-impurity", 5e-4),
    ("corrected-peak-double-impurity", 5e-4),
    ("strong-coupling-fbar", None),
    ("closed-form-f-sec2-two-spin", 1e-10),
    ("closed-form-f-sec2-three-spin-center", 1e-10),
    ("closed-form-f-sec3-two-spin", 1e-10),
    ("closed-form-f-sec3-three-spin-center", 1e-10),
    ("closed-form-f-sec4-three-spin-center", 1e-10),
    ("spectrum-sec2-two-spin", 1e-12),
    ("spectrum-sec2-three-spin-center", 1e-12),
    ("spectrum-sec3-two-spin", 1e-12),
    ("spectrum-sec3-three-spin-center", 1e-12),
    ("spectrum-sec4-three-spin-center", 1e-12),
    ("excitation-block-embedding", 1e-13),
    ("subspace-vs-full", 1e-10),
    ("sz-conservation", 1e-13),
    ("fbar-quadrature", 1e-10),
    ("unitarity-excitation-norm", 1e-12),
    ("unitarity-vacuum-phase", 1e-12),
    ("engineered-chain-transfer", 1e-9),
    ("engineered-spin-impurity-report", None),
)


def test_check_names_and_tolerances_are_the_contract(suite):
    results, _ = suite
    assert verification.CHECK_NAMES == tuple(name for name, _ in _CONTRACT)
    assert tuple(results) == verification.CHECK_NAMES  # run_all reports in this order
    for name, tolerance in _CONTRACT:
        assert results[name].tolerance == tolerance, name


def test_tolerance_is_the_pass_rule(suite):
    results, _ = suite
    untoleranced = {name for name, r in results.items() if r.tolerance is None}
    assert untoleranced == {"field-impurity-strictly-lossy", "strong-coupling-fbar",
                            "engineered-spin-impurity-report"}
    for result in results.values():
        if result.tolerance is not None:
            assert result.passed == (result.measured <= result.tolerance), result.name


def test_runtime_budget(suite):
    _, elapsed = suite
    print(f"check suite wall time: {elapsed:.1f} s (budget {_RUNTIME_BUDGET_S:.0f} s)")
    assert elapsed < _RUNTIME_BUDGET_S


def test_results_are_json_serializable(suite):
    results, _ = suite
    text = json.dumps([dataclasses.asdict(r) for r in results.values()])
    assert json.loads(text)


def test_impurity_experiment_reported(suite):
    results, _ = suite
    report = results["engineered-spin-impurity-report"]
    print(f"engineered-chain spin-impurity findings: {report.detail}")
    # report-only: every configuration must be present, no threshold asserted
    for n, k in [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (8, 2), (8, 4)]:
        assert f"N={n} k={k}:" in report.detail


def test_impurity_peaks_stay_below_the_transfer_bound(suite):
    results, _ = suite
    entries = re.findall(r"N=\d+ k=\d+: max\|f\|=([\d.]+) at t=[\d.]+ bound=([\d.]+)",
                         results["engineered-spin-impurity-report"].detail)
    assert len(entries) == 7
    for peak, bound in entries:
        assert float(peak) <= float(bound) + 1e-12


@pytest.mark.parametrize("only, through_the_model", [("subspace-vs-full", True),
                                                      ("fbar-quadrature", False)])
def test_checks_take_each_fidelity_from_the_one_function(only, through_the_model):
    # the traced benchmark counts fidelity.fidelity and FullSpaceModel.fidelity;
    # a batched twin beside either would do these checks' work unseen
    model = full_space.FullSpaceModel
    with mock.patch.object(fidelity, "fidelity", wraps=fidelity.fidelity) as per_state, \
            mock.patch.object(model, "fidelity", autospec=True,
                              side_effect=model.fidelity) as full:
        results = verification.run_all(only=only)
    assert results and all(r.passed for r in results)
    assert per_state.called and full.called == through_the_model
