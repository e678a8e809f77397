"""Command-line interface: CSV/JSON contracts, exit codes, manifests."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spintransfer
from spintransfer import optimize
from spintransfer.chain import ChainSpec, SiteSpec, SpinMagnitude, load_chain, save_chain
from spintransfer.cli import CSV_HEADER, main
from spintransfer.excitation import amplitudes, eigensolve, reduce, transfer_amplitude
from spintransfer.fidelity import fidelity_report

SQRT2 = math.sqrt(2.0)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreset:
    def test_writes_valid_chain_file(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        code, _, err = _run(
            capsys, "preset", "sec4-three-spin-center", "--J", "0.6666666666666666",
            "--B", "1.0", "--out", str(out),
        )
        assert code == 0
        spec = load_chain(out)
        assert spec.sites[1].spin.s == 1.0
        assert spec.sites[1].field == 1.0
        assert spec.couplings == (0.6666666666666666, 0.6666666666666666)
        assert '"command": "preset"' in err

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = _run(capsys, "preset", "sec2-two-spin", "--J", "1", "--B", "0")
        assert code == 0
        raw = json.loads(out)
        assert raw["sites"][0]["spin"] == "one"
        assert raw["sites"][0]["field"] == 0.0

    def test_unknown_name_fails(self, capsys):
        code, _, err = _run(capsys, "preset", "bogus", "--J", "1", "--B", "0")
        assert code == 2
        assert "bogus" in err


class TestSimulate:
    def test_single_step_row(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--preset", "sec2-two-spin", "--J", "1", "--B", "0",
            "--t-max", "5.0", "--steps", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == 0.0
        assert row[1] == row[2] == 0.0  # f = 0 at t = 0
        assert row[5] == 0.5

    @pytest.fixture
    def no_grid(self, monkeypatch):
        # a regression must fail here, not allocate the runaway grid
        def refuse(*args, **kwargs):
            raise AssertionError("a time grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize("steps", [0, optimize._MAX_GRID_POINTS + 1, 10**15])
    def test_row_count_out_of_range_is_a_usage_error(self, capsys, no_grid, steps):
        code, out, err = _run(capsys, "simulate", "--preset", "sec2-two-spin", "--J", "1",
                              "--B", "0", "--t-max", "5.0", "--steps", str(steps))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --steps must lie in [1, ")

    def test_row_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_GRID_POINTS", 7)
        argv = ["simulate", "--preset", "sec2-two-spin", "--t-max", "5.0", "--steps"]
        code, out, _ = _run(capsys, *argv, "7")
        assert code == 0
        assert len(out.strip().split("\n")) == 8
        assert _run(capsys, *argv, "8")[0] == 2

    def test_values_round_trip_and_match_engine(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = _run(
            capsys, "simulate", "--preset", "sec2-two-spin", "--J", "1", "--B", "0",
            "--t-max", "4.5", "--steps", "1000", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1001

        from spintransfer.chain import preset as make_preset
        spec = make_preset("sec2-two-spin", 1.0, 0.0)
        t_c = math.pi / SQRT2
        best = min(lines[1:], key=lambda ln: abs(float(ln.split(",")[0]) - t_c))
        row = [float(x) for x in best.split(",")]
        assert abs(row[3] - 1.0) <= 1e-6       # abs_f at the nearest grid point
        assert abs(row[5] - 2.0 / 3.0) <= 1e-6  # fbar

        # 17 significant digits round-trip to the exact in-memory doubles
        record = transfer_amplitude(spec, row[0])
        rep = fidelity_report(record.t, record.f, record.phase_degenerate)
        assert row[1] == rep.f.real
        assert row[2] == rep.f.imag
        assert row[3] == rep.abs_f
        assert row[4] == rep.gamma
        assert row[5] == rep.fbar
        assert row[6] == rep.fbar_corrected
        assert row[7] == rep.correction_phase

    def test_csv_is_locale_independent(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--preset", "sec3-two-spin", "--J", "1", "--B", "0.5",
            "--t-max", "2.0", "--steps", "5",
        )
        assert code == 0
        assert ";" not in out
        assert "\r" not in out

    def test_malformed_json_reports_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sites": [}', encoding="utf-8")
        code, _, err = _run(capsys, "simulate", "--chain", str(bad), "--t-max", "1.0")
        assert code == 2
        assert str(bad) in err
        assert "offset" in err

    def test_validation_error_forwarded(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text('{"sites": [{"spin": "half", "field": 0.0}], "couplings": []}')
        code, _, err = _run(capsys, "simulate", "--chain", str(bad), "--t-max", "1.0")
        assert code == 2
        assert "2 sites" in err

    def test_missing_chain_source(self, capsys):
        code, _, err = _run(capsys, "simulate", "--t-max", "1.0")
        assert code == 2
        assert "chain" in err


@st.composite
def _chains(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    spins = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
    fields = draw(st.lists(values, min_size=n, max_size=n))
    couplings = draw(st.lists(values, min_size=n - 1, max_size=n - 1))
    sites = tuple(SiteSpec(SpinMagnitude(s), b) for s, b in zip(spins, fields))
    return ChainSpec(sites=sites, couplings=tuple(couplings))


@settings(max_examples=25, deadline=None)
@given(spec=_chains(), t_max=st.floats(min_value=0.0, max_value=40.0),
       steps=st.integers(min_value=1, max_value=300))
def test_simulate_csv_matches_fidelity_report(spec, t_max, steps):
    with tempfile.TemporaryDirectory() as tmp:
        chain, out = Path(tmp) / "chain.json", Path(tmp) / "out.csv"
        save_chain(spec, chain)
        code = main(["simulate", "--chain", str(chain), "--t-max", repr(t_max),
                     "--steps", str(steps), "--out", str(out), "--manifest", str(Path(tmp) / "m")])
        assert code == 0
        header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert header == CSV_HEADER
    assert len(lines) == steps
    h = reduce(spec)
    eig = eigensolve(h)
    for line in lines:
        cells = line.split(",")
        assert all(cell == format(float(cell), ".17g") for cell in cells)
        t, re_f, im_f, abs_f, gamma, fbar, fbar_corr, delta = map(float, cells)
        record = amplitudes(h, eig, t)
        rep = fidelity_report(record.t, record.f, record.phase_degenerate)
        for got, want in ((re_f, rep.f.real), (im_f, rep.f.imag), (abs_f, rep.abs_f),
                          (fbar, rep.fbar), (fbar_corr, rep.fbar_corrected)):
            assert abs(got - want) <= 1e-12
        for got, want in ((gamma, rep.gamma), (delta, rep.correction_phase)):
            wrapped = (got - want + math.pi) % (2.0 * math.pi) - math.pi
            assert rep.abs_f * abs(wrapped) <= 1e-12


def test_package_imports_without_scipy():
    # numpy is the only declared dependency
    src = Path(spintransfer.__file__).resolve().parents[1]
    code = ("import sys, spintransfer, spintransfer.cli, spintransfer.verification; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestOptimize:
    def test_plain_json_result(self, capsys):
        code, out, _ = _run(
            capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1", "--B", "0",
            "--t-max", "2.8",
        )
        assert code == 0
        res = json.loads(out)
        assert abs(res["fbar"] - 2.0 / 3.0) <= 1e-9
        assert abs(res["best_t"] - math.pi / SQRT2) <= 1e-8
        assert res["best_field"] is None
        assert res["evaluations"] > 0

    def test_corrected_flag(self, capsys):
        code, out, _ = _run(
            capsys, "optimize", "--preset", "sec3-three-spin-center",
            "--J", str(2 * SQRT2 / 3), "--B", "1.0", "--t-max", "25", "--corrected",
        )
        assert code == 0
        res = json.loads(out)
        assert abs(res["fbar_corrected"] - 0.9678) <= 5e-4

    def test_tune_field(self, capsys):
        code, out, _ = _run(
            capsys, "optimize", "--preset", "sec2-three-spin-center", "--J", "1",
            "--B", "0", "--t-max", "3.8", "--tune-field", "0", "3",
        )
        assert code == 0
        res = json.loads(out)
        assert abs(res["fbar"] - 1.0) <= 1e-5
        # any field of the (2l+1) pi / t_c family is an exact tuning here
        assert min(abs(res["best_field"] - b) for b in (1.0, 3.0)) <= 1e-3

    def test_zero_coupling_chain(self, tmp_path, capsys):
        chain = tmp_path / "dead.json"
        chain.write_text(json.dumps({
            "sites": [{"spin": "half", "field": 0.0}, {"spin": "half", "field": 0.0}],
            "couplings": [0.0],
        }))
        code, out, _ = _run(capsys, "optimize", "--chain", str(chain), "--t-max", "5")
        assert code == 0
        res = json.loads(out)
        assert res["fbar"] == 0.5
        assert res["best_t"] == 0.0

    def test_runaway_horizon_is_a_usage_error(self, capsys, monkeypatch):
        # t_max = 1e9 on a J = 1 preset needs about 1e10 grid points, far over
        # the 2**20 budget; the refusal must come before any grid is built
        def refuse(*args, **kwargs):
            raise AssertionError("a search grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        for extra in ([], ["--tune-field", "0", "2"]):
            code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1",
                                  "--B", "0", "--t-max", "1e9", *extra)
            assert code == 2
            assert out == ""
            assert "split the horizon" in err

    def test_wide_field_box_is_searched(self, capsys):
        # past t = 2 pi / 1e6 every phase lines up, so the box width does not
        # lengthen the grid
        code, out, _ = _run(capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1",
                            "--t-max", "10", "--tune-field", "0", "1e6")
        assert code == 0
        res = json.loads(out)
        assert 0.0 <= res["best_field"] <= 1e6
        assert res["evaluations"] < 10_000

    @pytest.mark.parametrize("flags", [["--t-max", "0"], ["--t-max", "5", "--steps", "4"],
                                       ["--t-max", "5", "--tune-field", "3", "0"]])
    def test_bad_search_config_is_a_usage_error(self, capsys, flags):
        code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestVerify:
    def test_subset_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = _run(capsys, "verify", "--only", "spectrum", "--out", str(report))
        assert code == 0
        assert "PASS  spectrum-sec2-two-spin" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert names == {f"spectrum-{n}" for n in (
            "sec2-two-spin", "sec2-three-spin-center", "sec3-two-spin",
            "sec3-three-spin-center", "sec4-three-spin-center",
        )}
        for check in payload["checks"]:
            assert check["tolerance"] == 1e-12
            assert check["measured"] <= 1e-12

    def test_report_times_each_check_group(self, tmp_path, capsys):
        # two registered groups match: the closed-form amplitudes and the spectra
        report = tmp_path / "report.json"
        started = time.perf_counter()
        code, out, _ = _run(capsys, "verify", "--only", "sec2-two-spin", "--out", str(report))
        elapsed = time.perf_counter() - started
        assert code == 0
        assert "seconds" not in out
        checks = json.loads(report.read_text())["checks"]
        assert len(checks) == 10
        assert all(set(c) == {"name", "passed", "tolerance", "measured", "detail", "seconds"}
                   for c in checks)
        per_group = {}
        for c in checks:
            group = "spectrum" if c["name"].startswith("spectrum-") else "closed-form"
            per_group.setdefault(group, set()).add(c["seconds"])
        assert set(per_group) == {"spectrum", "closed-form"}
        assert all(len(values) == 1 for values in per_group.values())
        seconds = [values.pop() for values in per_group.values()]
        assert all(s > 0.0 for s in seconds)
        assert sum(seconds) <= elapsed

    def test_injected_fault_is_named(self, capsys, monkeypatch):
        # break the hopping rule: pretend every bond couples like spin-1/2
        import spintransfer.excitation as excitation

        monkeypatch.setattr(excitation, "_hopping_scale", lambda s1, s2: 0.5)
        code, out, _ = _run(capsys, "verify", "--only", "spectrum")
        assert code == 1
        assert "FAIL  spectrum-sec2-two-spin" in out
        # the pure spin-1/2 system is untouched by this fault
        assert "PASS  spectrum-sec3-two-spin" in out

    def test_unmatched_filter(self, capsys):
        code, _, err = _run(capsys, "verify", "--only", "nonexistent-check")
        assert code == 2
        assert "no checks match" in err


class TestManifest:
    def test_sidecar_file(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        out = tmp_path / "out.csv"
        code, _, err = _run(
            capsys, "simulate", "--preset", "sec2-two-spin", "--J", "1", "--B", "0",
            "--t-max", "1.0", "--steps", "3", "--out", str(out),
            "--manifest", str(manifest),
        )
        assert code == 0
        assert err == ""
        payload = json.loads(manifest.read_text())
        assert payload["command"] == "simulate"
        assert payload["parameters"]["steps"] == 3
        assert len(payload["input_digest"]) == 64
        assert payload["duration_s"] >= 0.0
        assert payload["version"]

    def test_stderr_by_default(self, capsys):
        code, _, err = _run(
            capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1", "--B", "0",
            "--t-max", "2.8",
        )
        assert code == 0
        payload = json.loads(err.strip().split("\n")[-1])
        assert payload["command"] == "optimize"


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip()
