"""Command-line interface: CSV/JSON contracts, exit codes, manifests."""

import contextlib
import errno
import importlib
import io
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spintransfer
from spintransfer import cli, optimize, verification
from spintransfer.chain import (PRESET_NAMES, SPIN_HALF, ChainSpec, ChainSpecError, SiteSpec,
                                SpinMagnitude, dumps_chain, engineered_chain, load_chain, preset,
                                save_chain)
from spintransfer.cli import CSV_HEADER, main
from spintransfer.excitation import (_grid_error, _grid_f, amplitudes, eigensolve, reduce,
                                     solve, synthesize_f)
from spintransfer.fidelity import AmplitudeOutOfRangeError, fidelity_report

SQRT2 = math.sqrt(2.0)


# Child interpreters run the package in src/ and fail on a RuntimeWarning, as
# the filterwarnings setting of pyproject.toml makes this process do.
_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(spintransfer.__file__).resolve().parents[1]),
              "PYTHONWARNINGS": "error::RuntimeWarning"}


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

    @pytest.mark.parametrize("steps", [0, optimize._MAX_GRID_POINTS + 1, 10**15])
    def test_row_count_out_of_range_is_a_usage_error(self, capsys, refuse_alloc, steps):
        refuse_alloc("linspace")
        code, out, err = _run(capsys, "simulate", "--preset", "sec2-two-spin", "--J", "1",
                              "--B", "0", "--t-max", "5.0", "--steps", str(steps))
        assert code == 2
        assert out == ""
        # every sweep starts at t = 0, so the message offers no split
        assert err == (f"error: --steps must be an integer in [1, {optimize._MAX_GRID_POINTS}], "
                       f"got {steps}\n")

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

        # 17 significant digits round-trip to the exact in-memory doubles of
        # the grid's block product, within _grid_error of the engine's f
        spectrum = solve(spec)
        grid, f = _grid_f(spectrum, [(0.0, 4.5, 999)])
        i = lines.index(best) - 1
        assert grid[i] == row[0]
        assert abs(f[i] - synthesize_f(spectrum, row[0])) <= _grid_error(spectrum, 4.5)
        rep = fidelity_report(row[0], f[i])
        assert row[1] == rep.f.real
        assert row[2] == rep.f.imag
        assert row[3] == rep.abs_f
        assert row[4] == rep.gamma
        assert row[5] == rep.fbar
        assert row[6] == rep.fbar_corrected
        assert row[7] == rep.gamma

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_rows_are_transfer_amplitude_bit_for_bit(self, tmp_path, capsys, name):
        # B = 0.7 gives every preset a nonzero vacuum energy, which both routes
        # fold into the phases; the rows are the grid's block product to the
        # bit, and within _grid_error of synthesize_f
        out_path = tmp_path / "sweep.csv"
        assert _run(capsys, "simulate", "--preset", name, "--J", "0.9", "--B", "0.7",
                    "--t-max", "50", "--steps", "1001", "--out", str(out_path))[0] == 0
        spec = preset(name, 0.9, 0.7)
        assert reduce(spec).vacuum_energy != 0.0
        lines = out_path.read_text().splitlines()[1:]
        assert len(lines) == 1001
        spectrum = solve(spec)
        bound = _grid_error(spectrum, 50.0)
        for line, t, z in zip(lines, *_grid_f(spectrum, [(0.0, 50.0, 1000)])):
            rep = fidelity_report(t, z)
            values = (t, rep.f.real, rep.f.imag, rep.abs_f, rep.gamma, rep.fbar,
                      rep.fbar_corrected, rep.gamma)
            assert line == ",".join("%.17g" % v for v in values)  # round-trips every bit
            assert abs(z - synthesize_f(spectrum, t)) <= bound

    def test_rows_streamed_in_blocks_equal_the_whole_array_report(self, tmp_path, capsys):
        # 2,500 rows cross two boundaries of the 1,024-row output blocks
        out_path = tmp_path / "sweep.csv"
        argv = ["simulate", "--preset", "sec3-two-spin", "--J", "1", "--B", "0.5",
                "--t-max", "30", "--steps", "2500"]
        assert _run(capsys, *argv, "--out", str(out_path))[0] == 0
        t, f = _grid_f(solve(preset("sec3-two-spin", 1.0, 0.5)), [(0.0, 30.0, 2499)])
        assert np.array_equal(t, np.linspace(0.0, 30.0, 2500))
        rep = fidelity_report(t, f)
        columns = (rep.t, rep.f.real, rep.f.imag, rep.abs_f, rep.gamma,
                   rep.fbar, rep.fbar_corrected, rep.gamma)
        rows = (",".join(format(x, ".17g") for x in row) for row in zip(*map(list, columns)))
        assert out_path.read_bytes() == "\n".join([CSV_HEADER, *rows, ""]).encode()

    def test_dead_channel_phase_is_plus_pi(self, tmp_path, capsys):
        # at B = 0 this chain has f = -sin^2(t / 2) on the negative real axis,
        # where arctan2 gives -pi whenever Im f is -0.0 or a tiny negative
        out_path = tmp_path / "dead.csv"
        code, _, _ = _run(capsys, "simulate", "--preset", "sec2-three-spin-center", "--J", "1",
                          "--B", "0", "--t-max", repr(4 * math.pi), "--steps", "1001",
                          "--out", str(out_path))
        assert code == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        gamma, delta = rows[:, 4], rows[:, 7]
        assert np.array_equal(gamma, delta)
        assert np.all((gamma > -math.pi) & (gamma <= math.pi))
        assert np.any(gamma == math.pi)

    def test_out_of_range_amplitude_fails_before_the_file_exists(self, tmp_path, monkeypatch):
        def corrupt_last(spectrum, pieces):
            grid, f = _grid_f(spectrum, pieces)
            f[-1] = 1.0 + 2e-9
            return grid, f

        monkeypatch.setattr(cli, "_grid_f", corrupt_last)
        out_path = tmp_path / "sweep.csv"
        with pytest.raises(AmplitudeOutOfRangeError):
            main(["simulate", "--preset", "sec2-two-spin", "--t-max", "5.0", "--steps", "2500",
                  "--out", str(out_path)])
        assert not out_path.exists()

    def test_overflowing_phases_fail_before_the_file_exists(self, tmp_path, capsys):
        # E t overflows at every t > 0, so f is NaN on all rows but the first
        chain = tmp_path / "huge.json"
        save_chain(ChainSpec((SiteSpec(SpinMagnitude(0.5)),) * 3, (1e308, 1e308)), chain)
        out_path = tmp_path / "sweep.csv"
        code, out, err = _run(capsys, "simulate", "--chain", str(chain), "--t-max", "10",
                              "--steps", "4", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: f is not finite at t = 3.3333333333333335")
        assert not out_path.exists()

    @pytest.mark.parametrize("t_max, steps, first", [
        ("25.5", "128", "25.5"),  # only the last row of a block overflows
        ("40", "200", "25.527638190954775"),  # the first overflowing row is mid-block
    ])
    def test_overflow_is_refused_at_the_first_overflowing_row(self, tmp_path, capsys, t_max,
                                                              steps, first):
        # the levels +-sqrt(2) 5e306 overflow t lambda from t = 25.42 on; the block
        # product alone gives those rows finite values, synthesize_f NaN
        chain = tmp_path / "huge.json"
        save_chain(ChainSpec((SiteSpec(SpinMagnitude(0.5)),) * 3, (1e307, 1e307)), chain)
        out_path = tmp_path / "sweep.csv"
        code, out, err = _run(capsys, "simulate", "--chain", str(chain), "--t-max", t_max,
                              "--steps", steps, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (f"error: f is not finite at t = {first}: the phases E t overflow; "
                       f"lower t_max or rescale the chain\n")
        assert not out_path.exists()

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
        assert err == f"error: {bad}: the number of sites must be an integer in [2, 4096], got 1\n"

    def test_chain_file_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"sites": [], "note": "caf\xe9"}'.encode("latin-1"))
        code, out, err = _run(capsys, "simulate", "--chain", str(bad), "--t-max", "1.0")
        assert code == 2
        assert out == ""
        assert f"{bad}: not UTF-8" in err

    @pytest.mark.parametrize("t_max", ["nan", "inf", "-inf"])
    def test_non_finite_horizon_is_a_usage_error(self, capsys, t_max):
        code, out, err = _run(capsys, "simulate", "--preset", "sec2-two-spin",
                              f"--t-max={t_max}", "--steps", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --t-max must be finite and nonnegative")

    def test_chain_file_over_the_site_cap_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"sites": [{"spin": "half", "field": 0.0}] * 4097,
                                    "couplings": [1.0] * 4096}), encoding="utf-8")
        code, out, err = _run(capsys, "simulate", "--chain", str(path), "--t-max", "1.0")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: the number of sites must be an integer in [2, 4096], "
                       f"got 4097\n")

    def test_chain_file_with_a_bool_field_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"sites": [{"spin": "half", "field": True}] * 2,
                                    "couplings": [1.0]}), encoding="utf-8")
        code, out, err = _run(capsys, "simulate", "--chain", str(path), "--t-max", "1.0")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: site field must be a number, got True\n"

    def test_unknown_preset_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, "simulate", "--preset", "bogus", "--t-max", "1.0")
        assert (code, out) == (2, "")
        assert err == f"error: unknown preset 'bogus'; known: {', '.join(PRESET_NAMES)}\n"

    def test_missing_chain_source(self, capsys):
        code, _, err = _run(capsys, "simulate", "--t-max", "1.0")
        assert code == 2
        assert "chain" in err


@st.composite
def _chains(draw, max_sites=12):
    n = draw(st.integers(min_value=2, max_value=max_sites))
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
        f0, fn = amplitudes(h, eig, t)  # f by the O(N^2) route, conj(f0) fn[N]
        rep = fidelity_report(t, complex(np.conj(f0) * fn[-1]))
        for got, want in ((re_f, rep.f.real), (im_f, rep.f.imag), (abs_f, rep.abs_f),
                          (fbar, rep.fbar), (fbar_corr, rep.fbar_corrected)):
            assert abs(got - want) <= 1e-12
        for got, want in ((gamma, rep.gamma), (delta, rep.gamma)):
            wrapped = (got - want + math.pi) % (2.0 * math.pi) - math.pi
            assert rep.abs_f * abs(wrapped) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(spec=_chains(max_sites=40), steps=st.sampled_from([1, 2, 63, 64, 65, 1024, 1025, 2500]),
       t_max=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)))
def test_simulate_rows_stay_within_the_grid_error_of_synthesize_f(spec, steps, t_max):
    # the rows come from the grid's block product: one exponential per level
    # for each 64 rows, the last block cut short
    with tempfile.TemporaryDirectory() as tmp:
        chain, out = Path(tmp) / "chain.json", Path(tmp) / "out.csv"
        save_chain(spec, chain)
        assert main(["simulate", "--chain", str(chain), "--t-max", repr(t_max), "--steps",
                     str(steps), "--out", str(out), "--manifest", os.devnull]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    t = np.linspace(0.0, t_max, steps)
    assert np.array_equal(rows[:, 0], t)
    spectrum = solve(spec)
    gap = np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - synthesize_f(spectrum, t)))
    assert gap <= _grid_error(spectrum, t_max)


@settings(max_examples=10, deadline=None)
@given(spec=_chains(max_sites=8), t_max=st.floats(min_value=1.0, max_value=100.0),
       steps=st.sampled_from([2, 65, 1025]))
def test_simulate_scaled_by_eight_writes_the_same_bytes_but_t(spec, t_max, steps):
    # every coupling and field times 8 and t_max over 8: the levels times 8, the
    # same weights and every grid time over 8, so every phase lambda t keeps its
    # bits, and so does every column but t
    def rows(chain_spec, horizon):
        with tempfile.TemporaryDirectory() as tmp:
            chain, out = Path(tmp) / "chain.json", Path(tmp) / "out.csv"
            save_chain(chain_spec, chain)
            assert main(["simulate", "--chain", str(chain), "--t-max", repr(horizon),
                         "--steps", str(steps), "--out", str(out),
                         "--manifest", os.devnull]) == 0
            return [line.split(",", 1) for line in out.read_text().splitlines()[1:]]

    scaled = ChainSpec(sites=tuple(SiteSpec(site.spin, 8.0 * site.field) for site in spec.sites),
                       couplings=tuple(8.0 * j for j in spec.couplings))
    base, big = rows(spec, t_max), rows(scaled, t_max / 8.0)
    assert [float(t) * 8.0 for t, _ in big] == [float(t) for t, _ in base]
    assert [rest for _, rest in big] == [rest for _, rest in base]


@settings(max_examples=30, deadline=None)
@given(spec=_chains(max_sites=8), t_max=st.floats(min_value=1.0, max_value=30.0),
       kind=st.sampled_from(["plain", "corrected", "tuned"]),
       b_lo=st.floats(min_value=-2.0, max_value=2.0),
       width=st.floats(min_value=0.05, max_value=10.0))
# eigh deflates the weights of this coupling to exactly 0, but not those of the chain times 8
@example(spec=ChainSpec(sites=(SiteSpec(SPIN_HALF, 0.0), SiteSpec(SpinMagnitude(1.0), 1.0)),
                        couplings=(9.497214854965977e-155,)),
         t_max=1.0, kind="plain", b_lo=0.0, width=1.0)
def test_optimize_scaled_by_eight_writes_the_same_values_and_work(spec, t_max, kind, b_lo, width):
    # every coupling, field and field-box edge times 8 and t_max over 8: best_t
    # and the bracket over 8, best_field times 8, and the same fbar,
    # fbar_corrected, abs_f and evaluations.  The work is the same only where no
    # weight of f is deflated to exactly 0 at one scale alone: eigh's deflation
    # threshold is absolute, so it can take a tiny weight to 0 at one scale and
    # leave 1e-154 at the other, and the refine of an f that is exactly 0 stops sooner
    def box(c):
        return b_lo * c, (b_lo + width) * c

    def weights(chain_spec, c):
        lo, hi = box(c)
        return solve(chain_spec.with_uniform_field((lo + hi) / 2.0) if kind == "tuned"
                     else chain_spec).weights

    def result(chain_spec, horizon, c):
        flags = {"plain": [], "corrected": ["--corrected"],
                 "tuned": ["--tune-field", *map(repr, box(c))]}[kind]
        with tempfile.TemporaryDirectory() as tmp:
            chain, out = Path(tmp) / "chain.json", Path(tmp) / "out.json"
            save_chain(chain_spec, chain)
            assert main(["optimize", "--chain", str(chain), "--t-max", repr(horizon), *flags,
                         "--out", str(out), "--manifest", os.devnull]) == 0
            return json.loads(out.read_text())

    scaled = ChainSpec(sites=tuple(SiteSpec(site.spin, 8.0 * site.field) for site in spec.sites),
                       couplings=tuple(8.0 * j for j in spec.couplings))
    base, big = result(spec, t_max, 1.0), result(scaled, t_max / 8.0, 8.0)
    assert big["best_t"] * 8.0 == base["best_t"]
    assert [end * 8.0 for end in big["bracket"]] == base["bracket"]
    assert big["best_field"] == (base["best_field"] and base["best_field"] * 8.0)
    for key in ("fbar", "fbar_corrected", "abs_f"):
        assert big[key] == base[key], key
    if np.array_equal(weights(spec, 1.0) == 0.0, weights(scaled, 8.0) == 0.0):
        assert big["evaluations"] == base["evaluations"]


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS that splits eigh across threads must not change a sum: the CSV is the
    # same bytes under one or two threads, with the kernel set OpenBLAS picks for
    # this CPU and with those of Haswell and Zen, which OPENBLAS_CORETYPE selects
    # (a build without DYNAMIC_ARCH ignores it)
    chain = tmp_path / "engineered-400.json"
    save_chain(engineered_chain(400, spin_one_site=201), chain)
    host = {key: value for key, value in _CHILD_ENV.items() if key != "OPENBLAS_CORETYPE"}
    for core in ({}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Zen"}):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "spintransfer.cli", "simulate",
                                   "--chain", str(chain), "--t-max", "500", "--steps", "3000",
                                   "--manifest", os.devnull],
                                  env={**host, **core, "OPENBLAS_NUM_THREADS": threads},
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], core


_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"


def _percent_rows(block: np.ndarray) -> str:
    """The CSV text of the rows of `block` by "%" formatting, one value at a time."""
    return _CSV_ROW * len(block) % tuple(block.ravel().tolist())


def _rows_of(values) -> np.ndarray:
    """The values, padded with zeros to whole rows of eight."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.zeros(-len(values) % 8)]).reshape(-1, 8)


def _blockwise(block: np.ndarray) -> str:
    """cli._csv_rows over 1,024-row blocks, as `simulate` writes them."""
    return "".join(cli._csv_rows(block[lo:lo + 1024]) for lo in range(0, len(block), 1024))


class TestCsvFormatter:
    """The vectorized formatter writes exactly the bytes of "%.17g"."""

    @settings(max_examples=1000, deadline=None)
    @given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=1.7976931348623157e308)
    def test_equals_format_17g(self, x):
        assert cli._csv_rows(np.full((1, 8), x)) == ",".join([format(x, ".17g")] * 8) + "\n"

    def test_typical_and_extreme_values_are_certified(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-1.0, 1.0, 4000),
                            rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.integers(-300, 300, 4000),
                            [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]])
        certified = cli._decimals(x)[2]
        assert certified[-5:].all()
        for value in x[~certified]:  # doubles in [1e14, 1e16) can be exact ties
            digits = Decimal(value).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert certified.sum() >= len(x) - 5
        for slot, value in zip(cli._slots(x), x):
            assert slot.tobytes().translate(None, b"\0") == format(value, ".17g").encode() + b","

    def test_every_slot_holds_the_text_of_percent(self):
        # the values the double-double cannot certify get the text of "%" in their own slot
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([np.nextafter(powers, -math.inf), powers, [131073 / 2**17],
                            [math.nan, -math.nan, math.inf, -math.inf, -5e-324]])
        x = np.concatenate([x, -x])
        certified = cli._decimals(x)[2]
        assert (~certified).sum() > 100
        out = cli._slots(x)
        assert out.shape == (len(x), cli._SLOT)
        assert (out[:, -1] == ord(",")).all()
        for slot, value in zip(out[~certified], x[~certified]):
            text = b"%.17g" % value
            assert slot[:len(text)].tobytes() == text
            assert not slot[len(text):-1].any()

    def test_one_ulp_around_every_power_of_ten(self):
        # log10 may name the wrong decade here; the decade guard sends these to "%"
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([powers, np.nextafter(powers, -math.inf),
                            np.nextafter(powers, math.inf)])
        block = _rows_of(np.concatenate([x, -x]))
        assert _blockwise(block) == _percent_rows(block)

    def test_exact_ties_round_half_to_even(self):
        # j / 2^m for odd j has the 18 significant digits of j 5^m, the last a 5
        rng = np.random.default_rng(6)
        x = np.concatenate([(rng.integers(lo, hi, 200) | 1) / 2.0**m
                            for m in range(2, 26)
                            for lo, hi in [(-(-10**17 // 5**m), min(10**18 // 5**m, 2**53))]
                            if lo < hi])
        assert len(x) > 4000
        for value in x:
            digits = Decimal(value).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        block = _rows_of(np.concatenate([x, -x]))
        assert _blockwise(block) == _percent_rows(block)

    def test_fallback_rows_keep_their_place(self):
        rng = np.random.default_rng(7)
        block = rng.uniform(-1.0, 1.0, (2500, 8))
        # a non-finite value, a power of ten and an exact tie, at the first and
        # last rows and on both sides of the first 1,024-row boundary
        fallbacks = {0: math.nan, 1023: 1.0, 1024: 131073 / 2**17, 2499: -math.inf}
        for row, value in fallbacks.items():
            block[row, row % 8] = value
        certified = cli._decimals(block.ravel())[2]
        assert np.flatnonzero(~certified.reshape(2500, 8).all(axis=1)).tolist() == [*fallbacks]
        assert _blockwise(block) == _percent_rows(block)


def test_import_builds_no_formatter_table():
    code = "import spintransfer.cli as cli; print(cli._format_tables.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_every_exported_name_resolves():
    modules = [spintransfer] + [importlib.import_module(f"spintransfer.{info.name}")
                                for info in pkgutil.iter_modules(spintransfer.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_module_entry_point_runs_the_cli():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "spintransfer.cli", *argv], env=_CHILD_ENV,
                              capture_output=True, text=True, timeout=120)

    proc = run("verify", "--only", "spectrum")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "5/5 checks passed"
    proc = run("simulate", "--preset", "no-such-preset", "--t-max", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_overflowing_phases_print_only_the_error_line(tmp_path):
    # numpy's overflow warnings from the phases E t stay off stderr
    chain = tmp_path / "huge.json"
    save_chain(ChainSpec((SiteSpec(SpinMagnitude(0.5)),) * 3, (1e308, 1e308)), chain)
    proc = subprocess.run([sys.executable, "-m", "spintransfer.cli", "simulate", "--chain",
                           str(chain), "--t-max", "10", "--steps", "4"], env=_CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: f is not finite at t = 3.3333333333333335: the phases E t "
                           "overflow; lower t_max or rescale the chain\n")


def _two_sites(spins, fields, coupling):
    return json.dumps({"sites": [{"spin": s, "field": b} for s, b in zip(spins, fields)],
                       "couplings": [coupling]})


# Chain files the CLI must refuse with one line; {path} is the file's path.
_OVERFLOWING_CHAIN_FILES = {
    "401-digit-spin": (_two_sites([10**400, "half"], [0, 0], 1),
                       "{path}: spin magnitude must be finite, got inf"),
    "spin-1e308": (_two_sites([1e308, "half"], [0, 0], 1),
                   "{path}: 2s must be a positive integer, got s = 1e+308"),
    "5001-digit-field": (_two_sites(["half", "half"], [0, 0], 1).replace(
        '"field": 0', '"field": 1' + "0" * 5000, 1), "{path}: site field must be finite, got inf"),
    "nested-100000-deep": ('{"sites": ' + "[" * 100_000 + "]" * 100_000 + ', "couplings": []}',
                           "{path}: JSON nested too deeply"),
    "hopping-overflows": (_two_sites([1e200, 1e200], [0, 0], 1),
                          "the hopping J_1 sqrt(s_1 s_2) of bond 1 is not finite"),
    "vacuum-energy-overflows": (_two_sites(["one", "one"], [1e308, 1e308], 1),
                                "the vacuum energy sum_i B_i s_i is not finite"),
}


@pytest.mark.parametrize("command", [["simulate", "--steps", "2"], ["optimize"],
                                     ["optimize", "--tune-field", "0", "1"]],
                         ids=["simulate", "optimize", "tune-field"])
@pytest.mark.parametrize("name", _OVERFLOWING_CHAIN_FILES)
def test_chain_file_beyond_the_floats_is_a_usage_error(tmp_path, capsys, name, command):
    text, message = _OVERFLOWING_CHAIN_FILES[name]
    path = tmp_path / "chain.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, command[0], "--chain", str(path), "--t-max", "1",
                          *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=path) + "\n"


def test_tuned_spread_that_overflows_prints_only_the_error_line(tmp_path, capsys):
    # every entry of the block is finite, the spread of its levels is not
    path = tmp_path / "chain.json"
    save_chain(ChainSpec((SiteSpec(SPIN_HALF, 1e308), SiteSpec(SPIN_HALF, -1e308),
                          SiteSpec(SPIN_HALF, 1e308)), (1e308, 1e308)), path)
    code, out, err = _run(capsys, "optimize", "--chain", str(path), "--t-max", "1",
                          "--tune-field", "0", "1")
    assert (code, out) == (2, "")
    assert err == ("error: t_max = 1.0 needs inf grid points (limit 1048576); the spread of "
                   "the levels or the field box overflows\n")


def _main_output(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of cli.main, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code: int, err: str, *, one_line: bool) -> None:
    """Exit 0 writes nothing to stderr (the manifest goes to a file); exit 2
    writes exactly one line that contains "error:", and nothing else when
    `one_line` (argparse prints its usage lines before its error line)."""
    lines = err.splitlines()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.endswith("\n")
        assert sum("error:" in line for line in lines) == 1
        if one_line:
            assert len(lines) == 1 and lines[0].startswith("error: ")


def _simulate_chain_file(data: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.json"
        path.write_bytes(data)
        return _main_output(["simulate", "--chain", str(path), "--t-max", "1", "--steps", "2",
                             "--out", str(Path(tmp) / "out.csv"),
                             "--manifest", str(Path(tmp) / "manifest.json")])


# Numbers where the floats end, JSON's NaN and Infinity literals (json.dumps
# writes them for the non-finite floats), and bools or strings where numbers go.
_WILD_NUMBERS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from([10**400, -10**400, 1e308, -1e308, 1.7976931348623157e308, 1e200,
                     "half", "one"]))
_JSON_TREES = st.recursive(
    _WILD_NUMBERS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["sites", "couplings", "spin", "field"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=16)


@st.composite
def _chain_trees(draw):
    """Chain-shaped JSON of at most 8 sites, with any tree where a value goes."""
    number = st.one_of(st.floats(-2.0, 2.0), _WILD_NUMBERS, _JSON_TREES)
    spin = st.one_of(st.sampled_from(["half", "one", 0.5, 1, 1.5]), _WILD_NUMBERS, _JSON_TREES)
    n = draw(st.integers(0, 8))
    sites = [{"spin": draw(spin), "field": draw(number)} for _ in range(n)]
    count = draw(st.one_of(st.just(max(n - 1, 0)), st.integers(0, 8)))
    return {"sites": sites, "couplings": draw(st.lists(number, min_size=count, max_size=count))}


@settings(max_examples=200, deadline=None)
@given(tree=st.one_of(_chain_trees(), _JSON_TREES))
@example(tree={"sites": [{"spin": 10**400, "field": 0}, {"spin": "half", "field": 0}],
               "couplings": [1]})
@example(tree={"sites": [{"spin": 1e200, "field": 0}] * 2, "couplings": [1]})
def test_any_json_chain_exits_cleanly(tree):
    code, err = _simulate_chain_file(json.dumps(tree).encode())
    _assert_clean_exit(code, err, one_line=True)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64))
@example(data=b'{"sites": ' + b"[" * 100_000 + b"]" * 100_000 + b', "couplings": []}')
@example(data=b'{"sites": [{"spin": "half", "field": 1' + b"0" * 5000 + b'}], "couplings": []}')
def test_any_chain_file_bytes_exit_cleanly(data):
    code, err = _simulate_chain_file(data)
    _assert_clean_exit(code, err, one_line=True)


# --steps text that int() can read is small; no other text holds a decimal digit
_STEPS_TEXT = st.one_of(st.integers(-3, 64).map(str),
                        st.text(st.characters(blacklist_categories=("Nd",)), max_size=6))
_T_MAX_TEXT = st.one_of(st.floats().map(repr), st.text(max_size=8),
                        st.sampled_from(["1e308", "-0", "nan", "-inf", "1_0", "-1e-3"]))


@settings(max_examples=200, deadline=None)
@given(t_max=_T_MAX_TEXT, steps=_STEPS_TEXT)
@example(t_max="1.7976931348623157e+308", steps="25")  # linspace's last step overflows
def test_any_horizon_and_step_text_exits_cleanly(t_max, steps):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main_output(["simulate", "--preset", "sec2-two-spin", "--t-max", t_max,
                                  "--steps", steps, "--out", str(Path(tmp) / "out.csv"),
                                  "--manifest", str(Path(tmp) / "manifest.json")])
    _assert_clean_exit(code, err, one_line=False)


_OPTIMIZE_MODES = st.one_of(
    st.just([]), st.just(["--corrected"]),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(
        lambda box: ["--tune-field", *map(repr, box)]))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), j=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       t_max=st.floats(0.0, 10.0), mode=_OPTIMIZE_MODES)
# the angle of f over a subnormal t overflows; the spacing of 256 samples underflows
@example(name="sec2-two-spin", j=1.0, b=0.0, t_max=1e-310, mode=["--tune-field", "0", "1"])
@example(name="sec2-two-spin", j=1.0, b=0.0, t_max=1e-322, mode=[])
def test_any_optimize_input_exits_cleanly(name, j, b, t_max, mode):
    # presets with |J|, |B| <= 2 and t_max <= 10 keep the grid at a few hundred points
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main_output(["optimize", "--preset", name, "--J", repr(j), "--B", repr(b),
                                  "--t-max", repr(t_max), *mode,
                                  "--out", str(Path(tmp) / "out.json"),
                                  "--manifest", str(Path(tmp) / "manifest.json")])
    _assert_clean_exit(code, err, one_line=False)


_ANY_VALUE = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                       st.complex_numbers(), st.lists(st.integers(), max_size=2),
                       st.sampled_from([10**400, -10**400, 10**5000, 1e308, 0.5, 1]))


@settings(max_examples=300, deadline=None)
@given(spin=_ANY_VALUE, field=_ANY_VALUE,
       sites=st.lists(st.one_of(st.just(SiteSpec(SPIN_HALF)), _ANY_VALUE), max_size=8),
       couplings=st.lists(_ANY_VALUE, max_size=8))
def test_chain_dataclasses_raise_only_chain_errors(spin, field, sites, couplings):
    for build in (lambda: SpinMagnitude(spin), lambda: SiteSpec(SPIN_HALF, field),
                  lambda: SiteSpec(spin, field), lambda: ChainSpec(tuple(sites), tuple(couplings))):
        try:
            build()
        except ChainSpecError:
            pass


def test_package_imports_without_scipy():
    # numpy is the only declared dependency
    code = ("import sys, spintransfer, spintransfer.cli, spintransfer.verification; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_import_no_numpy_ma(tmp_path):
    # numpy.ma, which np.unique imports on its first call, adds 0.6-1 MB to a
    # run's peak memory; no command needs it
    preset = ["--preset", "sec2-two-spin", "--J", "1", "--B", "0"]
    runs = [["optimize", *preset, "--t-max", "50"],
            ["optimize", *preset, "--t-max", "50", "--corrected"],
            ["optimize", *preset, "--t-max", "3.8", "--tune-field", "0", "3"],
            ["simulate", *preset, "--t-max", "4.5", "--steps", "100"],
            ["verify", "--out", str(tmp_path / "report.json")]]
    code = textwrap.dedent("""\
        import contextlib, io, json, sys
        from spintransfer.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
        print(codes, "numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=_CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] False"


# The two optimize examples of the README, byte for byte.
_README_CORRECTED_JSON = """\
{
  "best_t": 199.80529840818312,
  "best_field": null,
  "fbar": 0.3492484456759517,
  "fbar_corrected": 0.9677705383234849,
  "abs_f": 0.9510569519983034,
  "evaluations": 642,
  "bracket": [
    199.80529838818313,
    199.8052984281831
  ]
}
"""

_README_TUNED_JSON = """\
{
  "best_t": 3.1415926535897922,
  "best_field": 1.0000000000000004,
  "fbar": 0.9999999999999999,
  "fbar_corrected": 0.9999999999999999,
  "abs_f": 1.0,
  "evaluations": 262,
  "bracket": [
    3.141592653209792,
    3.1415926539697923
  ]
}
"""


# optimize flags that no search may run with, and the error each prints
_BAD_SEARCH_CONFIGS = {
    ("--t-max", "0"): "t_max must be positive, got 0.0",
    ("--t-max", "nan"): "t_max must be finite, got nan",
    ("--t-max", "5", "--tune-field", "3", "0"):
        "the field box needs B_lo < B_hi and a finite centre, got (3.0, 0.0)",
    ("--t-max", "-0"): "t_max must be positive, got -0.0",
    ("--t-max", "5", "--tune-field", "0", "0"):
        "the field box needs B_lo < B_hi and a finite centre, got (0.0, 0.0)",
    ("--t-max", "5", "--tune-field", "nan", "1"): "the field box must be finite, got nan",
    ("--t-max", "1e9"): "t_max = 1000000000.0 needs 3.898e+09 grid points (limit 1048576); "
                        "lower t_max to at most 244333.6944547821",
    ("--t-max", "1e-322"): "t_max = 1e-322 is too small for 256 samples: their spacing "
                           "underflows to 0",
    ("--t-max", "1e-322", "--tune-field", "0", "1"):
        "t_max = 1e-322 is too small for 256 samples: their spacing underflows to 0",
}


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

    def test_corrected_with_tune_field_is_a_usage_error(self, tmp_path, capsys):
        # the tuned objective aligns the phase itself: --corrected would be ignored
        manifest = tmp_path / "manifest.json"
        code, out, err = _run(capsys, "optimize", "--preset", "sec2-three-spin-center",
                              "--t-max", "3.8", "--tune-field", "0", "3", "--corrected",
                              "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            "error: argument --corrected: not allowed with argument --tune-field")
        assert not manifest.exists()

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

    def test_runaway_horizon_is_a_usage_error(self, capsys, refuse_alloc):
        # t_max = 1e9 on a J = 1 preset needs about 1e10 grid points, far over
        # the 2**20 budget, and 1e308 overflows the point count to inf; the
        # refusal must come before the runaway grid is built and name a shorter
        # horizon, which it tries on grids within the budget
        refuse_alloc("linspace", over=optimize._MAX_GRID_POINTS)
        for t_max, extra in itertools.product(["1e9", "1e308"], [[], ["--tune-field", "0", "2"]]):
            code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1",
                                  "--B", "0", "--t-max", t_max, *extra)
            assert code == 2
            assert out == ""
            advised = float(err.split("lower t_max to at most ")[1].split()[0])
            assert 0.0 < advised < float(t_max)

    @pytest.mark.parametrize("flags, message", [
        (["--t-max", "inf"], "error: t_max must be finite"),
        (["--t-max", "5", "--tune-field", "0", "inf"], "error: the field box"),
    ])
    def test_unbounded_input_is_a_usage_error(self, capsys, refuse_alloc, flags, message):
        refuse_alloc("linspace")
        code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    def test_wide_field_box_is_searched(self, capsys):
        # past t = 2 pi / 1e6 every phase lines up, so the box width does not
        # lengthen the grid
        code, out, _ = _run(capsys, "optimize", "--preset", "sec2-two-spin", "--J", "1",
                            "--t-max", "10", "--tune-field", "0", "1e6")
        assert code == 0
        res = json.loads(out)
        assert 0.0 <= res["best_field"] <= 1e6
        assert res["evaluations"] < 10_000

    @pytest.mark.parametrize("argv, expected", [
        (["--preset", "sec3-three-spin-center", "--J", "0.942809", "--B", "1", "--t-max", "200",
          "--corrected"], _README_CORRECTED_JSON),
        (["--preset", "sec2-three-spin-center", "--J", "1", "--B", "0", "--t-max", "3.8",
          "--tune-field", "0", "3"], _README_TUNED_JSON),
    ], ids=["corrected", "tune-field"])
    def test_readme_examples_are_pinned(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "result.json"
        assert _run(capsys, "optimize", *argv, "--out", str(out))[0] == 0
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("flags", [list(flags) for flags in _BAD_SEARCH_CONFIGS])
    def test_bad_search_config_is_a_usage_error(self, capsys, refuse_alloc, flags):
        # a refusal's advice is tried on grids within the budget, never on the runaway one
        refuse_alloc("linspace", over=optimize._MAX_GRID_POINTS)
        code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", *flags)
        assert (code, out) == (2, "")
        assert err == "error: " + _BAD_SEARCH_CONFIGS[tuple(flags)] + "\n"

    def test_steps_is_not_an_option(self, tmp_path, capsys):
        # the spectrum sets the search's spacing: optimize takes no sample count
        manifest = tmp_path / "manifest.json"
        code, out, err = _run(capsys, "optimize", "--preset", "sec2-two-spin", "--t-max", "5",
                              "--steps", "256", "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "spintransfer: error: unrecognized arguments: --steps 256"
        assert not manifest.exists()

    def test_manifest_parameters(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert _run(capsys, "optimize", "--preset", "sec2-two-spin", "--t-max", "5",
                    "--manifest", str(manifest))[0] == 0
        assert sorted(json.loads(manifest.read_text())["parameters"]) == [
            "B", "J", "chain", "command", "corrected", "out", "preset", "t_max", "tune_field"]


class TestNegativeNumbers:
    """A negative number in exponent form is a value, not an option."""

    @pytest.mark.parametrize("argv, dest, value", [
        (["simulate", "--preset", "sec2-two-spin", "--J", "-1e-3", "--t-max", "1"], "J", -1e-3),
        (["simulate", "--preset", "sec2-two-spin", "--B", "-1e-3", "--t-max", "1"], "B", -1e-3),
        (["simulate", "--preset", "sec2-two-spin", "--B", "-2.5E+1", "--t-max", "1"], "B", -25.0),
        (["optimize", "--preset", "sec2-two-spin", "--t-max", "3", "--tune-field", "-1e3", "1e3"],
         "tune_field", [-1e3, 1e3]),
        (["optimize", "--preset", "sec2-two-spin", "--J", "-1.", "--t-max", "3",
          "--tune-field", "-1.5e-1", "-.5e-2"], "tune_field", [-0.15, -0.005]),
        (["preset", "sec2-two-spin", "--J", "-1e0", "--B", "-1e-3"], "B", -1e-3),
    ])
    def test_is_parsed_and_run(self, capsys, argv, dest, value):
        assert getattr(cli.build_parser().parse_args(argv), dest) == value
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert out

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--preset", "sec2-two-spin", "--t-max", "-1e3"],
         "error: --t-max must be finite and nonnegative"),
        (["optimize", "--preset", "sec2-two-spin", "--t-max", "-1e-3"],
         "error: t_max must be positive"),
    ])
    def test_negative_horizon_reaches_the_range_check(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("extra", [["--bogus"], ["-e3"], ["--B", "-1e"], ["-1e3"]])
    def test_unknown_option_is_still_a_usage_error(self, capsys, extra):
        code, out, err = _run(capsys, "simulate", "--preset", "sec2-two-spin", "--t-max", "1",
                              *extra)
        assert code == 2
        assert out == ""
        assert "error:" in err


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

    def test_group_short_of_outcomes_fails_under_each_name(self, monkeypatch):
        # one outcome for two names: both fail, and the groups after it still run
        spectra = [group for group in verification._REGISTRY
                   if group[0][0].startswith("spectrum-")]
        short = (("fake-first", "fake-second"), lambda: [(True, 1.0, 0.0, "")])
        monkeypatch.setattr(verification, "_REGISTRY", [short, *spectra])
        results = verification.run_all()
        assert [r.name for r in results] == ["fake-first", "fake-second", *spectra[0][0]]
        assert all(not r.passed and r.detail.startswith("error:") for r in results[:2])
        assert all(r.passed for r in results[2:])

    def test_unmatched_filter(self, capsys):
        code, _, err = _run(capsys, "verify", "--only", "nonexistent-check")
        assert code == 2
        assert "no checks match" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "sec2-two-spin", "--t-max", "1", "--steps", "3", "--out"],
    ["optimize", "--preset", "sec2-two-spin", "--t-max", "2.8", "--out"],
    ["preset", "sec2-two-spin", "--J", "1", "--B", "0", "--manifest"],
    ["verify", "--only", "spectrum", "--out"],
], ids=["simulate-out", "optimize-out", "preset-manifest", "verify-out"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "file"
    code, _, err = _run(capsys, *argv, str(path))
    assert code == 2
    assert err.splitlines()[-1] == f"error: {path}: {os.strerror(errno.ENOENT)}"
    assert not path.parent.exists()


_WRITERS = pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "sec2-two-spin", "--t-max", "1", "--steps", "30"],
    ["optimize", "--preset", "sec2-two-spin", "--t-max", "2.8"],
    ["preset", "sec2-two-spin", "--J", "1", "--B", "0"],
    ["verify", "--only", "spectrum"],
], ids=["simulate", "optimize", "preset", "verify"])


@_WRITERS
def test_device_output_paths_are_written(capsys, argv):
    assert _run(capsys, *argv, "--out", os.devnull, "--manifest", os.devnull)[0] == 0


@_WRITERS
def test_output_over_a_longer_file_is_the_output_to_a_new_one(tmp_path, capsys, monkeypatch,
                                                               argv):
    # fixed durations, and the same paths in the manifest, give the same bytes twice
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    paths = [Path("out"), Path("manifest")]
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, *argv, "--out", "out", "--manifest", "manifest")[0] == 0
    fresh = [path.read_bytes() for path in paths]
    for path, new in zip(paths, fresh):
        path.write_bytes(b"\xff" * (len(new) + 10_000))
        path.chmod(0o200)  # write-only: the file is written without being read
    assert _run(capsys, *argv, "--out", "out", "--manifest", "manifest")[0] == 0
    for path, new in zip(paths, fresh):
        path.chmod(0o600)
        assert path.read_bytes() == new


def test_a_failed_body_leaves_only_what_it_wrote(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old " * 10_000)
    with pytest.raises(RuntimeError), cli._output(str(path)) as stream:
        stream.write("new")
        raise RuntimeError
    assert path.read_bytes() == b"new"


def test_a_flush_the_os_cuts_short_leaves_no_old_tail(tmp_path):
    path = tmp_path / "chain.json"
    path.write_bytes(b"x" * 65_536)
    # The output stays in the stream's buffer until the flush at the end of the
    # body, which the file size limit makes fail with EFBIG after 64 bytes.
    code = ("import resource, signal; from spintransfer.cli import main; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64)); "
            f"main(['preset', 'sec2-two-spin', '--J', '1', '--B', '0', '--out', {str(path)!r}])")
    proc = subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"OSError: [Errno {errno.EFBIG}] File too large"
    assert path.read_text() == dumps_chain(preset("sec2-two-spin", 1.0, 0.0))[:64]


@_WRITERS
def test_an_existing_output_is_never_truncated_to_zero(tmp_path, capsys, monkeypatch, argv):
    # Opening a file that holds data with "w" (O_TRUNC), cutting it to length 0,
    # or renaming a new file over it triggers ext4's replace-by-truncate/rename
    # flush on close: 35-100 ms a write on a 2-core VM with ext4 mounted with
    # discard, where writing over the old bytes takes 0.2 ms. A timing test
    # would flake, so this one checks the calls.
    paths = [str(tmp_path / "out"), str(tmp_path / "manifest")]
    for path in paths:
        Path(path).write_text("old " * 10_000)
    opened, lengths = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *rest, **kwargs):
        if path in paths:
            opened.append(flags)
        return real_open(path, flags, *rest, **kwargs)

    def spy_ftruncate(fd, length):
        lengths.append(length)
        real_ftruncate(fd, length)

    def refuse(*args, **kwargs):
        raise AssertionError("an output replaced or truncated by path")

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    for name in ("truncate", "replace", "rename"):
        monkeypatch.setattr(os, name, refuse)
    assert _run(capsys, *argv, "--out", paths[0], "--manifest", paths[1])[0] == 0
    assert len(opened) == 2
    assert all(flags & (os.O_ACCMODE | os.O_CREAT | os.O_TRUNC) == os.O_WRONLY | os.O_CREAT
               for flags in opened)
    assert len(lengths) == 2 and 0 not in lengths


class TestParserReuse:
    ARGV = ["optimize", "--preset", "sec3-two-spin", "--J", "1", "--B", "0", "--t-max", "20"]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_runs(self, capsys):
        cli.build_parser.cache_clear()
        code, fresh, _ = _run(capsys, *self.ARGV)
        assert code == 0
        assert _run(capsys, *self.ARGV, "--corrected")[0] == 0
        code, reused, _ = _run(capsys, *self.ARGV)
        assert code == 0
        assert reused == fresh


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
