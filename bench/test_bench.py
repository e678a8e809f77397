"""Tests of the benchmark itself: failure counting, shim restore, metric names.

Run with `python3 -m pytest bench -q` from the root of the repository.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from spintransfer import cli, excitation, full_space
from spintransfer.chain import SPIN_HALF, ChainSpec, SiteSpec, engineered_chain, save_chain
from spintransfer.closed_forms import PresetSystem

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _simulate_op(tmp_path: Path) -> workloads.SimulateOp:
    spec = engineered_chain(6, 1.0)  # f = -i sin(t/2)^5: every row has an im_f to flip
    save_chain(spec, tmp_path / "chain.json")
    return workloads.SimulateOp(spec, 2.0 * math.pi, 50, 1.0, "chain.json")


def _optimize_op() -> workloads.OptimizeOp:
    system = PresetSystem("sec3-three-spin-center", 0.9, 0.6)
    return workloads.OptimizeOp(system.chain(), 30.0, True, system, None)


def _run_corrupted(monkeypatch, tmp_path: Path, op, corrupt) -> run.Runner:
    """Run op once with `corrupt(path)` applied to the output the CLI wrote."""
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        corrupt(Path(argv[argv.index("--out") + 1]))
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    runner = run.Runner(tmp_path)
    runner.run_round([op])
    return runner


def _flip_im_f(path: Path) -> None:
    header, *rows = path.read_text().splitlines()
    flipped = []
    for row in rows:
        cells = row.split(",")
        im = float(cells[2])
        cells[2] = repr(-im) if abs(im) > 1e-6 else cells[2]
        flipped.append(",".join(cells))
    path.write_text("\n".join([header, *flipped]) + "\n")


def _shift_best_t(path: Path) -> None:
    res = json.loads(path.read_text())
    res["best_t"] += 0.1
    path.write_text(json.dumps(res))


@pytest.mark.parametrize("make_op, corrupt", [
    (_simulate_op, _flip_im_f),
    (lambda tmp_path: _optimize_op(), _shift_best_t),
])
def test_corrupted_output_is_a_failed_operation(monkeypatch, tmp_path, make_op, corrupt):
    op = make_op(tmp_path)
    clean = run.Runner(tmp_path)
    clean.run_round([op])
    assert clean.failures == [] and len(clean.latencies) == 1

    runner = _run_corrupted(monkeypatch, tmp_path, op, corrupt)
    assert len(runner.latencies) == 1
    assert len(runner.failures) == 1


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    spec = ChainSpec((SiteSpec(SPIN_HALF), SiteSpec(SPIN_HALF)), (1.0,))
    op = workloads.SimulateOp(spec, 1.0, 0, None, "missing.json")  # no such chain file
    runner = run.Runner(tmp_path)
    runner.run_round([op])
    assert len(runner.failures) == 1 and "exit code 2" in runner.failures[0]


def _bindings() -> dict:
    modules = tracing._package_modules()
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for _, cls, attr in tracing.METHODS:
        snapshot[(cls.__name__, attr)] = cls.__dict__[attr]
    return snapshot


def test_shims_restore_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert cli.eigensolve is not before[("spintransfer.cli", "eigensolve")]
            assert full_space.FullSpaceModel.__dict__["__init__"] is not before[
                ("FullSpaceModel", "__init__")]
            excitation.transfer_amplitude(engineered_chain(5, 1.0), 1.0)
            raise RuntimeError("leave the traced block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.calls["excitation.reduce"] == 1
    assert tracer.calls["excitation.eigensolve"] == 1
    assert tracer.calls["excitation.amplitudes"] == 1


def test_reported_metric_names_match_benchmark_json(tmp_path):
    layer = run.layer_metrics(tracing.Tracer(), run.Runner(tmp_path), 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: run.layer_unit(name) for name in layer}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_inputs_depend_only_on_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    digests = {}
    for name in ("optimize", "tune-field"):
        wl = workloads.WORKLOADS[name]
        digests[name] = [workloads.generate(wl, seed, 1, tmp_path / d)[1]
                         for seed, d in ((7, "a"), (7, "b"), (8, "b"))]
    first, again, other = digests["optimize"]
    assert first == again != other
    assert len(set(digests["tune-field"])) == 1  # fixed inputs, whatever the seed


def test_tail_has_ten_samples_beyond_it():
    latencies = list(np.arange(40.0))
    percentile, value = run.tail_latency(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == 75.0
