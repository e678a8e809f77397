"""Benchmark of the spintransfer package, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is sweep, optimize, tune-field or verify (see BENCHMARK.json for why
each is there).  One client in one process drives the package through
`spintransfer.cli.main` (or `verification.run_all` for verify) as a closed
loop: each operation starts when the previous one has finished and its
output has been checked against an independent reference.

Each workload has a nominal round time, measured with version 0.1.0 of the
package on a 2-core x86-64 machine.  --trace 0 runs ceil(S / round time)
rounds, about S seconds of operations with that version, and prints the
end-to-end metrics.  The round count depends only on S, so every version of
the package runs the same operations and its percentiles are comparable.
--trace 1 runs half as
many rounds, each once untraced and once under the timing shims of
tracing.py, and prints the per-layer metrics of the traced pass.  `all` runs
every workload in its own process and prints one table.

End-to-end times are scaled to a reference host speed.  On a shared host the
same work runs up to a quarter faster or slower from one minute to the next,
so a fixed calibration kernel, which does not touch the package, is timed
before and after every operation and each latency is scaled by the kernel's
nominal time over its measured one.  The unscaled busy time is recorded in
the line before the result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the machine, the
seed and a digest of the generated inputs.  BLAS and OpenMP are pinned to one
thread.  Exit code 0 means the run finished; 2 means the package could not
be imported from ./src or the arguments were bad.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
WORKLOAD_NAMES = ("sweep", "optimize", "tune-field", "verify")
SETUP_REPEATS = 5
KERNEL_NOMINAL_S = 0.004  # reference speed: the host on which kernel() reads 4 ms
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_package() -> str | None:
    """Import spintransfer from ./src; returns an error message on failure."""
    sys.path.insert(0, str(SRC))
    try:
        import spintransfer
    except ImportError as exc:
        return f"cannot import spintransfer from {SRC}: {exc}"
    if not Path(spintransfer.__file__).resolve().is_relative_to(SRC):
        return f"spintransfer was imported from {spintransfer.__file__}, not {SRC}"
    return None


# ---------------------------------------------------------------- statistics

def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with exactly ten samples beyond it.

    Falls back to the median when there are no more than ten samples.
    """
    n = len(latencies)
    if n <= 10:
        return 50.0, statistics.median(latencies)
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def environment(seed: int, digest: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "input_digest": digest,
    }


# ---------------------------------------------------------------- running ops

def kernel() -> float:
    """Geometric mean of the times of three fixed pieces of work.

    The pieces are small numpy calls with formatting, scalar Python math and a
    LAPACK eigensolve, the three kinds of work the package does.  None of them
    touches the package, so the kernel measures only how fast the shared host
    runs at that moment.
    """
    import numpy as np

    times = []
    start = time.perf_counter()
    v = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(300):
        acc = math.hypot(abs(np.exp(-1j * v * i) @ v), acc % 7.0)
        format(acc, ".17g")
    times.append(time.perf_counter() - start)

    start = time.perf_counter()
    for i in range(6000):
        c, s = math.cos(i * 1e-3), math.sin(i * 2e-3)
        acc += c * (1.0 - s * s) + complex(c, s).real
    times.append(time.perf_counter() - start)

    symmetric = np.cos(np.add.outer(np.arange(120.0), np.arange(120.0)) ** 1.5)
    start = time.perf_counter()
    np.linalg.eigh(symmetric)
    times.append(time.perf_counter() - start)
    return math.prod(times) ** (1.0 / len(times))


class Runner:
    """Runs operations of one workload in workdir and records their outcome.

    With calibrate=True the kernel runs before and after every operation (every
    verify check group), outside the timed region.
    """

    def __init__(self, workdir: Path, tracer=None, calibrate: bool = False) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.calibrate = calibrate
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []  # kernel_s[i], kernel_s[i + 1] bracket latency i
        self.failures: list[str] = []
        self.bytes_written = 0
        self.short_of_optimum = 0  # tune-field solves below the sampled optimum

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def run_round(self, ops) -> None:
        if ops is None:
            self._run_suite()
        else:
            for op in ops:
                self._run_cli(op)

    def _measure_host(self) -> None:
        if self.calibrate:
            self.kernel_s.append(kernel())

    def scaled_latencies(self) -> list[float]:
        """Latencies at the reference host speed.

        Each latency is multiplied by KERNEL_NOMINAL_S over the mean of the
        kernel times just before and just after it.  On a shared host the
        same work runs up to a quarter faster or slower from one minute to
        the next; the scaling removes most of that drift.
        """
        k = self.kernel_s
        return [latency * 2.0 * KERNEL_NOMINAL_S / (k[i] + k[i + 1])
                for i, latency in enumerate(self.latencies)]

    def _run_cli(self, op) -> None:
        from spintransfer import cli
        from workloads import TUNE_GAP

        out = self.workdir / "out"
        argv = op.argv(self.workdir) + ["--out", str(out),
                                        "--manifest", str(self.workdir / "manifest.json")]
        reason = None
        if not self.kernel_s:
            self._measure_host()
        main = cli.main if self.tracer is None else self.tracer.timed("cli", cli.main)
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            code, reason = None, f"raised {exc!r}"
        self.latencies.append(time.perf_counter() - start)
        self._measure_host()
        if reason is None and code != 0:
            reason = f"exit code {code}"
        if reason is None:
            try:
                reason = op.check(out)
                self.bytes_written += out.stat().st_size
                if hasattr(op, "shortfall") and op.shortfall(out) > TUNE_GAP:
                    self.short_of_optimum += 1
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        out.unlink(missing_ok=True)
        if reason is not None:
            self.failures.append(f"{' '.join(argv[:-4])}: {reason}")

    def _run_suite(self) -> None:
        from spintransfer import verification
        from workloads import group_names

        groups = group_names()
        ends = list(itertools.accumulate(len(names) for names in groups))
        results, latencies = [], []
        resumed = time.perf_counter()

        def on_result(result) -> None:
            # run_all reports a group's results together as soon as the group ends.
            nonlocal resumed
            results.append(result)
            if len(results) in ends:
                latencies.append(time.perf_counter() - resumed)
                self._measure_host()
                resumed = time.perf_counter()

        if not self.kernel_s:
            self._measure_host()
            resumed = time.perf_counter()
        verification.run_all(on_result=on_result)
        self.latencies += latencies
        if len(latencies) != len(groups):
            self.failures.append(f"verify: {len(latencies)} of {len(groups)} check groups ended")
        for names, end, latency in zip(groups, ends, latencies):
            batch = results[end - len(names):end]
            if self.tracer is not None:
                self.tracer.record(f"verification.{names[0]}", latency)
                self.tracer.calls["verification.checks_failed"] += sum(not r.passed for r in batch)
            if tuple(r.name for r in batch) != names:
                self.failures.append(f"verify group {names[0]}: results out of order")
            elif not all(r.passed for r in batch):
                failed = [f"{r.name} ({r.detail})" for r in batch if not r.passed]
                self.failures.append(f"verify: {', '.join(failed)}")


# ---------------------------------------------------------------- modes

def _setup(workload, seed: int, n_rounds: int, workdir: Path):
    """Fresh-process import plus input generation, SETUP_REPEATS times.

    Returns (median setup seconds at the nominal host speed, rounds, input digest).
    """
    from workloads import generate

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import spintransfer"
    samples = []
    for _ in range(SETUP_REPEATS):
        speed = KERNEL_NOMINAL_S / kernel()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        rounds, digest = generate(workload, seed, n_rounds, workdir)
        samples.append((time.perf_counter() - start) * speed)
    return statistics.median(samples), rounds, digest


def _warm_up(rounds, workdir: Path) -> None:
    """One uncounted operation, so lazy imports inside the package are paid once."""
    if rounds[0] is not None:
        Runner(workdir).run_round(rounds[0][:1])


def _end_to_end(workload, args, workdir: Path):
    setup_s, rounds, digest = _setup(workload, args.seed, workload.rounds(args.seconds), workdir)
    _warm_up(rounds, workdir)
    runner = Runner(workdir, calibrate=True)
    for ops in rounds:
        runner.run_round(ops)
    latencies = runner.scaled_latencies()
    percentile, tail = tail_latency(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"rounds": len(rounds), "busy_s": runner.busy, "op_tail_percentile": percentile,
            "kernel_median_s": statistics.median(runner.kernel_s),
            "short_of_optimum": runner.short_of_optimum}
    return runner, metrics, info, digest


def _per_layer(workload, args, workdir: Path):
    from tracing import Tracer, traced
    from workloads import generate

    n_rounds = math.ceil(workload.rounds(args.seconds) / 2)
    rounds, digest = generate(workload, args.seed, n_rounds, workdir)
    _warm_up(rounds, workdir)
    tracer = Tracer()
    plain, runner = Runner(workdir, calibrate=True), Runner(workdir, tracer, calibrate=True)
    for ops in rounds:  # alternate, so both passes see the same host
        plain.run_round(ops)
        with traced(tracer):
            runner.run_round(ops)
    overhead = math.fsum(runner.scaled_latencies()) - math.fsum(plain.scaled_latencies())
    return runner, layer_metrics(tracer, runner, overhead), \
        {"rounds": n_rounds, "busy_s": runner.busy}, digest


def layer_metrics(tracer, runner: Runner, overhead: float) -> dict:
    from workloads import group_names

    metrics = {}
    for name in ("excitation.eigensolve", "excitation.amplitudes", "excitation.reduce",
                 "fidelity.fidelity_report", "fidelity.average_fidelity",
                 "fidelity.corrected_average_fidelity", "fidelity.bloch_average_quadrature",
                 "closed_forms.analytic_f", "chain.load_chain"):
        metrics[f"{name}_s"] = tracer.busy[name]
        metrics[f"{name}_calls"] = tracer.calls[name]
    solves = tracer.calls["optimize.solve"]
    metrics.update({
        "fidelity.fidelity_calls": tracer.calls["fidelity.fidelity"],
        "cli.self_s": tracer.self_time["cli"],
        "cli.bytes_written": runner.bytes_written,
        "full_space.model_build_s": tracer.busy["full_space.model_build"],
        "full_space.model_builds": tracer.calls["full_space.model_build"],
        "full_space.fidelity_s": tracer.busy["full_space.fidelity"],
        "full_space.fidelity_calls": tracer.calls["full_space.fidelity"],
        "optimize.self_s": tracer.self_time["optimize.solve"],
        "optimize.solves": solves,
        "optimize.evaluations_reported": tracer.evaluations_reported,
        "optimize.amplitudes_per_solve": tracer.solve_amplitudes / solves if solves else 0.0,
        "optimize.reported_over_true": (tracer.evaluations_reported / tracer.solve_amplitudes
                                        if tracer.solve_amplitudes else 0.0),
        "optimize.short_of_optimum": runner.short_of_optimum,
    })
    for names in group_names():
        metrics[f"verification.{names[0]}_s"] = tracer.busy[f"verification.{names[0]}"]
    metrics["verification.checks_failed"] = tracer.calls["verification.checks_failed"]
    metrics["trace.overhead_s"] = overhead
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "optimize.amplitudes_per_solve":
        return "calls/solve"
    if name == "optimize.reported_over_true":
        return "ratio"
    return "count"


def _run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        mode = _per_layer if args.trace else _end_to_end
        runner, metrics, info, digest = mode(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = len(runner.latencies), len(runner.failures)
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    info.update({"workload": workload.name, "trace": args.trace, "attempted": attempted,
                 "failed_share": failed / attempted, "env": environment(args.seed, digest)})
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, info_line, result_line = proc.stdout.splitlines()
        info, result = json.loads(info_line), json.loads(result_line)
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_share", info["failed_share"], "ratio"))
        if "op_tail_percentile" in info:
            rows.append((name, "op_tail_percentile", info["op_tail_percentile"], "%"))
        rows.append((name, "attempted", result["attempted"], "ops"))
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<44} {value:>14.6g} {unit}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    error = _import_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
