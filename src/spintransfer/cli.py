"""Command-line front end: simulate, optimize, preset, verify.

Output contracts:
  simulate  CSV with header t,re_f,im_f,abs_f,gamma,fbar,fbar_corr,delta,
            every value printed with 17 significant digits (round-trip safe).
  optimize  JSON of the OptimizationResult fields.
  preset    chain JSON in the external format.
  verify    one line per check plus an optional JSON report.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error (an
output path that cannot be opened for writing is a usage error).
Every command emits a run manifest (JSON) to stderr, or to the path given
with --manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from . import __version__, optimize, verification
from .chain import ChainSpecError, dumps_chain, loads_chain, preset
from .excitation import eigensolve, reduce, synthesize_f
from .fidelity import fidelity_report_blocks
from .optimize import SearchConfig

CSV_HEADER = "t,re_f,im_f,abs_f,gamma,fbar,fbar_corr,delta"
# "%.17g" % x is byte-identical to format(x, ".17g"); rows are formatted and
# written one fidelity_report_blocks block at a time.
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2


class _UsageError(Exception):
    """Bad input: reported on stderr, exit code 2."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_spec(args: argparse.Namespace) -> tuple[Any, str]:
    """Resolve --chain/--preset flags to (ChainSpec, input digest)."""
    if args.chain is not None:
        path = Path(args.chain)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise _UsageError(f"{path}: {exc.strerror or exc}") from exc
        try:
            spec = loads_chain(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
        except ChainSpecError as exc:
            raise _UsageError(f"{path}: {exc}") from exc
        return spec, _sha256(raw)
    if args.preset is None:
        raise _UsageError("one of --chain or --preset is required")
    try:
        spec = preset(args.preset, args.J, args.B)
    except ChainSpecError as exc:
        raise _UsageError(str(exc)) from exc
    return spec, _sha256(dumps_chain(spec).encode("utf-8"))


def _write_manifest(args: argparse.Namespace, digest: str | None, started: float) -> None:
    manifest = {
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "manifest")
        },
        "input_digest": digest,
        "version": __version__,
        "duration_s": time.perf_counter() - started,
    }
    text = json.dumps(manifest, default=str)
    if args.manifest is None:
        print(text, file=sys.stderr)
    else:
        with _output(args.manifest) as stream:
            stream.write(text + "\n")


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The file at `out`, or stdout; a path that cannot be opened is a usage error."""
    if out is None:
        yield sys.stdout
        return
    try:
        # newline="" keeps the contractual \n line endings on every platform
        stream = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _UsageError(f"{out}: {exc.strerror or exc}") from exc
    with stream:
        yield stream


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    spec, digest = _load_spec(args)
    if not 1 <= args.steps <= optimize._MAX_GRID_POINTS:  # checked before any row exists
        raise _UsageError(f"--steps must lie in [1, {optimize._MAX_GRID_POINTS}], got "
                          f"{args.steps}; split a longer sweep over t into several runs")
    if not (math.isfinite(args.t_max) and args.t_max >= 0):
        raise _UsageError(f"--t-max must be finite and nonnegative, got {args.t_max}")
    grid = np.linspace(0.0, args.t_max, args.steps)
    h = reduce(spec)
    f = synthesize_f(h, eigensolve(h), grid)
    # Every |f| is checked here, before anything is written.
    reports = fidelity_report_blocks(grid, f)
    with _output(args.out) as stream:
        stream.write(CSV_HEADER + "\n")
        for rep in reports:
            block = np.column_stack([rep.t, rep.f.real, rep.f.imag, rep.abs_f, rep.gamma,
                                     rep.fbar, rep.fbar_corrected, rep.gamma])
            stream.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))
    return _EXIT_OK, digest


def _cmd_optimize(args: argparse.Namespace) -> tuple[int, str]:
    spec, digest = _load_spec(args)
    try:  # a bad horizon, step count or field box, or a grid over the budget
        cfg = SearchConfig(t_max=args.t_max, n_samples=args.steps)
        if args.tune_field is not None:
            res = optimize.tune_uniform_field(spec, cfg, tuple(args.tune_field))
        else:
            res = optimize.maximize_fidelity(spec, cfg, corrected=args.corrected)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    with _output(args.out) as stream:
        stream.write(json.dumps(dataclasses.asdict(res), indent=2) + "\n")
    return _EXIT_OK, digest


def _cmd_preset(args: argparse.Namespace) -> tuple[int, str]:
    try:
        spec = preset(args.name, args.J, args.B)
    except ChainSpecError as exc:
        raise _UsageError(str(exc)) from exc
    text = dumps_chain(spec)
    with _output(args.out) as stream:
        stream.write(text)
    return _EXIT_OK, _sha256(text.encode("utf-8"))


def _cmd_verify(args: argparse.Namespace) -> tuple[int, None]:
    def stream(result: verification.CheckResult) -> None:
        status = "PASS" if result.passed else "FAIL"
        tol = "-" if result.tolerance is None else format(result.tolerance, ".1e")
        measured = "-" if result.measured is None else format(result.measured, ".3e")
        print(f"{status}  {result.name}  measured={measured}  tol={tol}")
        if result.detail and (args.verbose or not result.passed):
            print(f"      {result.detail}")

    results = verification.run_all(only=args.only, on_result=stream)
    if not results:
        raise _UsageError(f"no checks match {args.only!r}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out is not None:
        report = {"passed": not failed, "checks": [dataclasses.asdict(r) for r in results]}
        with _output(args.out) as out:
            out.write(json.dumps(report, indent=2) + "\n")
    return (_EXIT_CHECK_FAILED if failed else _EXIT_OK), None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3 as a number, not as an option.

    argparse takes an argument for a negative number only in the forms -5 and
    -.5; its subparsers are built from the same class.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_chain_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("chain source")
    group.add_argument("--chain", metavar="PATH", help="chain JSON file")
    group.add_argument("--preset", metavar="NAME",
                       help="built-in system name instead of a file")
    group.add_argument("--J", type=float, default=1.0, help="preset coupling (default 1)")
    group.add_argument("--B", type=float, default=0.0, help="preset field (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="spintransfer",
        description="Transfer amplitudes and fidelity optimization for XX spin chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sweep t and write a CSV of f and fidelities")
    _add_chain_source(p_sim)
    p_sim.add_argument("--t-max", type=float, required=True)
    p_sim.add_argument("--steps", type=int, default=1000, help="number of rows (default 1000)")
    p_sim.add_argument("--out", metavar="PATH", help="CSV path (default stdout)")
    p_sim.add_argument("--manifest", metavar="PATH", help="write the run manifest here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("optimize", help="maximize average fidelity over t (and B)")
    _add_chain_source(p_opt)
    p_opt.add_argument("--t-max", type=float, required=True)
    p_opt.add_argument("--steps", type=int, default=256,
                       help="coarse grid sample floor (default 256)")
    p_opt.add_argument("--corrected", action="store_true",
                       help="optimize the phase-corrected average fidelity")
    p_opt.add_argument("--tune-field", nargs=2, type=float, metavar=("LO", "HI"),
                       help="also tune a uniform field over [LO, HI]")
    p_opt.add_argument("--out", metavar="PATH", help="JSON path (default stdout)")
    p_opt.add_argument("--manifest", metavar="PATH")
    p_opt.set_defaults(func=_cmd_optimize)

    p_pre = sub.add_parser("preset", help="write a built-in chain as JSON")
    p_pre.add_argument("name", help="preset name")
    p_pre.add_argument("--J", type=float, required=True)
    p_pre.add_argument("--B", type=float, required=True)
    p_pre.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p_pre.add_argument("--manifest", metavar="PATH")
    p_pre.set_defaults(func=_cmd_preset)

    p_ver = sub.add_parser("verify", help="run the built-in check suite")
    p_ver.add_argument("--only", metavar="SUBSTR",
                       help="run only checks whose name contains SUBSTR")
    p_ver.add_argument("--verbose", action="store_true", help="print details for passes too")
    p_ver.add_argument("--out", metavar="PATH", help="JSON report path")
    p_ver.add_argument("--manifest", metavar="PATH")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        code, digest = args.func(args)  # a usage error writes no manifest
        _write_manifest(args, digest, started)
    except (_UsageError, ChainSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return code


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
