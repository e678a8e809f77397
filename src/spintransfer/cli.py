"""Command-line front end: simulate, optimize, preset, verify.

Output contracts:
  simulate  CSV with header t,re_f,im_f,abs_f,gamma,fbar,fbar_corr,delta,
            one row per time of linspace(0, t_max, steps), f there from the
            grid's block product (excitation._grid_f); every value printed
            with 17 significant digits (round-trip safe): the bytes of
            "%.17g", written by a vectorized formatter that falls back to "%"
            for any value it cannot certify.
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
import os
import re
import stat
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from . import __version__, optimize, verification
from .chain import ChainSpecError, _count, dumps_chain, loads_chain, preset
from .excitation import Spectrum, _grid_f, eigensolve, reduce
from .fidelity import _report_blocks
from .optimize import SearchConfig

CSV_HEADER = "t,re_f,im_f,abs_f,gamma,fbar,fbar_corr,delta"
# The header's columns from the seven formatted ones: delta repeats gamma's text.
_CSV_COLUMNS = [0, 1, 2, 3, 4, 5, 6, 4]

# The decades floor(log10|x|) of the finite nonzero doubles, one table row each.
_DECADES = range(-324, 309)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves
# The formatter's slot for one value: the sign in column 0, the prefix "0.000"
# of fixed notation below 1 in 1-5, the body in 6-38 (digit j in column 6 + 2j,
# the gap after it for the decimal point in 7 + 2j), the exponent suffix in
# 39-43 and the separator in 44.
_BODY = slice(6, 39)
_SUFFIX = 39
_SLOT = 45

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
            return loads_chain(raw), _sha256(raw)
        except OSError as exc:
            raise _UsageError(f"{path}: {exc.strerror or exc}") from exc
        except ChainSpecError as exc:
            raise _UsageError(f"{path}: {exc}") from exc
    if args.preset is None:
        raise _UsageError("one of --chain or --preset is required")
    spec = preset(args.preset, args.J, args.B)
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


def _open_in_place(path: str, flags: int) -> int:
    # Truncating a file that holds data on open (or renaming a new one over it)
    # makes ext4 flush it on close: 35-100 ms a write on a 2-core VM with ext4
    # mounted with discard, against 0.2 ms for writing over the old bytes.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The file at `out`, or stdout; a path that cannot be opened is a usage error.

    An existing regular file is written over in place and cut to what was
    written when the body ends, however it ends.
    """
    if out is None:
        yield sys.stdout
        return
    try:
        # newline="" keeps the contractual \n line endings on every platform
        stream = open(out, "w", encoding="utf-8", newline="", opener=_open_in_place)
    except OSError as exc:
        raise _UsageError(f"{out}: {exc.strerror or exc}") from exc
    with stream:
        try:
            yield stream
        finally:
            fd = stream.fileno()
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be truncated
                try:
                    stream.flush()
                finally:  # cut at what reached the file, even if the flush failed
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    spec, digest = _load_spec(args)
    _count(args.steps, "--steps", 1, optimize._MAX_GRID_POINTS, _UsageError)  # before any row
    if not (math.isfinite(args.t_max) and args.t_max >= 0):
        raise _UsageError(f"--t-max must be finite and nonnegative, got {args.t_max}")
    h = reduce(spec)
    # _grid_f refuses a non-finite f, _report_blocks an |f| out of range: before any row
    grid, f = _grid_f(Spectrum.of(h, eigensolve(h)), [(0.0, args.t_max, args.steps - 1)])
    reports = _report_blocks(grid, f)
    with _output(args.out) as stream:
        stream.write(CSV_HEADER + "\n")
        for rep in reports:
            block = np.column_stack([rep.t, rep.f.real, rep.f.imag, rep.abs_f, rep.gamma,
                                     rep.fbar, rep.fbar_corrected])
            stream.write(_csv_rows(block, _CSV_COLUMNS))
    return _EXIT_OK, digest


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The read-only lookup tables of _slots, built on first use (about 3 ms).

    Row i describes the decade e = _DECADES[i]; the last row describes zero,
    whose D = 0 prints as its digit 0.
      scale         b such that T = 10^(16-e) 2^-b lies in [1, 2)
      t_hh, t_hl    the Veltkamp halves of a double t next to T
      t_lo          T - t rounded, so t + t_lo is T to 2^-105
      template      the slot without sign and digits: the prefix of fixed
                    notation below 1, the decimal point in the gap after digit
                    `point`, the exponent suffix and a ',' separator
      point         the digit the decimal point follows, -1 for none
    """
    scale, t, t_lo, suffix = [], [], [], []
    for e in _DECADES:
        k = 16 - e
        if k >= 0:
            b = (10**k).bit_length() - 1
            q = (10**k << 105) >> b  # floor(T 2^105), from Python integers
        else:
            b = -(10**-k).bit_length()
            q = (1 << (105 - b)) // 10**-k
        scale.append(b)
        t.append(q / 2.0**105)
        t_lo.append((q - int(t[-1] * 2.0**105)) / 2.0**105)
        suffix.append(b"" if -4 <= e <= 16 else b"e%+03d" % e)
    scale.append(0)
    t.append(0.0)
    t_lo.append(0.0)
    suffix.append(b"")
    e = np.append(_DECADES, 0)
    point = np.where((0 <= e) & (e <= 16), e, np.where((-4 <= e) & (e < 0), -1, 0))
    point[-1] = -1
    template = np.zeros((len(e), _SLOT), np.uint8)
    template[:, _SUFFIX:_SUFFIX + 5] = np.frombuffer(
        b"".join(x.ljust(5, b"\0") for x in suffix), np.uint8).reshape(-1, 5)
    for shift in range(1, 5):  # the prefixes 0. to 0.000
        template[e == -shift, 1:2 + shift] = np.frombuffer(b"0." + b"0" * (shift - 1), np.uint8)
    dotted = np.flatnonzero((point >= 0) & (point < 16))  # digit 16 has no gap after it
    template[dotted, _BODY.start + 2 * point[dotted] + 1] = ord(".")
    template[:, -1] = ord(",")
    t = np.array(t)
    c = t * _SPLIT
    t_hh = c - (c - t)
    tables = (np.array(scale, np.int32), t_hh, t - t_hh, np.array(t_lo), template,
              point.astype(np.int32))
    for table in tables:
        table.setflags(write=False)
    return tables


def _decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table row, D, certified) for every value v of x; steps 1-3 of _slots.

    D = round(|v| 10^(16-e)), the 17 significant digits of v, is 0 for zero
    and meaningless for an uncertified value.
    """
    scale, t_hh, t_hl, t_lo, *_ = _format_tables()
    finite = np.isfinite(x)
    zero = x == 0.0
    ax = np.where(finite & ~zero, np.abs(x), 1.0)
    row = np.floor(np.log10(ax)).astype(np.int32) - _DECADES[0]
    row[zero] = len(scale) - 1
    y = np.ldexp(ax, scale[row])
    c = y * _SPLIT
    y_hh = c - (c - y)
    y_hl = y - y_hh
    hh, hl = t_hh[row], t_hl[row]
    p = y * (hh + hl)
    # Dekker's sum, left to right: y (hh + hl) - p exactly, then y t_lo
    lo = (y_hh * hh - p) + y_hh * hl + y_hl * hh + y_hl * hl + y * t_lo[row]
    s = p + lo
    certified = zero | finite & (np.abs(lo - np.floor(lo) - 0.5) > 1e-6) & (
        s >= 1e16 + 16) & (s <= 1e17 - 16)
    # p is an integer (>= 2^53, or 0 for zero) wherever D is certified, and
    # every D lies in [0, 10^18), so its split at 10^9 fits in uint32
    d = p.astype(np.int64) + np.floor(lo + 0.5).astype(np.int64)
    return row, d, certified


def _slots(x: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % v for every value v of x.

    Returns a (len(x), _SLOT) uint8 array, one slot per value: its text padded
    with NUL bytes, then the separator ','.  Five vectorized steps:
      1. The decade e = floor(log10|v|), from np.log10.
      2. P = |v| 10^(16-e) as a double-double p + lo: y = |v| 2^b is exact,
         T = 10^(16-e) 2^-b is tabled as t + t_lo, and Dekker's two-product
         of Veltkamp halves gives y t exactly (numpy has no fma).
      3. D = round(P), 17 digits: split at 10^9, then uint32 divmod by 10.
      4. The decade's template, filled with the digits up to the last nonzero
         one or up to the decimal point, whichever is later, and a '-' for a
         set sign bit, which covers -0; the point goes if no digit follows.
      5. (_csv_rows) The NUL padding is deleted.
    Error budget: rounding y t_lo and the sum lo, and the error of t + t_lo,
    leave |P - (p + lo)| below about 1e17 2^-103 = 1e-14, far inside the
    window below.  A value is certified when it is zero, or finite with
    |frac(P) - 1/2| > 1e-6, so dtoa's round-half-even is never needed, and
    1e16 + 16 <= p + lo <= 1e17 - 16, so log10 found the decade and D has 17
    digits.  The slot of any other value gets the text of "%" itself, which
    is at most 24 bytes and so fits before the separator.
    """
    *_, template, point = _format_tables()
    row, d, certified = _decimals(x)
    pair = np.empty((2, len(x)), np.uint32)
    pair[0], pair[1] = np.divmod(d, 10**9)
    digits = np.empty((2, 9, len(x)), np.uint8)
    for i in range(8, -1, -1):
        q = pair // 10
        digits[:, i] = pair - q * 10
        pair = q
    digits = digits.reshape(18, -1)[1:]  # digit j of D in row j
    j = np.arange(17, dtype=np.uint8)[:, None]
    last = np.max((digits != 0) * j, axis=0)
    dot = point[row]
    digits += ord("0")
    digits *= j <= np.maximum(last, dot)
    out = np.take(template, row, axis=0)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, _BODY][:, ::2] = digits.T
    # no digit after the point: drop it (point 16 addresses the empty suffix)
    whole = np.flatnonzero(last <= dot)
    out[whole, _BODY.start + 2 * dot[whole] + 1] = 0
    for i in np.flatnonzero(~certified):
        out[i, :-1] = np.frombuffer((b"%.17g" % x[i]).ljust(_SLOT - 1, b"\0"), np.uint8)
    return out


def _csv_rows(block: np.ndarray, columns: list[int] | None = None) -> str:
    """The values of `block` as "%.17g" text: ',' between them, '\\n' after each row.

    columns, if given, picks the block's columns in output order; a column it
    repeats is formatted once.
    """
    slots = _slots(block.ravel()).reshape(*block.shape, _SLOT)
    if columns is not None:
        slots = np.take(slots, columns, axis=1)  # C-ordered, unlike slots[:, columns]
    rows = slots.reshape(len(block), -1)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_optimize(args: argparse.Namespace) -> tuple[int, str]:
    spec, digest = _load_spec(args)
    # rounding alone may give --steps samples one more step: a grid of --steps + 2 points
    _count(args.steps, "--steps", 16, optimize._MAX_GRID_POINTS - 2, _UsageError)
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
    text = dumps_chain(preset(args.name, args.J, args.B))
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
    mode = p_opt.add_mutually_exclusive_group()  # tuning aligns the phase: --corrected is moot
    mode.add_argument("--corrected", action="store_true",
                      help="optimize the phase-corrected average fidelity")
    mode.add_argument("--tune-field", nargs=2, type=float, metavar=("LO", "HI"),
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
