"""Seeded workloads of the spintransfer benchmark and their reference checks.

A workload is a list of rounds; a round is a fixed mix of operations whose
sizes are stratified, so every round of every seed costs about the same and
the run-to-run spread stays small.  The seed sets the chains, couplings,
fields, horizons and field boxes inside each stratum.

Every check is independent of the code under test: amplitudes come from
`numpy.linalg.eigh` on the excitation block or from `closed_forms.analytic_f`,
both evaluated outside the timed region.  A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spintransfer import verification
from spintransfer.chain import ChainSpec, SiteSpec, dumps_chain, engineered_chain
from spintransfer.cli import CSV_HEADER
from spintransfer.closed_forms import PresetSystem, analytic_f
from spintransfer.excitation import reduce

TOL = 1e-9          # agreement of every reported value with its reference
TUNE_GAP = 1e-6     # a tuned Fbar further below the sampled optimum is counted short


# ---------------------------------------------------------------- references

def synthesize_f(spec: ChainSpec, t: np.ndarray) -> np.ndarray:
    """End-to-end amplitude f(t) from numpy's eigh of reduce(spec).matrix()."""
    h = reduce(spec)
    eps, vec = np.linalg.eigh(h.matrix())
    weights = vec[0] * vec[-1]
    t = np.asarray(t, dtype=float)
    out = np.empty(t.size, dtype=complex)
    for lo in range(0, t.size, 4096):  # blocks keep the benchmark's own memory small
        block = t[lo:lo + 4096]
        out[lo:lo + 4096] = np.exp(-1j * np.outer(block, eps)) @ weights
    return np.exp(1j * h.vacuum_energy * t) * out


def fbar(f):
    return 0.5 + np.real(f) / 3.0 + np.abs(f) ** 2 / 6.0


def fbar_corrected(f):
    return 0.5 + np.abs(f) / 3.0 + np.abs(f) ** 2 / 6.0


def level_spread(spec: ChainSpec) -> float:
    """Width of the zero-plus-one-excitation spectrum, vacuum included."""
    h = reduce(spec)
    eps = np.linalg.eigvalsh(h.matrix())
    return float(max(eps[-1], h.vacuum_energy) - min(eps[0], h.vacuum_energy))


def dense_grid(spec: ChainSpec, t_max: float) -> np.ndarray:
    """Samples four times denser than the optimizer's own coarse grid."""
    n = int(math.ceil(40.0 * t_max * level_spread(spec) / math.pi)) + 1
    return np.linspace(0.0, t_max, max(n, 1024))


def _phase_error(abs_f: np.ndarray, angle: np.ndarray, ref: np.ndarray) -> float:
    """Largest |f| * |angle - arg f|, so phases of vanishing amplitudes do not count."""
    diff = np.angle(np.exp(1j * (angle - np.angle(ref))))
    return float(np.max(abs_f * np.abs(diff)))


# ---------------------------------------------------------------- operations

def _num(x: float) -> str:
    """A CLI argument that parses back to the same float."""
    return repr(float(x))


@dataclass(frozen=True)
class SimulateOp:
    """`spintransfer simulate` on a chain file; rows checked against eigh synthesis."""

    spec: ChainSpec
    t_max: float
    steps: int
    bare_lam: float | None  # coupling scale of a bare engineered chain, else None
    chain_file: str

    def argv(self, workdir: Path) -> list[str]:
        return ["simulate", "--chain", str(workdir / self.chain_file),
                "--t-max", _num(self.t_max), "--steps", str(self.steps)]

    def check(self, out: Path) -> str | None:
        text = out.read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        if header != CSV_HEADER:
            return f"CSV header {header!r}"
        rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        if rows.shape != (self.steps, 8):
            return f"CSV shape {rows.shape}"
        t, re_f, im_f, abs_f, gamma, fb, fbc, delta = rows.T
        if np.max(np.abs(t - np.linspace(0.0, self.t_max, self.steps))) > TOL:
            return "time column"
        ref = synthesize_f(self.spec, t)
        errors = {
            "re_f": np.max(np.abs(re_f - ref.real)),
            "im_f": np.max(np.abs(im_f - ref.imag)),
            "abs_f": np.max(np.abs(abs_f - np.abs(ref))),
            "fbar": np.max(np.abs(fb - fbar(ref))),
            "fbar_corr": np.max(np.abs(fbc - fbar_corrected(ref))),
            "gamma": _phase_error(abs_f, gamma, ref),
            "delta": _phase_error(abs_f, delta, ref),
        }
        if self.bare_lam is not None:
            exact = np.abs(np.sin(self.bare_lam * t / 2.0)) ** (self.spec.n_sites - 1)
            errors["abs_f vs |sin|^(N-1)"] = np.max(np.abs(abs_f - exact))
        worst = max(errors, key=errors.get)
        if not errors[worst] <= TOL:
            return f"{worst} off by {errors[worst]:.3e}"
        return None


@dataclass(frozen=True)
class OptimizeOp:
    """`spintransfer optimize` (plain or --corrected) on a preset or a chain file."""

    spec: ChainSpec
    t_max: float
    corrected: bool
    system: PresetSystem | None  # preset with a closed form, else None
    chain_file: str | None

    def argv(self, workdir: Path) -> list[str]:
        if self.system is not None:
            source = ["--preset", self.system.name, "--J", _num(self.system.J),
                      "--B", _num(self.system.B)]
        else:
            source = ["--chain", str(workdir / self.chain_file)]
        flags = ["--corrected"] if self.corrected else []
        return ["optimize", *source, "--t-max", _num(self.t_max), *flags]

    def reference_f(self, t: float) -> complex:
        if self.system is not None:
            return analytic_f(self.system, t)
        return complex(synthesize_f(self.spec, np.array([t]))[0])

    def check(self, out: Path) -> str | None:
        res = json.loads(out.read_text(encoding="utf-8"))
        best_t = res["best_t"]
        if not 0.0 <= best_t <= self.t_max:
            return f"best_t={best_t} outside [0, {self.t_max}]"
        f = self.reference_f(best_t)
        errors = {
            "fbar": abs(res["fbar"] - fbar(f)),
            "fbar_corrected": abs(res["fbar_corrected"] - fbar_corrected(f)),
            "abs_f": abs(res["abs_f"] - abs(f)),
        }
        worst = max(errors, key=errors.get)
        if not errors[worst] <= TOL:
            return f"{worst} at best_t off by {errors[worst]:.3e}"
        objective = fbar_corrected if self.corrected else fbar
        found = res["fbar_corrected"] if self.corrected else res["fbar"]
        sampled = float(np.max(objective(synthesize_f(self.spec, dense_grid(self.spec, self.t_max)))))
        if sampled > found + TOL:
            return f"dense sample reaches {sampled!r} above reported {found!r}"
        return None


@dataclass(frozen=True)
class TuneFieldOp:
    """`spintransfer optimize --tune-field LO HI` on a preset."""

    system: PresetSystem
    t_max: float
    box: tuple[float, float]
    sampled_optimum: float  # largest corrected Fbar on a dense sample of [0, t_max]

    def argv(self, workdir: Path) -> list[str]:
        return ["optimize", "--preset", self.system.name, "--J", _num(self.system.J),
                "--B", _num(self.system.B), "--t-max", _num(self.t_max),
                "--tune-field", _num(self.box[0]), _num(self.box[1])]

    def check(self, out: Path) -> str | None:
        res = json.loads(out.read_text(encoding="utf-8"))
        best_t, best_b = res["best_t"], res["best_field"]
        if not 0.0 <= best_t <= self.t_max:
            return f"best_t={best_t} outside [0, {self.t_max}]"
        if not self.box[0] <= best_b <= self.box[1]:
            return f"best_field={best_b} outside {self.box}"
        base = self.system.chain()
        tuned = with_fields(base, [best_b] * base.n_sites)
        f = complex(synthesize_f(tuned, np.array([best_t]))[0])
        errors = {
            "fbar": abs(res["fbar"] - fbar(f)),
            "fbar_corrected": abs(res["fbar_corrected"] - fbar_corrected(f)),
            "abs_f": abs(res["abs_f"] - abs(f)),
        }
        worst = max(errors, key=errors.get)
        if not errors[worst] <= TOL:
            return f"{worst} at (best_t, best_field) off by {errors[worst]:.3e}"
        # A uniform field rotates the phase of f and leaves |f| alone.
        bound = fbar_corrected(analytic_f(self.system, best_t))
        if res["fbar"] > bound + TOL:
            return f"fbar {res['fbar']!r} above the corrected bound {bound!r}"
        return None

    def shortfall(self, out: Path) -> float:
        """How far the tuned Fbar falls below the sampled corrected optimum."""
        return self.sampled_optimum - json.loads(out.read_text(encoding="utf-8"))["fbar"]


# ---------------------------------------------------------------- generators

def with_fields(spec: ChainSpec, fields) -> ChainSpec:
    """spec with fields[i] added to the field of site i."""
    return ChainSpec(tuple(SiteSpec(site.spin, site.field + float(b))
                           for site, b in zip(spec.sites, fields)), spec.couplings)


def _sweep_chain(rng: np.random.Generator, n: int, kind: str, lam: float) -> ChainSpec:
    if kind == "bare":
        return engineered_chain(n, lam)
    if kind == "spin-one":
        return engineered_chain(n, lam, spin_one_site=int(rng.integers(1, n + 1)))
    return with_fields(engineered_chain(n, lam), rng.normal(0.0, 0.2 * lam, n))


_SWEEP_KINDS = ("bare", "spin-one", "fields")
# (N lower, N upper, rows): three large chains, where one eigensolve dominates
# and which make the tail, and five small ones, where per-row synthesis and CSV
# output dominate and which make the median.
_SWEEP_STRATA = ((200, 204, 1000), (5, 9, 10_000), (9, 13, 10_000), (204, 208, 1000),
                 (13, 17, 10_000), (17, 21, 10_000), (208, 212, 1000), (21, 26, 10_000))


def sweep_round(rng: np.random.Generator, r: int) -> list[SimulateOp]:
    ops = []
    for i, (n_lo, n_hi, rows) in enumerate(_SWEEP_STRATA):
        n = int(rng.integers(n_lo, n_hi))
        kind = _SWEEP_KINDS[(len(_SWEEP_STRATA) * r + i) % len(_SWEEP_KINDS)]
        lam = float(rng.uniform(0.5, 1.5))
        spec = _sweep_chain(rng, n, kind, lam)
        t_max = float(rng.uniform(1.0, 3.0) * math.pi / lam)
        ops.append(SimulateOp(spec, t_max, rows, lam if kind == "bare" else None,
                              f"sweep-{r}-{i}.json"))
    return ops


_PRESETS = ("sec2-two-spin", "sec2-three-spin-center", "sec3-two-spin",
            "sec3-three-spin-center", "sec4-three-spin-center")


def optimize_round(rng: np.random.Generator, r: int) -> list[OptimizeOp]:
    """Ten preset solves with horizons stratified over 10-200 periods of the
    fastest oscillation, 2 pi / level spread, which fixes the optimizer's grid
    at 20 points a period; then four engineered chains with a spin-1 site at
    t_max ~ 60 pi."""
    ops = []
    strata = rng.permutation(10)
    for i, (name, corrected) in enumerate((p, c) for p in _PRESETS for c in (False, True)):
        j = float(rng.uniform(0.5, 2.0))
        system = PresetSystem(name, j, float(j * rng.uniform(0.2, 1.5)))
        periods = 10.0 * 20.0 ** ((strata[i] + rng.uniform()) / 10.0)
        t_max = periods * 2.0 * math.pi / level_spread(system.chain())
        ops.append(OptimizeOp(system.chain(), t_max, corrected, system, None))
    for i, n_lo in enumerate((5, 9, 13, 17)):
        n = int(rng.integers(n_lo, n_lo + 4))
        spec = engineered_chain(n, float(rng.uniform(0.8, 1.2)),
                                spin_one_site=int(rng.integers(2, n)))
        ops.append(OptimizeOp(spec, float(60.0 * math.pi * rng.uniform(0.95, 1.05)),
                              bool(i % 2), None, f"optimize-{r}-{i}.json"))
    return ops


_TUNE_PRESETS = ("sec2-two-spin", "sec2-three-spin-center", "sec3-two-spin",
                 "sec3-three-spin-center")


# In version 0.1.0 tune_uniform_field stops at the box edge b = 3.116 here,
# 2e-4 below the corrected optimum, which b = 0.633 reaches inside the box.
_EDGE_CASE = (PresetSystem("sec2-two-spin", 0.895557603128256, 0.0), 4.455717774085757,
              (-0.29725379021842846, 3.1160026099689166))


def _tune_op(system: PresetSystem, t_max: float, box: tuple[float, float]) -> TuneFieldOp:
    grid = dense_grid(system.chain(), t_max)
    return TuneFieldOp(system, t_max, box,
                       float(np.max(fbar_corrected(synthesize_f(system.chain(), grid)))))


def tune_round(rng: np.random.Generator, r: int) -> list[TuneFieldOp]:
    """Every spin- and field-impurity preset at every horizon stratum of 3-20,
    with a field box wide enough to align the phase at the best corrected time.
    The first round also holds _EDGE_CASE."""
    ops = [_tune_op(*_EDGE_CASE)] if r == 0 else []
    n_strata = len(_TUNE_PRESETS)
    for name in _TUNE_PRESETS:
        for stratum in range(n_strata):
            j = float(rng.uniform(0.7, 1.3))
            b = float(j * rng.uniform(0.3, 1.2)) if name.startswith("sec3") else 0.0
            system = PresetSystem(name, j, b)
            t_max = 3.0 * (20.0 / 3.0) ** ((stratum + rng.uniform()) / n_strata)
            grid = dense_grid(system.chain(), t_max)
            t_best = grid[np.argmax(fbar_corrected(synthesize_f(system.chain(), grid)))]
            width = 2.0 * math.pi / max(t_best, 1e-3) * rng.uniform(1.1, 1.4)
            lo = float(rng.uniform(-0.5, 0.5))
            ops.append(_tune_op(system, t_max, (lo, lo + width)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator, int], list] | None  # None: verify
    salt: int           # keeps the workloads' random streams apart
    nominal_round_s: float  # one round of version 0.1.0 on a 2-core x86-64 box
    seeded: bool = True  # False: inputs come from a fixed internal seed

    def rounds(self, seconds: float) -> int:
        """Rounds in a run of about `seconds` with version 0.1.0."""
        return max(1, math.ceil(seconds / self.nominal_round_s))


WORKLOADS = {
    "sweep": Workload("sweep", sweep_round, 1, 3.5),
    "optimize": Workload("optimize", optimize_round, 2, 1.5),
    # In version 0.1.0 a tune-field solve costs 0.1-2.1 s depending on whether
    # its coordinate descent stops before the 100-sweep cap, which no input
    # property predicts.  Fresh inputs per seed would make the spread of a
    # 20 s run exceed every allowed bound, so this workload uses one fixed set.
    "tune-field": Workload("tune-field", tune_round, 3, 11.0, seeded=False),
    "verify": Workload("verify", None, 4, 3.6),
}


def generate(workload: Workload, seed: int, n_rounds: int, workdir: Path):
    """Operations for n_rounds rounds; chain files go to workdir.

    Returns (rounds, sha256 digest of every input the program will see).
    """
    digest = hashlib.sha256(workload.name.encode())
    if workload.make_round is None:  # verify: fixed internal seeds, no inputs
        digest.update(" ".join(verification.CHECK_NAMES).encode())
        return [None] * n_rounds, digest.hexdigest()
    rng = np.random.default_rng([workload.salt, seed if workload.seeded else 0])
    rounds = []
    for r in range(n_rounds):
        ops = workload.make_round(rng, r)
        for op in ops:
            chain_file = getattr(op, "chain_file", None)
            if chain_file is not None:
                text = dumps_chain(op.spec)
                (workdir / chain_file).write_text(text, encoding="utf-8")
                digest.update(text.encode())
            digest.update(" ".join(op.argv(Path("."))).encode())
        rounds.append(ops)
    return rounds, digest.hexdigest()


def group_names() -> list[tuple[str, ...]]:
    """Check names of every registered verify group, in run order.

    run_all reports results without saying where a group ends, so the group
    structure is read from the registry.
    """
    return [names for names, _ in verification._REGISTRY]
