"""The three benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed in ``setup()`` and then runs
numbered passes; a pass is the unit a user waits for (one ``run_experiment``,
or one sweep over freshly drawn triplets) and returns a ``PassOutcome``.
Calls go through the perpetua module attributes (``runner.run_experiment``,
not a name imported here) so the traced run sees them.

* ``verify_bm``: the README's ``verify`` on configs/bm_drift_exp_decay.json
  at two harness threads.  Gaussian paths only; the occupation field is the
  hotspot and the harness thread pool is in use.
* ``verify_cp``: single-thread ``verify`` on perfbench/configs/verify_cp.json,
  the frozen ``drift_cp`` triplet with the zero_one, overshoot and lln checks.
  First passage dominates, the jump branch of StepEngine.draw runs, and no
  occupation field is computed.
* ``verdict_sweep``: analytic work only.  Each pass draws one fresh triplet
  from each of the five benchmark families and the two negative controls,
  pairs it with the four benchmark functions, and runs ``perpetual_verdict``
  on every case and ``expectation_upper_bound`` on every AS_FINITE case.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perpetua import analysis, benchmarks, config, runner, stats
from perpetua.errors import InversionUnstable
from perpetua.jumps import ExponentialJump
from perpetua.measures import CompoundPoisson, StableLike
from perpetua.triplet import LevyTriplet

__all__ = ["PassOutcome", "VerifyWorkload", "SweepWorkload", "FAMILIES", "make_workload"]

HERE = Path(__file__).resolve().parent
KS_GATE_ALPHA = 1e-4


@dataclass
class PassOutcome:
    attempted: int
    failed: int
    problems: list[str]
    digest: str  # sha256 of the pass's deterministic output
    alarms: list[str] = field(default_factory=list)  # KS failures inside the benchmark's gate
    samples: dict[str, list[float]] = field(default_factory=dict)  # per-case latencies
    counters: dict[str, int] = field(default_factory=dict)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class VerifyWorkload:
    """run_experiment on one config with the seed as master seed."""

    def __init__(self, root: Path, config_path: Path, threads: int, seed: int,
                 expected_checks: tuple[str, ...]):
        self.root = root
        self.config_path = config_path
        self.threads = threads
        self.seed = seed
        self.expected_checks = expected_checks
        self.config = None

    def ks_gate(self, check: str) -> float | None:
        """Gate for the two KS checks: the critical value at KS_GATE_ALPHA.

        At the suite's own alpha = 0.01 these checks flag a correct sampler on
        a few percent of master seeds (invariance on verify_bm: seeds 4, 9
        and 34 of 0-59), so a benchmark that sweeps seeds reports such a
        failure as an alarm and fails only beyond the 1e-4 critical value.
        """
        if check not in ("overshoot", "invariance"):
            return None
        n = int(self.config.check_params[check]["n"])
        crit = stats.ks_critical(n, n, KS_GATE_ALPHA)
        return max(0.05, crit) if check == "invariance" else crit

    def setup(self) -> None:
        cfg = config.load_config(self.config_path)
        self.config = dataclasses.replace(cfg, master_seed=self.seed)

    def run_pass(self, index: int) -> PassOutcome:
        scratch = self.root / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            report, exit_code = runner.run_experiment(self.config, out_dir=tmp,
                                                      threads=self.threads)
            out = Path(tmp)
            digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
            written = sum(p.stat().st_size for p in out.iterdir())
        entries = {entry["check"]: entry for entry in report["checks"]}
        problems, alarms = [], []
        for name in self.expected_checks:
            entry = entries.get(name)
            if entry is None:
                problems.append(f"{name}: not run")
                continue
            stat = entry["statistic"]
            line = (f"{name}: passed={entry['passed']} statistic={stat} "
                    f"threshold={entry['threshold']} {entry['notes']}")
            if not _finite(stat):
                problems.append(line)
            elif not entry["passed"]:
                gate = self.ks_gate(name)
                (alarms if gate is not None and stat <= gate else problems).append(line)
        if not problems and not alarms and (exit_code != 0 or not report["meets_expectations"]):
            problems.append(f"suite: exit code {exit_code}")
        return PassOutcome(
            attempted=len(self.expected_checks),
            failed=len(problems),
            problems=problems,
            digest=digest,
            alarms=alarms,
            counters={"bytes_written": written, "stat_alarms": len(alarms)},
        )


# ---------------------------------------------------------------------------
# verdict sweep

# Parameter boxes, fixed from each family's validity: the five benchmark
# families keep local times and a mean in (0, inf) everywhere in their box
# (drift_cp: drift > 0 between upward jumps; sn_bm_cp: drift - rate/theta >=
# 0.25); cp_only stays compound Poisson; stable_half keeps alpha at least
# 0.1 below the criterion's undecided band around 1.  Each frozen triplet of
# benchmarks.py lies inside its box.
FAMILIES = {
    "pure_drift": {"drift": (0.5, 2.0)},
    "bm_drift": {"drift": (0.5, 2.0), "gaussian": (0.5, 2.0)},
    "drift_cp": {"drift": (0.05, 0.5), "rate": (0.5, 2.0), "theta": (1.5, 4.0)},
    "stable_drift": {"drift": (0.5, 2.0), "alpha": (1.2, 1.8), "scale": (0.5, 1.5)},
    "sn_bm_cp": {"drift": (1.0, 2.0), "gaussian": (0.5, 2.0), "rate": (0.5, 1.5),
                 "theta": (2.0, 4.0)},
    "cp_only": {"rate": (0.5, 2.0), "theta": (0.5, 2.0)},
    "stable_half": {"alpha": (0.3, 0.9), "scale": (0.5, 1.5)},
}

CONTROL_REASONS = {
    "cp_only": analysis.REASON_IS_COMPOUND_POISSON,
    "stable_half": analysis.REASON_NO_LOCAL_TIMES,
}

# expectation_upper_bound refuses (InversionUnstable, error estimate above 5%
# of the u scale) for stable_drift with alpha below about 1.45 at this
# version of the package.  The refusal is a named outcome, counted as
# bound_refused on every pass; anywhere else it is a failure.
STABLE_REFUSAL_ALPHA = 1.5


def build_triplet(family: str, p: dict) -> LevyTriplet:
    if family == "pure_drift":
        return LevyTriplet(p["drift"])
    if family == "bm_drift":
        return LevyTriplet(p["drift"], p["gaussian"])
    if family == "drift_cp":
        return LevyTriplet(p["drift"], 0.0, CompoundPoisson(p["rate"], ExponentialJump(p["theta"], 1)))
    if family == "stable_drift":
        return LevyTriplet(p["drift"], 0.0, StableLike(p["alpha"], p["scale"], 0.0))
    if family == "sn_bm_cp":
        return LevyTriplet(p["drift"], p["gaussian"],
                           CompoundPoisson(p["rate"], ExponentialJump(p["theta"], -1)))
    if family == "cp_only":
        return LevyTriplet(0.0, 0.0, CompoundPoisson(p["rate"], ExponentialJump(p["theta"], 1)))
    if family == "stable_half":
        return LevyTriplet(0.0, 0.0, StableLike(p["alpha"], p["scale"], 0.0))
    raise KeyError(family)


@dataclass(frozen=True)
class SweepTriplet:
    family: str
    params: dict
    triplet: LevyTriplet


# Pass k takes point k of a Kronecker sequence frac(shift + k * g) in each
# family's box, with the shift drawn from the seed.  Any run of consecutive
# passes then covers every box evenly, so the cost of a run depends far less
# on where the draws happened to land than with independent uniform draws.
_KRONECKER = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7))


def draw_triplets(seed: int, index: int) -> list[SweepTriplet]:
    """One triplet per family for pass `index`, low-discrepancy in the family's box."""
    rng = np.random.default_rng(seed)
    out = []
    for family, box in FAMILIES.items():
        shift = rng.random(len(box))
        params = {
            key: lo + (hi - lo) * ((shift[j] + index * _KRONECKER[j]) % 1.0)
            for j, (key, (lo, hi)) in enumerate(box.items())
        }
        out.append(SweepTriplet(family, params, build_triplet(family, params)))
    return out


class SweepWorkload:
    def __init__(self, seed: int):
        self.seed = seed
        self.functions = benchmarks.benchmark_functions()
        self.passes: dict[int, list[SweepTriplet]] = {}
        self.seen: set[str] = set()

    def setup(self) -> None:
        self.triplets(0)

    def triplets(self, index: int) -> list[SweepTriplet]:
        if index not in self.passes:
            drawn = draw_triplets(self.seed, index)
            for t in drawn:
                key = t.triplet.to_json()
                if key in self.seen:
                    raise RuntimeError(f"triplet repeats within the sweep: {key}")
                self.seen.add(key)
            self.passes[index] = drawn
        return self.passes[index]

    def run_pass(self, index: int) -> PassOutcome:
        verdict_s, bound_s, problems, results = [], [], [], []
        attempted = failed = refused = 0
        for t in self.triplets(index):
            for fname, f, expected in self.functions:
                case = f"{t.family}{t.params}/{fname}"
                attempted += 1
                t0 = time.perf_counter()
                report = analysis.perpetual_verdict(t.triplet, f)
                verdict_s.append(time.perf_counter() - t0)
                reason = report.precondition_record.failing
                want = CONTROL_REASONS.get(t.family)
                want_verdict = analysis.Verdict.UNDECIDED if want else expected
                results.append([t.family, fname, report.verdict.value, reason])
                if report.verdict is not want_verdict or reason != want:
                    failed += 1
                    problems.append(f"{case}: verdict {report.verdict.value} ({reason}), "
                                    f"expected {want_verdict.value} ({want})")
                if report.verdict is not analysis.Verdict.AS_FINITE:
                    continue

                attempted += 1
                t0 = time.perf_counter()
                try:
                    bound = analysis.expectation_upper_bound(t.triplet, f)
                except InversionUnstable as exc:
                    bound_s.append(time.perf_counter() - t0)
                    results.append([t.family, fname, "refused"])
                    if t.family == "stable_drift" and t.params["alpha"] < STABLE_REFUSAL_ALPHA:
                        refused += 1
                    else:
                        failed += 1
                        problems.append(f"{case}: bound refused: {exc}")
                    continue
                bound_s.append(time.perf_counter() - t0)
                results.append([t.family, fname, repr(bound)])
                finite_integral = math.isfinite(f.integral_full())
                ok = (math.isfinite(bound) and bound > 0.0) if finite_integral else bound == math.inf
                if not ok:
                    failed += 1
                    problems.append(f"{case}: bound {bound!r} (integral_full "
                                    f"{f.integral_full()!r})")
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        return PassOutcome(
            attempted=attempted,
            failed=failed,
            problems=problems,
            digest=digest,
            samples={"verdict_s": verdict_s, "bound_s": bound_s},
            counters={"bound_refused": refused, "triplets": len(self.triplets(index))},
        )


def make_workload(name: str, root: Path, seed: int, threads: int):
    if name == "verify_bm":
        return VerifyWorkload(root, root / "configs" / "bm_drift_exp_decay.json", threads, seed,
                              ("zero_one", "occupation", "overshoot", "invariance", "lln"))
    if name == "verify_cp":
        return VerifyWorkload(root, HERE / "configs" / "verify_cp.json", threads, seed,
                              ("zero_one", "overshoot", "lln"))
    if name == "verdict_sweep":
        return SweepWorkload(seed)
    raise KeyError(name)
