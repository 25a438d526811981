"""Fixed benchmark matrix with expected classifications.

Five representative processes against four integrand families, plus two
negative controls that must come back UNDECIDED for the right named reason.
The matrix is frozen: the tests and the benchmark's verdict sweep read it
from here, so a change in expectations is a deliberate, reviewable edit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (
    REASON_IS_COMPOUND_POISSON,
    REASON_NO_LOCAL_TIMES,
    Verdict,
)
from .jumps import ExponentialJump
from .measures import CompoundPoisson, StableLike
from .testfunctions import ExpDecay, Indicator, LogPower, PowerTail, TestFunction
from .triplet import LevyTriplet

__all__ = ["BenchmarkCase", "benchmark_processes", "benchmark_functions", "benchmark_matrix"]


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    triplet: LevyTriplet
    f: TestFunction
    expected_verdict: Verdict
    expected_reason: str | None = None  # named precondition for UNDECIDED cases


def benchmark_processes() -> list[tuple[str, LevyTriplet]]:
    return [
        ("pure_drift", LevyTriplet(1.0)),
        ("bm_drift", LevyTriplet(1.0, 1.0)),
        # drift 0.1 plus unit-rate Exp(2) positive jumps: mean 0.6
        ("drift_cp", LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))),
        ("stable_drift", LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0))),
        # spectrally negative: Brownian part plus Exp(2) downward jumps, mean 0.5
        ("sn_bm_cp", LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))),
    ]


def benchmark_functions() -> list[tuple[str, TestFunction, Verdict]]:
    return [
        ("exp_decay", ExpDecay(1.0), Verdict.AS_FINITE),
        ("power_tail", PowerTail(1.0), Verdict.AS_INFINITE),
        ("log_power", LogPower(2.0), Verdict.AS_FINITE),
        ("indicator", Indicator(0.0, 5.0), Verdict.AS_FINITE),
    ]


def benchmark_matrix() -> list[BenchmarkCase]:
    cases = [
        BenchmarkCase(f"{pname}/{fname}", triplet, f, expected)
        for pname, triplet in benchmark_processes()
        for fname, f, expected in benchmark_functions()
    ]
    controls = [
        ("cp_only", LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(1.0, 1))),
         REASON_IS_COMPOUND_POISSON),
        ("stable_half", LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 0.0)),
         REASON_NO_LOCAL_TIMES),
    ]
    for cname, triplet, reason in controls:
        for fname, f, _ in benchmark_functions():
            cases.append(
                BenchmarkCase(f"{cname}/{fname}", triplet, f, Verdict.UNDECIDED, reason)
            )
    return cases
