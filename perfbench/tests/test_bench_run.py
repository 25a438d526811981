"""Percentile rule and the frozen inputs of the benchmark workloads."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import percentile, tail_percentile  # noqa: E402


def test_percentile_matches_linear_interpolation():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)


def test_tail_percentile_needs_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    q, value = tail_percentile(xs)
    assert q == 90 and sum(x > value for x in xs) == 10  # p95 has only 5 beyond
    q, value = tail_percentile(xs[:50])
    assert q == 80 and sum(x > value for x in xs[:50]) == 10
    assert tail_percentile(xs[:30]) is None  # even p75 leaves 8 beyond
    assert tail_percentile([1.0] * 200) is None  # ties are not beyond
    assert tail_percentile([]) is None


# (family, parameters) of each frozen triplet in perpetua.benchmarks
FROZEN = {
    "pure_drift": {"drift": 1.0},
    "bm_drift": {"drift": 1.0, "gaussian": 1.0},
    "drift_cp": {"drift": 0.1, "rate": 1.0, "theta": 2.0},
    "stable_drift": {"drift": 1.0, "alpha": 1.5, "scale": 1.0},
    "sn_bm_cp": {"drift": 1.0, "gaussian": 1.0, "rate": 1.0, "theta": 2.0},
    "cp_only": {"rate": 1.0, "theta": 1.0},
    "stable_half": {"alpha": 0.5, "scale": 1.0},
}


def test_sweep_boxes_contain_the_frozen_benchmark_triplets():
    from perpetua.benchmarks import benchmark_matrix, benchmark_processes
    from workloads import FAMILIES, build_triplet

    frozen = dict(benchmark_processes())
    for case in benchmark_matrix():
        frozen.setdefault(case.name.split("/")[0], case.triplet)
    assert set(FAMILIES) == set(frozen) == set(FROZEN)
    for family, params in FROZEN.items():
        assert build_triplet(family, params) == frozen[family]
        for key, (lo, hi) in FAMILIES[family].items():
            assert lo <= params[key] <= hi, (family, key)


def test_sweep_draws_are_seeded_and_distinct():
    from workloads import draw_triplets

    a = [t.triplet for t in draw_triplets(7, 0)]
    assert a == [t.triplet for t in draw_triplets(7, 0)]
    b = [t.triplet for t in draw_triplets(7, 1)] + [t.triplet for t in draw_triplets(8, 0)]
    assert not set(a) & set(b)


def test_verify_cp_config_uses_the_frozen_drift_cp_triplet():
    from perpetua.benchmarks import benchmark_processes
    from perpetua.config import load_config

    cfg = load_config(HERE / "configs" / "verify_cp.json")
    assert cfg.triplet == dict(benchmark_processes())["drift_cp"]
    assert cfg.checks == ("zero_one", "overshoot", "lln")
    raw = json.loads((HERE / "configs" / "verify_cp.json").read_text())
    assert raw["check_params"] == {"overshoot": {"z1": 50, "z2": 100, "n": 1000},
                                   "lln": {"n": 300, "t0": 100}}
