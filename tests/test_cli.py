"""Command line behavior: exit codes, output shapes, seed override."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perpetua
from perpetua import harness, jumps, measures, testfunctions
from perpetua.cli import main
from perpetua.rng import derive_seed


def write_config(tmp_path, **overrides):
    payload = {
        "triplet": {
            "drift": 1.0,
            "gaussian": 1.0,
            "levy_measure": {"family": "none", "params": {}},
        },
        "f": {"family": "exp_decay", "params": {"rate": 1.0}},
        "n_paths": 120,
        "dt": 0.01,
        "horizon": {"t0": 1.0, "doublings": 3},
        "master_seed": 7,
    }
    payload.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


class TestVerdictCommand:
    def test_json_output(self, tmp_path, capsys):
        code = main(["verdict", "--config", write_config(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "AS_FINITE"
        assert "integral" in payload and "preconditions" in payload
        integral = payload["integral"]
        assert integral["blocks_used"] == len(integral["diagnostics"]) > 0
        assert sum(integral["diagnostics"]) == pytest.approx(integral["value"], rel=0.05)

    def test_csv_output(self, tmp_path, capsys):
        code = main(["verdict", "--config", write_config(tmp_path), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("verdict,") for line in lines)

    def test_divergent_function_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f={"family": "power_tail", "params": {"p": 1.0}})
        code = main(["verdict", "--config", cfg])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "AS_INFINITE"

    def test_divergent_lower_bound_is_standard_json(self, tmp_path, capsys):
        # block sums of about 6.9e307: the lower bound stops before it overflows
        cfg = write_config(tmp_path, f={"family": "scaled", "params": {
            "factor": 1e308, "inner": {"family": "power_tail", "params": {"p": 1.0}}}})
        assert main(["verdict", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "AS_INFINITE"
        json.dumps(payload, allow_nan=False)


class TestClassifyCommand:
    def test_reports_structure_and_local_time(self, tmp_path, capsys):
        code = main(["classify", "--config", write_config(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["local_time"] == "HAS_LOCAL_TIMES"
        assert payload["mean"] == "1.0"
        assert payload["classification"]["is_compound_poisson"] is False


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["verdict", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_lists_every_problem(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=3, master_seed=-5)
        code = main(["verdict", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_paths" in err and "master_seed" in err

    @pytest.mark.parametrize("f, fragment", [
        ({"family": "exp_decay", "params": {"rate": 1e-320}}, "f: RATE_RANGE: rate too small"),
        ({"family": "tabulated", "params": {"knots": [0, 1], "values": [1, 1], "tail_model": "exp",
                                            "tail_rate": 1e-320}},
         "f: TAIL_RANGE: tail_rate too small"),
        ({"family": "scaled", "params": {"factor": 1e308, "inner": {
            "family": "exp_decay", "params": {"rate": 0.1}}}}, "f: FACTOR_RANGE: factor too large"),
        ({"family": "sum", "params": {"parts": [{"family": "scaled", "params": {
            "factor": 1e308, "inner": {"family": "exp_decay", "params": {"rate": 1.0}}}}] * 2}},
         "f: SUM_RANGE: parts too large"),
        ({"family": "sum", "params": {"parts": [
            {"family": "exp_decay", "params": {"rate": 1.0}},
            {"family": "exp_decay", "params": {"rate": 1e-320}}]}},
         "f: RATE_RANGE: rate too small: 1/rate overflows a float (at parts[1].rate)"),
    ])
    def test_finite_integral_past_the_float_range_exits_two(self, tmp_path, capsys, f, fragment):
        # the tail test would read its inf as divergence
        assert main(["verdict", "--config", write_config(tmp_path, f=f)]) == 2
        err = capsys.readouterr().err
        assert fragment in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("check_params, fragment", [
        ({"lln": {"bogus": 1}}, "check_params.lln.bogus: unknown parameter"),
        ({"lln": {"n": "abc"}}, "check_params.lln.n: must be an integer"),
        ({"occupation": {"npaths": 3}}, "check_params.occupation.npaths: unknown parameter"),
        ({"overshoot": {"z1": [1]}}, "check_params.overshoot.z1: must be a finite number"),
        ({"lln": 5}, "check_params.lln: must be an object"),
        ({"invariance": {"n": -3}}, "check_params.invariance.n: must be > 0"),
        ({"zero_one": {"x": 1}}, "check_params.zero_one.x: unknown parameter"),
        # every check runs on the config's dt and reads thresholds.ks_alpha
        ({"overshoot": {"dt": 0.01}}, "check_params.overshoot.dt: unknown parameter"),
        ({"invariance": {"dt": 0.01}}, "check_params.invariance.dt: unknown parameter"),
        ({"invariance": {"threshold": 0.1}}, "check_params.invariance.threshold: unknown parameter"),
        ({"invariance": {"ks_alpha": 0.05}}, "check_params.invariance.ks_alpha: unknown parameter"),
        ({"lln": {"dt": 0.01}}, "check_params.lln.dt: unknown parameter"),
        # refused before any work, not by the check at run time
        ({"lln": {"t0": 60, "horizon": 10}}, "check_params.lln.horizon: must be > t0 = 60, got 10"),
        ({"overshoot": {"z1": 30, "z2": 20}}, "check_params.overshoot.z2: must be > z1 = 30, got 20"),
        ({"invariance": {"x_list": [2.0, 2.0]}},
         "check_params.invariance: need two or more distinct positive levels, got [2.0, 2.0]"),
        ({"invariance": {"x_list": [161.0]}},
         "check_params.invariance: need two or more distinct positive levels, got [161.0]"),
    ])
    def test_bad_check_params_exit_two(self, tmp_path, capsys, check_params, fragment):
        cfg = write_config(tmp_path, check_params=check_params)
        code = main(["verify", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert fragment in err
        assert "Traceback" not in err

    def test_two_bad_check_params_both_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, check_params={"lln": {"bogus": 1},
                                                   "invariance": {"n": -3}})
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "check_params.lln.bogus" in err and "check_params.invariance.n" in err

    def test_numbers_written_as_strings_are_refused(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dt="0.01",
            horizon={"t0": "2", "doublings": 3},
            thresholds={"delta_01": "0.05"},
            check_params={"overshoot": {"z1": "3"}},
        )
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        for problem in ("dt: must be a finite number, got '0.01'",
                        "horizon.t0: must be a finite number, got '2'",
                        "thresholds.delta_01: must be a finite number, got '0.05'",
                        "check_params.overshoot.z1: must be a finite number, got '3'"):
            assert problem in err
        assert "Traceback" not in err

    def test_family_numbers_written_as_strings_or_booleans_are_refused(self, tmp_path, capsys):
        # the same test of a number as above, inside the triplet and f
        cp = {"family": "compound_poisson", "params": {
            "rate": 1.0, "jump_law": {"kind": "exponential", "theta": "2.0", "sign": 1}}}
        cases = [
            ({"triplet": {"drift": "1.0"}}, "drift must be a finite number, got '1.0'"),
            ({"triplet": {"drift": 1.0, "gaussian": True}},
             "NEGATIVE_GAUSSIAN: gaussian must be a finite number, got True"),
            ({"f": {"family": "indicator", "params": {"a": "0", "b": "5"}}},
             "a must be a finite number, got '0'; B_NONFINITE: b must be a finite number, got '5'"),
            ({"triplet": {"drift": 1.0, "levy_measure": cp}},
             "theta must be a finite number, got '2.0'"),
        ]
        for overrides, fragment in cases:
            assert main(["verdict", "--config", write_config(tmp_path, **overrides)]) == 2
            err = capsys.readouterr().err
            assert fragment in err and "Traceback" not in err
        together = write_config(
            tmp_path, triplet={"drift": "1.0", "gaussian": True, "levy_measure": cp},
            f=cases[2][0]["f"])
        assert main(["verdict", "--config", together]) == 2
        err = capsys.readouterr().err
        for fragment in ("triplet: NONFINITE_DRIFT", "gaussian must be", "theta must be",
                         "f: A_NONFINITE"):
            assert fragment in err

    def test_malformed_triplet_and_f_name_the_field(self, tmp_path, capsys):
        cp = {"family": "compound_poisson", "params": {"rate": 1.0}}
        scaled = {"family": "scaled", "params": {"factor": 2.0}}

        def measure(family, **params):
            return {"triplet": {"drift": 1.0, "levy_measure": {"family": family, "params": params}}}

        def f(family, **params):
            return {"f": {"family": family, "params": params}}

        def law(**law):
            return measure("compound_poisson", rate=1.0, jump_law=law)

        cases = [
            ({"triplet": "x"}, "triplet: FIELD_TYPE: triplet must be an object, got 'x'"),
            ({"f": "x"}, "f: FIELD_TYPE: f must be an object, got 'x'"),
            ({"triplet": {"drift": 1.0, "levy_measure": "x"}},
             "triplet: FIELD_TYPE: levy_measure must be an object, got 'x'"),
            ({"triplet": {"gaussian": 1.0}}, "triplet: FIELD_MISSING: missing field 'drift'"),
            ({"triplet": {"drift": 1.0, "levy_measure": cp}},
             "triplet: FIELD_MISSING: missing field 'jump_law' (at levy_measure.jump_law)"),
            ({"f": scaled}, "f: FIELD_MISSING: missing field 'inner'"),
            # unknown, missing and misshapen family fields
            ({"triplet": {"drift": 1.0, "gausian": 1.0}},
             "triplet: FIELD_UNKNOWN: unknown field 'gausian' (known: drift, gaussian, levy_measure)"),
            ({"triplet": {"drift": 1.0, "levy_measure": {"family": "none", "extra": 1}}},
             "triplet: FIELD_UNKNOWN: unknown field 'extra' (known: family, params) "
             "(at levy_measure.extra)"),
            ({"f": {"family": "exp_decay", "params": {"rate": 1.0}, "extra": 1}},
             "f: FIELD_UNKNOWN: unknown field 'extra' (known: family, params)"),
            ({"triplet": {"drift": "x", "levy_measure": {"family": "stable",
                                                         "params": {"scale": 1.0}}}},
             "triplet: NONFINITE_DRIFT: drift must be a finite number, got 'x'; "
             "FIELD_MISSING: missing field 'alpha'"),
            (measure("tempered_stable", alpha=1.5, scale=1.0),
             "triplet: FIELD_MISSING: missing field 'tempering'"),
            (f("exp_decay", rate=1.0, bogus=2),
             "f: FIELD_UNKNOWN: unknown field 'bogus' (known: rate, left_level)"),
            (law(kind="exponential", theta=2.0, sgn=1),
             "triplet: FIELD_UNKNOWN: unknown field 'sgn' (known: theta, sign) "
             "(at levy_measure.jump_law.sgn)"),
            (measure("spectrally_negative_stable", alpha=1.5, scale=1.0, skew=0.3),
             "triplet: FIELD_UNKNOWN: unknown field 'skew' (known: alpha, scale)"),
            (f("tabulated", knots=5, values=[1.0, 0.0]),
             "f: FIELD_TYPE: knots must be a list, got 5"),
            (f("sum", parts=3), "f: FIELD_TYPE: parts must be a list, got 3"),
            ({"triplet": {"drift": 1.0, "levy_measure": {"params": {}}}},
             "triplet: FIELD_MISSING: missing field 'family'"),
            (law(theta=2.0), "triplet: FIELD_MISSING: missing field 'kind'"),
        ]
        leaks = ["Traceback", "positional argument", "keyword argument", "not iterable",
                 "LevyTriplet", *(cls.__name__ for cls in (*measures._FAMILIES.values(),
                                                           *jumps._LAWS.values(),
                                                           *testfunctions._FAMILIES.values()))]
        for overrides, fragment in cases:
            assert main(["verdict", "--config", write_config(tmp_path, **overrides)]) == 2
            err = capsys.readouterr().err
            assert fragment in err, (fragment, err)
            assert [leak for leak in leaks if leak in err] == [], err
        together = write_config(tmp_path, triplet={"levy_measure": cp}, f=scaled)
        assert main(["verdict", "--config", together]) == 2
        assert ("triplet: FIELD_MISSING: missing field 'drift'; FIELD_MISSING: missing field "
                "'jump_law' (at levy_measure.jump_law); f: FIELD_MISSING: missing field 'inner'"
                ) in capsys.readouterr().err
        # every level lists its own issues first, then those of the values it holds, each
        # of these with the path of keys and indices that leads to it
        parts = [{"family": "power_tail", "params": {"p": -1.0}}, {"family": "mystery"}]
        together = write_config(
            tmp_path, triplet=law(kind="uniform", a=2.0, b=1.0)["triplet"] | {"drift": "x"},
            f={"family": "scaled", "params": {"factor": 0.0, "inner": {
                "family": "sum", "params": {"parts": parts}}}})
        assert main(["verdict", "--config", together]) == 2
        assert ("triplet: NONFINITE_DRIFT: drift must be a finite number, got 'x'; "
                "UNIFORM_BOUNDS: need a < b (at levy_measure.jump_law.a); "
                "f: FACTOR_POSITIVE: scale factor must be > 0; "
                "P_POSITIVE: exponent must be > 0 (at inner.parts[0].p); "
                "FAMILY_UNKNOWN: unknown test function family 'mystery' (at inner.parts[1].family)"
                ) in capsys.readouterr().err
        # two equal issues are told apart by their paths
        bad = {"family": "exp_decay", "params": {"rate": -1}}
        twins = write_config(tmp_path, f={"family": "sum", "params": {"parts": [bad, bad]}})
        assert main(["verdict", "--config", twins]) == 2
        assert ("f: RATE_POSITIVE: decay rate must be > 0 (at parts[0].rate); "
                "RATE_POSITIVE: decay rate must be > 0 (at parts[1].rate)\n"
                ) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verdict", "--seed", "3"], ["classify", "--out", "x"],
        ["verify", "--format", "csv"], ["simulate", "--out", "x", "--threads", "2"],
    ])
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", write_config(tmp_path)] + argv[1:])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_is_a_config_error(self, tmp_path, capsys, command, seed):
        out = tmp_path / "run"
        argv = [command, "--config", write_config(tmp_path), "--out", str(out), "--seed", seed]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: --seed: must fit in uint64, got {seed}" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_are_a_config_error(self, tmp_path, capsys, monkeypatch, threads):
        def no_run(*args, **kwargs):
            raise AssertionError("verify ran")

        monkeypatch.setattr("perpetua.cli.run_experiment", no_run)
        out = tmp_path / "run"
        argv = ["verify", "--config", write_config(tmp_path), "--out", str(out), "--threads", threads]
        assert main(argv) == 2
        assert f"config error: --threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, runs", [("verify", "run_experiment"),
                                               ("simulate", "simulate_paths")])
    @pytest.mark.parametrize("out", ["a_file", "a_file/run"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, runs, out):
        def no_run(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(f"perpetua.cli.{runs}", no_run)
        (tmp_path / "a_file").write_text("taken\n")
        argv = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [Errno ") and str(tmp_path / out) in err
        assert (tmp_path / "a_file").read_text() == "taken\n"

    def test_dense_grid_jumps_are_refused_with_every_other_problem(self, tmp_path, capsys):
        # a Gaussian part and 1e6 jumps per unit time over 16: 3.2e7
        # expected pieces per grid path, refused when the config is read
        cfg = write_config(
            tmp_path,
            triplet={"drift": 1.0, "gaussian": 0.5, "levy_measure": {
                "family": "compound_poisson",
                "params": {"rate": 1e6,
                           "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}},
            }},
            horizon={"t0": 2.0, "doublings": 3},
            n_paths=5,
            checks=["zero_one"],
        )
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "n_paths: must be >= 100, got 5" in err
        assert "horizon: 3.2e+07 expected pieces per path exceed PATH_BUDGET 16777216" in err

    @pytest.mark.parametrize("threads", [0, -1])
    def test_run_experiment_refuses_threads_below_one(self, tmp_path, monkeypatch, threads):
        def no_run(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr("perpetua.runner._run_one", no_run)
        config = perpetua.load_config(write_config(tmp_path))
        out = tmp_path / "run"
        with pytest.raises(perpetua.ConfigError) as exc:
            perpetua.run_experiment(config, out_dir=out, threads=threads)
        assert exc.value.problems == [f"threads: must be >= 1, got {threads}"]
        assert not out.exists()

    def test_analysis_error_maps_to_one(self, tmp_path, capsys):
        # driftless symmetric BM has zero mean: the verdict's mean
        # precondition fails inside the analysis, not in the config
        cfg = write_config(
            tmp_path,
            triplet={"drift": -1.0, "gaussian": 1.0,
                     "levy_measure": {"family": "none", "params": {}}},
        )
        code = main(["verify", "--config", cfg])
        assert code == 1


def event_config(tmp_path):
    """drift 0.1 plus rate-1 Exp(2) up-jumps: exact event paths in blocks of 31 and 20."""
    return write_config(
        tmp_path,
        triplet={"drift": 0.1, "gaussian": 0.0, "levy_measure": {"family": "compound_poisson", "params": {
            "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}}}},
        horizon={"t0": 2.0, "doublings": 7},
        checks=["zero_one", "overshoot", "lln"],
        check_params={"overshoot": {"z1": 10, "z2": 20, "n": 200}, "lln": {"n": 60, "t0": 100}},
    )


def test_event_path_outputs_are_identical_for_any_threads(tmp_path):
    # The bundle's sha256 is pinned: a faster stream, sampler or integral must not move a bit.
    cfg = event_config(tmp_path)
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        bundle = b"".join((out / name).read_bytes() for name in
                          ("report.json", "finiteness.csv", "overshoots_z1.csv", "overshoots_z2.csv"))
        outputs.append(hashlib.sha256(bundle).hexdigest())
    assert outputs == ["e5583bed94378d740c07917d02ce56ca040e939cb140db02ef864a3e239d1976"] * 2


def test_event_path_simulate_bundle_is_pinned(tmp_path):
    # perpetua simulate on the same config: every path file in name order, then the
    # partial-integral table.  The sha256 is pinned: drawing in blocks must not move a bit.
    out = tmp_path / "sim"
    assert main(["simulate", "--config", event_config(tmp_path), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("path_*.csv"))
    assert len(names) == 120
    bundle = b"".join((out / name).read_bytes() for name in [*names, "partial_integrals.csv"])
    assert hashlib.sha256(bundle).hexdigest() == "44ab4df31f3f3ff0dd2e14357bc9cf26f12ae961e4565815247eb0e8b16e6b78"


def test_grid_path_outputs_are_identical_for_any_threads(tmp_path):
    # BM with drift plus rate-1 Exp(2) up-jumps: grid paths whose rows carry different
    # jump counts, so the zero_one and invariance blocks are padded.  The bundle's
    # sha256 is pinned, one perpetua simulate path file included.
    cfg = write_config(
        tmp_path,
        triplet={"drift": 1.0, "gaussian": 1.0, "levy_measure": {"family": "compound_poisson", "params": {
            "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}}}},
        horizon={"t0": 2.0, "doublings": 5},
        checks=["zero_one", "invariance", "lln"],
        check_params={"invariance": {"n": 40, "n_rho": 200}, "lln": {"n": 20}},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    path_csv = (tmp_path / "sim" / "path_0003.csv").read_bytes()
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        bundle = b"".join((out / name).read_bytes() for name in ("report.json", "finiteness.csv")) + path_csv
        outputs.append(hashlib.sha256(bundle).hexdigest())
    assert outputs == ["bf42cf4717bc9f3c99547a181c4e6c9e0f19b8982c8f72d1def5ea0f6a016730"] * 2


def test_grid_passage_outputs_are_identical_for_any_threads(tmp_path):
    # Tempered-stable jumps: infinite activity, so the overshoot check and the rho
    # harvest scan grid paths through rng.ensemble.  The bundle's sha256 is pinned.
    cfg = write_config(
        tmp_path,
        triplet={"drift": 1.0, "gaussian": 0.0, "levy_measure": {"family": "tempered_stable", "params": {
            "alpha": 1.5, "scale": 1.0, "tempering": 1.0}}},
        checks=["overshoot", "invariance"],
        check_params={"overshoot": {"z1": 5, "z2": 10, "n": 200}, "invariance": {"n": 40, "n_rho": 300}},
    )
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["verify", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        bundle = b"".join((out / name).read_bytes() for name in
                          ("report.json", "overshoots_z1.csv", "overshoots_z2.csv"))
        outputs.append(hashlib.sha256(bundle).hexdigest())
    assert outputs == ["78d8cb5f34de65b2dff7c83bd7f2f8408e4d2f92b7dd7a3c9cccc83c92cec9ff"] * 2


class TestSimulateCommand:
    def test_writes_path_csvs(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, n_paths=100)
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert "partial_integrals.csv" in files
        assert "path_0000.csv" in files
        header = (out / "path_0000.csv").read_text().splitlines()[0]
        assert header == "time,value"

    def test_draws_in_the_ensembles_blocks(self, tmp_path, monkeypatch):
        # zero_one's ensemble as rng.ensemble cuts it: an event path of 513 expected pieces
        # on [0, 256] makes blocks of 31, a Brownian path of 25,600 pieces one a block
        calls = []
        block = harness.finiteness_block
        monkeypatch.setattr(harness, "finiteness_block",
                            lambda config, seeds: (calls.append(list(seeds)), block(config, seeds))[1])
        root = Path(__file__).resolve().parents[1]
        config = perpetua.load_config(root / "perfbench" / "configs" / "verify_cp.json")
        perpetua.simulate_paths(config, tmp_path / "cp")
        assert [len(seeds) for seeds in calls] == [31] * 16 + [4]
        assert sum(calls, []) == [derive_seed(config.master_seed, "finiteness", i) for i in range(500)]
        calls.clear()
        bm = perpetua.ExperimentConfig(triplet=perpetua.LevyTriplet(1.0, 1.0), f=perpetua.ExpDecay(1.0),
                                       n_paths=3, dt=0.01, t0=2.0, doublings=7, master_seed=7)
        perpetua.simulate_paths(bm, tmp_path / "bm")
        assert [len(seeds) for seeds in calls] == [1, 1, 1]

    def test_seed_override_changes_paths(self, tmp_path):
        cfg = write_config(tmp_path, n_paths=100)
        out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
        main(["simulate", "--config", cfg, "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "99"])
        main(["simulate", "--config", cfg, "--out", str(out_c), "--seed", "99"])
        first = "path_0000.csv"
        assert (out_a / first).read_text() != (out_b / first).read_text()
        assert (out_b / first).read_text() == (out_c / first).read_text()


def _param_lines(text: str, keys) -> dict[str, str]:
    """Per check key, its line of a parameter listing and the indented lines after it."""
    out: dict[str, str] = {}
    current = None
    for line in text.splitlines():
        words = line.split()
        if words and words[0].strip("`-") in keys:
            current = words[0].strip("`-")
            out[current] = line
        elif current is not None and line.startswith(" " * 8):
            out[current] += line
        else:
            current = None
    return out


@pytest.mark.parametrize("where", ["cli docstring", "README"])
def test_docs_list_every_check_parameter(where):
    import perpetua.cli
    from perpetua.checks import CHECKS

    if where == "README":
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = text[text.index("check_params.<check>"):]
    else:
        text = perpetua.cli.__doc__
    listed = _param_lines(text, CHECKS)
    assert list(listed) == list(CHECKS)
    for key, check in CHECKS.items():
        # exactly the table's parameters, in its order, each as "name [default]"
        line = listed[key].split(None, 1)[1]
        defaults = {m.group(1): _bracketed(line, m.end() - 1)
                    for m in re.finditer(r"(\w+) \[", line)}
        assert list(defaults) == [p.name for p in check.params], key
        for p in check.params:
            if not callable(p.default):
                assert defaults[p.name] == _doc_value(p.default), (key, p.name)
        if not check.params:
            assert line.startswith("none"), key


def _bracketed(text: str, start: int) -> str:
    """What the bracket opening at text[start] holds, nested brackets included."""
    depth = 0
    for end in range(start, len(text)):
        depth += {"[": 1, "]": -1}.get(text[end], 0)
        if depth == 0:
            return text[start + 1:end]
    raise AssertionError(f"unclosed bracket in {text!r}")


def _doc_value(value) -> str:
    """A default as the docs write it: true/false, [1, 2, 5], 0.05."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return "[" + ", ".join(_doc_value(v) for v in value) + "]"
    return f"{value:g}"


def test_readme_lists_every_family_and_its_fields():
    import dataclasses

    from perpetua.triplet import LevyTriplet

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = text[text.index("## Configuration"):text.index("check_params.<check>")]
    families = {"triplet": LevyTriplet, **measures._FAMILIES, **jumps._LAWS,
                **testfunctions._FAMILIES}
    listed = _param_lines(text, [*families, "spectrally_negative_stable"])
    assert set(listed) == {*families, "spectrally_negative_stable"}
    for name, cls in families.items():
        fields = dataclasses.fields(cls)
        items = listed[name].split(None, 1)[1].split(",")
        if not fields:
            assert items == ["(no parameters)"], name
            continue
        # each field by its key, with its default in brackets when it has one
        assert [item.split()[0] for item in items] == [
            f.metadata.get("key", f.name) for f in fields], name
        assert ["[" in item for item in items] == [
            f.default is not dataclasses.MISSING for f in fields], name
    assert listed["spectrally_negative_stable"].split()[1:] == ["alpha,", "scale"]

class TestVerifyCommand:
    def test_pass_lines_and_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(
            tmp_path,
            checks=["zero_one", "lln"],
            check_params={"lln": {"n": 60, "t0": 60.0}},
            n_paths=150,
            horizon={"t0": 2.0, "doublings": 5},
        )
        code = main(["verify", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "[PASS] zero_one" in captured
        assert "[PASS] lln_envelope" in captured
        assert "meets expectations" in captured
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"] is True
        assert report["meets_expectations"] is True
        assert (out / "metadata.json").exists()
        assert (out / "finiteness.csv").exists()

    def test_expected_fail_inverts_exit_code(self, tmp_path, capsys):
        # stable(0.5) has no local times and no finite mean: both checks
        # fail by named precondition, which the config declares as expected
        cfg = write_config(
            tmp_path,
            triplet={
                "drift": 0.0, "gaussian": 0.0,
                "levy_measure": {
                    "family": "stable",
                    "params": {"alpha": 0.5, "scale": 1.0, "skew": 0.0},
                },
            },
            checks=["occupation", "lln"],
            expected_fail=["occupation", "lln"],
        )
        code = main(["verify", "--config", cfg])
        captured = capsys.readouterr().out
        assert code == 0
        assert "[FAIL] occupation" in captured
        assert "[FAIL] lln" in captured

    def test_unexpected_failure_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            triplet={
                "drift": 0.0, "gaussian": 0.0,
                "levy_measure": {
                    "family": "stable",
                    "params": {"alpha": 0.5, "scale": 1.0, "skew": 0.0},
                },
            },
            checks=["lln"],
        )
        code = main(["verify", "--config", cfg])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_package_error_in_any_check_is_a_failed_entry(self, tmp_path, capsys, monkeypatch):
        # with one chunk no invariance path can escape its levels: the check
        # fails with NotReachedError, and the run still goes on to lln
        monkeypatch.setattr(harness, "_MAX_CHUNKS", 1)
        cfg = write_config(
            tmp_path,
            checks=["invariance", "lln"],
            check_params={"invariance": {"n": 5, "start_from_rho": False},
                          "lln": {"n": 20, "t0": 60.0}},
        )
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [e["check"] for e in report["checks"]] == ["invariance", "lln"]
        assert report["checks"][0]["notes"].startswith("NotReachedError")
        assert report["checks"][1]["passed"]

    def test_one_grid_jump_per_step_runs(self, tmp_path, capsys):
        # rate * dt = 1 expected jump per step on the grid (the Gaussian
        # part rules out event paths): each jump is drawn at its exact time
        cfg = write_config(
            tmp_path,
            triplet={"drift": 1.0, "gaussian": 0.5, "levy_measure": {
                "family": "compound_poisson",
                "params": {"rate": 100.0,
                           "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}},
            }},
            checks=["zero_one", "lln"],
        )
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [e["passed"] for e in report["checks"]] == [True, True]

    def test_dense_compound_poisson_without_gaussian_part_runs_on_events(self, tmp_path, capsys):
        # the same rate without a Gaussian part: exact event paths have no
        # step grid, so nothing is too coarse
        cfg = write_config(
            tmp_path,
            triplet={"drift": 1.0, "gaussian": 0.0, "levy_measure": {
                "family": "compound_poisson",
                "params": {"rate": 100.0,
                           "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}},
            }},
            checks=["zero_one"],
        )
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        entry = json.loads((out / "report.json").read_text())["checks"][0]
        assert (entry["check"], entry["passed"]) == ("zero_one", True)

    def test_drift_cp_outputs_do_not_depend_on_threads(self, tmp_path, capsys):
        # event paths and exact passages: report.json and every CSV byte-identical
        cfg = write_config(
            tmp_path,
            triplet={"drift": 0.1, "gaussian": 0.0, "levy_measure": {
                "family": "compound_poisson",
                "params": {"rate": 1.0,
                           "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}},
            }},
            horizon={"t0": 2.0, "doublings": 5},
            checks=["zero_one", "overshoot", "lln"],
            check_params={"overshoot": {"z1": 5.0, "z2": 10.0, "n": 200},
                          "lln": {"n": 40, "t0": 70.0}},
        )
        runs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), runs):
            main(["verify", "--config", cfg, "--out", str(out), "--threads", str(threads)])
        names = ["report.json", "finiteness.csv", "overshoots_z1.csv", "overshoots_z2.csv"]
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_overshoot_default_level_on_undefined_mean(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            triplet={"drift": 0.0, "gaussian": 0.0, "levy_measure": {
                "family": "stable", "params": {"alpha": 0.5, "scale": 1.0, "skew": 0.0},
            }},
            checks=["overshoot"],
        )
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        entry = json.loads((out / "report.json").read_text())["checks"][0]
        assert entry["precondition"] == "MEAN_RANGE"

    @pytest.mark.parametrize("triplet, check_params, check, note", [
        # lln's t0 defaults from mu, so horizon 5 is not compared with it
        ({"drift": -1.0, "gaussian": 1.0}, {"lln": {"horizon": 5.0}}, "lln",
         "LLN envelope needs mean in (0, inf)"),
        # the invariance chunk horizon reads mu: no budget line, and the check refuses
        ({"drift": 1.0, "gaussian": 1.0, "levy_measure": {
            "family": "stable", "params": {"alpha": 0.5, "scale": 1.0, "skew": 0.0}}},
         {}, "invariance", "invariance check needs mean in (0, inf)"),
    ])
    def test_a_default_that_needs_the_mean_is_left_to_the_check(
            self, tmp_path, capsys, triplet, check_params, check, note):
        cfg = write_config(tmp_path, triplet=triplet, checks=[check], check_params=check_params)
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        entry = json.loads((out / "report.json").read_text())["checks"][0]
        assert entry["precondition"] == "MEAN_RANGE"
        assert entry["notes"] == f"precondition violated: MEAN_RANGE: {note}"

    def test_checks_run_in_table_order_and_are_timed(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            checks=["lln", "zero_one"],
            check_params={"lln": {"n": 20, "t0": 60.0}},
        )
        out = tmp_path / "run"
        main(["verify", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert [(e["check"], e["name"]) for e in report["checks"]] == [
            ("zero_one", "zero_one"), ("lln", "lln_envelope")]
        assert report["config"]["check_params"] == {"lln": {"n": 20, "t0": 60.0}}
        assert "duration" not in (out / "report.json").read_text()
        meta = json.loads((out / "metadata.json").read_text())
        assert set(meta["check_duration_seconds"]) == {"zero_one", "lln"}
        assert all(s >= 0.0 for s in meta["check_duration_seconds"].values())


def test_runs_as_python_module_from_a_checkout(tmp_path):
    src = str(Path(perpetua.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "perpetua", "classify", "--config", write_config(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["local_time"] == "HAS_LOCAL_TIMES"
