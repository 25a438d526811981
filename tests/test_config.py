"""Config file validation: every problem reported, defaults applied."""

import json
import math
from pathlib import Path

import pytest

from perpetua import (ConfigError, ExperimentConfig, LevyTriplet, PreconditionViolation, StableLike, TemperedStable,
                      harness, load_config, run_experiment, simulate)
from perpetua.checks import CHECKS, resolve
from perpetua.cli import main
from perpetua.harness import MAX_LEVELS, lln_t0_floor
from perpetua.simulate import MAX_PIECES_PER_PATH

ROOT = Path(__file__).resolve().parents[1]


def good_payload():
    return {
        "triplet": {
            "drift": 1.0,
            "gaussian": 1.0,
            "levy_measure": {"family": "none", "params": {}},
        },
        "f": {"family": "exp_decay", "params": {"rate": 1.0}},
        "n_paths": 200,
        "dt": 0.01,
        "horizon": {"t0": 2.0, "doublings": 4},
        "master_seed": 42,
    }


def event_payload(rate=1.0):
    """Drift 0.1 plus rate Exp(2) up-jumps and no Gaussian part: exact event paths."""
    d = good_payload()
    d["triplet"] = {
        "drift": 0.1,
        "gaussian": 0.0,
        "levy_measure": {"family": "compound_poisson", "params": {
            "rate": rate, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}}},
    }
    d["horizon"] = {"t0": 2.0, "doublings": 7}
    d["checks"] = ["zero_one", "overshoot", "lln"]
    return d


def over_budget(key, pieces):
    """The problem path_refusal reports for a path of this many expected pieces."""
    return (f"{key}: {pieces} expected pieces per path exceed PATH_BUDGET {MAX_PIECES_PER_PATH} "
            "(a knot every dt on a grid, two per jump)")


class TestFromDict:
    def test_good_payload_parses(self):
        cfg = ExperimentConfig.from_dict(good_payload())
        assert cfg.n_paths == 200
        assert cfg.checkpoints == [2.0, 4.0, 8.0, 16.0, 32.0]
        assert cfg.horizon == 32.0
        assert cfg.checks == tuple(CHECKS)
        assert cfg.expected_fail == ()

    def test_threshold_defaults(self):
        cfg = ExperimentConfig.from_dict(good_payload())
        assert cfg.thresholds == {"delta_01": 0.05, "ks_alpha": 0.01}

    def test_threshold_override_merges(self):
        d = good_payload()
        d["thresholds"] = {"delta_01": 0.02}
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.thresholds["delta_01"] == 0.02
        assert cfg.thresholds["ks_alpha"] == 0.01

    def test_all_problems_reported_at_once(self):
        d = good_payload()
        d["n_paths"] = 10                      # too few
        d["dt"] = 5.0                          # > t0/10
        d["master_seed"] = -1                  # not uint64
        d["horizon"]["doublings"] = 1          # < 3
        d["bogus"] = True                      # unknown field
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        text = str(exc.value)
        for fragment in ("n_paths", "dt", "master_seed", "doublings", "bogus"):
            assert fragment in text
        assert len(exc.value.problems) == 5

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({})
        text = str(exc.value)
        for fragment in ("triplet", "f", "n_paths", "dt", "horizon", "master_seed"):
            assert fragment in text

    def test_bad_triplet_and_bad_f_both_reported(self):
        d = good_payload()
        d["triplet"]["gaussian"] = -1.0
        d["f"] = {"family": "no_such_family", "params": {}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert any(p.startswith("triplet:") for p in exc.value.problems)
        assert any(p.startswith("f:") for p in exc.value.problems)

    def test_unknown_check_rejected(self):
        d = good_payload()
        d["checks"] = ["zero_one", "nonsense"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "nonsense" in str(exc.value)

    def test_unknown_check_params_key_rejected(self):
        d = good_payload()
        d["check_params"] = {"nonsense": {"n": 3}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_unknown_expected_fail_rejected(self):
        d = good_payload()
        d["expected_fail"] = ["occupation_identity"]  # report name, not check key
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "expected_fail" in str(exc.value)

    def test_expected_fail_of_a_check_that_does_not_run_rejected(self):
        d = good_payload()
        d["checks"], d["expected_fail"] = ["lln"], ["occupation", "lln"]
        d["n_paths"] = 50  # listed with every other problem
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["n_paths: must be >= 100, got 50",
                                      "expected_fail: check 'occupation' does not run (checks: lln)"]
        d["n_paths"], d["expected_fail"] = 200, ["lln"]
        assert ExperimentConfig.from_dict(d).expected_fail == ("lln",)
        del d["checks"]  # every check runs
        d["expected_fail"] = ["occupation"]
        assert ExperimentConfig.from_dict(d).expected_fail == ("occupation",)

    def test_unknown_threshold_rejected(self):
        d = good_payload()
        d["thresholds"] = {"delta_02": 0.1}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "delta_02" in str(exc.value)

    def test_threshold_out_of_range(self):
        d = good_payload()
        d["thresholds"] = {"ks_alpha": 1.5}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_bool_is_not_an_integer(self):
        d = good_payload()
        d["n_paths"] = True
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "n_paths" in str(exc.value)

    @pytest.mark.parametrize("value", [
        True, "nan", "inf", [1.0], "0.5", pytest.param(10**400, id="int-past-float-range"),
    ])
    def test_float_fields_take_finite_numbers_only(self, value):
        d = good_payload()
        d["dt"] = value
        d["horizon"]["t0"] = value
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"dt: must be a finite number, got {value!r}",
            f"horizon.t0: must be a finite number, got {value!r}",
        ]

    def test_dt_must_resolve_the_first_checkpoint(self):
        d = good_payload()
        d["dt"] = 0.3  # > t0/10 = 0.2
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "t0/10" in str(exc.value)

    def test_check_params_are_kept_as_written(self):
        d = good_payload()
        d["check_params"] = {"overshoot": {"n": 50}, "lln": {"t0": 60}}
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.check_params == {"overshoot": {"n": 50}, "lln": {"t0": 60}}

    def test_every_bad_check_param_is_reported(self):
        d = good_payload()
        d["check_params"] = {
            "occupation": {"bandwidth": 0.0, "n_paths": 2.5},
            "invariance": {"x_list": [1.0, "a", -2.0], "start_from_rho": 1},
            "lln": {"horizon": "inf"},
        }
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "check_params.occupation.bandwidth: must be > 0, got 0.0",
            "check_params.occupation.n_paths: must be an integer, got 2.5",
            "check_params.invariance.x_list[1]: must be a finite number, got 'a'",
            "check_params.invariance.x_list[2]: must be > 0, got -2.0",
            "check_params.invariance.start_from_rho: must be true or false, got 1",
            "check_params.lln.horizon: must be a finite number, got 'inf'",
        ]

    def test_the_table_declares_each_parameter_once(self):
        # dt, threshold and ks_alpha are the config's own settings, not a check's
        assert {key: [p.name for p in check.params] for key, check in CHECKS.items()} == {
            "zero_one": [],
            "occupation": ["n_paths", "bandwidth"],
            "overshoot": ["z1", "z2", "n"],
            "invariance": ["x_list", "n", "bandwidth", "n_rho", "start_from_rho"],
            "lln": ["t0", "n", "horizon"],
        }

    def test_reversed_pairs_are_reported_with_every_other_problem(self):
        d = good_payload()
        d["n_paths"] = 5
        d["check_params"] = {"overshoot": {"z1": 30, "z2": 30},
                             "lln": {"t0": 60, "horizon": 10}}
        d["checks"] = ["zero_one"]  # written values are compared whether or not they run
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "n_paths: must be >= 100, got 5",
            "check_params.overshoot.z2: must be > z1 = 30, got 30",
            "check_params.lln.horizon: must be > t0 = 60, got 10",
        ]

    def test_a_default_on_the_wrong_side_is_refused_for_checks_that_run(self):
        # BM drift 1, sigma 1: z1 defaults to 20 sigma/mu = 20, lln's t0 to 50 v/mu^2 = 50
        d = good_payload()
        d["check_params"] = {"overshoot": {"z2": 10}, "lln": {"horizon": 40}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "check_params.overshoot.z2: must be > z1 = 20, got 10",
            "check_params.lln.horizon: must be > t0 = 50, got 40",
        ]
        d["checks"] = ["zero_one", "occupation", "invariance"]
        ExperimentConfig.from_dict(d)

    def test_a_default_on_the_wrong_side_is_reported_with_every_other_problem(self):
        d = good_payload()
        d["n_paths"] = 5
        d["check_params"] = {"lln": {"horizon": 40}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "n_paths: must be >= 100, got 5",
            "check_params.lln.horizon: must be > t0 = 50, got 40",
        ]

    def test_defaults_wait_for_the_fields_they_read(self):
        # a check whose written parameters fail is not resolved, and no check
        # is while the triplet, t0 or dt has failed
        d = good_payload()
        d["check_params"] = {"overshoot": {"z2": "x"}, "lln": {"horizon": 40}}
        bad_z2 = "check_params.overshoot.z2: must be a finite number, got 'x'"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [bad_z2, "check_params.lln.horizon: must be > t0 = 50, got 40"]
        d["horizon"]["t0"] = -1.0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["horizon.t0: must be positive, got -1.0", bad_z2]
        d["horizon"]["t0"], d["triplet"]["drift"] = 2.0, "fast"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems[1:] == [bad_z2]

    @pytest.mark.parametrize("t0", [0.0, -1.0])
    def test_a_t0_out_of_range_is_its_only_problem(self, t0):
        # dt <= t0/10 reads t0, so it waits for a valid t0
        d = good_payload()
        d["horizon"]["t0"] = t0
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [f"horizon.t0: must be positive, got {t0}"]

    def test_a_default_level_without_a_positive_mean_is_left_to_the_check(self):
        # z1 defaults to 20 sigma/mu: without a mean in (0, inf) there is no
        # default to compare z2 against, and the check refuses when run
        d = good_payload()
        d["triplet"]["drift"] = -1.0
        d["check_params"] = {"overshoot": {"z2": 0.5}}
        d["checks"] = ["overshoot"]
        report, code = run_experiment(ExperimentConfig.from_dict(d))
        assert code == 1
        assert report["checks"][0]["precondition"] == "MEAN_RANGE"
        assert report["checks"][0]["notes"] == (
            "precondition violated: MEAN_RANGE: overshoot check needs mean in (0, inf)")

    def test_step_budget_refuses_a_tiny_dt(self):
        d = good_payload()
        d["dt"] = 1e-6
        d["horizon"] = {"t0": 2.0, "doublings": 7}  # 2.56e8 steps per path
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        # the checks' own paths are over budget too, and are listed in the same run
        assert exc.value.problems == [
            over_budget("horizon", "2.56e+08"),
            over_budget("check_params.invariance", "2.1e+07"),
            over_budget("check_params.lln", "2e+08"),
        ]

    def test_step_budget_holds_the_lln_horizon(self):
        d = good_payload()
        d["check_params"] = {"lln": {"t0": 1e5}}  # 4 t0 / dt = 4e7
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [over_budget("check_params.lln", "4e+07")]
        d["checks"] = ["zero_one"]  # lln not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("drift", [1.0, -1.0], ids=["mean", "no_positive_mean"])
    def test_invariance_needs_two_distinct_levels(self, drift):
        # the level rule needs no mean: it is listed before the chunk horizon is read
        d = good_payload()
        d["triplet"]["drift"] = drift
        d["check_params"] = {"invariance": {"x_list": [2.0, 2.0]}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "check_params.invariance: need two or more distinct positive levels, got [2.0, 2.0]"]
        d["check_params"]["invariance"]["x_list"] = [2.0, 3.0]
        ExperimentConfig.from_dict(d)

    def test_step_budget_holds_the_invariance_chunks(self):
        # BM drift 1 at dt 0.01: chunks of 1.5 (1e7 + 5 + 4) time units
        d = good_payload()
        d["check_params"] = {"invariance": {"x_list": [1.0, 1e7]}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [over_budget("check_params.invariance", "1.5e+09")]
        d["checks"] = ["zero_one"]  # invariance not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_level_budget_refuses_a_fast_occupation_path(self):
        # drift 1e5 over horizon 256: a path spans about 2.56e7, 5.12e8 levels at bandwidth 0.05
        d = json.loads((ROOT / "configs" / "bm_drift_exp_decay.json").read_text())
        d["triplet"]["drift"] = 1e5
        d["dt"] = "x"  # listed with every other problem
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert len(exc.value.problems) == 1 and exc.value.problems[0].startswith("dt:")
        d["dt"] = 0.01
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"check_params.occupation: 5.12e+08 occupation grid levels exceed LEVEL_BUDGET {MAX_LEVELS} "
            "(a level at least every bandwidth 0.05 across a path's range)"]
        d["check_params"]["occupation"]["bandwidth"] = 10.0  # 2.56e6 levels
        ExperimentConfig.from_dict(d)
        d["check_params"]["occupation"]["bandwidth"] = 0.05
        d["checks"] = ["zero_one", "lln"]  # occupation not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_event_paths_are_not_held_to_dt(self):
        # about 512 expected pieces per path; horizon/dt would be 2.56e8 steps
        d = event_payload()
        d["dt"] = 1e-6
        d["check_params"] = {"lln": {"t0": 100.0}}  # 4 t0 / dt = 4e8 grid steps
        assert ExperimentConfig.from_dict(d).dt == 1e-6

    def test_event_budget_holds_the_horizon_when_validated(self):
        d = event_payload(rate=1e6)  # 256 time units at 1e6 jumps each, two pieces a jump
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            over_budget("horizon", "5.12e+08"),
            over_budget("check_params.lln", "1.6e+08"),
        ]

    def test_event_budget_holds_the_lln_horizon(self):
        d = event_payload(rate=1e5)
        d["horizon"] = {"t0": 2.0, "doublings": 4}  # 6.4e6 expected pieces
        d["check_params"] = {"lln": {"t0": 100.0, "horizon": 400.0}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [over_budget("check_params.lln", "8e+07")]
        d["checks"] = ["zero_one"]  # lln not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_an_event_path_counts_two_pieces_per_jump(self):
        # 8.4e6 expected jumps per path: under 2^24 as jumps, over it as pieces
        d = event_payload(rate=8.4e6 / 256.0)
        d["checks"] = ["zero_one"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [over_budget("horizon", "1.68e+07")]

    def test_a_cutoff_that_underflows_is_over_budget(self):
        # stable alpha 0.1 at dt 1e-40: the default cutoff is 0, where
        # infinitely many jumps are resolved; refused, not raised
        d = good_payload()
        d["triplet"] = {"drift": 1.0, "gaussian": 0.0, "levy_measure": {
            "family": "stable", "params": {"alpha": 0.1, "scale": 1.0}}}
        d["dt"], d["horizon"] = 1e-40, {"t0": 1e-39, "doublings": 3}
        d["checks"] = ["zero_one"]
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [over_budget("horizon", "inf")]

    def test_a_horizon_past_the_float_range_is_refused(self):
        # pure drift draws no events, so only the horizon itself can overflow
        d = good_payload()
        d["triplet"] = {"drift": 1.0}
        d["horizon"]["doublings"] = 5000
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["horizon: t0 * 2^doublings overflows a float"]

    @pytest.mark.parametrize("path", [
        p for pattern in ("configs/*.json", "perfbench/configs/*.json")
        for p in sorted(ROOT.glob(pattern))], ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path):
        load_config(path)

    def test_huge_doublings_is_refused_not_overflowed(self):
        d = good_payload()
        d["horizon"]["doublings"] = 5000
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "PATH_BUDGET" in str(exc.value)

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(good_payload())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestLoadConfig:
    def test_loads_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(good_payload()))
        cfg = load_config(p)
        assert cfg.master_seed == 42

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "json" in str(exc.value)

    def test_non_object_top_level(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_config(p)


def scaled_nest(depth):
    """exp_decay inside depth nested scaled families."""
    f = {"family": "exp_decay", "params": {"rate": 1.0}}
    for _ in range(depth):
        f = {"family": "scaled", "params": {"factor": 1.0, "inner": f}}
    return f


class TestNoTraceback:
    """A file that is not UTF-8, or nested past the recursion limit, is one config error (exit 2)."""

    @staticmethod
    def problem(tmp_path, capsys, data: bytes) -> str:
        p = tmp_path / "cfg.json"
        p.write_bytes(data)
        assert main(["verdict", "--config", str(p)]) == 2
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        verdict, verify = capsys.readouterr().err.splitlines()
        assert verdict == verify and verdict.startswith("config error: ")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        [problem] = exc.value.problems
        return problem

    def test_utf16_file(self, tmp_path, capsys):
        problem = self.problem(tmp_path, capsys, json.dumps(good_payload()).encode("utf-16"))
        assert problem.startswith("json: 'utf-8' codec can't decode")

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        data = ('{"a": ' * 1400 + "1" + "}" * 1400).encode()
        problem = self.problem(tmp_path, capsys, data)
        assert problem.startswith("json: maximum recursion depth exceeded")

    def test_function_nested_past_the_recursion_limit(self, tmp_path, capsys):
        problem = self.problem(tmp_path, capsys, json.dumps({**good_payload(), "f": scaled_nest(450)}).encode())
        assert problem == "f: nested too deeply"
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({**good_payload(), "f": scaled_nest(300)}))
        assert load_config(ok).f(0.5) > 0.0


def shipped(name):
    return json.loads((ROOT / "configs" / name).read_text())


def t0_probe():
    """The shipped BM config with lln t0 10, below its floor 50 v/mu^2 = 50."""
    d = shipped("bm_drift_exp_decay.json")
    d["check_params"]["lln"]["t0"] = 10.0
    return d


def dt_probe():
    """The shipped BM config at dt 50 (t0 500), with an lln horizon of 60 < 10 dt.

    Its bandwidths are 2, above the floor sd_step/4 = sqrt(50)/4 = 1.77 of that dt.
    """
    d = shipped("bm_drift_exp_decay.json")
    d["dt"], d["horizon"]["t0"] = 50.0, 500.0
    d["check_params"]["lln"] = {"n": 300, "t0": 50.0, "horizon": 60.0}
    for key in ("occupation", "invariance"):
        d["check_params"][key]["bandwidth"] = 2.0
    return d


PROBES = {
    "t0": (t0_probe, "check_params.lln: need t0 >= 50 v/mu^2 = 50, got 10"),
    "dt": (dt_probe, "check_params.lln: need 0 < dt <= horizon/10 = 6, got 50"),
}


class TestRefusedBeforeAnyWork:
    """Rules that only the config decides are config errors, not run-time refusals."""

    @pytest.mark.parametrize("probe", PROBES)
    def test_each_probe_is_one_lln_problem(self, probe):
        payload, problem = PROBES[probe]
        d = payload()
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [problem]
        d["master_seed"] = -1  # listed with every other problem of the file
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["master_seed: must fit in uint64, got -1", problem]

    @pytest.mark.parametrize("probe", PROBES)
    def test_the_cli_exits_two_on_each_probe(self, probe, tmp_path, capsys):
        payload, problem = PROBES[probe]
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps(payload()))
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err

    def test_the_dt_probe_holds_no_event_path(self):
        # drift 1 plus rate 1 Exp(2) up-jumps: exact event paths never read dt,
        # and the floor 50 * 0.5 / 1.5^2 = 11.1 lies below t0 = 50
        d = dt_probe()
        d["triplet"] = {"drift": 1.0, "gaussian": 0.0, "levy_measure": {
            "family": "compound_poisson", "params": {
                "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}}}}
        assert ExperimentConfig.from_dict(d).dt == 50.0

    @pytest.mark.parametrize("probe", PROBES)
    def test_neither_probe_applies_without_lln(self, probe):
        d = PROBES[probe][0]()
        d["checks"] = [key for key in CHECKS if key != "lln"]
        assert ExperimentConfig.from_dict(d).checks == tuple(d["checks"])


# run-time refusals that config validation must have listed before any work
CONFIG_REASONS = {"HORIZON_RANGE", "DT_RANGE", "PATH_BUDGET", "LEVEL_BUDGET", "T0_RANGE", "LEVEL_RANGE",
                  "BANDWIDTH_FLOOR", "CAP_RANGE"}

# Small budgets, so that a path or level grid at the edge costs little to run.
# Both sides read the same module constants, so config and run see the same budget.
PIECES, LEVELS = 4096, 3300


def bm(dt=0.0625, checks=(), **check_params):
    """BM with drift 1 at step dt (t0 = 32 dt, horizon 512 dt), running the checks given."""
    d = good_payload()
    d["dt"], d["horizon"] = dt, {"t0": 32.0 * dt, "doublings": 4}
    d["checks"] = list(checks or check_params)
    d["check_params"] = check_params
    return d


def at_floor(payload):
    """The payload with lln t0 at its triplet's floor 50 v/mu^2."""
    t0 = lln_t0_floor(LevyTriplet.from_dict(payload["triplet"]))
    payload["checks"], payload["check_params"] = ["lln"], {"lln": {"t0": t0, "n": 4}}
    return payload


def fast_bm(bandwidth):
    """Drift 100 over horizon 32: a path spans 3,200 give or take about 6, so
    at bandwidth 1 its level grid holds about 3,202 levels, under LEVELS by 3%."""
    d = good_payload()
    d["triplet"]["drift"] = 100.0
    d["checks"] = ["occupation"]
    d["check_params"] = {"occupation": {"n_paths": 2, "bandwidth": bandwidth}}
    return d


# payloads at the edge of a rule that config and run both hold, each with its budgets
EDGES = {
    "lln_t0_at_the_floor_bm": (lambda: at_floor(good_payload()), {}),
    "lln_t0_at_the_floor_event": (lambda: at_floor(event_payload()), {}),
    # dt 6 = horizon 60 / 10 exactly (config t0 = 192 >= 10 dt)
    "lln_horizon_at_10_dt": (lambda: bm(6.0, lln={"t0": 54.0, "horizon": 60.0, "n": 4}), {}),
    # 256 / 0.0625 = 4096 steps: at the budget
    "lln_path_at_the_budget": (lambda: bm(lln={"t0": 64.0, "horizon": 256.0, "n": 4}),
                               {"MAX_PIECES_PER_PATH": PIECES}),
    # chunks of 1.5 (161 + 5 + 4) = 255 time units: 4,080 steps
    "invariance_chunks_under_the_budget": (
        lambda: bm(invariance={"x_list": [1.0, 161.0], "n": 4, "bandwidth": 0.5,
                               "start_from_rho": False}),
        {"MAX_PIECES_PER_PATH": PIECES}),
    "occupation_levels_under_the_budget": (lambda: fast_bm(1.0), {"MAX_LEVELS": LEVELS}),
    # BM at dt 0.0625: sd_step / 4 = sqrt(0.0625) / 4 = 0.0625 exactly
    "occupation_bandwidth_at_the_floor": (lambda: bm(occupation={"n_paths": 2, "bandwidth": 0.0625}), {}),
    "invariance_bandwidth_at_the_floor": (
        lambda: bm(invariance={"x_list": [1.0, 2.0], "n": 4, "bandwidth": 0.0625, "start_from_rho": False}),
        {}),
}

def under_the_floor(key):
    """BM at dt 0.0625 with the check's bandwidth just under its floor 0.0625."""
    params = {"occupation": {"n_paths": 2}, "invariance": {"x_list": [1.0, 2.0], "n": 4}}[key]
    return bm(**{key: {**params, "bandwidth": 0.0624}})


FLOOR_PROBLEM = "bandwidth 0.0624 below BANDWIDTH_FLOOR sd_step/4 = 0.0625 at dt 0.0625"

# payloads that refusal hooks refuse, each with its check, its budgets and the
# start of its problem; every check with a hook has at least one
REFUSED = {
    "lln": ("lln", lambda: bm(lln={"t0": 64.0, "horizon": 256.0625, "n": 4}),
            {"MAX_PIECES_PER_PATH": PIECES}, "4.1e+03 expected pieces per path exceed PATH_BUDGET"),
    "invariance": ("invariance", lambda: bm(invariance={"x_list": [1.0, 171.0], "n": 4}),
                   {"MAX_PIECES_PER_PATH": PIECES}, "4.32e+03 expected pieces per path exceed PATH_BUDGET"),
    "occupation": ("occupation", lambda: fast_bm(0.97), {"MAX_LEVELS": LEVELS},
                   "3.3e+03 occupation grid levels exceed LEVEL_BUDGET"),
    "occupation_under_the_floor": ("occupation", lambda: under_the_floor("occupation"), {}, FLOOR_PROBLEM),
    "invariance_under_the_floor": ("invariance", lambda: under_the_floor("invariance"), {}, FLOOR_PROBLEM),
    # z2 defaults to 2 z1 = inf, and so does its passage cap 10 z2 / mu
    "overshoot": ("overshoot", lambda: bm(overshoot={"z1": 1e308, "n": 4}), {}, "need a finite cap, got inf"),
}


def set_budgets(monkeypatch, budgets):
    for name, value in budgets.items():
        monkeypatch.setattr(simulate if name == "MAX_PIECES_PER_PATH" else harness, name, value)


class TestConfigAndRunAgree:
    """What config accepts, no check refuses at run time for a reason config holds."""

    @pytest.mark.parametrize("case", [
        *(("shipped", p) for pattern in ("configs/*.json", "perfbench/configs/*.json")
          for p in sorted(ROOT.glob(pattern))),
        *(("edge", name) for name in EDGES),
    ], ids=lambda case: case[1].name if case[0] == "shipped" else case[1])
    def test_an_accepted_config_is_not_refused_when_run(self, case, monkeypatch):
        kind, which = case
        if kind == "shipped":
            config = load_config(which)
        else:
            payload, budgets = EDGES[which]
            set_budgets(monkeypatch, budgets)
            config = ExperimentConfig.from_dict(payload())
        report, _ = run_experiment(config)
        assert [c["check"] for c in report["checks"]] == [k for k in CHECKS if k in config.checks]
        refused = {c["check"]: c["precondition"] for c in report["checks"]
                   if c.get("precondition") in CONFIG_REASONS}
        assert refused == {}
        if kind == "edge":  # each edge case draws its paths and passes its rules
            assert all("precondition" not in c for c in report["checks"])

    def test_every_refusal_hook_refuses_a_payload(self):
        assert {case[0] for case in REFUSED.values()} == {
            key for key, check in CHECKS.items() if check.refusal is not None}

    @pytest.mark.parametrize("case", REFUSED)
    def test_a_refused_payload_fails_to_load(self, case, monkeypatch):
        key, payload, budgets, fragment = REFUSED[case]
        set_budgets(monkeypatch, budgets)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(payload())
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith(f"check_params.{key}: {fragment}")
        d = payload()
        d["checks"] = []  # not run: not refused
        ExperimentConfig.from_dict(d)


def sd_step(triplet, dt):
    """sqrt((sigma^2 + int_{|x|<=eps} x^2 nu(dx)) dt) at the measure's cutoff eps for dt."""
    nu = triplet.levy_measure
    return math.sqrt((triplet.gaussian_coef + nu.small_jump_variance(nu.default_cutoff(dt))) * dt)


STABLE = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0))
TEMPERED = LevyTriplet(1.0, 0.0, TemperedStable(1.5, 1.0, 1.0))


class TestBandwidthFloor:
    """One floor, config's and both checks': sd_step / 4 on grid paths, none on event paths."""

    @pytest.mark.parametrize("triplet, floor, near", [
        (LevyTriplet(1.0, 1.0), 0.025, 0.025),
        (STABLE, sd_step(STABLE, 0.01) / 4.0, 0.0172),
        (TEMPERED, sd_step(TEMPERED, 0.01) / 4.0, 0.0171),
    ], ids=["bm", "stable", "tempered"])
    def test_the_floor_is_a_quarter_of_sd_step(self, triplet, floor, near):
        assert floor == pytest.approx(near, abs=5e-5)
        assert harness.bandwidth_refusal(triplet, 0.01, floor) is None
        under = 0.999 * floor
        assert harness.bandwidth_refusal(triplet, 0.01, under) == (
            "BANDWIDTH_FLOOR", f"bandwidth {under:g} below BANDWIDTH_FLOOR sd_step/4 = {floor:g} at dt 0.01")

    def test_event_paths_have_no_floor(self):
        assert harness.bandwidth_refusal(LevyTriplet.from_dict(event_payload()["triplet"]), 0.01, 5e-324) is None

    @pytest.mark.parametrize("key", ["occupation", "invariance"])
    def test_both_checks_raise_what_config_lists_before_any_draw(self, key, monkeypatch):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(under_the_floor(key))
        assert exc.value.problems == [f"check_params.{key}: {FLOOR_PROBLEM}"]
        d = under_the_floor(key)
        d["checks"] = []
        config = ExperimentConfig.from_dict(d)
        calls = []
        for name in ("sample_path", "sample_paths", "stationary_overshoot"):  # the rho harvest last
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name,
                                lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
        check = CHECKS[key]
        with pytest.raises(PreconditionViolation) as raised:
            check.run(config, resolve(check, config), 1, None, {})
        assert str(raised.value) == f"BANDWIDTH_FLOOR: {FLOOR_PROBLEM}"
        assert calls == []


class TestLastCheckpoint:
    @pytest.mark.parametrize("lln_t0, lln_problem", [
        (1e5, over_budget("check_params.lln", "4e+07")),
        (10.0, "check_params.lln: need t0 >= 50 v/mu^2 = 50, got 10"),
    ])
    def test_the_checks_refusals_are_still_listed(self, lln_t0, lln_problem):
        # t0 * 2^5000 is past the float range: the occupation level grid
        # bounds nothing, while the lln and invariance checks are held as ever
        d = good_payload()
        d["horizon"]["doublings"] = 5000
        d["check_params"] = {"lln": {"t0": lln_t0}, "invariance": {"x_list": [1.0, 1e7]}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            "horizon: t0 * 2^doublings overflows a float",
            over_budget("horizon", "inf"),
            over_budget("check_params.invariance", "1.5e+09"),
            lln_problem,
        ]

    def test_a_last_checkpoint_past_2_to_the_1023_is_a_float(self):
        # 1e-300 * 2^1100 = 1.36e31 is a float, though 2^1100 is not
        d = good_payload()
        d["triplet"] = {"drift": 1.0}
        d["dt"], d["horizon"] = 1e-301, {"t0": 1e-300, "doublings": 1100}
        d["checks"] = ["zero_one"]
        config = ExperimentConfig.from_dict(d)
        assert config.horizon == config.checkpoints[-1] == pytest.approx(1.3583e31, rel=1e-4)
        report, _ = run_experiment(config)
        assert "precondition" not in report["checks"][0]
