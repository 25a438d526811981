"""Config file validation: every problem reported, defaults applied."""

import json
from pathlib import Path

import pytest

from perpetua import ConfigError, ExperimentConfig, load_config
from perpetua.checks import CHECKS
from perpetua.simulate import MAX_STEPS_PER_PATH


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
            "check_params.invariance.x_list: must be > 0, got -2.0",
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
        assert exc.value.problems == ["horizon.t0: must be positive, got -1.0",
                                      "dt: must be <= t0/10 = -0.1, got 0.01", bad_z2]
        d["horizon"]["t0"], d["triplet"]["drift"] = 2.0, "fast"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems[1:] == [bad_z2]

    def test_a_default_level_without_a_positive_mean_is_left_to_the_check(self):
        d = good_payload()
        d["triplet"]["drift"] = -1.0
        d["check_params"] = {"overshoot": {"z2": 0.5}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["check_params.overshoot.z2: must be > z1 = 1, got 0.5"]
        d["check_params"] = {}
        ExperimentConfig.from_dict(d)  # the check refuses with MEAN_RANGE when run

    def test_step_budget_refuses_a_tiny_dt(self):
        d = good_payload()
        d["dt"] = 1e-6
        d["horizon"] = {"t0": 2.0, "doublings": 7}  # 2.56e8 steps per path
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        # the checks' own paths are over budget too, and are listed in the same run
        assert exc.value.problems == [
            f"horizon: 2.56e+08 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)",
            f"check_params.invariance: 2.1e+07 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)",
            f"check_params.lln: 2e+08 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)",
        ]

    def test_step_budget_holds_the_lln_horizon(self):
        d = good_payload()
        d["check_params"] = {"lln": {"t0": 1e5}}  # 4 t0 / dt = 4e7
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"check_params.lln: 4e+07 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)"
        ]
        d["checks"] = ["zero_one"]  # lln not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_step_budget_holds_the_invariance_chunks(self):
        # BM drift 1 at dt 0.01: chunks of 1.5 (1e7 + 5 + 4) time units
        d = good_payload()
        d["check_params"] = {"invariance": {"x_list": [1e7]}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"check_params.invariance: 1.5e+09 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)"
        ]
        d["checks"] = ["zero_one"]  # invariance not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_event_paths_are_not_held_to_dt(self):
        # about 256 expected jumps per path; horizon/dt would be 2.56e8 steps
        d = event_payload()
        d["dt"] = 1e-6
        d["check_params"] = {"lln": {"t0": 100.0}}  # 4 t0 / dt = 4e8 grid steps
        assert ExperimentConfig.from_dict(d).dt == 1e-6

    def test_event_budget_holds_the_horizon_when_validated(self):
        d = event_payload(rate=1e6)  # 256 time units at 1e6 jumps each
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"horizon: 2.56e+08 expected jumps per path exceed EVENT_BUDGET {MAX_STEPS_PER_PATH} "
            "(rate*horizon)",
            f"check_params.lln: 8e+07 expected jumps per path exceed EVENT_BUDGET "
            f"{MAX_STEPS_PER_PATH} (rate*horizon)",
        ]

    def test_event_budget_holds_the_lln_horizon(self):
        d = event_payload(rate=1e5)
        d["horizon"] = {"t0": 2.0, "doublings": 4}  # 3.2e6 expected jumps
        d["check_params"] = {"lln": {"t0": 100.0, "horizon": 400.0}}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"check_params.lln: 4e+07 expected jumps per path exceed EVENT_BUDGET "
            f"{MAX_STEPS_PER_PATH} (rate*horizon)"
        ]
        d["checks"] = ["zero_one"]  # lln not run: its budget does not apply
        ExperimentConfig.from_dict(d)

    def test_a_horizon_past_the_float_range_is_refused(self):
        # pure drift draws no events, so only the horizon itself can overflow
        d = good_payload()
        d["triplet"] = {"drift": 1.0}
        d["horizon"]["doublings"] = 5000
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == ["horizon: t0 * 2^doublings overflows a float"]

    @pytest.mark.parametrize("name", ["bm_drift_exp_decay.json", "stable_half_control.json"])
    def test_shipped_configs_validate(self, name):
        load_config(Path(__file__).resolve().parents[1] / "configs" / name)

    def test_huge_doublings_is_refused_not_overflowed(self):
        d = good_payload()
        d["horizon"]["doublings"] = 5000
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert "STEP_BUDGET" in str(exc.value)

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
