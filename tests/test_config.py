"""Config file validation: every problem reported, defaults applied."""

import json

import pytest

from perpetua import ConfigError, ExperimentConfig, load_config
from perpetua.checks import CHECKS
from perpetua.config import MAX_STEPS_PER_PATH


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

    @pytest.mark.parametrize("value", [True, "nan", "inf", [1.0]])
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

    def test_step_budget_refuses_a_tiny_dt(self):
        d = good_payload()
        d["dt"] = 1e-6
        d["horizon"] = {"t0": 2.0, "doublings": 7}  # 2.56e8 steps per path
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"horizon: 2.56e+08 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)"
        ]

    def test_step_budget_holds_the_lln_horizon(self):
        d = good_payload()
        d["check_params"] = {"lln": {"t0": 1e4, "dt": 1e-3}}  # 4 t0 / dt = 4e7
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(d)
        assert exc.value.problems == [
            f"check_params.lln: 4e+07 steps per path exceed STEP_BUDGET {MAX_STEPS_PER_PATH} (horizon/dt)"
        ]
        d["checks"] = ["zero_one"]  # lln not run: its budget does not apply
        ExperimentConfig.from_dict(d)

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
