"""Command line behavior: exit codes, output shapes, seed override."""

import json
from pathlib import Path

import pytest

from perpetua.cli import main


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

    @pytest.mark.parametrize("check_params, fragment", [
        ({"lln": {"bogus": 1}}, "check_params.lln.bogus: unknown parameter"),
        ({"lln": {"n": "abc"}}, "check_params.lln.n: must be an integer"),
        ({"occupation": {"npaths": 3}}, "check_params.occupation.npaths: unknown parameter"),
        ({"overshoot": {"z1": [1]}}, "check_params.overshoot.z1: must be a finite number"),
        ({"lln": 5}, "check_params.lln: must be an object"),
        ({"invariance": {"n": -3}}, "check_params.invariance.n: must be > 0"),
        ({"zero_one": {"x": 1}}, "check_params.zero_one.x: unknown parameter"),
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

    @pytest.mark.parametrize("argv", [
        ["verdict", "--seed", "3"], ["classify", "--out", "x"],
        ["verify", "--format", "csv"], ["simulate", "--out", "x", "--threads", "2"],
    ])
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", write_config(tmp_path)] + argv[1:])
        assert exc.value.code == 2

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
        for p in check.params:
            assert f"{p.name} [" in listed[key], (key, p.name)
        if not check.params:
            assert "none" in listed[key]


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

    def test_package_error_in_any_check_is_a_failed_entry(self, tmp_path, capsys):
        # rate * dt = 1 jump per step: the sampler refuses with StepTooCoarse
        # inside zero_one, and the run still goes on to lln
        cfg = write_config(
            tmp_path,
            triplet={"drift": 1.0, "gaussian": 0.0, "levy_measure": {
                "family": "compound_poisson",
                "params": {"rate": 100.0,
                           "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}},
            }},
            checks=["zero_one", "lln"],
        )
        out = tmp_path / "run"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [e["check"] for e in report["checks"]] == ["zero_one", "lln"]
        assert report["checks"][0]["notes"].startswith("StepTooCoarse")

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
