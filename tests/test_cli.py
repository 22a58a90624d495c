import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rankseg import DetectorConfig, ModelSpec, Norm, StopRule, generate, segment
from rankseg.cli import build_parser, main
from rankseg.detector import DEFAULT_CONSTANTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(path, values, two_column=False):
    with open(path, "w") as handle:
        for i, v in enumerate(values, start=1):
            handle.write(f"{i},{v}\n" if two_column else f"{v}\n")


class TestSimulate:
    def test_m1_writes_csv_and_truth(self, tmp_path, capsys):
        prefix = tmp_path / "m1"
        code, out, _ = run(capsys, "simulate", "--model", "M1", "--seed", "1",
                           "--out", str(prefix))
        assert code == 0
        lines = (tmp_path / "m1.csv").read_text().strip().splitlines()
        assert len(lines) == 200
        float(lines[0])  # numeric
        truth = json.loads((tmp_path / "m1.truth.json").read_text())
        assert truth["changepoints"] == [100]
        assert truth["length"] == 200
        assert truth["seed"] == 1

    def test_parameterised_model_id(self, tmp_path, capsys):
        # sizes go through --length/--rate; "T1(6000)" is not a model id
        prefix = tmp_path / "g"
        code, _, _ = run(capsys, "simulate", "--model", "NOCHANGE_GAUSS", "--length", "75",
                         "--seed", "2", "--out", str(prefix))
        assert code == 0
        assert len((tmp_path / "g.csv").read_text().strip().splitlines()) == 75
        code, out, err = run(capsys, "simulate", "--model", "T1(6000)", "--seed", "2",
                             "--out", str(tmp_path / "t"))
        assert code == 1
        assert out == ""
        assert "unknown model id 'T1(6000)'" in err
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_model(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--model", "M9", "--seed", "1",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "unknown model" in err

    @pytest.mark.parametrize(
        "argv", [["NOCHANGE_GAUSS", "--length", "0"], ["NOCHANGE_GAUSS", "--length", "-5"],
                 ["nochange_gauss", "--length", "0"], ["T1", "--length", "0"]],
    )
    def test_non_positive_length_exit_1(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, "simulate", "--model", *argv, "--seed", "1",
                             "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert "length must be >= 1" in err
        assert not (tmp_path / "x.csv").exists()

    def test_length_over_float64_budget_exit_1(self, tmp_path, capsys):
        # this once ran until killed, building a ~3e21-entry change-point tuple
        code, out, err = run(capsys, "simulate", "--model", "T1", "--length",
                             "99999999999999999999999", "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error: length must be <= 134,217,728")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv", [["NOCHANGE_POIS", "--rate", "-1"], ["NOCHANGE_POIS", "--rate", "nan"],
                 ["NOCHANGE_POIS", "--rate", "inf", "--length", "50"]],
    )
    def test_bad_rate_exit_1(self, tmp_path, capsys, argv):
        # these once failed inside numpy's Poisson draw
        code, out, err = run(capsys, "simulate", "--model", *argv, "--seed", "1",
                             "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""
        assert "rate must be finite and >= 0" in err
        assert not (tmp_path / "x.csv").exists()


class TestDetectorFlags:
    """Each detector flag sets the DetectorConfig field named by its dest."""

    FIELDS = list(DetectorConfig.__dataclass_fields__)

    @pytest.mark.parametrize("command", [["detect", "x.csv"], ["study", "--model", "M1"]])
    def test_dests_are_config_fields(self, command):
        args = vars(build_parser().parse_args(command))
        others = {"command", "func", "input", "out", "model", "reps", "seed", "length",
                  "rate", "csv"}
        assert sorted(set(args) - others) == sorted(self.FIELDS)
        # the parser's defaults are the config's defaults
        assert DetectorConfig(**{f: args[f] for f in self.FIELDS}) == DetectorConfig()


class TestDetect:
    def test_noise_gives_empty_changepoints(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "noise.csv"
        write_series(path, rng.standard_normal(200))
        code, out, _ = run(capsys, "detect", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 4
        assert payload["changepoints"] == []
        assert payload["length"] == 200
        assert payload["bic"] is not None

    def test_two_column_csv_and_out_file(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0, 1, 60), rng.normal(9, 1, 60)])
        path = tmp_path / "steps.csv"
        write_series(path, values, two_column=True)
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "detect", str(path), "--out", str(out_path))
        assert code == 0
        assert out.strip() == ""
        payload = json.loads(out_path.read_text())
        assert len(payload["changepoints"]) == 1
        assert abs(payload["changepoints"][0] - 60) <= 2

    def test_threshold_stop_omits_path(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "x.csv"
        write_series(path, rng.standard_normal(100))
        code, out, _ = run(capsys, "detect", str(path), "--stop", "threshold")
        payload = json.loads(out)
        assert code == 0
        assert payload["solution_path"] is None
        assert payload["bic"] is None

    def test_flag_combinations(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "x.csv"
        write_series(path, rng.standard_normal(150))
        code, out, _ = run(
            capsys, "detect", str(path), "--norm", "l2", "--lambda", "10",
            "--const", "0.8", "--grid", "40",
            "--split", "off", "--stop", "threshold",
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["norm"] == "l2"
        assert config["expansion_step"] == 10
        assert config["threshold_constant"] == 0.8
        assert config["grid"] == 40
        assert config["split"] is None

    def test_removed_spellings(self, tmp_path, capsys):
        # --rescale is gone (the path rescales exactly under linf) and
        # "auto" was another name for the default window length
        path = tmp_path / "x.csv"
        write_series(path, np.arange(50.0))
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), "--rescale", "on"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), "--split", "auto"])
        assert exc.value.code == 2
        assert "argument --split: expects 'off' or an integer" in capsys.readouterr().err

    def test_l1_without_constant_uses_default(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        write_series(path, np.arange(50.0))
        code, out, _ = run(capsys, "detect", str(path), "--norm", "l1")
        assert code == 0
        resolved = json.loads(out)["config"]["resolved"]
        assert resolved["threshold_constant"] == DEFAULT_CONSTANTS[Norm.L1]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_exit_1(self, tmp_path, capsys, bad):
        path = tmp_path / "x.csv"
        path.write_text("\n".join(["0.0"] * 10 + [bad] + ["5.0"] * 10) + "\n")
        code, out, err = run(capsys, "detect", str(path))
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("const", ["nan", "inf"])
    def test_non_finite_constant_exit_1(self, tmp_path, capsys, const):
        # a NaN constant once exited 0 with no change-points and wrote NaN,
        # which is not valid JSON
        path = tmp_path / "x.csv"
        write_series(path, np.repeat([0.0, 3.0], 100))
        code, out, err = run(capsys, "detect", str(path), "--const", const)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag, value", [("--grid", "2.5"), ("--split", "150.5")])
    def test_non_integer_sizes_exit_2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "x.csv"
        write_series(path, np.arange(50.0))
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err and "or an integer" in err

    def test_table_over_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        # a full table at T = 1000 holds about 4 MB, over a 1 MiB budget
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 2**20)
        path = tmp_path / "x.csv"
        write_series(path, np.random.default_rng(0).standard_normal(1000))
        code, out, err = run(capsys, "detect", str(path), "--grid", "full")
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error:") and "T=1000 and Q=1000" in err

    def test_profile_over_budget_exit_1(self, tmp_path, capsys, monkeypatch):
        # at T = Q = 1000 the table (3.8 MiB) fits a 6 MiB budget and the
        # unsplit scan's full-interval profile (7.6 MiB) does not
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 6 * 2**20)
        path = tmp_path / "x.csv"
        write_series(path, np.random.default_rng(0).standard_normal(1000))
        code, out, err = run(capsys, "detect", str(path), "--grid", "full", "--split", "off")
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error: a scan profile for T=1000 and Q=1000")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "detect", "/nonexistent/input.csv")
        assert code == 1
        assert "/nonexistent/input.csv" in err and "No such file" in err

    def test_non_numeric_rows(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\ntwo\n3.0\n")
        code, _, err = run(capsys, "detect", str(path))
        assert code == 1
        assert "non-numeric" in err

    def test_non_numeric_line_number_counts_blank_lines(self, tmp_path, capsys):
        # blank lines 1, 2 and 5 once made line 6 read as line 3
        path = tmp_path / "bad.csv"
        path.write_text("\n\n1.0\n2.0\n\nabc\n")
        code, _, err = run(capsys, "detect", str(path))
        assert code == 1
        assert f"{path}:6: non-numeric value 'abc'" in err

    def test_undecodable_input_names_path(self, tmp_path, capsys):
        # this once exited 1 with a bare "'utf-8' codec can't decode" message
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe1.0\n2.0\n")
        code, out, err = run(capsys, "detect", str(path))
        assert code == 1
        assert out == ""
        assert f"{path}:1: non-numeric value" in err

    def test_empty_series_distinct_exit(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "detect", str(path))
        assert code == 3

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_exit_zero_with_changepoints_found(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(0, 1, 80), rng.normal(10, 1, 80)])
        path = tmp_path / "jump.csv"
        write_series(path, values)
        code, out, _ = run(capsys, "detect", str(path))
        assert code == 0
        assert len(json.loads(out)["changepoints"]) == 1


class TestStudy:
    def test_report_and_csv(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "study", "--model", "M1", "--reps", "3", "--seed", "0",
            "--out", str(report_path), "--csv", str(csv_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["model"] == "M1"
        assert sum(payload["buckets"].values()) == 3
        header, row = csv_path.read_text().strip().splitlines()
        assert header.startswith("model,")
        assert row.startswith("M1,3,")

    def test_l1_without_constant_uses_default(self, capsys):
        code, out, _ = run(capsys, "study", "--model", "M1", "--reps", "2",
                           "--norm", "l1")
        assert code == 0
        resolved = json.loads(out)["config"]["resolved"]
        assert resolved["threshold_constant"] == DEFAULT_CONSTANTS[Norm.L1]

    def test_non_finite_constant_fails_cleanly(self, capsys):
        code, out, err = run(capsys, "study", "--model", "M1", "--reps", "2",
                             "--const", "inf")
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_non_positive_reps_fails_cleanly(self, capsys, reps):
        code, out, err = run(capsys, "study", "--model", "M1", "--reps", reps)
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error:") and "reps must be >= 1" in err

    def test_negative_rate_fails_cleanly(self, capsys):
        # this once exited 0 with a numpy error in every replication
        code, out, err = run(capsys, "study", "--model", "NOCHANGE_POIS", "--rate", "-1",
                             "--reps", "2", "--stop", "threshold")
        assert code == 1
        assert out == ""
        assert "rate must be finite and >= 0" in err

    def test_negative_seed_fails_cleanly(self, capsys):
        # this once exited 0 with a numpy error in every replication
        code, out, err = run(capsys, "study", "--model", "M1", "--reps", "2", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "seed must be >= 0" in err

    def test_zero_length_fails_cleanly(self, capsys):
        code, out, err = run(capsys, "study", "--model", "NOCHANGE_GAUSS", "--reps", "1",
                             "--length", "0")
        assert code == 1
        assert out == ""
        assert "length must be >= 1" in err

    def test_length_of_fixed_size_model_fails_cleanly(self, capsys):
        # this once exited 0 with "length": 600 over 200-point M1 series
        code, out, err = run(capsys, "study", "--model", "M1", "--length", "600",
                             "--reps", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error:") and "model M1 takes no length" in err

    def test_report_records_length_and_rate(self, capsys):
        # a T1(600) study once wrote "model": "T1" and nothing of its size
        code, out, _ = run(capsys, "study", "--model", "T1", "--length", "600",
                           "--reps", "1", "--stop", "threshold")
        assert code == 0
        payload = json.loads(out)
        assert (payload["model"], payload["length"], payload["rate"]) == ("T1", 600, None)
        code, out, _ = run(capsys, "study", "--model", "NOCHANGE_POIS", "--rate", "2",
                           "--reps", "1", "--stop", "threshold")
        assert code == 0
        payload = json.loads(out)
        assert (payload["length"], payload["rate"]) == (None, 2.0)

    def test_rate_above_poisson_limit_fails_cleanly(self, capsys):
        # this once exited 0 with "lam value too large" in every replication
        code, out, err = run(capsys, "study", "--model", "NOCHANGE_POIS", "--rate", "1e20",
                             "--length", "50", "--reps", "2", "--stop", "threshold")
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error:") and "numpy's Poisson limit" in err

    def test_profile_over_budget_exits_as_detect(self, tmp_path, capsys, monkeypatch):
        # this once exited 0 with a report in which every replication failed
        monkeypatch.setattr("rankseg.contrast.MAX_TABLE_BYTES", 6 * 2**20)
        flags = ["--grid", "full", "--split", "off", "--stop", "threshold"]
        code, out, err = run(capsys, "study", "--model", "NOCHANGE_GAUSS", "--length", "1000",
                             "--reps", "2", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("rankseg: error: a scan profile for T=1000 and Q=1000")
        path = tmp_path / "x.csv"
        write_series(path, generate(ModelSpec("NOCHANGE_GAUSS", 0, length=1000)).values)
        assert run(capsys, "detect", str(path), *flags) == (code, out, err)

    def test_stdout_report(self, capsys):
        code, out, _ = run(capsys, "study", "--model", "NC", "--reps", "2",
                           "--stop", "threshold")
        assert code == 0
        assert json.loads(out)["reps"] == 2


class TestEvaluate:
    def test_hand_value(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        est = tmp_path / "est.json"
        truth.write_text(json.dumps({"changepoints": [50]}))
        est.write_text(json.dumps([55]))
        code, out, _ = run(capsys, "evaluate", "--truth", str(truth),
                           "--est", str(est), "--T", "100")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.1)

    def test_empty_est_prints_na(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        est = tmp_path / "est.json"
        truth.write_text(json.dumps({"changepoints": [50]}))
        est.write_text(json.dumps([]))
        code, out, _ = run(capsys, "evaluate", "--truth", str(truth),
                           "--est", str(est), "--T", "100")
        assert code == 0
        assert out.strip() == "NA"

    def test_bad_json(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text("{not json")
        est = tmp_path / "est.json"
        est.write_text("[1]")
        code, _, err = run(capsys, "evaluate", "--truth", str(truth),
                           "--est", str(est), "--T", "100")
        assert code == 1
        assert "invalid JSON" in err

    def test_undecodable_json_names_path(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text("[50]")
        est = tmp_path / "est.json"
        est.write_bytes(b"\xff\xfe[1]")
        code, out, err = run(capsys, "evaluate", "--truth", str(truth),
                             "--est", str(est), "--T", "100")
        assert code == 1
        assert out == ""
        assert f"{est}: invalid JSON" in err

    def evaluate(self, tmp_path, capsys, truth, est, length):
        (tmp_path / "truth.json").write_text(json.dumps(truth))
        (tmp_path / "est.json").write_text(json.dumps(est))
        return run(capsys, "evaluate", "--truth", str(tmp_path / "truth.json"),
                   "--est", str(tmp_path / "est.json"), "--T", str(length))

    def test_boolean_positions_rejected(self, tmp_path, capsys):
        code, out, err = self.evaluate(tmp_path, capsys, [True, False], [50], 200)
        assert code == 1
        assert out == ""
        assert "truth.json: change-points must be an integer, got True" in err

    @pytest.mark.parametrize("truth", [{"changepoints": 50}, "50", {}])
    def test_non_list_rejected(self, tmp_path, capsys, truth):
        code, out, err = self.evaluate(tmp_path, capsys, truth, [50], 200)
        assert code == 1
        assert out == ""
        assert "truth.json: expected a list of integers" in err

    @pytest.mark.parametrize("est", [[250], [-3], [0], [200], [7, 7], [9, 3]])
    def test_positions_outside_range_or_unordered_rejected(self, tmp_path, capsys, est):
        code, out, err = self.evaluate(tmp_path, capsys, [100], est, 200)
        assert code == 1
        assert out == ""
        assert "est.json: change-points must" in err

    @pytest.mark.parametrize("length", ["0", "1", "-4"])
    def test_length_below_two_rejected(self, tmp_path, capsys, length):
        code, out, err = self.evaluate(tmp_path, capsys, [], [], length)
        assert code == 1
        assert out == ""
        assert "--T must be >= 2" in err

    def test_boundary_positions_accepted(self, tmp_path, capsys):
        code, out, _ = self.evaluate(tmp_path, capsys, [1], [199], 200)
        assert code == 0
        assert float(out.strip()) == pytest.approx(198 / 199)


class TestDetectJson:
    """The ``detect`` document is ``Segmentation.to_dict()`` plus the runtime."""

    KEYS = [
        "schema", "length", "changepoints", "scores", "solution_path",
        "removal_scores", "bic", "config", "runtime_ms",
    ]

    def check(self, tmp_path, capsys, values, config, *flags):
        path = tmp_path / "x.csv"
        write_series(path, values)
        code, out, _ = run(capsys, "detect", str(path), *flags)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == self.KEYS
        assert payload.pop("runtime_ms") >= 0.0
        expected = segment(np.loadtxt(path), config).to_dict()
        assert payload == json.loads(json.dumps(expected))
        return payload

    def test_bic_document_is_to_dict_plus_runtime(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1, 70), rng.normal(4, 1, 70)])
        payload = self.check(tmp_path, capsys, values, DetectorConfig())
        assert payload["schema"] == 4
        assert payload["bic"]["chosen_j"] == len(payload["changepoints"])
        assert sorted(payload["solution_path"][: payload["bic"]["chosen_j"]]) == (
            payload["changepoints"]
        )

    def test_threshold_document_is_to_dict_plus_runtime(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        config = DetectorConfig(stop=StopRule.THRESHOLD)
        payload = self.check(
            tmp_path, capsys, rng.standard_normal(90), config, "--stop", "threshold"
        )
        assert payload["solution_path"] is None
        assert payload["removal_scores"] is None
        assert payload["bic"] is None


class TestOutputErrors:
    """Outputs are written after the work, all or none; a failure to write one is an error line."""

    @pytest.mark.parametrize(
        "command",
        [
            ["detect", "{series}", "--out", "{missing}/x.json"],
            ["study", "--model", "M1", "--reps", "1", "--csv", "{missing}/x.csv"],
            ["simulate", "--model", "M1", "--out", "{missing}/m1"],
        ],
        ids=["detect", "study", "simulate"],
    )
    def test_missing_directory_exit_1(self, tmp_path, capsys, command):
        # each once finished the work, then died with a FileNotFoundError traceback
        write_series(tmp_path / "x.csv", np.arange(50.0))
        missing = tmp_path / "missing"
        argv = [arg.format(series=tmp_path / "x.csv", missing=missing) for arg in command]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("rankseg: error:") and err.count("\n") == 1
        assert str(missing) in err

    def test_failed_study_leaves_report_and_stdout_alone(self, tmp_path, capsys):
        # the report was once written, or printed, before the CSV failed
        report = tmp_path / "r.json"
        report.write_bytes(b"earlier report\n")
        missing_csv = str(tmp_path / "missing" / "x.csv")
        for out in (["--out", str(report)], []):
            code, out_text, err = run(capsys, "study", "--model", "M1", "--reps", "1",
                                      *out, "--csv", missing_csv)
            assert code == 1
            assert out_text == ""
            # the error names the CSV, not its temporary file
            assert err == f"rankseg: error: [Errno 2] No such file or directory: {missing_csv!r}\n"
            assert report.read_bytes() == b"earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    def test_failed_simulate_leaves_csv_and_stdout_alone(self, tmp_path, capsys):
        # the CSV was once rewritten before the truth file failed
        (tmp_path / "p.csv").write_bytes(b"1.0\n2.0\n")
        (tmp_path / "p.truth.json").mkdir()
        code, out, err = run(capsys, "simulate", "--model", "M1", "--out", str(tmp_path / "p"))
        assert code == 1
        assert out == ""
        assert str(tmp_path / "p.truth.json") in err
        assert (tmp_path / "p.csv").read_bytes() == b"1.0\n2.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p.truth.json"]

    def test_symlinked_out_updates_the_file_it_names(self, tmp_path, capsys):
        # staging once replaced the link itself with a regular file
        write_series(tmp_path / "x.csv", np.arange(50.0))
        real = tmp_path / "real.json"
        real.write_bytes(b"earlier\n")
        real.chmod(0o600)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, out, _ = run(capsys, "detect", str(tmp_path / "x.csv"), "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and link.resolve() == real
        assert "changepoints" in json.loads(real.read_text())
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json", "x.csv"]

    def test_pipe_out_is_written_through(self, tmp_path, capsys):
        # a target that is not a regular file (a pipe, /dev/null) was once
        # replaced by one
        write_series(tmp_path / "x.csv", np.arange(50.0))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "detect", str(tmp_path / "x.csv"), "--out", str(pipe))
        reader.join(timeout=30)
        assert (code, out) == (0, "")
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert "changepoints" in json.loads(received[0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "x.csv"]

    def test_closed_stdout_exit_1_quietly(self):
        # writing to a pipe nobody reads once ended in a BrokenPipeError traceback
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rankseg.cli", "study", "--model", "M1", "--reps", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
