"""Command-line interface: flags, config files, CSV outputs, exit codes."""

import json
import re

import pytest

from diffloc.harness import cli
from diffloc.harness.cli import main
from diffloc.harness.suites import variance_compare
from diffloc.harness.tasks import SyntheticTask
from diffloc.harness.training import RunConfig


FAST = [
    "--task", "signal1d",
    "--task-size", "16",
    "--train-count", "16",
    "--val-count", "8",
    "--test-count", "8",
    "--epochs", "2",
    "--loss", "soft",
]


def run_train(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(["train", *FAST, "--seed", "3", "--out", str(out), *extra])
    assert code == 0
    return out.read_bytes()


class TestTrain:
    def test_writes_history_with_exact_header(self, tmp_path):
        data = run_train(tmp_path, "history.csv")
        lines = data.decode("utf-8").splitlines()
        assert lines[0] == "epoch,loss,val_mean_err,tau"
        assert len(lines) == 3  # header + one row per epoch
        assert lines[1].split(",")[0] == "0"

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a = run_train(tmp_path, "a.csv")
        b = run_train(tmp_path, "b.csv")
        assert a == b

    def test_seed_changes_output(self, tmp_path):
        a = run_train(tmp_path, "a.csv")
        out = tmp_path / "c.csv"
        assert main(["train", *FAST, "--seed", "4", "--out", str(out)]) == 0
        assert a != out.read_bytes()

    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tau_end": 0.5, "epochs": 2, "loss": "soft",
                                      "task_size": 16, "train_count": 16,
                                      "val_count": 8, "test_count": 8}))
        out = tmp_path / "h.csv"
        assert main(["train", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert rows[-1].split(",")[-1] == "0.5"  # tau_end came from the config

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epochs": 5, "task_size": 16, "train_count": 16,
                                      "val_count": 8, "test_count": 8, "loss": "soft"}))
        out = tmp_path / "h.csv"
        assert main(["train", "--config", str(config), "--epochs", "2",
                     "--seed", "0", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_config_keys_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"momentum": 0.9}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            main(["train", "--config", str(config)])

    def test_non_object_config_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit, match="flat JSON object"):
            main(["train", "--config", str(config)])

    def test_no_flags_use_dataclass_defaults(self, tmp_path, monkeypatch):
        seen = []

        def fake_train(config):
            seen.append(config)
            return None, []

        monkeypatch.setattr(cli, "train", fake_train)
        monkeypatch.chdir(tmp_path)
        assert main(["train"]) == 0
        assert seen == [RunConfig(task=SyntheticTask("signal1d"))]

    def test_unknown_loss_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--loss", "hinge"])


class TestEvalAndCalibrate:
    @pytest.fixture()
    def trained_model(self, tmp_path):
        model_path = tmp_path / "model.npz"
        run_train(tmp_path, "history.csv", extra=["--model-out", str(model_path)])
        return model_path

    def test_eval_uses_saved_task_identity(self, tmp_path, trained_model):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(trained_model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "idx,pred_0,gt_0,peak,err"
        assert len(lines) == 9  # header + test_count rows

    def test_eval_split_override(self, tmp_path, trained_model):
        out = tmp_path / "eval_val.csv"
        assert main(["eval", "--model", str(trained_model), "--split", "val",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 9  # header + val_count rows

    def test_eval_is_byte_deterministic(self, tmp_path, trained_model):
        a, b = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["eval", "--model", str(trained_model), "--out", str(a)]) == 0
        assert main(["eval", "--model", str(trained_model), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_without_sidecar_checks_model_against_task(self, tmp_path, trained_model):
        (tmp_path / "model.npz.json").unlink()
        out = tmp_path / "eval.csv"
        # The default task is signal1d of size 32; the model was trained on 16.
        with pytest.raises(SystemExit, match="16 inputs to 16 points.*signal1d of size 32 has 32"):
            main(["eval", "--model", str(trained_model), "--out", str(out)])
        assert not out.exists()
        assert main(["eval", "--model", str(trained_model), "--task-size", "16", "--seed", "3",
                     "--test-count", "8", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 9

    def test_calibrate_reads_eval_records(self, tmp_path, trained_model):
        records = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(trained_model), "--out", str(records)]) == 0
        report = tmp_path / "cal.csv"
        assert main(["calibrate", "--records", str(records), "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("calibration_r,")
        assert lines[2] == "count,8"

    def test_calibrate_needs_two_records(self, tmp_path):
        records = tmp_path / "one.csv"
        records.write_text("idx,peak,err\n0,0.5,1.0\n")
        with pytest.raises(SystemExit, match="two records"):
            main(["calibrate", "--records", str(records)])

    def test_calibrate_names_a_missing_column(self, tmp_path):
        records = tmp_path / "no_peak.csv"
        records.write_text("idx,pred_0,err\n0,1.0,0.5\n1,2.0,0.25\n")
        with pytest.raises(SystemExit, match=re.escape(f"{records} has no peak column")):
            main(["calibrate", "--records", str(records)])

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("1,abc,0.25", "peak 'abc'"),
            ("1,nan,0.25", "peak 'nan'"),
            ("1,0.5,inf", "err 'inf'"),
            ("1,0.5", "err None"),
        ],
        ids=["not-a-number", "nan-peak", "infinite-err", "short-row"],
    )
    def test_calibrate_names_a_bad_value(self, tmp_path, capsys, row, problem):
        records = tmp_path / "bad.csv"
        records.write_text(f"idx,peak,err\n0,0.5,1.0\n{row}\n2,0.75,0.5\n")
        with pytest.raises(SystemExit, match=re.escape(f"{records} line 3: {problem} is not a finite number")):
            main(["calibrate", "--records", str(records)])
        assert "calibration_r" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--loss", "samp"],
            ["--basis", "gaussian"],
            ["--num-samples", "3"],
            ["--tau-start", "1.0"],
            ["--tau-end", "0.1"],
            ["--anneal", "linear"],
            ["--distance", "l1"],
            ["--sigma-t-sq", "1.0"],
            ["--reg-weight", "0.5"],
            ["--epochs", "2"],
            ["--batch", "4"],
            ["--lr", "9"],
            ["--lr-schedule", "constant"],
            ["--hidden", "3"],
            ["--model-out", "z.npz"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_eval_rejects_training_flags(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["eval", "--model", "m.npz", *flag])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSuiteCommands:
    def test_gradcheck_passes_and_writes_rows(self, tmp_path):
        out = tmp_path / "gc.csv"
        assert main(["gradcheck", "--seeds", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "loss,basis,ndim,seed,max_rel_error,passed"
        assert len(lines) == 1 + 5 * 3 * 2  # 5 losses x 3 bases x 2 dims x 1 seed
        assert all(line.endswith(",1") for line in lines[1:])

    def test_distcheck_small(self, tmp_path):
        # ".csv" inside a directory name must survive in the relaxed path.
        out = tmp_path / "runs.csv.d" / "dc.csv"
        assert main(["distcheck", "--maps", "1", "--draws", "20000", "--out", str(out)]) == 0
        assert out.exists()
        relaxed = tmp_path / "runs.csv.d" / "dc_relaxed.csv"
        assert relaxed.exists()
        assert len(out.read_text().splitlines()) == 4  # header + 3 bases
        assert len(relaxed.read_text().splitlines()) == 4

    def test_varcompare_small(self, tmp_path):
        out = tmp_path / "vc.csv"
        assert main(["varcompare", "--seeds", "2", "--draws", "2000", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,trace_score,trace_reparam,coord_greater_frac,trace_ordered"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--seeds", "0"],
            ["distcheck", "--maps", "0"],
            ["distcheck", "--draws", "-5"],
            ["varcompare", "--draws", "200", "--seeds", "0"],
            ["varcompare", "--draws", "0"],
            ["varcompare", "--tau", "0"],
            ["varcompare", "--tau", "nan"],
            ["varcompare", "--seeds", "two"],
        ],
    )
    def test_non_positive_sizes_are_parser_errors(self, argv, monkeypatch, capsys):
        def never(**kwargs):
            raise AssertionError(f"suite ran with {kwargs}")

        for name in ("gradcheck_suite", "distcheck_suite", "variance_compare"):
            monkeypatch.setattr(cli, name, never)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err

    def test_given_values_reach_the_suites(self, monkeypatch):
        seen = {}

        def fake_compare(**kwargs):
            seen.update(kwargs)
            return variance_compare(num_seeds=1, draws=100)

        monkeypatch.setattr(cli, "variance_compare", fake_compare)
        assert main(["varcompare", "--seeds", "1", "--tau", "0.25"]) == 0
        assert seen == {"num_seeds": 1, "tau": 0.25}
        seen.clear()
        assert main(["varcompare"]) == 0
        assert seen == {}

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
