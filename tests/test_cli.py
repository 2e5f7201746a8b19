"""Command-line interface: flags, config files, CSV outputs, exit codes."""

import argparse
import dataclasses
import inspect
import json
import re
import zipfile

import numpy as np
import pytest

from diffloc.harness import cli
from diffloc.harness.cli import main
from diffloc.harness.model import MLPModel
from diffloc.harness.suites import variance_compare
from diffloc.harness.tasks import TASK_KINDS, SyntheticTask, task_support
from diffloc.harness.training import RunConfig, evaluate


FAST = [
    "--task", "signal1d",
    "--task-size", "16",
    "--train-count", "16",
    "--val-count", "8",
    "--test-count", "8",
    "--epochs", "2",
    "--loss", "soft",
]


def save_model(path, task):
    """An untrained model that fits `task`, saved with it."""
    n = task_support(task).n
    MLPModel(n, 4, n).save(path, task)


def run_train(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(["train", *FAST, "--seed", "3", "--out", str(out), *extra])
    assert code == 0
    return out.read_bytes()


# Each flag of train and eval -> (its type, its choices).  argparse passes
# the text of a flag with no type through, as str does.
TASK_FLAGS = {
    "--config": (str, None),
    "--out": (str, None),
    "--task": (str, ("signal1d", "heat2d", "scatter3d")),
    "--task-size": (int, None),
    "--task-noise": (float, None),
    "--train-count": (int, None),
    "--val-count": (int, None),
    "--test-count": (int, None),
    "--seed": (int, None),
}
TRAIN_FLAGS = {
    **TASK_FLAGS,
    "--loss": (str, ("soft", "discrete", "samp", "soft-vr", "soft-dr")),
    "--basis": (str, ("uniform", "triangular", "gaussian")),
    "--num-samples": (int, None),
    "--tau-start": (float, None),
    "--tau-end": (float, None),
    "--anneal": (str, ("exponential", "linear")),
    "--distance": (str, ("l1", "l2-squared")),
    "--sigma-t-sq": (float, None),
    "--reg-weight": (float, None),
    "--epochs": (int, None),
    "--batch": (int, None),
    "--lr": (float, None),
    "--lr-schedule": (str, ("constant", "cosine")),
    "--hidden": (int, None),
    "--model-out": (str, None),
}
EVAL_FLAGS = {**TASK_FLAGS, "--model": (str, None), "--split": (str, ("train", "val", "test"))}


@pytest.mark.parametrize("command, flags", [("train", TRAIN_FLAGS), ("eval", EVAL_FLAGS)], ids=["train", "eval"])
def test_flags_are_pinned(monkeypatch, command, flags):
    built = []

    def capture(parser, args=None, namespace=None):
        built.append(parser)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main([command])
    (subcommands,) = [a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        option: (action.type or str, tuple(action.choices) if action.choices else None)
        for action in subcommands.choices[command]._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert found == flags


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

    def test_divergence_ends_in_one_line(self, tmp_path):
        out = tmp_path / "history.csv"
        with pytest.raises(SystemExit) as exited:
            main(["train", *FAST, "--lr", "1e200", "--out", str(out)])
        assert exited.value.code == "training diverged at epoch 0: non-finite value in output of 'matrix-multiply'"
        assert list(tmp_path.iterdir()) == []

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
        # The model file is the only artefact train writes beside its history.
        assert not (tmp_path / "model.npz.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["history.csv", "model.npz"]
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(trained_model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "idx,pred_0,gt_0,peak,err"
        assert len(lines) == 9  # header + test_count rows

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_eval_task_precedence(self, tmp_path, monkeypatch, kind):
        """flag > --config > the model's task > the dataclass defaults."""
        seen = []

        def spy_evaluate(model, task, split):
            seen.append(task)
            return evaluate(model, task, split)

        monkeypatch.setattr(cli, "evaluate", spy_evaluate)
        task = SyntheticTask(kind, size=12, noise=0.25, train_count=3, val_count=2, test_count=2, seed=5)
        model, config, out = tmp_path / "m.npz", tmp_path / "run.json", tmp_path / "eval.csv"
        save_model(model, task)
        assert main(["eval", "--model", str(model), "--out", str(out)]) == 0
        config.write_text(json.dumps({"task_noise": 0.75, "test_count": 5, "seed": 7}))
        assert main(["eval", "--model", str(model), "--config", str(config), "--test-count", "4",
                     "--out", str(out)]) == 0
        assert seen == [task, dataclasses.replace(task, noise=0.75, test_count=4, seed=7)]

    def test_eval_keeps_the_training_files_of_a_shared_config(self, tmp_path, monkeypatch):
        # A config's out and model_out are train's; eval writes --out or eval.csv.
        # Its split is eval's, and train accepts it and ignores it.
        monkeypatch.chdir(tmp_path)
        shared = {"out": "runs/history.csv", "model_out": "runs/m.npz", "split": "val"}
        (tmp_path / "run.json").write_text(json.dumps(shared))
        assert main(["train", *FAST, "--config", "run.json"]) == 0
        history = (tmp_path / "runs" / "history.csv").read_bytes()
        splits = []

        def spy_evaluate(model, task, split):
            splits.append(split)
            return evaluate(model, task, split)

        monkeypatch.setattr(cli, "evaluate", spy_evaluate)
        assert main(["eval", "--config", "run.json", "--model", "runs/m.npz"]) == 0
        assert splits == ["val"]
        assert (tmp_path / "runs" / "history.csv").read_bytes() == history
        assert (tmp_path / "eval.csv").read_text().startswith("idx,pred_0,gt_0,peak,err\n")

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

    def test_eval_checks_model_against_overridden_task(self, tmp_path, trained_model):
        out = tmp_path / "eval.csv"
        # The model was trained on signal1d of size 16.
        with pytest.raises(SystemExit, match="16 inputs to 16 points.*signal1d of size 32 has 32 of each$"):
            main(["eval", "--model", str(trained_model), "--task-size", "32", "--out", str(out)])
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

    def test_calibrate_flat_peaks_are_undefined(self, tmp_path, capsys):
        # 0.1 three times has an inexact mean, so its deviations are not zero.
        records = tmp_path / "flat.csv"
        records.write_text("idx,peak,err\n0,0.1,1.0\n1,0.1,0.25\n2,0.1,0.5\n")
        report = tmp_path / "cal.csv"
        assert main(["calibrate", "--records", str(records), "--out", str(report)]) == 0
        assert report.read_text().splitlines()[1] == "calibration_r,undefined"
        assert "undefined" in capsys.readouterr().out

    def test_calibrate_needs_two_records(self, tmp_path):
        records = tmp_path / "one.csv"
        records.write_text("idx,peak,err\n0,0.5,1.0\n")
        with pytest.raises(SystemExit, match="two records"):
            main(["calibrate", "--records", str(records)])

    def test_eval_of_a_one_example_split_has_undefined_calibration(self, tmp_path, capsys):
        # One record gives nothing to correlate; calibrate still refuses the file.
        model, out = tmp_path / "model.npz", tmp_path / "eval.csv"
        run_train(tmp_path, "history.csv", extra=["--test-count", "1", "--model-out", str(model)])
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2
        assert capsys.readouterr().out.splitlines()[2].split()[-1] == "undefined"
        with pytest.raises(SystemExit, match="two records"):
            main(["calibrate", "--records", str(out)])

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


class TestInputFiles:
    """An input file that cannot be read or parsed ends in one line naming the flag and the path."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["calibrate", "--records", "nope.csv"], "--records nope.csv"),
            (["eval", "--model", "nope.npz"], "--model nope.npz"),
            (["train", "--config", "missing.json"], "--config missing.json"),
            (["eval", "--model", "nope.npz", "--config", "missing.json"], "--config missing.json"),
        ],
        ids=["calibrate-records", "eval-model", "train-config", "eval-config"],
    )
    def test_missing_file(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == f"{flag}: No such file or directory"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "entries, reason",
        [
            (None, "not an .npz archive"),
            ({"meta": None}, "no meta entry"),
            ({"meta": np.frombuffer(b"{in_dim: 16", dtype=np.uint8)}, "meta is not a JSON object"),
            ({"meta": {"in_dim": 16, "out_dim": 16, "task": {"kind": "signal1d"}}}, "meta lacks hidden_dim"),
            ({"meta": {"in_dim": 16, "hidden_dim": 4, "out_dim": 16}},
             "meta holds no task; the model predates saving it, so retrain it"),
            ({"meta": {"in_dim": 16, "hidden_dim": 4, "out_dim": 16, "task": {"kind": "audio"}}},
             "meta's task is not valid: unknown task kind: 'audio'"),
            ({"w2": np.zeros((4, 15))}, "w2 has shape (4, 15), but meta says (4, 16)"),
            ({"b1": None}, "no b1 entry"),
            ({"b2": np.full(16, np.nan)}, "b2 holds values that are not finite numbers"),
        ],
        ids=["text", "no-meta", "meta-not-json", "meta-lacks-key", "no-task", "bad-task", "shape", "no-b1",
             "nan-b2"],
    )
    def test_model_that_is_not_a_diffloc_model(self, tmp_path, monkeypatch, entries, reason):
        """Each fault ends eval in one line naming the path and the fault, and writes nothing.

        `entries` replaces entries of a valid model file (None drops one; a dict
        is stored as JSON); None in its place writes a text file instead.
        """
        monkeypatch.chdir(tmp_path)
        if entries is None:
            (tmp_path / "m.npz").write_text("not a model\n")
        else:
            save_model(tmp_path / "m.npz", SyntheticTask("signal1d", size=16))
            with np.load(tmp_path / "m.npz") as data:
                arrays = {name: data[name] for name in data.files}
            for name, value in entries.items():
                if isinstance(value, dict):
                    value = np.frombuffer(json.dumps(value).encode("utf-8"), dtype=np.uint8)
                arrays[name] = value
            np.savez(tmp_path / "m.npz", **{name: a for name, a in arrays.items() if a is not None})
        with pytest.raises(SystemExit) as exited:
            main(["eval", "--model", "m.npz"])
        assert exited.value.code == f"--model m.npz: {reason}"
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]

    @pytest.mark.parametrize("command", [["train"], ["eval", "--model", "m.npz"]], ids=lambda c: c[0])
    def test_config_that_is_not_json(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text('{"epochs": 2,\n "loss": }\n')
        with pytest.raises(SystemExit) as exited:
            main([*command, "--config", "run.json"])
        assert exited.value.code == "--config run.json is not valid JSON: Expecting value at line 2 column 10"

    @pytest.mark.parametrize("command", [["train"], ["eval", "--model", "m.npz"]], ids=lambda c: c[0])
    def test_config_that_is_not_utf8(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_bytes(b'\xff{"epochs": 2}\n')
        with pytest.raises(SystemExit) as exited:
            main([*command, "--config", "run.json"])
        assert exited.value.code == "--config run.json is not UTF-8 text: invalid start byte"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_records_that_are_not_utf8(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "eval.csv").write_bytes(b"idx,peak,err\n0,0.5,1.0\n1,0.\xff,0.25\n")
        with pytest.raises(SystemExit) as exited:
            main(["calibrate", "--records", "eval.csv", "--out", "cal.csv"])
        assert exited.value.code == "--records eval.csv is not UTF-8 text: invalid start byte"
        assert "calibration_r" not in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]

    def test_damaged_model_archive(self, tmp_path, monkeypatch):
        # Bytes overwritten inside w1's data: the archive's directory is
        # intact, but the member fails its CRC check when it is read.
        monkeypatch.chdir(tmp_path)
        save_model(tmp_path / "m.npz", SyntheticTask("signal1d", size=16))
        with zipfile.ZipFile(tmp_path / "m.npz") as archive:
            member = archive.getinfo("w1.npy")
        data = bytearray((tmp_path / "m.npz").read_bytes())
        start = member.header_offset + 30 + len(member.filename) + len(member.extra) + 128
        data[start:start + 8] = bytes(8)
        (tmp_path / "m.npz").write_bytes(data)
        with pytest.raises(SystemExit) as exited:
            main(["eval", "--model", "m.npz"])
        assert exited.value.code == "--model m.npz: damaged archive: Bad CRC-32 for file 'w1.npy'"
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]

    @pytest.mark.parametrize("write", [np.savez, np.savez_compressed], ids=["stored", "deflated"])
    def test_a_damaged_byte_never_escapes_load(self, tmp_path, write):
        # Each byte of a model archive inverted in turn: load returns a model
        # or raises the ValueError that eval prints in one line, never zlib's,
        # zipfile's or EOF's own exceptions, nor the OSError of a seek to a
        # header offset before the start of the file.
        save_model(tmp_path / "m.npz", SyntheticTask("signal1d", size=16))
        with np.load(tmp_path / "m.npz") as data:
            write(tmp_path / "m.npz", **{name: data[name] for name in data.files})
        original = (tmp_path / "m.npz").read_bytes()
        for i in range(len(original)):
            data = bytearray(original)
            data[i] ^= 0xFF
            # A fresh file each time: rewriting one in place can cost a
            # flush to disk per write.
            damaged = tmp_path / f"damaged-{i}.npz"
            damaged.write_bytes(data)
            try:
                MLPModel.load(damaged)
            except ValueError:
                pass
            damaged.unlink()


# (config key, a value of the wrong type, the message that rejects it): one
# case per key.  The message names the dataclass field the key sets and the
# type it takes; a bool is not an int, an int is a number.
WRONG_TYPES = [
    ("task", 3, "kind must be a string, got 3"),
    ("task_size", 16.5, "size must be an int or None, got 16.5"),
    ("task_noise", "0.5", "noise must be a number, got '0.5'"),
    ("train_count", 8.0, "train_count must be an int, got 8.0"),
    ("val_count", True, "val_count must be an int, got True"),
    ("test_count", "8", "test_count must be an int, got '8'"),
    ("seed", 1.5, "seed must be an int, got 1.5"),
    ("num_samples", 2.5, "num_samples must be an int, got 2.5"),
    ("tau_start", [1.0], "tau_start must be a number, got [1.0]"),
    ("tau_end", False, "tau_end must be a number, got False"),
    ("anneal", 1, "anneal must be a string, got 1"),
    ("distance", None, "distance must be a string, got None"),
    ("loss", ["samp"], "loss must be a string, got ['samp']"),
    ("basis", 0, "basis must be a string, got 0"),
    ("sigma_t_sq", "4", "sigma_t_sq must be a number, got '4'"),
    ("reg_weight", "0.1", "reg_weight must be a number or None, got '0.1'"),
    ("epochs", 3.0, "epochs must be an int, got 3.0"),
    ("batch", 2.5, "batch_size must be an int, got 2.5"),
    ("lr", {"value": 0.1}, "lr must be a number, got {'value': 0.1}"),
    ("lr_schedule", 2, "lr_schedule must be a string, got 2"),
    ("hidden", "64", "hidden_dim must be an int, got '64'"),
    ("out", 5, "out must be a string, got 5"),
    ("out", ["a"], "out must be a string, got ['a']"),
    ("model_out", 5, "model_out must be a string or None, got 5"),
    ("model_out", ["a"], "model_out must be a string or None, got ['a']"),
]


class TestOptionValues:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--task-noise", "-1"], "noise level must be non-negative"),
            (["train", "--num-samples", "0"], "num_samples must be at least 1"),
            (["train", "--lr", "0"], "lr, epochs, batch_size and hidden_dim must be positive"),
            (["train", "--config", "run.json"], "epochs must be an int, got '3'"),
            (["train", "--train-count", "0"], "train_count must be at least 1, got 0"),
            (["train", "--val-count", "0"], "val_count must be at least 1, got 0"),
            (["train", "--train-count", "-3"], "train_count must be at least 1, got -3"),
            (["eval", "--model", "m.npz", "--test-count", "-3"], "test_count must be at least 1, got -3"),
            (["train", "--lr", "nan"], "lr must be finite, got nan"),
            (["train", "--tau-start", "inf"], "tau_start must be finite, got inf"),
            (["train", "--loss", "soft-vr", "--sigma-t-sq", "nan"], "sigma_t_sq must be finite, got nan"),
            (["train", "--task-noise", "nan"], "noise must be finite, got nan"),
            (["eval", "--model", "m.npz", "--task-noise", "inf"], "noise must be finite, got inf"),
            (["train", "--loss", "soft-dr", "--reg-weight=-inf"], "reg_weight must be finite, got -inf"),
            (["train", "--loss", "soft-dr", "--reg-weight", "-0.5"], "reg_weight must be non-negative, got -0.5"),
            (["train", "--loss", "soft", "--reg-weight", "0.5"],
             "loss 'soft' has no regularizer, so reg_weight must be unset, got 0.5"),
            (["train", "--seed", "-1"], "seed must be at least 0, got -1"),
            (["eval", "--model", "m.npz", "--seed", "-1"], "seed must be at least 0, got -1"),
            (["eval", "--model", "m.npz", "--config", "bogus.json"], "unknown split: 'bogus'"),
            (["eval", "--model", "m.npz", "--config", "three.json"], "unknown split: 3"),
            (["train", "--config", "basis.json"], "unknown basis: 'bogus'"),
            (["train", "--task", "scatter3d", "--config", "basis.json"], "unknown basis: 'bogus'"),
        ],
        ids=["noise", "num-samples", "lr", "config-epochs-string", "train-count", "val-count",
             "negative-train-count", "eval-test-count", "nan-lr", "inf-tau-start", "nan-sigma-t-sq",
             "nan-noise", "eval-inf-noise", "inf-reg-weight", "negative-reg-weight", "reg-weight-without-regularizer",
             "negative-seed", "eval-negative-seed", "eval-config-split", "eval-config-split-int",
             "config-basis", "scatter3d-config-basis"],
    )
    def test_rejected_value_ends_in_one_line(self, tmp_path, monkeypatch, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("ran with a rejected option value")

        monkeypatch.setattr(cli, "train", never)
        monkeypatch.setattr(cli, "evaluate", never)
        monkeypatch.chdir(tmp_path)
        configs = {
            "run.json": {"epochs": "3"},
            "bogus.json": {"split": "bogus"},
            "three.json": {"split": 3},
            "basis.json": {"basis": "bogus"},
        }
        for name, config in configs.items():
            (tmp_path / name).write_text(json.dumps(config))
        save_model(tmp_path / "m.npz", SyntheticTask("signal1d", size=16))
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == f"invalid option value: {message}"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["m.npz", *configs])


    @pytest.mark.parametrize("key, value, message", WRONG_TYPES, ids=[key for key, _, _ in WRONG_TYPES])
    def test_config_value_of_wrong_type(self, tmp_path, monkeypatch, key, value, message):
        def never(*args, **kwargs):
            raise AssertionError("ran with a value of the wrong type")

        monkeypatch.setattr(cli, "train", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exited:
            main(["train", "--config", "run.json"])
        assert exited.value.code == f"invalid option value: {message}"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# Output paths no file can be written at, or only over a file the command
# reads or writes first, with the one line each ends in.  outdir/ and
# x_relaxed.csv/ are directories, and h.csv, r.csv and m.npz files.
BAD_OUTPUTS = [
    (["train", "--out", "outdir/"], "--out outdir/: is a directory"),
    (["train", "--out", "outdir"], "--out outdir: is a directory"),
    (["train", "--out", "new/"], "--out new/: names a directory, not a file"),
    (["train", "--out", "h.csv/sub/x.csv"], "--out h.csv/sub/x.csv: h.csv is not a directory"),
    (["train", "--out", ""], "--out : no file name"),
    (["train", "--model-out", "outdir"], "--model-out outdir: is a directory"),
    (["train", "--model-out", "h.csv/m.npz"], "--model-out h.csv/m.npz: h.csv is not a directory"),
    (["train", "--out", "h2.csv", "--model-out", "h2.csv/m.npz"], "--model-out h2.csv/m.npz: h2.csv is the --out file"),
    (["train", "--out", "h2.csv", "--model-out", "./h2.csv"], "--model-out ./h2.csv: is the --out file"),
    (["eval", "--model", "m.npz", "--out", "outdir/"], "--out outdir/: is a directory"),
    (["eval", "--model", "m.npz", "--out", "m.npz"], "--out m.npz: is the --model file"),
    (["calibrate", "--records", "r.csv", "--out", "outdir"], "--out outdir: is a directory"),
    (["calibrate", "--records", "r.csv", "--out", "r.csv"], "--out r.csv: is the --records file"),
    (["gradcheck", "--out", "d/"], "--out d/: names a directory, not a file"),
    (["distcheck", "--out", "outdir"], "--out outdir: is a directory"),
    (["distcheck", "--out", "x.csv"], "--out x_relaxed.csv: is a directory"),
    (["varcompare", "--out", "h.csv/vc.csv"], "--out h.csv/vc.csv: h.csv is not a directory"),
]


@pytest.mark.parametrize("argv, message", BAD_OUTPUTS, ids=[" ".join(argv) for argv, _ in BAD_OUTPUTS])
def test_unwritable_output_fails_before_the_work(tmp_path, monkeypatch, capsys, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before its output path was checked")

    for name in ("train", "evaluate", "gradcheck_suite", "distcheck_suite", "variance_compare"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "x_relaxed.csv").mkdir()
    (tmp_path / "h.csv").write_text("epoch\n")
    (tmp_path / "r.csv").write_text("peak,err\n0.5,1.0\n0.25,2.0\n")
    save_model(tmp_path / "m.npz", SyntheticTask("signal1d"))
    before = sorted(p.name for p in tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == message
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


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
            ["varcompare", "--draws", "1"],
            ["varcompare", "--tau", "0"],
            ["varcompare", "--tau", "nan"],
            ["varcompare", "--tau", "inf"],
            ["varcompare", "--seeds", "two"],
            ["distcheck", "--seed", "-1"],
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

    @pytest.mark.parametrize(
        "argv, suite, unflagged",
        [
            (["gradcheck", "--seeds", "1"], "gradcheck_suite", {"step", "tol"}),
            (["distcheck", "--maps", "1", "--draws", "10", "--seed", "0"], "distcheck_suite", set()),
            (["varcompare", "--seeds", "1", "--draws", "2", "--tau", "1"], "variance_compare", set()),
        ],
        ids=["gradcheck", "distcheck", "varcompare"],
    )
    def test_suite_parameters_are_what_the_command_passes(self, monkeypatch, argv, suite, unflagged):
        # Every other diagnostic setting is a suites constant; gradcheck's
        # step and tol stay settable because acceptance criterion 1 passes them.
        passed = {}

        def record(**kwargs):
            passed.update(kwargs)
            raise SystemExit(0)

        parameters = set(inspect.signature(getattr(cli, suite)).parameters)
        monkeypatch.setattr(cli, suite, record)
        with pytest.raises(SystemExit):
            main(argv)
        assert parameters == set(passed) | unflagged

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
