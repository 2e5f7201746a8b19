"""Command-line front end: training, evaluation, and the diagnostic suites.

Every option can also come from a flat JSON config file (--config); explicit
flags win over config values, which win over the defaults of SyntheticTask,
SamplingConfig and RunConfig.  All CSV output is UTF-8 with deterministic
float formatting, so identical configuration and seed produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from ..autodiff import NonFiniteError
from ..mixture import BASES
from ..operators import ANNEALS, DISTANCES, SamplingConfig, field_kinds
from .metrics import calibration_report, pearson
from .model import MLPModel
from .suites import (
    GradCheckRow, ReferenceRow, RelaxedRow, VarianceCompareRow, distcheck_suite, gradcheck_suite, variance_compare
)
from .tasks import SPLITS, TASK_KINDS, SyntheticTask, task_support
from .training import LOSSES, LR_SCHEDULES, HistoryRow, RunConfig, TrainingDiverged, evaluate, train

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Formatting


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _check_out(flag: str, path: str, others: dict[str, str] | None = None) -> None:
    """Exit with one line, `<flag> <path>: <reason>`, when the command could
    not write a file at `path`; run before any work.  `others` maps flags to
    the files the command reads or writes before this one, which `path` must
    neither be nor lie under."""
    taken = {os.path.abspath(file): other for other, file in (others or {}).items()}
    reason = None
    if not path:
        reason = "no file name"
    elif os.path.isdir(path):
        reason = "is a directory"
    elif path.endswith((os.sep, os.altsep or os.sep)):
        reason = "names a directory, not a file"
    elif os.path.abspath(path) in taken:
        reason = f"is the {taken[os.path.abspath(path)]} file"
    elif os.path.exists(path) and not os.access(path, os.W_OK):
        reason = "is not writable"
    else:
        parent = os.path.dirname(path) or os.curdir
        # Up to the nearest ancestor that exists now or that an earlier file takes.
        while not (os.path.exists(parent) or os.path.abspath(parent) in taken):
            parent = os.path.dirname(parent) or os.curdir
        if os.path.abspath(parent) in taken:
            reason = f"{parent} is the {taken[os.path.abspath(parent)]} file"
        elif not os.path.isdir(parent):
            reason = f"{parent} is not a directory"
        elif not os.access(parent, os.W_OK | os.X_OK):
            reason = f"{parent} is not writable"
    if reason:
        raise SystemExit(f"{flag} {path}: {reason}")


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _columns(cls, rows) -> tuple[list[str], list[tuple]]:
    """The header and rows of a table of dataclass `cls` rows: one column per
    field, in field order."""
    return [f.name for f in dataclasses.fields(cls)], [dataclasses.astuple(r) for r in rows]


def format_table(header: list[str], rows: list[tuple]) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Config handling


def _unreadable(what: str, path: str, exc: OSError) -> SystemExit:
    return SystemExit(f"{what} {path}: {exc.strerror or exc}")


def _not_utf8(what: str, path: str, exc: UnicodeDecodeError) -> SystemExit:
    return SystemExit(f"{what} {path} is not UTF-8 text: {exc.reason}")


def _load_config(path: str | None) -> dict:
    """The JSON object in the --config file; anything else exits with one line."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _unreadable("--config", path, exc) from None
    except UnicodeDecodeError as exc:
        raise _not_utf8("--config", path, exc) from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"--config {path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(data, dict):
        raise SystemExit(f"--config {path} must hold a flat JSON object")
    return data


def _merge(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """flag > config file > default, with unknown config keys rejected."""
    merged = dict(defaults)
    unknown = set(config) - set(defaults)
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    merged.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


# Option name -> the dataclass field it sets.  Each option's default is that
# field's default and its flag's type is that field's kind; --seed seeds both
# the task and the run.
_TASK_OPTIONS = {
    "task": "kind",
    "task_size": "size",
    "task_noise": "noise",
    "train_count": "train_count",
    "val_count": "val_count",
    "test_count": "test_count",
    "seed": "seed",
}
_SAMPLING_OPTIONS = {name: name for name in ("num_samples", "tau_start", "tau_end", "anneal", "distance")}
_RUN_OPTIONS = {
    "loss": "loss",
    "basis": "basis",
    "sigma_t_sq": "sigma_t_sq",
    "reg_weight": "reg_weight",
    "epochs": "epochs",
    "batch": "batch_size",
    "lr": "lr",
    "lr_schedule": "lr_schedule",
    "hidden": "hidden_dim",
    "seed": "seed",
}
_OPTION_TABLES = ((SyntheticTask, _TASK_OPTIONS), (SamplingConfig, _SAMPLING_OPTIONS), (RunConfig, _RUN_OPTIONS))
_CHOICES = {
    "task": TASK_KINDS,
    "anneal": ANNEALS,
    "distance": DISTANCES,
    "loss": LOSSES,
    "basis": BASES,
    "lr_schedule": LR_SCHEDULES,
}


def _options(tables=_OPTION_TABLES) -> dict:
    """Each option of `tables` -> (the default of the field it sets, that
    field's first kind)."""
    options = {}
    for cls, table in tables:
        defaults, kinds = {f.name: f.default for f in dataclasses.fields(cls)}, field_kinds(cls)
        options.update({option: (defaults[name], kinds[name][0]) for option, name in table.items()})
    return options


def _option_defaults() -> dict:
    defaults = {option: default for option, (default, _) in _options().items()}
    # SyntheticTask.kind has no default: a saved model's task must name its kind.
    # split is eval's; train accepts it, so one config file serves both.
    return dict(defaults, task="signal1d", out="history.csv", model_out=None, split="test")


def _add_option_flags(p: argparse.ArgumentParser, tables) -> None:
    for option, (_, kind) in _options(tables).items():
        p.add_argument("--" + option.replace("_", "-"), type=kind, choices=_CHOICES.get(option))


def _pick(opts: dict, options: dict) -> dict:
    return {name: opts[option] for option, name in options.items()}


def _task_from(opts: dict) -> SyntheticTask:
    return SyntheticTask(**_pick(opts, _TASK_OPTIONS))


def _run_config_from(opts: dict) -> RunConfig:
    return RunConfig(
        task=_task_from(opts),
        sampling=SamplingConfig(**_pick(opts, _SAMPLING_OPTIONS)),
        **_pick(opts, _RUN_OPTIONS),
    )


def _checked(build, opts: dict):
    """build(opts); a value the dataclasses reject ends the command with one line."""
    try:
        return build(opts)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid option value: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    opts = _merge(args, _load_config(args.config), _option_defaults())
    config = _checked(_run_config_from, opts)
    # No dataclass field takes out or model_out, so a config's value is typed here.
    if not isinstance(opts["out"], str):
        raise SystemExit(f"invalid option value: out must be a string, got {opts['out']!r}")
    if not isinstance(opts["model_out"], (str, type(None))):
        raise SystemExit(f"invalid option value: model_out must be a string or None, got {opts['model_out']!r}")
    _check_out("--out", opts["out"])
    if opts["model_out"]:
        _check_out("--model-out", opts["model_out"], {"--out": opts["out"]})
    try:
        model, history = train(config)
    except TrainingDiverged as exc:
        raise SystemExit(f"training {exc}") from None
    header, rows = _columns(HistoryRow, history)
    write_csv(opts["out"], header, rows)
    print(format_table(header, rows[-5:]))
    print(f"history written to {opts['out']}")
    if opts["model_out"]:
        _ensure_parent(opts["model_out"])
        model.save(opts["model_out"], config.task)
        print(f"model written to {opts['model_out']}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args.config)
    try:
        model, trained_on = MLPModel.load(args.model)
    except OSError as exc:
        raise _unreadable("--model", args.model, exc) from None
    except ValueError as exc:
        raise SystemExit(f"--model {args.model}: {exc}") from None
    # The task options default to the task the model was trained on.
    saved = {option: getattr(trained_on, name) for option, name in _TASK_OPTIONS.items()}
    opts = _merge(args, config, dict(_option_defaults(), **saved))
    # A config's out and model_out name train's files, so eval never writes over them.
    out = args.out or "eval.csv"
    task = _checked(_task_from, opts)
    if opts["split"] not in SPLITS:  # a config value skips --split's choices
        raise SystemExit(f"invalid option value: unknown split: {opts['split']!r}")
    # Observations and support points are the same count for every task.
    n = task_support(task).n
    if (model.in_dim, model.out_dim) != (n, n):
        raise SystemExit(
            f"model {args.model} maps {model.in_dim} inputs to {model.out_dim} points, but task "
            f"{task.kind} of size {task.size} has {n} of each"
        )
    _check_out("--out", out, {"--model": args.model})
    try:
        records, summary = evaluate(model, task, split=opts["split"])
    except NonFiniteError as exc:
        raise SystemExit(f"--model {args.model}: {exc}") from None
    ndim = records.column("pred").shape[1]
    header = (
        ["idx"]
        + [f"pred_{d}" for d in range(ndim)]
        + [f"gt_{d}" for d in range(ndim)]
        + ["peak", "err"]
    )
    columns = [records.column(name).tolist() for name in ("pred", "target", "peak", "error")]
    rows = [(i, *pred, *target, peak, err) for i, (pred, target, peak, err) in enumerate(zip(*columns))]
    write_csv(out, header, rows)
    cal = calibration_report(records)
    print(
        format_table(
            ["count", "mean_err", "median_err", "within_one_cell", "calibration_r"],
            [(summary.count, summary.mean_error, summary.median_error,
              summary.within_one_cell, "undefined" if cal.r is None else cal.r)],
        )
    )
    print(f"records written to {out}")
    return 0


def _check_given_out(args, others: dict[str, str] | None = None) -> None:
    """Check the optional --out, when it is given."""
    if args.out:
        _check_out("--out", args.out, others)


def _cmd_calibrate(args) -> int:
    _check_given_out(args, {"--records": args.records})
    try:
        fh = open(args.records, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise _unreadable("--records", args.records, exc) from None
    try:
        with fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("peak", "err") if c not in (reader.fieldnames or ())]
            if missing:
                raise SystemExit(f"{args.records} has no {' or '.join(missing)} column")
            peaks, errors = [], []
            for row in reader:
                for column, values in (("peak", peaks), ("err", errors)):
                    try:
                        values.append(float(row[column]))
                    except (TypeError, ValueError):
                        values.append(np.nan)
                    if not np.isfinite(values[-1]):
                        raise SystemExit(
                            f"{args.records} line {reader.line_num}: {column} {row[column]!r} is not a finite number"
                        )
    except UnicodeDecodeError as exc:
        raise _not_utf8("--records", args.records, exc) from None
    if len(peaks) < 2:
        raise SystemExit("need at least two records to correlate")
    r = pearson(peaks, [-e for e in errors])
    rows = [("calibration_r", "undefined" if r is None else r), ("count", len(peaks))]
    print(format_table(["metric", "value"], rows))
    if args.out:
        write_csv(args.out, ["metric", "value"], rows)
        print(f"report written to {args.out}")
    return 0


def _given(**options) -> dict:
    """The options given on the command line; the suite defaults fill the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_gradcheck(args) -> int:
    _check_given_out(args)
    report = gradcheck_suite(**_given(seeds=args.seeds))
    header, rows = _columns(GradCheckRow, report.rows)
    if args.out:
        write_csv(args.out, header, rows)
        print(f"rows written to {args.out}")
    failing = [r for r in report.rows if not r.passed][:10]
    show = failing or sorted(report.rows, key=lambda r: -r.max_rel_error)[:5]
    print(format_table(header, _columns(GradCheckRow, show)[1]))
    print(f"{len(rows)} checks, worst rel error {report.worst!r}")
    print("gradcheck: PASS" if report.passed else "gradcheck: FAIL")
    return 0 if report.passed else 1


def _cmd_distcheck(args) -> int:
    _check_given_out(args)
    if args.out:
        rel_path = os.path.splitext(args.out)[0] + "_relaxed.csv"
        _check_out("--out", rel_path)
    report = distcheck_suite(**_given(num_maps=args.maps, draws=args.draws, seed=args.seed))
    ref_header, ref_rows = _columns(ReferenceRow, report.reference)
    rel_header, rel_rows = _columns(RelaxedRow, report.relaxed)
    if args.out:
        write_csv(args.out, ref_header, ref_rows)
        write_csv(rel_path, rel_header, rel_rows)
        print(f"rows written to {args.out} and {rel_path}")
    print(format_table(ref_header, ref_rows[:6]))
    print(format_table(rel_header, rel_rows[:6]))
    print(f"{len(ref_rows)} reference rows, {len(rel_rows)} relaxed rows, {report.draws} draws each")
    print("distcheck: PASS" if report.passed else "distcheck: FAIL")
    return 0 if report.passed else 1


def _cmd_varcompare(args) -> int:
    _check_given_out(args)
    report = variance_compare(**_given(num_seeds=args.seeds, draws=args.draws, tau=args.tau))
    header, rows = _columns(VarianceCompareRow, report.rows)
    if args.out:
        write_csv(args.out, header, rows)
        print(f"rows written to {args.out}")
    print(format_table(header, rows))
    print("varcompare: PASS" if report.passed else "varcompare: FAIL")
    return 0 if report.passed else 1


def _positive(kind, least=None):
    """argparse type for a count or scale that must be finite and above zero,
    and at least `least` when that is given."""

    def parse(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _at_least(kind, least):
    """argparse type for a number of at least `least`."""

    def parse(text: str):
        value = kind(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffloc",
        description="train and probe differentiable localization on synthetic tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write its history CSV")
    p_eval = sub.add_parser("eval", help="evaluate a saved model on one split")
    for p in (p_train, p_eval):
        p.add_argument("--config", help="flat JSON config file; flags override its values")
        p.add_argument("--out")
    _add_option_flags(p_train, _OPTION_TABLES)
    p_train.add_argument("--model-out")
    _add_option_flags(p_eval, _OPTION_TABLES[:1])
    p_eval.add_argument("--model", required=True, help="model .npz written by train --model-out")
    p_eval.add_argument("--split", choices=SPLITS)

    p_cal = sub.add_parser("calibrate", help="correlate confidence with accuracy from an eval CSV")
    p_cal.add_argument("--records", required=True, help="eval CSV with peak and err columns")
    p_cal.add_argument("--out")

    p_gc = sub.add_parser("gradcheck", help="finite-difference checks for all losses")
    p_gc.add_argument("--seeds", type=_positive(int))
    p_gc.add_argument("--out")

    p_dc = sub.add_parser("distcheck", help="sampler distribution checks")
    p_dc.add_argument("--maps", type=_positive(int))
    p_dc.add_argument("--draws", type=_positive(int))
    p_dc.add_argument("--seed", type=_at_least(int, 0))
    p_dc.add_argument("--out")

    p_vc = sub.add_parser("varcompare", help="score-function vs pathwise gradient variance")
    p_vc.add_argument("--seeds", type=_positive(int))
    p_vc.add_argument("--draws", type=_positive(int, least=2), help="at least 2: one draw has no variance")
    p_vc.add_argument("--tau", type=_positive(float))
    p_vc.add_argument("--out")

    args = parser.parse_args(argv)
    commands = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "calibrate": _cmd_calibrate,
        "gradcheck": _cmd_gradcheck,
        "distcheck": _cmd_distcheck,
        "varcompare": _cmd_varcompare,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
