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

from ..mixture import BASES
from ..operators import ANNEALS, DISTANCES, SamplingConfig
from .metrics import calibration_report, pearson
from .model import MLPModel
from .suites import distcheck_suite, gradcheck_suite, variance_compare
from .tasks import SPLITS, TASK_KINDS, SyntheticTask, task_support
from .training import LOSSES, LR_SCHEDULES, RunConfig, evaluate, train

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


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"config file {path} must hold a flat JSON object")
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
# field's default; --seed seeds both the task and the run.
_TASK_OPTIONS = {
    "task_size": "size",
    "task_noise": "noise",
    "train_count": "train_count",
    "val_count": "val_count",
    "test_count": "test_count",
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


def _field_defaults(cls, options: dict) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {option: defaults[name] for option, name in options.items()}


_OPTION_DEFAULTS = {
    "task": "signal1d",
    **_field_defaults(SyntheticTask, _TASK_OPTIONS),
    **_field_defaults(SamplingConfig, _SAMPLING_OPTIONS),
    **_field_defaults(RunConfig, _RUN_OPTIONS),
    "out": "history.csv",
    "model_out": None,
}


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file; flags override its values")
    p.add_argument("--task", choices=TASK_KINDS)
    p.add_argument("--task-size", type=int)
    p.add_argument("--task-noise", type=float)
    p.add_argument("--train-count", type=int)
    p.add_argument("--val-count", type=int)
    p.add_argument("--test-count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    _add_task_flags(p)
    p.add_argument("--loss", choices=LOSSES)
    p.add_argument("--basis", choices=BASES)
    p.add_argument("--num-samples", type=int)
    p.add_argument("--tau-start", type=float)
    p.add_argument("--tau-end", type=float)
    p.add_argument("--anneal", choices=ANNEALS)
    p.add_argument("--distance", choices=DISTANCES)
    p.add_argument("--sigma-t-sq", type=float)
    p.add_argument("--reg-weight", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-schedule", choices=LR_SCHEDULES)
    p.add_argument("--hidden", type=int)
    p.add_argument("--model-out")


def _pick(opts: dict, options: dict) -> dict:
    return {name: opts[option] for option, name in options.items()}


def _task_from(opts: dict) -> SyntheticTask:
    return SyntheticTask(kind=opts["task"], seed=opts["seed"], **_pick(opts, _TASK_OPTIONS))


def _run_config_from(opts: dict) -> RunConfig:
    return RunConfig(
        task=_task_from(opts),
        sampling=SamplingConfig(**_pick(opts, _SAMPLING_OPTIONS)),
        **_pick(opts, _RUN_OPTIONS),
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    opts = _merge(args, _load_config(args.config), _OPTION_DEFAULTS)
    config = _run_config_from(opts)
    model, history = train(config)
    rows = [(h.epoch, h.loss, h.val_mean_err, h.tau) for h in history]
    write_csv(opts["out"], ["epoch", "loss", "val_mean_err", "tau"], rows)
    print(format_table(["epoch", "loss", "val_mean_err", "tau"], rows[-5:]))
    print(f"history written to {opts['out']}")
    if opts["model_out"]:
        _ensure_parent(opts["model_out"])
        model.save(opts["model_out"])
        _save_run_meta(opts["model_out"], opts)
        print(f"model written to {opts['model_out']}")
    return 0


def _save_run_meta(model_path: str, opts: dict) -> None:
    meta_path = model_path + ".json"
    keep = {k: opts[k] for k in _OPTION_DEFAULTS}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(keep, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_eval(args) -> int:
    file_config = _load_config(args.config)
    opts = _merge(args, file_config, dict(_OPTION_DEFAULTS, split="test", out="eval.csv"))
    # Task identity defaults to what the model was trained on.
    try:
        with open(args.model + ".json", "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        for key in ("task", *_TASK_OPTIONS, "seed"):
            if getattr(args, key, None) is None and key not in file_config:
                opts[key] = saved[key]
    except FileNotFoundError:
        pass
    task = _task_from(opts)
    model = MLPModel.load(args.model)
    # Observations and support points are the same count for every task.
    n = task_support(task).n
    if (model.in_dim, model.out_dim) != (n, n):
        raise SystemExit(
            f"model {args.model} maps {model.in_dim} inputs to {model.out_dim} points, but task "
            f"{task.kind} of size {task.size} has {n} of each; give the task flags it was trained "
            f"with (its {args.model}.json sidecar holds them)"
        )
    records, summary = evaluate(model, task, split=opts["split"])
    ndim = records[0].pred.shape[0]
    header = (
        ["idx"]
        + [f"pred_{d}" for d in range(ndim)]
        + [f"gt_{d}" for d in range(ndim)]
        + ["peak", "err"]
    )
    rows = [
        (r.index, *r.pred.tolist(), *r.target.tolist(), r.peak, r.error)
        for r in records
    ]
    write_csv(opts["out"], header, rows)
    cal = calibration_report(records)
    print(
        format_table(
            ["count", "mean_err", "median_err", "within_one_cell", "calibration_r"],
            [(summary.count, summary.mean_error, summary.median_error,
              summary.within_one_cell, "undefined" if cal.r is None else cal.r)],
        )
    )
    print(f"records written to {opts['out']}")
    return 0


def _cmd_calibrate(args) -> int:
    with open(args.records, "r", encoding="utf-8", newline="") as fh:
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
    report = gradcheck_suite(**_given(seeds=args.seeds))
    header = ["loss", "basis", "ndim", "seed", "max_rel_error", "passed"]
    rows = [(r.loss, r.basis, r.ndim, r.seed, r.max_rel_error, r.passed) for r in report.rows]
    if args.out:
        write_csv(args.out, header, rows)
        print(f"rows written to {args.out}")
    failing = [r for r in rows if not r[5]]
    show = failing[:10] if failing else sorted(rows, key=lambda r: -r[4])[:5]
    print(format_table(header, show))
    print(f"{len(rows)} checks, worst rel error {report.worst!r}")
    print("gradcheck: PASS" if report.passed else "gradcheck: FAIL")
    return 0 if report.passed else 1


def _cmd_distcheck(args) -> int:
    report = distcheck_suite(**_given(num_maps=args.maps, draws=args.draws, seed=args.seed))
    ref_header = ["map", "basis", "ks", "ks_crit", "ks_passed", "mean_gap", "var_gap"]
    ref_rows = [
        (r.map_index, r.basis, r.ks, r.ks_crit, r.ks_passed, r.mean_gap, r.var_gap)
        for r in report.reference
    ]
    rel_header = ["map", "basis", "freq_gap", "freq_passed", "ks_sharp", "ks_smooth", "ordered"]
    rel_rows = [
        (r.map_index, r.basis, r.freq_gap, r.freq_passed, r.ks_sharp, r.ks_smooth, r.ordered)
        for r in report.relaxed
    ]
    if args.out:
        write_csv(args.out, ref_header, ref_rows)
        rel_path = os.path.splitext(args.out)[0] + "_relaxed.csv"
        write_csv(rel_path, rel_header, rel_rows)
        print(f"rows written to {args.out} and {rel_path}")
    print(format_table(ref_header, ref_rows[:6]))
    print(format_table(rel_header, rel_rows[:6]))
    print(f"{len(ref_rows)} reference rows, {len(rel_rows)} relaxed rows, {report.draws} draws each")
    print("distcheck: PASS" if report.passed else "distcheck: FAIL")
    return 0 if report.passed else 1


def _cmd_varcompare(args) -> int:
    report = variance_compare(**_given(num_seeds=args.seeds, draws=args.draws, tau=args.tau))
    header = ["seed", "trace_score", "trace_reparam", "coord_greater_frac", "trace_ordered"]
    rows = [
        (r.seed, r.trace_score, r.trace_reparam, r.coord_greater_frac, r.trace_ordered)
        for r in report.rows
    ]
    if args.out:
        write_csv(args.out, header, rows)
        print(f"rows written to {args.out}")
    print(format_table(header, rows))
    print("varcompare: PASS" if report.passed else "varcompare: FAIL")
    return 0 if report.passed else 1


def _positive(kind):
    """argparse type for a count or scale that must be above zero."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffloc",
        description="train and probe differentiable localization on synthetic tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write its history CSV")
    _add_train_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on one split")
    _add_task_flags(p_eval)
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
    p_dc.add_argument("--seed", type=int)
    p_dc.add_argument("--out")

    p_vc = sub.add_parser("varcompare", help="score-function vs pathwise gradient variance")
    p_vc.add_argument("--seeds", type=_positive(int))
    p_vc.add_argument("--draws", type=_positive(int))
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
