"""Runs one benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

perfbench/run.py starts this script with PYTHONPATH set to the checkout's
src/ and BLAS pinned to one thread.  It prints one JSON object as its last
stdout line: raw samples, the correctness ledger and, when traced, the
per-layer metrics.  run.py turns that into the benchmark's report.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass(frozen=True)
class TrainSpec:
    task_kind: str
    loss: str
    basis: str
    epochs: int


# Acceptance criterion 6's training configuration (noise 1.5, 128 training
# examples, lr 0.1 cosine, batch 16, 5 samples), cut to a few epochs so that
# one run repeats train() many times.
TRAIN_SPECS = {
    "train-samp-1d": TrainSpec("signal1d", "samp", "triangular", epochs=4),
    "train-dr-3d": TrainSpec("scatter3d", "soft-dr", "gaussian", epochs=2),
}
WORKLOADS = (*TRAIN_SPECS, "diagnostics")
TASK_NOISE = 1.5
TRAIN_COUNT = 128

# Counters of each layer; on a workload that exercises a layer, at least one
# of them must be non-zero.
LAYER_COUNTERS = {
    "autodiff": ("autodiff.forward_op.calls", "autodiff.backward.calls", "autodiff.grad_check.calls"),
    "mixture": (
        "mixture.draw_noise.calls",
        "mixture.noise_draws",
        "mixture.basis_sample_all.calls",
        "mixture.mixture_cdf.calls",
    ),
    "operators": tuple(
        f"operators.{fn}.calls"
        for fn in (
            "sampled_expected_error_loss",
            "error_of_expectation_loss",
            "discrete_expected_error_loss",
            "variance_regularizer",
            "js_regularizer",
            "gumbel_softmax_values",
            "inference_localize",
        )
    ),
    "harness.tasks": ("tasks.generate_split.calls",),
    "harness.model": ("model.logits.calls", "model.logit_values.calls"),
    "harness.training": ("training.steps",),
    "harness.suites": ("suites.rows",),
}
EXERCISED = {
    "train-samp-1d": ("autodiff", "mixture", "operators", "harness.tasks", "harness.model", "harness.training"),
    "train-dr-3d": ("autodiff", "operators", "harness.tasks", "harness.model", "harness.training"),
    "diagnostics": ("autodiff", "mixture", "operators", "harness.suites"),
}

QUALITY = ("training.final_loss", "training.test_mean_err", "training.calibration_r")


def is_count(name: str) -> bool:
    """Per-layer metrics that must repeat exactly between traced rounds."""
    return name.endswith((".calls", ".rows", ".records_per_step", ".noise_draws", ".examples_generated", ".steps"))


class Ledger:
    """Operations attempted and failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def rows(self, oks: list[bool], suite: str) -> None:
        bad = oks.count(False)
        self.attempted += len(oks)
        self.failed += bad
        if bad:
            self.problems.append(f"{bad} of {len(oks)} {suite} rows failed")


# Host-speed sampling.  On a shared host the speed of one core drifts by up
# to 2x within seconds, so while a call is timed a short fixed loop that runs
# no diffloc code is timed every SAMPLE_INTERVAL_S (from a timer signal), and
# once before and after the call.  The call's scaled time is its wall time,
# less the time spent in those loops, times the mean relative speed
# REF_S / loop time: it reads as the time the call would take on a host where
# the loop always takes REF_S.  "mixed" (pure Python plus numpy calls on
# 32-element arrays) matches the per-op overhead that bounds training,
# evaluation and gradcheck; "bulk" (exp and sort of 2e5 values) matches the
# array work of distcheck; set-up runs before numpy is imported, so it uses
# the pure-Python half of "mixed" alone.
REF_S = {"python": 0.0015, "mixed": 0.003, "bulk": 0.0035}
SAMPLE_INTERVAL_S = 0.2


def _python_loop() -> int:
    table, total = {}, 0
    for i in range(10_000):
        table[i & 255] = total
        total += i * 3 % 7
    return total


def _mixed_loop() -> float:
    return _python_loop() + _small_loop()


def _small_loop() -> float:
    import numpy as np

    values, total = np.ones(32), 0.0
    for _ in range(300):
        total += float((values * 1.5 + values).sum())
    return total


@functools.cache
def _bulk_input():
    import numpy as np

    return np.random.default_rng(0).random(200_000)


def _bulk_loop() -> float:
    import numpy as np

    return float(np.sort(np.exp(_bulk_input()))[-1])


class HostSpeed:
    """Samples the host's relative speed around and during one timed call."""

    def __init__(self, kind: str):
        self.kind = kind
        self.loop = {"python": _python_loop, "mixed": _mixed_loop, "bulk": _bulk_loop}[kind]
        self.speeds: list[float] = []
        self.inside_s = 0.0

    def _sample(self) -> float:
        start = perf_counter()
        self.loop()
        took = perf_counter() - start
        self.speeds.append(REF_S[self.kind] / took)
        return took

    def _on_timer(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, wall: float) -> float:
        """Scaled seconds of a call that took `wall` inside this block."""
        return (wall - self.inside_s) * statistics.fmean(self.speeds)


def _timed(fn, kind: str):
    """(wall seconds, host-scaled seconds, fn's result) of one call."""
    gc.collect()
    with HostSpeed(kind) as speed:
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
    return wall, speed.scale(wall), out


def _repeat(fn, seconds: float, min_repeats: int, kind: str):
    """Calls fn until `seconds` have passed and it ran min_repeats times;
    returns the wall times, the scaled times and the outputs."""
    walls, scaled, outs = [], [], []
    deadline = perf_counter() + seconds
    while len(walls) < min_repeats or perf_counter() < deadline:
        wall, wall_scaled, out = _timed(fn, kind)
        walls.append(wall)
        scaled.append(wall_scaled)
        outs.append(out)
    return walls, scaled, outs


class TrainWorkload:
    """train() then evaluate() on a task built from the workload seed."""

    # Share of the measured seconds spent on the gradient stage, train(); the
    # forward stage, evaluate(), gets the rest.  Least number of calls and
    # host-speed loop kind of each stage; loop kind for a whole round.
    grad_share = 0.75
    min_repeats = (3, 3)
    calibration = ("mixed", "mixed", "mixed")

    def __init__(self, name: str, seed: int):
        spec = TRAIN_SPECS[name]
        start = perf_counter()
        import diffloc  # noqa: F401  (the import is part of set-up)
        from diffloc.harness import metrics, model, tasks, training

        self.metrics, self.model, self.tasks, self.training = metrics, model, tasks, training
        self.task = tasks.SyntheticTask(kind=spec.task_kind, noise=TASK_NOISE, train_count=TRAIN_COUNT, seed=seed)
        self.config = training.RunConfig(
            task=self.task,
            loss=spec.loss,
            basis=spec.basis,
            lr=0.1,
            lr_schedule="cosine",
            epochs=spec.epochs,
            batch_size=16,
            hidden_dim=64,
            seed=seed,
        )
        self.splits = self.build()
        self.setup_s = perf_counter() - start
        self.train_items = TRAIN_COUNT * spec.epochs
        self.eval_items = self.task.test_count

    def build(self):
        """The three splits and a fresh model, as a user sets up a run."""
        splits = {split: self.tasks.generate_split(self.task, split) for split in self.tasks.SPLITS}
        support = self.tasks.task_support(self.task)
        self.model.MLPModel(splits["train"][0].shape[1], self.config.hidden_dim, support.n, seed=self.config.seed)
        return splits

    def train(self):
        try:
            return self.training.train(self.config)
        except self.training.TrainingDiverged as err:
            return err

    def evaluate(self, model):
        return self.training.evaluate(model, self.task)

    def round(self):
        """Set-up, train() and evaluate() once; returns what must repeat."""
        self.build()
        trained = self.train()
        if isinstance(trained, Exception):
            return trained
        return trained, self.evaluate(trained[0])

    def check_eval(self, model, records, ledger: Ledger) -> None:
        """evaluate() predictions must equal soft_argmax on the test maps bitwise."""
        import numpy as np
        from diffloc.autodiff import Tensor, softmax_values
        from diffloc.mixture import ProbabilityMap
        from diffloc.operators import soft_argmax

        obs, _ = self.splits["test"]
        support = self.tasks.task_support(self.task)
        weights = softmax_values(model.logit_values(obs), axis=-1)
        same = len(records) == obs.shape[0] and all(
            np.array_equal(rec.pred, soft_argmax(ProbabilityMap(support, Tensor(w))).values)
            for rec, w in zip(records, weights)
        )
        ledger.record(same, "evaluate() predictions differ from soft_argmax on the test maps")

    def check_outcome(self, result, ledger: Ledger, what: str) -> dict | None:
        """Checks one train-and-evaluate result; returns what must repeat
        for its seed, or None when training diverged."""
        import numpy as np

        if isinstance(result, Exception):
            ledger.record(False, f"{what}: {type(result).__name__}: {result}")
            return None
        (model, history), (records, summary) = result
        self.check_eval(model, records, ledger)
        cal = self.metrics.calibration_report(records)
        ledger.record(cal.defined, f"{what}: calibration undefined")
        return {
            "history": [(row.epoch, row.loss, row.val_mean_err, row.tau) for row in history],
            "preds": np.array([rec.pred for rec in records]).tobytes(),
            "training.final_loss": history[-1].loss,
            "training.test_mean_err": summary.mean_error,
            "training.calibration_r": cal.r if cal.defined else 0.0,
        }

    def measure(self, seconds: float, ledger: Ledger) -> dict:
        import numpy as np

        grad_kind, fwd_kind, _ = self.calibration
        grad_reps, fwd_reps = self.min_repeats
        walls, scaled, runs = _repeat(self.train, self.grad_share * seconds, grad_reps, grad_kind)
        diverged = [r for r in runs if isinstance(r, Exception)]
        for err in diverged:
            ledger.record(False, f"train() diverged: {err}")
        if diverged:
            return {"quality": {}}
        histories = [[(row.epoch, row.loss, row.val_mean_err, row.tau) for row in h] for _, h in runs]
        for history in histories:
            ledger.record(history == histories[0], "train() history differs between repeats of one seed")
        model = runs[0][0]
        fwd_seconds = (1.0 - self.grad_share) * seconds
        eval_walls, eval_scaled, evals = _repeat(lambda: self.evaluate(model), fwd_seconds, fwd_reps, fwd_kind)
        preds = [np.array([rec.pred for rec in records]) for records, _ in evals]
        for p in preds:
            ledger.record(np.array_equal(p, preds[0]), "evaluate() predictions differ between repeats")
        outcome = self.check_outcome((runs[0], evals[0]), ledger, "train-and-evaluate")
        return {
            "grad_walls": walls,
            "grad_scaled": scaled,
            "grad_items": self.train_items,
            "fwd_walls": eval_walls,
            "fwd_scaled": eval_scaled,
            "fwd_items": self.eval_items,
            "quality": {k: outcome[k] for k in QUALITY} if outcome else {},
        }

    def layer_extras(self, outcome: dict) -> dict:
        extras = {k: outcome[k] for k in QUALITY}
        extras["suites.rows"] = extras["suites.rows_failed"] = 0
        return extras


class DiagnosticsWorkload:
    """The three diagnostic suites at their acceptance sizes.

    The suites keep their built-in seeds: their statistical rows are tests at
    alpha = 0.01, so a fresh seed would fail some row by chance.
    """

    # As for TrainWorkload.  A gradcheck call takes about 7 s and a distcheck
    # call about 20 s, so the least numbers of calls set the run's length.
    grad_share = 0.6
    min_repeats = (3, 1)
    calibration = ("mixed", "bulk", "bulk")

    def __init__(self, name: str, seed: int):
        start = perf_counter()
        import diffloc  # noqa: F401  (the import is part of set-up)
        from diffloc.harness import suites

        self.suites = suites
        self.setup_s = perf_counter() - start

    @staticmethod
    def gradcheck_rows(report) -> list[bool]:
        return [row.passed for row in report.rows]

    @staticmethod
    def distcheck_rows(report) -> list[bool]:
        return [row.ks_passed for row in report.reference] + [
            row.freq_passed and row.ordered for row in report.relaxed
        ]

    @staticmethod
    def varcompare_rows(report) -> list[bool]:
        return [row.trace_ordered for row in report.rows]

    def round(self):
        return (
            self.suites.gradcheck_suite(),
            self.suites.distcheck_suite(),
            self.suites.variance_compare(),
        )

    def check_outcome(self, result, ledger: Ledger, what: str) -> dict:
        grad, dist, var = result
        oks = self.gradcheck_rows(grad) + self.distcheck_rows(dist) + self.varcompare_rows(var)
        ledger.rows(oks, what)
        return {"rows": (grad.rows, dist.reference, dist.relaxed, var.rows), "oks": oks}

    def measure(self, seconds: float, ledger: Ledger) -> dict:
        grad_kind, fwd_kind, _ = self.calibration
        grad_reps, fwd_reps = self.min_repeats
        grad_seconds, fwd_seconds = self.grad_share * seconds, (1.0 - self.grad_share) * seconds
        grad_walls, grad_scaled, grads = _repeat(self.suites.gradcheck_suite, grad_seconds, grad_reps, grad_kind)
        dist_walls, dist_scaled, dists = _repeat(self.suites.distcheck_suite, fwd_seconds, fwd_reps, fwd_kind)
        var_wall, _, var = _timed(self.suites.variance_compare, fwd_kind)
        for report in grads:
            ledger.rows(self.gradcheck_rows(report), "gradcheck")
            ledger.record(report.rows == grads[0].rows, "gradcheck rows differ between repeats")
        for report in dists:
            ledger.rows(self.distcheck_rows(report), "distcheck")
            same = (report.reference, report.relaxed) == (dists[0].reference, dists[0].relaxed)
            ledger.record(same, "distcheck rows differ between repeats")
        ledger.rows(self.varcompare_rows(var), "varcompare")
        return {
            "grad_walls": grad_walls,
            "grad_scaled": grad_scaled,
            "grad_items": len(grads[0].rows),
            "fwd_walls": dist_walls,
            "fwd_scaled": dist_scaled,
            "fwd_items": len(dists[0].reference) + len(dists[0].relaxed),
            "varcompare_s": var_wall,
            "quality": {},
        }

    def layer_extras(self, outcome: dict) -> dict:
        extras = dict.fromkeys(QUALITY, 0.0)
        extras["suites.rows"] = len(outcome["oks"])
        extras["suites.rows_failed"] = outcome["oks"].count(False)
        return extras


def traced_rounds(workload, name: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    """Alternates untraced and traced rounds until `seconds` have passed
    (at least one pair).  Per-layer metrics come from the first traced round;
    later ones must repeat its counts exactly."""
    from diffloc.autodiff import registered_ops

    op_kinds = registered_ops()
    kind = workload.calibration[2]
    ratios, layer, spans = [], None, 0
    deadline = perf_counter() + seconds
    while not ratios or perf_counter() < deadline:
        _, plain_s, plain = _timed(workload.round, kind)
        tracer = Tracer(record_spans=layer is None)
        gc.collect()
        with HostSpeed(kind) as speed, tracer.installed():
            start = perf_counter()
            traced = workload.round()
            traced_s = speed.scale(perf_counter() - start)
        ledger.record(not tracer.restore_errors, f"attributes not restored after tracing: {tracer.restore_errors}")
        plain_outcome = workload.check_outcome(plain, ledger, "untraced round")
        traced_outcome = workload.check_outcome(traced, ledger, "traced round")
        if plain_outcome is None or traced_outcome is None:
            break
        ledger.record(plain_outcome == traced_outcome, "tracing changed the workload's results")
        metrics = tracer.layer_metrics(op_kinds)
        absent = tracer.absent
        if layer is None:
            layer = {**metrics, **workload.layer_extras(traced_outcome)}
            OUT_DIR.mkdir(exist_ok=True)
            spans = tracer.save_spans(OUT_DIR / f"spans-{name}.npz", f"{name} seed={seed} pid={os.getpid()}")
        else:
            same = all(metrics[k] == layer[k] for k in metrics if is_count(k))
            ledger.record(same, "per-layer counts differ between traced rounds")
        ratios.append(traced_s / plain_s)
    if layer is None:
        return {}
    layer["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    for layer_name in EXERCISED[name]:
        counters = LAYER_COUNTERS[layer_name]
        ledger.record(any(layer[c] > 0 for c in counters), f"every {layer_name} counter is zero on {name}")
    return {"layer": layer, "traced_pairs": len(ratios), "spans": spans, "absent": absent}


def code_hash() -> str:
    """Hash of the package and benchmark sources, keying cross-run records."""
    digest = hashlib.sha256()
    files = sorted([*ROOT.glob("src/diffloc/**/*.py"), *ROOT.glob("perfbench/*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_record(key: str, values: dict, ledger: Ledger) -> None:
    """Values must equal those an earlier run of the same code and seed
    recorded in perfbench/out/records.json; unseen values are recorded."""
    path = OUT_DIR / "records.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    stored = data.setdefault(code_hash(), {}).setdefault(key, {})
    for name, value in values.items():
        if name in stored:
            ledger.record(stored[name] == value, f"{name} differs from an earlier run of this code and seed")
        else:
            stored[name] = value
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def environment() -> dict:
    """Interpreter, library and BLAS facts to keep beside the results."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": "unknown",
        "blas_threads": -1,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    # numpy wheels bundle OpenBLAS under numpy.libs; ask the loaded library.
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*.so*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for config, threads in (("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
                                ("openblas_get_config", "openblas_get_num_threads")):
            if hasattr(lib, config) and hasattr(lib, threads):
                getattr(lib, config).restype = ctypes.c_char_p
                env["openblas"] = getattr(lib, config)().decode().split()[1]
                env["blas_threads"] = int(getattr(lib, threads)())
                break
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls = TrainWorkload if args.workload in TRAIN_SPECS else DiagnosticsWorkload
    with HostSpeed("python") as speed:
        workload = cls(args.workload, args.seed)
    setup_scaled = speed.scale(workload.setup_s)
    import diffloc

    if not Path(diffloc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"diffloc was imported from {diffloc.__file__}, not from {ROOT / 'src'}")
    result = {"setup_s": workload.setup_s, "setup_scaled": setup_scaled}
    if not args.setup_only:
        ledger = Ledger()
        if args.trace:
            result.update(traced_rounds(workload, args.workload, args.seed, args.seconds, ledger))
            repeatable = {k: v for k, v in result.get("layer", {}).items() if is_count(k) or k in QUALITY}
            check_record(f"{args.workload}/{args.seed}", repeatable, ledger)
        else:
            result.update(workload.measure(args.seconds, ledger))
            check_record(f"{args.workload}/{args.seed}", result["quality"], ledger)
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=ledger.attempted,
            failed=ledger.failed,
            problems=ledger.problems,
            env=environment(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
