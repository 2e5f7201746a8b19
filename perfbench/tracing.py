"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each diffloc module from the
outside and restores every attribute when it is done; nothing in the package
changes.  Each function is wrapped under the name its caller looks it up by:
a name imported with ``from ... import`` is a global of the importing module,
so it is wrapped there, and methods are wrapped on their class.  The op
functions in ``diffloc.autodiff`` reach ``forward_op`` through that module's
globals, so one wrapper there covers every op kind.

A span is one call: name, start, end, parent span and root span (the
top-level call it belongs to, which serves as the request id).  Spans are kept
in memory and written out by ``save_spans``.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

PHASES = ("data", "forward", "backward", "update", "validation")

# (owner, attribute, span name, phase the call starts inside train()).
# The owner is a module path, or "module:Class" for a method.
SPAN_TARGETS = (
    ("diffloc.autodiff", "backward", "autodiff.backward", "backward"),
    ("diffloc.autodiff", "grad_check", "autodiff.grad_check", None),
    ("diffloc.operators", "draw_noise", "mixture.draw_noise", None),
    ("diffloc.harness.suites", "draw_noise", "mixture.draw_noise", None),
    ("diffloc.mixture", "draw_noise_batch", "mixture.draw_noise_batch", None),
    ("diffloc.harness.suites", "draw_noise_batch", "mixture.draw_noise_batch", None),
    ("diffloc.harness.suites", "reference_sample_batch", "mixture.reference_sample_batch", None),
    ("diffloc.operators", "basis_sample_all", "mixture.basis_sample_all", None),
    ("diffloc.harness.suites", "basis_sample_all", "mixture.basis_sample_all", None),
    ("diffloc.harness.suites", "mixture_cdf", "mixture.mixture_cdf", None),
    ("diffloc.harness.suites", "ks_statistic", "mixture.ks_statistic", None),
    ("diffloc.harness.training", "sampled_expected_error_loss", "operators.sampled_expected_error_loss", None),
    ("diffloc.harness.training", "error_of_expectation_loss", "operators.error_of_expectation_loss", None),
    ("diffloc.harness.suites", "error_of_expectation_loss", "operators.error_of_expectation_loss", None),
    ("diffloc.harness.training", "discrete_expected_error_loss", "operators.discrete_expected_error_loss", None),
    ("diffloc.harness.suites", "discrete_expected_error_loss", "operators.discrete_expected_error_loss", None),
    ("diffloc.harness.training", "variance_regularizer", "operators.variance_regularizer", None),
    ("diffloc.harness.suites", "variance_regularizer", "operators.variance_regularizer", None),
    ("diffloc.harness.training", "js_regularizer", "operators.js_regularizer", None),
    ("diffloc.harness.suites", "js_regularizer", "operators.js_regularizer", None),
    ("diffloc.harness.suites", "gumbel_softmax_values", "operators.gumbel_softmax_values", None),
    ("diffloc.harness.training", "inference_localize", "operators.inference_localize", None),
    ("diffloc.harness.model:MLPModel", "logits", "model.logits", None),
    ("diffloc.harness.model:MLPModel", "logit_values", "model.logit_values", "validation"),
    ("diffloc.harness.training", "evaluate", "training.evaluate", None),
    ("diffloc.harness.suites", "gradcheck_suite", "suites.gradcheck_suite", None),
    ("diffloc.harness.suites", "distcheck_suite", "suites.distcheck_suite", None),
    ("diffloc.harness.suites", "variance_compare", "suites.variance_compare", None),
)
SPLIT_OWNERS = ("diffloc.harness.tasks", "diffloc.harness.training")

# Spans whose metric is wall time; every other `.s` metric is self time.
WALL_SPANS = ("training.evaluate", "suites.gradcheck_suite", "suites.distcheck_suite", "suites.variance_compare")


def _resolve(owner: str):
    """The module or class an owner path names, or None when it is gone."""
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Records spans, phase times and GC pauses while installed."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_root = array("q")
        self._stack: list[list] = []
        self._next_id = 0
        self.tape_lengths: list[int] = []
        self.noise_sources: list = []
        self.examples_generated = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.step_s: list[float] = []
        self._train_depth = 0
        self._phase = None
        self._phase_start = 0.0
        self._step_start = None
        self._saved: list[tuple[object, str, object]] = []
        self.restore_errors: list[str] = []
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return idx

    def _open(self, idx: int, phase: str | None) -> None:
        now = perf_counter()
        if phase is not None and self._train_depth:
            self._enter_phase(phase, now)
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent = self._stack[-1]
            self._stack.append([sid, idx, now, 0.0, parent[0], parent[4]])
        else:
            self._stack.append([sid, idx, now, 0.0, -1, sid])

    def _close(self) -> None:
        now = perf_counter()
        sid, idx, start, child_s, parent, root = self._stack.pop()
        dur = now - start
        self.calls[idx] += 1
        self.total_s[idx] += dur
        self.self_s[idx] += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
        if self.record_spans:
            self.span_id.append(sid)
            self.span_name.append(idx)
            self.span_start.append(start)
            self.span_end.append(now)
            self.span_parent.append(parent)
            self.span_root.append(root)

    # -- training phases -----------------------------------------------------
    # Inside train() the timeline is cut at generate_split (data), tape enter
    # (forward), backward, tape exit (update) and logit_values (validation);
    # each stretch is charged to the phase its opening boundary names.  A
    # step runs from one tape enter to the next tape enter or validation.

    def _enter_phase(self, phase: str, now: float) -> None:
        self.phase_s[self._phase] += now - self._phase_start
        if self._step_start is not None and phase in ("forward", "validation"):
            self.step_s.append(now - self._step_start)
            self._step_start = None
        if phase == "forward":
            self._step_start = now
        self._phase = phase
        self._phase_start = now

    def _train_begin(self) -> None:
        self._train_depth += 1
        if self._train_depth == 1:
            self._phase = "data"
            self._phase_start = perf_counter()

    def _train_end(self) -> None:
        if self._train_depth == 1:
            now = perf_counter()
            self.phase_s[self._phase] += now - self._phase_start
            if self._step_start is not None:
                self.step_s.append(now - self._step_start)
                self._step_start = None
        self._train_depth -= 1

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, phase: str | None):
        idx = self._name(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            open_(idx, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def _forward_op_wrapper(self, fn, kinds):
        index = {kind: self._name(f"autodiff.op.{kind}") for kind in kinds}
        open_, close = self._open, self._close

        def traced(kind, inputs, **params):
            open_(index[kind], None)
            try:
                return fn(kind, inputs, **params)
            finally:
                close()

        return traced

    def _split_wrapper(self, fn):
        idx = self._name("tasks.generate_split")
        tracer = self

        def traced(task, split):
            tracer._open(idx, "data")
            try:
                obs, targets = fn(task, split)
            finally:
                tracer._close()
            tracer.examples_generated += obs.shape[0]
            return obs, targets

        return traced

    def _train_wrapper(self, fn):
        idx = self._name("training.train")
        tracer = self

        def traced(config):
            tracer._open(idx, None)
            tracer._train_begin()
            try:
                return fn(config)
            finally:
                tracer._train_end()
                tracer._close()

        return traced

    def _tape_enter_wrapper(self, enter):
        tracer = self

        def traced_enter(tape):
            if tracer._train_depth:
                tracer._enter_phase("forward", perf_counter())
            return enter(tape)

        return traced_enter

    def _tape_exit_wrapper(self, exit_):
        tracer = self

        def traced_exit(tape, *exc):
            tracer.tape_lengths.append(len(tape.records))
            result = exit_(tape, *exc)
            if tracer._train_depth:
                tracer._enter_phase("update", perf_counter())
            return result

        return traced_exit

    def _noise_init_wrapper(self, init):
        sources = self.noise_sources

        def traced_init(source, *args, **kwargs):
            init(source, *args, **kwargs)
            sources.append(source)

        return traced_init

    def _patch(self, owner_path: str, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original).  A target the
        package no longer has is listed in `absent` and left alone, so its
        metrics read 0."""
        owner = _resolve(owner_path)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.absent.append(f"{owner_path}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        gc.callbacks.append(self._gc_callback)
        autodiff = _resolve("diffloc.autodiff")
        self._patch("diffloc.autodiff", "forward_op", lambda f: self._forward_op_wrapper(f, autodiff.registered_ops()))
        tape = "diffloc.autodiff:GradientTape"
        self._patch(tape, "__enter__", self._tape_enter_wrapper)
        self._patch(tape, "__exit__", self._tape_exit_wrapper)
        self._patch("diffloc.mixture:NoiseSource", "__init__", self._noise_init_wrapper)
        for owner_path in SPLIT_OWNERS:
            self._patch(owner_path, "generate_split", self._split_wrapper)
        self._patch("diffloc.harness.training", "train", self._train_wrapper)
        for owner_path, attr, name, phase in SPAN_TARGETS:
            self._patch(owner_path, attr, lambda f, name=name, phase=phase: self._span_wrapper(f, name, phase))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not
        come back as the original object (empty when all did)."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if vars(owner)[attr] is not original
        ]
        self._saved = []
        return wrong

    @contextmanager
    def installed(self):
        """Install for the block; the restore check lands in `restore_errors`."""
        try:
            self.install()
            yield self
        finally:
            self.restore_errors = self.restore()

    # -- results -------------------------------------------------------------

    def _get(self, name: str, series: list) -> float:
        idx = self._index.get(name)
        return 0 if idx is None else series[idx]

    def layer_metrics(self, op_kinds) -> dict[str, float]:
        """Per-layer metrics derived from this tracer's spans and counters."""
        out: dict[str, float] = {}

        def calls(name):
            return self._get(name, self.calls)

        def self_s(name):
            return float(self._get(name, self.self_s))

        def wall_s(name):
            return float(self._get(name, self.total_s))

        op_names = [f"autodiff.op.{kind}" for kind in op_kinds]
        out["autodiff.forward_op.calls"] = sum(calls(n) for n in op_names)
        out["autodiff.forward_op.s"] = sum(self_s(n) for n in op_names)
        for name in ("autodiff.backward", "autodiff.grad_check"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)
        lengths = self.tape_lengths
        out["autodiff.records_per_step"] = sum(lengths) / len(lengths) if lengths else 0.0
        for name in op_names:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)
        out["gc.collections"] = self.gc_collections
        out["gc.pause_s"] = self.gc_pause_s
        out["mixture.draw_noise.calls"] = calls("mixture.draw_noise")
        out["mixture.draw_noise.s"] = self_s("mixture.draw_noise")
        out["mixture.noise_draws"] = sum(source.draws_taken for source in self.noise_sources)
        out["mixture.draw_noise_batch.s"] = self_s("mixture.draw_noise_batch")
        out["mixture.reference_sample_batch.s"] = self_s("mixture.reference_sample_batch")
        for name in ("mixture.basis_sample_all", "mixture.mixture_cdf"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)
        out["mixture.ks_statistic.s"] = self_s("mixture.ks_statistic")
        for fn in (
            "sampled_expected_error_loss",
            "error_of_expectation_loss",
            "discrete_expected_error_loss",
            "variance_regularizer",
            "js_regularizer",
            "gumbel_softmax_values",
            "inference_localize",
        ):
            out[f"operators.{fn}.calls"] = calls(f"operators.{fn}")
            out[f"operators.{fn}.s"] = self_s(f"operators.{fn}")
        out["tasks.generate_split.calls"] = calls("tasks.generate_split")
        out["tasks.generate_split.s"] = self_s("tasks.generate_split")
        out["tasks.examples_generated"] = self.examples_generated
        for name in ("model.logits", "model.logit_values"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)
        steps_ms = sorted(1000.0 * s for s in self.step_s)
        out["training.steps"] = len(steps_ms)
        if len(steps_ms) >= 2:
            deciles = statistics.quantiles(steps_ms, n=10)
            out["training.step_ms_p50"] = statistics.median(steps_ms)
            out["training.step_ms_p90"] = deciles[8]
        else:
            out["training.step_ms_p50"] = out["training.step_ms_p90"] = steps_ms[0] if steps_ms else 0.0
        for phase in PHASES:
            out[f"training.phase.{phase}_s"] = self.phase_s[phase]
        for name in WALL_SPANS:
            out[f"{name}.s"] = wall_s(name)
        return out

    def save_spans(self, path, run: str) -> int:
        """Write the recorded spans to an .npz file; returns the span count."""
        import numpy as np

        np.savez(
            path,
            run=np.array(run),
            names=np.array(self.names),
            span_id=np.array(self.span_id, dtype=np.int64),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            parent=np.array(self.span_parent, dtype=np.int64),
            root=np.array(self.span_root, dtype=np.int64),
        )
        return len(self.span_id)
