"""Synthetic tasks, model, training loop, metrics, and diagnostic suites."""

import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffloc
from diffloc import autodiff as ad
from diffloc.autodiff import Tensor
from diffloc.harness.metrics import CalibrationResult, calibration_report, pearson
from diffloc.harness.model import MLPModel
from diffloc.harness import suites
from diffloc.harness.suites import (
    GradCheckRow,
    ReferenceRow,
    RelaxedRow,
    VarianceCompareRow,
    distcheck_suite,
    gradcheck_suite,
    reparam_gradients,
    score_function_gradients,
    variance_compare,
)
from diffloc.harness.tasks import (
    SPLITS,
    TASK_KINDS,
    SyntheticTask,
    generate_example,
    generate_split,
    scatter_sigma,
    split_count,
    task_mixture_spec,
    task_support,
)
from diffloc.harness import tasks, training
from diffloc.harness.training import (
    LOSS_KINDS,
    LOSSES,
    RunConfig,
    TrainingDiverged,
    evaluate,
    learning_rate_at,
    make_loss,
    train,
)
from diffloc import mixture
from diffloc.mixture import (
    BASES,
    WEIGHT_FLOOR,
    MixtureSpec,
    NoiseSource,
    ProbabilityMap,
    Support,
    basis_sample_all,
    draw_noise_batch,
    gumbel_from_uniform,
    gumbel_scores,
    ks_critical_value,
    ks_statistic,
    mixture_moments,
)
from diffloc.operators import (
    DISTANCES,
    SamplingConfig,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    field_kinds,
    js_regularizer,
    sample_differentiable,
    sampled_expected_error_loss,
    variance_regularizer,
)
from diffloc.rows import Rows
from looped_gradcheck import grad_check


SMALL = dict(train_count=24, val_count=8, test_count=8)

# Each regularized objective's regularizer and its default weight.
DEFAULT_REGULARIZERS = {"soft-vr": (variance_regularizer, 0.01), "soft-dr": (js_regularizer, 0.1)}


def small_task(kind="signal1d", **kwargs):
    merged = dict(SMALL, kind=kind)
    merged.update(kwargs)
    return SyntheticTask(**merged)


# ---------------------------------------------------------------------------
# Tasks


class TestTasks:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SyntheticTask(kind="audio")
        with pytest.raises(ValueError, match="size"):
            SyntheticTask(kind="signal1d", size=4)
        with pytest.raises(ValueError, match="noise"):
            SyntheticTask(kind="signal1d", noise=-0.1)
        for name, value in (("train_count", 0), ("val_count", 0), ("test_count", -3)):
            with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
                SyntheticTask(kind="signal1d", **{name: value})
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            SyntheticTask(kind="signal1d", seed=-1)

    def test_default_sizes_and_supports(self):
        assert SyntheticTask(kind="signal1d").size == 32
        assert task_support(SyntheticTask(kind="signal1d")).n == 32
        assert task_support(SyntheticTask(kind="heat2d", size=12)).n == 144
        sup3 = task_support(SyntheticTask(kind="scatter3d", size=64))
        assert sup3.spacing is None and sup3.n == 64 and sup3.ndim == 3

    def test_examples_are_deterministic(self):
        for kind in TASK_KINDS:
            task = small_task(kind, size=16 if kind != "scatter3d" else 64)
            a_obs, a_y = generate_example(task, "train", 3)
            b_obs, b_y = generate_example(task, "train", 3)
            np.testing.assert_array_equal(a_obs, b_obs)
            np.testing.assert_array_equal(a_y, b_y)

    def test_splits_differ_and_counts_hold(self):
        task = small_task()
        per_split = {}
        for split in SPLITS:
            obs, targets = generate_split(task, split)
            assert obs.shape == (split_count(task, split), task.size)
            assert targets.shape == (split_count(task, split), 1)
            per_split[split] = obs
        assert not np.array_equal(per_split["train"][:8], per_split["val"])
        assert not np.array_equal(per_split["val"], per_split["test"])

    def test_seed_changes_data(self):
        a, _ = generate_split(small_task(seed=0), "train")
        b, _ = generate_split(small_task(seed=1), "train")
        assert not np.array_equal(a, b)

    def test_targets_inside_bounds(self):
        # Each target lies within its support's per-axis position range.
        for kind in TASK_KINDS:
            task = small_task(kind, size=16 if kind != "scatter3d" else 64)
            positions = task_support(task).positions
            _, targets = generate_split(task, "train")
            assert np.all(targets >= positions.min(axis=0)) and np.all(targets <= positions.max(axis=0))

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_noiseless_argmax_is_nearest_support_point(self, kind):
        task = dataclasses.replace(
            SyntheticTask(kind=kind, size=64 if kind == "scatter3d" else None,
                          noise=2.0, train_count=150, val_count=75, test_count=75),
            noise=0.0,
        )
        support = task_support(task)
        for split in SPLITS:
            for i in range(split_count(task, split)):
                obs, y_t = generate_example(task, split, i)
                nearest = np.argmin(((support.positions - y_t) ** 2).sum(axis=1))
                assert int(np.argmax(obs)) == nearest

    def test_noise_level_scales_observation_spread(self):
        quiet = small_task(noise=0.1)
        loud = small_task(noise=2.0)
        q_obs, _ = generate_split(quiet, "train")
        l_obs, _ = generate_split(loud, "train")
        quiet_dev = np.abs(q_obs - generate_split(dataclasses.replace(quiet, noise=0.0), "train")[0]).mean()
        loud_dev = np.abs(l_obs - generate_split(dataclasses.replace(loud, noise=0.0), "train")[0]).mean()
        assert loud_dev > 4.0 * quiet_dev

    def test_mixture_spec_selection(self):
        assert task_mixture_spec(small_task(), "triangular").basis == "triangular"
        scatter = SyntheticTask(kind="scatter3d", size=64, **SMALL)
        spec = task_mixture_spec(scatter, "triangular")
        assert spec.basis == "gaussian"
        assert spec.sigma == pytest.approx(scatter_sigma(scatter))

    def test_every_small_grid_size_finishes(self):
        # At these sizes some targets leave no point of the distractor box far
        # enough away.  A child process with a timeout turns a hang into a
        # failure.
        code = (
            "from diffloc.harness.tasks import SPLITS, SyntheticTask, generate_split\n"
            "for kind, sizes in (('signal1d', range(8, 17)), ('heat2d', range(8, 14))):\n"
            "    for size in sizes:\n"
            "        for seed in (0, 3):\n"
            "            for split in SPLITS:\n"
            "                generate_split(SyntheticTask(kind, size=size, noise=1.0, seed=seed), split)\n"
        )
        src = str(Path(diffloc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    @pytest.mark.parametrize("hi, ndim", [(10.0, 1), (7.0, 2)])
    def test_distractor_gives_up_on_a_sliver(self, hi, ndim):
        # y_t lies just inside the separation from the box's corner (hi, ..),
        # so the region beyond it is a sliver that no try hits: the loop
        # must stop after its tries and leave the stream past them.
        y_t = np.full(ndim, hi - (tasks._MIN_SEP + 1e-9) / np.sqrt(ndim))
        assert np.linalg.norm(np.maximum(y_t - 1.0, hi - y_t)) > tasks._MIN_SEP
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert tasks._place_distractor(rng, 1.0, hi, y_t, tasks._MIN_SEP) is None
        ref.uniform(size=(tasks._DISTRACTOR_TRIES, ndim))
        assert rng.random() == ref.random()

    def test_generate_example_bad_inputs(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made before the split and index were checked")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(tasks, "per_stream", no_generator)
        task = small_task()
        with pytest.raises(ValueError, match="unknown split: 'holdout'"):
            generate_example(task, "holdout", 0)
        with pytest.raises(ValueError, match="unknown split: 'holdout'"):
            generate_split(task, "holdout")
        for index in (99, 8, -1):
            with pytest.raises(ValueError, match=f"index {index} out of range for split 'val'"):
                generate_example(task, "val", index)
        for index in (1.5, True, "1"):
            with pytest.raises(TypeError, match=f"index must be an int, got {index!r}$"):
                generate_example(task, "val", index)

    def test_fast_draws_have_the_bits_and_stream_of_uniform_and_sized_integers(self):
        # Grid generation draws through scaled random() draws, taken k at a
        # time with random(k), and scalar integers(); each pair below must
        # match the call it stands for bit for bit and leave the stream at
        # the same place.
        ranges = [tasks._WIDTH_RANGE, tasks._LAM_RANGE, tasks._RHO_RANGE, (0.1, 1.0), (0.0, 0.55)]
        ranges += [(1.0, n - 2.0) for n in range(8, 33)]

        def same(fast, slow):
            assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()
            assert rng.random() == ref.random()

        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for lo, hi in ranges:
                same(tasks._scaled(rng.random(), lo, hi), ref.uniform(lo, hi))
                for k in (1, 2):
                    same(tasks._scaled(rng.random((k,)), lo, hi), ref.uniform(lo, hi, size=k))
                    same([tasks._scaled(u, lo, hi) for u in rng.random(k).tolist()], ref.uniform(lo, hi, size=k))
            for n in range(8, 33):
                for ndim in (1, 2):
                    same([rng.integers(1, n - 2) for _ in range(ndim)], ref.integers(1, n - 2, size=ndim))
            # The batched draws of one grid example, with and without a
            # distractor, in 1 and 2 axes: random(k) is k scalar random() calls.
            for k in (1 + 4 * 1, 1 + 4 * 2, 2 + 3 * 1, 2 + 3 * 2):
                same(rng.random(k).tolist(), [ref.random() for _ in range(k)])

    @pytest.mark.parametrize(
        "kind, sizes, counts",
        [
            ("signal1d", [None], {}),
            ("signal1d", range(8, 17), dict(train_count=40, val_count=12, test_count=12)),
            ("heat2d", [None], {}),
            ("heat2d", range(8, 14), dict(train_count=40, val_count=12, test_count=12)),
            ("scatter3d", [64], dict(train_count=24, val_count=8, test_count=8)),
        ],
        ids=["signal1d-default", "signal1d-small", "heat2d-default", "heat2d-small", "scatter3d"],
    )
    @pytest.mark.parametrize("seed", [0, 3, 7919, 2**32 + 5, 2**64 + 7])
    def test_generation_keeps_every_examples_bits(self, kind, sizes, counts, seed):
        for size in sizes:
            task = SyntheticTask(kind, size=size, noise=1.5, seed=seed, **counts)
            for split in SPLITS:
                examples = [reference_example(task, split, i) for i in range(split_count(task, split))]
                obs, targets = generate_split(task, split)
                assert np.array_equal(obs, np.stack([e[0] for e in examples]))
                assert np.array_equal(targets, np.stack([e[1] for e in examples]))
                for i in range(0, len(examples), 1 if size else 16):
                    one_obs, one_y = generate_example(task, split, i)
                    assert np.array_equal(one_obs, examples[i][0]) and np.array_equal(one_y, examples[i][1])


def reference_example(task, split, index):
    """(observation, y_t) of one example as generated one at a time, from a
    list-seeded generator, with np.linalg.norm and one bump per call: the
    reference that generate_split and generate_example match bit for bit."""
    rng = np.random.default_rng([task.seed, {"train": 1, "val": 2, "test": 3}[split], index])
    if task.kind == "scatter3d":
        return reference_scatter_example(task, rng)
    ndim = 1 if task.kind == "signal1d" else 2
    n = task.size
    x = np.arange(n, dtype=np.float64)
    cells = rng.integers(1, n - 2, size=ndim)
    y_t = cells + np.array([reference_cell_offset(rng) for _ in range(ndim)])
    signal = reference_bump_profile(rng, x, y_t)

    difficulty = rng.uniform(0.1, 1.0)
    noisy = signal
    farthest = np.linalg.norm(np.maximum(y_t - 1.0, n - 2.0 - y_t))
    d_pos = None
    if (n - 3) * np.sqrt(ndim) >= 1.3 * tasks._MIN_SEP and farthest > tasks._MIN_SEP:
        for _ in range(tasks._DISTRACTOR_TRIES):
            cand = rng.uniform(1.0, n - 2.0, size=y_t.shape)
            if np.linalg.norm(cand - y_t) >= tasks._MIN_SEP:
                d_pos = cand
                break
    if d_pos is not None:
        rho = rng.uniform(*tasks._RHO_RANGE)
        d_profile = reference_bump_profile(rng, x, d_pos)
        signal = signal + rho * d_profile
        boost = task.noise * difficulty * rng.uniform(0.0, 0.55)
        noisy = signal + boost * d_profile

    std = task.noise * difficulty * (0.05 + 0.25 * signal)
    obs = noisy + std * rng.standard_normal(signal.shape)
    return obs.reshape(-1), y_t


def reference_cell_offset(rng):
    u = rng.uniform()
    if u < 0.5:
        return 2.0 * u * tasks._MID_BAND[0]
    return tasks._MID_BAND[1] + (2.0 * u - 1.0) * (1.0 - tasks._MID_BAND[1])


def reference_bump_profile(rng, x, center):
    out = None
    for c in center:
        width = rng.uniform(*tasks._WIDTH_RANGE)
        lam_lo, lam_hi = rng.uniform(*tasks._LAM_RANGE, size=2)
        delta = x - float(c)
        absd = np.abs(delta)
        core = np.exp(-0.5 * (delta / width) ** 2)
        edge = np.exp(-0.5 / width**2)
        lam = np.where(delta < 0, lam_lo, lam_hi)
        tail = edge * np.exp(-(absd - 1.0) / lam)
        axis_vals = np.where(absd <= 1.0, core, tail)
        out = axis_vals if out is None else np.multiply.outer(out, axis_vals)
    return out


def reference_scatter_example(task, rng):
    raw = np.random.default_rng([task.seed, tasks._CLOUD_STREAM]).standard_normal((task.size, 3))
    pos = 1.0 + raw / np.linalg.norm(raw, axis=1, keepdims=True)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    eligible = np.flatnonzero(np.sqrt(d2.min(axis=1)) >= 0.08)
    t = int(eligible[rng.integers(eligible.size)])
    scale = rng.uniform(0.22, 0.32)
    d_cand = np.flatnonzero(np.sqrt(d2[t]) >= 1.0)
    t2 = int(d_cand[rng.integers(d_cand.size)])
    rho = rng.uniform(0.25, 0.5)
    d_feature = np.exp(-0.5 * ((pos - pos[t2]) ** 2).sum(axis=1) / scale**2)
    signal = np.exp(-0.5 * ((pos - pos[t]) ** 2).sum(axis=1) / scale**2) + rho * d_feature
    difficulty = rng.uniform(0.1, 1.0)
    boost = task.noise * difficulty * rng.uniform(0.0, 0.55)
    std = task.noise * difficulty * (0.05 + 0.25 * signal)
    return signal + boost * d_feature + std * rng.standard_normal(signal.shape), pos[t].copy()


# ---------------------------------------------------------------------------
# Model


class TestModel:
    def test_shapes_and_determinism(self):
        a = MLPModel(16, 8, 10, seed=3)
        b = MLPModel(16, 8, 10, seed=3)
        x = np.random.default_rng(0).normal(0.0, 1.0, (5, 16))
        np.testing.assert_array_equal(a.logit_values(x), b.logit_values(x))
        assert a.logit_values(x).shape == (5, 10)
        c = MLPModel(16, 8, 10, seed=4)
        assert not np.array_equal(a.logit_values(x), c.logit_values(x))

    def test_parameters_require_grad(self):
        model = MLPModel(6, 4, 5, seed=0)
        params = list(model.parameters())
        assert len(params) == 4
        assert all(p.requires_grad for p in params)

    def test_save_load_round_trip(self, tmp_path):
        model = MLPModel(12, 7, 9, seed=11)
        path = str(tmp_path / "model.npz")
        x = np.random.default_rng(1).normal(0.0, 1.0, (4, 12))
        for kind in TASK_KINDS:
            task = SyntheticTask(kind, size=10, noise=0.3, train_count=5, val_count=4, test_count=3, seed=8)
            model.save(path, task)
            clone, saved = MLPModel.load(path)
            assert saved == task
            np.testing.assert_array_equal(model.logit_values(x), clone.logit_values(x))

    def test_logits_tensor_matches_values(self):
        model = MLPModel(6, 4, 5, seed=2)
        x = np.random.default_rng(2).normal(0.0, 1.0, (3, 6))
        with ad.GradientTape():
            t = model.logits(x)
        np.testing.assert_array_equal(t.values, model.logit_values(x))


# ---------------------------------------------------------------------------
# Training


class TestTraining:
    def test_run_config_validation(self):
        task = small_task()
        with pytest.raises(ValueError, match="loss"):
            RunConfig(task=task, loss="hinge")
        with pytest.raises(ValueError, match="schedule"):
            RunConfig(task=task, lr_schedule="step")
        for kind in ("signal1d", "scatter3d"):
            with pytest.raises(ValueError, match="unknown basis: 'bogus'"):
                RunConfig(task=SyntheticTask(kind), basis="bogus")
        with pytest.raises(ValueError, match="positive"):
            RunConfig(task=task, lr=0.0)
        with pytest.raises(ValueError, match="sigma_t_sq"):
            RunConfig(task=task, sigma_t_sq=-1.0)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            RunConfig(task=task, seed=-1)
        with pytest.raises(TypeError, match="task must be a SyntheticTask, got 'signal1d'"):
            RunConfig(task="signal1d")
        with pytest.raises(TypeError, match="sampling must be a SamplingConfig, got None"):
            RunConfig(task=task, sampling=None)
        for loss in ("soft", "discrete", "samp"):
            with pytest.raises(ValueError, match=f"loss '{loss}' has no regularizer, so reg_weight must be unset"):
                RunConfig(task=task, loss=loss, reg_weight=0.5)
        with pytest.raises(ValueError, match="reg_weight must be non-negative, got -1.0"):
            RunConfig(task=task, loss="soft-dr", reg_weight=-1.0)

    @pytest.mark.parametrize(
        "loss, reg_weight, weight",
        [("soft-vr", None, 0.01), ("soft-dr", None, 0.1), ("soft-vr", 0.25, 0.25), ("soft", None, None)],
    )
    def test_reg_weight_defaults(self, loss, reg_weight, weight):
        # The weight make_loss gives an objective, read off the loss bits.
        rng = np.random.default_rng(17)
        support = Support.regular_grid(8)
        pmap = ProbabilityMap(support, Tensor(ad.softmax_values(rng.normal(0.0, 1.5, (3, 8)), axis=-1)))
        y = rng.uniform(1.0, 6.0, (3, 1))
        built = make_loss(loss, None, "l1", 4.0, reg_weight)(pmap, y, 1.0).values
        expected = error_of_expectation_loss(pmap, y).values
        if weight is not None:
            expected = expected + DEFAULT_REGULARIZERS[loss][0](pmap, 4.0).values * weight
        assert built.tobytes() == expected.tobytes()

    def test_learning_rate_schedule(self):
        task = small_task()
        const = RunConfig(task=task, lr=0.2, lr_schedule="constant", epochs=10)
        assert learning_rate_at(const, 7, 9) == 0.2
        cos = RunConfig(task=task, lr=0.2, lr_schedule="cosine", epochs=10)
        assert learning_rate_at(cos, 0, 9) == pytest.approx(0.2)
        assert learning_rate_at(cos, 9, 9) == pytest.approx(0.2 * 0.05)
        rates = [learning_rate_at(cos, e, 9) for e in range(10)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("loss", ("soft", "discrete", "samp", "soft-vr", "soft-dr"))
    def test_short_run_improves_validation_error(self, loss):
        task = small_task(train_count=48, val_count=16, noise=0.3)
        config = RunConfig(task=task, loss=loss, epochs=12, lr=0.1, seed=0)
        model, history = train(config)
        assert len(history) == 12
        assert history[-1].val_mean_err < history[0].val_mean_err
        assert [h.epoch for h in history] == list(range(12))

    def test_history_tau_follows_schedule(self):
        task = small_task(train_count=16, val_count=8)
        config = RunConfig(task=task, loss="soft", epochs=5, seed=0)
        _, history = train(config)
        taus = [h.tau for h in history]
        assert taus[0] == pytest.approx(config.sampling.tau_start)
        assert taus[-1] == pytest.approx(config.sampling.tau_end)
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_training_is_deterministic(self):
        task = small_task(train_count=16, val_count=8)
        config = RunConfig(task=task, loss="samp", epochs=3, seed=5)
        model_a, hist_a = train(config)
        model_b, hist_b = train(config)
        assert hist_a == hist_b
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_huge_learning_rate_diverges(self):
        task = small_task(train_count=16, val_count=8)
        config = RunConfig(task=task, loss="soft", epochs=3, lr=1e308, lr_schedule="constant")
        with pytest.raises(TrainingDiverged) as diverged:
            with np.errstate(over="ignore", invalid="ignore"):
                train(config)
        assert "epoch 0" in str(diverged.value) and diverged.value.history == []

    def test_divergence_keeps_earlier_history(self, monkeypatch):
        task = small_task(train_count=16, val_count=8)
        config = RunConfig(task=task, loss="soft", epochs=3, lr=0.05, lr_schedule="constant")
        _, clean = train(config)
        monkeypatch.setattr(training, "learning_rate_at", lambda c, epoch, total: 1e308 if epoch else c.lr)
        with pytest.raises(TrainingDiverged, match="epoch 1") as diverged:
            with np.errstate(over="ignore", invalid="ignore"):
                train(config)
        assert diverged.value.history == clean[:1]

    def test_consumes_one_draw_per_sample(self, monkeypatch):
        sources = []

        class RecordingSource(NoiseSource):
            def __init__(self, seed):
                super().__init__(seed)
                sources.append(self)

        monkeypatch.setattr(training, "NoiseSource", RecordingSource)
        task = small_task(train_count=12, val_count=4)
        for loss in ("samp", "soft"):
            train(RunConfig(task=task, loss=loss, epochs=2, sampling=SamplingConfig(num_samples=7)))
        assert [s.draws_taken for s in sources] == [2 * 12 * 7, 0]

    def test_tape_size_does_not_depend_on_batch_or_samples(self, monkeypatch):
        lengths = []
        exit_tape = ad.GradientTape.__exit__

        def recording_exit(tape, *exc):
            lengths.append(len(tape.records))
            return exit_tape(tape, *exc)

        monkeypatch.setattr(ad.GradientTape, "__exit__", recording_exit)
        task = small_task(train_count=20, val_count=4)
        seen = set()
        for batch_size in (1, 3, 16):
            for num_samples in (1, 5, 12):
                lengths.clear()
                sampling = SamplingConfig(num_samples=num_samples)
                train(RunConfig(task=task, loss="samp", epochs=1, batch_size=batch_size, sampling=sampling))
                assert len(lengths) == -(-20 // batch_size)  # one tape per batch, ragged last one too
                seen.update(lengths)
        assert len(seen) == 1 and seen.pop() <= 30

    @staticmethod
    def record_kinds(monkeypatch):
        """A list that each closing tape appends its op kinds to, in order."""
        kinds = []
        exit_tape = ad.GradientTape.__exit__

        def recording_exit(tape, *exc):
            kinds.append([rec.kind for rec in tape.records])
            return exit_tape(tape, *exc)

        monkeypatch.setattr(ad.GradientTape, "__exit__", recording_exit)
        return kinds

    def test_tape_size_per_loss(self, monkeypatch):
        # One batch of 16; each floored log is one record, one in samp and
        # two in soft-dr's JS regularizer.  Each affine layer used to take
        # three records and each batch or draw mean two, and samp's relaxed
        # sample a divide and a row pick besides: 13, 11, 21, 22 and 27.
        # The gather into a (B, 1, n) row layout took one more: 9, 7, 14, 18
        # and 23.  The Gumbel-softmax took a floored log, a per-draw gather
        # and an add besides its softmax, and each distance a subtract
        # before it, the variance target's too: 8, 6, 13, 17 and 22.  samp's
        # rows product of the relaxed weights and each distance's coordinate
        # sum took one record each: 7, 6, 9, 15 and 21.
        kinds = self.record_kinds(monkeypatch)
        task = small_task(train_count=16, val_count=4)
        recorded = {}
        for loss in LOSSES:
            kinds.clear()
            train(RunConfig(task=task, loss=loss, epochs=1, batch_size=16))
            (recorded[loss],) = map(len, kinds)
        assert recorded == {"soft": 6, "discrete": 6, "samp": 7, "soft-vr": 14, "soft-dr": 20}

    def test_samp_step_records(self, monkeypatch):
        kinds = self.record_kinds(monkeypatch)
        train(RunConfig(task=small_task(train_count=16, val_count=4), loss="samp", epochs=1, batch_size=16))
        assert kinds == [[
            # Two affine layers, the hidden one with its relu.
            "matrix-multiply",
            "matrix-multiply",
            # The (B, n) maps.
            "softmax-over-axis",
            # The tempered Gumbel-softmax of the floored log weights, each
            # draw's row times its samples.
            "softmax-over-axis",
            # L1 distance to the target summed over coordinates, the mean
            # over draws, the batch mean.
            "absolute-value",
            "mean-over-axis",
            "mean-over-axis",
        ]]

    def test_update_is_in_place(self, monkeypatch):
        # A new array per parameter per step made each kept train() result
        # cost more memory; the in-place update keeps the bits of old - lr * grad.
        grads = {}

        def keep_grad(tensor):
            grads[id(tensor)] = tensor.grad
            tensor.grad = None

        monkeypatch.setattr(Tensor, "zero_grad", keep_grad)
        task = small_task(train_count=16, val_count=4)
        support = task_support(task)
        obs, targets = generate_split(task, "train")
        model = MLPModel(obs.shape[1], 8, support.n, seed=2)
        arrays = [p.values for p in model.parameters()]
        old = [a.copy() for a in arrays]
        lr = 0.05
        training._train_batch(model, support, make_loss("soft", None, "l1", 4.0), obs, targets, 1.0, lr)
        for p, a, before in zip(model.parameters(), arrays, old):
            assert p.values is a
            assert p.values.tobytes() == (before - lr * grads[id(p)]).tobytes()

    def test_validation_error_is_evaluate_mean(self):
        task = SyntheticTask(kind="heat2d", size=12, seed=3)
        model, history = train(RunConfig(task=task, loss="soft", epochs=3, seed=3))
        _, summary = evaluate(model, task, "val")
        assert history[-1].val_mean_err == summary.mean_error

    def test_evaluate_summary_consistent_with_records(self):
        task = small_task(train_count=16, val_count=8, test_count=12)
        config = RunConfig(task=task, loss="soft", epochs=3, seed=1)
        model, _ = train(config)
        records, summary = evaluate(model, task)
        errors = np.array([r.error for r in records])
        assert summary.count == 12 == len(records)
        assert summary.mean_error == pytest.approx(errors.mean())
        assert summary.median_error == pytest.approx(np.median(errors))
        assert summary.within_one_cell == pytest.approx((errors <= 1.0).mean())
        for r in records:
            assert r.error == pytest.approx(np.abs(r.pred - r.target).sum())
            assert 0.0 < r.peak <= 1.0


    @pytest.mark.parametrize("kind, size", [("signal1d", None), ("heat2d", 12), ("scatter3d", 64)])
    def test_evaluate_records_match_per_row_construction(self, kind, size):
        task = SyntheticTask(kind, size=size, noise=1.5, test_count=24, seed=3)
        support = task_support(task)
        obs, targets = generate_split(task, "test")
        model = MLPModel(obs.shape[1], 16, support.n, seed=3)
        rows, preds, errors = training._predict(model, support, obs, targets)
        records, _ = evaluate(model, task)
        assert [r.index for r in records] == list(range(obs.shape[0]))
        for i, r in enumerate(records):
            assert np.array_equal(r.pred, preds[i]) and np.array_equal(r.target, targets[i])
            assert type(r.peak) is float and r.peak == float(rows[i].max())
            assert type(r.error) is float and r.error == float(errors[i])

    @staticmethod
    def record_fields(r):
        return r.index, r.pred.tolist(), r.target.tolist(), r.peak, r.error

    @pytest.mark.parametrize("kind, size", [("signal1d", None), ("heat2d", 12)])
    def test_trial_records_index_as_they_iterate(self, kind, size):
        task = SyntheticTask(kind, size=size, test_count=10, seed=4)
        n = task_support(task).n
        records, _ = evaluate(MLPModel(n, 8, n, seed=4), task)
        listed = [self.record_fields(r) for r in records]
        assert len(records) == len(listed) == 10
        assert [self.record_fields(r) for r in records] == listed
        for i in (*range(10), np.int64(3)):
            assert self.record_fields(records[i]) == listed[i]
        assert self.record_fields(records[-1]) == listed[-1]
        assert self.record_fields(records[-10]) == listed[0]
        assert type(records[0].peak) is float and type(records[0].error) is float
        for i in (10, -11):
            with pytest.raises(IndexError):
                records[i]
        for i in (slice(0, 2), 1.0):
            with pytest.raises(TypeError):
                records[i]

    @pytest.mark.parametrize("kind, size", [("heat2d", 12), ("scatter3d", 64)])
    def test_trial_records_compare_by_value(self, kind, size):
        # The generated __eq__ compared the row views as a tuple and raised
        # numpy's ambiguous-truth ValueError on any prediction of two or
        # more coordinates.
        task = SyntheticTask(kind, size=size, test_count=6, seed=4)
        n = task_support(task).n
        records, _ = evaluate(MLPModel(n, 8, n, seed=4), task)
        first = records[0]
        assert first == records[0] and not first != records[0]
        assert first == training.TrialRecord(0, first.pred.copy(), first.target.copy(), first.peak, first.error)
        assert first != records[1]
        for changed in (
            dataclasses.replace(first, index=1),
            dataclasses.replace(first, pred=first.pred + 1.0),
            dataclasses.replace(first, target=first.target[:1]),
            dataclasses.replace(first, peak=first.peak / 2),
            dataclasses.replace(first, error=first.error + 1.0),
        ):
            assert first != changed
        assert first != (0, first.pred, first.target, first.peak, first.error)
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)

    def test_evaluate_keeps_four_columns_and_builds_no_record(self, monkeypatch):
        # A TrialRecord with its fields, whose construction fails: evaluate()
        # may name it as its row type but never build one.
        class Refused(training.TrialRecord):
            __slots__ = ()

            def __init__(self, *args):
                raise AssertionError("evaluate() built a TrialRecord")

        task = small_task(test_count=12)
        n = task_support(task).n
        model = MLPModel(n, 8, n, seed=5)
        monkeypatch.setattr(training, "TrialRecord", Refused)
        records, summary = evaluate(model, task)
        assert records.row_type is Refused
        assert summary.count == len(records) == 12
        assert records.column("pred").shape == records.column("target").shape == (12, 1)
        assert records.column("peak").shape == records.column("error").shape == (12,)
        # The peaks are their own array, not a view that keeps the weight rows.
        assert records.column("peak").base is None

    def test_evaluate_results_do_not_share_arrays(self):
        task = small_task(test_count=12)
        n = task_support(task).n
        model = MLPModel(n, 8, n, seed=6)
        first, _ = evaluate(model, task)
        kept = [a.copy() for a in first.columns[1:]]
        for p in model.parameters():
            p.values = p.values * 1.5
        second, _ = evaluate(model, task)
        assert not np.array_equal(second.column("pred"), first.column("pred"))
        for a, b in zip(first.columns[1:], kept):
            assert np.array_equal(a, b)


class TestPredictionsKeepTheirBits:
    """A prediction has the bits its example gets alone, wherever the example
    sits in the split: every matrix product multiplies rows in fixed blocks
    of four."""

    @staticmethod
    def trained(kind):
        task = SyntheticTask(kind, train_count=64, seed=1)
        model, _ = train(RunConfig(task=task, loss="soft", epochs=2, seed=1))
        return model, task

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_alone_in_chunks_and_reversed(self, kind):
        model, task = self.trained(kind)
        support = task_support(task)
        obs, targets = generate_split(task, "test")
        count = obs.shape[0]

        def predict(order, chunk):
            preds = np.empty_like(targets)
            for start in range(0, count, chunk):
                picked = order[start : start + chunk]
                preds[picked] = training._predict(model, support, obs[picked], targets[picked])[1]
            return preds

        forward = np.arange(count)
        whole = predict(forward, count)
        for order, chunk in ((forward, 1), (forward, 7), (forward[::-1], count)):
            assert np.array_equal(predict(order, chunk), whole), (kind, chunk)

    def test_a_shorter_test_split_gives_its_examples_the_same_predictions(self):
        model, task = self.trained("heat2d")
        short, _ = evaluate(model, dataclasses.replace(task, test_count=7))
        full, _ = evaluate(model, task)
        assert task.test_count == 128
        assert np.array_equal(short.column("pred"), full.column("pred")[:7])

    @pytest.mark.parametrize("k", [32, 576])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_a_lone_row_has_the_bits_of_every_row_of_a_batch(self, k, m):
        rng = np.random.default_rng(k + m)
        b = rng.normal(size=(k, m))
        for count in range(1, 10):
            batch = rng.normal(size=(count, k))
            out = ad.matrix_multiply(batch, b).values
            for i, row in enumerate(batch):
                assert np.array_equal(ad.matrix_multiply(row, b).values, out[i]), (count, i)


class TestBatchedStep:
    """The batched training step against the per-example formulation: one
    (n,) map per row, one loss call per map, summed in order."""

    SIZES = {"signal1d": 16, "heat2d": 8, "scatter3d": 16}

    @staticmethod
    def reference_step(model, support, config, spec, source, obs, targets, tau):
        distance = config.sampling.distance
        logits = model.logits(obs)
        terms, total = [], None
        for r in range(obs.shape[0]):
            weights = ad.softmax_over_axis(ad.forward_op("index-select", [logits], index=r, axis=0))
            pmap, y = ProbabilityMap(support, weights), targets[r]
            if config.loss == "soft":
                term = error_of_expectation_loss(pmap, y, distance)
            elif config.loss == "discrete":
                term = discrete_expected_error_loss(pmap, y, distance)
            elif config.loss == "samp":
                # num_samples sequential draws per row, as the per-row loop took them
                draws = [draw_noise_batch(source, 1, support.n, support.ndim)
                         for _ in range(config.sampling.num_samples)]
                gumbels = np.concatenate([g for g, _ in draws])
                samples = basis_sample_all(spec, support, np.concatenate([u for _, u in draws]))
                term = sampled_expected_error_loss(pmap, y, gumbels, samples, tau, distance)
            else:
                # config.reg_weight is None: each objective's default weight.
                reg, weight = DEFAULT_REGULARIZERS[config.loss]
                term = ad.add(
                    error_of_expectation_loss(pmap, y, distance),
                    ad.multiply(reg(pmap, config.sigma_t_sq), Tensor(weight)),
                )
            terms.append(term)
            total = term if total is None else ad.add(total, term)
        return terms, ad.multiply(total, Tensor(1.0 / obs.shape[0]))

    @staticmethod
    def gradients(model, step):
        with ad.GradientTape():
            out = step()
            ad.backward(out[1])
        grads = [p.grad.copy() for p in model.parameters()]
        for p in model.parameters():
            p.zero_grad()
        return out, grads

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(TASK_KINDS),
        loss=st.sampled_from(LOSSES),
        distance=st.sampled_from(DISTANCES),
        count=st.integers(1, 12),
        batch_size=st.integers(1, 8),
        num_samples=st.integers(1, 10),
        tau=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_example_step(self, kind, loss, distance, count, batch_size, num_samples, tau, seed):
        task = SyntheticTask(kind=kind, size=self.SIZES[kind], noise=1.0, train_count=count, seed=seed)
        sampling = SamplingConfig(num_samples=num_samples, distance=distance)
        config = RunConfig(task=task, loss=loss, sampling=sampling, batch_size=batch_size, seed=seed)
        support = task_support(task)
        spec = task_mixture_spec(task, config.basis)
        obs, targets = generate_split(task, "train")
        model = MLPModel(obs.shape[1], 8, support.n, seed=seed)
        batched_source, reference_source = NoiseSource([seed, 11]), NoiseSource([seed, 11])
        noise = training._fresh_noise(batched_source, num_samples, spec)
        loss_fn = make_loss(loss, noise, distance, config.sigma_t_sq, config.reg_weight)
        for start in range(0, count, batch_size):
            rows = slice(start, start + batch_size)
            (losses, batch_loss), grads = self.gradients(
                model, lambda: training._batch_losses(model, support, loss_fn, obs[rows], targets[rows], tau)
            )
            (terms, ref_loss), ref_grads = self.gradients(
                model,
                lambda: self.reference_step(
                    model, support, config, spec, reference_source, obs[rows], targets[rows], tau
                ),
            )
            assert losses.shape == (len(terms),)
            np.testing.assert_array_equal(losses.values, [t.item() for t in terms])
            # Only the order of the sum over the batch differs (pairwise
            # against left to right).
            assert abs(batch_loss.item() - ref_loss.item()) <= 1e-15 * abs(ref_loss.item())
            for g, ref in zip(grads, ref_grads):
                np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)
        assert batched_source.draws_taken == reference_source.draws_taken


# ---------------------------------------------------------------------------
# Metrics


class TestPearson:
    def test_hand_oracle(self):
        # r([1,2,3], [1,3,2]) = 0.5 by direct computation.
        assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_perfect_correlation(self):
        x = np.array([0.0, 1.0, 4.0, 9.0])
        assert pearson(x, 3.0 * x - 2.0) == pytest.approx(1.0)
        assert pearson(x, -0.5 * x + 7.0) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(0, 1, 40), rng.normal(0, 1, 40)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-12)

    def test_degenerate_inputs(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value, count", [(0.1, 3), (0.7, 128), (1.0 / 3.0, 10)])
    def test_a_constant_side_with_an_inexact_mean_is_undefined(self, value, count):
        # x - x.mean() is not exactly zero for these, so a zero-spread test
        # read a correlation of about 1e-16 from them.
        flat = [value] * count
        other = np.random.default_rng(count).normal(0.0, 1.0, count)
        assert pearson(flat, other) is None
        assert pearson(other, flat) is None
        assert calibration_report(scored_records(flat, other)).r is None

    def test_calibration_report(self):
        # confident predictions err less: positive correlation
        records = scored_records([0.9, 0.7, 0.4, 0.2], [0.1, 0.5, 1.2, 2.0])
        report = calibration_report(records)
        assert report.defined
        assert report.r > 0.9
        assert report.r == pearson([r.peak for r in records], [-r.error for r in records])
        flat = scored_records([0.5] * 3, [0.1, 0.5, 1.2])
        assert calibration_report(flat).r is None

    @pytest.mark.parametrize("count", [0, 1])
    def test_calibration_of_fewer_than_two_records_is_undefined(self, count):
        report = calibration_report(scored_records([0.5] * count, [0.1] * count))
        assert report.r is None and not report.defined


def scored_records(peaks, errors):
    """evaluate()'s records with the given peaks and errors and zero 1-D
    predictions and targets."""
    count = len(peaks)
    columns = np.zeros((count, 1)), np.zeros((count, 1)), np.array(peaks, float), np.array(errors, float)
    return Rows(training.TrialRecord, (range(count), *columns))


# ---------------------------------------------------------------------------
# Suites


class TestGradcheckSuite:
    def test_small_run_passes_with_expected_shape(self):
        report = gradcheck_suite(seeds=2)
        assert len(report.rows) == 5 * 3 * 2 * 2
        assert report.passed
        assert report.worst < 1e-4  # gradcheck_suite's default tol

    def test_detects_wrong_gradients(self, monkeypatch):
        def crooked(pmap, sigma_t_sq):
            # a term hidden from the tape: its value moves with the weights
            # but contributes nothing to the analytic gradient
            hidden = Tensor(np.square(pmap.weights.values).sum(axis=-1))
            return ad.add(variance_regularizer(pmap, sigma_t_sq), hidden)

        # Replaced where make_loss looks the family up, so only its rows see it.
        monkeypatch.setattr(training, "variance_regularizer", crooked)
        report = gradcheck_suite(seeds=1)
        bad = [r for r in report.rows if not r.passed]
        assert {r.loss for r in bad} == {"variance-regularizer"}
        assert len(bad) == len([r for r in report.rows if r.loss == "variance-regularizer"])

    @pytest.mark.parametrize("loss", LOSSES)
    def test_training_objectives_pass(self, loss):
        # Each objective as make_loss builds it for training, default reg
        # weight included, with gradcheck's frozen noise and pinned centre.
        supports = (Support.regular_grid(8), Support.regular_grid((4, 4)))
        for support, basis, distance in itertools.product(supports, BASES, DISTANCES):
            rngs = [np.random.default_rng([support.ndim, seed]) for seed in range(2)]
            x0s = np.stack([rng.uniform(-2.0, 2.0, support.n) for rng in rngs])
            y_ts = np.stack([rng.uniform(0.5, support.positions.max() - 1.0, size=support.ndim) for rng in rngs])
            f = suites._loss_closure(loss, support, frozen_noise(support, basis, 2), y_ts, distance, x0s)
            for seed, result in enumerate(ad.grad_check_rows(f, x0s)):
                assert result.passed, (support.ndim, basis, distance, seed, result.max_rel_error)

    def test_make_loss_rejects_what_it_cannot_build(self):
        with pytest.raises(ValueError, match="unknown loss: 'hinge'"):
            make_loss("hinge", None, "l1", 4.0)
        for name in ("soft", "js-regularizer"):
            with pytest.raises(ValueError, match=f"loss '{name}' has no regularizer"):
                make_loss(name, None, "l1", 4.0, reg_weight=0.5)

    def test_row_metadata(self):
        report = gradcheck_suite(seeds=1)
        assert {r.ndim for r in report.rows} == {1, 2}
        assert {r.basis for r in report.rows} == {"uniform", "triangular", "gaussian"}

    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from(LOSS_KINDS),
        bases=st.lists(st.sampled_from(BASES), min_size=1, max_size=4),
        ndim=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        distance=st.sampled_from(DISTANCES),
        num_samples=st.integers(1, 4),
    )
    def test_batched_check_matches_row_by_row(self, loss, bases, ndim, seed, distance, num_samples):
        # Each point of one grad_check_rows call, every point with the frozen
        # noise of its own basis, against the looped grad_check of that
        # point alone, on its lone (n,) map.
        support = Support.regular_grid(8 if ndim == 1 else (4, 4))
        points = len(bases)
        rng = np.random.default_rng(seed)
        x0s = rng.uniform(-2.0, 2.0, (points, support.n))
        y_ts = rng.uniform(0.5, support.positions.max() - 1.0, size=(points, ndim))
        per_basis = [frozen_noise(support, basis, 1, num_samples) for basis in bases]
        noise = tuple(np.concatenate(arrays) for arrays in zip(*per_basis))
        f = suites._loss_closure(loss, support, noise, y_ts, distance, x0s)
        for r, result in enumerate(ad.grad_check_rows(f, x0s)):
            point = slice(r, r + 1)
            lone = suites._loss_closure(loss, support, per_basis[r], y_ts[point], distance, x0s[point])
            looped = grad_check(lone, x0s[r])
            for field in ("analytic", "numeric", "rel_errors"):
                assert getattr(result, field).tobytes() == getattr(looped, field).tobytes(), (r, field)

    def test_suite_matches_one_check_per_seed(self):
        # Every row, max_rel_error bits included, against one single-point
        # check per seed in the suite's row order.
        assert tuple(gradcheck_suite(seeds=20).rows) == single_point_gradcheck(seeds=20)

    def test_suite_op_count_is_bounded(self, monkeypatch):
        # One check per seed made 12 840 op calls; one per cell of seeds, 1 404.
        calls = []

        def counted(kind, build):
            def run(arrays, needs, **params):
                calls.append(kind)
                return build(arrays, needs, **params)

            return run

        for kind, build in list(ad._REGISTRY.items()):
            monkeypatch.setitem(ad._REGISTRY, kind, counted(kind, build))
        gradcheck_suite()
        assert len(calls) <= 1500, len(calls)

    def test_empty_suite_is_rejected(self):
        with pytest.raises(ValueError, match="seeds must be at least 1, got 0"):
            gradcheck_suite(seeds=0)

    @pytest.mark.parametrize("seeds", [1, 3, 4])
    def test_suite_matches_per_basis_cells(self, seeds):
        # Every row, max_rel_error bits included, against one call per
        # (support, basis, family, distance) cell, in the suite's row order.
        def bits(rows):
            return [(r.loss, r.basis, r.ndim, r.seed, r.max_rel_error.hex(), r.passed) for r in rows]

        assert bits(gradcheck_suite(seeds=seeds).rows) == bits(per_basis_cell_gradcheck(seeds))

    @pytest.mark.parametrize("seeds, checks, ops", [(20, 20, 260), (1, 10, 130)])
    def test_suite_call_counts(self, monkeypatch, seeds, checks, ops):
        # One call per support, family and distance, each taking every
        # basis's points.  One call per cell made 60 calls and 1 404 op calls
        # at 20 seeds; one per basis for the sampled family, 28 and 748; a
        # floored log of four ops instead of one, 20 and 468; the sampled
        # family's temperature divide, row pick and draw-mean multiply taped
        # on their own, 20 and 396 (198 at one seed); the gather into the
        # (R, 1, n) row layout, 20 and 372 (186); a Gumbel-softmax of four
        # records and a subtract before each distance, 20 and 332 (166); the
        # relaxed weights' rows product and each distance's coordinate sum
        # taped on their own, 20 and 284 (142).
        counts = {"checks": 0, "ops": 0}

        def counted(name, fn):
            def run(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return run

        monkeypatch.setattr(ad, "grad_check_rows", counted("checks", ad.grad_check_rows))
        monkeypatch.setattr(ad, "forward_op", counted("ops", ad.forward_op))
        gradcheck_suite(seeds=seeds)
        assert counts == {"checks": checks, "ops": ops}

    def test_array_seeds_draw_as_list_seeds(self):
        # The suite seeds each point with a uint32 array, which SeedSequence
        # reads faster than a list and as the same entropy while every word
        # is below 2**32: at the corners of its (support, basis, family,
        # seed) words, the first draws keep their bits.
        corners = itertools.product((1, 2), (0, len(BASES) - 1), (0, len(LOSS_KINDS) - 1), (0, 19, 2**32 - 1))
        for ndim, basis_idx, loss_idx, seed in corners:
            words = [2311, ndim, basis_idx, loss_idx, seed]
            listed, arrayed = np.random.default_rng(words), np.random.default_rng(np.array(words, np.uint32))
            for low, high, size in ((-2.0, 2.0, 16), (0.5, 7.0, ndim)):
                assert arrayed.uniform(low, high, size).tobytes() == listed.uniform(low, high, size).tobytes(), words

    @pytest.mark.parametrize(
        "setting, error, message",
        [
            ({"seeds": True}, TypeError, "seeds must be an int, got True"),
            ({"seeds": 1.5}, TypeError, "seeds must be an int, got 1.5"),
            ({"step": 0.0}, ValueError, "step must be positive and finite, got 0.0"),
            ({"step": -1e-5}, ValueError, "step must be positive and finite, got -1e-05"),
            ({"step": float("inf")}, ValueError, "step must be positive and finite, got inf"),
            ({"step": float("nan")}, ValueError, "step must be positive and finite, got nan"),
            ({"tol": -1e-4}, ValueError, "tol must be non-negative, got -0.0001"),
            ({"tol": float("nan")}, ValueError, "tol must be non-negative, got nan"),
        ],
    )
    def test_bad_arguments_are_rejected_before_any_check(self, monkeypatch, setting, error, message):
        # seeds = True used to run 30 rows, and step = 0 was rejected only
        # after the frozen noise was drawn and the first closure built.
        def no_closure(*args, **kwargs):
            raise AssertionError("a loss closure was built before the arguments were checked")

        monkeypatch.setattr(suites, "_loss_closure", no_closure)
        with pytest.raises(error, match=message):
            gradcheck_suite(**setting)


@pytest.mark.parametrize("row_type", [GradCheckRow, ReferenceRow, RelaxedRow, VarianceCompareRow])
def test_suite_rows_are_slotted(row_type):
    # A row read from a report is built on demand; 600 gradcheck rows kept
    # as slotted objects took about 66 KiB, and without slots 94 KiB.
    assert "__slots__" in vars(row_type)


@pytest.mark.parametrize("record_type", [training.HistoryRow, training.TrialRecord, training.EvalSummary])
def test_run_records_are_slotted(record_type):
    assert "__slots__" in vars(record_type)


@pytest.mark.parametrize(
    "report_type, names",
    [
        (suites.GradCheckReport, ["rows"]),
        (suites.VarianceCompareReport, ["rows"]),
        (CalibrationResult, ["r"]),
    ],
)
def test_reports_hold_no_echoed_argument(report_type, names):
    # A report holds what its call computed; its caller already has the
    # call's arguments and the records' length.
    assert [f.name for f in dataclasses.fields(report_type)] == names


def test_kept_evaluate_results_stay_small():
    # A caller may keep many results.  Built as one TrialRecord per example,
    # a 128-example result took about 48 KiB; as four columns, about 7 KiB.
    task = SyntheticTask("signal1d", test_count=128, seed=2)
    n = task_support(task).n
    model = MLPModel(n, 16, n, seed=2)
    evaluate(model, task)  # caches and first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = [evaluate(model, task) for _ in range(20)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_result = (after - before) / len(kept)
    assert per_result < 8 * 2**10, f"{per_result / 2**10:.1f} KiB per kept result"


def test_kept_gradcheck_reports_stay_small():
    # A caller may keep many reports.  600 slotted GradCheckRow objects took
    # about 66 KiB; as six columns, about 18 KiB.  A full collection before
    # each count empties the interpreter's free lists, which keep the
    # two-item tuples a call frees (about 14 KiB more otherwise).
    gradcheck_suite()  # caches and first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = [gradcheck_suite() for _ in range(3)]
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(report.rows) == 600 for report in kept)
    per_report = (after - before) / len(kept)
    assert per_report < 20 * 2**10, f"{per_report / 2**10:.1f} KiB per kept report"


def flip_last_bit(rows, name):
    """rows with the last bit of field `name`'s first float flipped."""
    columns = list(rows.columns)
    k = [f.name for f in dataclasses.fields(rows.row_type)].index(name)
    columns[k] = columns[k].copy()
    columns[k].view(np.uint64)[0] ^= 1
    return Rows(rows.row_type, columns)


@pytest.mark.parametrize(
    "run, sequences",
    [
        (lambda: gradcheck_suite(), {"rows": "max_rel_error"}),
        (lambda: distcheck_suite(num_maps=1, draws=2_000, seed=7), {"reference": "ks", "relaxed": "ks_sharp"}),
        (lambda: variance_compare(num_seeds=2, draws=200), {"rows": "trace_reparam"}),
    ],
    ids=["gradcheck", "distcheck", "varcompare"],
)
def test_reports_compare_by_value_and_read_back_csv_types(run, sequences):
    # A benchmark checks each repeat's report against the first with ==, so
    # equal reports must compare equal, one flipped bit must not, and a row
    # read back must hold the Python types its CSV cells print.
    first, second = run(), run()
    assert first == second and first is not second
    for attr, name in sequences.items():
        rows = getattr(first, attr)
        assert rows == getattr(second, attr) and tuple(rows) == tuple(getattr(second, attr))
        changed = dataclasses.replace(first, **{attr: flip_last_bit(rows, name)})
        assert changed != first and getattr(changed, attr) != rows
        kinds = field_kinds(rows.row_type)
        for row in (rows[0], rows[-1], *rows):
            for field in dataclasses.fields(row):
                (kind,) = kinds[field.name]
                assert type(getattr(row, field.name)) is kind, (attr, field.name)


def frozen_noise(support, basis, count, num_samples=suites.GRADCHECK_NUM_SAMPLES):
    """gradcheck's frozen noise for `count` points on one support and basis:
    (count, S, n) gumbels and (count, S, n, ndim) basis samples, the same
    for every point."""
    source = NoiseSource([8741, support.ndim, BASES.index(basis)])
    gumbels, uniforms = draw_noise_batch(source, num_samples, support.n, support.ndim)
    samples = basis_sample_all(MixtureSpec(basis), support, uniforms)
    return tuple(np.repeat(a[None], count, axis=0) for a in (gumbels, samples))


def per_basis_cell_gradcheck(seeds):
    """gradcheck_suite's rows with one grad_check_rows call per (support,
    basis, family, distance) cell of seeds, every family on its own basis."""
    rows = []
    for support in (Support.regular_grid(8), Support.regular_grid((4, 4))):
        ndim, span = support.ndim, support.positions.max() - 1.0
        for basis_idx, basis in enumerate(BASES):
            for loss_idx, loss in enumerate(LOSS_KINDS):
                results = {}
                for parity, distance in enumerate(DISTANCES):
                    cell = range(parity, seeds, len(DISTANCES))
                    if not cell:
                        continue
                    rngs = [np.random.default_rng([2311, ndim, basis_idx, loss_idx, seed]) for seed in cell]
                    x0s = np.stack([rng.uniform(-2.0, 2.0, support.n) for rng in rngs])
                    y_ts = np.stack([rng.uniform(0.5, span, size=ndim) for rng in rngs])
                    noise = frozen_noise(support, basis, len(cell))
                    f = suites._loss_closure(loss, support, noise, y_ts, distance, x0s)
                    results.update(zip(cell, ad.grad_check_rows(f, x0s)))
                rows.extend(
                    GradCheckRow(loss, basis, ndim, seed, results[seed].max_rel_error, results[seed].passed)
                    for seed in range(seeds)
                )
    return tuple(rows)


def single_point_gradcheck(seeds):
    """gradcheck_suite's rows with one grad_check_rows call per seed, each on
    a one-point closure."""
    rows = []
    for support in (Support.regular_grid(8), Support.regular_grid((4, 4))):
        ndim, span = support.ndim, support.positions.max() - 1.0
        for (basis_idx, basis), (loss_idx, loss) in itertools.product(enumerate(BASES), enumerate(LOSS_KINDS)):
            for seed in range(seeds):
                rng = np.random.default_rng([2311, ndim, basis_idx, loss_idx, seed])
                x0 = rng.uniform(-2.0, 2.0, (1, support.n))
                y_t = rng.uniform(0.5, span, size=(1, ndim))
                distance = "l1" if seed % 2 == 0 else "l2-squared"
                noise = frozen_noise(support, basis, 1)
                f = suites._loss_closure(loss, support, noise, y_t, distance, x0)
                (result,) = ad.grad_check_rows(f, x0)
                rows.append(GradCheckRow(loss, basis, ndim, seed, result.max_rel_error, result.passed))
    return tuple(rows)


class TestDistcheckSuite:
    def test_small_run_passes(self):
        report = distcheck_suite(num_maps=2, draws=20_000)
        assert len(report.reference) == 6 and len(report.relaxed) == 6
        assert report.passed
        for row in report.reference:
            assert row.ks <= row.ks_crit
            assert row.mean_gap < 0.1 and row.var_gap < 0.3
        for row in report.relaxed:
            assert row.freq_gap <= 0.01 or not row.freq_passed
            assert row.ks_sharp < row.ks_smooth

    @pytest.mark.parametrize("sizes", [{"num_maps": 0}, {"draws": 0}, {"num_maps": -1, "draws": 100}])
    def test_empty_suite_is_rejected(self, sizes):
        name, value = next(iter(sizes.items()))
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
            distcheck_suite(**sizes)

    def test_seed_pins_results(self):
        a = distcheck_suite(num_maps=1, draws=5_000, seed=7)
        b = distcheck_suite(num_maps=1, draws=5_000, seed=7)
        assert a.reference == b.reference and a.relaxed == b.relaxed

    def test_blocked_run_matches_whole_array_formulation(self, monkeypatch):
        # Two full blocks and a ragged third: every float in every row must
        # keep the bits of the formulation that builds each array whole, with
        # two rows in flight at a time.
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        draws = 2 * mixture._BLOCK_DRAWS + 17
        report = distcheck_suite(num_maps=2, draws=draws)
        reference, relaxed = whole_array_distcheck(num_maps=2, draws=draws)
        assert tuple(report.reference) == reference
        assert tuple(report.relaxed) == relaxed

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"seed": -1}, "seed must be at least 0, got -1"),
            ({"num_maps": 0}, "num_maps must be at least 1, got 0"),
            ({"draws": 0}, "draws must be at least 1, got 0"),
        ],
    )
    def test_bad_settings_are_rejected_before_drawing(self, monkeypatch, setting, message):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn before the settings were checked")

        monkeypatch.setattr(suites, "NoiseSource", no_noise)
        with pytest.raises(ValueError, match=message):
            distcheck_suite(**{"num_maps": 1, "draws": 2_000, **setting})

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_seed_of_the_wrong_type_is_rejected_before_drawing(self, monkeypatch, seed):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn before the seed was checked")

        monkeypatch.setattr(suites, "NoiseSource", no_noise)
        with pytest.raises(TypeError, match=f"seed must be an int, got {seed!r}"):
            distcheck_suite(num_maps=1, draws=2_000, seed=seed)

    def test_memory_is_bounded_by_the_block_size(self):
        # Built whole, one map's (draws, n) temporaries peaked at 114.5 MiB.
        tracemalloc.start()
        try:
            distcheck_suite(num_maps=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: workers)
        draws = 2 * mixture._BLOCK_DRAWS + 17
        report = distcheck_suite(num_maps=1, draws=draws)
        assert (tuple(report.reference), tuple(report.relaxed)) == whole_array_distcheck(num_maps=1, draws=draws)

    def test_two_rows_in_flight_stay_within_memory(self, monkeypatch):
        # Two workers at the 4096-draw block peaked at 12.8 MiB.  scipy.special
        # is loaded first: importing it allocates more than a row does.
        import scipy.special  # noqa: F401

        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            distcheck_suite(num_maps=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_a_failing_row_propagates_and_joins_every_helper(self, monkeypatch):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        real_source = suites.NoiseSource

        def source(seed):
            if list(seed[1:3]) == [1, 2]:
                raise RuntimeError("row 5 failed")
            return real_source(seed)

        monkeypatch.setattr(suites, "NoiseSource", source)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="row 5 failed"):
            distcheck_suite(num_maps=3, draws=2_000)
        assert threading.active_count() == before


class TestRunRows:
    def force(self, monkeypatch, workers):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: workers)

    @pytest.mark.parametrize("workers, count", [(1, 5), (2, 9), (3, 2), (4, 40)])
    def test_results_in_row_order_on_at_most_one_thread_per_row(self, monkeypatch, workers, count):
        self.force(monkeypatch, workers)
        before = threading.active_count()
        ran_on = {}

        def row(i):
            ran_on[i] = threading.get_ident()
            time.sleep(0.001)
            return i * i

        assert suites._run_rows(row, count) == [i * i for i in range(count)]
        assert sorted(ran_on) == list(range(count))
        assert len(set(ran_on.values())) <= min(workers, count)
        assert threading.active_count() == before

    def test_every_row_runs_once_under_frequent_thread_switches(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: a
        # race on the shared row counter would run a row twice or skip one.
        self.force(monkeypatch, 8)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = suites._run_rows(lambda i: calls.append(i) or -i, 3000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(3000))
        assert results == [-i for i in range(3000)]

    def test_one_cpu_runs_every_row_on_the_calling_thread(self, monkeypatch):
        self.force(monkeypatch, 1)
        threads = set()
        suites._run_rows(lambda i: threads.add(threading.get_ident()), 6)
        assert threads == {threading.get_ident()}

    def test_a_helper_failure_stops_the_calling_thread(self, monkeypatch):
        self.force(monkeypatch, 2)
        caller = threading.get_ident()
        helper_failed = threading.Event()
        done = []

        def row(i):
            if threading.get_ident() != caller:
                helper_failed.set()
                raise ValueError(f"row {i} failed")
            # The calling thread takes rows until it sees the helper's failure.
            helper_failed.wait(5)
            done.append(i)

        before = threading.active_count()
        with pytest.raises(ValueError, match="failed"):
            suites._run_rows(row, 100)
        assert len(done) <= 1  # at most the row it held when the helper failed
        assert threading.active_count() == before

    def test_keyboard_interrupt_in_the_calling_thread_stops_the_helpers(self, monkeypatch):
        self.force(monkeypatch, 3)
        caller = threading.get_ident()
        started = []

        def row(i):
            started.append(i)
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.01)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            suites._run_rows(row, 1000)
        assert len(started) < 1000
        assert threading.active_count() == before


def whole_array_distcheck(num_maps, draws, seed=20260814):
    """distcheck_suite's rows computed with every (draws, n) array built whole,
    as the suite did before it streamed its noise in blocks."""

    def whole_cdf(pmap, spec):
        basis, c, sigma = mixture._resolve(spec, pmap.support)
        return lambda y: mixture._cdf_1d(basis, y[:, None] - pmap.support.positions[:, 0], c, sigma) @ pmap.weight_values

    n = suites.MAP_POINTS
    support = Support.regular_grid(n)
    crit = ks_critical_value(draws, suites.DISTCHECK_ALPHA)
    reference, relaxed = [], []
    for m in range(num_maps):
        rng = np.random.default_rng([seed, m])
        weights = ad.softmax_values(rng.normal(0.0, 1.5, n), axis=-1)
        pmap = ProbabilityMap(support, Tensor(weights))
        for basis_idx, basis in enumerate(BASES):
            spec = MixtureSpec(basis)
            cdf = whole_cdf(pmap, spec)

            gumbels, uniforms = draw_noise_batch(NoiseSource([seed, m, basis_idx, 1]), draws, n, 1)
            winners = np.argmax(gumbels + np.log(np.maximum(weights, WEIGHT_FLOOR)), axis=1)
            basis_name, c, sigma = mixture._resolve(spec, support)
            u = uniforms[np.arange(draws), winners]
            samples = (support.positions[winners] + mixture._inverse_cdf_1d(basis_name, u, c, sigma))[:, 0]
            ks = ks_statistic(samples, cdf)
            exact_mean, exact_var = mixture_moments(pmap, spec)
            mean_gap = abs(float(samples.mean()) - float(exact_mean[0]))
            var_gap = abs(float(samples.var()) - float(exact_var[0]))
            reference.append(ReferenceRow(m, basis, ks, crit, ks <= crit, mean_gap, var_gap))

            gumbels, uniforms = draw_noise_batch(NoiseSource([seed, m, basis_idx, 2]), draws, n, 1)
            winners = np.argmax(gumbels + np.log(weights), axis=1)
            freq_gap = float(np.abs(np.bincount(winners, minlength=n) / draws - weights).max())
            # The relaxed samples of the op that training records.
            y_hat = basis_sample_all(spec, support, uniforms)
            with ad.no_grad():
                y_relaxed = [
                    sample_differentiable(pmap, gumbels, y_hat, tau).values[:, 0] for tau in suites.DISTCHECK_TAUS
                ]
            ks_sharp, ks_smooth = (ks_statistic(row, cdf) for row in y_relaxed)
            relaxed.append(
                RelaxedRow(
                    m, basis, freq_gap, freq_gap <= suites.DISTCHECK_FREQ_TOL, ks_sharp, ks_smooth, ks_sharp < ks_smooth
                )
            )
    return tuple(reference), tuple(relaxed)


class TestVarianceCompare:
    @pytest.mark.parametrize("name", ["num_seeds", "draws"])
    def test_empty_suite_is_rejected(self, name):
        least = 2 if name == "draws" else 1
        with pytest.raises(ValueError, match=f"{name} must be at least {least}, got 0"):
            variance_compare(**{name: 0})

    @pytest.mark.parametrize("name", ["draws"])
    def test_fewer_than_two_is_rejected_before_drawing(self, monkeypatch, name):
        # One draw has zero variance, so draws = 1 quietly returned passed=False.
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn before the sizes were checked")

        monkeypatch.setattr(suites, "NoiseSource", no_noise)
        with pytest.raises(ValueError, match=f"{name} must be at least 2, got 1"):
            variance_compare(num_seeds=2, **{name: 1})

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_tau_is_rejected_before_drawing(self, monkeypatch, tau):
        # tau = inf made every relaxed sample the plain mean, so trace_reparam
        # read 0.0 and the comparison passed whatever the estimators did.
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn before tau was checked")

        monkeypatch.setattr(suites, "NoiseSource", no_noise)
        with pytest.raises(ValueError, match=f"tau must be positive and finite, got {tau}"):
            variance_compare(num_seeds=1, draws=100, tau=tau)

    def test_huge_tau_fails_instead_of_passing_vacuously(self):
        # Every relaxed sample collapses to the plain mean, so the pathwise
        # gradient is exactly 0: a zero trace is no evidence of low variance.
        report = variance_compare(num_seeds=1, draws=2_000, tau=1e300)
        assert report.rows[0].trace_reparam == 0.0
        assert not report.rows[0].trace_ordered
        assert not report.passed

    def test_blocked_run_matches_whole_array_formulation(self):
        # Two full blocks and a ragged third, every float's bits kept.
        draws = 2 * mixture._BLOCK_DRAWS + 17
        assert tuple(variance_compare(num_seeds=2, draws=draws).rows) == whole_array_variance_compare(2, draws)

    def test_memory_is_bounded_by_the_block_size(self):
        # Built whole, the default call's (draws, n) temporaries peaked at
        # 13.6 MiB.
        tracemalloc.start()
        try:
            variance_compare()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_default_seeds_show_score_function_penalty(self):
        report = variance_compare(num_seeds=3, draws=4_000)
        assert report.passed
        for row in report.rows:
            assert row.trace_score > row.trace_reparam
            assert row.coord_greater_frac >= 0.9

    def test_score_function_estimator_is_unbiased_for_expected_error(self):
        # Mean of the SF gradient estimates equals the analytic gradient of
        # E[|y_i - y_t|] w.r.t. logits: pi * (d - E[d]).
        n = 8
        rng = np.random.default_rng(9)
        weights = ad.softmax_values(rng.normal(0.0, 1.0, n))
        positions = np.arange(n, dtype=np.float64)
        y_t = 3.3
        d = np.abs(positions - y_t)
        analytic = weights * (d - weights @ d)
        g, _ = draw_noise_batch(NoiseSource(10), 400_000, n, 1)
        grads = score_function_gradients(weights, positions, y_t, g)
        np.testing.assert_allclose(grads.mean(axis=0), analytic, atol=5e-3)

    def test_score_function_gradients_pass_over_a_zero_weight(self):
        # log 0 used to warn here (an error under this suite).
        weights = np.array([0.0, 0.25, 0.75])
        g, _ = draw_noise_batch(NoiseSource(12), 4000, 3, 1)
        grads = score_function_gradients(weights, np.arange(3.0), 0.0, g)
        # Component 0 gets a gradient only when it wins, since its weight is 0
        # and every winner lies a positive distance from y_t = 0.
        np.testing.assert_array_equal(grads[:, 0], 0.0)
        assert np.isfinite(grads).all()

    def test_reparam_gradients_match_autodiff(self):
        # The taped per-draw gradients against the closed form: with
        # pi_hat = softmax((log w + g) / tau) and Y = sum_k pi_hat_k y_hat_k,
        # dY/dz_k = pi_hat_k (y_hat_k - Y) for z = (log w + g) / tau, and the
        # softmax Jacobian from the logits to log w adds nothing, since the
        # dY/dz_k sum to 0.  On varcompare's seeds, maps and noise.
        n = suites.MAP_POINTS
        support = Support.regular_grid(n)
        spec = MixtureSpec(suites.VARCOMPARE_BASIS)
        for s in range(10):
            rng = np.random.default_rng([4171, s])
            logits = rng.normal(0.0, 1.5, n)
            y_t = float(rng.uniform(0.5, n - 1.5))
            gumbels, uniforms = draw_noise_batch(NoiseSource([4171, s, 2]), 500, n, 1)
            y_hat = basis_sample_all(spec, support, uniforms)[..., 0]
            for tau in (1.0, 0.1, 0.05):
                relaxed = ad.softmax_values(gumbel_scores(ad.softmax_values(logits), gumbels) / tau)
                y_relaxed = (relaxed * y_hat).sum(axis=1)
                closed = np.sign(y_relaxed - y_t)[:, None] * relaxed * (y_hat - y_relaxed[:, None]) / tau
                taped = reparam_gradients(logits, support, y_t, gumbels, y_hat, tau)
                np.testing.assert_allclose(taped, closed, rtol=1e-9, atol=1e-12, err_msg=f"seed {s}, tau {tau}")

    def test_relaxed_estimator_variance_shrinks_with_tau(self):
        # Smoother relaxations average more components: lower variance.
        n = 12
        support = Support.regular_grid(n)
        logits = np.random.default_rng(13).normal(0.0, 1.5, n)
        gumbels, uniforms = draw_noise_batch(NoiseSource(14), 20_000, n, 1)
        y_hat = support.positions[:, 0] + (uniforms[..., 0] - 0.5)
        traces = []
        for tau in (0.1, 1.0, 4.0):
            grads = reparam_gradients(logits, support, 4.2, gumbels, y_hat, tau)
            traces.append(float(grads.var(axis=0).sum()))
        assert traces[0] > traces[1] > traces[2]


def whole_array_variance_compare(num_seeds, draws, tau=1.0):
    """variance_compare's rows with every (draws, n) array built whole, as the
    suite did before it streamed its noise in blocks."""
    n = suites.MAP_POINTS
    support = Support.regular_grid(n)
    positions = support.positions[:, 0]
    rows = []
    for s in range(num_seeds):
        rng = np.random.default_rng([4171, s])
        logits = rng.normal(0.0, 1.5, n)
        weights = ad.softmax_values(logits, axis=-1)
        y_t = float(rng.uniform(0.5, n - 1.5))
        g_sf, _ = draw_noise_batch(NoiseSource([4171, s, 1]), draws, n, 1)
        var_sf = score_function_gradients(weights, positions, y_t, g_sf).var(axis=0)
        g_rp, u_rp = draw_noise_batch(NoiseSource([4171, s, 2]), draws, n, 1)
        y_hat = basis_sample_all(MixtureSpec(suites.VARCOMPARE_BASIS), support, u_rp)[..., 0]
        var_rp = reparam_gradients(logits, support, y_t, g_rp, y_hat, tau).var(axis=0)
        trace_sf, trace_rp = float(var_sf.sum()), float(var_rp.sum())
        rows.append(
            VarianceCompareRow(s, trace_sf, trace_rp, float((var_sf > var_rp).mean()), trace_sf > trace_rp > 0.0)
        )
    return tuple(rows)
