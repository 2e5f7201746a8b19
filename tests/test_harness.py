"""Synthetic tasks, model, training loop, metrics, and diagnostic suites."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffloc
from diffloc import autodiff as ad
from diffloc.autodiff import Tensor
from diffloc.harness.metrics import calibration_report, pearson
from diffloc.harness.model import MLPModel
from diffloc.harness import suites
from diffloc.harness.suites import (
    LOSS_KINDS,
    ReferenceRow,
    RelaxedRow,
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
    LOSSES,
    RunConfig,
    TrainingDiverged,
    evaluate,
    learning_rate_at,
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
    ks_critical_value,
    ks_statistic,
    mixture_moments,
)
from diffloc.operators import (
    DISTANCES,
    SamplingConfig,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    gumbel_softmax_values,
    js_regularizer,
    sampled_expected_error_loss,
    variance_regularizer,
)


SMALL = dict(train_count=24, val_count=8, test_count=8)


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

    def test_default_sizes_and_supports(self):
        assert SyntheticTask(kind="signal1d").size == 32
        assert task_support(SyntheticTask(kind="signal1d")).n == 32
        assert task_support(SyntheticTask(kind="heat2d", size=12)).n == 144
        sup3 = task_support(SyntheticTask(kind="scatter3d", size=64))
        assert sup3.kind == "scattered" and sup3.n == 64 and sup3.ndim == 3

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
        for kind in TASK_KINDS:
            task = small_task(kind, size=16 if kind != "scatter3d" else 64)
            support = task_support(task)
            _, targets = generate_split(task, "train")
            for d, (lo, hi) in enumerate(support.bounds):
                assert np.all(targets[:, d] >= lo) and np.all(targets[:, d] <= hi)

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

    def test_generate_example_bad_inputs(self):
        task = small_task()
        with pytest.raises(ValueError, match="split"):
            generate_example(task, "holdout", 0)
        with pytest.raises(ValueError, match="range"):
            generate_example(task, "val", 99)


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
        model.save(path)
        clone = MLPModel.load(path)
        x = np.random.default_rng(1).normal(0.0, 1.0, (4, 12))
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
        with pytest.raises(ValueError, match="positive"):
            RunConfig(task=task, lr=0.0)
        with pytest.raises(ValueError, match="sigma_t_sq"):
            RunConfig(task=task, sigma_t_sq=-1.0)

    def test_reg_weight_defaults(self):
        task = small_task()
        assert RunConfig(task=task, loss="soft-vr").resolved_reg_weight == 0.01
        assert RunConfig(task=task, loss="soft-dr").resolved_reg_weight == 0.1
        assert RunConfig(task=task, loss="soft").resolved_reg_weight == 0.0
        assert RunConfig(task=task, loss="soft-vr", reg_weight=0.25).resolved_reg_weight == 0.25

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
            weights = ad.softmax_over_axis(ad.index_select(logits, r, axis=0), axis=-1)
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
                uniforms = np.concatenate([u for _, u in draws])
                term = sampled_expected_error_loss(pmap, spec, y, gumbels, uniforms, tau, distance)
            else:
                reg = variance_regularizer if config.loss == "soft-vr" else js_regularizer
                term = ad.add(
                    error_of_expectation_loss(pmap, y, distance),
                    ad.multiply(reg(pmap, config.sigma_t_sq), Tensor(config.resolved_reg_weight)),
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
        loss_fn = training._make_loss(config, spec, batched_source)
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
            assert losses.shape == (len(terms), 1)
            np.testing.assert_array_equal(losses.values[:, 0], [t.item() for t in terms])
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

    def test_calibration_report(self):
        class Rec:
            def __init__(self, peak, error):
                self.peak = peak
                self.error = error

        # confident predictions err less: positive correlation
        records = [Rec(0.9, 0.1), Rec(0.7, 0.5), Rec(0.4, 1.2), Rec(0.2, 2.0)]
        report = calibration_report(records)
        assert report.defined and report.count == 4
        assert report.r > 0.9
        flat = [Rec(0.5, e) for e in (0.1, 0.5, 1.2)]
        assert calibration_report(flat).r is None


# ---------------------------------------------------------------------------
# Suites


class TestGradcheckSuite:
    def test_small_run_passes_with_expected_shape(self):
        report = gradcheck_suite(seeds=2)
        assert len(report.rows) == 5 * 3 * 2 * 2
        assert report.passed
        assert report.worst < report.tol

    def test_detects_wrong_gradients(self):
        def crooked(pmap, y_t):
            # a term hidden from the tape: its value moves with the weights
            # but contributes nothing to the analytic gradient
            hidden = Tensor(np.square(pmap.weights.values))
            base = ad.multiply(pmap.weights, Tensor(pmap.support.positions[:, 0]))
            return ad.add(ad.sum_over_axis(base, axis=-1), ad.sum_over_axis(hidden, axis=-1))

        report = gradcheck_suite(seeds=1, extra_losses={"crooked": crooked})
        assert not report.passed
        bad = [r for r in report.rows if not r.passed]
        assert bad and all(r.loss == "crooked" for r in bad)

    def test_row_metadata(self):
        report = gradcheck_suite(seeds=1)
        assert {r.ndim for r in report.rows} == {1, 2}
        assert {r.basis for r in report.rows} == {"uniform", "triangular", "gaussian"}

    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from(LOSS_KINDS),
        basis=st.sampled_from(BASES),
        ndim=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        distance=st.sampled_from(DISTANCES),
        num_samples=st.integers(1, 4),
    )
    def test_batched_check_matches_row_by_row(self, loss, basis, ndim, seed, distance, num_samples):
        support = Support.regular_grid(8 if ndim == 1 else (4, 4))
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-2.0, 2.0, support.n)
        y_t = rng.uniform(0.5, support.positions.max() - 1.0, size=ndim)
        f = suites._loss_closure(loss, support, MixtureSpec(basis), y_t, distance, num_samples, 0.7, 4.0, x0, {})
        batched = ad.grad_check(f, x0, batched=True)
        looped = ad.grad_check(f, x0)
        for field in ("analytic", "numeric", "rel_errors"):
            assert getattr(batched, field).tobytes() == getattr(looped, field).tobytes(), field

    def test_empty_suite_is_rejected(self):
        with pytest.raises(ValueError, match="seeds must be at least 1, got 0"):
            gradcheck_suite(seeds=0)


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

    def test_blocked_run_matches_whole_array_formulation(self):
        # Two full blocks and a ragged third: every float in every row must
        # keep the bits of the formulation that builds each array whole.
        draws = 2 * mixture._BLOCK_DRAWS + 17
        report = distcheck_suite(num_maps=2, draws=draws)
        reference, relaxed = whole_array_distcheck(num_maps=2, draws=draws)
        assert report.reference == reference
        assert report.relaxed == relaxed

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"alpha": 0.0}, "alpha must lie in"),
            ({"alpha": 1.0}, "alpha must lie in"),
            ({"alpha": -0.5}, "alpha must lie in"),
            ({"freq_tol": 0.0}, "freq_tol must be positive"),
            ({"tau_sharp": 0.0}, "tau_sharp < tau_smooth"),
            ({"tau_sharp": 1.0}, "tau_sharp < tau_smooth"),
            ({"tau_sharp": 2.0, "tau_smooth": 1.0}, "tau_sharp < tau_smooth"),
        ],
    )
    def test_bad_settings_are_rejected_before_drawing(self, monkeypatch, setting, message):
        # alpha = 0 used to give an infinite KS threshold, so every
        # reference row passed whatever its samples were.
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn before the settings were checked")

        monkeypatch.setattr(suites, "NoiseSource", no_noise)
        with pytest.raises(ValueError, match=message):
            distcheck_suite(num_maps=1, draws=2_000, **setting)

    def test_memory_is_bounded_by_the_block_size(self):
        # Built whole, one map's (draws, n) temporaries peaked at 114.5 MiB.
        tracemalloc.start()
        try:
            distcheck_suite(num_maps=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def whole_array_distcheck(num_maps, draws, n=16, seed=20260814, tau_sharp=0.05, tau_smooth=1.0, alpha=0.01,
                          freq_tol=0.01):
    """distcheck_suite's rows computed with every (draws, n) array built whole,
    as the suite did before it streamed its noise in blocks."""

    def whole_cdf(pmap, spec):
        basis, c, sigma = mixture._resolve(spec, pmap.support)
        return lambda y: mixture._cdf_1d(basis, y[:, None] - pmap.support.positions[:, 0], c, sigma) @ pmap.weight_values

    support = Support.regular_grid(n)
    crit = ks_critical_value(draws, alpha)
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
            y_hat = basis_sample_all(spec, support, uniforms)[..., 0]
            ks_sharp, ks_smooth = (
                ks_statistic((gumbel_softmax_values(weights, gumbels, tau) * y_hat).sum(axis=1), cdf)
                for tau in (tau_sharp, tau_smooth)
            )
            relaxed.append(
                RelaxedRow(m, basis, freq_gap, freq_gap <= freq_tol, ks_sharp, ks_smooth, ks_sharp < ks_smooth)
            )
    return tuple(reference), tuple(relaxed)


class TestVarianceCompare:
    @pytest.mark.parametrize("name", ["num_seeds", "draws"])
    def test_empty_suite_is_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            variance_compare(**{name: 0})

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

    def test_reparam_gradients_match_autodiff(self):
        n = 6
        rng = np.random.default_rng(11)
        logits = rng.normal(0.0, 1.0, n)
        weights = ad.softmax_values(logits)
        positions = np.arange(n, dtype=np.float64)
        y_t = 2.6
        tau = 0.9
        gumbels, uniforms = draw_noise_batch(NoiseSource(12), 5, n, 1)
        y_hat = uniforms[..., 0] + positions  # any fixed per-component samples
        manual = reparam_gradients(weights, positions, y_t, gumbels, y_hat, tau)
        for k in range(5):
            x = Tensor(logits, requires_grad=True)
            with ad.GradientTape():
                w = ad.softmax_over_axis(x, axis=-1)
                scores = ad.divide(
                    ad.add(ad.logarithm(w), Tensor(gumbels[k])), Tensor(tau)
                )
                relaxed = ad.softmax_over_axis(scores, axis=-1)
                y_rel = ad.sum_over_axis(ad.multiply(relaxed, Tensor(y_hat[k])))
                loss = ad.absolute_value(ad.subtract(y_rel, Tensor(y_t)))
                ad.backward(loss)
            np.testing.assert_allclose(x.grad, manual[k], rtol=1e-9, atol=1e-12)

    def test_relaxed_estimator_variance_shrinks_with_tau(self):
        # Smoother relaxations average more components: lower variance.
        n = 12
        rng = np.random.default_rng(13)
        weights = ad.softmax_values(rng.normal(0.0, 1.5, n))
        positions = np.arange(n, dtype=np.float64)
        gumbels, uniforms = draw_noise_batch(NoiseSource(14), 20_000, n, 1)
        y_hat = positions + (uniforms[..., 0] - 0.5)
        traces = []
        for tau in (0.1, 1.0, 4.0):
            grads = reparam_gradients(weights, positions, 4.2, gumbels, y_hat, tau)
            traces.append(float(grads.var(axis=0).sum()))
        assert traces[0] > traces[1] > traces[2]
