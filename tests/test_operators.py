"""Differentiable localization losses, relaxed sampling, and regularizers."""

import numpy as np
import pytest

from diffloc import autodiff as ad
from diffloc.autodiff import GradientTape, Tensor, grad_check, softmax_values
from diffloc.mixture import (
    WEIGHT_FLOOR,
    MixtureSpec,
    NoiseSource,
    ProbabilityMap,
    Support,
    basis_sample_all,
    draw_noise_batch,
    reference_sample_batch,
)
from diffloc.operators import (
    SamplingConfig,
    anneal_tau,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    gaussian_target_weights,
    gumbel_softmax,
    gumbel_softmax_values,
    inference_localize,
    js_regularizer,
    sample_differentiable,
    sampled_expected_error_loss,
    soft_argmax,
    variance_regularizer,
)


def make_map(n=8, seed=0, spacing=1.0):
    weights = softmax_values(np.random.default_rng(seed).normal(0.0, 1.5, n))
    return ProbabilityMap(Support.regular_grid(n, spacing=spacing), Tensor(weights))


def one_draw(source, n, ndim=1):
    """One draw's (n,) gumbels and (n, ndim) basis uniforms."""
    gumbels, uniforms = draw_noise_batch(source, 1, n, ndim)
    return gumbels[0], uniforms[0]


def js_divergence_values(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence (natural log) with 1e-12 floors inside logs."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    log_m = np.log(np.maximum(m, WEIGHT_FLOOR))

    def kl(a):
        return float(np.sum(a * (np.log(np.maximum(a, WEIGHT_FLOOR)) - log_m)))

    return 0.5 * (kl(p) + kl(q))


def map_2d(shape=(3, 4), seed=0):
    sup = Support.regular_grid(shape)
    weights = softmax_values(np.random.default_rng(seed).normal(0.0, 1.0, sup.n))
    return ProbabilityMap(sup, Tensor(weights))


# ---------------------------------------------------------------------------
# Configuration objects


class TestConfigs:
    def test_sampling_config_defaults(self):
        cfg = SamplingConfig()
        assert cfg.num_samples == 5 and cfg.tau_start == 1.0 and cfg.tau_end == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_samples": 0},
            {"tau_start": 0.1, "tau_end": 0.5},
            {"tau_end": 0.0},
            {"tau_end": -1.0},
            {"anneal": "cosine"},
            {"distance": "l3"},
        ],
    )
    def test_sampling_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)


# ---------------------------------------------------------------------------
# Expectation losses


class TestSoftArgmax:
    def test_matches_weighted_positions(self):
        pmap = make_map(seed=1)
        np.testing.assert_array_equal(
            soft_argmax(pmap).values, pmap.weight_values @ pmap.support.positions
        )

    def test_gradient_is_positions(self):
        weights = softmax_values(np.random.default_rng(2).normal(0.0, 1.5, 4))
        w = Tensor(weights, requires_grad=True)
        pmap = ProbabilityMap(Support.regular_grid(4), w)
        with GradientTape():
            out = ad.sum_over_axis(soft_argmax(pmap))
            ad.backward(out)
        np.testing.assert_allclose(w.grad, pmap.support.positions.sum(axis=1), rtol=1e-12)

    def test_2d_shape(self):
        pmap = map_2d()
        assert soft_argmax(pmap).values.shape == (2,)


class TestErrorOfExpectation:
    def test_zero_at_exact_match(self):
        pmap = ProbabilityMap(Support.regular_grid(3), Tensor([0.0, 1.0, 0.0]))
        assert error_of_expectation_loss(pmap, np.array([1.0])).item() == 0.0

    def test_hand_values(self):
        pmap = ProbabilityMap(Support.regular_grid(2), Tensor([0.5, 0.5]))
        y = np.array([0.0])
        assert error_of_expectation_loss(pmap, y, "l1").item() == pytest.approx(0.5)
        assert error_of_expectation_loss(pmap, y, "l2-squared").item() == pytest.approx(0.25)

    def test_2d_l1_sums_axes(self):
        pmap = map_2d(seed=3)
        mean = pmap.weight_values @ pmap.support.positions
        y = np.array([0.2, 0.9])
        expected = np.abs(mean - y).sum()
        assert error_of_expectation_loss(pmap, y, "l1").item() == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_inputs(self):
        pmap = make_map()
        with pytest.raises(ValueError, match="distance"):
            error_of_expectation_loss(pmap, np.array([1.0]), "cosine")
        with pytest.raises(ValueError, match="coordinates"):
            error_of_expectation_loss(pmap, np.array([1.0, 2.0]))

    def test_gradcheck_l2(self):
        sup = Support.regular_grid(6)
        y = np.array([2.3])

        def f(logits):
            w = ad.softmax_over_axis(logits, axis=-1)
            return error_of_expectation_loss(ProbabilityMap(sup, w), y, "l2-squared")

        x0 = np.random.default_rng(4).normal(0.0, 1.0, 6)
        assert grad_check(f, x0).passed


class TestDiscreteExpectedError:
    def test_hand_oracle(self):
        pmap = ProbabilityMap(Support.regular_grid(3), Tensor([0.2, 0.3, 0.5]))
        y = np.array([1.0])
        # distances to {0, 1, 2} are {1, 0, 1}: loss = 0.2 + 0.5
        assert discrete_expected_error_loss(pmap, y, "l1").item() == pytest.approx(0.7)
        assert discrete_expected_error_loss(pmap, y, "l2-squared").item() == pytest.approx(0.7)

    def test_2d_oracle(self):
        pmap = map_2d(seed=5)
        y = np.array([1.1, 0.4])
        d = np.abs(pmap.support.positions - y).sum(axis=1)
        expected = float(pmap.weight_values @ d)
        assert discrete_expected_error_loss(pmap, y, "l1").item() == pytest.approx(expected, rel=1e-12)

    def test_dominates_error_of_expectation(self):
        # d(y_t, E[y]) <= E[d(y_t, y)] for convex d.
        for seed in range(20):
            pmap = make_map(seed=seed)
            y = np.random.default_rng(seed + 100).uniform(0.0, 7.0, 1)
            soft = error_of_expectation_loss(pmap, y, "l1").item()
            disc = discrete_expected_error_loss(pmap, y, "l1").item()
            assert disc >= soft - 1e-12

    def test_gradcheck(self):
        sup = Support.regular_grid(5)
        y = np.array([1.7])

        def f(logits):
            w = ad.softmax_over_axis(logits, axis=-1)
            return discrete_expected_error_loss(ProbabilityMap(sup, w), y, "l1")

        x0 = np.random.default_rng(6).normal(0.0, 1.0, 5)
        assert grad_check(f, x0).passed


# ---------------------------------------------------------------------------
# Relaxed sampling


class TestGumbelSoftmax:
    def test_rows_sum_to_one(self):
        pmap = make_map(seed=7)
        for tau in (0.05, 0.5, 2.0):
            gumbels, _ = one_draw(NoiseSource(8), pmap.n)
            relaxed = gumbel_softmax(pmap, gumbels, tau)
            assert relaxed.values.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(relaxed.values >= 0.0)

    def test_sharp_tau_is_one_hot_at_gumbel_max(self):
        pmap = make_map(seed=9)
        gumbels, _ = one_draw(NoiseSource(10), pmap.n)
        winner = int(np.argmax(np.log(pmap.weight_values) + gumbels))
        relaxed = gumbel_softmax(pmap, gumbels, 0.001).values
        assert int(np.argmax(relaxed)) == winner
        assert relaxed[winner] == pytest.approx(1.0, abs=1e-6)

    def test_values_twin_is_bitwise_equal(self):
        pmap = make_map(seed=11)
        gumbels, _ = one_draw(NoiseSource(12), pmap.n)
        for tau in (0.05, 1.0):
            t = gumbel_softmax(pmap, gumbels, tau).values
            v = gumbel_softmax_values(pmap.weight_values, gumbels, tau)
            np.testing.assert_array_equal(t, v)

    def test_values_twin_batches_rows(self):
        w = softmax_values(np.random.default_rng(13).normal(0, 1, (4, 6)), axis=-1)
        g = np.random.default_rng(14).gumbel(size=(4, 6))
        batch = gumbel_softmax_values(w, g, 0.7)
        for i in range(4):
            np.testing.assert_array_equal(batch[i], gumbel_softmax_values(w[i], g[i], 0.7))

    def test_rejects_bad_inputs(self):
        pmap = make_map()
        gumbels, _ = one_draw(NoiseSource(0), pmap.n)
        with pytest.raises(ValueError, match="tau"):
            gumbel_softmax(pmap, gumbels, 0.0)
        short_gumbels, _ = one_draw(NoiseSource(0), pmap.n - 1)
        with pytest.raises(ValueError, match="support"):
            gumbel_softmax(pmap, short_gumbels, 1.0)

    def test_argmax_frequency_tracks_weights(self):
        # Over many draws the sharp-relaxation winner follows the weights.
        pmap = make_map(n=5, seed=15)
        counts = np.zeros(5)
        source = NoiseSource(16)
        draws = 20_000
        for _ in range(draws):
            gumbels, _ = one_draw(source, 5)
            counts[int(np.argmax(gumbel_softmax(pmap, gumbels, 0.05).values))] += 1
        np.testing.assert_allclose(counts / draws, pmap.weight_values, atol=0.01)


class TestSampleDifferentiable:
    def test_sharp_tau_matches_reference_sampler(self):
        for basis in ("uniform", "triangular", "gaussian"):
            pmap = make_map(seed=17)
            spec = MixtureSpec(basis)
            gumbels, uniforms = one_draw(NoiseSource(18), pmap.n)
            relaxed = sample_differentiable(pmap, spec, gumbels, uniforms, 1e-4).values
            exact = reference_sample_batch(pmap, spec, 1, NoiseSource(18))[0]
            np.testing.assert_allclose(relaxed, exact, atol=1e-8)

    def test_smooth_tau_blends_components(self):
        pmap = make_map(seed=19)
        spec = MixtureSpec("triangular")
        gumbels, uniforms = one_draw(NoiseSource(20), pmap.n)
        relaxed = sample_differentiable(pmap, spec, gumbels, uniforms, 50.0).values
        samples = basis_sample_all(spec, pmap.support, uniforms)
        # At very high temperature the relaxation approaches the flat average.
        np.testing.assert_allclose(relaxed, samples.mean(axis=0), atol=0.05)

    def test_dimension_mismatch_rejected(self):
        pmap = map_2d()
        gumbels, uniforms = one_draw(NoiseSource(0), pmap.n)
        with pytest.raises(ValueError, match="dimensionality"):
            sample_differentiable(pmap, MixtureSpec("gaussian", sigma=1.0), gumbels, uniforms, 1.0)


def draws(seed, count, n, ndim=1):
    """(count, n) gumbels and (count, n, ndim) uniforms: count draws for one map."""
    return draw_noise_batch(NoiseSource(seed), count, n, ndim)


class TestSampledExpectedErrorLoss:
    def test_matches_numpy_replay(self):
        pmap = make_map(seed=23)
        spec = MixtureSpec("triangular")
        y = np.array([2.6])
        tau = 0.618
        loss = sampled_expected_error_loss(pmap, spec, y, *draws(24, 4, pmap.n), tau, "l1")
        source = NoiseSource(24)
        total = 0.0
        for _ in range(4):
            gumbels, uniforms = one_draw(source, pmap.n)
            relaxed = gumbel_softmax_values(pmap.weight_values, gumbels, tau)
            samples = basis_sample_all(spec, pmap.support, uniforms)
            total = total + np.abs(relaxed @ samples - y).sum()
        assert loss.item() == pytest.approx(total * (1.0 / 4.0), rel=1e-15)
        with pytest.raises(ValueError, match="at least one"):
            sampled_expected_error_loss(pmap, spec, y, *draws(24, 0, pmap.n), tau)

    def test_mean_over_many_samples_approaches_discrete_loss_at_sharp_tau(self):
        # With a sharp temperature and a narrow basis the sampled loss is a
        # Monte Carlo estimate of the expected error over components.
        pmap = make_map(seed=25)
        spec = MixtureSpec("gaussian", sigma=0.01)
        y = np.array([2.0])
        loss = sampled_expected_error_loss(pmap, spec, y, *draws(26, 4000, pmap.n), 0.01)
        exact = discrete_expected_error_loss(pmap, y, "l1").item()
        assert loss.item() == pytest.approx(exact, abs=0.05)

    def test_gradcheck_with_frozen_noise(self):
        sup = Support.regular_grid(6)
        spec = MixtureSpec("triangular")
        y = np.array([2.4])
        frozen = draws(27, 3, 6)

        def f(logits):
            pmap = ProbabilityMap(sup, ad.softmax_over_axis(logits, axis=-1))
            return sampled_expected_error_loss(pmap, spec, y, *frozen, 0.7)

        x0 = np.random.default_rng(28).normal(0.0, 1.0, 6)
        assert grad_check(f, x0).passed


class TestAnnealTau:
    def test_endpoints_exact(self):
        cfg = SamplingConfig(tau_start=1.0, tau_end=0.1)
        assert anneal_tau(cfg, 0, 10) == pytest.approx(1.0)
        assert anneal_tau(cfg, 10, 10) == pytest.approx(0.1)
        lin = SamplingConfig(tau_start=1.0, tau_end=0.1, anneal="linear")
        assert anneal_tau(lin, 0, 10) == pytest.approx(1.0)
        assert anneal_tau(lin, 10, 10) == pytest.approx(0.1)

    def test_midpoints(self):
        cfg = SamplingConfig(tau_start=1.0, tau_end=0.1)
        assert anneal_tau(cfg, 5, 10) == pytest.approx(np.sqrt(0.1), rel=1e-12)
        lin = SamplingConfig(tau_start=1.0, tau_end=0.1, anneal="linear")
        assert anneal_tau(lin, 5, 10) == pytest.approx(0.55, rel=1e-12)

    def test_monotone_nonincreasing(self):
        for anneal in ("exponential", "linear"):
            cfg = SamplingConfig(tau_start=2.0, tau_end=0.05, anneal=anneal)
            taus = [anneal_tau(cfg, s, 40) for s in range(41)]
            assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_constant_when_ends_equal(self):
        cfg = SamplingConfig(tau_start=0.7, tau_end=0.7)
        assert anneal_tau(cfg, 3, 9) == pytest.approx(0.7)

    def test_rejects_bad_steps(self):
        cfg = SamplingConfig()
        with pytest.raises(ValueError):
            anneal_tau(cfg, -1, 10)
        with pytest.raises(ValueError):
            anneal_tau(cfg, 11, 10)
        with pytest.raises(ValueError):
            anneal_tau(cfg, 0, 0)


# ---------------------------------------------------------------------------
# Regularizers


class TestVarianceRegularizer:
    def test_zero_when_variance_hits_target(self):
        # w = [1/2, 1/2] at {0, 4}: variance 4 exactly.
        pmap = ProbabilityMap(Support.regular_grid(2, spacing=4.0), Tensor([0.5, 0.5]))
        assert variance_regularizer(pmap, 4.0).item() == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_penalty(self):
        pmap = ProbabilityMap(Support.regular_grid(4), Tensor([1.0, 0.0, 0.0, 0.0]))
        assert variance_regularizer(pmap, 2.0).item() == pytest.approx(4.0)

    def test_matches_numpy_route(self):
        for seed in range(10):
            pmap = make_map(seed=seed)
            w, pos = pmap.weight_values, pmap.support.positions
            var = float(w @ (pos * pos).sum(axis=1) - ((w @ pos) ** 2).sum())
            expected = (var - 4.0) ** 2
            assert variance_regularizer(pmap, 4.0).item() == pytest.approx(expected, rel=1e-12)

    def test_2d_sums_axis_variances(self):
        pmap = map_2d(seed=29)
        w, pos = pmap.weight_values, pmap.support.positions
        mean = w @ pos
        var = (w @ (pos * pos) - mean * mean).sum()
        expected = (var - 1.5) ** 2
        assert variance_regularizer(pmap, 1.5).item() == pytest.approx(expected, rel=1e-12)

    def test_gradcheck(self):
        sup = Support.regular_grid(6)

        def f(logits):
            w = ad.softmax_over_axis(logits, axis=-1)
            return variance_regularizer(ProbabilityMap(sup, w), 3.0)

        assert grad_check(f, np.random.default_rng(30).normal(0, 1, 6)).passed

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="sigma_t_sq"):
            variance_regularizer(make_map(), 0.0)


class TestJsRegularizer:
    def test_gaussian_target_weights_properties(self):
        sup = Support.regular_grid(9)
        q = gaussian_target_weights(sup, np.array([4.0]), 2.0)
        assert q.sum() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(q, q[::-1], rtol=1e-12)  # symmetric about center
        assert np.all(np.diff(q[:5]) > 0)  # rises toward the center

    def test_divergence_oracle_properties(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = softmax_values(rng.normal(0, 2, 12))
            q = softmax_values(rng.normal(0, 2, 12))
            d_pq = js_divergence_values(p, q)
            assert d_pq >= 0.0
            assert d_pq == pytest.approx(js_divergence_values(q, p), rel=1e-12)
            assert js_divergence_values(p, p) == pytest.approx(0.0, abs=1e-15)
            assert d_pq <= np.log(2.0) + 1e-12

    def test_disjoint_point_masses_reach_log_two(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert js_divergence_values(p, q) == pytest.approx(np.log(2.0), rel=1e-9)

    def test_tensor_path_matches_numpy_oracle(self):
        for seed in range(10):
            pmap = make_map(seed=seed)
            center = pmap.weight_values @ pmap.support.positions
            q = gaussian_target_weights(pmap.support, center, 4.0)
            expected = js_divergence_values(pmap.weight_values, q)
            assert js_regularizer(pmap, 4.0).item() == pytest.approx(expected, rel=1e-12)

    def test_zero_when_map_equals_target(self):
        sup = Support.regular_grid(11)
        center = np.array([5.0])
        q = gaussian_target_weights(sup, center, 3.0)
        pmap = ProbabilityMap(sup, Tensor(q))
        assert js_regularizer(pmap, 3.0, center=center).item() == pytest.approx(0.0, abs=1e-12)

    def test_gradcheck_with_pinned_center(self):
        sup = Support.regular_grid(6)
        x0 = np.random.default_rng(32).normal(0, 1, 6)
        center0 = softmax_values(x0) @ sup.positions

        def f(logits):
            w = ad.softmax_over_axis(logits, axis=-1)
            return js_regularizer(ProbabilityMap(sup, w), 4.0, center=center0)

        assert grad_check(f, x0).passed

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="sigma_t_sq"):
            js_regularizer(make_map(), -1.0)


# ---------------------------------------------------------------------------
# Batches of maps


class TestBatchedMaps:
    LOSSES = {
        "soft": lambda pmap, y, noise: error_of_expectation_loss(pmap, y, "l1"),
        "discrete": lambda pmap, y, noise: discrete_expected_error_loss(pmap, y, "l2-squared"),
        "samp": lambda pmap, y, noise: sampled_expected_error_loss(
            pmap, MixtureSpec("gaussian", sigma=0.7), y, *noise, 0.6, "l1"
        ),
        "variance": lambda pmap, y, noise: variance_regularizer(pmap, 2.0),
        "js": lambda pmap, y, noise: js_regularizer(pmap, 2.0),
    }

    @pytest.mark.parametrize("name", LOSSES)
    def test_one_loss_per_map(self, name):
        loss = self.LOSSES[name]
        sup = Support.regular_grid((3, 4))
        rng = np.random.default_rng(35)
        weights = softmax_values(rng.normal(0.0, 1.5, (5, 1, sup.n)))
        targets = rng.uniform(0.0, 3.0, (5, 1, 2))
        gumbels, uniforms = draw_noise_batch(NoiseSource(36), 5 * 4, sup.n, 2)
        noise = (gumbels.reshape(5, 1, 4, sup.n), uniforms.reshape(5, 1, 4, sup.n, 2))
        rows = loss(ProbabilityMap(sup, Tensor(weights)), targets, noise)
        assert rows.shape == (5, 1)
        for r in range(5):
            alone = loss(ProbabilityMap(sup, Tensor(weights[r, 0])), targets[r, 0], (noise[0][r, 0], noise[1][r, 0]))
            assert alone.shape == ()
            assert rows.values[r, 0] == alone.item()  # the row layout keeps every bit
        flat = loss(ProbabilityMap(sup, Tensor(weights[:, 0])), targets[:, 0], (noise[0][:, 0], noise[1][:, 0]))
        np.testing.assert_allclose(flat.values, rows.values[:, 0], rtol=1e-12)

    def test_shapes_are_checked(self):
        sup = Support.regular_grid(6)
        pmap = ProbabilityMap(sup, Tensor(np.full((2, 6), 1.0 / 6.0)))
        spec = MixtureSpec("triangular")
        gumbels, uniforms = draw_noise_batch(NoiseSource(37), 6, 6, 1)
        with pytest.raises(ValueError, match="targets must be"):
            error_of_expectation_loss(pmap, np.array([1.0]))
        y = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match="support"):
            sampled_expected_error_loss(pmap, spec, y, gumbels.reshape(3, 2, 6), uniforms.reshape(3, 2, 6, 1), 1.0)
        with pytest.raises(ValueError, match="at least one"):
            sampled_expected_error_loss(pmap, spec, y, gumbels.reshape(2, 3, 6)[:, :0], uniforms[:0], 1.0)
        loss = sampled_expected_error_loss(pmap, spec, y, gumbels.reshape(2, 3, 6), uniforms.reshape(2, 3, 6, 1), 1.0)
        assert loss.shape == (2,)


# ---------------------------------------------------------------------------
# Inference


class TestInferenceLocalize:
    def test_bitwise_equals_soft_argmax(self):
        for seed in range(50):
            pmap = make_map(seed=seed)
            np.testing.assert_array_equal(inference_localize(pmap), soft_argmax(pmap).values)

    def test_records_nothing_on_a_live_tape(self):
        pmap = make_map(seed=33)
        with GradientTape() as tape:
            inference_localize(pmap)
        assert len(tape.records) == 0

    def test_2d(self):
        pmap = map_2d(seed=34)
        out = inference_localize(pmap)
        assert out.shape == (2,)
        np.testing.assert_array_equal(out, pmap.weight_values @ pmap.support.positions)
