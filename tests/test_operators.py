"""Differentiable localization losses, relaxed sampling, and regularizers."""

import numpy as np
import pytest

from diffloc import autodiff as ad
from diffloc.autodiff import GradientTape, Tensor, softmax_values
from diffloc.harness.tasks import TASK_KINDS, SyntheticTask, task_support
from diffloc.mixture import (
    BASES,
    WEIGHT_FLOOR,
    MixtureSpec,
    NoiseSource,
    ProbabilityMap,
    Support,
    basis_sample_all,
    draw_noise_batch,
    gumbel_scores,
    reference_sample_batch,
)
from diffloc.operators import (
    DISTANCES,
    SamplingConfig,
    anneal_tau,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    gaussian_target_weights,
    inference_localize,
    js_regularizer,
    sample_differentiable,
    sampled_expected_error_loss,
    soft_argmax,
    variance_regularizer,
)
from looped_gradcheck import grad_check
from relaxed_chain import relaxed_sample_chain


def make_map(n=8, seed=0, spacing=1.0):
    weights = softmax_values(np.random.default_rng(seed).normal(0.0, 1.5, n))
    return ProbabilityMap(Support.regular_grid(n, spacing=spacing), Tensor(weights))


def gumbel_softmax(weights, gumbels, tau):
    """The relaxed one-hots softmax((log w + g) / tau), the weights floored
    at WEIGHT_FLOOR, as distcheck spells them: an array, for (*lead, n)
    weights and (*lead, *draws, n) gumbels."""
    per_draw = weights.reshape(weights.shape[:-1] + (1,) * (gumbels.ndim - weights.ndim) + weights.shape[-1:])
    return softmax_values(gumbel_scores(per_draw, gumbels) / tau)


def relaxed_weights(weights, gumbels, tau):
    """softmax-over-axis's relaxed sample of the identity's rows: the op's
    own relaxed weights, an array."""
    n = weights.shape[-1]
    return ad.forward_op("softmax-over-axis", [weights, gumbels, np.eye(n)], tau=tau, floor=WEIGHT_FLOOR).values


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
        # A lone map's weights are multiplied as one block of four rows.
        pmap = make_map(seed=1)
        w = pmap.weight_values
        assert w.ndim == 1
        np.testing.assert_array_equal(
            soft_argmax(pmap).values, (np.repeat(w[None], 4, axis=0) @ pmap.support.positions)[0]
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
            w = ad.softmax_over_axis(logits)
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
            w = ad.softmax_over_axis(logits)
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
            relaxed = gumbel_softmax(pmap.weight_values, gumbels, tau)
            assert relaxed.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(relaxed >= 0.0)

    def test_sharp_tau_is_one_hot_at_gumbel_max(self):
        pmap = make_map(seed=9)
        gumbels, _ = one_draw(NoiseSource(10), pmap.n)
        winner = int(np.argmax(np.log(pmap.weight_values) + gumbels))
        relaxed = gumbel_softmax(pmap.weight_values, gumbels, 0.001)
        assert int(np.argmax(relaxed)) == winner
        assert relaxed[winner] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lead, draws", [((), ()), ((), (5,)), ((4,), ()), ((4,), (5,)), ((4,), (2, 3))])
    def test_the_op_keeps_the_bits_of_the_numpy_formula(self, lead, draws):
        # A lone map and a batch, with and without draw axes: the relaxed
        # weights inside the op are softmax((log w + g) / tau) over the
        # Gumbel-max scores, and each map of a batch gets the bits it gets
        # alone.
        rng = np.random.default_rng([len(lead), len(draws)])
        w = softmax_values(rng.normal(0.0, 1.5, lead + (8,)))
        gumbels = rng.gumbel(size=lead + draws + (8,))
        for tau in (0.05, 0.7):
            relaxed = relaxed_weights(w, gumbels, tau)
            assert relaxed.tobytes() == gumbel_softmax(w, gumbels, tau).tobytes()
            for i in np.ndindex(lead):
                assert relaxed_weights(w[i], gumbels[i], tau).tobytes() == relaxed[i].tobytes()

    def test_argmax_frequency_tracks_weights(self):
        # Over many draws the sharp-relaxation winner follows the weights.
        pmap = make_map(n=5, seed=15)
        counts = np.zeros(5)
        source = NoiseSource(16)
        draws = 20_000
        for _ in range(draws):
            gumbels, _ = one_draw(source, 5)
            counts[int(np.argmax(gumbel_softmax(pmap.weight_values, gumbels, 0.05)))] += 1
        np.testing.assert_allclose(counts / draws, pmap.weight_values, atol=0.01)


class TestSampleDifferentiable:
    def test_sharp_tau_matches_reference_sampler(self):
        for basis in ("uniform", "triangular", "gaussian"):
            pmap = make_map(seed=17)
            spec = MixtureSpec(basis)
            gumbels, uniforms = one_draw(NoiseSource(18), pmap.n)
            relaxed = sample_differentiable(pmap, gumbels, basis_sample_all(spec, pmap.support, uniforms), 1e-4).values
            exact = reference_sample_batch(pmap, spec, 1, NoiseSource(18))[0]
            np.testing.assert_allclose(relaxed, exact, atol=1e-8)

    def test_smooth_tau_blends_components(self):
        pmap = make_map(seed=19)
        spec = MixtureSpec("triangular")
        gumbels, uniforms = one_draw(NoiseSource(20), pmap.n)
        samples = basis_sample_all(spec, pmap.support, uniforms)
        relaxed = sample_differentiable(pmap, gumbels, samples, 50.0).values
        # At very high temperature the relaxation approaches the flat average.
        np.testing.assert_allclose(relaxed, samples.mean(axis=0), atol=0.05)

    def test_dimension_mismatch_rejected(self):
        pmap = map_2d()
        gumbels, uniforms = one_draw(NoiseSource(0), pmap.n)
        one_axis = basis_sample_all(MixtureSpec("gaussian", sigma=1.0), Support.regular_grid(pmap.n), uniforms)
        with pytest.raises(ValueError, match="dimensionality"):
            sample_differentiable(pmap, gumbels, one_axis, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_tau_must_be_positive_and_finite(self, tau):
        # At tau = inf every relaxed sample would be the mean of its basis
        # samples, whatever the map.
        pmap = make_map()
        gumbels, uniforms = one_draw(NoiseSource(0), pmap.n)
        samples = basis_sample_all(MixtureSpec("triangular"), pmap.support, uniforms)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            sample_differentiable(pmap, gumbels, samples, tau)

    def test_gumbels_must_fit_the_support(self):
        pmap = make_map()
        gumbels, uniforms = one_draw(NoiseSource(0), pmap.n - 1)
        samples = basis_sample_all(MixtureSpec("triangular"), Support.regular_grid(pmap.n - 1), uniforms)
        with pytest.raises(ValueError, match="support"):
            sample_differentiable(pmap, gumbels, samples, 1.0)


def draws(seed, count, n, spec=MixtureSpec("triangular")):
    """(count, n) gumbels and (count, n, 1) basis samples under `spec` on a
    regular 1-D grid: count draws for one map."""
    gumbels, uniforms = draw_noise_batch(NoiseSource(seed), count, n, 1)
    return gumbels, basis_sample_all(spec, Support.regular_grid(n), uniforms)


def spec_chain_loss(pmap, spec, y_t, gumbels, uniforms, tau, distance):
    """The sampled loss as written when it took a spec and basis uniforms
    and drew its basis samples itself."""
    samples = basis_sample_all(spec, pmap.support, uniforms)
    relaxed = relaxed_sample_chain(pmap.weights, gumbels, samples, tau)
    diff = ad.subtract(relaxed, Tensor(np.broadcast_to(y_t[..., None, :], relaxed.shape)))
    per_draw = ad.sum_over_axis(ad.absolute_value(diff) if distance == "l1" else ad.square(diff), axis=-1)
    return ad.multiply(ad.sum_over_axis(per_draw, axis=-1), Tensor(1.0 / gumbels.shape[-2]))


class TestSampledExpectedErrorLoss:
    def test_matches_numpy_replay(self):
        pmap = make_map(seed=23)
        spec = MixtureSpec("triangular")
        y = np.array([2.6])
        tau = 0.618
        loss = sampled_expected_error_loss(pmap, y, *draws(24, 4, pmap.n, spec=spec), tau, "l1")
        source = NoiseSource(24)
        total = 0.0
        for _ in range(4):
            gumbels, uniforms = one_draw(source, pmap.n)
            relaxed = gumbel_softmax(pmap.weight_values, gumbels, tau)
            samples = basis_sample_all(spec, pmap.support, uniforms)
            total = total + np.abs(relaxed @ samples - y).sum()
        assert loss.item() == pytest.approx(total * (1.0 / 4.0), rel=1e-15)
        with pytest.raises(ValueError, match="at least one"):
            sampled_expected_error_loss(pmap, y, *draws(24, 0, pmap.n), tau)

    def test_mean_over_many_samples_approaches_discrete_loss_at_sharp_tau(self):
        # With a sharp temperature and a narrow basis the sampled loss is a
        # Monte Carlo estimate of the expected error over components.
        pmap = make_map(seed=25)
        spec = MixtureSpec("gaussian", sigma=0.01)
        y = np.array([2.0])
        loss = sampled_expected_error_loss(pmap, y, *draws(26, 4000, pmap.n, spec=spec), 0.01)
        exact = discrete_expected_error_loss(pmap, y, "l1").item()
        assert loss.item() == pytest.approx(exact, abs=0.05)

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("shape", [8, (4, 4)])
    @pytest.mark.parametrize("distance", DISTANCES)
    def test_given_samples_keep_the_bits_of_the_spec_chain(self, basis, shape, distance):
        # Losses and logit gradients of a (B, n) batch, on basis samples,
        # against the chain that drew them from a spec and uniforms inside
        # the loss: with fresh draws per map, as training takes them, and
        # with one draw shared by every map, as gradcheck freezes it.
        support, spec = Support.regular_grid(shape), MixtureSpec(basis)
        batch, num_samples, tau = 5, 3, 0.7
        rng = np.random.default_rng([41, support.ndim, BASES.index(basis)])
        logits = rng.uniform(-2.0, 2.0, (batch, support.n))
        y = rng.uniform(0.5, support.positions.max() - 1.0, (batch, support.ndim))
        lead = (batch, num_samples)
        gumbels, uniforms = draw_noise_batch(NoiseSource(42), batch * num_samples, support.n, support.ndim)
        fresh = gumbels.reshape(lead + (support.n,)), uniforms.reshape(lead + (support.n, support.ndim))
        gumbels, uniforms = draw_noise_batch(NoiseSource(43), num_samples, support.n, support.ndim)
        shared = np.broadcast_to(gumbels, fresh[0].shape), np.broadcast_to(uniforms, fresh[1].shape)
        shared_samples = np.repeat(basis_sample_all(spec, support, uniforms)[None], batch, axis=0)

        def loss_and_grad(loss_fn):
            with GradientTape():
                x = Tensor(logits, requires_grad=True)
                loss = loss_fn(ProbabilityMap(support, ad.softmax_over_axis(x)))
                ad.backward(ad.sum_over_axis(loss))
                return loss.values.tobytes(), x.grad.tobytes()

        for (g, u), samples in ((fresh, basis_sample_all(spec, support, fresh[1])), (shared, shared_samples)):
            given = loss_and_grad(lambda pmap: sampled_expected_error_loss(pmap, y, g, samples, tau, distance))
            chain = loss_and_grad(lambda pmap: spec_chain_loss(pmap, spec, y, g, u, tau, distance))
            assert given == chain

    def test_gradcheck_with_frozen_noise(self):
        sup = Support.regular_grid(6)
        y = np.array([2.4])
        frozen = draws(27, 3, 6)

        def f(logits):
            pmap = ProbabilityMap(sup, ad.softmax_over_axis(logits))
            return sampled_expected_error_loss(pmap, y, *frozen, 0.7)

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
            w = ad.softmax_over_axis(logits)
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
            w = ad.softmax_over_axis(logits)
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
        "samp": lambda pmap, y, noise: sampled_expected_error_loss(pmap, y, *noise, 0.6, "l1"),
        "variance": lambda pmap, y, noise: variance_regularizer(pmap, 2.0),
        "js": lambda pmap, y, noise: js_regularizer(pmap, 2.0),
    }

    @pytest.mark.parametrize("name", LOSSES)
    def test_one_loss_per_map(self, name):
        loss = self.LOSSES[name]
        sup = Support.regular_grid((3, 4))
        rng = np.random.default_rng(35)
        weights = softmax_values(rng.normal(0.0, 1.5, (5, sup.n)))
        targets = rng.uniform(0.0, 3.0, (5, 2))
        gumbels, uniforms = draw_noise_batch(NoiseSource(36), 5 * 4, sup.n, 2)
        samples = basis_sample_all(MixtureSpec("gaussian", sigma=0.7), sup, uniforms)
        noise = (gumbels.reshape(5, 4, sup.n), samples.reshape(5, 4, sup.n, 2))
        rows = loss(ProbabilityMap(sup, Tensor(weights)), targets, noise)
        assert rows.shape == (5,)
        for r in range(5):
            alone = loss(ProbabilityMap(sup, Tensor(weights[r])), targets[r], (noise[0][r], noise[1][r]))
            assert alone.shape == ()
            assert rows.values[r] == alone.item()  # a map in a batch keeps every bit

    def test_shapes_are_checked(self):
        sup = Support.regular_grid(6)
        pmap = ProbabilityMap(sup, Tensor(np.full((2, 6), 1.0 / 6.0)))
        gumbels, samples = draws(37, 6, 6)
        with pytest.raises(ValueError, match="targets must be"):
            error_of_expectation_loss(pmap, np.array([1.0]))
        y = np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match="support"):
            sampled_expected_error_loss(pmap, y, gumbels.reshape(3, 2, 6), samples.reshape(3, 2, 6, 1), 1.0)
        with pytest.raises(ValueError, match="at least one"):
            sampled_expected_error_loss(pmap, y, gumbels.reshape(2, 3, 6)[:, :0], samples[:0], 1.0)
        loss = sampled_expected_error_loss(pmap, y, gumbels.reshape(2, 3, 6), samples.reshape(2, 3, 6, 1), 1.0)
        assert loss.shape == (2,)


class TestLoneBitsInABatch:
    """soft_argmax, variance_regularizer and inference_localize give each map
    of a (B, n) batch, value and gradient, the bits it gets alone."""

    @pytest.mark.parametrize("count", [1, 16, 128])
    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_each_map_keeps_its_lone_bits(self, kind, count):
        support = task_support(SyntheticTask(kind))
        rng = np.random.default_rng([43, TASK_KINDS.index(kind), count])
        weights = softmax_values(rng.normal(0.0, 2.0, (count, support.n)))
        ops = {
            "soft_argmax": (soft_argmax, (count, support.ndim)),
            "variance_regularizer": (lambda pmap: variance_regularizer(pmap, 2.0), (count,)),
        }
        for name, (op, shape) in ops.items():
            cotangent = rng.normal(size=shape)
            with GradientTape():
                w = Tensor(weights, requires_grad=True)
                out = op(ProbabilityMap(support, w))
                ad.backward(ad.sum_over_axis(ad.multiply(out, Tensor(cotangent))))
            for r in range(count):
                with GradientTape():
                    lone = Tensor(weights[r], requires_grad=True)
                    lone_out = op(ProbabilityMap(support, lone))
                    ad.backward(ad.sum_over_axis(ad.multiply(lone_out, Tensor(cotangent[r]))))
                assert out.values[r].tobytes() == lone_out.values.tobytes(), (name, r)
                assert w.grad[r].tobytes() == lone.grad.tobytes(), (name, r)
        preds = inference_localize(ProbabilityMap(support, Tensor(weights)))
        for r in range(count):
            assert preds[r].tobytes() == inference_localize(ProbabilityMap(support, Tensor(weights[r]))).tobytes(), r


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
