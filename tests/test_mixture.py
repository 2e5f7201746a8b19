"""Mixture distributions: closed forms, samplers, and noise plumbing."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from diffloc import mixture
from diffloc.autodiff import Tensor, _rows_product, softmax_values
from diffloc.mixture import (
    BASES,
    WEIGHT_FLOOR,
    MixtureSpec,
    NoiseSource,
    ProbabilityMap,
    Support,
    basis_sample_all,
    basis_variance,
    draw_noise_batch,
    draw_noise_blocks,
    gumbel_from_uniform,
    gumbel_scores,
    ks_critical_value,
    ks_statistic,
    mixture_cdf,
    mixture_moments,
    mixture_pdf,
    per_stream,
    reference_sample_batch,
)
from diffloc.operators import soft_argmax


# Mean of the standard Gumbel distribution.
EULER_GAMMA = 0.5772156649015329

B = mixture._BLOCK_DRAWS
# Draw counts on both sides of block edges: the first edges of the current
# block size, and edges 4096 and 8192, which every power-of-two block size
# up to 4096 (the size before 1024) shares.
EDGE_COUNTS = [1, B - 1, B, B + 1, 2 * B + 3, 4095, 4096, 4097, 8195]


# A map with an exact zero weight: every Gumbel-max choice must pass it over.
ZERO_WEIGHT = np.array([0.0, 0.25, 0.75])


def random_map(n=8, seed=0, scale=1.5):
    weights = softmax_values(np.random.default_rng(seed).normal(0.0, scale, n))
    return ProbabilityMap(Support.regular_grid(n), Tensor(weights))


def one_draw(source, n, ndim=1):
    """One draw's (n,) gumbels and (n, ndim) basis uniforms."""
    gumbels, uniforms = draw_noise_batch(source, 1, n, ndim)
    return gumbels[0], uniforms[0]


def component_pdf(spec, support, i, y):
    """Density of component i alone: the mixture of the one-hot map at i."""
    return mixture_pdf(ProbabilityMap(support, Tensor(np.eye(support.n)[i])), spec, y)


def component_sample(spec, support, i, u):
    """Inverse-cdf sample of component i from its (ndim,) uniforms."""
    return basis_sample_all(spec, support, np.broadcast_to(u, (support.n, support.ndim)))[i]


def gumbel_max_sample(pmap, spec, gumbels, uniforms):
    """The reference sampler written out for one draw: the Gumbel-max winner
    over the floored log weights, then that component's inverse-cdf sample."""
    winner = np.argmax(gumbels + np.log(np.maximum(pmap.weight_values, WEIGHT_FLOOR)))
    return basis_sample_all(spec, pmap.support, uniforms)[winner]


# ---------------------------------------------------------------------------
# Supports and maps


class TestSupport:
    def test_regular_grid_1d(self):
        sup = Support.regular_grid(5, spacing=2.0)
        assert sup.n == 5 and sup.ndim == 1
        np.testing.assert_array_equal(sup.positions[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])
        assert sup.spacing == 2.0

    def test_regular_grid_2d_row_major(self):
        sup = Support.regular_grid((2, 3))
        assert sup.n == 6 and sup.ndim == 2
        np.testing.assert_array_equal(sup.positions[1], [0.0, 1.0])
        np.testing.assert_array_equal(sup.positions[3], [1.0, 0.0])

    def test_scattered_has_no_spacing(self):
        pts = np.array([[0.5, 1.0], [2.0, 3.0], [1.0, 0.25]])
        sup = Support(pts)
        assert sup.spacing is None
        np.testing.assert_array_equal(sup.positions, pts)

    def test_a_support_is_its_positions_and_spacing(self):
        assert [f.name for f in dataclasses.fields(Support)] == ["positions", "spacing"]

    def test_validation(self):
        with pytest.raises(ValueError, match="spacing"):
            Support.regular_grid(4, spacing=0.0)
        for spacing in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"spacing must be positive and finite, got {spacing}"):
                Support([[0.0], [1.0]], spacing)
        with pytest.raises(ValueError, match="ndim"):
            Support(np.zeros((3, 4)))


class TestProbabilityMap:
    def test_accepts_normalized_weights(self):
        pmap = random_map()
        assert pmap.n == 8 and pmap.ndim == 1

    def test_rejects_bad_weights(self):
        sup = Support.regular_grid(3)
        with pytest.raises(ValueError, match="sum"):
            ProbabilityMap(sup, Tensor([0.5, 0.2, 0.2]))
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            ProbabilityMap(sup, Tensor([1.2, -0.1, -0.1]))
        # The worst row's distance from 1, as abs(w.sum(axis=-1) - 1).max()
        # gives it.
        w = np.array([[0.2, 0.3, 0.5], [0.5, 0.2, 0.2]])
        off = float(np.abs(w.sum(axis=-1) - 1.0).max())
        with pytest.raises(ValueError, match=f"^weights must sum to 1, off by {re.escape(repr(off))}$"):
            ProbabilityMap(sup, Tensor(w))
        with pytest.raises(ValueError, match="weights must be"):
            ProbabilityMap(sup, Tensor([0.5, 0.5]))

    def test_batch_of_maps(self):
        sup = Support.regular_grid(4)
        w = softmax_values(np.random.default_rng(1).normal(0.0, 1.0, (3, 1, 4)))
        pmap = ProbabilityMap(sup, Tensor(w))
        assert pmap.batch_shape == (3, 1) and random_map().batch_shape == ()
        assert ProbabilityMap(sup, Tensor(np.empty((0, 4)))).batch_shape == (0,)
        w[1, 0] = [0.5, 0.5, 0.5, 0.0]
        with pytest.raises(ValueError, match="sum"):
            ProbabilityMap(sup, Tensor(w))

    def test_oracles_take_single_maps_only(self):
        sup = Support.regular_grid(4)
        pmap = ProbabilityMap(sup, Tensor(np.full((2, 4), 0.25)))
        spec = MixtureSpec("triangular")
        calls = [
            lambda: mixture_pdf(pmap, spec, 1.0),
            lambda: mixture_cdf(pmap, spec, 1.0),
            lambda: mixture_moments(pmap, spec),
            lambda: reference_sample_batch(pmap, spec, 3, NoiseSource(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"single map, got a batch of shape \(2,\)"):
                call()


class TestMixtureSpec:
    def test_defaults_and_validation(self):
        assert MixtureSpec("gaussian").sigma is None
        with pytest.raises(ValueError, match="basis"):
            MixtureSpec("quadratic")
        for sigma in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
                MixtureSpec("gaussian", sigma=sigma)

    def test_scattered_requires_gaussian_with_sigma(self):
        sup = Support(np.random.default_rng(0).uniform(0, 1, (5, 2)))
        pmap = ProbabilityMap(sup, Tensor(np.full(5, 0.2)))
        with pytest.raises(ValueError, match="gaussian"):
            mixture_pdf(pmap, MixtureSpec("uniform"), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sigma"):
            mixture_pdf(pmap, MixtureSpec("gaussian"), np.array([0.5, 0.5]))
        val = mixture_pdf(pmap, MixtureSpec("gaussian", sigma=0.3), np.array([0.5, 0.5]))
        assert val > 0


# ---------------------------------------------------------------------------
# Densities


class TestDensities:
    @pytest.mark.parametrize("basis", BASES)
    def test_mixture_pdf_integrates_to_one(self, basis):
        pmap = random_map(seed=3)
        spec = MixtureSpec(basis)
        total, err = integrate.quad(
            lambda y: mixture_pdf(pmap, spec, y), -6.0, 13.0, limit=400
        )
        assert abs(total - 1.0) <= 1e-6

    @pytest.mark.parametrize("basis", BASES)
    def test_mixture_pdf_is_weighted_sum_of_bases(self, basis):
        pmap = random_map(seed=4)
        spec = MixtureSpec(basis)
        ys = np.random.default_rng(5).uniform(-1.0, 8.0, 40)
        expected = np.zeros_like(ys)
        for i in range(pmap.n):
            expected += pmap.weight_values[i] * component_pdf(spec, pmap.support, i, ys)
        np.testing.assert_allclose(mixture_pdf(pmap, spec, ys), expected, rtol=1e-12)

    def test_uniform_basis_height(self):
        sup = Support.regular_grid(3, spacing=2.0)
        spec = MixtureSpec("uniform")
        assert component_pdf(spec, sup, 1, 2.0) == pytest.approx(0.5)
        assert component_pdf(spec, sup, 1, 3.5) == 0.0

    def test_triangular_mixture_interpolates_weights(self):
        # Between adjacent unit-spaced points the triangular mixture is the
        # straight line through the weights: p(y) = w_i + (w_{i+1} - w_i)*(y - y_i).
        weights = np.array([0.2, 0.5, 0.3])
        pmap = ProbabilityMap(Support.regular_grid(3), Tensor(weights))
        spec = MixtureSpec("triangular")
        assert mixture_pdf(pmap, spec, 0.4) == pytest.approx(0.32, abs=1e-12)
        rng = np.random.default_rng(6)
        pmap2 = random_map(n=10, seed=7)
        w = pmap2.weight_values
        for y in rng.uniform(0.0, 9.0, 50):
            i = int(np.floor(y))
            i = min(i, 8)
            frac = y - i
            expected = w[i] + (w[i + 1] - w[i]) * frac
            assert mixture_pdf(pmap2, spec, y) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_peak_height(self):
        sup = Support.regular_grid(3)
        assert component_pdf(MixtureSpec("gaussian"), sup, 0, 0.0) == pytest.approx(
            1.0 / np.sqrt(2.0 * np.pi), rel=1e-12
        )
        assert component_pdf(MixtureSpec("gaussian", sigma=2.0), sup, 0, 0.0) == pytest.approx(
            1.0 / (2.0 * np.sqrt(2.0 * np.pi)), rel=1e-12
        )

    def test_bases_are_not_truncated_at_bounds(self):
        pmap = random_map(n=4, seed=8)
        for basis in ("triangular", "gaussian"):
            assert mixture_pdf(pmap, MixtureSpec(basis), -0.4) > 0.0

    def test_multi_axis_pdf_is_separable(self):
        sup = Support.regular_grid((3, 3))
        w = softmax_values(np.random.default_rng(9).normal(0, 1, 9))
        pmap = ProbabilityMap(sup, Tensor(w))
        spec = MixtureSpec("gaussian", sigma=0.8)
        y = np.array([0.7, 1.3])
        per_point = np.array([component_pdf(spec, sup, i, y) for i in range(9)])
        manual = float(w @ per_point)
        assert mixture_pdf(pmap, spec, y) == pytest.approx(manual, rel=1e-12)
        d0 = stats.norm.pdf(y[0] - sup.positions[:, 0], scale=0.8)
        d1 = stats.norm.pdf(y[1] - sup.positions[:, 1], scale=0.8)
        assert mixture_pdf(pmap, spec, y) == pytest.approx(float(w @ (d0 * d1)), rel=1e-10)


class TestCdf:
    @pytest.mark.parametrize("basis", BASES)
    def test_cdf_matches_integrated_pdf(self, basis):
        pmap = random_map(seed=10)
        spec = MixtureSpec(basis)
        for y in (-0.7, 1.2, 3.49, 6.8):
            total, _ = integrate.quad(lambda t: mixture_pdf(pmap, spec, t), -6.0, y, limit=400)
            assert mixture_cdf(pmap, spec, y) == pytest.approx(total, abs=1e-7)

    @pytest.mark.parametrize("basis", BASES)
    def test_cdf_limits_and_monotone(self, basis):
        pmap = random_map(seed=11)
        spec = MixtureSpec(basis)
        ys = np.linspace(-8.0, 15.0, 300)
        cdf = mixture_cdf(pmap, spec, ys)
        assert cdf[0] <= 1e-9 and cdf[-1] >= 1.0 - 1e-9
        assert np.all(np.diff(cdf) >= -1e-12)

    @pytest.mark.parametrize("basis", BASES)
    def test_blocked_query_matches_whole_array_product(self, basis):
        # A query longer than a block, with a ragged last block, keeps the
        # bits of one (m, n) @ (n,) product over the whole query padded to a
        # multiple of 4 rows, and every lone point keeps them too.
        pmap = random_map(seed=12)
        spec = MixtureSpec(basis)
        ys = np.random.default_rng(13).uniform(-3.0, 10.0, 2 * B + 5)
        kind, c, sigma = mixture._resolve(spec, pmap.support)
        padded = np.concatenate([ys, ys[-1:].repeat(3)])
        whole = mixture._cdf_1d(kind, padded[:, None] - pmap.support.positions[:, 0], c, sigma) @ pmap.weight_values
        blocked = mixture_cdf(pmap, spec, ys)
        assert blocked.tobytes() == whole[: ys.size].tobytes()
        per_point = np.array([mixture_cdf(pmap, spec, y) for y in ys])
        assert blocked.tobytes() == per_point.tobytes()
        column = mixture_cdf(pmap, spec, ys.reshape(-1, 1))
        assert column.shape == (len(ys),) and column.tobytes() == blocked.tobytes()

    @pytest.mark.parametrize("n", [5, 32, 64])
    @pytest.mark.parametrize("basis", BASES)
    def test_each_query_point_keeps_its_bits_wherever_it_sits(self, basis, n):
        # BLAS sums a matrix-vector product's rows in groups of four and a
        # lone vector another way; unpadded, hundreds of 5 003 points moved
        # a bit with their place in the query.  Here each point is queried
        # whole, one at a time, in ragged chunks and reversed.
        pmap = random_map(n=n, seed=n)
        spec = MixtureSpec(basis)
        rng = np.random.default_rng(n + 1)
        ys = rng.uniform(-3.0, n + 3.0, 301)
        cuts = np.cumsum(rng.integers(1, 8, ys.size))
        for oracle in (mixture_cdf, mixture_pdf):
            whole = oracle(pmap, spec, ys)
            alone = np.array([oracle(pmap, spec, y) for y in ys])
            chunked = np.concatenate([oracle(pmap, spec, chunk) for chunk in np.split(ys, cuts[cuts < ys.size])])
            reversed_ = oracle(pmap, spec, ys[::-1])[::-1]
            for other in (alone, chunked, reversed_):
                assert other.tobytes() == whole.tobytes(), oracle.__name__

    @pytest.mark.parametrize("n", [5, 16, 32])
    def test_the_one_column_rows_product_keeps_the_block_bits(self, n):
        # The oracles' rows product of a one-column matrix has the bits of
        # the product taken block by block, four rows a block: on 1 to 1 024
        # rows, on a stack of stacks, and on 16 388 rows, which one
        # matrix-vector product over every row rounds differently when
        # OpenBLAS splits it between threads.
        rng = np.random.default_rng(n)
        w = softmax_values(rng.normal(0.0, 1.5, n))[:, None]
        rows = rng.uniform(0.0, 1.0, (1024, n))

        def by_blocks(a):
            flat = a.reshape(-1, n)
            count = flat.shape[0]
            padded = np.concatenate([flat, np.repeat(flat[-1:], -count % 4, axis=0)])
            return (padded.reshape(-1, 4, n) @ w).reshape(-1, 1)[:count].reshape(a.shape[:-1] + (1,))

        for count in range(1, rows.shape[0] + 1):
            assert _rows_product(rows[:count], w).tobytes() == by_blocks(rows[:count]).tobytes(), count
        stacked = rows[:30].reshape(2, 5, 3, n)
        got = _rows_product(stacked, w)
        assert got.shape == (2, 5, 3, 1) and got.tobytes() == by_blocks(stacked).tobytes()
        many = rng.uniform(0.0, 1.0, (16388, n))
        assert _rows_product(many, w).tobytes() == by_blocks(many).tobytes()

    def test_each_2d_query_point_keeps_its_density_bits(self):
        sup = Support.regular_grid((4, 4))
        pmap = ProbabilityMap(sup, Tensor(softmax_values(np.random.default_rng(3).normal(0.0, 1.5, sup.n))))
        spec = MixtureSpec("gaussian")
        ys = np.random.default_rng(4).uniform(-1.0, 4.0, (23, 2))
        whole = mixture_pdf(pmap, spec, ys)
        assert np.array([mixture_pdf(pmap, spec, y) for y in ys]).tobytes() == whole.tobytes()
        assert mixture_pdf(pmap, spec, ys[::-1])[::-1].tobytes() == whole.tobytes()

    def test_a_one_point_array_is_one_point(self):
        # In 1-D a (m,) array is m points, m = 1 included; a scalar is one
        # point and gives a float.
        pmap = random_map(seed=14)
        spec = MixtureSpec("gaussian")
        for oracle in (mixture_pdf, mixture_cdf):
            one = oracle(pmap, spec, np.array([1.3]))
            assert isinstance(one, np.ndarray) and one.shape == (1,), oracle.__name__
            assert oracle(pmap, spec, np.array([1.3, 2.0])).shape == (2,)
            lone = oracle(pmap, spec, 1.3)
            assert isinstance(lone, float) and one[0] == lone

    def test_pdf_and_cdf_read_a_1d_query_alike(self):
        # Both oracles read the last axis as coordinates: a scalar is one
        # point, (m,) and (m, 1) are m points, and (a, b) is a * b points.
        # The cdf read [[1.3], [2.0]] as a (2, 1) grid of points and gave a
        # (2, 1) result where the pdf gave (2,).
        pmap = random_map(n=4, seed=15)
        spec = MixtureSpec("triangular")
        flat = np.array([1.3, 2.0, -0.4, 3.7, 0.9, 2.5])
        for oracle in (mixture_pdf, mixture_cdf):
            whole = oracle(pmap, spec, flat)
            assert whole.shape == (6,), oracle.__name__
            lone = oracle(pmap, spec, 1.3)
            assert type(lone) is float and lone == whole[0], oracle.__name__
            for query, shape in ((flat[:, None], (6,)), (flat.reshape(2, 3), (2, 3)), (flat[:2, None], (2,))):
                got = oracle(pmap, spec, query)
                assert got.shape == shape, (oracle.__name__, query.shape)
                assert got.tobytes() == whole[: got.size].tobytes(), (oracle.__name__, query.shape)

    def test_cdf_rejects_multi_axis_supports(self):
        sup = Support.regular_grid((3, 3))
        pmap = ProbabilityMap(sup, Tensor(np.full(9, 1.0 / 9.0)))
        with pytest.raises(ValueError, match="1-D"):
            mixture_cdf(pmap, MixtureSpec("gaussian"), np.array([1.0, 1.0]))


def map_and_spec(basis, n, spacing, scale, sigma, seed):
    weights = softmax_values(np.random.default_rng(seed).normal(0.0, scale, n))
    support = Support.regular_grid(n, spacing=spacing)
    spec = MixtureSpec(basis, sigma * spacing if basis == "gaussian" else None)
    return ProbabilityMap(support, Tensor(weights)), spec


MAPS = dict(
    basis=st.sampled_from(BASES),
    n=st.integers(1, 16),
    spacing=st.floats(0.25, 4.0),
    scale=st.floats(0.0, 4.0),
    sigma=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)


class TestMixtureProperties:
    @settings(max_examples=60, deadline=None)
    @given(**MAPS)
    def test_cdf_is_non_decreasing_within_unit_interval(self, basis, n, spacing, scale, sigma, seed):
        pmap, spec = map_and_spec(basis, n, spacing, scale, sigma, seed)
        reach = 10.0 * spacing * max(sigma, 1.0)
        ys = np.linspace(-reach, (n - 1) * spacing + reach, 2001)
        cdf = mixture_cdf(pmap, spec, ys)
        assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0 + 1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] <= 1e-9 and cdf[-1] >= 1.0 - 1e-9

    # Touching uniform bases put two kinks a few ulps apart; quad warns on that
    # sliver of an interval while the total stays exact, so the warning is no failure.
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=30, deadline=None)
    @given(**MAPS)
    def test_pdf_integrates_to_one(self, basis, n, spacing, scale, sigma, seed):
        pmap, spec = map_and_spec(basis, n, spacing, scale, sigma, seed)
        positions = pmap.support.positions[:, 0]
        # Integrate piece by piece between the bases' kinks and jumps.
        kinks = np.unique(np.concatenate([positions - spacing, positions - spacing / 2, positions,
                                          positions + spacing / 2, positions + spacing]))
        reach = 12.0 * spacing * max(sigma, 1.0)
        edges = np.concatenate([[kinks[0] - reach], kinks, [kinks[-1] + reach]])
        total = sum(
            integrate.quad(lambda y: mixture_pdf(pmap, spec, y), lo, hi, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert abs(total - 1.0) <= 1e-8
        assert np.all(mixture_pdf(pmap, spec, kinks) >= 0.0)


# ---------------------------------------------------------------------------
# Moments


class TestMoments:
    def test_basis_variances(self):
        sup = Support.regular_grid(4, spacing=2.0)
        assert basis_variance(MixtureSpec("uniform"), sup) == pytest.approx(4.0 / 12.0)
        assert basis_variance(MixtureSpec("triangular"), sup) == pytest.approx(4.0 / 6.0)
        assert basis_variance(MixtureSpec("gaussian"), sup) == pytest.approx(4.0)
        assert basis_variance(MixtureSpec("gaussian", sigma=0.5), sup) == pytest.approx(0.25)

    def test_two_component_hand_case(self):
        # w = [1/2, 0, 1/2] on a unit grid: mean 1, spread 1 + basis term.
        pmap = ProbabilityMap(Support.regular_grid(3), Tensor([0.5, 0.0, 0.5]))
        mean, var = mixture_moments(pmap, MixtureSpec("uniform"))
        assert mean[0] == pytest.approx(1.0)
        assert var[0] == pytest.approx(1.0 + 1.0 / 12.0)
        _, var_t = mixture_moments(pmap, MixtureSpec("triangular"))
        assert var_t[0] == pytest.approx(1.0 + 1.0 / 6.0)

    @pytest.mark.parametrize("basis", BASES)
    def test_moments_match_quadrature(self, basis):
        pmap = random_map(seed=12)
        spec = MixtureSpec(basis)
        mean, var = mixture_moments(pmap, spec)
        kinks = np.concatenate([pmap.support.positions[:, 0] + d for d in (-1.0, -0.5, 0.0, 0.5, 1.0)])
        m_quad, _ = integrate.quad(
            lambda y: y * mixture_pdf(pmap, spec, y), -8.0, 15.0, limit=400, points=kinks
        )
        v_quad, _ = integrate.quad(
            lambda y: (y - m_quad) ** 2 * mixture_pdf(pmap, spec, y),
            -8.0,
            15.0,
            limit=400,
            points=kinks,
        )
        assert mean[0] == pytest.approx(m_quad, abs=1e-8)
        assert var[0] == pytest.approx(v_quad, abs=1e-7)

    def test_mean_is_basis_free_and_matches_weighted_positions(self):
        # The lone map's weights, multiplied as one block of four rows.
        pmap = random_map(seed=13)
        w = pmap.weight_values
        assert w.ndim == 1
        expected = (np.repeat(w[None], 4, axis=0) @ pmap.support.positions)[0]
        for basis in BASES:
            mean, _ = mixture_moments(pmap, MixtureSpec(basis))
            np.testing.assert_array_equal(mean, expected)

    def test_mean_has_the_bits_of_soft_argmax(self):
        # One row-by-row product gives the mean, soft_argmax and
        # inference_localize: on criterion 5's 50 maps under every basis and
        # on distcheck's 20 maps.
        rng = np.random.default_rng(20260814)
        maps = []
        for _ in range(50):
            # Drawn as criterion 5 draws each map and then its 20 queries.
            n = int(rng.integers(4, 24))
            spacing = float(rng.uniform(0.5, 3.0))
            weights = softmax_values(rng.normal(0.0, 1.5, n))
            rng.uniform(0.0, (n - 1) * spacing, 20)
            maps.append(ProbabilityMap(Support.regular_grid(n, spacing=spacing), Tensor(weights)))
        for m in range(20):
            weights = softmax_values(np.random.default_rng([20260814, m]).normal(0.0, 1.5, 16), axis=-1)
            maps.append(ProbabilityMap(Support.regular_grid(16), Tensor(weights)))
        for pmap in maps:
            soft = soft_argmax(pmap).values
            for basis in BASES:
                mean, _ = mixture_moments(pmap, MixtureSpec(basis))
                assert mean.tobytes() == soft.tobytes(), (pmap.n, basis)

    def test_multi_axis_moments(self):
        sup = Support.regular_grid((3, 4))
        w = softmax_values(np.random.default_rng(14).normal(0, 1, 12))
        pmap = ProbabilityMap(sup, Tensor(w))
        mean, var = mixture_moments(pmap, MixtureSpec("uniform"))
        assert mean.shape == (2,) and var.shape == (2,)
        pos = sup.positions
        for d in range(2):
            m = float(w @ pos[:, d])
            v = float(w @ (pos[:, d] ** 2)) + 1.0 / 12.0 - m * m
            assert mean[d] == pytest.approx(m, abs=1e-12)
            assert var[d] == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# Noise


class TestNoise:
    def test_clip_unit_keeps_the_bits_of_np_clip(self):
        lo, hi = 1e-12, 1.0 - 1e-12
        edges = [0.0, 5e-324, 0.5, 1.0]
        for bound in (lo, hi):
            edges += [np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)]
        for u in (np.array(edges), np.random.default_rng(4).random(100_000)):
            clipped = mixture._clip_unit(u)
            assert np.array_equal(clipped, np.clip(u, lo, hi))
            assert lo <= clipped.min() and clipped.max() <= hi

    def test_same_seed_same_draws(self):
        a = one_draw(NoiseSource(99), 6, 2)
        b = one_draw(NoiseSource(99), 6, 2)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_draw_index_is_pinned(self):
        src = NoiseSource(7)
        draws = [one_draw(src, 4, 1) for _ in range(5)]
        src2 = NoiseSource(7)
        draws2 = [one_draw(src2, 4, 1) for _ in range(5)]
        for a, b in zip(draws, draws2):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
        assert src.draws_taken == 5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        ndim=st.integers(1, 3),
        chunks=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    )
    def test_batch_matches_sequential_bitwise(self, seed, n, ndim, chunks):
        # Any split of k draws into batches reads the stream exactly as k
        # sequential draws do, so a batched training step can take the same
        # noise the per-example step takes.
        batched = NoiseSource(seed)
        parts = [draw_noise_batch(batched, count, n, ndim) for count in chunks]
        g = np.concatenate([p[0] for p in parts])
        u = np.concatenate([p[1] for p in parts])
        src = NoiseSource(seed)
        for k in range(sum(chunks)):
            gumbels, uniforms = one_draw(src, n, ndim)
            np.testing.assert_array_equal(g[k], gumbels)
            np.testing.assert_array_equal(u[k], uniforms)
        assert batched.draws_taken == src.draws_taken == sum(chunks)

    @pytest.mark.parametrize("count", [0, *EDGE_COUNTS])
    def test_blocks_concatenate_to_one_batch(self, count):
        whole_source, blocked_source = NoiseSource(41), NoiseSource(41)
        g, u = draw_noise_batch(whole_source, count, 3, 2)
        blocks = list(draw_noise_blocks(blocked_source, count, 3, 2))
        assert all(len(bg) <= B for bg, _ in blocks)
        assert len(blocks) == -(-count // B)
        if blocks:
            np.testing.assert_array_equal(np.concatenate([bg for bg, _ in blocks]), g)
            np.testing.assert_array_equal(np.concatenate([bu for _, bu in blocks]), u)
        assert blocked_source.draws_taken == whole_source.draws_taken == count

    def test_empty_batch(self):
        src = NoiseSource(42)
        g, u = draw_noise_batch(src, 0, 5, 2)
        assert g.shape == (0, 5) and u.shape == (0, 5, 2)
        assert reference_sample_batch(random_map(), MixtureSpec("uniform"), 0, src).shape == (0, 1)
        assert src.draws_taken == 0

    def test_negative_count_fails_before_the_stream_moves(self):
        src = NoiseSource(43)
        calls = [
            lambda: draw_noise_batch(src, -1, 4, 1),
            lambda: draw_noise_blocks(src, -1, 4, 1),
            lambda: reference_sample_batch(random_map(n=4), MixtureSpec("uniform"), -1, src),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="count must be non-negative, got -1"):
                call()
            assert src.draws_taken == 0
        np.testing.assert_array_equal(one_draw(src, 4)[0], one_draw(NoiseSource(43), 4)[0])

    @pytest.mark.parametrize("count", [2.5, 20.0, True, np.float64(3.0)], ids=["2.5", "20.0", "True", "float64"])
    def test_a_count_that_is_not_an_int_fails_before_the_stream_moves(self, count):
        src = NoiseSource(44)
        for call in (draw_noise_batch, draw_noise_blocks):
            with pytest.raises(TypeError, match=f"^{re.escape(f'count must be an int, got {count!r}')}$"):
                call(src, count, 4, 1)
            assert src.draws_taken == 0
        g, _ = draw_noise_batch(src, np.int64(2), 4, 1)
        assert g.shape == (2, 4) and src.draws_taken == 2

    def test_gumbel_transform_is_clamped_and_distributed(self):
        vals = gumbel_from_uniform(np.array([0.0, 1.0, 0.5]))
        assert np.all(np.isfinite(vals))
        rng = np.random.default_rng(17)
        g = gumbel_from_uniform(rng.random(1_000_000))
        assert abs(g.mean() - EULER_GAMMA) < 5e-3
        assert abs(g.var() - np.pi**2 / 6.0) < 2e-2

    def test_a_zero_weight_is_floored_and_never_wins(self):
        # log 0 would warn (an error under this suite) and give -inf.
        gumbels, _ = draw_noise_batch(NoiseSource(44), 4000, 3)
        scores = gumbel_scores(ZERO_WEIGHT, gumbels)
        np.testing.assert_array_equal(scores[:, 0], np.log(WEIGHT_FLOOR) + gumbels[:, 0])
        assert set(np.argmax(scores, axis=1).tolist()) == {1, 2}

    def test_reference_sampler_never_draws_a_zero_weight(self):
        pmap = ProbabilityMap(Support.regular_grid(3), Tensor(ZERO_WEIGHT))
        samples = reference_sample_batch(pmap, MixtureSpec("uniform"), 4000, NoiseSource(45))
        # Component 0's uniform basis covers [-0.5, 0.5]; the other two lie above.
        assert samples.min() > 0.5


class TestPerStream:
    @staticmethod
    def first_draws(rng):
        return rng.bit_generator.state, rng.random(2).tolist(), rng.integers(0, 2**62, size=2).tolist()

    def test_per_stream_seeds_as_default_rng(self):
        # per_stream reimplements numpy's SeedSequence hash and PCG64 seeding;
        # a numpy that seeds differently fails here.  Rows of 1 to 8 words
        # cover the pool's zero padding, a full pool and the extra-word mix,
        # and every length holds a row of 0 words and one of 2**32 - 1 words.
        rng = np.random.default_rng(2024)
        rows = []
        for k in range(1, 9):
            rows += [[0] * k, [2**32 - 1] * k]
            rows += rng.integers(0, 2**32, size=(700, k)).tolist()
            rows += rng.choice([0, 1, 2**31, 2**32 - 1], size=(50, k)).tolist()
        rng.shuffle(rows)
        assert len(rows) >= 5000
        got = per_stream(rows, self.first_draws)
        for row, seeded in zip(rows, got):
            assert seeded == self.first_draws(np.random.default_rng(np.array(row, np.uint32))), row

    def test_rows_of_mixed_lengths_keep_their_order(self):
        rows = [[5], [], [7, 0, 1, 2, 3], [9, 9], [5], np.array([1, 2, 3], np.uint32)]
        seen = per_stream(rows, self.first_draws)
        assert seen == [self.first_draws(np.random.default_rng(np.array(row, np.uint32))) for row in rows]
        assert seen[0] == seen[4]
        assert per_stream([], self.first_draws) == []

    def test_each_row_starts_afresh(self):
        # A row's stream does not depend on how far fn read the row before it.
        greedy = per_stream([[1], [2]], lambda rng: rng.random(1 + int(rng.integers(1000))).tolist()[-1])
        lazy = per_stream([[2]], lambda rng: rng.random(1 + int(rng.integers(1000))).tolist()[-1])
        assert greedy[1] == lazy[0]

    def test_words_must_fit_in_32_bits(self):
        for word in (2**32, -1):
            with pytest.raises(OverflowError):
                per_stream([[1, word]], self.first_draws)


# ---------------------------------------------------------------------------
# Sampling


class TestBasisSampling:
    def test_inverse_cdf_round_trip(self):
        sup = Support.regular_grid(4, spacing=1.5)
        us = np.linspace(0.01, 0.99, 21)
        for basis in BASES:
            spec = MixtureSpec(basis)
            one = ProbabilityMap(sup, Tensor([0.0, 1.0, 0.0, 0.0]))
            for u in us:
                y = component_sample(spec, sup, 1, np.array([u]))
                # cdf of the single active component equals u again
                assert mixture_cdf(one, spec, y[0]) == pytest.approx(u, abs=1e-9)

    def test_uniform_sample_form(self):
        sup = Support.regular_grid(3, spacing=2.0)
        y = component_sample(MixtureSpec("uniform"), sup, 1, np.array([0.75]))
        assert y[0] == pytest.approx(2.0 + 2.0 * 0.25)

    def test_triangular_sample_median_is_center(self):
        sup = Support.regular_grid(3)
        y = component_sample(MixtureSpec("triangular"), sup, 1, np.array([0.5 - 1e-12]))
        assert y[0] == pytest.approx(1.0, abs=1e-6)

    def test_basis_sample_all_matches_per_component(self):
        sup = Support.regular_grid((3, 3))
        u = np.random.default_rng(20).uniform(0.01, 0.99, (9, 2))
        for basis in ("uniform", "triangular", "gaussian"):
            spec = MixtureSpec(basis)
            all_samples = basis_sample_all(spec, sup, u)
            for i in (0, 4, 8):
                np.testing.assert_array_equal(all_samples[i], component_sample(spec, sup, i, u[i]))

    @pytest.mark.parametrize("spacing", [0.1, 1 / 3, 0.5, 1.0, 3.0])
    def test_triangular_inverse_cdf_keeps_the_bits_of_the_two_branch_formula(self, spacing):
        # The two-branch form is the reference: the one-square-root form must
        # give its bits, sign of zero included.
        edges = [0.0, 5e-324, 1e-12, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0 - 1e-12]
        edges += [np.nextafter(1.0, 0.0), 1.0]
        u = np.concatenate([edges, np.random.default_rng(int(spacing * 1000)).random(1_000_000)])
        two_branch = np.where(
            u < 0.5, spacing * (np.sqrt(2.0 * u) - 1.0), spacing * (1.0 - np.sqrt(2.0 * (1.0 - u)))
        )
        one_root = mixture._inverse_cdf_1d("triangular", u, spacing, None)
        np.testing.assert_array_equal(one_root.view(np.int64), two_branch.view(np.int64))

    @pytest.mark.parametrize("basis", BASES)
    def test_uniforms_off_the_unit_interval_are_rejected(self, basis):
        # Outside [0, 1] the triangular and gaussian inverse cdfs give NaN and
        # the uniform one a sample off its component's support.
        sup = Support.regular_grid(3)
        spec = MixtureSpec(basis)
        for bad in (1.5, -0.25, np.nan):
            u = np.full((2, 3, 1), 0.5)
            u[1, 2, 0] = bad
            with pytest.raises(ValueError, match=r"^uniforms must lie in \[0, 1\]"):
                basis_sample_all(spec, sup, u)
        assert basis_sample_all(spec, sup, np.empty((0, 3, 1))).shape == (0, 3, 1)
        # The interval's ends are the ends of each component's support.
        ends = {"uniform": [-0.5, 1.5, 2.0], "triangular": [-1.0, 2.0, 2.0]}
        if basis in ends:
            samples = basis_sample_all(spec, sup, np.array([[0.0], [1.0], [0.5]]))
            np.testing.assert_array_equal(samples[:, 0], ends[basis])

    def test_basis_sample_all_batches(self):
        sup = Support.regular_grid(5)
        u = np.random.default_rng(21).uniform(0.01, 0.99, (4, 5, 1))
        out = basis_sample_all(MixtureSpec("triangular"), sup, u)
        assert out.shape == (4, 5, 1)
        np.testing.assert_array_equal(out[2], basis_sample_all(MixtureSpec("triangular"), sup, u[2]))


class TestGaussianBasis:
    """The gaussian basis is its formulas applied with scipy.special's ndtr and
    ndtri, bit for bit, so importing them on first use changes no result."""

    @pytest.mark.parametrize(
        "support, spec, sigma",
        [
            (Support.regular_grid(7, spacing=1.5), MixtureSpec("gaussian"), 1.5),
            (Support([0.3, -1.1, 2.4, 0.9, 5.2]), MixtureSpec("gaussian", sigma=0.7), 0.7),
        ],
        ids=["grid-default-sigma", "scattered-explicit-sigma"],
    )
    def test_matches_scipy_special_bitwise(self, support, spec, sigma):
        rng = np.random.default_rng(33)
        pmap = ProbabilityMap(support, Tensor(softmax_values(rng.normal(0.0, 1.5, support.n))))
        ys = rng.uniform(-4.0, 12.0, 301)
        cdf = special.ndtr((ys[:, None] - support.positions[:, 0]) / sigma) @ pmap.weight_values
        assert np.array_equal(mixture_cdf(pmap, spec, ys), cdf)
        u = rng.uniform(0.0, 1.0, (4, support.n, 1))
        assert np.array_equal(basis_sample_all(spec, support, u), support.positions + sigma * special.ndtri(u))


class TestReferenceSampler:
    def test_component_choice_follows_gumbel_max(self):
        pmap = random_map(seed=22)
        spec = MixtureSpec("uniform")
        gumbels, _ = one_draw(NoiseSource(23), pmap.n, 1)
        winner = int(np.argmax(gumbels + np.log(pmap.weight_values)))
        y = reference_sample_batch(pmap, spec, 1, NoiseSource(23))[0]
        # uniform basis keeps the sample within half a cell of its center
        assert abs(y[0] - pmap.support.positions[winner, 0]) <= 0.5

    def test_batch_matches_loop_bitwise(self):
        pmap = random_map(seed=24)
        for basis in BASES:
            spec = MixtureSpec(basis)
            batch = reference_sample_batch(pmap, spec, 9, NoiseSource(25))
            src = NoiseSource(25)
            loop = np.stack([gumbel_max_sample(pmap, spec, *one_draw(src, pmap.n, 1)) for _ in range(9)])
            np.testing.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("count", EDGE_COUNTS)
    def test_batch_matches_loop_across_block_boundaries(self, count):
        pmap = random_map(seed=33)
        for basis in BASES:
            spec = MixtureSpec(basis)
            batch_source, loop_source = NoiseSource(34), NoiseSource(34)
            batch = reference_sample_batch(pmap, spec, count, batch_source)
            loop = np.concatenate([reference_sample_batch(pmap, spec, 1, loop_source) for _ in range(count)])
            assert batch.tobytes() == loop.tobytes()
            assert batch_source.draws_taken == loop_source.draws_taken == count

    @pytest.mark.parametrize("basis", BASES)
    def test_ks_against_exact_cdf(self, basis):
        pmap = random_map(seed=26)
        spec = MixtureSpec(basis)
        samples = reference_sample_batch(pmap, spec, 30_000, NoiseSource(27))[:, 0]
        ks = ks_statistic(samples, lambda y: mixture_cdf(pmap, spec, y))
        assert ks <= ks_critical_value(30_000, alpha=0.01)

    def test_sample_moments_match_exact(self):
        pmap = random_map(seed=28)
        spec = MixtureSpec("triangular")
        samples = reference_sample_batch(pmap, spec, 200_000, NoiseSource(29))[:, 0]
        mean, var = mixture_moments(pmap, spec)
        assert samples.mean() == pytest.approx(mean[0], abs=0.02)
        assert samples.var() == pytest.approx(var[0], rel=0.03)

    def test_scattered_gaussian_sampling(self):
        rng = np.random.default_rng(30)
        sup = Support(rng.uniform(0, 2, (6, 3)))
        pmap = ProbabilityMap(sup, Tensor(softmax_values(rng.normal(0, 1, 6))))
        spec = MixtureSpec("gaussian", sigma=0.15)
        samples = reference_sample_batch(pmap, spec, 50_000, NoiseSource(31))
        mean, var = mixture_moments(pmap, spec)
        np.testing.assert_allclose(samples.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(samples.var(axis=0), var, rtol=0.05)


class TestKs:
    def test_two_point_hand_case(self):
        # Samples {0.25, 0.75} against the uniform cdf on [0, 1]: every step
        # comparison gives 0.25.
        d = ks_statistic(np.array([0.25, 0.75]), lambda y: np.clip(y, 0, 1))
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_matches_scipy(self):
        rng = np.random.default_rng(32)
        samples = rng.normal(0.3, 1.2, 500)
        ours = ks_statistic(samples, lambda y: stats.norm.cdf(y, 0.0, 1.0))
        ref = stats.kstest(samples, lambda y: stats.norm.cdf(y, 0.0, 1.0)).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_critical_value(self):
        assert ks_critical_value(100_000, 0.01) == pytest.approx(0.00514700, abs=1e-7)
        assert ks_critical_value(100, 0.05) == pytest.approx(1.3581 / 10.0, abs=1e-3)

    @pytest.mark.parametrize(
        "n, alpha, message",
        [(0, 0.01, "n must be at least 1"), (100, 0.0, "alpha"), (100, 1.0, "alpha"), (100, -0.1, "alpha"),
         (100, float("nan"), "alpha")],
    )
    def test_critical_value_rejects_bad_settings(self, n, alpha, message):
        with pytest.raises(ValueError, match=message):
            ks_critical_value(n, alpha)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ks_statistic(np.zeros((3, 2)), lambda y: y)
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), lambda y: y)
