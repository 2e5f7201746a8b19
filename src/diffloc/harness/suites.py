"""Diagnostic suites: gradient checks, sampler distribution checks, and
estimator variance comparison.

Each suite returns structured rows so callers (tests, the command line) can
render or assert on them; nothing here prints.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..mixture import (
    BASES,
    MixtureSpec,
    NoiseSource,
    ProbabilityMap,
    Support,
    basis_sample_all,
    draw_noise_batch,
    draw_noise_blocks,
    gumbel_scores,
    ks_critical_value,
    ks_statistic,
    mixture_cdf,
    mixture_moments,
    per_stream,
    reference_sample_batch,
)
from ..operators import DISTANCES, _is_kind, inference_localize, sampled_expected_error_loss
from ..rows import Rows
from .tasks import _scaled
from .training import LOSS_KINDS, make_loss

__all__ = [
    "GradCheckRow",
    "GradCheckReport",
    "gradcheck_suite",
    "ReferenceRow",
    "RelaxedRow",
    "DistCheckReport",
    "distcheck_suite",
    "VarianceCompareRow",
    "VarianceCompareReport",
    "variance_compare",
]

# The one setting at which the suites check the differentiable path.  A
# suite's parameters are what its command sets, plus gradcheck's step and
# tol, which the acceptance test sets.
GRADCHECK_NUM_SAMPLES = 3
GRADCHECK_TAU = 0.7
GRADCHECK_SIGMA_T_SQ = 4.0
MAP_POINTS = 16  # the 1-D grid of distcheck's and varcompare's random maps
DISTCHECK_ALPHA = 0.01
DISTCHECK_FREQ_TOL = 0.01
DISTCHECK_TAUS = (0.05, 1.0)  # sharp, smooth
VARCOMPARE_BASIS = "triangular"


def _require_counts(least: int = 1, **counts: int) -> None:
    """Each count must be an int (a bool is not one) of at least `least`: a
    suite over no rows would pass vacuously."""
    for name, value in counts.items():
        if not _is_kind(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Gradient checks

@dataclass(frozen=True, slots=True)
class GradCheckRow:
    loss: str
    basis: str
    ndim: int
    seed: int
    max_rel_error: float
    passed: bool


@dataclass(frozen=True)
class GradCheckReport:
    rows: Rows  # of GradCheckRow

    @property
    def passed(self) -> bool:
        return bool(self.rows.column("passed").all())

    @property
    def worst(self) -> float:
        return float(self.rows.column("max_rel_error").max())


def gradcheck_suite(seeds: int = 20, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check analytic gradients of every loss family against central finite
    differences, across bases, 1-D and 2-D supports, and `seeds` randomized
    logits per combination.

    Row count is |LOSS_KINDS| * |bases| * 2 * seeds, in the order support,
    basis, family, seed.  Even seeds use the l1 distance and odd seeds
    l2-squared.  Each grad_check_rows call takes one support, family and
    distance, and the points of every basis.  A point's logits and target
    are seeded by its (support, basis, family, seed) alone, and its frozen
    noise, GRADCHECK_NUM_SAMPLES gumbels and basis samples, by its (support,
    basis), so its row does not depend on how points are grouped.  The
    distribution regularizer's center is pinned at each point's unperturbed
    weights, matching the gradient it actually computes.  Bad arguments are
    rejected before any check runs.
    """
    _require_counts(seeds=seeds)
    ad._check_step_and_tol(step, tol)
    supports = (Support.regular_grid(8), Support.regular_grid((4, 4)))
    families = list(itertools.product(enumerate(LOSS_KINDS), enumerate(DISTANCES)))
    cells = [
        (d, loss_idx, loss_name, distance, [(b, s) for b in range(len(BASES)) for s in range(parity, seeds, 2)])
        for d in range(len(supports))
        for (loss_idx, loss_name), (parity, distance) in families
        if parity < seeds
    ]
    # Each point draws its x0 and then its y_t from the stream of
    # default_rng([2311, ndim, b, loss_idx, seed]), scaled from its first
    # random() draws as rng.uniform scales them.  Every stream is seeded in
    # one call and draws as many as the widest support takes.
    width = max(support.n + support.ndim for support in supports)
    draws = iter(
        per_stream(
            [[2311, supports[d].ndim, b, loss_idx, seed] for d, loss_idx, _, _, points in cells for b, seed in points],
            lambda rng: rng.random(width),
        )
    )
    frozen = [[_frozen_noise(support, b) for b in range(len(BASES))] for support in supports]
    # The report's varying columns, shaped (support, basis, family, seed)
    # while each call writes its points' errors and verdicts into them.
    shape = (len(supports), len(BASES), len(LOSS_KINDS), seeds)
    errors = np.empty(shape)
    passed = np.empty(shape, dtype=bool)
    for d, loss_idx, loss_name, distance, points in cells:
        support = supports[d]
        u = np.stack([next(draws) for _ in points])
        x0s = _scaled(u[:, : support.n], -2.0, 2.0)
        y_ts = _scaled(u[:, support.n : support.n + support.ndim], 0.5, support.positions.max() - 1.0)
        noise = tuple(np.stack([frozen[d][b][k] for b, _ in points]) for k in range(2))
        f = _loss_closure(loss_name, support, noise, y_ts, distance, x0s)
        results = ad.grad_check_rows(f, x0s, step=step, tol=tol)
        b, s = np.array(points).T
        errors[d, b, loss_idx, s] = results.column("max_rel_error")
        passed[d, b, loss_idx, s] = results.column("passed")
    # A kept report costs its columns alone: the names as object arrays of
    # the shared strings, ndim and seed in the smallest integers that hold
    # them.
    dims, bases, losses, seed_col = np.indices(shape).reshape(4, -1)
    columns = (
        np.array(LOSS_KINDS, dtype=object)[losses],
        np.array(BASES, dtype=object)[bases],
        np.array([support.ndim for support in supports], dtype=np.int8)[dims],
        seed_col.astype(np.min_scalar_type(seeds - 1)),
        errors.reshape(-1),
        passed.reshape(-1),
    )
    return GradCheckReport(Rows(GradCheckRow, columns))


def _frozen_noise(support: Support, basis_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) gumbels and (S, n, ndim) basis samples that gradcheck
    freezes for every point on `support` under basis BASES[basis_idx]."""
    source = NoiseSource([8741, support.ndim, basis_idx])
    gumbels, uniforms = draw_noise_batch(source, GRADCHECK_NUM_SAMPLES, support.n, support.ndim)
    return gumbels, basis_sample_all(MixtureSpec(BASES[basis_idx]), support, uniforms)


def _loss_closure(loss_name, support, noise, y_ts, distance, x0s):
    """f(x) for grad_check_rows: loss `loss_name` (any name make_loss takes)
    of softmax(x) at the R points x0s (R, n) with targets y_ts (R, ndim) and
    frozen noise, (R, S, n) gumbels and (R, S, n, ndim) basis samples.

    Given (m, n) logits, m a multiple of R, the rows go point-major: each
    point's m / R rows get its target, its noise and its JS centre, pinned
    at its own unperturbed weights.  A lone (n,) x is the map of a one-point
    closure, for a single-point check."""
    count = len(x0s)
    centres = inference_localize(ProbabilityMap(support, Tensor(ad.softmax_values(x0s, axis=-1))))

    def per_point(pmap: ProbabilityMap, a: np.ndarray) -> np.ndarray:
        if pmap.batch_shape == ():
            (lone,) = a
            return lone
        return np.repeat(a, pmap.batch_shape[0] // count, axis=0)

    loss_fn = make_loss(
        loss_name,
        lambda pmap: tuple(per_point(pmap, a) for a in noise),
        distance,
        GRADCHECK_SIGMA_T_SQ,
        center=lambda pmap: per_point(pmap, centres),
    )

    def f(x: Tensor) -> Tensor:
        pmap = ProbabilityMap(support, ad.softmax_over_axis(x))
        return loss_fn(pmap, per_point(pmap, y_ts), GRADCHECK_TAU)

    return f


# ---------------------------------------------------------------------------
# Sampler distribution checks


@dataclass(frozen=True, slots=True)
class ReferenceRow:
    map: int
    basis: str
    ks: float
    ks_crit: float
    ks_passed: bool
    mean_gap: float
    var_gap: float


@dataclass(frozen=True, slots=True)
class RelaxedRow:
    map: int
    basis: str
    freq_gap: float
    freq_passed: bool
    ks_sharp: float
    ks_smooth: float
    ordered: bool


@dataclass(frozen=True)
class DistCheckReport:
    reference: Rows  # of ReferenceRow
    relaxed: Rows  # of RelaxedRow
    draws: int
    alpha: float

    @property
    def passed(self) -> bool:
        return bool(
            self.reference.column("ks_passed").all()
            and self.relaxed.column("freq_passed").all()
            and self.relaxed.column("ordered").all()
        )


def distcheck_suite(num_maps: int = 20, draws: int = 100_000, seed: int = 20260814) -> DistCheckReport:
    """Compare samplers against closed-form facts on random 1-D maps.

    Per map and basis: a KS test of the reference sampler against the exact
    mixture cdf (pass under the alpha critical value), exact-vs-sample moment
    gaps, relaxed-argmax component frequencies against the weights, and the
    KS statistics of the relaxed sampler at a sharp and a smooth temperature
    (sharp must fit strictly better, on shared noise).

    Noise is drawn and used in blocks of a fixed number of draws, so memory
    is bounded by the block size; only the 1-D sample vectors that the KS
    and moment checks take whole grow with `draws`.
    """
    _require_counts(num_maps=num_maps, draws=draws)
    _require_counts(0, seed=seed)
    n = MAP_POINTS
    support = Support.regular_grid(n)
    crit = ks_critical_value(draws, DISTCHECK_ALPHA)

    def check(i: int) -> tuple[tuple, tuple]:
        # Row i is map i // |BASES| under basis i % |BASES|; its map and both
        # noise streams are seeded from those indices alone.
        m, basis_idx = divmod(i, len(BASES))
        basis = BASES[basis_idx]
        rng = np.random.default_rng([seed, m])
        weights = ad.softmax_values(rng.normal(0.0, 1.5, n), axis=-1)
        pmap = ProbabilityMap(support, Tensor(weights))
        spec = MixtureSpec(basis)

        def cdf(y):
            return mixture_cdf(pmap, spec, y)

        samples = reference_sample_batch(pmap, spec, draws, NoiseSource([seed, m, basis_idx, 1]))[:, 0]
        ks = ks_statistic(samples, cdf)
        exact_mean, exact_var = mixture_moments(pmap, spec)
        mean_gap = abs(float(samples.mean()) - float(exact_mean[0]))
        var_gap = abs(float(samples.var()) - float(exact_var[0]))
        del samples
        reference = (m, basis, ks, crit, ks <= crit, mean_gap, var_gap)

        counts = np.zeros(n, dtype=np.intp)
        y_relaxed = np.empty((len(DISTCHECK_TAUS), draws))
        start = 0
        for gumbels, uniforms in draw_noise_blocks(NoiseSource([seed, m, basis_idx, 2]), draws, n, 1):
            stop = start + len(gumbels)
            scores = gumbel_scores(weights, gumbels)
            counts += np.bincount(np.argmax(scores, axis=1), minlength=n)
            y_hat = basis_sample_all(spec, support, uniforms)
            for row, tau in zip(y_relaxed, DISTCHECK_TAUS):
                # Training's relaxed sample: the tempered softmax of the
                # shared scores times each draw's basis samples, row by row.
                row[start:stop] = ad._rows_product(ad.softmax_values(scores / float(tau), axis=-1), y_hat)[:, 0]
            start = stop
        freq_gap = float(np.abs(counts / draws - weights).max())
        ks_sharp, ks_smooth = (ks_statistic(row, cdf) for row in y_relaxed)
        return reference, (
            m, basis, freq_gap, freq_gap <= DISTCHECK_FREQ_TOL, ks_sharp, ks_smooth, ks_sharp < ks_smooth
        )

    reference, relaxed = zip(*_run_rows(check, num_maps * len(BASES)))
    return DistCheckReport(
        Rows.from_tuples(ReferenceRow, reference), Rows.from_tuples(RelaxedRow, relaxed), draws, DISTCHECK_ALPHA
    )


T = TypeVar("T")


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_rows(row: Callable[[int], T], count: int) -> list[T]:
    """[row(i) for i in range(count)], the rows shared out among
    min(usable CPUs, count) threads.

    numpy, scipy.special and BLAS release the GIL on block-sized arrays, so
    independent rows overlap.  The calling thread is one of the workers: it
    draws row indices from the same counter as the helpers, so a signal
    handler that runs in it (a timer, Ctrl-C) pauses one worker's share and
    never leaves it idle beside the others.  Results land in row order, so
    they do not depend on the thread count.  If a row raises, or an
    exception such as KeyboardInterrupt reaches the calling thread, every
    worker stops after its current row and the exception is re-raised once
    all helpers are joined.
    """
    results: list = [None] * count
    indices = iter(range(count))
    take = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def drain() -> None:
        while not stop.is_set():
            with take:
                i = next(indices, None)
            if i is None:
                return
            results[i] = row(i)

    def helper() -> None:
        try:
            drain()
        except BaseException as exc:
            # Raised again in the calling thread, once every helper is joined.
            errors.append(exc)
            stop.set()

    started: list[threading.Thread] = []
    try:
        for _ in range(min(_usable_cpus(), count) - 1):
            thread = threading.Thread(target=helper, daemon=True)
            thread.start()
            started.append(thread)
        drain()
    finally:
        stop.set()
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


# ---------------------------------------------------------------------------
# Estimator variance comparison


@dataclass(frozen=True, slots=True)
class VarianceCompareRow:
    seed: int
    trace_score: float
    trace_reparam: float
    coord_greater_frac: float
    trace_ordered: bool


@dataclass(frozen=True)
class VarianceCompareReport:
    rows: Rows  # of VarianceCompareRow

    @property
    def passed(self) -> bool:
        return bool(self.rows.column("trace_ordered").all())


def score_function_gradients(
    weights: np.ndarray, positions: np.ndarray, y_t: float, gumbels: np.ndarray
) -> np.ndarray:
    """Per-draw score-function gradient of E[|y - y_t|] w.r.t. the logits.

    Draw i ~ pi via the Gumbel-max rule, then d(y_t, y_i) * (e_i - pi).
    Diagnostic only; training never uses this estimator.
    """
    winners = np.argmax(gumbel_scores(weights, gumbels), axis=1)
    d = np.abs(positions[winners] - y_t)
    grads = -np.outer(d, weights)
    grads[np.arange(winners.size), winners] += d
    return grads


def reparam_gradients(
    logits: np.ndarray, support: Support, y_t: float, gumbels: np.ndarray, y_hat: np.ndarray, tau: float
) -> np.ndarray:
    """Per-draw pathwise gradient of |relaxed sample - y_t| w.r.t. the
    logits, as the samp loss's tape gives it.

    Draw i is map i: the (n,) logits repeated as a (draws, n) leaf, its
    softmax, and sampled_expected_error_loss with one draw, gumbels[i] and
    the 1-D basis samples y_hat[i], and the l1 distance.  One backward of
    the summed losses gives each map its own gradient.
    """
    count = len(gumbels)
    x = Tensor(np.broadcast_to(logits, (count, support.n)), requires_grad=True)
    with ad.GradientTape():
        pmap = ProbabilityMap(support, ad.softmax_over_axis(x))
        losses = sampled_expected_error_loss(
            pmap, np.full((count, 1), y_t), gumbels[:, None], y_hat[:, None, :, None], tau, "l1"
        )
        ad.backward(ad.sum_over_axis(losses))
    return x.grad


def variance_compare(num_seeds: int = 10, draws: int = 10_000, tau: float = 1.0) -> VarianceCompareReport:
    """Gradient variance of the score-function estimator vs the relaxed
    pathwise estimator, per logit coordinate and in trace, one draw per
    estimate.  The pathwise estimates are the samp loss's taped gradients
    (reparam_gradients), one map per draw.

    A seed passes when the score-function trace exceeds the pathwise trace
    and the pathwise trace is positive: at a huge tau every relaxed sample
    is the plain mean, and a zero trace says nothing about the estimator.
    Noise is drawn in blocks; only the two (draws, n) gradient arrays that
    the variances take whole grow with `draws`.  draws must be at least 2:
    one draw has no variance.
    """
    _require_counts(num_seeds=num_seeds)
    _require_counts(2, draws=draws)
    if not 0.0 < tau < float("inf"):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    n = MAP_POINTS
    support = Support.regular_grid(n)
    positions = support.positions[:, 0]
    spec = MixtureSpec(VARCOMPARE_BASIS)
    rows: list[tuple] = []
    for s in range(num_seeds):
        rng = np.random.default_rng([4171, s])
        logits = rng.normal(0.0, 1.5, n)
        weights = ad.softmax_values(logits, axis=-1)
        y_t = float(rng.uniform(0.5, n - 1.5))

        grads_sf = np.empty((draws, n))
        grads_rp = np.empty((draws, n))
        blocks = zip(
            draw_noise_blocks(NoiseSource([4171, s, 1]), draws, n, 1),
            draw_noise_blocks(NoiseSource([4171, s, 2]), draws, n, 1),
        )
        start = 0
        for (g_sf, _), (g_rp, u_rp) in blocks:
            stop = start + len(g_sf)
            grads_sf[start:stop] = score_function_gradients(weights, positions, y_t, g_sf)
            y_hat = basis_sample_all(spec, support, u_rp)[..., 0]
            grads_rp[start:stop] = reparam_gradients(logits, support, y_t, g_rp, y_hat, tau)
            start = stop

        var_sf = grads_sf.var(axis=0)
        var_rp = grads_rp.var(axis=0)
        trace_sf = float(var_sf.sum())
        trace_rp = float(var_rp.sum())
        rows.append((s, trace_sf, trace_rp, float((var_sf > var_rp).mean()), trace_sf > trace_rp > 0.0))
    return VarianceCompareReport(Rows.from_tuples(VarianceCompareRow, rows))
