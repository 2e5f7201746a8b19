"""Differentiable localization operators over probability maps.

Training-time losses come in three families: the error of the map's
expectation (soft-argmax), the exact discrete expected error (a weighted sum
of per-point distances), and a sampled expected error driven by the
Gumbel-softmax relaxation.  Two regularizers shape the map itself, matching a
target variance or pulling the map toward a discrete gaussian around its own
mean.  At test time everything collapses to the plain expectation: no
randomness, no temperature.

Every loss and regularizer takes a map whose weights are (..., n) and returns
one loss per map, shape (...).  A map in the (..., 1, n) row layout gets, row
for row, the same bits a lone (n,) map gets, since each matrix product then
runs per row.

Relaxed sampling treats the per-component basis samples as constants; the
gradient flows through the relaxed component weights only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mixture import WEIGHT_FLOOR, MixtureSpec, ProbabilityMap, basis_sample_all

__all__ = [
    "DISTANCES",
    "ANNEALS",
    "SamplingConfig",
    "soft_argmax",
    "error_of_expectation_loss",
    "discrete_expected_error_loss",
    "gumbel_softmax",
    "gumbel_softmax_values",
    "gumbel_scores",
    "sample_differentiable",
    "sampled_expected_error_loss",
    "anneal_tau",
    "variance_regularizer",
    "js_regularizer",
    "gaussian_target_weights",
    "inference_localize",
]

DISTANCES = ("l1", "l2-squared")
ANNEALS = ("exponential", "linear")


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs for the sampled loss: draw count, temperature schedule, distance."""

    num_samples: int = 5
    tau_start: float = 1.0
    tau_end: float = 0.1
    anneal: str = "exponential"
    distance: str = "l1"

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if not (0.0 < self.tau_end <= self.tau_start):
            raise ValueError("need tau_start >= tau_end > 0")
        if self.anneal not in ANNEALS:
            raise ValueError(f"unknown anneal schedule: {self.anneal!r}")
        if self.distance not in DISTANCES:
            raise ValueError(f"unknown distance: {self.distance!r}")


def _check_distance(distance: str) -> None:
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance: {distance!r}")


def _distance_loss(pred: Tensor, target: np.ndarray, distance: str) -> Tensor:
    """d(pred, target) summed over the last (coordinate) axis."""
    diff = ad.subtract(pred, Tensor(target))
    if distance == "l1":
        return ad.sum_over_axis(ad.absolute_value(diff), axis=-1)
    return ad.sum_over_axis(ad.square(diff), axis=-1)


def _target_points(pmap: ProbabilityMap, y_t) -> np.ndarray:
    """One target per map, (*batch, ndim); a single map also takes any array
    of ndim values."""
    y = np.asarray(y_t, dtype=np.float64)
    if not pmap.batch_shape:
        y = y.reshape(-1)
    shape = pmap.batch_shape + (pmap.ndim,)
    if y.shape != shape:
        raise ValueError(f"targets must be {shape}: {pmap.ndim} coordinates per map, got {y.shape}")
    return y


# ---------------------------------------------------------------------------
# Expectation losses


def soft_argmax(pmap: ProbabilityMap) -> Tensor:
    """Expectation of each map: weights @ positions, shape (..., ndim)."""
    return ad.matrix_multiply(pmap.weights, Tensor(pmap.support.positions))


def error_of_expectation_loss(pmap: ProbabilityMap, y_t, distance: str = "l1") -> Tensor:
    """d(y_t, E[y]) per map."""
    _check_distance(distance)
    return _distance_loss(soft_argmax(pmap), _target_points(pmap, y_t), distance)


def discrete_expected_error_loss(pmap: ProbabilityMap, y_t, distance: str = "l1") -> Tensor:
    """sum_i w_i d(y_t, y_i): the exact expected error over support points.

    The gradient is the pathwise one of the weighted sum; per-point distances
    are constants.
    """
    _check_distance(distance)
    y = _target_points(pmap, y_t)
    diff = pmap.support.positions - y[..., None, :]
    if distance == "l1":
        per_point = np.abs(diff).sum(axis=-1)
    else:
        per_point = (diff * diff).sum(axis=-1)
    return ad.sum_over_axis(ad.multiply(pmap.weights, Tensor(per_point)), axis=-1)


# ---------------------------------------------------------------------------
# Relaxed sampling


def _floored_log_tensor(t: Tensor) -> Tensor:
    # max(t, floor) written with registered ops: relu(t - floor) + floor.
    floor = Tensor(WEIGHT_FLOOR)
    return ad.logarithm(ad.add(ad.relu(ad.subtract(t, floor)), floor))


def gumbel_softmax(pmap: ProbabilityMap, gumbels: np.ndarray, tau: float) -> Tensor:
    """Relaxed one-hot over components: softmax((log w + g) / tau).

    gumbels is (*batch, *draws, n): the map's batch axes, then any number of
    draw axes.  The result has the shape of gumbels.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    batch = pmap.batch_shape
    if gumbels.shape[: len(batch)] != batch or gumbels.shape[-1:] != (pmap.n,):
        raise ValueError(f"noise {gumbels.shape} does not match the map's support, {batch + (pmap.n,)}")
    # Repeat each map's log weights once per draw, as a gather: the op set
    # broadcasts leading axes only.
    per_draw = np.broadcast_to(np.arange(pmap.n), gumbels.shape[len(batch) :])
    log_w = ad.index_select(_floored_log_tensor(pmap.weights), per_draw, axis=-1)
    scores = ad.add(log_w, Tensor(gumbels))
    return ad.softmax_over_axis(ad.divide(scores, Tensor(float(tau))), axis=-1)


def gumbel_softmax_values(weights: np.ndarray, gumbels: np.ndarray, tau: float) -> np.ndarray:
    """Plain-array twin of gumbel_softmax; supports row batches.

    Mirrors the tensor formula exactly (same floor, same stable softmax) so
    the two agree bitwise on shared inputs.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return ad.softmax_values(gumbel_scores(weights, gumbels) / float(tau), axis=-1)


def gumbel_scores(weights: np.ndarray, gumbels: np.ndarray) -> np.ndarray:
    """log w + g with gumbel_softmax's floor: the relaxed scores before the
    division by tau, which callers at several temperatures can share."""
    floored = np.maximum(weights - WEIGHT_FLOOR, 0.0) + WEIGHT_FLOOR
    return np.log(floored) + gumbels


def sample_differentiable(
    pmap: ProbabilityMap, spec: MixtureSpec, gumbels: np.ndarray, basis_uniforms: np.ndarray, tau: float
) -> Tensor:
    """Relaxed mixture samples sum_i pi_hat_i * y_hat_i, one per draw.

    gumbels is (*batch, *draws, n) as for gumbel_softmax and basis_uniforms
    is (*batch, *draws, n, ndim); the result is (*batch, *draws, ndim).
    y_hat_i are per-component inverse-cdf samples, held constant for the
    gradient; differentiability comes entirely from the relaxed weights.
    """
    if basis_uniforms.shape != gumbels.shape + (pmap.ndim,):
        raise ValueError(
            f"noise {gumbels.shape}, {basis_uniforms.shape} does not match the map's dimensionality, {pmap.ndim}"
        )
    # Each draw's relaxed weights as a (1, n) row, so that the product with
    # its (n, ndim) samples runs per draw.
    rows = gumbel_softmax(pmap, gumbels[..., None, :], tau)
    samples = basis_sample_all(spec, pmap.support, basis_uniforms)
    return ad.index_select(ad.matrix_multiply(rows, Tensor(samples)), 0, axis=-2)


def sampled_expected_error_loss(
    pmap: ProbabilityMap,
    spec: MixtureSpec,
    y_t,
    gumbels: np.ndarray,
    basis_uniforms: np.ndarray,
    tau: float,
    distance: str = "l1",
) -> Tensor:
    """Mean distance between each map's target and its relaxed samples.

    gumbels is (*batch, S, n) and basis_uniforms (*batch, S, n, ndim): S
    draws per map.  A pure function of the draws it is given: training
    passes fresh draws for every example, the gradient check passes the same
    frozen ones to every evaluation.
    """
    _check_distance(distance)
    if gumbels.ndim != len(pmap.batch_shape) + 2 or gumbels.shape[-2] < 1:
        raise ValueError(f"need at least one noise draw per map, (*batch, S, n) gumbels, got {gumbels.shape}")
    y = _target_points(pmap, y_t)
    samples = sample_differentiable(pmap, spec, gumbels, basis_uniforms, tau)
    terms = _distance_loss(samples, np.broadcast_to(y[..., None, :], samples.shape), distance)
    return ad.multiply(ad.sum_over_axis(terms, axis=-1), Tensor(1.0 / gumbels.shape[-2]))


def anneal_tau(config: SamplingConfig, step: int, total_steps: int) -> float:
    """Temperature at `step` of `total_steps`, from tau_start down to tau_end."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    frac = step / total_steps
    if config.anneal == "exponential":
        return float(config.tau_start * (config.tau_end / config.tau_start) ** frac)
    return float(config.tau_start + (config.tau_end - config.tau_start) * frac)


# ---------------------------------------------------------------------------
# Map-shaping regularizers


def variance_regularizer(pmap: ProbabilityMap, sigma_t_sq: float) -> Tensor:
    """(Var(pi) - sigma_t^2)^2 where Var sums the per-axis discrete variances."""
    if not sigma_t_sq > 0:
        raise ValueError("sigma_t_sq must be positive")
    pos = pmap.support.positions
    mean = ad.matrix_multiply(pmap.weights, Tensor(pos))
    second = ad.matrix_multiply(pmap.weights, Tensor(pos * pos))
    per_axis = ad.subtract(second, ad.square(mean))
    total = ad.sum_over_axis(per_axis, axis=-1)
    return ad.square(ad.subtract(total, Tensor(float(sigma_t_sq))))


def gaussian_target_weights(support, center: np.ndarray, sigma_t_sq: float) -> np.ndarray:
    """Discrete gaussian over the support points, renormalized to sum to 1;
    center is (..., ndim) and the result (..., n)."""
    diff = support.positions - np.asarray(center, dtype=np.float64)[..., None, :]
    sq = (diff * diff).sum(axis=-1)
    q = np.exp(-0.5 * sq / float(sigma_t_sq))
    return q / q.sum(axis=-1, keepdims=True)


def js_regularizer(pmap: ProbabilityMap, sigma_t_sq: float, center=None) -> Tensor:
    """Jensen-Shannon divergence between the map and a discrete gaussian
    centered on the map's own expectation.

    The center is detached: the gradient shapes the map toward the target, it
    does not move the target.  Pass `center`, (..., ndim), to pin the target
    somewhere other than the current expectation.
    """
    if not sigma_t_sq > 0:
        raise ValueError("sigma_t_sq must be positive")
    if center is None:
        center = inference_localize(pmap)
    q = gaussian_target_weights(pmap.support, center, sigma_t_sq)

    w = pmap.weights
    m = ad.multiply(ad.add(w, Tensor(q)), Tensor(0.5))
    log_m = _floored_log_tensor(m)
    kl_p = ad.sum_over_axis(ad.multiply(w, ad.subtract(_floored_log_tensor(w), log_m)), axis=-1)
    log_q = np.log(np.maximum(q, WEIGHT_FLOOR))
    kl_q = ad.sum_over_axis(ad.multiply(Tensor(q), ad.subtract(Tensor(log_q), log_m)), axis=-1)
    return ad.multiply(ad.add(kl_p, kl_q), Tensor(0.5))


# ---------------------------------------------------------------------------
# Inference


def inference_localize(pmap: ProbabilityMap) -> np.ndarray:
    """Test-time prediction: the map's expectation, computed without tensors,
    tapes, or randomness.  Matches soft_argmax values bitwise."""
    return pmap.weight_values @ pmap.support.positions
