"""Differentiable localization operators over probability maps.

Training-time losses come in three families: the error of the map's
expectation (soft-argmax), the exact discrete expected error (a weighted sum
of per-point distances), and a sampled expected error driven by the
Gumbel-softmax relaxation.  Two regularizers shape the map itself, matching a
target variance or pulling the map toward a discrete gaussian around its own
mean.  At test time everything collapses to the plain expectation: no
randomness, no temperature.

Every loss and regularizer takes a map whose weights are (..., n) and returns
one loss per map, shape (...).  A map in a batch gets the bits it gets alone:
each expectation is matrix_multiply's rows product, whose rows are
multiplied in fixed blocks of four, so no row's bits depend on the others.

Relaxed sampling takes all of its randomness as arrays: the gumbels and the
per-component basis samples y_hat_i, which mixture.basis_sample_all makes
from uniforms under a mixture spec.  The samples are constants for the
gradient, which flows through the relaxed component weights only, so no
operator here reads a mixture spec.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mixture import WEIGHT_FLOOR, ProbabilityMap

__all__ = [
    "DISTANCES",
    "ANNEALS",
    "SamplingConfig",
    "field_kinds",
    "check_field_types",
    "soft_argmax",
    "error_of_expectation_loss",
    "discrete_expected_error_loss",
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
        check_field_types(self)
        if self.num_samples < 1:
            raise ValueError("num_samples must be at least 1")
        if not (0.0 < self.tau_end <= self.tau_start):
            raise ValueError("need tau_start >= tau_end > 0")
        if self.anneal not in ANNEALS:
            raise ValueError(f"unknown anneal schedule: {self.anneal!r}")
        _check_distance(self.distance)


_KIND_NAMES = {int: "an int", float: "a number", str: "a string", type(None): "None"}


def _is_kind(value, kind) -> bool:
    if kind in (int, float) and isinstance(value, (bool, np.bool_)):
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, kind)


@functools.cache
def field_kinds(cls) -> dict[str, tuple[type, ...]]:
    """Each field of dataclass `cls` -> the kinds its annotation allows:
    `int | None` gives (int, NoneType) and `float` gives (float,)."""
    hints = typing.get_type_hints(cls)
    return {f.name: typing.get_args(hints[f.name]) or (hints[f.name],) for f in fields(cls)}


def check_field_types(config) -> None:
    """Raise TypeError naming the first field of dataclass `config` whose
    value is not of a kind its annotation allows: int (a bool is not one),
    float (an int is one), str, a class, or None in an optional field.  A
    float field must also be finite, or ValueError names it."""
    for name, kinds in field_kinds(type(config)).items():
        value = getattr(config, name)
        if not any(_is_kind(value, kind) for kind in kinds):
            expected = " or ".join(_KIND_NAMES.get(kind) or f"a {kind.__name__}" for kind in kinds)
            raise TypeError(f"{name} must be {expected}, got {value!r}")
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_distance(distance: str) -> None:
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance: {distance!r}")


def _distance_loss(pred: Tensor, target: np.ndarray, distance: str) -> Tensor:
    """d(pred, target) summed over the last (coordinate) axis, one record."""
    if distance == "l1":
        return ad.absolute_value(pred, target, axis=-1)
    return ad.square(pred, target, axis=-1)


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
    """Expectation of each map: weights @ positions, the rows product, shape
    (..., ndim)."""
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


def sample_differentiable(pmap: ProbabilityMap, gumbels: np.ndarray, basis_samples: np.ndarray, tau: float) -> Tensor:
    """Relaxed mixture samples sum_i pi_hat_i * y_hat_i, one per draw.

    gumbels is (*batch, *draws, n): the map's batch axes, then any number
    of draw axes.  basis_samples, the y_hat_i, is (*batch, *draws, n, ndim):
    one sample per component, as mixture.basis_sample_all returns them.  The
    result is (*batch, *draws, ndim).  The samples are constants for the
    gradient; differentiability comes entirely from the relaxed weights.
    tau must be positive and finite.
    """
    if basis_samples.shape != gumbels.shape + (pmap.ndim,):
        raise ValueError(
            f"noise {gumbels.shape}, {basis_samples.shape} does not match the map's dimensionality, {pmap.ndim}"
        )
    # Each draw's relaxed weights times its own (n, ndim) samples, row by
    # row, in the Gumbel-softmax's one record.
    return ad.forward_op("softmax-over-axis", [pmap.weights, gumbels, basis_samples], tau=tau, floor=WEIGHT_FLOOR)


def sampled_expected_error_loss(
    pmap: ProbabilityMap,
    y_t,
    gumbels: np.ndarray,
    basis_samples: np.ndarray,
    tau: float,
    distance: str = "l1",
) -> Tensor:
    """Mean distance between each map's target and its relaxed samples.

    gumbels is (*batch, S, n) and basis_samples (*batch, S, n, ndim): S
    draws per map, each with one basis sample per component.  A pure
    function of the draws it is given: training passes fresh draws for every
    example, the gradient check passes the same frozen ones to every
    evaluation of a point.
    """
    _check_distance(distance)
    if gumbels.ndim != len(pmap.batch_shape) + 2 or gumbels.shape[-2] < 1:
        raise ValueError(f"need at least one noise draw per map, (*batch, S, n) gumbels, got {gumbels.shape}")
    y = _target_points(pmap, y_t)
    samples = sample_differentiable(pmap, gumbels, basis_samples, tau)
    terms = _distance_loss(samples, np.broadcast_to(y[..., None, :], samples.shape), distance)
    return ad.mean_over_axis(terms, axis=-1)


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
    mean = soft_argmax(pmap)
    pos = pmap.support.positions
    second = ad.matrix_multiply(pmap.weights, Tensor(pos * pos))
    per_axis = ad.subtract(second, ad.square(mean))
    total = ad.sum_over_axis(per_axis, axis=-1)
    return ad.square(total, float(sigma_t_sq))


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
    log_m = ad.logarithm(m, floor=WEIGHT_FLOOR)
    kl_p = ad.sum_over_axis(ad.multiply(w, ad.subtract(ad.logarithm(w, floor=WEIGHT_FLOOR), log_m)), axis=-1)
    # np.maximum, not floored_values: its (q - floor) + floor can move q's
    # last bit, and with it soft-dr's loss bits.
    log_q = np.log(np.maximum(q, WEIGHT_FLOOR))
    kl_q = ad.sum_over_axis(ad.multiply(Tensor(q), ad.subtract(Tensor(log_q), log_m)), axis=-1)
    return ad.multiply(ad.add(kl_p, kl_q), Tensor(0.5))


# ---------------------------------------------------------------------------
# Inference


def inference_localize(pmap: ProbabilityMap) -> np.ndarray:
    """Test-time prediction: the map's expectation, computed without tensors,
    tapes, or randomness.  Matches soft_argmax values bitwise: the same rows
    product."""
    return ad._rows_product(pmap.weight_values, pmap.support.positions)
