"""Training and evaluation loops for the synthetic localization tasks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..autodiff import NonFiniteError, Tensor
from ..mixture import BASES, MixtureSpec, NoiseSource, ProbabilityMap, basis_sample_all, draw_noise_batch
from ..operators import (
    SamplingConfig,
    anneal_tau,
    check_field_types,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    inference_localize,
    js_regularizer,
    sampled_expected_error_loss,
    variance_regularizer,
)
from ..rows import Rows
from .model import MLPModel
from .tasks import SyntheticTask, generate_split, task_mixture_spec, task_support

__all__ = [
    "LOSSES",
    "LOSS_KINDS",
    "LR_SCHEDULES",
    "RunConfig",
    "HistoryRow",
    "TrialRecord",
    "EvalSummary",
    "TrainingDiverged",
    "learning_rate_at",
    "make_loss",
    "train",
    "evaluate",
]


# The losses selectable from the command line, as (base family, regularizer
# family or None, default regularizer weight).  The variance penalty is
# quartic in the map's spread, so its raw scale at init dwarfs the base loss;
# the small default keeps the two comparable.
_OBJECTIVES = {
    "soft": ("error-of-expectation", None, 0.0),
    "discrete": ("discrete-expected-error", None, 0.0),
    "samp": ("sampled-expected-error", None, 0.0),
    "soft-vr": ("error-of-expectation", "variance-regularizer", 0.01),
    "soft-dr": ("error-of-expectation", "js-regularizer", 0.1),
}
LOSSES = tuple(_OBJECTIVES)

# The operator families the objectives combine; gradcheck checks each alone.
LOSS_KINDS = (
    "error-of-expectation",
    "discrete-expected-error",
    "sampled-expected-error",
    "variance-regularizer",
    "js-regularizer",
)
LR_SCHEDULES = ("constant", "cosine")


class TrainingDiverged(RuntimeError):
    """A non-finite value stopped training; `history` holds the rows
    recorded before it."""

    def __init__(self, message: str, history: list[HistoryRow]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run depends on."""

    task: SyntheticTask
    loss: str = "samp"
    basis: str = "triangular"
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    sigma_t_sq: float = 4.0
    reg_weight: float | None = None
    lr: float = 0.05
    lr_schedule: str = "cosine"
    epochs: int = 30
    batch_size: int = 16
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss: {self.loss!r}")
        if self.basis not in BASES:
            raise ValueError(f"unknown basis: {self.basis!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"unknown lr schedule: {self.lr_schedule!r}")
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1 or self.hidden_dim < 1:
            raise ValueError("lr, epochs, batch_size and hidden_dim must be positive")
        if self.sigma_t_sq <= 0:
            raise ValueError("sigma_t_sq must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        _resolve(self.loss, self.reg_weight)


@dataclass(frozen=True, slots=True)
class HistoryRow:
    epoch: int
    loss: float
    val_mean_err: float
    tau: float


@dataclass(frozen=True, slots=True, eq=False)
class TrialRecord:
    """One evaluated example: prediction, truth, confidence, error.  Two
    records are equal when their fields are, the arrays entry by entry; a
    record is not hashable."""

    index: int
    pred: np.ndarray
    target: np.ndarray
    peak: float
    error: float

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.index, self.peak, self.error) == (other.index, other.peak, other.error)
            and np.array_equal(self.pred, other.pred)
            and np.array_equal(self.target, other.target)
        )


@dataclass(frozen=True, slots=True)
class EvalSummary:
    count: int
    mean_error: float
    median_error: float
    within_one_cell: float


# Cosine decay floor: final lr is 5% of the initial value, which damps the
# SGD noise floor late in training without stalling early progress.
_COSINE_FLOOR = 0.05


def learning_rate_at(config: RunConfig, epoch: int, total_steps: int) -> float:
    """Learning rate for `epoch` under the configured schedule."""
    if config.lr_schedule == "constant":
        return config.lr
    frac = epoch / total_steps
    scale = _COSINE_FLOOR + (1.0 - _COSINE_FLOOR) * 0.5 * (1.0 + np.cos(np.pi * frac))
    return config.lr * float(scale)


def _resolve(name: str, reg_weight: float | None) -> tuple[str, str | None, float]:
    """(base family, regularizer family or None, regularizer weight) of an
    objective or a lone family; reg_weight None takes the default weight."""
    if name not in LOSSES + LOSS_KINDS:
        raise ValueError(f"unknown loss: {name!r}")
    base, regularizer, default = _OBJECTIVES.get(name, (name, None, 0.0))
    if reg_weight is None:
        return base, regularizer, default
    if regularizer is None:
        raise ValueError(f"loss {name!r} has no regularizer, so reg_weight must be unset, got {reg_weight}")
    if reg_weight < 0:
        raise ValueError(f"reg_weight must be non-negative, got {reg_weight}")
    return base, regularizer, float(reg_weight)


def make_loss(name, noise, distance, sigma_t_sq, reg_weight=None, center=lambda pmap: None):
    """loss_fn(pmap, y, tau) -> one loss per map of the batch `pmap` (y holds
    one target per map) for an objective of LOSSES or a family of LOSS_KINDS.

    noise(pmap) gives the sampled family the batch's gumbels and basis
    samples, as sampled_expected_error_loss takes them, and center(pmap) the
    JS target's centres (None: each map's own expectation).  reg_weight None
    takes the objective's default weight."""
    base_family, reg_family, weight = _resolve(name, reg_weight)
    terms = {
        "error-of-expectation": lambda pmap, y, tau: error_of_expectation_loss(pmap, y, distance),
        "discrete-expected-error": lambda pmap, y, tau: discrete_expected_error_loss(pmap, y, distance),
        "sampled-expected-error": lambda pmap, y, tau: sampled_expected_error_loss(
            pmap, y, *noise(pmap), tau, distance
        ),
        "variance-regularizer": lambda pmap, y, tau: variance_regularizer(pmap, sigma_t_sq),
        "js-regularizer": lambda pmap, y, tau: js_regularizer(pmap, sigma_t_sq, center=center(pmap)),
    }
    if reg_family is None:
        return terms[base_family]
    base, reg = terms[base_family], terms[reg_family]
    return lambda pmap, y, tau: ad.add(base(pmap, y, tau), ad.multiply(reg(pmap, y, tau), Tensor(weight)))


def _fresh_noise(source: NoiseSource, num_samples: int, spec: MixtureSpec):
    """make_loss's noise(pmap): num_samples fresh draws per map from `source`,
    each map's back to back, so the sample axis follows the batch axes.  Each
    draw's basis uniforms become its basis samples under `spec` as they are
    drawn."""

    def noise(pmap: ProbabilityMap) -> tuple[np.ndarray, np.ndarray]:
        lead = pmap.batch_shape + (num_samples,)
        gumbels, uniforms = draw_noise_batch(source, math.prod(lead), pmap.n, pmap.ndim)
        uniforms = uniforms.reshape(lead + (pmap.n, pmap.ndim))
        return gumbels.reshape(lead + (pmap.n,)), basis_sample_all(spec, pmap.support, uniforms)

    return noise


def train(config: RunConfig) -> tuple[MLPModel, list[HistoryRow]]:
    """SGD training; returns the model and one history row per epoch."""
    support = task_support(config.task)
    spec = task_mixture_spec(config.task, config.basis)
    train_obs, train_y = generate_split(config.task, "train")
    val_obs, val_y = generate_split(config.task, "val")

    model = MLPModel(train_obs.shape[1], config.hidden_dim, support.n, seed=config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 5])
    noise = _fresh_noise(NoiseSource([config.seed, 11]), config.sampling.num_samples, spec)
    loss_fn = make_loss(config.loss, noise, config.sampling.distance, config.sigma_t_sq, config.reg_weight)

    history: list[HistoryRow] = []
    total_steps = max(config.epochs - 1, 1)
    count = train_obs.shape[0]
    for epoch in range(config.epochs):
        tau = anneal_tau(config.sampling, epoch, total_steps)
        lr = learning_rate_at(config, epoch, total_steps)
        order = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        try:
            for start in range(0, count, config.batch_size):
                rows = order[start : start + config.batch_size]
                batch_loss = _train_batch(model, support, loss_fn, train_obs[rows], train_y[rows], tau, lr)
                epoch_loss += batch_loss * rows.size
            mean_loss = epoch_loss / count
            if not np.isfinite(mean_loss):
                raise NonFiniteError("non-finite epoch loss")
            val_err = float(_predict(model, support, val_obs, val_y)[2].mean())
        except NonFiniteError as err:
            raise TrainingDiverged(f"diverged at epoch {epoch}: {err}", history) from err
        if not np.isfinite(val_err):
            raise TrainingDiverged(f"diverged at epoch {epoch}: non-finite validation error", history)
        history.append(HistoryRow(epoch, mean_loss, val_err, tau))
    return model, history


def _batch_losses(model, support, loss_fn, obs, targets, tau) -> tuple[Tensor, Tensor]:
    """(per-example losses, batch loss) of one batch, recorded on the open
    tape."""
    losses = loss_fn(ProbabilityMap(support, ad.softmax_over_axis(model.logits(obs))), targets, tau)
    return losses, ad.mean_over_axis(losses)


def _train_batch(model, support, loss_fn, obs, targets, tau, lr) -> float:
    with ad.GradientTape():
        _, batch_loss = _batch_losses(model, support, loss_fn, obs, targets, tau)
        ad.backward(batch_loss)
        # Under the tape's flags, whatever the caller's error state, so an
        # update that overflows a parameter raises instead of leaving an inf
        # that no later op would name.
        for p in model.parameters():
            if p.grad is not None:
                p.values -= lr * p.grad
            p.zero_grad()
    return batch_loss.item()


def _predict(model, support, obs, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weight rows, predictions, L1 errors) of a split, each prediction
    with the bits its example gets alone, wherever it sits in the split."""
    rows = ad.softmax_values(model.logit_values(obs), axis=-1)
    preds = inference_localize(ProbabilityMap(support, Tensor(rows)))
    return rows, preds, np.abs(preds - targets).sum(axis=-1)


def evaluate(model: MLPModel, task: SyntheticTask, split: str = "test") -> tuple[Rows, EvalSummary]:
    """Inference-only pass over a split; no randomness anywhere.  The
    records are Rows of TrialRecord held as four columns, (m, ndim) preds
    and targets and (m,) peaks and errors: a record's index is its
    position, its pred and target are row views, its peak and error Python
    floats."""
    support = task_support(task)
    obs, targets = generate_split(task, split)
    rows, preds, errors = _predict(model, support, obs, targets)
    records = Rows(TrialRecord, (range(len(errors)), preds, targets, rows.max(axis=-1), errors))
    cell = support.spacing if support.spacing is not None else 1.0
    summary = EvalSummary(
        count=len(errors),
        mean_error=float(errors.mean()),
        median_error=float(np.median(errors)),
        within_one_cell=float((errors <= cell).mean()),
    )
    return records, summary
