"""Differentiable localization over probability maps.

Layers: a small reverse-mode autodiff core (`autodiff`), continuous mixtures
over discrete supports with exact oracles and a reference sampler
(`mixture`), the differentiable localization operators and losses
(`operators`), and a synthetic-task harness with a CLI (`harness`).
"""

from . import autodiff, mixture, operators
from .autodiff import GradientTape, Tensor, backward, forward_op
from .mixture import MixtureSpec, NoiseSource, ProbabilityMap, Support
from .operators import (
    SamplingConfig,
    anneal_tau,
    discrete_expected_error_loss,
    error_of_expectation_loss,
    inference_localize,
    js_regularizer,
    sample_differentiable,
    sampled_expected_error_loss,
    soft_argmax,
    variance_regularizer,
)

__version__ = "0.1.0"
