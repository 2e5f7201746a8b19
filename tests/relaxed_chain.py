"""The relaxed mixture sample taped op by op: the reference chain that
softmax-over-axis's relaxed form, one record, is held to bit for bit."""

import numpy as np

from diffloc import autodiff as ad
from diffloc.autodiff import Tensor, forward_op
from diffloc.mixture import WEIGHT_FLOOR


def gumbel_softmax_chain(w, gumbels, tau):
    """softmax((log max(w, WEIGHT_FLOOR) + g) / tau) of (*lead, n) weights and
    (*lead, *draws, n) gumbels, one record each: the floored log, a per-draw
    index-select gather of it, the add of the gumbels, the divide by tau and
    the plain softmax."""
    per_draw = np.broadcast_to(np.arange(w.shape[-1]), gumbels.shape[w.ndim - 1 :])
    log_w = forward_op("index-select", [ad.logarithm(w, floor=WEIGHT_FLOOR)], index=per_draw, axis=-1)
    return ad.softmax_over_axis(forward_op("divide", [ad.add(log_w, Tensor(gumbels)), Tensor(tau)]))


def relaxed_sample_chain(w, gumbels, values, tau):
    """sum_i p_i values_i of the chain's relaxed weights p and constant
    values, (*lead, *draws, n, m) or one shared (n, m): a rows product."""
    return ad.matrix_multiply(gumbel_softmax_chain(w, gumbels, tau), Tensor(values))
