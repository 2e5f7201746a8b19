"""Reverse-mode automatic differentiation over dense float64 arrays.

Inside ``with GradientTape():`` each operation on a tensor that requires a
gradient is recorded as it executes; ``backward``, called inside that block,
walks the tape once in reverse and gives the leaves their gradients.  The
block owns its tape: reference counting frees it when the block ends.
Outside a tape nothing is recorded.  The op set is small and closed:
elementwise arithmetic, a few shape ops, matrix multiply (with an optional
addend and relu after it), relu, the distances |a - b| and (a - b)^2
(optionally summed over an axis), and softmax in two forms: the plain
softmax over the last axis, and the relaxed mixture sample
sum_i softmax((log w + g) / tau)_i y_i of constant gumbels g and values y
in one record.  Every matrix product is one rows product, in which a row
has the bits it has alone, wherever it sits in a batch.
Broadcasting is deliberately limited to the leading-batch case (one
operand's shape is a trailing suffix of the other's); anything else is a
shape error rather than a silent numpy broadcast.

Each op's builder names its inputs as positional parameters and its params
as keywords, so a wrong input count or a param it does not take is a
TypeError at the call.  It is told which of its inputs require a gradient,
and its backward computes nothing for the others, the constants.

All values are float64 and must stay finite: a NaN or Inf raises a
NonFiniteError naming where it was made, instead of letting the poison
spread.  Inside a ``GradientTape`` or ``no_grad`` block, and for an op or a
constructor called outside both, numpy's overflow, invalid and divide flags
raise, and an underflow, which is finite, is ignored.  The block sets those
flags once as it opens; an op or a constructor tests whether a block is
open and, inside one, runs under the flags as they are, entering
``np.errstate`` itself only outside every block.  A value made under
those flags, or scanned, is finite, and a finite computation makes an inf
or a NaN only by raising one of them, so ``forward_op`` and ``backward``
name the op whose output or backward raised and scan nothing.  The flags
vouch only for code run under the block's error state: an op run under an
``np.errstate`` that a caller sets inside a block may return an inf that
nothing names.  A FloatingPointError from numpy code outside an op, such
as a noise draw, leaves the block as a NonFiniteError.  Scans remain where
the flags cannot vouch for a value: a constant when it is built; the sum of two gradients
and each accumulation into a leaf's grad, which may run under an error
state a caller set inside the block; and a BLAS product of more than
_BLAS_SCAN_SIZE multiply-adds in one call, because threaded OpenBLAS
raises no flag for an overflow in a worker thread's share.  A scan sums
the array first and reads each entry only when that sum is not finite or
overflows, since a finite array can overflow its sum.  An overflow that a
later step of the same op masks, such as relu of a -inf product, raises
too; the relaxed softmax, whose scores over a tiny tau may overflow to
-inf and get weight 0, is the one op that ignores it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .rows import Rows

__all__ = [
    "Tensor",
    "GradientTape",
    "ShapeError",
    "NonFiniteError",
    "forward_op",
    "backward",
    "grad_check_rows",
    "GradCheckResult",
    "registered_ops",
    "as_tensor",
    "no_grad",
    "add",
    "subtract",
    "multiply",
    "logarithm",
    "sum_over_axis",
    "mean_over_axis",
    "matrix_multiply",
    "softmax_over_axis",
    "absolute_value",
    "square",
    "softmax_values",
    "floored_values",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible under suffix-only broadcasting."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in a tensor value or gradient."""


def _check_finite(values: np.ndarray, where: str, kind: str = "") -> None:
    """NonFiniteError naming where.format(kind) unless every entry is finite.

    For the values the floating-point flags cannot vouch for: constants,
    gradient sums, accumulations and the large BLAS products.  A sum is
    finite only when every entry is; when it is not, or when it overflows
    and the error state raises, an entry may still be finite throughout, so
    each entry is tested then.  Call it where numpy's overflow and invalid
    flags raise or are ignored, not where they warn.
    """
    try:
        if math.isfinite(np.add.reduce(values, axis=None)):
            return
    except FloatingPointError:
        pass
    if not np.isfinite(values).all():
        raise NonFiniteError("non-finite value in " + where.format(kind))


def _checked_sum(x: np.ndarray, y: np.ndarray, where: str, kind: str = "") -> np.ndarray:
    """x + y, or NonFiniteError naming where.format(kind) if it is not finite."""
    try:
        total = x + y
    except FloatingPointError as err:
        raise NonFiniteError("non-finite value in " + where.format(kind)) from err
    _check_finite(total, where, kind)
    return total


def _raise_as_non_finite(err: BaseException | None) -> None:
    """Raise a NonFiniteError for a FloatingPointError that numpy code
    outside an op raised inside a block, such as a noise draw or a
    regularizer's target; let anything else through."""
    if isinstance(err, FloatingPointError) and not isinstance(err, NonFiniteError):
        raise NonFiniteError(f"non-finite value outside an op: {err}") from err


# ---------------------------------------------------------------------------
# Tensors and tapes


class Tensor:
    """Dense float64 array with an optional accumulated gradient."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64)
        if _STATE.stack or not _STATE.enabled:
            _check_finite(arr, "tensor construction")
        else:
            with np.errstate(**_FLAGS):
                _check_finite(arr, "tensor construction")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


@dataclass(slots=True)
class TapeRecord:
    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]


@dataclass
class GradientTape:
    """Ordered record of executed ops; reverse order is a valid backward order.

    Inside the block numpy's overflow, invalid and divide flags raise on this
    thread, and a FloatingPointError leaves it as a NonFiniteError."""

    records: list[TapeRecord] = field(default_factory=list)

    def __enter__(self) -> "GradientTape":
        self._flags = np.errstate(**_FLAGS)
        self._flags.__enter__()
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._flags.__exit__(exc_type, exc, tb)
        popped = _STATE.stack.pop()
        assert popped is self
        _raise_as_non_finite(exc)
        return False

    def __len__(self) -> int:
        return len(self.records)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[GradientTape] = []
        self.enabled = True


_STATE = _ThreadState()

# numpy's error state inside every GradientTape and no_grad block, and for
# each op outside them.  A value made under these flags is finite, and under
# IEEE 754 a finite computation makes an inf or a NaN only by raising the
# overflow, invalid or divide flag, which numpy tests after each ufunc and
# matmul: the op that made the first non-finite value raises, and nothing
# scans its output.  An underflow is finite, so it never raises.
# A block enters this state once; an op or a constructor enters it only
# outside every block.
_FLAGS = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable recording inside the block; values flow, gradients do not.
    numpy's flags raise inside it, as in a GradientTape."""
    prev = _STATE.enabled
    _STATE.enabled = False
    try:
        with np.errstate(**_FLAGS):
            yield
    except FloatingPointError as err:
        _raise_as_non_finite(err)
        raise
    finally:
        _STATE.enabled = prev


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Op registry

# An op builder takes (*arrays, needs, **params) and returns (out_values,
# backward_fn) where backward_fn maps the output gradient to one gradient (or
# None) per input, already reduced to the input's shape.  Each input is a
# positional parameter, and needs, keyword-only, holds one flag per input,
# whether it requires a gradient; backward_fn computes nothing for an input
# whose flag is False and gives it None.  Each param is a keyword-only
# parameter with its default, and the builder takes no other.  _REGISTRY,
# below the builders, maps each op kind to its builder.
OpBuilder = Callable[..., tuple[np.ndarray, Callable]]


def registered_ops() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def forward_op(kind: str, inputs: Sequence, **params) -> Tensor:
    """Run one registered op; inside a GradientTape, record it when an input
    requires a gradient."""
    build = _REGISTRY.get(kind)
    if build is None:
        raise ValueError(f"unknown op kind: {kind!r}")
    tensors = tuple([x if isinstance(x, Tensor) else _constant(x, kind, inputs) for x in inputs])
    needs = tuple([t.requires_grad for t in tensors])
    values = [t.values for t in tensors]
    state = _STATE
    try:
        if state.stack or not state.enabled:
            out_values, backward_fn = build(*values, needs=needs, **params)
        else:
            with np.errstate(**_FLAGS):
                out_values, backward_fn = build(*values, needs=needs, **params)
    except FloatingPointError as err:
        raise NonFiniteError(f"non-finite value in output of {kind!r}") from err
    if out_values.__class__ is not np.ndarray or out_values.dtype != np.float64:
        out_values = np.asarray(out_values, dtype=np.float64)
    # Finite, as no flag raised, so bypass the constructor's copy and check.
    out = Tensor.__new__(Tensor)
    out.values, out.requires_grad, out.grad = out_values, False, None
    if state.enabled and state.stack and any(needs):
        out.requires_grad = True
        state.stack[-1].records.append(TapeRecord(kind, tensors, out, backward_fn))
    return out


def _constant(x, kind: str, inputs: Sequence) -> Tensor:
    """Tensor(x) for an input of op kind that is not a Tensor.  None, an
    omitted optional input passed explicitly, is a TypeError naming its
    position, not the NaN np.array(None, dtype=float) would make."""
    if x is None:
        position = next(i for i, y in enumerate(inputs) if y is None)
        raise TypeError(f"op {kind!r}: input {position} is None; leave an omitted input out of the list")
    return Tensor(x)


# ---------------------------------------------------------------------------
# Backward pass


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(t) into t.grad for every leaf t: each tensor
    that requires a gradient and that no record on root's tape produced.

    Root's tape is the innermost open one that recorded it, so call this
    inside the block that computed root.  Repeated calls add up, so the
    gradient of a sum of scalars equals the sum of per-scalar backward
    passes.  Call ``zero_grad`` between steps.
    """
    if root.size != 1:
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    tape = next(
        (t for t in reversed(_STATE.stack) if any(rec.output is root for rec in reversed(t.records))),
        None,
    )
    if tape is None:
        raise ValueError("root was not recorded on an open tape; call backward inside its `with GradientTape():`")

    # pending maps id(tensor) -> (tensor, accumulated output-side gradient).
    # Reverse tape order guarantees every use of a tensor is processed before
    # the record that produced it, so its entry is complete when consumed.
    seed = np.empty_like(root.values)
    seed.fill(1.0)
    pending: dict[int, tuple[Tensor, np.ndarray]] = {id(root): (root, seed)}
    for rec in reversed(tape.records):
        entry = pending.pop(id(rec.output), None)
        if entry is None:
            continue
        try:
            grads = rec.backward_fn(entry[1])
        except FloatingPointError as err:
            raise NonFiniteError(f"non-finite value in backward of {rec.kind!r}") from err
        for tensor, g_in in zip(rec.inputs, grads):
            # Recorded outputs always require grad, so a no-grad input is a
            # dead end: a constant.
            if g_in is None or not tensor.requires_grad:
                continue
            if g_in.shape != tensor.shape:
                raise ShapeError(
                    f"backward of {rec.kind!r} produced gradient shape {g_in.shape} "
                    f"for input shape {tensor.shape}"
                )
            prev = pending.get(id(tensor))
            if prev is not None:
                g_in = _checked_sum(prev[1], g_in, "gradient sum in backward of {!r}", rec.kind)
            pending[id(tensor)] = (tensor, g_in)
    # Every produced tensor was popped at its record; the rest are leaves.
    for tensor, g in pending.values():
        _accumulate(tensor, g)


def _accumulate(tensor: Tensor, g: np.ndarray) -> None:
    # g is finite already; only its sum with an earlier gradient can overflow.
    if tensor.grad is None:
        tensor.grad = g + 0.0
        return
    tensor.grad = _checked_sum(tensor.grad, g, "gradient accumulation")


# ---------------------------------------------------------------------------
# Shape rules


def _suffix_shape(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """Output shape for a binary elementwise op under suffix broadcasting."""
    if sa == sb:
        return sa
    if len(sa) > len(sb) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeError(f"shapes {sa} and {sb} do not suffix-broadcast")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    return g


def _axis(axis: int, ndim: int) -> int:
    """axis, one of ndim axes, counted from 0.  None is refused, so an op
    that takes None for every axis tests for it first."""
    if axis is None:
        raise ValueError("axis is required")
    axis = int(axis)
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------------
# Builders for the standard op set


def _build_add(a, b, *, needs):
    _suffix_shape(a.shape, b.shape)
    need_a, need_b = needs

    def bwd(g):
        return (_reduce_to(g, a.shape) if need_a else None), (_reduce_to(g, b.shape) if need_b else None)

    return a + b, bwd


def _build_subtract(a, b, *, needs):
    return _difference(a, b, needs)


def _build_multiply(a, b, *, needs):
    _suffix_shape(a.shape, b.shape)
    need_a, need_b = needs

    def bwd(g):
        return (_reduce_to(g * b, a.shape) if need_a else None), (_reduce_to(g * a, b.shape) if need_b else None)

    return a * b, bwd


def _build_divide(a, b, *, needs):
    _suffix_shape(a.shape, b.shape)
    if (b == 0.0).any():
        raise ZeroDivisionError("divide: zero in denominator")
    need_a, need_b = needs

    def bwd(g):
        return (
            _reduce_to(g / b, a.shape) if need_a else None,
            _reduce_to(-g * a / (b * b), b.shape) if need_b else None,
        )

    return a / b, bwd


def _build_negate(a, *, needs):
    return -a, lambda g: (-g,)


def _build_exponent(a, *, needs):
    out = np.exp(a)
    return out, lambda g: (g * out,)


def floored_values(a: np.ndarray, floor: float) -> np.ndarray:
    """max(a, floor) written as relu(a - floor) + floor: what the logarithm
    op given a floor takes the log of; shared by ops and oracles."""
    return np.maximum(a - floor, 0.0) + floor


def _build_logarithm(a, *, needs, floor=None):
    if floor is None:
        if np.any(a <= 0.0):
            raise ValueError("logarithm: input must be strictly positive")
        return np.log(a), lambda g: (g / a,)
    out, log_bwd = _floored_log(a, floor, "logarithm")
    return out, lambda g: (log_bwd(g),)


def _floored_log(a, floor, kind):
    """log(max(a, floor)), max taken as floored_values takes it, and the map
    from its gradient to a's."""
    if not floor > 0.0:
        raise ValueError(f"{kind}: floor must be positive, got {floor}")
    lifted = floored_values(a, floor)
    # The bits of log, add, relu and subtract taped one by one: a - floor > 0
    # exactly where a > floor.
    return np.log(lifted), lambda g: (g / lifted) * (a > floor)


def _build_power(a, *, needs, exponent):
    p = float(exponent)
    if p != round(p) and np.any(a < 0.0):
        raise ValueError("power: negative base with fractional exponent")
    out = a ** p

    def bwd(g):
        return (g * p * a ** (p - 1.0),)

    return out, bwd


def _kept_axis(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    """shape with axis kept at length 1: the shape a gradient summed over
    axis is reshaped to, to spread it back over that axis."""
    return shape[:axis] + (1,) + shape[axis + 1 :]


def _build_sum_over_axis(a, *, needs, axis=None):
    if axis is None:

        def bwd(g):
            ga = np.empty_like(a)
            ga.fill(g)
            return (ga,)

        return np.add.reduce(a, axis=None), bwd
    axis = _axis(axis, a.ndim)
    kept, count = _kept_axis(a.shape, axis), a.shape[axis]
    return np.add.reduce(a, axis=axis), lambda g: (g.reshape(kept).repeat(count, axis=axis),)


def _build_mean_over_axis(a, *, needs, axis=None):
    # Times 1/count, not divided by count: the bits of sum-over-axis and a
    # multiply by 1/count taped one by one.
    total, sum_bwd = _build_sum_over_axis(a, needs=needs, axis=axis)
    scale = 1.0 / (a.size if axis is None else a.shape[axis])
    return total * scale, lambda g: sum_bwd(g * scale)


# numpy raises only the flags set on its own thread.  Threaded OpenBLAS
# splits a large product among worker threads, and an overflow confined to
# a worker's share raises nothing: with two threads of OpenBLAS 0.3.31
# (Haswell kernel), one in the last column of a 16 x 1024 @ 1024 x 64
# product went unseen, though every product tested up to 96^3 multiply-adds
# raised.  A BLAS call of more multiply-adds than this is scanned.
_BLAS_SCAN_SIZE = 65_536


def _product(a, b):
    """a @ b for a and b of two axes or more, scanned when each BLAS call
    makes more than _BLAS_SCAN_SIZE multiply-adds."""
    out = a @ b
    if a.shape[-2] * a.shape[-1] * b.shape[-1] > _BLAS_SCAN_SIZE:
        _check_finite(out, "BLAS product")
    return out


def _rows_product(a, b, what="matrix-multiply"):
    """(..., k) @ (k, m) or (..., k, m) -> (..., m), each row with the bits it
    has alone.  A shared (k, m) matrix, one column or more, takes the rows in
    fixed blocks of four, padded with copies of the last row and the pad
    dropped, so every BLAS call has one shape; a stack takes each row with
    its own matrix."""
    if b.ndim == 2 and a.ndim and a.shape[-1] == b.shape[0]:
        lead, (k, m) = a.shape[:-1], b.shape
        count = math.prod(lead)
        pad = -count % 4
        if not pad:
            return _product(a.reshape(count // 4, 4, k), b).reshape(*lead, m)
        flat = a.reshape(count, k)
        flat = np.concatenate((flat, flat[[-1] * pad])).reshape((count + pad) // 4, 4, k)
        return _product(flat, b).reshape(count + pad, m)[:count].reshape(*lead, m)
    if a.ndim and b.ndim == a.ndim + 1 and a.shape == b.shape[:-1]:
        return _product(a[..., None, :], b)[..., 0, :]
    raise ShapeError(f"{what}: need (..., k) @ (k, m) or (..., k, m), got {a.shape} @ {b.shape}")


def _build_matrix_multiply(a, b, c=None, *, needs, relu=False):
    """The rows product a @ b (see _rows_product), then the addend c
    (a @ b + c, c suffix-broadcast onto the product) when given as a third
    input, then relu when asked."""
    out = _rows_product(a, b)
    if c is not None:
        if c.ndim > out.ndim or out.shape[out.ndim - c.ndim :] != c.shape:
            raise ShapeError(f"matrix-multiply: addend {c.shape} does not suffix-broadcast onto {out.shape}")
        out += c
    if relu:
        out = np.maximum(out, 0.0)
    need_a, need_b = needs[:2]

    def bwd(g):
        if relu:
            # out > 0 exactly where the product plus addend is.
            g = g * (out > 0.0)
        gc = () if c is None else (_reduce_to(g, c.shape) if needs[2] else None,)
        ga = _rows_product(g, b.swapaxes(-1, -2)) if need_a else None
        if need_b and b.ndim == 2:
            return (ga, _product(a.reshape(-1, b.shape[0]).T, g.reshape(-1, b.shape[1]))) + gc
        return (ga, _product(a[..., :, None], g[..., None, :]) if need_b else None) + gc

    return out, bwd


def _build_relu(a, *, needs):
    out = np.maximum(a, 0.0)
    return out, lambda g: (g * (a > 0.0),)


def softmax_values(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-array softmax with max subtraction; shared by ops and oracles.
    The reductions are the ufuncs a.max and e.sum call."""
    shifted = a - np.maximum.reduce(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _build_softmax_over_axis(a, gumbels=None, values=None, *, needs, tau=None, floor=None):
    """One of two forms.  [a]: the softmax of a over its last axis.  [w,
    gumbels, values] with params tau and floor: the relaxed mixture sample
    sum_i p_i values_i, p = softmax((log(max(w, floor)) + gumbels) / tau),
    the floored log taken as the logarithm op given a floor takes it.  The
    gumbels, a constant (*lead, *draws, n) for (*lead, n) weights, are added
    to the scores of every draw; the values, a constant (*lead, *draws, n,
    m) or one shared (n, m), give each draw's p times them as
    matrix-multiply does.  The relaxed backward repeats the
    arithmetic of that chain taped op by op: the rows product's, the
    softmax's, the divide by tau, the draws added one by one from 0.0 in C
    order, as index-select added the gradients of a per-draw gather, then
    the floored log's."""
    relaxed = values is not None and tau is not None and floor is not None
    if not relaxed and (gumbels is not None or tau is not None or floor is not None):
        raise ValueError(
            "softmax-over-axis takes [a], softmaxed over its last axis, or [w, gumbels, values] with tau and "
            f"floor, the relaxed mixture sample; got {len(needs)} inputs, tau {tau} and floor {floor}"
        )
    if a.ndim == 0:
        raise ShapeError("softmax-over-axis needs at least one axis")
    if not relaxed:
        out = softmax_values(a)
        return out, lambda g: (_softmax_grad(g, out),)
    if not 0.0 < tau < math.inf:
        raise ValueError(f"softmax-over-axis: tau must be positive and finite, got {tau}")
    tau = float(tau)
    if needs[1] or needs[2]:
        raise ValueError("softmax-over-axis: the gumbels and values are constants and cannot require a gradient")
    log_w, log_bwd = _floored_log(a, floor, "softmax-over-axis")
    lead = a.shape[:-1]
    if gumbels.ndim < a.ndim or gumbels.shape[: len(lead)] != lead or gumbels.shape[-1] != a.shape[-1]:
        raise ShapeError(
            f"softmax-over-axis: gumbels {gumbels.shape} do not match input {a.shape}: "
            "they need its lead axes, then any draw axes, then its support axis"
        )
    scores = log_w.reshape(lead + (1,) * (gumbels.ndim - a.ndim) + a.shape[-1:]) + gumbels
    # At a tiny tau a score over tau, or its distance below the largest, may
    # overflow to -inf, and the softmax gives it weight 0: no fault.  An inf
    # the softmax cannot absorb, every score -inf or one +inf, makes a NaN
    # there, which the invalid flag raises.
    with np.errstate(over="ignore"):
        p = softmax_values(scores / tau)

    def bwd(g):
        ga = _softmax_grad(_rows_product(g, values.swapaxes(-1, -2)), p) / tau
        return log_bwd(_sum_draws(ga, a.shape)), None, None

    return _rows_product(p, values, "softmax-over-axis values"), bwd


def _softmax_grad(g, out):
    """The gradient at the scores of out = softmax(scores) over the last
    axis, given the gradient g at out."""
    return out * (g - np.add.reduce(g * out, axis=-1, keepdims=True))


def _sum_draws(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(*lead, *draws, n) -> shape, (*lead, n): 0.0 plus each draw's slice,
    one by one in C order, the bits np.add.at gives a per-draw gather.

    While n > 1 the support axis is numpy's inner loop, so the draws are
    added in that order.  For n = 1 the draw axis is, and numpy sums it
    pairwise; but a one-point softmax's backward is +0.0 everywhere, and so
    is its sum in any order."""
    count = math.prod(g.shape[len(shape) - 1 : -1])
    return np.add.reduce(g.reshape(shape[:-1] + (count,) + shape[-1:]), axis=-2, initial=0.0)


def _difference(a, b, needs):
    """a, or a - b given b suffix-broadcast, and the map from the gradient at
    it to its inputs' gradients, as subtract gives them."""
    if b is None:
        return a, lambda g: (g,)
    _suffix_shape(a.shape, b.shape)
    need_a, need_b = needs

    def bwd(g):
        return (_reduce_to(g, a.shape) if need_a else None), (_reduce_to(-g, b.shape) if need_b else None)

    return a - b, bwd


def _build_absolute_value(a, b=None, *, needs, axis=None):
    """|a|, or |a - b| given b: the bits of subtract then absolute-value.
    Given axis, that summed over axis: the bits of sum-over-axis after
    them."""
    d, spread = _difference(a, b, needs)
    if axis is None:
        return np.abs(d), lambda g: spread(g * np.sign(d))
    axis = _axis(axis, d.ndim)
    kept = _kept_axis(d.shape, axis)
    return np.add.reduce(np.abs(d), axis=axis), lambda g: spread(g.reshape(kept) * np.sign(d))


def _build_square(a, b=None, *, needs, axis=None):
    """a * a, or (a - b)^2 given b: the bits of subtract then square.  Given
    axis, that summed over axis: the bits of sum-over-axis after them."""
    d, spread = _difference(a, b, needs)
    if axis is None:
        return d * d, lambda g: spread(g * 2.0 * d)
    axis = _axis(axis, d.ndim)
    kept = _kept_axis(d.shape, axis)
    return np.add.reduce(d * d, axis=axis), lambda g: spread(g.reshape(kept) * 2.0 * d)


def _build_concatenate(a, *rest, needs, axis=0):
    arrays = (a, *rest)
    axis = _axis(axis, a.ndim)
    try:
        out = np.concatenate(arrays, axis=axis)
    except ValueError as err:
        raise ShapeError(f"concatenate: {[x.shape for x in arrays]}") from err
    sizes = [x.shape[axis] for x in arrays]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return out, bwd


def _build_index_select(a, *, needs, index, axis=0):
    axis = _axis(axis, a.ndim)
    idx = np.asarray(index, dtype=np.intp)
    out = a.take(idx, axis=axis)

    def bwd(g):
        ga = np.zeros_like(a)
        np.add.at(ga, (slice(None),) * axis + (idx,), g)
        return (ga,)

    return out, bwd


def _build_broadcast(a, *, needs, shape):
    shape = tuple(int(s) for s in shape)
    if shape[len(shape) - a.ndim:] != a.shape:
        raise ShapeError(f"broadcast: {a.shape} is not a suffix of {shape}")
    out = np.broadcast_to(a, shape).copy()
    return out, lambda g: (_reduce_to(g, a.shape),)


_REGISTRY: dict[str, OpBuilder] = {
    "add": _build_add,
    "subtract": _build_subtract,
    "multiply": _build_multiply,
    "divide": _build_divide,
    "negate": _build_negate,
    "exponent": _build_exponent,
    "logarithm": _build_logarithm,
    "power": _build_power,
    "sum-over-axis": _build_sum_over_axis,
    "mean-over-axis": _build_mean_over_axis,
    "matrix-multiply": _build_matrix_multiply,
    "relu": _build_relu,
    "softmax-over-axis": _build_softmax_over_axis,
    "absolute-value": _build_absolute_value,
    "square": _build_square,
    "concatenate": _build_concatenate,
    "index-select": _build_index_select,
    "broadcast": _build_broadcast,
}


# ---------------------------------------------------------------------------
# Named wrappers


def add(a, b) -> Tensor:
    return forward_op("add", [a, b])


def subtract(a, b) -> Tensor:
    return forward_op("subtract", [a, b])


def multiply(a, b) -> Tensor:
    return forward_op("multiply", [a, b])


def logarithm(a, floor: float | None = None) -> Tensor:
    """log(a), or with a floor log(max(a, floor)), max taken as
    floored_values takes it, with gradient 0 where a <= floor."""
    return forward_op("logarithm", [a], floor=floor)


def sum_over_axis(a, axis: int | None = None) -> Tensor:
    return forward_op("sum-over-axis", [a], axis=axis)


def mean_over_axis(a, axis: int | None = None) -> Tensor:
    """The sum over axis times 1/count, with the bits of sum_over_axis and a
    multiply by 1/count."""
    return forward_op("mean-over-axis", [a], axis=axis)


def matrix_multiply(a, b, c=None, *, relu: bool = False) -> Tensor:
    """A (..., k) stack of rows times one shared (k, m) matrix, or each row
    times its own of a (..., k, m) stack: (..., m), each row's product with
    the bits it has alone.  Plus the addend c, suffix-broadcast onto the
    product, when given; then relu when asked."""
    return forward_op("matrix-multiply", [a, b] if c is None else [a, b, c], relu=relu)


def softmax_over_axis(a) -> Tensor:
    """softmax(a) over its last axis.  The op's other form, the relaxed
    mixture sample, is operators.sample_differentiable's one call."""
    return forward_op("softmax-over-axis", [a])


def absolute_value(a, b=None, axis: int | None = None) -> Tensor:
    """|a|, or given b, suffix-broadcast as subtract takes it, |a - b| in
    one record with the bits of subtract and absolute_value.  Given axis,
    that summed over axis, with the bits of sum_over_axis after them."""
    return forward_op("absolute-value", [a] if b is None else [a, b], axis=axis)


def square(a, b=None, axis: int | None = None) -> Tensor:
    """a * a, or given b, suffix-broadcast as subtract takes it, (a - b)^2
    in one record with the bits of subtract and square.  Given axis, that
    summed over axis, with the bits of sum_over_axis after them."""
    return forward_op("square", [a] if b is None else [a, b], axis=axis)


# ---------------------------------------------------------------------------
# Finite-difference checking


@dataclass
class GradCheckResult:
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool


def grad_check_rows(
    f: Callable[[Tensor], Tensor],
    xs,
    step: float = 1e-5,
    tol: float = 1e-4,
) -> Rows:
    """Compare the taped gradients of f at R independent points xs, shape
    (R, *shape), with central finite differences, elementwise, in two calls
    of f; one GradCheckResult per point, as Rows whose columns are the
    (R, *shape) arrays and the (R,) max_rel_error and passed.  Relative
    error is |a - n| / max(|a|, |n|, 1e-8).

    Given a (m, *shape) stack whose rows are points, f must return m values,
    each bitwise what f gives that row alone.  The taped call gets xs, and
    the gradients come from one backward pass of the sum of its R values.
    The finite differences come from one no_grad call on the point-major
    (R (2k + 1), *shape) stack of _difference_stack, k values per point.
    Each point's x0 row must equal its taped value bitwise, or a
    ValueError names the point: f is nondeterministic, or its rows are not
    independent.  A wrong number of values raises ValueError too.
    """
    _check_step_and_tol(step, tol)
    x0 = np.array(xs.values if isinstance(xs, Tensor) else xs, dtype=np.float64)
    if x0.ndim < 2 or x0.shape[0] < 1:
        raise ValueError(f"grad_check_rows needs points of shape (R, *shape) with R >= 1, got {x0.shape}")
    count = x0.shape[0]

    with GradientTape():
        xt = Tensor(x0, requires_grad=True)
        out = f(xt)
        _require_values(out, count, "points")
        backward(sum_over_axis(out))
        analytic = np.zeros_like(x0) if xt.grad is None else xt.grad.copy()

    stack = _difference_stack(x0, step)
    with no_grad():
        values = f(Tensor(stack))
    _require_values(values, stack.shape[0], "stack rows")
    return _compare(analytic, out.values.reshape(-1), values.values.reshape(count, -1), step, tol)


def _check_step_and_tol(step: float, tol: float) -> None:
    if not 0.0 < step < float("inf"):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")


def _require_values(out: Tensor, count: int, what: str) -> None:
    if out.size != count:
        raise ValueError(f"grad_check_rows: f gave {out.size} values for {count} {what}")


def _difference_stack(x0: np.ndarray, step: float) -> np.ndarray:
    """The (R (2k + 1), *shape) stack of R points x0 (R, *shape), k values
    each, point-major: per point the k inputs x0 + step (one coordinate
    moved each), the k inputs x0 - step, then x0 itself."""
    count, shape = x0.shape[0], x0.shape[1:]
    flat = x0.reshape(count, -1)
    k = flat.shape[1]
    coords = np.arange(k)
    stack = np.repeat(flat[:, None, :], 2 * k + 1, axis=1)
    stack[:, coords, coords] = flat + step
    stack[:, k + coords, coords] = flat - step
    return stack.reshape((count * (2 * k + 1),) + shape)


def _compare(
    analytic: np.ndarray, base: np.ndarray, values: np.ndarray, step: float, tol: float
) -> Rows:
    """One result per point from its taped gradient analytic[r], its taped
    value base[r] and the values[r] f gave its difference stack; every
    point's arrays are computed together, elementwise, and kept as the
    results' columns."""
    count = analytic.shape[0]
    changed = np.flatnonzero(values[:, -1] != base)
    if changed.size:
        raise ValueError(
            f"grad_check_rows: f(x0) of point {changed[0]} changed between evaluations; f is not deterministic, "
            "or its rows are not independent"
        )
    k = analytic[0].size
    numeric = ((values[:, :k] - values[:, k:-1]) / (2.0 * step)).reshape(analytic.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    max_rel = rel.reshape(count, -1).max(axis=1, initial=0.0)
    return Rows(GradCheckResult, (analytic, numeric, rel, max_rel, max_rel <= tol))
