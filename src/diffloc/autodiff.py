"""Reverse-mode automatic differentiation over dense float64 arrays.

Inside ``with GradientTape():`` each operation on a tensor that requires a
gradient is recorded as it executes; ``backward``, called inside that block,
walks the tape once in reverse and gives the leaves their gradients.  The
block owns its tape: reference counting frees it when the block ends.
Outside a tape nothing is recorded.  The op set is small and closed:
elementwise arithmetic, a few shape ops, matrix multiply, relu and softmax.
Broadcasting is deliberately limited to the leading-batch case (one
operand's shape is a trailing suffix of the other's); anything else is a
shape error rather than a silent numpy broadcast.

All values are float64 and must stay finite.  Each array is checked once,
where it is made: a constant when it is built, an op output in
``forward_op``, a gradient when a backward function returns it, and the sum
of two gradients.  NaN or Inf raises immediately instead of letting the
poison spread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradientTape",
    "ShapeError",
    "NonFiniteError",
    "forward_op",
    "backward",
    "grad_check",
    "GradCheckResult",
    "register_op",
    "registered_ops",
    "as_tensor",
    "no_grad",
    "add",
    "subtract",
    "multiply",
    "divide",
    "negate",
    "exponent",
    "logarithm",
    "power",
    "sum_over_axis",
    "mean_over_axis",
    "matrix_multiply",
    "relu",
    "softmax_over_axis",
    "absolute_value",
    "square",
    "concatenate",
    "index_select",
    "broadcast",
    "softmax_values",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible under suffix-only broadcasting."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared in a tensor value or gradient."""


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite value in {where}")


# ---------------------------------------------------------------------------
# Tensors and tapes


class Tensor:
    """Dense float64 array with an optional accumulated gradient."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64)
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


@dataclass
class TapeRecord:
    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]


@dataclass
class GradientTape:
    """Ordered record of executed ops; reverse order is a valid backward order."""

    records: list[TapeRecord] = field(default_factory=list)

    def __enter__(self) -> "GradientTape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _STATE.stack.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self.records)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[GradientTape] = []
        self.enabled = True


_STATE = _ThreadState()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable recording inside the block; values flow, gradients do not."""
    prev = _STATE.enabled
    _STATE.enabled = False
    try:
        yield
    finally:
        _STATE.enabled = prev


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Op registry

# An op builder takes (arrays, params) and returns (out_values, backward_fn)
# where backward_fn maps the output gradient to one gradient (or None) per
# input, already reduced to the input's shape.
OpBuilder = Callable[[list[np.ndarray], dict], tuple[np.ndarray, Callable]]

_REGISTRY: dict[str, OpBuilder] = {}


def register_op(kind: str, build: OpBuilder) -> None:
    if kind in _REGISTRY:
        raise ValueError(f"op kind already registered: {kind!r}")
    _REGISTRY[kind] = build


def registered_ops() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def forward_op(kind: str, inputs: Sequence, **params) -> Tensor:
    """Run one registered op; inside a GradientTape, record it when an input
    requires a gradient."""
    build = _REGISTRY.get(kind)
    if build is None:
        raise ValueError(f"unknown op kind: {kind!r}")
    tensors = tuple(as_tensor(x) for x in inputs)
    # Overflow surfaces as a NonFiniteError right below; silence the
    # intermediate numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out_values, backward_fn = build([t.values for t in tensors], params)
    out_values = np.asarray(out_values, dtype=np.float64)
    _check_finite(out_values, f"output of {kind!r}")
    # Checked just above, so bypass the constructor's copy and second check.
    out = Tensor.__new__(Tensor)
    out.values, out.requires_grad, out.grad = out_values, False, None
    if _STATE.enabled and _STATE.stack and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        _STATE.stack[-1].records.append(TapeRecord(kind, tensors, out, backward_fn))
    return out


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
    pending: dict[int, tuple[Tensor, np.ndarray]] = {
        id(root): (root, np.ones_like(root.values))
    }
    for rec in reversed(tape.records):
        entry = pending.pop(id(rec.output), None)
        if entry is None:
            continue
        g_out = entry[1]
        for tensor, g_in in zip(rec.inputs, rec.backward_fn(g_out)):
            # Recorded outputs always require grad, so a no-grad input is a
            # dead end: a constant.
            if g_in is None or not tensor.requires_grad:
                continue
            if g_in.shape != tensor.shape:
                raise ShapeError(
                    f"backward of {rec.kind!r} produced gradient shape {g_in.shape} "
                    f"for input shape {tensor.shape}"
                )
            _check_finite(g_in, f"backward of {rec.kind!r}")
            prev = pending.get(id(tensor))
            if prev is not None:
                g_in = prev[1] + g_in
                _check_finite(g_in, f"gradient sum in backward of {rec.kind!r}")
            pending[id(tensor)] = (tensor, g_in)
    # Every produced tensor was popped at its record; the rest are leaves.
    for tensor, g in pending.values():
        _accumulate(tensor, g)


def _accumulate(tensor: Tensor, g: np.ndarray) -> None:
    # g is finite already; only its sum with an earlier gradient can overflow.
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.values) + g
        return
    total = tensor.grad + g
    _check_finite(total, "gradient accumulation")
    tensor.grad = total


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
        g = g.sum(axis=tuple(range(extra)))
    return g


def _axis_param(params: dict, ndim: int, allow_none: bool = True) -> int | None:
    axis = params.get("axis", None)
    if axis is None:
        if allow_none:
            return None
        raise ValueError("axis is required")
    axis = int(axis)
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


# ---------------------------------------------------------------------------
# Builders for the standard op set


def _build_add(arrays, params):
    a, b = arrays
    _suffix_shape(a.shape, b.shape)
    out = a + b

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return out, bwd


def _build_subtract(arrays, params):
    a, b = arrays
    _suffix_shape(a.shape, b.shape)
    out = a - b

    def bwd(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return out, bwd


def _build_multiply(arrays, params):
    a, b = arrays
    _suffix_shape(a.shape, b.shape)
    out = a * b

    def bwd(g):
        return _reduce_to(g * b, a.shape), _reduce_to(g * a, b.shape)

    return out, bwd


def _build_divide(arrays, params):
    a, b = arrays
    _suffix_shape(a.shape, b.shape)
    if np.any(b == 0.0):
        raise ZeroDivisionError("divide: zero in denominator")
    out = a / b

    def bwd(g):
        return _reduce_to(g / b, a.shape), _reduce_to(-g * a / (b * b), b.shape)

    return out, bwd


def _build_negate(arrays, params):
    (a,) = arrays
    return -a, lambda g: (-g,)


def _build_exponent(arrays, params):
    (a,) = arrays
    out = np.exp(a)
    return out, lambda g: (g * out,)


def _build_logarithm(arrays, params):
    (a,) = arrays
    if np.any(a <= 0.0):
        raise ValueError("logarithm: input must be strictly positive")
    return np.log(a), lambda g: (g / a,)


def _build_power(arrays, params):
    (a,) = arrays
    p = float(params["exponent"])
    if p != round(p) and np.any(a < 0.0):
        raise ValueError("power: negative base with fractional exponent")
    out = a ** p

    def bwd(g):
        return (g * p * a ** (p - 1.0),)

    return out, bwd


def _build_sum_over_axis(arrays, params):
    (a,) = arrays
    axis = _axis_param(params, a.ndim)
    out = a.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.full_like(a, float(g)),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return np.asarray(out), bwd


def _build_mean_over_axis(arrays, params):
    (a,) = arrays
    axis = _axis_param(params, a.ndim)
    count = a.size if axis is None else a.shape[axis]
    out = a.mean(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.full_like(a, float(g) / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy() / count,)

    return np.asarray(out), bwd


def _build_matrix_multiply(arrays, params):
    a, b = arrays
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matrix-multiply does not accept scalars")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matrix-multiply: batch dims differ, {a.shape} @ {b.shape}")
    try:
        out = a @ b
    except ValueError as err:
        raise ShapeError(f"matrix-multiply: {a.shape} @ {b.shape}") from err

    def bwd(g):
        if a.ndim == 1 and b.ndim == 1:  # (k,) @ (k,) -> ()
            return g * b, g * a
        if a.ndim == 1:  # (k,) @ (k, m) -> (m,)
            return b @ g, np.outer(a, g)
        if b.ndim == 1:  # (..., k) @ (k,) -> (...,)
            ga = np.expand_dims(g, -1) * b
            gb = np.tensordot(g, a, axes=(tuple(range(g.ndim)), tuple(range(a.ndim - 1))))
            return ga, gb
        ga = g @ np.swapaxes(b, -1, -2)
        gb = np.swapaxes(a, -1, -2) @ g
        return _reduce_to(ga, a.shape), _reduce_to(gb, b.shape)

    return out, bwd


def _build_relu(arrays, params):
    (a,) = arrays
    out = np.maximum(a, 0.0)
    return out, lambda g: (g * (a > 0.0),)


def softmax_values(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain-array softmax with max subtraction; shared by ops and oracles."""
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _build_softmax_over_axis(arrays, params):
    (a,) = arrays
    axis = _axis_param(params, a.ndim, allow_none=False) if "axis" in params else a.ndim - 1
    if a.ndim == 0:
        raise ShapeError("softmax-over-axis needs at least one axis")
    out = softmax_values(a, axis=axis)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return out, bwd


def _build_absolute_value(arrays, params):
    (a,) = arrays
    return np.abs(a), lambda g: (g * np.sign(a),)


def _build_square(arrays, params):
    (a,) = arrays
    return a * a, lambda g: (g * 2.0 * a,)


def _build_concatenate(arrays, params):
    if not arrays:
        raise ValueError("concatenate needs at least one input")
    axis = _axis_param(params, arrays[0].ndim, allow_none=False) if "axis" in params else 0
    try:
        out = np.concatenate(arrays, axis=axis)
    except ValueError as err:
        raise ShapeError(f"concatenate: {[a.shape for a in arrays]}") from err
    sizes = [a.shape[axis] for a in arrays]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return out, bwd


def _build_index_select(arrays, params):
    (a,) = arrays
    axis = _axis_param(params, a.ndim, allow_none=False) if "axis" in params else 0
    index = params["index"]
    scalar = np.isscalar(index) or (isinstance(index, np.ndarray) and index.ndim == 0)
    idx = int(index) if scalar else np.asarray(index, dtype=np.intp)
    out = np.take(a, idx, axis=axis)

    def bwd(g):
        ga = np.zeros_like(a)
        np.add.at(ga, (slice(None),) * axis + (idx,), g)
        return (ga,)

    return out, bwd


def _build_broadcast(arrays, params):
    (a,) = arrays
    shape = tuple(int(s) for s in params["shape"])
    if shape[len(shape) - a.ndim:] != a.shape:
        raise ShapeError(f"broadcast: {a.shape} is not a suffix of {shape}")
    out = np.broadcast_to(a, shape).copy()
    return out, lambda g: (_reduce_to(g, a.shape),)


for _kind, _build in [
    ("add", _build_add),
    ("subtract", _build_subtract),
    ("multiply", _build_multiply),
    ("divide", _build_divide),
    ("negate", _build_negate),
    ("exponent", _build_exponent),
    ("logarithm", _build_logarithm),
    ("power", _build_power),
    ("sum-over-axis", _build_sum_over_axis),
    ("mean-over-axis", _build_mean_over_axis),
    ("matrix-multiply", _build_matrix_multiply),
    ("relu", _build_relu),
    ("softmax-over-axis", _build_softmax_over_axis),
    ("absolute-value", _build_absolute_value),
    ("square", _build_square),
    ("concatenate", _build_concatenate),
    ("index-select", _build_index_select),
    ("broadcast", _build_broadcast),
]:
    register_op(_kind, _build)


# ---------------------------------------------------------------------------
# Named wrappers


def add(a, b) -> Tensor:
    return forward_op("add", [a, b])


def subtract(a, b) -> Tensor:
    return forward_op("subtract", [a, b])


def multiply(a, b) -> Tensor:
    return forward_op("multiply", [a, b])


def divide(a, b) -> Tensor:
    return forward_op("divide", [a, b])


def negate(a) -> Tensor:
    return forward_op("negate", [a])


def exponent(a) -> Tensor:
    return forward_op("exponent", [a])


def logarithm(a) -> Tensor:
    return forward_op("logarithm", [a])


def power(a, exponent_value: float) -> Tensor:
    return forward_op("power", [a], exponent=exponent_value)


def sum_over_axis(a, axis: int | None = None) -> Tensor:
    return forward_op("sum-over-axis", [a], axis=axis)


def mean_over_axis(a, axis: int | None = None) -> Tensor:
    return forward_op("mean-over-axis", [a], axis=axis)


def matrix_multiply(a, b) -> Tensor:
    return forward_op("matrix-multiply", [a, b])


def relu(a) -> Tensor:
    return forward_op("relu", [a])


def softmax_over_axis(a, axis: int = -1) -> Tensor:
    return forward_op("softmax-over-axis", [a], axis=axis)


def absolute_value(a) -> Tensor:
    return forward_op("absolute-value", [a])


def square(a) -> Tensor:
    return forward_op("square", [a])


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    return forward_op("concatenate", list(tensors), axis=axis)


def index_select(a, index, axis: int = 0) -> Tensor:
    return forward_op("index-select", [a], index=index, axis=axis)


def broadcast(a, shape: Sequence[int]) -> Tensor:
    return forward_op("broadcast", [a], shape=tuple(shape))


# ---------------------------------------------------------------------------
# Finite-difference checking


@dataclass
class GradCheckResult:
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    passed: bool


def grad_check(
    f: Callable[[Tensor], Tensor],
    x,
    step: float = 1e-5,
    tol: float = 1e-4,
    *,
    batched: bool = False,
) -> GradCheckResult:
    """Compare the taped gradient of a scalar-valued f against central
    finite differences, elementwise.

    Relative error is |a - n| / max(|a|, |n|, 1e-8).  The 2k perturbed
    inputs x0 ± step (k = x.size) and x0 itself form one stack of shape
    (2k + 1, *x.shape).  By default each row of the stack is one more call of
    f.  ``batched=True`` states that f, given the stack, returns 2k + 1
    values, each bitwise what f gives that row alone; the whole stack is then
    one call.  Either way the x0 row must equal the taped f(x0) bitwise: a
    nondeterministic f, or a batched f whose rows are not independent, raises
    instead of producing a bogus comparison.
    """
    x0 = np.array(x.values if isinstance(x, Tensor) else x, dtype=np.float64)

    with GradientTape():
        xt = Tensor(x0, requires_grad=True)
        out = f(xt)
        if out.size != 1:
            raise ValueError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        backward(out)
        analytic = np.zeros_like(x0) if xt.grad is None else xt.grad.copy()
    base = out.item()

    flat = x0.reshape(-1)
    k = flat.size
    coords = np.arange(k)
    stack = np.tile(flat, (2 * k + 1, 1))
    stack[coords, coords] = flat + step
    stack[k + coords, coords] = flat - step
    stack = stack.reshape((2 * k + 1,) + x0.shape)
    with no_grad():
        if batched:
            values = f(Tensor(stack)).values.reshape(-1)
            if values.size != stack.shape[0]:
                raise ValueError(f"grad_check: batched f gave {values.size} values for a stack of {stack.shape[0]}")
        else:
            values = np.array([f(Tensor(row)).item() for row in stack])
    if values[-1] != base:
        raise ValueError(
            "grad_check: f(x0) changed between evaluations; f is not deterministic, "
            "or a batched f's rows are not independent"
        )

    numeric = ((values[:k] - values[k:-1]) / (2.0 * step)).reshape(x0.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckResult(analytic, numeric, rel, max_rel, bool(max_rel <= tol))
