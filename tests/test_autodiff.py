"""Tensor, tape, and gradient tests for the autodiff core."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from diffloc import autodiff as ad
from diffloc.autodiff import (
    GradientTape,
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    forward_op,
    grad_check,
    registered_ops,
)

STANDARD_OPS = (
    "add",
    "subtract",
    "multiply",
    "divide",
    "negate",
    "exponent",
    "logarithm",
    "power",
    "sum-over-axis",
    "mean-over-axis",
    "matrix-multiply",
    "relu",
    "softmax-over-axis",
    "absolute-value",
    "square",
    "concatenate",
    "index-select",
    "broadcast",
)


def test_standard_op_set_registered():
    assert set(STANDARD_OPS) <= set(registered_ops())


def test_registry_matches_benchmark_op_metrics():
    # The benchmark declares one autodiff.op.<kind>.calls metric per op kind
    # and its traced run fails when the registry drifts from that list.
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    prefix, suffix = "autodiff.op.", ".calls"
    declared = [
        m["name"][len(prefix) : -len(suffix)]
        for m in bench["per_layer"]
        if m["name"].startswith(prefix) and m["name"].endswith(suffix)
    ]
    assert sorted(registered_ops()) == sorted(declared)


# ---------------------------------------------------------------------------
# Finite-difference property suite, one sampler per op kind.
#
# Each sampler returns (inputs, params, check_slots); values stay in [-2, 2]
# modulo per-op domain constraints, and kinked ops keep inputs away from the
# kink where the finite difference itself is invalid.


def _away_from_zero(rng, shape, floor=0.25):
    vals = rng.uniform(floor, 2.0, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return vals * signs


def _binary_shapes(rng):
    pick = rng.integers(3)
    if pick == 0:
        shape = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
        return shape, shape
    if pick == 1:
        return (3, 2), (2,)  # leading-batch broadcast
    return (2, 3, 2), (3, 2)


def _sample(kind, rng):
    if kind in ("add", "subtract", "multiply"):
        sa, sb = _binary_shapes(rng)
        return [rng.uniform(-2, 2, sa), rng.uniform(-2, 2, sb)], {}, (0, 1)
    if kind == "divide":
        sa, sb = _binary_shapes(rng)
        return [rng.uniform(-2, 2, sa), _away_from_zero(rng, sb)], {}, (0, 1)
    if kind in ("negate", "exponent", "square"):
        return [rng.uniform(-2, 2, (2, 3))], {}, (0,)
    if kind == "logarithm":
        return [rng.uniform(0.05, 2.0, (4,))], {}, (0,)
    if kind == "power":
        p = rng.choice([2.0, 3.0, -1.0, 0.5, 1.7])
        base = rng.uniform(0.1, 2.0, (3,)) if p != round(p) else _away_from_zero(rng, (3,))
        return [base], {"exponent": float(p)}, (0,)
    if kind in ("sum-over-axis", "mean-over-axis"):
        axis = rng.choice([None, 0, 1])
        return [rng.uniform(-2, 2, (2, 3))], {"axis": None if axis is None else int(axis)}, (0,)
    if kind == "matrix-multiply":
        k = int(rng.integers(2, 4))
        case = rng.integers(5)
        if case == 0:
            return [rng.uniform(-2, 2, k), rng.uniform(-2, 2, k)], {}, (0, 1)
        if case == 1:
            return [rng.uniform(-2, 2, k), rng.uniform(-2, 2, (k, 2))], {}, (0, 1)
        if case == 2:
            return [rng.uniform(-2, 2, (2, k)), rng.uniform(-2, 2, k)], {}, (0, 1)
        if case == 3:
            return [rng.uniform(-2, 2, (2, k)), rng.uniform(-2, 2, (k, 3))], {}, (0, 1)
        return [rng.uniform(-2, 2, (2, 2, k)), rng.uniform(-2, 2, (k, 3))], {}, (0, 1)
    if kind in ("relu", "absolute-value"):
        return [_away_from_zero(rng, (5,), floor=0.1)], {}, (0,)
    if kind == "softmax-over-axis":
        return [rng.uniform(-2, 2, (2, 4))], {"axis": int(rng.choice([0, 1, -1]))}, (0,)
    if kind == "concatenate":
        parts = [rng.uniform(-2, 2, (int(rng.integers(1, 3)), 2)) for _ in range(3)]
        return parts, {"axis": 0}, (0, 1, 2)
    if kind == "index-select":
        idx = [0, 2, 2, 1] if rng.random() < 0.5 else int(rng.integers(3))
        return [rng.uniform(-2, 2, (3, 2))], {"index": idx, "axis": 0}, (0,)
    if kind == "broadcast":
        return [rng.uniform(-2, 2, (3,))], {"shape": (2, 3)}, (0,)
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", STANDARD_OPS)
def test_gradients_match_finite_differences(kind):
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng([101, STANDARD_OPS.index(kind), seed])
        inputs, params, slots = _sample(kind, rng)
        out_probe = forward_op(kind, [Tensor(v) for v in inputs], **params)
        weights = rng.uniform(-1.0, 1.0, out_probe.shape)
        for slot in slots:

            def f(x, slot=slot):
                args = [Tensor(v) for v in inputs]
                args[slot] = x
                out = forward_op(kind, args, **params)
                return ad.sum_over_axis(ad.multiply(out, Tensor(weights)))

            result = grad_check(f, inputs[slot], step=1e-5, tol=1e-4)
            assert result.passed, f"{kind} slot {slot} seed {seed}: {result.max_rel_error}"
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Tape behavior


def test_backward_accumulates_across_calls():
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        z1 = ad.sum_over_axis(ad.square(x))
        z2 = ad.sum_over_axis(ad.multiply(x, Tensor([3.0, 3.0])))
        backward(z1)
        backward(z2)
        two_pass = x.grad.copy()
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = ad.add(ad.sum_over_axis(ad.square(x)), ad.sum_over_axis(ad.multiply(x, Tensor([3.0, 3.0]))))
        backward(z)
        one_pass = x.grad.copy()
    np.testing.assert_array_equal(two_pass, one_pass)


def test_interior_tensors_receive_gradients():
    # Only leaves do: h is produced on the tape, so it gets no .grad.
    with GradientTape():
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        h = ad.square(x)
        z = ad.sum_over_axis(h)
        backward(z)
    assert h.grad is None
    np.testing.assert_allclose(x.grad, 2.0 * x.values)


def test_shared_input_gradient_sums_over_uses():
    with GradientTape():
        x = Tensor(2.0, requires_grad=True)
        z = ad.add(ad.multiply(x, Tensor(3.0)), ad.square(x))
        backward(z)
    np.testing.assert_allclose(x.grad, 3.0 + 2.0 * 2.0)


def test_tapes_are_independent():
    with GradientTape() as outer:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y_outer = ad.square(x)
        with GradientTape() as inner:
            y_inner = ad.sum_over_axis(ad.multiply(y_outer, Tensor([1.0, 1.0])))
            backward(y_inner)
        # Inner tape does not contain the square, so x is reached as a leaf
        # of y_outer only through the inner records: grad stops there.
        assert y_outer.grad is not None
        assert x.grad is None
        assert len(inner) == 2
        assert len(outer) == 1


def test_ops_outside_a_tape_are_not_recorded():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.softmax_over_axis(x)
    assert not out.requires_grad
    with pytest.raises(ValueError, match="tape"):
        backward(ad.sum_over_axis(out))


def test_finished_tape_is_freed_without_the_cycle_collector():
    def step():
        with GradientTape() as tape:
            x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
            h = ad.square(x)
            backward(ad.sum_over_axis(h))
        assert not hasattr(h, "tape")
        # Tensor has no __weakref__ slot, so watch the interior value array.
        return x, weakref.ref(tape), weakref.ref(h.values)

    enabled = gc.isenabled()
    gc.disable()
    try:
        x, tape_ref, interior_ref = step()
        assert tape_ref() is None
        assert interior_ref() is None
    finally:
        if enabled:
            gc.enable()
    np.testing.assert_array_equal(x.grad, 2.0 * x.values)


def test_backward_after_the_block_closed_raises():
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = ad.sum_over_axis(ad.square(x))
    with pytest.raises(ValueError, match="GradientTape"):
        backward(z)
    assert x.grad is None


def test_backward_on_an_outer_root_inside_an_inner_block():
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = ad.sum_over_axis(ad.square(x))
        with GradientTape() as inner:
            ad.square(x)
            backward(z)
        assert len(inner) == 1
    np.testing.assert_array_equal(x.grad, 2.0 * x.values)


def test_no_grad_blocks_recording_and_matches_values():
    x = np.linspace(-1.5, 1.5, 7)
    with GradientTape() as tape:
        xt = Tensor(x, requires_grad=True)
        recorded = ad.softmax_over_axis(ad.multiply(xt, Tensor(2.0)))
        n_records = len(tape)
        with ad.no_grad():
            quiet = ad.softmax_over_axis(ad.multiply(xt, Tensor(2.0)))
        assert len(tape) == n_records
    assert not quiet.requires_grad
    np.testing.assert_array_equal(recorded.values, quiet.values)


def test_backward_requires_scalar_root_on_tape():
    with GradientTape():
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.square(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)
    leaf = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError, match="tape"):
        backward(leaf)


# ---------------------------------------------------------------------------
# Domain and shape errors


def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        # prefix broadcast is not allowed, only trailing-suffix
        ad.add(Tensor(np.ones((3, 1))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        ad.matrix_multiply(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.broadcast(Tensor(np.ones(3)), (3, 2))


def test_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        ad.logarithm(Tensor([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        ad.divide(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(ValueError, match="fractional"):
        ad.power(Tensor([-1.0]), 0.5)
    with pytest.raises(ValueError, match="unknown op"):
        forward_op("no-such-op", [Tensor(1.0)])


def test_non_finite_values_are_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with pytest.raises(NonFiniteError):
        ad.exponent(Tensor([1000.0]))
    # Values and each gradient are finite, the sums of gradients are not.
    with GradientTape(), np.errstate(over="ignore"):
        x = Tensor([1e-10], requires_grad=True)
        z = ad.sum_over_axis(ad.add(ad.multiply(x, Tensor(1e308)), ad.multiply(x, Tensor(1e308))))
        with pytest.raises(NonFiniteError, match="gradient sum"):
            backward(z)
        y = ad.sum_over_axis(ad.multiply(x, Tensor(1e308)))
        x.zero_grad()
        backward(y)
        with pytest.raises(NonFiniteError, match="accumulation"):
            backward(y)


def test_softmax_is_stable_for_large_inputs():
    out = ad.softmax_over_axis(Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.values, [0.5, 0.5])


# ---------------------------------------------------------------------------
# Specific op semantics


def test_index_select_scalar_drops_axis_and_accumulates_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    row = ad.index_select(x, 1, axis=0)
    assert row.shape == (2,)
    np.testing.assert_array_equal(row.values, [2.0, 3.0])

    with GradientTape():
        x = Tensor(np.arange(3.0), requires_grad=True)
        picked = ad.index_select(x, [0, 0, 2], axis=0)
        backward(ad.sum_over_axis(picked))
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


def test_concatenate_backward_splits():
    with GradientTape():
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = ad.concatenate([a, b], axis=0)
        backward(ad.sum_over_axis(ad.multiply(out, Tensor([1.0, 2.0, 3.0]))))
    np.testing.assert_array_equal(a.grad, [1.0, 2.0])
    np.testing.assert_array_equal(b.grad, [3.0])


def test_batched_matmul_reduces_shared_operand():
    batch = np.random.default_rng(0).uniform(-1, 1, (4, 2, 3))
    mat = np.random.default_rng(1).uniform(-1, 1, (3, 2))
    with GradientTape():
        m = Tensor(mat, requires_grad=True)
        out = ad.matrix_multiply(Tensor(batch), m)
        backward(ad.sum_over_axis(out))
    expected = np.einsum("bij,bik->jk", batch, np.ones((4, 2, 2)))
    np.testing.assert_allclose(m.grad, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# grad_check contract


def test_grad_check_rejects_nondeterministic_functions():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return ad.sum_over_axis(ad.multiply(x, Tensor(float(state["n"]))))

    with pytest.raises(ValueError, match="deterministic"):
        grad_check(f, np.array([1.0, 2.0]))


def test_grad_check_rejects_non_scalar_outputs():
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda x: ad.square(x), np.array([1.0, 2.0]))


def test_grad_check_flags_wrong_gradients():
    def f(x):
        # x^2 / 2 built from raw values is hidden from the tape: the value
        # is 1.5 x^2, the taped gradient only 2x.
        hidden = Tensor(0.5 * x.values**2)
        return ad.add(ad.sum_over_axis(ad.square(x)), ad.sum_over_axis(hidden))

    result = grad_check(f, np.array([0.7, -1.2]))
    assert not result.passed
    assert result.max_rel_error > 0.1


def test_grad_check_reports_relative_errors():
    result = grad_check(lambda x: ad.sum_over_axis(ad.square(x)), np.array([0.5, -0.25]))
    assert result.passed
    assert result.rel_errors.shape == (2,)
    np.testing.assert_allclose(result.analytic, [1.0, -0.5], atol=1e-12)
    np.testing.assert_allclose(result.numeric, [1.0, -0.5], atol=1e-8)


def _squares(x):
    # One value per row of a stack, and a scalar for a lone x.
    return ad.sum_over_axis(ad.square(x), axis=-1)


@pytest.mark.parametrize("size", [1, 3, 12])
def test_batched_grad_check_calls_f_twice(size):
    calls = []

    def f(x):
        calls.append(x.shape)
        return _squares(x)

    x0 = np.linspace(-1.3, 0.9, size)
    batched = grad_check(f, x0, batched=True)
    assert calls == [(size,), (2 * size + 1, size)]
    looped = grad_check(f, x0)
    assert len(calls) == 2 + 2 * size + 2
    assert batched.passed
    for field in ("analytic", "numeric", "rel_errors"):
        assert getattr(batched, field).tobytes() == getattr(looped, field).tobytes()


def test_batched_grad_check_rejects_mixed_rows():
    def f(x):
        # Each row's value also depends on the whole stack.
        return ad.add(_squares(x), ad.multiply(ad.sum_over_axis(x), Tensor(1e-3)))

    with pytest.raises(ValueError, match="rows are not independent"):
        grad_check(f, np.array([1.0, 2.0]), batched=True)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: ad.sum_over_axis(ad.square(x)),
        lambda x: ad.index_select(_squares(x), np.arange(x.shape[0] - 1)) if x.ndim == 2 else _squares(x),
    ],
    ids=["sums-the-stack", "drops-a-row"],
)
def test_batched_grad_check_rejects_wrong_value_count(f):
    with pytest.raises(ValueError, match="batched f gave .* values for a stack of 5"):
        grad_check(f, np.array([1.0, 2.0]), batched=True)


def test_batched_grad_check_rejects_nondeterministic_functions():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return ad.multiply(_squares(x), Tensor(float(state["n"])))

    with pytest.raises(ValueError, match="deterministic"):
        grad_check(f, np.array([1.0, 2.0]), batched=True)
