"""Tensor, tape, and gradient tests for the autodiff core."""

import gc
import inspect
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from contextlib import nullcontext
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
    grad_check_rows,
    registered_ops,
)
from diffloc.mixture import WEIGHT_FLOOR, ProbabilityMap, Support
from diffloc.operators import sampled_expected_error_loss
from looped_gradcheck import grad_check
from relaxed_chain import relaxed_sample_chain

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
    if kind in ("absolute-value", "square") and rng.random() < 0.5:
        inputs, params, slots = _sample_distance(rng)
        if rng.random() < 0.5:
            # Summed over an axis of the broadcast difference.
            ndim = max(np.ndim(a) for a in inputs)
            params = {"axis": int(rng.integers(-ndim, ndim))}
        return inputs, params, slots
    if kind in ("negate", "exponent", "square"):
        return [rng.uniform(-2, 2, (2, 3))], {}, (0,)
    if kind == "logarithm":
        a = rng.uniform(0.05, 2.0, (4,))
        if rng.random() < 0.5:
            return [a], {}, (0,)
        # Inputs on both sides of the floor, at least 0.05 from its kink.
        floor = float(rng.uniform(0.1, 1.0))
        return [floor + _away_from_zero(rng, (4,), floor=0.05)], {"floor": floor}, (0,)
    if kind == "power":
        p = rng.choice([2.0, 3.0, -1.0, 0.5, 1.7])
        base = rng.uniform(0.1, 2.0, (3,)) if p != round(p) else _away_from_zero(rng, (3,))
        return [base], {"exponent": float(p)}, (0,)
    if kind in ("sum-over-axis", "mean-over-axis"):
        axis = rng.choice([None, 0, 1])
        return [rng.uniform(-2, 2, (2, 3))], {"axis": None if axis is None else int(axis)}, (0,)
    if kind == "matrix-multiply":
        k = int(rng.integers(2, 4))
        case = rng.integers(9)
        if case >= 5:
            return _sample_fused_product(rng, k, case)
        if case < 3:
            # Rows times one shared matrix: a lone row, a stack, a stack of stacks.
            lead = ((), (2,), (2, 3))[case]
            return [rng.uniform(-2, 2, lead + (k,)), rng.uniform(-2, 2, (k, 2))], {}, (0, 1)
        if case == 3:
            return [rng.uniform(-2, 2, (2, k)), rng.uniform(-2, 2, (k, 3))], {}, (0, 1)
        return [rng.uniform(-2, 2, (2, 2, k)), rng.uniform(-2, 2, (k, 3))], {}, (0, 1)
    if kind in ("relu", "absolute-value"):
        return [_away_from_zero(rng, (5,), floor=0.1)], {}, (0,)
    if kind == "softmax-over-axis":
        if rng.random() < 0.5:
            return [rng.uniform(-2, 2, (2, 4))], {}, (0,)
        # The relaxed mixture sample: floored log scores, every weight at
        # least 0.05 from the kink; constant gumbels over no, one or two draw
        # axes, kept small so that no softmax saturates below the finite
        # differences' noise; constant values, each draw's own or one shared
        # (n, m).
        params = {"tau": float(rng.uniform(0.2, 2.0)), "floor": float(rng.uniform(0.1, 1.0))}
        a = params["floor"] + _away_from_zero(rng, (2, 4), floor=0.05)
        draws = ((), (1,), (3,), (2, 2))[rng.integers(4)]
        gumbels = rng.uniform(-0.5, 0.5, (2,) + draws + (4,))
        values = rng.uniform(-2, 2, gumbels.shape + (3,) if rng.random() < 0.5 else (4, 3))
        return [a, gumbels, values], params, (0,)
    if kind == "concatenate":
        parts = [rng.uniform(-2, 2, (int(rng.integers(1, 3)), 2)) for _ in range(3)]
        return parts, {"axis": 0}, (0, 1, 2)
    if kind == "index-select":
        idx = [0, 2, 2, 1] if rng.random() < 0.5 else int(rng.integers(3))
        return [rng.uniform(-2, 2, (3, 2))], {"index": idx, "axis": 0}, (0,)
    if kind == "broadcast":
        return [rng.uniform(-2, 2, (3,))], {"shape": (2, 3)}, (0,)
    raise AssertionError(kind)


def _sample_distance(rng):
    """absolute-value or square of a - b, either one the suffix-broadcast
    operand; a and b differ by at least 0.1 everywhere, away from |.|'s
    kink."""
    sa, sb = _binary_shapes(rng)
    if rng.random() < 0.5:
        sa, sb = sb, sa
    base = rng.uniform(-2, 2, min(sa, sb, key=len))
    other = base + _away_from_zero(rng, max(sa, sb, key=len), floor=0.1)
    a, b = (other, base) if len(sa) >= len(sb) else (base, other)
    return [a, b], {}, (0, 1)


def _sample_fused_product(rng, k, case):
    """matrix-multiply with an addend or a relu epilogue, or of rows each
    times its own matrix.  A relu's addend puts every entry of the sum at
    least 0.25 from its kink."""
    if case in (5, 6):
        a, b = rng.uniform(-2, 2, (2, 2, k)), rng.uniform(-2, 2, (k, 3))
    else:
        a, b = rng.uniform(-2, 2, (2, 3, k)), rng.uniform(-2, 2, (2, 3, k, 2))
    if case == 7:
        return [a, b], {}, (0, 1)
    if case == 5:
        return [a, b, rng.uniform(-2, 2, 3)], {}, (0, 1, 2)
    product = ad._rows_product(a, b)
    c = _away_from_zero(rng, product.shape) - product
    return [a, b, c], {"relu": True}, (0, 1, 2)


# Each op kind's seed index, written out so that adding or removing an op kind
# never re-seeds the cases of the others.
_GRAD_SEED_INDEX = {
    "add": 0,
    "subtract": 1,
    "multiply": 2,
    "divide": 3,
    "negate": 4,
    "exponent": 5,
    "logarithm": 6,
    "power": 7,
    "sum-over-axis": 8,
    "mean-over-axis": 9,
    "matrix-multiply": 10,
    "relu": 11,
    "softmax-over-axis": 12,
    "absolute-value": 13,
    "square": 14,
    "concatenate": 15,
    "index-select": 16,
    "broadcast": 17,
}


@pytest.mark.parametrize("kind", STANDARD_OPS)
def test_gradients_match_finite_differences(kind):
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng([101, _GRAD_SEED_INDEX[kind], seed])
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


def _raising(state: dict) -> bool:
    return state == {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


def test_blocks_raise_numpy_flags_and_restore_the_error_state():
    with np.errstate(over="ignore", invalid="warn", divide="ignore", under="raise"):
        outer = np.geterr()
        for block in (GradientTape, ad.no_grad):
            with block():
                assert _raising(np.geterr())
                # An underflow is finite: exp(-1000) is 0.
                assert forward_op("exponent", [Tensor([-1000.0])]).values[0] == 0.0
            assert np.geterr() == outer
        with GradientTape():
            with ad.no_grad():
                with GradientTape():
                    assert _raising(np.geterr())
                assert _raising(np.geterr())
            assert _raising(np.geterr())
        assert np.geterr() == outer
        with ad.no_grad():
            with GradientTape():
                assert _raising(np.geterr())
            assert _raising(np.geterr())
        assert np.geterr() == outer
        # An op outside every block raises the flags for itself alone, so
        # its overflow is found although the caller ignores overflows.
        with pytest.raises(NonFiniteError, match="'exponent'"):
            forward_op("exponent", [Tensor([1000.0])])
        assert np.geterr() == outer


def test_a_non_finite_error_leaves_the_error_state_as_it_found_it():
    before = np.geterr()
    with pytest.raises(NonFiniteError, match="'square'"):
        with GradientTape():
            with ad.no_grad():
                ad.square(Tensor([1e200]))
    assert np.geterr() == before
    with pytest.raises(NonFiniteError, match="gradient sum"):
        with GradientTape():
            x = Tensor([1e-10], requires_grad=True)
            huge = Tensor(1e308)
            backward(ad.sum_over_axis(ad.add(ad.multiply(x, huge), ad.multiply(x, huge))))
    assert np.geterr() == before


def test_a_tape_on_one_thread_does_not_set_the_flags_of_another():
    # Each thread has its own block stack and numpy error state: an op on a
    # second thread outside any block raises its own flags, and a tape there
    # sets and restores only that thread's state.
    entered, release = threading.Event(), threading.Event()
    seen, errors = {}, []

    def other():
        try:
            assert entered.wait(10)
            seen["outside"] = np.geterr()
            with pytest.raises(NonFiniteError, match="'exponent'"):
                forward_op("exponent", [Tensor([1000.0])])
            with GradientTape() as tape:
                seen["inside"] = np.geterr()
                x = Tensor([1.0, 2.0], requires_grad=True)
                backward(ad.sum_over_axis(ad.square(x)))
            seen["records"] = len(tape)
            seen["grad"] = x.grad
            seen["after"] = np.geterr()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            release.set()

    before = np.geterr()
    worker = threading.Thread(target=other)
    worker.start()
    with GradientTape() as tape:
        entered.set()
        assert release.wait(10)
        assert _raising(np.geterr())
        assert len(tape) == 0
    worker.join(10)
    assert not worker.is_alive()
    assert not errors, errors
    assert np.geterr() == before
    assert not _raising(seen["outside"])
    assert _raising(seen["inside"])
    assert seen["after"] == seen["outside"]
    assert seen["records"] == 2
    np.testing.assert_array_equal(seen["grad"], [2.0, 4.0])


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
        forward_op("broadcast", [Tensor(np.ones(3))], shape=(3, 2))


def test_a_vector_times_a_stack_is_rejected_at_the_call():
    # A (k,) row takes one shared (k, m) matrix; a stack of matrices needs a
    # row for each, and b needs 2 or more axes.
    for need in (True, False):
        for sa, sb in (((4,), (5, 4, 3)), ((4,), (1, 4, 3)), ((2, 4), (4,)), ((2, 4), (3, 4, 3))):
            with pytest.raises(ShapeError, match=rf"need .*, got {re.escape(str(sa))} @ {re.escape(str(sb))}"):
                ad.matrix_multiply(Tensor(np.ones(sa), requires_grad=need), Tensor(np.ones(sb)))


def test_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        ad.logarithm(Tensor([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        forward_op("divide", [Tensor([1.0]), Tensor([0.0])])
    with pytest.raises(ValueError, match="fractional"):
        forward_op("power", [Tensor([-1.0])], exponent=0.5)
    with pytest.raises(ValueError, match="unknown op"):
        forward_op("no-such-op", [Tensor(1.0)])
    # An axis of None would flatten: these ops need an axis.
    with pytest.raises(ValueError, match="axis is required"):
        forward_op("concatenate", [Tensor([1.0]), Tensor([2.0])], axis=None)
    with pytest.raises(ValueError, match="axis is required"):
        forward_op("index-select", [Tensor(np.ones((2, 3)))], index=0, axis=None)


@pytest.mark.parametrize("kind", registered_ops())
def test_a_param_the_op_does_not_take_fails_at_the_call(kind):
    # Valid inputs and params, and one unknown param: a TypeError naming it.
    inputs, params, _ = _sample(kind, np.random.default_rng([103, _GRAD_SEED_INDEX[kind]]))
    with pytest.raises(TypeError, match="'unknown_param'"):
        forward_op(kind, [Tensor(v) for v in inputs], unknown_param=1, **params)


@pytest.mark.parametrize(
    "kind, inputs, params",
    [
        ("sum-over-axis", [np.ones((2, 3))], {"axes": 1}),
        ("add", [np.ones(3), np.ones(3)], {"axis": 0}),
        ("matrix-multiply", [np.ones((2, 3)), np.ones((3, 4))], {"rows": True}),
        ("logarithm", [np.array([1e-15, 1.0])], {"flor": 1e-12}),
    ],
)
def test_a_misspelt_or_stale_param_is_not_ignored(kind, inputs, params):
    # Each of these once ran as if the param were not given: a sum over
    # every axis, a plain add, a plain product, a log without its floor.
    with pytest.raises(TypeError, match=f"'{next(iter(params))}'"):
        forward_op(kind, [Tensor(v) for v in inputs], **params)


def test_each_builder_names_its_params():
    # (arrays, needs, then keywords): a builder that took *args or **kwargs
    # could ignore a param again.
    variadic = {inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD}
    for kind, build in ad._REGISTRY.items():
        parameters = list(inspect.signature(build).parameters.values())
        assert [p.name for p in parameters[:2]] == ["arrays", "needs"], kind
        assert not {p.kind for p in parameters} & variadic, kind


def test_non_finite_values_are_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with pytest.raises(NonFiniteError):
        forward_op("exponent", [Tensor([1000.0])])
    with pytest.raises(NonFiniteError, match="'square'"):
        ad.square(Tensor([1e200]))
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


# A finite array whose sum overflows: the finite check's one-pass sum is
# inf here, so each entry must be read before the array is accepted.
OVERFLOWING_SUM = [1e308, 1e308]


@pytest.mark.parametrize(
    "values, finite",
    [
        (OVERFLOWING_SUM, True),
        ([1e308, 1e308, -1e308], True),
        ([-1e308, -1e308], True),
        ([], True),
        (np.nan, False),
        ([1.0, np.nan], False),
        ([np.inf, -np.inf], False),
        ([1e308, 1e308, np.nan], False),
        ([-np.inf], False),
    ],
)
def test_constants_are_checked_entry_by_entry_when_their_sum_is_not_finite(values, finite):
    # Outside every block the constructor silences numpy's warnings itself,
    # and inside one the block has.
    for block in (ad.no_grad, GradientTape, nullcontext):
        with block():
            if finite:
                np.testing.assert_array_equal(Tensor(values).values, values)
            else:
                with pytest.raises(NonFiniteError, match="tensor construction"):
                    Tensor(values)


def test_an_overflowing_sum_passes_every_check_site():
    big = Tensor(OVERFLOWING_SUM)
    half = Tensor([5e307, 5e307])
    # An op output, outside any block and on a tape.
    np.testing.assert_array_equal(ad.multiply(big, Tensor(1.0)).values, OVERFLOWING_SUM)
    with GradientTape():
        x = Tensor([1.0, 1.0], requires_grad=True)
        np.testing.assert_array_equal(ad.multiply(x, big).values, OVERFLOWING_SUM)
        # A gradient that a backward function returns.
        w = Tensor([1e-300, 1e-300], requires_grad=True)
        backward(ad.sum_over_axis(ad.multiply(w, big)))
        np.testing.assert_array_equal(w.grad, OVERFLOWING_SUM)
        # A gradient sum: two uses of v, each gradient half of the total.
        v = Tensor([1e-300, 1e-300], requires_grad=True)
        backward(ad.sum_over_axis(ad.add(ad.multiply(v, half), ad.multiply(v, half))))
        np.testing.assert_array_equal(v.grad, OVERFLOWING_SUM)
        # An accumulation: two backward passes, each adding half.
        u = Tensor([1e-300, 1e-300], requires_grad=True)
        root = ad.sum_over_axis(ad.multiply(u, half))
        backward(root)
        backward(root)
        np.testing.assert_array_equal(u.grad, OVERFLOWING_SUM)


def test_a_nan_or_mixed_infinities_fail_every_check_site():
    opposite = Tensor([1e200, -1e200])
    # Op outputs: inf and -inf, whose sum is NaN, and a NaN.
    with pytest.raises(NonFiniteError, match="output of 'multiply'"):
        ad.multiply(opposite, Tensor(1e200))
    with pytest.raises(NonFiniteError, match="output of 'matrix-multiply'"):
        ad.matrix_multiply(Tensor([1e200, 1e200]), Tensor([[1e200], [-1e200]]))
    with pytest.raises(NonFiniteError, match="'square'"):
        ad.square(Tensor([1e200, -1e200]))
    with GradientTape():
        # Gradients: the backward of x * opposite gets 1e200 per entry and
        # returns inf and -inf; the backward of a @ rows sums those two
        # products into a NaN.
        x = Tensor([1e-300, 1e-300], requires_grad=True)
        root = ad.sum_over_axis(ad.multiply(ad.multiply(x, opposite), Tensor(1e200)))
        with pytest.raises(NonFiniteError, match="backward of 'multiply'"):
            backward(root)
        a = Tensor([1e-300], requires_grad=True)
        rows = Tensor([[1e200, -1e200]])
        root = ad.sum_over_axis(ad.multiply(ad.matrix_multiply(a, rows), Tensor(1e200)))
        with pytest.raises(NonFiniteError, match="backward of 'matrix-multiply'"):
            backward(root)
        # Each gradient is finite, their sums are inf and -inf.
        huge = Tensor([1e308, -1e308])
        v = Tensor([1e-10, 1e-10], requires_grad=True)
        root = ad.sum_over_axis(ad.add(ad.multiply(v, huge), ad.multiply(v, huge)))
        with pytest.raises(NonFiniteError, match="gradient sum"):
            backward(root)
        root = ad.sum_over_axis(ad.multiply(v, huge))
        v.zero_grad()
        backward(root)
        with pytest.raises(NonFiniteError, match="accumulation"):
            backward(root)


# ---------------------------------------------------------------------------
# The floating-point flags name the op that made the first non-finite value

# Finite inputs whose output overflows, per op kind, as (kind, inputs,
# params).  No output of the other kinds can be non-finite: they copy,
# negate or mask finite values, or take the log of one.
_FORWARD_OVERFLOWS = [
    ("add", [[1e308], [1e308]], {}),
    ("subtract", [[1e308], [-1e308]], {}),
    ("multiply", [[1e200], [1e200]], {}),
    ("divide", [[1e200], [1e-200]], {}),
    ("exponent", [[1000.0]], {}),
    ("power", [[1e200]], {"exponent": 2.0}),
    ("sum-over-axis", [OVERFLOWING_SUM], {}),
    ("mean-over-axis", [OVERFLOWING_SUM], {"axis": -1}),
    ("matrix-multiply", [[1e200, 1e200], [[1e200], [1e200]]], {}),
    # A gumbel of 1e308 over tau = 0.5 is +inf.
    ("softmax-over-axis", [[0.5, 0.5], [1e308, 0.0], [[0.0], [1.0]]], {"tau": 0.5, "floor": WEIGHT_FLOOR}),
    ("absolute-value", [[1e308], [-1e308]], {}),
    ("square", [[1e200]], {}),
]
_NO_FORWARD_OVERFLOW = {"negate", "logarithm", "relu", "concatenate", "index-select", "broadcast"}


def _spread(out):
    """A finite root whose gradient at out, equal pairs along its last axis,
    is 5e307 and -5e307 per pair: the softmax of each pair is [0.5, 0.5],
    times [1e308, -1e308]."""
    return ad.sum_over_axis(ad.multiply(ad.softmax_over_axis(out), Tensor([1e308, -1e308])))


# A finite root of x whose backward overflows first in the op named, per op
# kind, as (kind, x, root).  No backward of the other kinds can: they copy,
# split, negate or mask the gradient, or scale it down.
_BACKWARD_OVERFLOWS = [
    # Four rows of the gradient summed onto x's one.
    ("add", [0.0, 0.0], lambda x: _spread(ad.add(x, Tensor(np.zeros((4, 2)))))),
    ("subtract", [0.0, 0.0], lambda x: _spread(ad.subtract(x, Tensor(np.zeros((4, 2)))))),
    ("broadcast", [0.0, 0.0], lambda x: _spread(forward_op("broadcast", [x], shape=(4, 2)))),
    ("index-select", np.zeros((2, 2)), lambda x: _spread(forward_op("index-select", [x], index=[0, 0, 0, 0]))),
    ("absolute-value", [0.0, 0.0], lambda x: _spread(ad.absolute_value(x, Tensor(np.ones((4, 2)))))),
    # The gradient times or over a factor.
    ("multiply", [1.0, 1.0], lambda x: _spread(ad.multiply(x, Tensor(4.0)))),
    ("divide", [1.0, 1.0], lambda x: _spread(forward_op("divide", [x, Tensor(0.25)]))),
    ("exponent", [2.0, 2.0], lambda x: _spread(forward_op("exponent", [x]))),
    ("logarithm", [0.1, 0.1], lambda x: _spread(ad.logarithm(x))),
    ("power", [2.0, 2.0], lambda x: _spread(forward_op("power", [x], exponent=3.0))),
    ("square", [2.0, 2.0], lambda x: _spread(ad.square(x))),
    ("matrix-multiply", [0.0, 0.0, 0.0], lambda x: _spread(ad.matrix_multiply(x, Tensor([[4.0, -4.0]] * 3)))),
    # softmax([log 9, 0]) is [0.9, 0.1]: the gradient at its scores is
    # [1.5e308, -1.5e308] less their mean under it, 1.2e308.
    ("softmax-over-axis", [np.log(9.0), 0.0],
     lambda x: ad.sum_over_axis(ad.multiply(ad.softmax_over_axis(x), Tensor([1.5e308, -1.5e308])))),
    # The relaxed form divides the gradient at its scores by tau.
    ("softmax-over-axis", [0.5, 0.5],
     lambda x: ad.multiply(forward_op("softmax-over-axis", [x, [0.0, 0.0], [[1.0], [-1.0]]], tau=1e-300,
                                      floor=WEIGHT_FLOOR), Tensor(1e10))),
]
_NO_BACKWARD_OVERFLOW = {"negate", "sum-over-axis", "mean-over-axis", "relu", "concatenate"}


_EXTREMES = np.array([[np.finfo(np.float64).max, -np.finfo(np.float64).max], [5e-324, -0.0]])
# The kinds that cannot overflow, each with inputs built from _EXTREMES.
_EXTREME_CALLS = {
    "negate": ([_EXTREMES], {}),
    "logarithm": ([_EXTREMES], {"floor": WEIGHT_FLOOR}),
    "relu": ([_EXTREMES], {}),
    "concatenate": ([_EXTREMES, _EXTREMES], {}),
    "index-select": ([_EXTREMES], {"index": [1, 0, 0]}),
    "broadcast": ([_EXTREMES], {"shape": (3, 2, 2)}),
    "sum-over-axis": ([_EXTREMES], {"axis": 0}),
    "mean-over-axis": ([_EXTREMES], {"axis": 0}),
}


def test_each_op_kind_has_an_overflow_case_or_none_can_overflow():
    for cases, cannot in ((_FORWARD_OVERFLOWS, _NO_FORWARD_OVERFLOW), (_BACKWARD_OVERFLOWS, _NO_BACKWARD_OVERFLOW)):
        kinds = {case[0] for case in cases}
        assert not kinds & cannot
        assert kinds | cannot == set(registered_ops())
    assert set(_EXTREME_CALLS) == _NO_FORWARD_OVERFLOW | _NO_BACKWARD_OVERFLOW


@pytest.mark.parametrize(
    "kind, inputs, params", _FORWARD_OVERFLOWS, ids=[case[0] for case in _FORWARD_OVERFLOWS]
)
def test_an_overflowing_output_names_its_op(kind, inputs, params):
    for block in (nullcontext, ad.no_grad, GradientTape):
        with block():
            with pytest.raises(NonFiniteError, match=rf"^non-finite value in output of '{kind}'$"):
                forward_op(kind, inputs, **params)


@pytest.mark.parametrize("kind, x0, root", _BACKWARD_OVERFLOWS, ids=[case[0] for case in _BACKWARD_OVERFLOWS])
def test_an_overflowing_backward_names_its_op(kind, x0, root):
    with GradientTape():
        x = Tensor(x0, requires_grad=True)
        out = root(x)
        assert np.isfinite(out.values).all()
        with pytest.raises(NonFiniteError, match=rf"^non-finite value in backward of '{kind}'$"):
            backward(out)


@pytest.mark.parametrize("kind", sorted(_EXTREME_CALLS))
def test_an_op_that_cannot_overflow_takes_the_extremes(kind):
    # Its output, or the gradient its backward returns for a gradient of
    # extremes, is finite, and no flag is raised on the way.
    inputs, params = _EXTREME_CALLS[kind]
    with np.errstate(**ad._FLAGS):
        out, bwd = ad._REGISTRY[kind](inputs, (True,) * len(inputs), **params)
        grads = bwd(np.resize(_EXTREMES, np.shape(out))) if kind in _NO_BACKWARD_OVERFLOW else ()
    assert kind not in _NO_FORWARD_OVERFLOW or np.isfinite(out).all()
    assert all(np.isfinite(g).all() for g in grads)


def test_relaxed_samples_of_weights_at_the_floor_keep_the_chains_bits():
    # Weights at and below the floor: the floored log's mask and a gradient
    # divided by the floor raise no flag.
    w0 = np.array([[WEIGHT_FLOOR, WEIGHT_FLOOR, 1.0 - 2.0 * WEIGHT_FLOOR], [0.0, 1.0, 0.0]])
    gumbels = np.random.default_rng(29).gumbel(size=(2, 5, 3))
    values = np.random.default_rng(31).normal(size=(3, 2))
    results = []
    for relaxed in (
        lambda w: forward_op("softmax-over-axis", [w, gumbels, values], tau=0.1, floor=WEIGHT_FLOOR),
        lambda w: relaxed_sample_chain(w, gumbels, values, 0.1),
    ):
        with GradientTape():
            w = Tensor(w0, requires_grad=True)
            out = relaxed(w)
            backward(ad.sum_over_axis(ad.multiply(out, Tensor(np.random.default_rng(37).normal(size=out.shape)))))
        assert np.isfinite(out.values).all() and np.isfinite(w.grad).all()
        results.append((out.values, w.grad))
    assert _bitwise_equal(results[0][0], results[1][0]) and _bitwise_equal(results[0][1], results[1][1])


@pytest.mark.parametrize("tau", [0.3, 1e-300])
def test_a_one_point_softmax_raises_no_flag(tau):
    with GradientTape():
        a = Tensor([[3.0], [-700.0]], requires_grad=True)
        w = Tensor([[1.0], [WEIGHT_FLOOR]], requires_grad=True)
        plain = ad.softmax_over_axis(a)
        relaxed = forward_op("softmax-over-axis", [w, np.full((2, 4, 1), 30.0), [[2.5]]], tau=tau,
                             floor=WEIGHT_FLOOR)
        backward(ad.add(ad.sum_over_axis(plain), ad.sum_over_axis(relaxed)))
    np.testing.assert_array_equal(plain.values, [[1.0], [1.0]])
    np.testing.assert_array_equal(relaxed.values, np.full((2, 4, 1), 2.5))
    assert _bitwise_equal(a.grad, np.zeros((2, 1))) and _bitwise_equal(w.grad, np.zeros((2, 1)))


def test_a_relaxed_loss_at_a_tiny_tau_is_the_hard_samples_loss():
    # At tau = 1e-307, (log w + g) / tau overflows to -inf for the component
    # of weight 1e-9 unless its gumbel lifts it, and the softmax gives that
    # -inf weight 0: each draw takes the sample of the larger score whole.
    gumbels = np.array([[0.3, -0.2], [25.0, 0.1], [-0.4, 2.0]])
    samples = np.array([[[0.1], [0.9]], [[-0.2], [1.3]], [[0.05], [1.1]]])
    with GradientTape():
        w = Tensor([1e-9, 1.0 - 1e-9], requires_grad=True)
        pmap = ProbabilityMap(Support.regular_grid(2), w)
        loss = sampled_expected_error_loss(pmap, [0.5], gumbels, samples, 1e-307)
        backward(loss)
    hard = np.array([0.9, -0.2, 1.1])
    assert loss.item() == np.add.reduce(np.abs(hard - 0.5)) * (1.0 / 3.0) == 0.5666666666666667
    assert _bitwise_equal(w.grad, np.zeros(2))


def test_a_large_product_is_scanned_where_threaded_blas_leaves_no_flag():
    # With two OpenBLAS threads a product of more than _BLAS_SCAN_SIZE
    # multiply-adds is split among them, and an overflow in a worker's
    # share sets no flag on the calling thread.  Each product below
    # overflows in its last column or row only.
    code = """
import numpy as np
from diffloc import autodiff as ad
from diffloc.autodiff import GradientTape, NonFiniteError, Tensor

for m in (64, 256):
    b = np.full((1024, m), 1e-3)
    b[:, -1] = 1e306
    try:
        ad.matrix_multiply(Tensor(np.ones((16, 1024))), Tensor(b))
        raise SystemExit(f"no error in the output of 16 x 1024 @ 1024 x {m}")
    except NonFiniteError as err:
        assert str(err) == "non-finite value in output of 'matrix-multiply'", err

# The weight gradient a^T g, 1024 x 16 @ 16 x 64, overflows in its last row.
a = np.ones((16, 1024))
a[:, -1] = 1e300
with GradientTape():
    w = Tensor(np.full((1024, 64), 1e-12), requires_grad=True)
    root = ad.sum_over_axis(ad.multiply(ad.matrix_multiply(Tensor(a), w), Tensor(np.full((16, 64), 1e10))))
    try:
        ad.backward(root)
        raise SystemExit("no error in the weight gradient")
    except NonFiniteError as err:
        assert str(err) == "non-finite value in backward of 'matrix-multiply'", err
"""
    src = str(Path(ad.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


_BINARY_CASES = [
    (kind, sa, sb, {})
    for kind in ("add", "subtract", "multiply", "divide")
    for sa, sb in (((3, 4), (3, 4)), ((2, 3, 4), (4,)), ((4,), (2, 3, 4)), ((), (3,)))
] + [
    # Rows times one shared matrix: a lone row of m = 3 and of m = 1, a
    # padded stack, two blocks and a pad, a stack of stacks; then rows each
    # times its own matrix.
    ("matrix-multiply", sa, sb, {})
    for sa, sb in (
        ((4,), (4, 3)), ((4,), (4, 1)), ((2, 4), (4, 3)), ((9, 4), (4, 3)), ((5, 2, 4), (4, 3)),
        ((2, 4), (2, 4, 3)), ((2, 3, 4), (2, 3, 4, 2)),
    )
] + [
    (kind, sa, sb, {})
    for kind in ("absolute-value", "square")
    for sa, sb in (((3, 4), (3, 4)), ((2, 3, 4), (4,)), ((4,), (2, 3, 4)), ((), (3,)))
]


def _bitwise_equal(x, y) -> bool:
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize(
    "kind, sa, sb, params", _BINARY_CASES, ids=[f"{kind}-sa{i}-sb{i}" for i, (kind, *_) in enumerate(_BINARY_CASES)]
)
def test_a_builder_computes_only_the_gradients_its_inputs_need(kind, sa, sb, params):
    # With one input constant, the other's gradient keeps every bit of the
    # all-inputs path and the constant gets None: nothing is computed for it.
    rng = np.random.default_rng(len(sa) * 10 + len(sb))
    a = rng.normal(size=sa)
    b = rng.uniform(0.5, 2.0, size=sb) * rng.choice([-1.0, 1.0], size=sb)
    build = ad._REGISTRY[kind]
    out, bwd = build([a, b], (True, True), **params)
    g = np.where(rng.random(np.shape(out)) < 0.2, -0.0, rng.normal(size=np.shape(out)))
    both = bwd(g)
    assert all(grad is not None for grad in both)
    for needs in ((True, False), (False, True)):
        values, partial = build([a, b], needs, **params)
        assert _bitwise_equal(values, out)
        for need, grad, full in zip(needs, partial(g), both):
            if need:
                assert _bitwise_equal(grad, full)
            else:
                assert grad is None

    # On a tape: each leaf's gradient is the all-inputs one, bit for bit, and
    # the constant gets none.
    weights = rng.normal(size=np.shape(out))
    grads = {}
    for needs in ((True, True), (True, False), (False, True)):
        with GradientTape() as tape:
            x, y = Tensor(a, requires_grad=needs[0]), Tensor(b, requires_grad=needs[1])
            backward(ad.sum_over_axis(ad.multiply(forward_op(kind, [x, y], **params), Tensor(weights))))
        assert [rec.kind for rec in tape.records] == [kind, "multiply", "sum-over-axis"]
        grads[needs] = (x.grad, y.grad)
    assert _bitwise_equal(grads[(True, False)][0], grads[(True, True)][0]) and grads[(True, False)][1] is None
    assert grads[(False, True)][0] is None and _bitwise_equal(grads[(False, True)][1], grads[(True, True)][1])


def test_a_non_finite_gradient_passed_through_an_add_is_named_where_it_was_made():
    # The inner multiply's backward makes inf; the add below it would pass
    # that array on unchanged, so the error must name the multiply.
    with GradientTape():
        x = Tensor([1e-300, 2e-300], requires_grad=True)
        shifted = ad.add(x, Tensor([0.0, 0.0]))
        root = ad.sum_over_axis(ad.multiply(ad.multiply(shifted, Tensor(1e200)), Tensor(1e200)))
        with pytest.raises(NonFiniteError, match=r"^non-finite value in backward of 'multiply'$"):
            backward(root)


def test_an_overflowing_sum_of_two_passed_through_gradients_is_checked():
    # Each add hands x its output's gradient, 1e308 per entry, unchecked a
    # second time; their sum at x overflows and must still be caught.
    with GradientTape():
        x = Tensor([1e-10, 2e-10], requires_grad=True)
        zero = Tensor([0.0, 0.0])
        terms = [ad.multiply(ad.add(x, zero), Tensor(1e308)) for _ in range(2)]
        root = ad.sum_over_axis(ad.add(*terms))
        with pytest.raises(NonFiniteError, match=r"^non-finite value in gradient sum in backward of 'add'$"):
            backward(root)


def _softmax_by_methods(a, axis):
    """softmax_values as it was written with a.max and e.sum."""
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("shape", [(16, 1, 32), (16, 1, 5, 1, 32), (1024, 16)])
def test_softmax_values_keeps_the_bits_of_the_method_form(shape):
    # The row-layout logits of training, the relaxed draws of a samp step,
    # and distcheck's block of relaxed draws.
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(0.0, 3.0, shape)
    for axis in range(-1, -len(shape) - 1, -1):
        assert _bitwise_equal(ad.softmax_values(a, axis=axis), _softmax_by_methods(a, axis))


def test_sum_over_axis_backward_repeats_the_gradient():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4, 5))
    for axis in range(3):
        out, bwd = ad._REGISTRY["sum-over-axis"]([a], (True,), axis=axis)
        g = np.where(rng.random(out.shape) < 0.3, -0.0, rng.normal(size=out.shape))
        (ga,) = bwd(g)
        assert _bitwise_equal(out, a.sum(axis=axis))
        assert ga.flags.c_contiguous and _bitwise_equal(ga, np.broadcast_to(np.expand_dims(g, axis), a.shape))


def test_softmax_is_stable_for_large_inputs():
    out = ad.softmax_over_axis(Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.values, [0.5, 0.5])


# ---------------------------------------------------------------------------
# Specific op semantics


def test_index_select_scalar_drops_axis_and_accumulates_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    row = forward_op("index-select", [x], index=1, axis=0)
    assert row.shape == (2,)
    np.testing.assert_array_equal(row.values, [2.0, 3.0])

    with GradientTape():
        x = Tensor(np.arange(3.0), requires_grad=True)
        picked = forward_op("index-select", [x], index=[0, 0, 2], axis=0)
        backward(ad.sum_over_axis(picked))
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "shape, index, axis",
    [
        ((4, 3), 2, 0),
        ((4, 3), np.int64(-1), 0),
        ((4, 3), np.array(1), 1),
        ((4, 3), [2, 0, 3], 0),
        ((4, 3), [[1], [3]], 0),
        ((4, 3), [-1, 0], 0),
        ((4, 3), [1, -3], 1),
        ((4, 3), [-1, 3], 0),
        ((4, 3), [0, 0, 2], 1),
        ((4, 3), [0, 1, 2, 0], 1),
        ((4, 3), [], 0),
        ((2, 1, 5), 0, -2),
        ((2, 5), np.broadcast_to(np.arange(5), (3, 5)), -1),
        ((2, 1, 5), np.broadcast_to(np.arange(5), (3, 1, 5)), -1),
        ((4, 3), np.broadcast_to(np.array([2, 0, 3]), (12, 3)), 0),
        ((4, 3), np.broadcast_to(np.array([[1], [-1]]), (2, 11)), 0),
        ((3, 4), np.broadcast_to(np.arange(4)[:, None], (4, 9)), 1),
        ((3, 4), np.broadcast_to(np.arange(4), (2, 3, 4)), 1),
        ((3, 4), np.broadcast_to(np.array([-1, 0]), (2, 3, 2)), 1),
        ((4, 3), np.broadcast_to(np.array([1, 1, 2]), (3, 3)), 0),
        ((4, 3), np.broadcast_to(np.array([1, -3]), (4, 2)), 0),
        ((4, 3), np.arange(4)[:, None], 0),
        ((3,), np.broadcast_to(np.array([1]), (20, 1)), 0),
    ],
)
def test_index_select_backward_matches_add_at_bit_for_bit(shape, index, axis):
    # Unique indices assign where repeats accumulate; either way each slot
    # must carry np.add.at's bits, a -0.0 upstream gradient's +0.0 included.
    rng = np.random.default_rng(5)
    a = rng.normal(size=shape)
    out, bwd = ad._REGISTRY["index-select"]([a], (True,), index=index, axis=axis)
    where = (slice(None),) * (axis % a.ndim) + (np.asarray(index, dtype=np.intp),)
    for g in (rng.normal(size=out.shape), np.full(out.shape, -0.0), np.where(rng.random(out.shape) < 0.5, -0.0, 1.5)):
        reference = np.zeros_like(a)
        np.add.at(reference, where, g)
        (ga,) = bwd(g)
        assert np.array_equal(ga, reference)
        assert np.array_equal(np.signbit(ga), np.signbit(reference))
    with GradientTape():
        x = Tensor(a, requires_grad=True)
        weights = rng.normal(size=out.shape)
        picked = forward_op("index-select", [x], index=index, axis=axis)
        backward(ad.sum_over_axis(ad.multiply(picked, Tensor(weights))))
    reference = np.zeros_like(a)
    np.add.at(reference, where, weights)
    assert np.array_equal(x.grad, reference)


def test_floored_logarithm_keeps_the_bits_of_its_four_op_chain():
    # Inputs below, at and just above the floor, where t - floor > 0 but
    # relu(t - floor) + floor rounds back to the floor itself.
    floor = 1e-3
    rng = np.random.default_rng(9)
    t = np.concatenate([rng.uniform(0.0, 2e-3, 40), [floor, floor * (1 + 1e-15), 0.0, 1.0, 1e-12]])
    weights = np.concatenate([rng.normal(size=t.size - 2), [-0.0, 0.0]])
    grads = []
    for fused in (True, False):
        with GradientTape():
            x = Tensor(t, requires_grad=True)
            if fused:
                out = ad.logarithm(x, floor=floor)
            else:
                c = Tensor(floor)
                out = ad.logarithm(ad.add(forward_op("relu", [ad.subtract(x, c)]), c))
            backward(ad.sum_over_axis(ad.multiply(out, Tensor(weights))))
        grads.append((out.values, x.grad))
    (fused_out, fused_grad), (chain_out, chain_grad) = grads
    assert np.array_equal(fused_out, chain_out)
    assert np.array_equal(fused_grad, chain_grad)
    assert np.array_equal(np.signbit(fused_grad), np.signbit(chain_grad))
    np.testing.assert_array_equal(fused_out, np.log(ad.floored_values(t, floor)))


def _backward_through(fn, arrays, needs, g):
    """fn's output and the gradient each input of it gets from g, run on a
    tape with each recorded op's backward called in turn; unlike a leaf's
    accumulated .grad, a -0.0 keeps its sign."""
    with GradientTape() as tape:
        inputs = [Tensor(a, requires_grad=need) for a, need in zip(arrays, needs)]
        out = fn(*inputs)
    grads = {id(out): g}
    for rec in reversed(tape.records):
        for t, grad in zip(rec.inputs, rec.backward_fn(grads.pop(id(rec.output)))):
            if grad is not None:
                assert id(t) not in grads, "each input feeds one record"
                grads[id(t)] = grad
    return out.values, [grads.get(id(t)) for t in inputs]


@pytest.mark.parametrize(
    "lead, draws, shared",
    [((), (), False), ((), (1,), False), ((), (5,), False), ((), (5,), True), ((4,), (), False), ((4,), (), True),
     ((4,), (1,), False), ((4,), (5,), False), ((4,), (5,), True), ((4,), (9,), False), ((4,), (1, 1), False),
     ((4,), (1, 1), True), ((4,), (2, 3), False), ((2, 3), (3, 1), False)],
)
@pytest.mark.parametrize("tau", [0.01, 0.7])
def test_the_relaxed_sample_keeps_the_bits_of_its_op_by_op_chain(lead, draws, shared, tau):
    # One draw and two draw axes; each draw's own (n, m) values or one shared
    # (n, m); weights below, at and just above the floor; -0.0 upstream
    # gradients, a whole draw of them included.  At tau = 0.01 the floored
    # weights' relaxed weights underflow to 0, so their gradients are signed
    # zeros before the draws are added.
    rng = np.random.default_rng([len(lead), len(draws), *draws, int(tau * 100), shared])
    w = rng.uniform(0.0, 1.0, lead + (7,))
    w[..., :4] = [0.0, WEIGHT_FLOOR / 2, WEIGHT_FLOOR, np.nextafter(WEIGHT_FLOOR, 1.0)]
    gumbels = rng.gumbel(size=lead + draws + (7,))
    values = rng.normal(size=(7, 3) if shared else gumbels.shape + (3,))
    out_shape = gumbels.shape[:-1] + (3,)
    weights = np.where(rng.random(out_shape) < 0.3, -0.0, rng.normal(size=out_shape))
    weights.reshape(lead + (-1, 3))[..., -1, :] = -0.0

    def fused(x):
        return forward_op("softmax-over-axis", [x, gumbels, values], tau=tau, floor=WEIGHT_FLOOR)

    def chain(x):
        return relaxed_sample_chain(x, gumbels, values, tau)

    # The losses and the leaf's gradient, from one record and from six.
    results = []
    for fn in (fused, chain):
        with GradientTape() as tape:
            x = Tensor(w, requires_grad=True)
            loss = ad.sum_over_axis(ad.multiply(fn(x), Tensor(weights)))
            backward(loss)
        results.append((loss.values, x.grad))
        assert len(tape) == (3 if fn is fused else 8)
    assert all(_bitwise_equal(f, c) for f, c in zip(*results))
    # The op's own output and backward, signed zeros included.
    (out, (grad,)), (chain_out, (chain_grad,)) = (_backward_through(fn, [w], [True], weights) for fn in (fused, chain))
    assert out.shape == out_shape and _bitwise_equal(out, chain_out)
    assert _bitwise_equal(grad, chain_grad)


@pytest.mark.parametrize("kind", ["absolute-value", "square"])
@pytest.mark.parametrize(
    "sa, sb, axis",
    [((16, 5, 2), (16, 5, 2), -1), ((16, 5, 2), (16, 5, 2), 1), ((4, 3), (3,), 0), ((4, 3), (3,), -1),
     ((3,), (2, 4, 3), 1), ((2, 3), (), 0), ((2, 3), None, 1), ((5,), None, 0)],
)
def test_a_summed_distance_keeps_the_bits_of_a_sum_after_it(kind, sa, sb, axis):
    # Some entries sit on their target, the kink of |.|, and some upstream
    # gradients are -0.0; each input is a constant in turn.
    rng = np.random.default_rng([len(sa), 9 if sb is None else len(sb), axis % 3, len(kind)])
    a = rng.normal(size=sa)
    arrays = [a] if sb is None else [a, rng.normal(size=sb)]
    shape = np.broadcast_shapes(*(np.shape(x) for x in arrays))
    if sb is not None:
        on_target = rng.random(shape) < 0.2
        big = 0 if sa == shape else 1
        arrays[big] = np.where(on_target, np.broadcast_to(arrays[1 - big], shape), arrays[big])
    else:
        a[rng.random(sa) < 0.2] = 0.0
    summed = np.add.reduce(np.zeros(shape), axis=axis).shape
    weights = np.where(rng.random(summed) < 0.3, -0.0, rng.normal(size=summed))

    def fused(*xs):
        return forward_op(kind, list(xs), axis=axis)

    def chain(*xs):
        return ad.sum_over_axis(forward_op(kind, list(xs)), axis=axis)

    for constant in range(len(arrays)) if len(arrays) > 1 else (None,):
        needs = [i != constant for i in range(len(arrays))]
        results = []
        for fn in (fused, chain):
            with GradientTape():
                xs = [Tensor(x, requires_grad=need) for x, need in zip(arrays, needs)]
                loss = ad.sum_over_axis(ad.multiply(fn(*xs), Tensor(weights)))
                backward(loss)
            results.append((loss.values, *(x.grad for x in xs)))
        results += [(out, *grads) for out, grads in (_backward_through(fn, arrays, needs, weights) for fn in (fused, chain))]
        for f, c in (results[0], results[1]), (results[2], results[3]):
            assert all(fv is None and cv is None or _bitwise_equal(fv, cv) for fv, cv in zip(f, c)), needs
            assert [v is None for v in f[1:]] == [not need for need in needs]


def _sum_draws_one_by_one(g, shape):
    """0.0 plus each draw's (*lead, n) slice of g, in C order."""
    terms = g.reshape(shape[:-1] + (-1,) + shape[-1:])
    total = np.zeros(shape)
    for k in range(terms.shape[-2]):
        total += terms[..., k, :]
    return total


def test_the_draws_are_summed_one_by_one_from_zero():
    # Signed zeros, and magnitudes from 1e-300 to 1e300, whose sums overflow
    # and cancel: 2 000 shapes with a support of 2 or more points.
    rng = np.random.default_rng(17)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2_000):
            lead = tuple(rng.integers(1, 4, rng.integers(0, 3)))
            draws = tuple(rng.integers(1, 12, rng.integers(0, 3)))
            shape = lead + (int(rng.choice([2, 3, 7, 32])),)
            full = lead + draws + shape[-1:]
            g = rng.normal(size=full) * 10.0 ** rng.integers(-300, 301, full)
            g[rng.random(full) < 0.2] = 0.0
            g[rng.random(full) < 0.2] = -0.0
            assert _bitwise_equal(ad._sum_draws(g, shape), _sum_draws_one_by_one(g, shape)), (lead, draws, shape)


def test_a_one_point_softmax_sums_zeros_over_its_draws():
    # With n = 1 numpy sums the draws pairwise, not one by one; a one-point
    # softmax's backward is +0.0 everywhere, so any order gives +0.0.
    gumbels = np.random.default_rng(19).gumbel(size=(3, 20, 1))
    arrays = [np.full((3, 1), 0.5), gumbels, np.random.default_rng(21).normal(size=(1, 2))]
    out, bwd = ad._REGISTRY["softmax-over-axis"](arrays, (True, False, False), tau=0.3, floor=WEIGHT_FLOOR)
    for g in (np.random.default_rng(23).normal(size=out.shape), np.full(out.shape, -0.0)):
        ga, _, _ = bwd(g)
        assert _bitwise_equal(ga, np.zeros((3, 1)))


@pytest.mark.parametrize("kind", ["absolute-value", "square"])
@pytest.mark.parametrize("sa, sb", [((16, 5, 1), (16, 5, 1)), ((4, 3), (3,)), ((3,), (4, 3)), ((2, 3), ())])
def test_a_distance_to_its_target_keeps_the_bits_of_a_subtract_first(kind, sa, sb):
    # Some entries sit on their target, the kink of |.|, and some upstream
    # gradients are -0.0; each of a and b is a constant in turn.
    rng = np.random.default_rng([len(sa), len(sb), len(kind)])
    a, b = rng.normal(size=sa), rng.normal(size=sb)
    shape = np.broadcast_shapes(sa, sb)
    on_target = rng.random(shape) < 0.2
    if sa == shape:
        a = np.where(on_target, np.broadcast_to(b, shape), a)
    else:
        b = np.where(on_target, np.broadcast_to(a, shape), b)
    weights = np.where(rng.random(shape) < 0.3, -0.0, rng.normal(size=shape))

    def fused(x, y):
        return forward_op(kind, [x, y])

    def chain(x, y):
        return forward_op(kind, [ad.subtract(x, y)])

    for needs in ((True, True), (True, False), (False, True)):
        results = []
        for fn in (fused, chain):
            with GradientTape():
                x, y = Tensor(a, requires_grad=needs[0]), Tensor(b, requires_grad=needs[1])
                loss = ad.sum_over_axis(ad.multiply(fn(x, y), Tensor(weights)))
                backward(loss)
            results.append((loss.values, x.grad, y.grad))
        results += [(out, *grads) for out, grads in (_backward_through(fn, [a, b], needs, weights) for fn in (fused, chain))]
        for f, c in (results[0], results[1]), (results[2], results[3]):
            assert all(fv is None and cv is None or _bitwise_equal(fv, cv) for fv, cv in zip(f, c)), needs
            assert [v is None for v in f[1:]] == [not need for need in needs]


def _row_pick_product(a, b):
    """The rows product of a (..., 1, k) stack of one-row stacks, times one
    shared matrix or each row's own (..., 1, k, m), then its one row picked."""
    return forward_op("index-select", [ad.matrix_multiply(a, b)], index=0, axis=-2)


def _fused_cases():
    """(name, fused, its inputs, chain, the chain's inputs): each fused
    form next to the chain of ops it replaces, on (16, 32) maps, their
    (16, 5, 32) draws and a stacked shape."""
    rng = np.random.default_rng(31)
    cases = []
    for lead in ((16,), (16, 5), (4, 3)):
        x = rng.normal(size=lead + (32,))
        w = rng.normal(size=(32, 6))
        c = rng.normal(size=(6,))
        cases.append(("affine", lambda x, w, c: ad.matrix_multiply(x, w, c), [x, w, c],
                      lambda x, w, c: ad.add(ad.matrix_multiply(x, w), c), [x, w, c]))
        cases.append(("affine relu", lambda x, w, c: ad.matrix_multiply(x, w, c, relu=True), [x, w, c],
                      lambda x, w, c: forward_op("relu", [ad.add(ad.matrix_multiply(x, w), c)]), [x, w, c]))
        samples = rng.normal(size=lead + (32, 3))
        cases.append(("rows", ad.matrix_multiply, [x, samples],
                      _row_pick_product, [x[..., None, :], samples[..., None, :, :]]))
        cases.append(("shared rows", ad.matrix_multiply, [x, w],
                      _row_pick_product, [x[..., None, :], w]))
        for axis in (-1, 0, None):
            count = x.size if axis is None else x.shape[axis]
            cases.append((f"mean over {axis}", lambda a, axis=axis: ad.mean_over_axis(a, axis), [x],
                          lambda a, axis=axis, count=count: ad.multiply(ad.sum_over_axis(a, axis), Tensor(1.0 / count)),
                          [x]))
    return cases


def _taped(fn, arrays, constant, weights):
    """fn's output and each input's gradient, input `constant` a constant."""
    with GradientTape():
        inputs = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        out = fn(*inputs)
        backward(ad.sum_over_axis(ad.multiply(out, Tensor(weights))))
    return out.values, [t.grad for t in inputs]


@pytest.mark.parametrize("case", range(len(_fused_cases())))
def test_a_fused_form_keeps_the_bits_of_its_chain(case):
    name, fused, fused_inputs, chain, chain_inputs = _fused_cases()[case]
    with ad.no_grad():
        shape = fused(*[Tensor(a) for a in fused_inputs]).shape
    weights = np.random.default_rng(case).normal(size=shape)
    # A lone input cannot be constant: nothing would be recorded.
    for constant in (None, *range(len(fused_inputs) if len(fused_inputs) > 1 else 0)):
        out, grads = _taped(fused, fused_inputs, constant, weights)
        chain_out, chain_grads = _taped(chain, chain_inputs, constant, weights)
        assert out.shape == chain_out.shape and _bitwise_equal(out, chain_out), name
        for i, (grad, chain_grad) in enumerate(zip(grads, chain_grads)):
            if i == constant:
                assert grad is None and chain_grad is None, name
            else:
                assert _bitwise_equal(grad, chain_grad.reshape(grad.shape)), (name, constant, i)


def test_fused_product_shape_errors():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    for addend in ((3,), (2, 3), (5, 2, 4)):
        with pytest.raises(ShapeError, match="addend"):
            ad.matrix_multiply(a, b, Tensor(np.ones(addend)))
    for sa, sb in (((2, 3), (2, 4, 5)), ((2, 3), (3, 3, 5)), ((2, 3), (2, 3)), ((), (3, 2))):
        pattern = rf"{re.escape(str(sa))} @ {re.escape(str(sb))}"
        with pytest.raises(ShapeError, match=pattern):
            ad.matrix_multiply(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


@pytest.mark.parametrize("count", [0, 1, 4])
def test_matrix_multiply_takes_two_or_three_inputs(count):
    # A wrong input count fails naming the op and what it takes, not with an
    # unpacking error.
    arrays = [np.ones((2, 3)), np.ones((3, 4)), np.ones(4), np.ones(4)][:count]
    with pytest.raises(ValueError, match=rf"matrix-multiply takes 2 or 3 inputs, .*, got {count}$"):
        forward_op("matrix-multiply", arrays)


def _relaxed_sample(w, gumbels, values, tau=1.0, floor=WEIGHT_FLOOR):
    return forward_op("softmax-over-axis", [w, gumbels, values], tau=tau, floor=floor)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf"), -float("inf")])
def test_softmax_tau_must_be_positive(tau):
    # At tau = inf every relaxed sample would be the mean of its values,
    # whatever the weights.
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        _relaxed_sample(Tensor([1.0, 0.5]), np.zeros(2), np.zeros((2, 1)), tau=tau)


@pytest.mark.parametrize("floor", [0.0, -1e-3, float("nan")])
def test_logarithm_floor_must_be_positive(floor):
    with pytest.raises(ValueError, match="floor must be positive"):
        ad.logarithm(Tensor([1.0, 0.5]), floor=floor)
    with pytest.raises(ValueError, match="floor must be positive"):
        _relaxed_sample(Tensor([1.0, 0.5]), np.zeros(2), np.zeros((2, 1)), floor=floor)


def test_softmax_gumbels_and_distance_targets_must_fit():
    w = Tensor(np.full((4, 5), 0.2))
    for shape in ((5,), (3, 5), (4, 3, 6), (4, 2, 4)):
        # Lower rank, other lead axes, another last axis.
        with pytest.raises(ShapeError, match="gumbels"):
            _relaxed_sample(w, np.zeros(shape), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="constant"):
        _relaxed_sample(w, Tensor(np.zeros((4, 5)), requires_grad=True), np.zeros((5, 2)))
    for shape in ((5,), (4, 5, 2), (3, 5, 2), (4, 3, 6, 2), (2, 4, 3, 5, 2)):
        # Neither one shared (n, m) nor each draw's own.
        with pytest.raises(ShapeError, match="values"):
            _relaxed_sample(w, np.zeros((4, 3, 5)), np.zeros(shape))
    with pytest.raises(ValueError, match="constant"):
        _relaxed_sample(w, np.zeros((4, 5)), Tensor(np.zeros((5, 2)), requires_grad=True))
    for op in (ad.absolute_value, ad.square):
        for axis in (2, -3):
            with pytest.raises(ShapeError, match="axis"):
                op(Tensor(np.ones((4, 5))), axis=axis)
    for op in (ad.absolute_value, ad.square):
        for sb in ((4,), (5, 4), (1, 5), (2, 5, 4)):
            with pytest.raises(ShapeError, match="suffix-broadcast"):
                op(Tensor(np.ones((4, 5)), requires_grad=True), Tensor(np.ones(sb)))


@pytest.mark.parametrize(
    "count, params",
    [(0, {}), (1, {"tau": 0.5}), (1, {"floor": 1e-12}), (1, {"axis": -1}), (1, {"axis": 0}),
     (1, {"tau": 0.5, "floor": 1e-12}), (2, {}), (2, {"tau": 0.5, "floor": 1e-12}), (3, {}), (3, {"tau": 0.5}),
     (3, {"floor": 1e-12}), (3, {"tau": None, "floor": 1e-12}), (3, {"tau": 0.5, "floor": None}),
     (3, {"tau": 0.5, "floor": 1e-12, "axis": -1}), (4, {"tau": 0.5, "floor": 1e-12})],
)
def test_softmax_takes_only_its_two_forms(count, params):
    # [a] alone, or [w, gumbels, values] with tau and floor: anything else,
    # three inputs with a tau or floor of None included, fails naming both,
    # and an axis, a param the op does not take, fails naming it.
    arrays = [np.full((4, 5), 0.2), np.zeros((4, 3, 5)), np.zeros((5, 2)), np.zeros((5, 2))][:count]
    if "axis" in params:
        expected = pytest.raises(TypeError, match="'axis'")
    else:
        expected = pytest.raises(ValueError, match=r"takes \[a\], .* or \[w, gumbels, values\] with tau and floor")
    with expected:
        forward_op("softmax-over-axis", arrays, **params)


@pytest.mark.parametrize("params", [{"tau": None}, {"floor": None}, {"tau": None, "floor": None}])
def test_a_tau_or_floor_of_none_is_one_not_given(params):
    # As with logarithm's floor, an explicit None is the param omitted: [a]
    # with it is the plain softmax, bit for bit.
    a = np.random.default_rng(2).normal(0.0, 1.5, (4, 5))
    got = forward_op("softmax-over-axis", [a], **params).values
    assert got.tobytes() == forward_op("softmax-over-axis", [a]).values.tobytes()


def test_concatenate_backward_splits():
    with GradientTape():
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = forward_op("concatenate", [a, b], axis=0)
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


# The looped reference and a one-point grad_check_rows; _squares-like
# functions give both what they take.
BOTH_CHECKS = pytest.mark.parametrize(
    "check", [grad_check, lambda f, x: grad_check_rows(f, x[None])[0]], ids=["looped", "rows"]
)


@BOTH_CHECKS
def test_grad_check_flags_wrong_gradients(check):
    def f(x):
        # x^2 / 2 built from raw values is hidden from the tape: the value
        # is 1.5 x^2, the taped gradient only 2x.
        hidden = Tensor(0.5 * x.values**2)
        return ad.add(ad.sum_over_axis(ad.square(x), axis=-1), ad.sum_over_axis(hidden, axis=-1))

    result = check(f, np.array([0.7, -1.2]))
    assert not result.passed
    assert result.max_rel_error > 0.1


@BOTH_CHECKS
def test_grad_check_reports_relative_errors(check):
    result = check(lambda x: ad.sum_over_axis(ad.square(x), axis=-1), np.array([0.5, -0.25]))
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

    xs = np.stack([np.linspace(-1.3, 0.9, size), np.linspace(0.4, -2.2, size), np.full(size, 0.3)])
    results = grad_check_rows(f, xs)
    assert calls == [(3, size), (3 * (2 * size + 1), size)]
    assert len(results) == 3
    for x0, result in zip(xs, results):
        looped = grad_check(f, x0)
        assert result.passed
        for field in ("analytic", "numeric", "rel_errors"):
            assert getattr(result, field).tobytes() == getattr(looped, field).tobytes()
        assert result.max_rel_error == looped.max_rel_error
    assert len(calls) == 2 + 3 * (2 + 2 * size)


def test_batched_grad_check_rejects_mixed_rows():
    def f(x):
        # Each row's value also depends on the whole stack.
        return ad.add(_squares(x), ad.multiply(ad.sum_over_axis(x), Tensor(1e-3)))

    with pytest.raises(ValueError, match="point 0 changed .* rows are not independent"):
        grad_check_rows(f, np.array([[1.0, 2.0], [0.5, -1.0]]))


@pytest.mark.parametrize(
    "f, message",
    [
        (lambda x: ad.sum_over_axis(ad.square(x)), "f gave 1 values for 5 stack rows"),
        (
            lambda x: forward_op("index-select", [_squares(x)], index=np.arange(x.shape[0] - 1))
            if x.shape[0] > 1
            else _squares(x),
            "f gave 4 values for 5 stack rows",
        ),
        (lambda x: ad.sum_over_axis(ad.square(x)), "f gave 1 values for 2 points"),
    ],
    ids=["sums-the-stack", "drops-a-row", "sums-the-points"],
)
def test_batched_grad_check_rejects_wrong_value_count(f, message):
    points = [[1.0, 2.0]] if "stack" in message else [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ValueError, match=message):
        grad_check_rows(f, np.array(points))


def test_batched_grad_check_rejects_nondeterministic_functions():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return ad.multiply(_squares(x), Tensor(float(state["n"])))

    with pytest.raises(ValueError, match="point 0 changed .* not deterministic"):
        grad_check_rows(f, np.array([[1.0, 2.0], [3.0, 4.0]]))


def looped_compare(analytic, base, values, step, tol):
    """_compare with one pass per point, as it was before its array form."""
    results = []
    for r, (a, row) in enumerate(zip(analytic, values)):
        if row[-1] != base[r]:
            raise ValueError(f"point {r} changed")
        k = a.size
        numeric = ((row[:k] - row[k:-1]) / (2.0 * step)).reshape(a.shape)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        rel = np.abs(a - numeric) / denom
        max_rel = float(rel.max()) if rel.size else 0.0
        results.append(ad.GradCheckResult(a, numeric, rel, max_rel, bool(max_rel <= tol)))
    return results


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3), (4, 4)])
@pytest.mark.parametrize("count", [1, 3, 30])
def test_compare_matches_one_pass_per_point(shape, count):
    rng = np.random.default_rng([len(shape), count, *shape])
    k = int(np.prod(shape))
    step = 1e-5
    analytic = rng.normal(size=(count, *shape))
    analytic.reshape(count, -1)[:, 0] = 0.0  # rows whose floor is 1e-8
    values = rng.normal(size=(count, 2 * k + 1))
    values[:, :k] = values[:, k:-1] + 2.0 * step * analytic.reshape(count, k) * rng.uniform(0.99, 1.01, (count, k))
    values[0, 0] = np.nan  # a NaN difference fails its point in both forms
    base = values[:, -1].copy()
    results = ad._compare(analytic, base, values, step, 1e-2)
    assert not results[0].passed
    for result, looped in zip(results, looped_compare(analytic, base, values, step, 1e-2), strict=True):
        for field in ("analytic", "numeric", "rel_errors"):
            assert getattr(result, field).tobytes() == getattr(looped, field).tobytes(), field
        assert np.float64(result.max_rel_error).tobytes() == np.float64(looped.max_rel_error).tobytes()
        assert result.passed == looped.passed


def test_compare_names_the_first_changed_point():
    values = np.zeros((6, 5))
    base = np.zeros(6)
    values[[2, 4], -1] = 1.0
    with pytest.raises(ValueError, match="f\\(x0\\) of point 2 changed"):
        ad._compare(np.zeros((6, 2)), base, values, 1e-5, 1e-4)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"step": 0.0}, "step must be positive and finite, got 0.0"),
        ({"step": -1e-5}, "step must be positive and finite, got -1e-05"),
        ({"step": float("nan")}, "step must be positive and finite, got nan"),
        ({"step": float("inf")}, "step must be positive and finite, got inf"),
        ({"tol": -1e-4}, "tol must be non-negative, got -0.0001"),
        ({"tol": float("nan")}, "tol must be non-negative, got nan"),
    ],
)
def test_bad_step_and_tol_are_rejected_before_f_runs(setting, message):
    # step = 0 used to divide by zero and give NaN rows that read as failed.
    def f(x):
        raise AssertionError("f ran before step and tol were checked")

    with pytest.raises(ValueError, match=message):
        grad_check_rows(f, np.array([[1.0, 2.0]]), **setting)
