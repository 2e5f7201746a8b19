"""The single-point finite-difference check, written as a plain loop: the
reference that autodiff.grad_check_rows is compared against, and the check
the tests run on a lone point."""

import numpy as np

from diffloc.autodiff import GradCheckResult, GradientTape, Tensor, backward, no_grad


def grad_check(f, x, step: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare the taped gradient of a scalar-valued f at x with central
    finite differences, one coordinate and two more calls of f at a time.

    Relative error is |a - n| / max(|a|, |n|, 1e-8).  f(x0) without a tape
    must equal the taped f(x0) bitwise: a nondeterministic f raises instead
    of producing a bogus comparison.
    """
    x0 = np.array(x, dtype=np.float64)
    with GradientTape():
        xt = Tensor(x0, requires_grad=True)
        out = f(xt)
        if out.size != 1:
            raise ValueError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        backward(out)
        analytic = np.zeros_like(x0) if xt.grad is None else xt.grad.copy()

    numeric = np.empty_like(x0)
    with no_grad():
        if f(Tensor(x0)).item() != out.item():
            raise ValueError("grad_check: f(x0) changed between evaluations; f is not deterministic")
        for i in range(x0.size):
            up, down = x0.copy(), x0.copy()
            up.flat[i] += step
            down.flat[i] -= step
            numeric.flat[i] = (f(Tensor(up)).item() - f(Tensor(down)).item()) / (2.0 * step)
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    max_rel = float(rel.max(initial=0.0))
    return GradCheckResult(analytic, numeric, rel, max_rel, max_rel <= tol)
