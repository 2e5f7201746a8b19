"""Continuous mixture distributions attached to discrete probability maps.

A probability map assigns weights to points of a support (a regular grid or a
scattered cloud, 1 to 3 axes).  Placing a small basis density on each point
turns the map into a continuous mixture p(y) = sum_i w_i f_i(y).  This module
holds the closed-form facts about those mixtures (pdf, cdf, moments), the
noise plumbing for reproducible sampling, and an exact but non-differentiable
reference sampler: pick a component by the Gumbel-max rule, then invert the
basis cdf.

Bases are never truncated at the support bounds; a little mass may sit
outside and that is intentional, it keeps every formula exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtr, ndtri

from .autodiff import Tensor, as_tensor

__all__ = [
    "Support",
    "ProbabilityMap",
    "MixtureSpec",
    "NoiseSource",
    "BASES",
    "WEIGHT_FLOOR",
    "EULER_GAMMA",
    "basis_sample_all",
    "basis_variance",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_moments",
    "draw_noise_batch",
    "draw_noise_blocks",
    "gumbel_from_uniform",
    "reference_sample_batch",
    "ks_statistic",
    "ks_critical_value",
]

BASES = ("uniform", "triangular", "gaussian")

# Weights pass through a log during sampling; exact zeros are floored here.
WEIGHT_FLOOR = 1e-12

# Mean of the standard Gumbel distribution.
EULER_GAMMA = 0.5772156649015329

# Rows per block when a long run of draws or query points is processed: every
# (rows, n) temporary stays cache-sized and no array grows with the draw
# count.  A multiple of 4, so that BLAS groups a block's rows in its matrix-
# vector products exactly as it groups them in one whole-array product.
_BLOCK_DRAWS = 4096


# ---------------------------------------------------------------------------
# Supports and maps


@dataclass(eq=False)
class Support:
    """Point set a probability map lives on.

    kind is "regular-grid" (axis-aligned, equal spacing c on every axis) or
    "scattered" (arbitrary points, no spacing).  positions is (n, ndim) with
    ndim in {1, 2, 3}; bounds is one (lo, hi) pair per axis.
    """

    kind: str
    positions: np.ndarray
    spacing: float | None
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in ("regular-grid", "scattered"):
            raise ValueError(f"unknown support kind: {self.kind!r}")
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or not 1 <= pos.shape[1] <= 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (n, ndim<=3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        self.positions = pos
        if self.kind == "regular-grid":
            if self.spacing is None or not self.spacing > 0:
                raise ValueError("regular-grid support needs spacing > 0")
            self.spacing = float(self.spacing)
        else:
            self.spacing = None
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != pos.shape[1]:
            raise ValueError("need one (lo, hi) bounds pair per axis")
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError(f"bad bounds ({lo}, {hi})")
        self.bounds = bounds

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def ndim(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def regular_grid(cls, shape: int | tuple[int, ...], spacing: float = 1.0) -> "Support":
        """Grid of `shape` points per axis starting at the origin."""
        if isinstance(shape, int):
            shape = (shape,)
        if not 1 <= len(shape) <= 3:
            raise ValueError("regular grids support 1 to 3 axes")
        axes = [np.arange(k, dtype=np.float64) * spacing for k in shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        positions = np.stack([m.reshape(-1) for m in mesh], axis=1)
        bounds = tuple((0.0, (k - 1) * spacing) if k > 1 else (0.0, spacing) for k in shape)
        return cls("regular-grid", positions, spacing, bounds)

    @classmethod
    def scattered(cls, positions, bounds=None) -> "Support":
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        if bounds is None:
            bounds = tuple((float(pos[:, d].min()), float(pos[:, d].max())) for d in range(pos.shape[1]))
        return cls("scattered", pos, None, tuple(bounds))


@dataclass(eq=False)
class ProbabilityMap:
    """Discrete distribution over a support; weights may carry a gradient.

    Weights are (..., n): leading axes hold a batch of maps on the same
    support, one map per row.  The losses take either form; the mixture
    oracles and the reference sampler take a single map only.
    """

    support: Support
    weights: Tensor

    def __post_init__(self):
        self.weights = as_tensor(self.weights)
        w = self.weights.values
        if w.ndim < 1 or w.shape[-1] != self.support.n:
            raise ValueError(f"weights must be (..., {self.support.n}), got {w.shape}")
        if (w < 0.0).any():
            raise ValueError("weights must be non-negative")
        off = np.abs(w.sum(axis=-1) - 1.0)
        if not (off <= 1e-9).all():
            raise ValueError(f"weights must sum to 1, off by {float(off.max())!r}")

    @property
    def weight_values(self) -> np.ndarray:
        return self.weights.values

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.weights.shape[:-1]

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def ndim(self) -> int:
        return self.support.ndim


@dataclass(frozen=True)
class MixtureSpec:
    """Which basis density sits on each support point.

    sigma applies to the gaussian basis only and defaults to the grid
    spacing.  Scattered supports have no spacing, so they require the
    gaussian basis with an explicit sigma.
    """

    basis: str = "gaussian"
    sigma: float | None = None

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis: {self.basis!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")


def _resolve(spec: MixtureSpec, support: Support) -> tuple[str, float | None, float | None]:
    """Return (basis, spacing c, sigma) with defaults applied and combinations
    validated."""
    if support.kind == "scattered":
        if spec.basis != "gaussian":
            raise ValueError("scattered supports require the gaussian basis")
        if spec.sigma is None:
            raise ValueError("scattered supports require an explicit sigma")
        return "gaussian", None, float(spec.sigma)
    c = support.spacing
    if spec.basis == "gaussian":
        return "gaussian", c, float(spec.sigma) if spec.sigma is not None else c
    return spec.basis, c, None


# ---------------------------------------------------------------------------
# One-axis basis facts.  Everything multi-axis is a product of these.


def _pdf_1d(basis: str, offset: np.ndarray, c: float | None, sigma: float | None) -> np.ndarray:
    if basis == "uniform":
        return np.where(np.abs(offset) <= c / 2.0, 1.0 / c, 0.0)
    if basis == "triangular":
        return np.maximum(1.0 / c - np.abs(offset) / c**2, 0.0)
    z = offset / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def _cdf_1d(basis: str, offset: np.ndarray, c: float | None, sigma: float | None) -> np.ndarray:
    if basis == "uniform":
        return np.clip(offset / c + 0.5, 0.0, 1.0)
    if basis == "triangular":
        t = np.clip(offset / c, -1.0, 1.0)
        return np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)
    return ndtr(offset / sigma)


def _inverse_cdf_1d(basis: str, u: np.ndarray, c: float | None, sigma: float | None) -> np.ndarray:
    if basis == "uniform":
        return c * (u - 0.5)
    if basis == "triangular":
        left = c * (np.sqrt(2.0 * u) - 1.0)
        right = c * (1.0 - np.sqrt(2.0 * (1.0 - u)))
        return np.where(u < 0.5, left, right)
    return sigma * ndtri(u)


def basis_variance(spec: MixtureSpec, support: Support) -> float:
    """Per-axis variance of a single basis component."""
    basis, c, sigma = _resolve(spec, support)
    if basis == "uniform":
        return c * c / 12.0
    if basis == "triangular":
        return c * c / 6.0
    return sigma * sigma


# ---------------------------------------------------------------------------
# Densities and moments


def _query_points(support: Support, y) -> np.ndarray:
    """Normalize query input to (..., ndim) coordinate arrays.

    In 1-D a bare scalar is one point and a (m,) array is m points; in higher
    dimensions the last axis must hold the coordinates.
    """
    y = np.asarray(y, dtype=np.float64)
    if support.ndim == 1:
        if y.ndim == 0:
            y = y[None]
        elif y.shape[-1] != 1:
            y = y[..., None]
    if y.ndim == 0 or y.shape[-1] != support.ndim:
        raise ValueError(f"query points must have {support.ndim} coordinates, got {y.shape}")
    return y


def _offsets(support: Support, y) -> np.ndarray:
    """(..., n, ndim) offsets of query points from each support point."""
    pts = _query_points(support, y)
    return pts[..., None, :] - support.positions


def _single_map(pmap: ProbabilityMap, what: str) -> None:
    if pmap.batch_shape:
        raise ValueError(f"{what} takes a single map, got a batch of shape {pmap.batch_shape}")


def mixture_pdf(pmap: ProbabilityMap, spec: MixtureSpec, y) -> np.ndarray | float:
    """Mixture density at point(s) y; y is (..., ndim) or a scalar in 1-D."""
    _single_map(pmap, "mixture_pdf")
    basis, c, sigma = _resolve(spec, pmap.support)
    off = _offsets(pmap.support, np.asarray(y, dtype=np.float64))
    per_point = _pdf_1d(basis, off, c, sigma).prod(axis=-1)
    val = per_point @ pmap.weight_values
    return float(val) if val.ndim == 0 else val


def mixture_cdf(pmap: ProbabilityMap, spec: MixtureSpec, y) -> np.ndarray | float:
    """Mixture cdf at y; defined for one-axis supports only."""
    _single_map(pmap, "mixture_cdf")
    if pmap.ndim != 1:
        raise ValueError("mixture_cdf is defined for 1-D supports only")
    basis, c, sigma = _resolve(spec, pmap.support)
    yv = np.asarray(y, dtype=np.float64)
    flat = yv.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK_DRAWS):
        off = flat[start : start + _BLOCK_DRAWS, None] - pmap.support.positions[:, 0]
        out[start : start + _BLOCK_DRAWS] = _cdf_1d(basis, off, c, sigma) @ pmap.weight_values
    return float(out[0]) if yv.ndim == 0 else out.reshape(yv.shape)


def mixture_moments(pmap: ProbabilityMap, spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact (mean, per-axis variance) of the mixture.

    The mean is basis-independent: sum_i w_i y_i.  Each axis variance is
    sum_i w_i (y_id^2 + v_b) - mean_d^2 where v_b is the basis variance.
    """
    _single_map(pmap, "mixture_moments")
    w = pmap.weight_values
    pos = pmap.support.positions
    v_b = basis_variance(spec, pmap.support)
    mean = w @ pos
    second = w @ (pos * pos) + v_b
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# Noise plumbing

# Layout of one draw on the uniform stream: n gumbel seeds then n*ndim basis
# uniforms, consumed as a single contiguous block, so one
# draw_noise_batch(source, k, ...) call is bitwise identical to k calls of
# draw_noise_batch(source, 1, ...) on an equally seeded source.
def _block_len(n: int, ndim: int) -> int:
    return n * (1 + ndim)


class NoiseSource:
    """Deterministic uniform stream; (seed, draw index) pins every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws_taken = 0

    def _take(self, count: int) -> np.ndarray:
        self.draws_taken += 1
        return self._rng.random(count)


def _clip_unit(u: np.ndarray) -> np.ndarray:
    return np.clip(u, 1e-12, 1.0 - 1e-12)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    return -np.log(-np.log(_clip_unit(u)))


def _require_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


def draw_noise_batch(source: NoiseSource, count: int, n: int, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) gumbels and (count, n, ndim) basis uniforms: `count`
    consecutive draws, each counted once in draws_taken."""
    _require_count(count)
    blocks = source._take(count * _block_len(n, ndim)).reshape(count, _block_len(n, ndim))
    source.draws_taken += count - 1
    gumbels = gumbel_from_uniform(blocks[:, :n])
    basis_uniforms = _clip_unit(blocks[:, n:]).reshape(count, n, ndim)
    return gumbels, basis_uniforms


def draw_noise_blocks(
    source: NoiseSource, count: int, n: int, ndim: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """draw_noise_batch(source, count, n, ndim) in stream order, as blocks of
    at most _BLOCK_DRAWS draws; the blocks concatenate to that one call's
    arrays and take the same draws.  count is checked here, the stream is
    read only as the blocks are consumed."""
    _require_count(count)
    return (
        draw_noise_batch(source, min(_BLOCK_DRAWS, count - start), n, ndim)
        for start in range(0, count, _BLOCK_DRAWS)
    )


# ---------------------------------------------------------------------------
# Sampling


def basis_sample_all(spec: MixtureSpec, support: Support, uniforms: np.ndarray) -> np.ndarray:
    """One inverse-cdf sample per component; uniforms is (..., n, ndim) and
    leading axes batch independent draws."""
    basis, c, sigma = _resolve(spec, support)
    u = np.asarray(uniforms, dtype=np.float64)
    if u.shape[-2:] != (support.n, support.ndim):
        raise ValueError(f"uniforms must end in ({support.n}, {support.ndim}), got {u.shape}")
    return support.positions + _inverse_cdf_1d(basis, u, c, sigma)


def reference_sample_batch(
    pmap: ProbabilityMap, spec: MixtureSpec, count: int, source: NoiseSource
) -> np.ndarray:
    """(count, ndim) exact samples, one per draw: Gumbel-max component choice,
    then basis inverse cdf.  Non-differentiable; training never calls this."""
    _single_map(pmap, "reference_sample_batch")
    blocks = draw_noise_blocks(source, count, pmap.n, pmap.ndim)
    log_w = np.log(np.maximum(pmap.weight_values, WEIGHT_FLOOR))
    basis, c, sigma = _resolve(spec, pmap.support)
    out = np.empty((count, pmap.ndim))
    start = 0
    for gumbels, uniforms in blocks:
        winners = np.argmax(gumbels + log_w, axis=1)
        u = uniforms[np.arange(winners.size), winners]
        stop = start + winners.size
        out[start:stop] = pmap.support.positions[winners] + _inverse_cdf_1d(basis, u, c, sigma)
        start = stop
    return out


# ---------------------------------------------------------------------------
# Goodness of fit


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between 1-D samples and a cdf.

    cdf is a vectorized callable; the statistic is evaluated at the sorted
    sample points, checking both the left and right empirical steps.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 2 and x.shape[1] == 1:
        x = x[:, 0]
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D collection")
    x = np.sort(x)
    k = x.size
    theo = np.asarray(cdf(x), dtype=np.float64)
    upper = np.arange(1, k + 1) / k
    lower = np.arange(0, k) / k
    return float(max(np.max(upper - theo), np.max(theo - lower)))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Large-sample two-sided KS rejection threshold at level alpha."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))
