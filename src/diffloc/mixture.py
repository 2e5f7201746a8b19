"""Continuous mixture distributions attached to discrete probability maps.

A probability map assigns weights to points of a support (a regular grid or a
scattered cloud, 1 to 3 axes).  Placing a small basis density on each point
turns the map into a continuous mixture p(y) = sum_i w_i f_i(y).  This module
holds the closed-form facts about those mixtures (pdf, cdf, moments), the
noise plumbing for reproducible sampling, and an exact but non-differentiable
reference sampler: pick a component by the Gumbel-max rule, then invert the
basis cdf.

Bases are never truncated at the support's edge; a little mass may sit
outside and that is intentional, it keeps every formula exact.

Every weighted sum is autodiff's rows product, the pdf's and the cdf's
with the weights as its one column, so a query point or a map gets the bits
it gets alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .autodiff import Tensor, _rows_product, as_tensor, floored_values

__all__ = [
    "Support",
    "ProbabilityMap",
    "MixtureSpec",
    "NoiseSource",
    "per_stream",
    "BASES",
    "WEIGHT_FLOOR",
    "basis_sample_all",
    "basis_variance",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_moments",
    "draw_noise_batch",
    "draw_noise_blocks",
    "gumbel_from_uniform",
    "gumbel_scores",
    "reference_sample_batch",
    "ks_statistic",
    "ks_critical_value",
]

T = TypeVar("T")

BASES = ("uniform", "triangular", "gaussian")

# Weights pass through a log during sampling; exact zeros are floored here.
WEIGHT_FLOOR = 1e-12

# Rows per block when a long run of draws or query points is processed: every
# (rows, n) temporary stays cache-sized and no array grows with the draw
# count.
_BLOCK_DRAWS = 1024


# ---------------------------------------------------------------------------
# Supports and maps


@dataclass(eq=False)
class Support:
    """Point set a probability map lives on: positions is (n, ndim) with
    ndim in {1, 2, 3}.  A support with a spacing c is a regular grid
    (axis-aligned, equal spacing c on every axis); one without is a
    scattered cloud."""

    positions: np.ndarray
    spacing: float | None = None

    def __post_init__(self):
        if self.spacing is not None:
            if not 0 < self.spacing < np.inf:
                raise ValueError(f"spacing must be positive and finite, got {self.spacing!r}")
            self.spacing = float(self.spacing)
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or not 1 <= pos.shape[1] <= 3 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (n, ndim<=3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        self.positions = pos

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
        return cls(np.stack([m.reshape(-1) for m in mesh], axis=1), spacing)

    @classmethod
    def scattered(cls, positions) -> "Support":
        """The scattered cloud at `positions`: Support(positions)."""
        return cls(positions)


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
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


def _resolve(spec: MixtureSpec, support: Support) -> tuple[str, float | None, float | None]:
    """Return (basis, spacing c, sigma) with defaults applied and combinations
    validated."""
    if support.spacing is None:
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
# Only the gaussian branches need scipy.special, and they import it on first
# use: loading it with this module would double every process's start-up time
# and add 25 MiB, whether or not the run ever evaluates a gaussian cdf.


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
    from scipy.special import ndtr

    return ndtr(offset / sigma)


def _inverse_cdf_1d(basis: str, u: np.ndarray, c: float | None, sigma: float | None) -> np.ndarray:
    if basis == "uniform":
        return c * (u - 0.5)
    if basis == "triangular":
        left = c * (np.sqrt(2.0 * u) - 1.0)
        right = c * (1.0 - np.sqrt(2.0 * (1.0 - u)))
        return np.where(u < 0.5, left, right)
    from scipy.special import ndtri

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
        elif y.ndim == 1 or y.shape[-1] != 1:
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
    """Mixture density at point(s) y; y is (..., ndim) or a scalar in 1-D.
    Each point's density has the bits it has alone."""
    _single_map(pmap, "mixture_pdf")
    basis, c, sigma = _resolve(spec, pmap.support)
    off = _offsets(pmap.support, np.asarray(y, dtype=np.float64))
    val = _rows_product(_pdf_1d(basis, off, c, sigma).prod(axis=-1), pmap.weight_values[:, None])[..., 0]
    return float(val) if val.ndim == 0 else val


def mixture_cdf(pmap: ProbabilityMap, spec: MixtureSpec, y) -> np.ndarray | float:
    """Mixture cdf at point(s) y, read as mixture_pdf reads them; defined for
    one-axis supports only.  Each point's cdf has the bits it has alone."""
    _single_map(pmap, "mixture_cdf")
    if pmap.ndim != 1:
        raise ValueError("mixture_cdf is defined for 1-D supports only")
    basis, c, sigma = _resolve(spec, pmap.support)
    points = _query_points(pmap.support, y)[..., 0]
    flat = points.reshape(-1)
    w = pmap.weight_values[:, None]
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK_DRAWS):
        off = flat[start : start + _BLOCK_DRAWS, None] - pmap.support.positions[:, 0]
        out[start : start + _BLOCK_DRAWS] = _rows_product(_cdf_1d(basis, off, c, sigma), w)[:, 0]
    return float(out[0]) if points.ndim == 0 else out.reshape(points.shape)


def mixture_moments(pmap: ProbabilityMap, spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact (mean, per-axis variance) of the mixture.

    The mean is basis-independent: sum_i w_i y_i, the rows product that
    soft_argmax and inference_localize take, so it has their bits.
    Each axis variance is sum_i w_i (y_id^2 + v_b) - mean_d^2 where v_b is
    the basis variance, its second moment the same product of the squared
    positions that variance_regularizer takes.
    """
    _single_map(pmap, "mixture_moments")
    w = pmap.weight_values
    pos = pmap.support.positions
    v_b = basis_variance(spec, pmap.support)
    mean = _rows_product(w, pos)
    second = _rows_product(w, pos * pos) + v_b
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


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's seeding
# step, which default_rng(words) runs on one row of uint32 words at a time.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_WORDS = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant: per hashmix call, the constant
    its value is xored with and the next one, which it is multiplied by."""
    const = init
    while True:
        xor, const = const, const * mult & _MASK32
        yield xor, const


def _hashmix(values: np.ndarray, consts: Iterator[tuple[int, int]], calls: int) -> np.ndarray:
    """(calls, count): row j is hashmix of values' row j (values broadcast
    to that shape) with the j-th of the next `calls` constants."""
    xor, mul = np.array(list(itertools.islice(consts, calls)), np.uint32).T[..., None]
    out = values ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L)
    out -= y * np.uint32(_MIX_MULT_R)
    out ^= out >> 16
    return out


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64(SeedSequence(row)).state's (state, inc) for each row of a
    (count, k) uint32 array.  The hash runs in numpy on every row at once,
    and on every pool word that one step of the hash treats alike."""
    entropy = words.T
    hash_a = _hash_constants(_HASH_INIT_A, _HASH_MULT_A)
    pool = np.zeros((_POOL_WORDS, words.shape[0]), np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_WORDS]
    pool = _hashmix(pool, hash_a, _POOL_WORDS)
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a, len(dst)))
    for word in entropy[_POOL_WORDS:]:
        pool = _mix(pool, _hashmix(word, hash_a, _POOL_WORDS))
    # generate_state(4, np.uint64): 8 uint32 words cycling the pool, read in
    # little-endian pairs.
    out = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_HASH_INIT_B, _HASH_MULT_B), 2 * _POOL_WORDS)
    out = out.astype(np.uint64)
    states = []
    for s_hi, s_lo, q_hi, q_lo in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        # pcg64_set_seed: state = ((inc + seed) * mult + inc) with inc odd.
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def per_stream(rows: Sequence[Sequence[int]], fn: Callable[[np.random.Generator], T]) -> list[T]:
    """[fn(np.random.default_rng(np.array(row, np.uint32))) for row in rows],
    without making a generator per row.

    Each row is a sequence of uint32 words, SeedSequence's entropy.
    Rows of one length are hashed together, in numpy, and every row's PCG64
    state is then set in turn on one generator, which fn draws from and must
    not keep: it is reseeded for the next row.  The test that compares this
    with default_rng fails by name if numpy changes how it seeds.
    """
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    states: list = [None] * len(rows)
    for picks in by_length.values():
        words = np.array([rows[i] for i in picks], dtype=np.uint32)
        for i, state in zip(picks, _pcg64_states(words)):
            states[i] = state
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    out = []
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
        }
        out.append(fn(rng))
    return out


def _clip_unit(u: np.ndarray) -> np.ndarray:
    """u clipped to [1e-12, 1 - 1e-12]: np.clip's bits, without its
    argument handling."""
    return np.minimum(np.maximum(u, 1e-12), 1.0 - 1e-12)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    return -np.log(-np.log(_clip_unit(u)))


def gumbel_scores(weights: np.ndarray, gumbels: np.ndarray) -> np.ndarray:
    """log w + g, the weights floored at WEIGHT_FLOOR as the taped relaxed
    sample, operators.sample_differentiable, floors them.
    Their argmax along the last axis picks a component exactly (Gumbel-max);
    their softmax at a temperature tau is the relaxed choice, and callers at
    several temperatures can share them."""
    return np.log(floored_values(weights, WEIGHT_FLOOR)) + gumbels


def _require_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


def draw_noise_batch(source: NoiseSource, count: int, n: int, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(count, n) gumbels and (count, n, ndim) basis uniforms: `count`
    consecutive draws, each counted once in draws_taken."""
    _require_count(count)
    blocks = source._rng.random(count * _block_len(n, ndim)).reshape(count, _block_len(n, ndim))
    source.draws_taken += count
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
    basis, c, sigma = _resolve(spec, pmap.support)
    out = np.empty((count, pmap.ndim))
    start = 0
    for gumbels, uniforms in blocks:
        winners = np.argmax(gumbel_scores(pmap.weight_values, gumbels), axis=1)
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
    k = x.size
    theo = np.asarray(cdf(np.sort(x)), dtype=np.float64)
    # The empirical cdf's levels i / k, i = 0..k: the step above sample i is
    # levels[i + 1], the step below it levels[i].  One buffer takes both gaps.
    levels = np.arange(k + 1, dtype=np.float64)
    np.divide(levels, k, out=levels)
    gap = np.subtract(levels[1:], theo)
    upper = gap.max()
    lower = np.subtract(theo, levels[:-1], out=gap).max()
    return float(max(upper, lower))


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Large-sample two-sided KS rejection threshold at level alpha."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))
