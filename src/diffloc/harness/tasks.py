"""Synthetic localization tasks with analytically known ground truth.

Each task draws observations containing a main peak at a continuous location
y_t, a weaker distractor peak elsewhere, and input-dependent noise whose
level varies from example to example.  Amplitudes and separations are chosen
so that with the noise turned off, the largest observation entry is always
the support point nearest y_t; tests rely on that anchor.

Examples are pinned by (task seed, split, index), and the three splits use
disjoint seed streams.  mixture.per_stream seeds every example of a split
from one generator.  A grid split takes every example's draws first, in one
pass over the examples, and then computes all of them at once, elementwise,
so each example keeps the bits it has when generated alone.  Grid draws are
scalar rng.integers() calls and scaled rng.random(k) draws: the bits of
rng.integers(size=k) and of k rng.uniform(lo, hi) calls, with the stream
left where those leave it, at a fraction of their argument handling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..mixture import MixtureSpec, Support, per_stream
from ..operators import _is_kind, check_field_types

__all__ = [
    "TASK_KINDS",
    "SPLITS",
    "SyntheticTask",
    "task_support",
    "task_mixture_spec",
    "scatter_sigma",
    "generate_example",
    "generate_split",
    "split_count",
]

TASK_KINDS = ("signal1d", "heat2d", "scatter3d")
SPLITS = ("train", "val", "test")

_SPLIT_CODES = {"train": 1, "val": 2, "test": 3}
_DEFAULT_SIZES = {"signal1d": 32, "heat2d": 24, "scatter3d": 256}

# Sub-streams of the task seed; keeps example noise, the scatter cloud, and
# anything downstream statistically independent.
_CLOUD_STREAM = 83


@dataclass(frozen=True)
class SyntheticTask:
    """Dataset description; every example is derivable from these fields."""

    kind: str
    size: int | None = None
    noise: float = 0.5
    train_count: int = 256
    val_count: int = 64
    test_count: int = 128
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if self.size is None:
            object.__setattr__(self, "size", _DEFAULT_SIZES[self.kind])
        if self.size < 8:
            raise ValueError("task size must be at least 8")
        if self.noise < 0:
            raise ValueError("noise level must be non-negative")
        for name, least in (("train_count", 1), ("val_count", 1), ("test_count", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


def split_count(task: SyntheticTask, split: str) -> int:
    if split not in SPLITS:
        raise ValueError(f"unknown split: {split!r}")
    return {"train": task.train_count, "val": task.val_count, "test": task.test_count}[split]


def _cloud(task: SyntheticTask) -> np.ndarray:
    """Fixed unit-sphere point cloud shifted into [0, 2]^3."""
    rng = np.random.default_rng([task.seed, _CLOUD_STREAM])
    raw = rng.standard_normal((task.size, 3))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return 1.0 + unit


def task_support(task: SyntheticTask) -> Support:
    if task.kind == "signal1d":
        return Support.regular_grid(task.size)
    if task.kind == "heat2d":
        return Support.regular_grid((task.size, task.size))
    return Support(_cloud(task))


def _cloud_geometry(task: SyntheticTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scatter cloud, its pairwise squared distances (inf on the
    diagonal) and each point's nearest-neighbor distance."""
    pos = _cloud(task)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return pos, d2, np.sqrt(d2.min(axis=1))


def scatter_sigma(task: SyntheticTask) -> float:
    """Mean nearest-neighbor distance of the scatter cloud."""
    return float(_cloud_geometry(task)[2].mean())


def task_mixture_spec(task: SyntheticTask, basis: str) -> MixtureSpec:
    """Mixture spec matched to the task's support."""
    if task.kind == "scatter3d":
        return MixtureSpec("gaussian", scatter_sigma(task))
    return MixtureSpec(basis)


# ---------------------------------------------------------------------------
# Peak shapes

# A symmetric gaussian core out to one cell, then exponential tails whose
# decay differs per side.  Monotone in the distance from the center within
# each region, continuous at the switch, so the nearest grid point always
# carries the largest value.


def _bump(x: np.ndarray, center, width, edge, lam_lo, lam_hi) -> np.ndarray:
    """The bump on grid coordinates x; the other arguments broadcast against
    x, one row per bump, and edge is exp(-0.5 / width**2)."""
    delta = x - center
    absd = np.abs(delta)
    core = np.exp(-0.5 * (delta / width) ** 2)
    lam = np.where(delta < 0, lam_lo, lam_hi)
    tail = edge * np.exp(-(absd - 1.0) / lam)
    return np.where(absd <= 1.0, core, tail)


def _norm(v) -> float:
    """np.linalg.norm of a vector, sqrt(v.dot(v)), without its argument
    handling.  A grid point and its differences are Python floats on one
    axis, whose norm is math.sqrt(v * v), and arrays on several, which stay
    in numpy: its BLAS dot may fuse a multiply-add."""
    if isinstance(v, float):
        return math.sqrt(v * v)
    return math.sqrt(v.dot(v))


def _corner_distance(y_t, n: int) -> float:
    """How far the farthest corner of the box [1, n - 2]^d lies from the
    grid point y_t."""
    if isinstance(y_t, float):
        return _norm(max(y_t - 1.0, n - 2.0 - y_t))
    return _norm(np.maximum(y_t - 1.0, n - 2.0 - y_t))


def _scaled(u, lo: float, hi: float):
    """lo + (hi - lo) * u: what rng.uniform(lo, hi) makes of a random() draw
    u, float or array, bit for bit."""
    return lo + (hi - lo) * u


def _place_distractor(
    rng: np.random.Generator, lo: float, hi: float, y_t: float | np.ndarray, min_sep: float
) -> float | np.ndarray | None:
    """The first of rng's next _DISTRACTOR_TRIES uniform points in [lo, hi]^d
    that lies at least min_sep (euclidean) from the grid point y_t, or None
    if none does."""
    shape = None if isinstance(y_t, float) else y_t.shape
    for _ in range(_DISTRACTOR_TRIES):
        cand = _scaled(rng.random(shape), lo, hi)
        if _norm(cand - y_t) >= min_sep:
            return cand
    return None


# Distractor amplitude, tail decay, and separation keep the distractor's
# region strictly below the main peak's nearest grid point, and y_t avoids
# the band around cell midpoints where the ranking margin collapses.
_RHO_RANGE = (0.25, 0.45)
_WIDTH_RANGE = (0.8, 1.1)
_LAM_RANGE = (1.0, 2.0)
_MIN_SEP = 6.0
# The region beyond _MIN_SEP can be a sliver near a corner of the box; past
# this many misses the example goes without a distractor.  At the default
# sizes each try hits with probability above 0.5.
_DISTRACTOR_TRIES = 1024
_MID_BAND = (0.42, 0.58)


def _cell_offset(u: float) -> float:
    """Fractional position within a cell, skipping the midpoint band, from a
    random() draw u."""
    if u < 0.5:
        return 2.0 * u * _MID_BAND[0]
    return _MID_BAND[1] + (2.0 * u - 1.0) * (1.0 - _MID_BAND[1])


# random() draws per axis of a bump: its width and its two tail decays.
_BUMP_DRAWS = 3


def _bump_draws(center: float | np.ndarray, u: list[float]) -> list[tuple]:
    """A separable multi-axis bump at the grid point center from
    _BUMP_DRAWS random() draws per axis: per axis its (center, width,
    -0.5 / width**2, lam_lo, lam_hi)."""
    rows = []
    for axis, c in enumerate((center,) if isinstance(center, float) else center):
        width, lam_lo, lam_hi = u[_BUMP_DRAWS * axis : _BUMP_DRAWS * (axis + 1)]
        width = _scaled(width, *_WIDTH_RANGE)
        rows.append((float(c), width, -0.5 / width**2, _scaled(lam_lo, *_LAM_RANGE), _scaled(lam_hi, *_LAM_RANGE)))
    return rows


def _bump_profiles(x: np.ndarray, draws: list[list[tuple]]) -> np.ndarray:
    """(len(draws), n**ndim): each bump of _bump_draws on the grid with axis
    coordinates x, the product of its axes' bumps in row-major order."""
    center, width, edge_arg, lam_lo, lam_hi = np.array(draws).transpose(2, 1, 0).copy()[..., None]
    out = None
    for axis in range(center.shape[0]):
        vals = _bump(x, center[axis], width[axis], np.exp(edge_arg[axis]), lam_lo[axis], lam_hi[axis])
        out = vals if out is None else (out[:, :, None] * vals[:, None, :]).reshape(vals.shape[0], -1)
    return out


def _grid_draws(task: SyntheticTask, ndim: int, roomy: bool, rng: np.random.Generator) -> tuple:
    """One grid example's draws, in stream order: (y_t, its bump's
    _bump_draws, its noise scale, (rho, the distractor's _bump_draws, boost)
    or None, its standard normals).  y_t is a grid point, a float on one
    axis.  The fixed-count uniforms come from one random(k) call after the
    integers and one after a distractor is placed; each is mapped by the
    same Python-float formula as a scalar draw."""
    n = task.size
    cells = [int(rng.integers(1, n - 2)) for _ in range(ndim)]
    u = rng.random(ndim + _BUMP_DRAWS * ndim + 1).tolist()
    center = [c + _cell_offset(v) for c, v in zip(cells, u)]
    y_t = center[0] if ndim == 1 else np.array(center)
    bump = _bump_draws(y_t, u[ndim:-1])
    difficulty = _scaled(u[-1], 0.1, 1.0)
    lift = None
    if roomy and _corner_distance(y_t, n) > _MIN_SEP:
        d_pos = _place_distractor(rng, 1.0, n - 2.0, y_t, min_sep=_MIN_SEP)
        if d_pos is not None:
            v = rng.random(1 + _BUMP_DRAWS * ndim + 1).tolist()
            # Confusable component of the noise: on hard examples it can grow
            # the distractor toward main-peak height, so which bump is the
            # real one becomes genuinely uncertain.
            boost = task.noise * difficulty * _scaled(v[-1], 0.0, 0.55)
            lift = _scaled(v[0], *_RHO_RANGE), _bump_draws(d_pos, v[1:-1]), boost
    return y_t, bump, task.noise * difficulty, lift, rng.standard_normal(n**ndim)


def _grid_examples(task: SyntheticTask, seeds: list[list[int]], ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """(observations, targets) of the grid examples seeded by `seeds`.

    Each example's draws are taken from its stream in one pass; the
    arithmetic on them then runs for all examples at once, elementwise, so
    each example's bits are those of the example alone.
    """
    n = task.size
    # Skip the distractor when the box is too small to honor the separation,
    # when even its farthest corner from y_t is not beyond it, or when no try
    # lands beyond it.
    roomy = (n - 3) * np.sqrt(ndim) >= 1.3 * _MIN_SEP
    examples = per_stream(seeds, functools.partial(_grid_draws, task, ndim, roomy))
    targets, bumps, scales, lifts, normals = zip(*examples)
    lifted = [i for i, lift in enumerate(lifts) if lift is not None]
    rhos, distractors, boosts = zip(*(lifts[i] for i in lifted)) if lifted else ((), (), ())

    count = len(examples)
    profiles = _bump_profiles(np.arange(n, dtype=np.float64), bumps + distractors)
    signal = noisy = profiles[:count]
    if lifted:
        d_profile = profiles[count:]
        raised = signal[lifted] + np.array(rhos)[:, None] * d_profile
        signal[lifted] = raised
        noisy = signal.copy()
        noisy[lifted] = raised + np.array(boosts)[:, None] * d_profile
    std = np.array(scales)[:, None] * (0.05 + 0.25 * signal)
    return noisy + std * np.stack(normals), np.array(targets).reshape(count, ndim)


def _scatter_example(task: SyntheticTask, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    pos, d2, nn = _cloud_geometry(task)
    eligible = np.flatnonzero(nn >= 0.08)

    t = int(eligible[rng.integers(eligible.size)])
    y_t = pos[t]
    scale = rng.uniform(0.22, 0.32)

    d_cand = np.flatnonzero(np.sqrt(d2[t]) >= 1.0)
    t2 = int(d_cand[rng.integers(d_cand.size)])
    rho = rng.uniform(0.25, 0.5)

    def feature(center):
        sq = ((pos - center) ** 2).sum(axis=1)
        return np.exp(-0.5 * sq / scale**2)

    d_feature = feature(pos[t2])
    signal = feature(y_t) + rho * d_feature
    difficulty = rng.uniform(0.1, 1.0)
    boost = task.noise * difficulty * rng.uniform(0.0, 0.55)
    std = task.noise * difficulty * (0.05 + 0.25 * signal)
    obs = signal + boost * d_feature + std * rng.standard_normal(signal.shape)
    return obs, y_t.copy()


def _seed_words(value: int) -> list[int]:
    """value's 32-bit words, least significant first: what SeedSequence
    makes of a non-negative int."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _examples(task: SyntheticTask, split: str, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (observations, targets) of examples start..stop-1 of a split.

    Example i draws from the stream of default_rng([task.seed, split code,
    i]), whose seed words per_stream hashes for all examples at once.
    """
    head = _seed_words(task.seed) + [_SPLIT_CODES[split]]
    seeds = [head + _seed_words(i) for i in range(start, stop)]
    if task.kind == "scatter3d":
        rows = per_stream(seeds, functools.partial(_scatter_example, task))
        return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])
    return _grid_examples(task, seeds, ndim=1 if task.kind == "signal1d" else 2)


def generate_example(task: SyntheticTask, split: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    """(observation, y_t) for one example; fully pinned by task/split/index."""
    if not _is_kind(index, int):
        raise TypeError(f"index must be an int, got {index!r}")
    if not 0 <= index < split_count(task, split):
        raise ValueError(f"index {index} out of range for split {split!r}")
    obs, targets = _examples(task, split, index, index + 1)
    return obs[0], targets[0]


def generate_split(task: SyntheticTask, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (observations, targets) for a whole split."""
    return _examples(task, split, 0, split_count(task, split))
