"""Synthetic localization tasks with analytically known ground truth.

Each task draws observations containing a main peak at a continuous location
y_t, a weaker distractor peak elsewhere, and input-dependent noise whose
level varies from example to example.  Amplitudes and separations are chosen
so that with the noise turned off, the largest observation entry is always
the support point nearest y_t; tests rely on that anchor.

Examples are pinned by (task seed, split, index), and the three splits use
disjoint seed streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mixture import MixtureSpec, Support

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
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if self.size is None:
            object.__setattr__(self, "size", _DEFAULT_SIZES[self.kind])
        if self.size < 8:
            raise ValueError("task size must be at least 8")
        if self.noise < 0:
            raise ValueError("noise level must be non-negative")


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
    return Support.scattered(_cloud(task), bounds=((0.0, 2.0),) * 3)


def scatter_sigma(task: SyntheticTask) -> float:
    """Mean nearest-neighbor distance of the scatter cloud."""
    pos = _cloud(task)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min(axis=1)).mean())


def task_mixture_spec(task: SyntheticTask, basis: str, sigma: float | None = None) -> MixtureSpec:
    """Mixture spec matched to the task's support."""
    if task.kind == "scatter3d":
        return MixtureSpec("gaussian", sigma if sigma is not None else scatter_sigma(task))
    return MixtureSpec(basis, sigma)


# ---------------------------------------------------------------------------
# Peak shapes

# A symmetric gaussian core out to one cell, then exponential tails whose
# decay differs per side.  Monotone in the distance from the center within
# each region, continuous at the switch, so the nearest grid point always
# carries the largest value.


def _bump(x: np.ndarray, center: float, width: float, lam_lo: float, lam_hi: float) -> np.ndarray:
    delta = x - center
    absd = np.abs(delta)
    core = np.exp(-0.5 * (delta / width) ** 2)
    edge = np.exp(-0.5 / width**2)
    lam = np.where(delta < 0, lam_lo, lam_hi)
    tail = edge * np.exp(-(absd - 1.0) / lam)
    return np.where(absd <= 1.0, core, tail)


def _place_distractor(
    rng: np.random.Generator, lo: float, hi: float, y_t: np.ndarray, min_sep: float
) -> np.ndarray | None:
    """The first of rng's next _DISTRACTOR_TRIES uniform points in [lo, hi]^d
    that lies at least min_sep (euclidean) from y_t, or None if none does."""
    for _ in range(_DISTRACTOR_TRIES):
        cand = rng.uniform(lo, hi, size=y_t.shape)
        if np.linalg.norm(cand - y_t) >= min_sep:
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


def _cell_offset(rng: np.random.Generator) -> float:
    """Fractional position within a cell, skipping the midpoint band."""
    u = rng.uniform()
    if u < 0.5:
        return 2.0 * u * _MID_BAND[0]
    return _MID_BAND[1] + (2.0 * u - 1.0) * (1.0 - _MID_BAND[1])


def _bump_profile(rng: np.random.Generator, x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Separable multi-axis bump on grid coordinates x (per-axis arange)."""
    out = None
    for c in center:
        width = rng.uniform(*_WIDTH_RANGE)
        lam_lo, lam_hi = rng.uniform(*_LAM_RANGE, size=2)
        axis_vals = _bump(x, float(c), width, lam_lo, lam_hi)
        out = axis_vals if out is None else np.multiply.outer(out, axis_vals)
    return out


def _grid_example(task: SyntheticTask, rng: np.random.Generator, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    n = task.size
    x = np.arange(n, dtype=np.float64)
    cells = rng.integers(1, n - 2, size=ndim)
    y_t = cells + np.array([_cell_offset(rng) for _ in range(ndim)])
    signal = _bump_profile(rng, x, y_t)

    difficulty = rng.uniform(0.1, 1.0)
    noisy = signal
    # Skip the distractor when the box is too small to honor the separation,
    # when even its farthest corner from y_t is not beyond it, or when no try
    # lands beyond it.
    farthest = np.linalg.norm(np.maximum(y_t - 1.0, n - 2.0 - y_t))
    d_pos = None
    if (n - 3) * np.sqrt(ndim) >= 1.3 * _MIN_SEP and farthest > _MIN_SEP:
        d_pos = _place_distractor(rng, 1.0, n - 2.0, y_t, min_sep=_MIN_SEP)
    if d_pos is not None:
        rho = rng.uniform(*_RHO_RANGE)
        d_profile = _bump_profile(rng, x, d_pos)
        signal = signal + rho * d_profile
        # Confusable component of the noise: on hard examples it can grow
        # the distractor toward main-peak height, so which bump is the real
        # one becomes genuinely uncertain.
        boost = task.noise * difficulty * rng.uniform(0.0, 0.55)
        noisy = signal + boost * d_profile

    std = task.noise * difficulty * (0.05 + 0.25 * signal)
    obs = noisy + std * rng.standard_normal(signal.shape)
    return obs.reshape(-1), y_t


def _scatter_example(task: SyntheticTask, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    pos = _cloud(task)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn = np.sqrt(d2.min(axis=1))
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


def generate_example(task: SyntheticTask, split: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    """(observation, y_t) for one example; fully pinned by task/split/index."""
    if split not in SPLITS:
        raise ValueError(f"unknown split: {split!r}")
    if not 0 <= index < split_count(task, split):
        raise ValueError(f"index {index} out of range for split {split!r}")
    rng = np.random.default_rng([task.seed, _SPLIT_CODES[split], index])
    if task.kind == "signal1d":
        return _grid_example(task, rng, ndim=1)
    if task.kind == "heat2d":
        return _grid_example(task, rng, ndim=2)
    return _scatter_example(task, rng)


def generate_split(task: SyntheticTask, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (observations, targets) for a whole split."""
    count = split_count(task, split)
    rows = [generate_example(task, split, i) for i in range(count)]
    obs = np.stack([r[0] for r in rows])
    targets = np.stack([r[1] for r in rows])
    return obs, targets
