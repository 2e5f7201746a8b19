"""Calibration metrics over evaluation records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rows import Rows

__all__ = ["pearson", "CalibrationResult", "calibration_report"]


def pearson(xs, ys) -> float | None:
    """Pearson correlation; None when either side holds a single value, or
    its spread about the mean underflows to zero.  A constant side is tested
    as such: its deviations from an inexact mean are not all zero."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("need at least two points")
    if x.min() == x.max() or y.min() == y.max():
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(xc @ yc / (sx * sy))


@dataclass(frozen=True)
class CalibrationResult:
    """Correlation between map confidence and localization accuracy."""

    r: float | None

    @property
    def defined(self) -> bool:
        return self.r is not None


def calibration_report(records: Rows) -> CalibrationResult:
    """Pearson r between peak weight and negated error over evaluate()'s
    records: higher confidence should mean lower error for a
    well-calibrated model.  Undefined for fewer than two records."""
    if len(records) < 2:
        return CalibrationResult(None)
    return CalibrationResult(pearson(records.column("peak"), -records.column("error")))
