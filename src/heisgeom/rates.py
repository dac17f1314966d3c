"""Log-log convergence-rate fitting shared by the coordinate, approximation
and groupoid checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RateError(ValueError):
    """Not enough usable residuals to fit a rate."""


def rate_fit(ts, residuals, zero_floor: float, slope_min: float) -> float:
    """Least-squares slope of log residual against log t at the small-t end.

    Residuals at or below `zero_floor` are treated as exactly zero; when all
    of them vanish the decay is reported as exact (slope = +inf).  When fewer
    than four exceed it, every positive residual is fitted: noise under the
    floor is flat or rises as t falls, so it still fails.  Fewer than four
    positive residuals raise.  On the decreasing t grid, the fit takes the
    longest small-t suffix of the fitted residuals in which every local slope
    log(r_k / r_{k+1}) / log(t_k / t_{k+1}) is at least `slope_min`, and
    never fewer than the last four.  A least-squares slope is an average of
    the local slopes with positive weights, so when four or more points
    qualify the fit is >= `slope_min`: the small-t end decides, not a
    pre-asymptotic head.  A clean trace is fitted whole.
    """
    ts = np.asarray(ts, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if ts.shape != residuals.shape or ts.ndim != 1:
        raise RateError("need matching 1-d arrays of t values and residuals")
    if np.any(ts <= 0) or np.any(residuals < 0):
        raise RateError("t values must be positive and residuals nonnegative")
    keep = residuals > zero_floor
    if not np.any(keep):
        return math.inf
    keep = keep if keep.sum() >= 4 else residuals > 0
    if keep.sum() < 4:
        raise RateError(f"only {int(keep.sum())} positive residuals; need >= 4")
    log_t, log_r = np.log(ts[keep]), np.log(residuals[keep])
    low = np.flatnonzero(np.diff(log_r) / np.diff(log_t) < slope_min)
    start = min(low[-1] + 1 if low.size else 0, len(log_t) - 4)
    slope, _ = np.polyfit(log_t[start:], log_r[start:], 1)
    return float(slope)


@dataclass(frozen=True)
class RateReport:
    """Residual trace with the fitted decay rate and a pass/fail verdict."""

    ts: tuple
    residuals: tuple
    slope: float
    slope_min: float

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        if np.any(np.diff(ts) >= 0):
            raise RateError("t grid must be strictly decreasing")
        if np.any(np.asarray(self.residuals) < 0):
            raise RateError("negative residual")

    @property
    def exact(self) -> bool:
        return math.isinf(self.slope)

    @property
    def passed(self) -> bool:
        return self.slope >= self.slope_min

    @property
    def max_residual(self) -> float:
        return float(max(self.residuals))


def fit_report(ts, residuals, slope_min: float, zero_floor: float) -> RateReport:
    slope = rate_fit(ts, residuals, zero_floor, slope_min)
    return RateReport(tuple(float(t) for t in ts), tuple(float(r) for r in residuals), slope, slope_min)


def default_t_grid(kmin: int, kmax: int) -> np.ndarray:
    """Decreasing geometric grid t = 2^-k, k = kmin..kmax."""
    return 2.0 ** (-np.arange(kmin, kmax + 1, dtype=float))
