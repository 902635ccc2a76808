"""Least squares of log y against log x, with standard errors, and the
error every fit in the package raises."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """A fit did not converge, or the data admit no meaningful result."""


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    slope_err: float
    intercept_err: float
    residual_rms: float
    n_points: int


def loglog_fit(x, y) -> LogLogFit:
    """Fit log y = intercept + slope * log x by ordinary least squares."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 points for a power-law fit, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fits require strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - design @ coef
    dof = max(x.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return LogLogFit(
        slope=slope,
        intercept=intercept,
        slope_err=float(np.sqrt(cov[0, 0])),
        intercept_err=float(np.sqrt(cov[1, 1])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(x.size),
    )
