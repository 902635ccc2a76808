"""Gridded density estimation of return ensembles and derived series.

The estimator is a Gaussian-kernel KDE evaluated by linear binning plus
FFT convolution, which is exact at the grid nodes for node-aligned
samples and fast enough for millions of samples per lag. Estimates are
renormalized to unit trapezoid integral after grid truncation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from qdiff.io import write_json, write_table

__all__ = [
    "EmpiricalPdf",
    "MomentSeries",
    "kde",
    "pdf_height",
    "second_moment",
]

DEFAULT_BANDWIDTH = 0.005  # in the x-units of the ingested returns
DEFAULT_GRID_POINTS = 2**13 + 1


@dataclass(frozen=True)
class EmpiricalPdf:
    """Density estimate on a strictly increasing grid at one time lag."""

    lag: float
    grid: np.ndarray
    density: np.ndarray
    n_samples: int
    bandwidth: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", dens)
        if grid.ndim != 1 or dens.shape != grid.shape or grid.size < 3:
            raise ValueError("grid and density must be matching 1-d arrays (>= 3 points)")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(dens < 0.0):
            raise ValueError("density must be nonnegative")
        integral = np.trapezoid(dens, grid)
        if abs(integral - 1.0) > 1e-6:
            raise ValueError(f"density must integrate to 1 within 1e-6, got {integral!r}")

    @classmethod
    def from_function(cls, func, grid, lag: float, n_samples: int = 0,
                      bandwidth: float = 0.0) -> "EmpiricalPdf":
        """Evaluate an analytic density on a grid and renormalize it there."""
        grid = np.asarray(grid, dtype=float)
        dens = np.asarray(func(grid), dtype=float)
        dens = dens / np.trapezoid(dens, grid)
        return cls(lag=lag, grid=grid, density=dens, n_samples=n_samples,
                   bandwidth=bandwidth)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])


def _resolve_grid(x: np.ndarray, bandwidth: float, grid) -> np.ndarray:
    if grid is None or isinstance(grid, int):
        n = DEFAULT_GRID_POINTS if grid is None else int(grid)
        half = max(10.0 * float(np.std(x)), float(np.max(np.abs(x))))
        if half <= 0.0:
            half = 10.0 * bandwidth  # degenerate sample sets (all identical)
        return np.linspace(-half, half, n)
    if isinstance(grid, tuple):
        if len(grid) == 2:
            lo, hi = grid
            n = DEFAULT_GRID_POINTS
        else:
            lo, hi, n = grid
        return np.linspace(float(lo), float(hi), int(n))
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise ValueError("explicit grid must be a 1-d array with >= 3 points")
    steps = np.diff(g)
    if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError("explicit grid must be uniform and increasing")
    return g


def kde(ensemble, bandwidth: float = DEFAULT_BANDWIDTH, grid=None) -> EmpiricalPdf:
    """Gaussian-kernel density estimate of a return ensemble.

    ``ensemble`` is a ReturnEnsemble or a plain sample array. ``grid``
    selects the evaluation nodes: None for the default symmetric span
    max(10 * std, max|x|) with 2^13 + 1 points, an int for that span with
    a custom point count, a (lo, hi[, n]) tuple, or an explicit uniform
    array. Samples falling outside an explicit grid are dropped and the
    result is renormalized over the grid.
    """
    if hasattr(ensemble, "returns"):
        x = np.asarray(ensemble.returns, dtype=float)
        lag = float(ensemble.lag)
    else:
        x = np.asarray(ensemble, dtype=float)
        lag = 0.0
    if x.size == 0:
        raise ValueError("cannot estimate a density from an empty ensemble")
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")

    g = _resolve_grid(x, bandwidth, grid)
    dx = g[1] - g[0]
    inside = x[(x >= g[0]) & (x <= g[-1])]
    if inside.size == 0:
        raise ValueError("no samples fall inside the requested grid")

    # Linear binning: each sample splits its weight over the two
    # enclosing nodes, preserving first moments and making node-aligned
    # samples exact.
    pos = (inside - g[0]) / dx
    i0 = np.minimum(pos.astype(np.int64), g.size - 2)
    frac = pos - i0
    counts = np.bincount(i0, weights=1.0 - frac, minlength=g.size)
    counts += np.bincount(i0 + 1, weights=frac, minlength=g.size)

    radius = int(min(np.ceil(10.0 * bandwidth / dx), g.size - 1))
    offsets = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2) / (bandwidth * math.sqrt(2.0 * math.pi))
    dens = fftconvolve(counts, kernel, mode="same") / inside.size
    dens = np.maximum(dens, 0.0)
    dens /= np.trapezoid(dens, g)
    return EmpiricalPdf(lag=lag, grid=g, density=dens, n_samples=int(x.size),
                        bandwidth=float(bandwidth))


def pdf_height(p: EmpiricalPdf) -> tuple[float, float]:
    """Grid argmax of the density; ties resolve to the smallest |x|."""
    peak = float(np.max(p.density))
    ties = np.flatnonzero(p.density == peak)
    idx = ties[np.argmin(np.abs(p.grid[ties]))]
    return float(p.grid[idx]), peak


def second_moment(p: EmpiricalPdf, window: float) -> float:
    """Trapezoid integral of x^2 P(x) over [-window, window]."""
    if window <= 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    if window > -p.grid[0] + p.dx * 1e-6 or window > p.grid[-1] + p.dx * 1e-6:
        raise ValueError(
            f"window {window!r} exceeds the grid extent [{p.grid[0]!r}, {p.grid[-1]!r}]"
        )
    mask = np.abs(p.grid) <= window * (1.0 + 1e-12)
    x = p.grid[mask]
    return float(np.trapezoid(x * x * p.density[mask], x))


@dataclass(frozen=True)
class MomentSeries:
    """Truncated second moment of the pdf per lag, with its window."""

    lags: np.ndarray
    second_moment: np.ndarray
    window: np.ndarray

    def __post_init__(self) -> None:
        lags = np.asarray(self.lags, dtype=float)
        mom = np.asarray(self.second_moment, dtype=float)
        win = np.asarray(self.window, dtype=float)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "second_moment", mom)
        object.__setattr__(self, "window", win)
        if not (lags.shape == mom.shape == win.shape):
            raise ValueError("lags, second_moment and window must have equal length")
        if np.any(mom < 0.0):
            raise ValueError("second moments must be nonnegative")


# --- serialization -----------------------------------------------------

def write_pdf_csv(p: EmpiricalPdf, path) -> None:
    """Write (x, density) rows plus a JSON sidecar with the metadata."""
    path = Path(path)
    write_table(path, ["x", "density"], np.column_stack([p.grid, p.density]))
    sidecar = {"lag": p.lag, "n_samples": p.n_samples, "bandwidth": p.bandwidth}
    write_json(path.with_suffix(".json"), sidecar)


def read_pdf_csv(path) -> EmpiricalPdf:
    path = Path(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    meta_path = path.with_suffix(".json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return EmpiricalPdf(
        lag=float(meta.get("lag", 0.0)),
        grid=data[:, 0],
        density=data[:, 1],
        n_samples=int(meta.get("n_samples", 0)),
        bandwidth=float(meta.get("bandwidth", 0.0)),
    )


def write_moment_csv(series: MomentSeries, path) -> None:
    write_table(path, ["lag", "second_moment", "window"],
                np.column_stack([series.lags, series.second_moment, series.window]))
