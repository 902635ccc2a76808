"""Gridded density estimation of return ensembles and derived series.

The estimator is a Gaussian-kernel KDE evaluated by linear binning plus
FFT convolution, which is exact at the grid nodes for node-aligned
samples and fast enough for millions of samples per lag. The convolution
is a real FFT from ``scipy.fft`` at the next fast length, the same steps
and bits as ``fftconvolve(..., mode="same")``. Estimates are
renormalized to unit trapezoid integral after grid truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from qdiff.io import write_array, write_table

__all__ = [
    "EmpiricalPdf",
    "kde",
    "pdf_height",
    "second_moment",
]

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


def _convolve_same(counts: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear convolution of ``counts`` with ``kernel``, centered to ``counts.size``."""
    full = counts.size + kernel.size - 1
    n = scipy.fft.next_fast_len(full, True)
    out = scipy.fft.irfft(scipy.fft.rfft(counts, n) * scipy.fft.rfft(kernel, n), n)
    return out[(full - counts.size) // 2:][:counts.size]


def kde(ensemble, bandwidth: float, grid: tuple[float, float, int]) -> EmpiricalPdf:
    """Gaussian-kernel density estimate of a return ensemble.

    ``ensemble`` is a ReturnEnsemble or a plain sample array. ``grid`` is
    ``(lo, hi, n)``: n uniform nodes from lo to hi. Samples falling outside
    the grid are dropped and the result is renormalized over the grid.
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

    lo, hi, n = grid
    if not (lo < hi and n >= 3):
        raise ValueError(f"grid must be (lo, hi, n) with lo < hi and n >= 3, got {grid!r}")
    g = np.linspace(float(lo), float(hi), int(n))
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
    dens = _convolve_same(counts, kernel) / inside.size
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


def second_moment(x, window: float) -> float:
    """Sum of x^2 over the samples with |x| <= window, divided by the
    number of all samples."""
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    x = np.asarray(x, dtype=float)
    v = x[np.abs(x) <= window]
    # numpy's pairwise sum, whose bits do not depend on a BLAS thread count
    return float(np.sum(v * v)) / x.size


# --- serialization -----------------------------------------------------

def write_pdf_csv(p: EmpiricalPdf, path) -> None:
    """Write the (x, density) grid as an (n, 2) float64 ``.npy`` array at
    exactly ``path``, plus a JSON sidecar with the metadata.

    The name predates the ``.npy`` format; the pipeline names the file
    ``pdf_NNNNNN.npy``.
    """
    write_array(path, np.column_stack([p.grid, p.density]),
                {"lag": p.lag, "n_samples": p.n_samples, "bandwidth": p.bandwidth})


def write_moment_csv(rows, path) -> None:
    """Write (lag, second_moment, window) rows as a CSV table."""
    write_table(path, ["lag", "second_moment", "window"], rows)
