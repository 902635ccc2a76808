"""Per-lag q-Gaussian fits, the beta(t) scaling law, and the data collapse.

Every fit is a binned Poisson likelihood on the samples (Baker & Cousins,
Nucl. Instrum. Meth. 221, 1984). ``bin_samples`` counts a lag's |x| once,
into an inner bin from 0, bins between edges at ``EDGE_SCALES`` times the
lag's scale, and an outer bin to infinity. A bin's model mass is an exact
difference of ``qgauss.tail_mass``, the Student-t form of the q-Gaussian,
so no kernel, floor or grid span enters the model. The residuals are
signed Poisson deviance residuals, each fit is one least-squares solve
with a finite-difference Jacobian, and its standard errors come from
(J^T J)^-1 with no rescale.

``fit_qgauss`` fits (q, log beta) to one lag. ``fit_collapsed`` fits one
zone's lags jointly in (q, alpha, log D) with beta(t) = (D t)^(-2/alpha),
started from ``fit_beta_law`` on the lag fits. A zone-A lag is fitted
inside its window |x| < b(t): its bins stop at b(t) and its model masses
are conditioned on the window. The KDE grids only draw the collapse
clouds (``collapse_pdfs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from qdiff._loglog import FitError, loglog_fit
from qdiff.io import write_array, write_json
from qdiff.qgauss import Q_FIT_BOUNDS, QParams, ScalingLaw, grid_mass, tail_mass

__all__ = [
    "CollapseResult",
    "FitError",
    "LagBins",
    "LagFit",
    "bin_samples",
    "collapse_payload",
    "collapse_pdfs",
    "collapse_spread",
    "collapse_zone",
    "fit_beta_law",
    "fit_collapsed",
    "fit_qgauss",
]

# Bin edges in units of a lag's scale; with the inner bin from 0 and the
# outer bin to infinity, a lag has 120 bins.
EDGE_SCALES = np.geomspace(1e-3, 2e4, 119)
MIN_FILLED_BINS = 10  # a lag fit needs this many bins that hold counts
START_Q = 1.5         # q of a lag fit's start
MAX_ITER = 500
# least model count of a bin: keeps the deviance of a count where the model
# underflows to 0 finite
MIN_EXPECTED = 1e-300


@dataclass(frozen=True, eq=False)
class LagBins:
    """One lag's |x| counted into bins.

    Bin k holds edges[k - 1] <= |x| < edges[k], and bin 0 starts at 0. The
    last edge is infinity, or a window edge on which the model is then
    conditioned (``below``). ``scale`` is the lag scale that the edges are
    multiples of.
    """

    lag: float
    scale: float
    edges: np.ndarray
    counts: np.ndarray

    def below(self, window: float) -> LagBins:
        """The bins under ``window``, which must be one of the edges, such
        as the ``cut`` of ``bin_samples``."""
        at = np.flatnonzero(self.edges == window)
        if at.size == 0:
            raise ValueError(f"window {window!r} is not a bin edge of lag {self.lag:g}")
        k = int(at[0]) + 1
        return LagBins(self.lag, self.scale, self.edges[:k], self.counts[:k])


def bin_samples(x, lag: float, scale: float, cut: float | None = None) -> LagBins:
    """Count |x| into bins on edges at ``EDGE_SCALES`` times ``scale``.

    ``cut`` adds one more edge, a window that ``LagBins.below`` can then
    take without counting again.
    """
    edges = scale * EDGE_SCALES
    if cut is not None:
        edges = np.sort(np.append(edges, cut))
    edges = np.append(edges, math.inf)
    counts, _ = np.histogram(np.abs(x), np.concatenate(([0.0], edges)))
    return LagBins(float(lag), float(scale), edges, counts)


class _Counts:
    """The bins of one or more lags, flattened so that one ufunc call gives
    every model mass."""

    def __init__(self, bins) -> None:
        sizes = np.array([b.counts.size for b in bins])
        ends = np.cumsum(sizes)
        starts = ends - sizes
        self.edges = np.concatenate([b.edges for b in bins])
        self.counts = np.concatenate([b.counts for b in bins]).astype(float)
        self.lag_of = np.repeat(np.arange(sizes.size), sizes)
        # where each bin's lower tail mass sits in the upper ones with 1.0
        # appended: a lag's first bin starts at 0, where the tail mass is 1
        self.lower = np.arange(self.edges.size) - 1
        self.lower[starts] = self.edges.size
        self.last = ends - 1
        self.n = np.add.reduceat(self.counts, starts)

    @property
    def size(self) -> int:
        return self.counts.size

    def residuals(self, q: float, log_beta: np.ndarray) -> np.ndarray:
        """Signed Poisson deviance residuals at q and one log beta per lag."""
        tail = tail_mass(q, np.exp(log_beta)[self.lag_of], self.edges)
        mass = np.append(tail, 1.0)[self.lower] - tail
        # each lag's model is conditioned on its window, of mass 1 - tail
        # at its last edge (1 for an edge at infinity)
        mu = np.maximum(mass * (self.n / (1.0 - tail[self.last]))[self.lag_of], MIN_EXPECTED)
        c = self.counts
        dev = 2.0 * (mu - c + scipy.special.xlogy(c, c / mu))
        return np.sign(c - mu) * np.sqrt(np.maximum(dev, 0.0))


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, loaded on the first fit rather than on import."""
    return scipy.optimize.least_squares(*args, **kwargs)


def _solve(resid, x0, lower, upper):
    """One least-squares solve of deviance residuals: the solution and the
    standard errors from (J^T J)^-1. FitError unless it converged."""
    sol = least_squares(resid, np.asarray(x0, dtype=float), bounds=(lower, upper),
                        method="trf", max_nfev=MAX_ITER)
    if sol.status <= 0 or not np.all(np.isfinite(sol.x)):
        raise FitError(f"least-squares fit did not converge (status {sol.status})")
    try:
        stderr = np.sqrt(np.maximum(np.diag(np.linalg.inv(sol.jac.T @ sol.jac)), 0.0))
    except np.linalg.LinAlgError:
        stderr = np.full(sol.x.size, math.nan)
    return sol, stderr


@dataclass(frozen=True)
class LagFit:
    """Fitted q-Gaussian for one lag, with its misfit and errors.

    ``fit_residual`` is the rms deviance residual over the lag's bins.
    ``grid_mass`` is the mass of the fitted density inside the lag's KDE
    grid; ``collapse_pdfs`` uses it to undo the truncation renormalization
    before pooling lags estimated over different spans. ``nfev`` and
    ``status`` describe the solve (function evaluations, the least-squares
    status), ``deviance`` is its Poisson deviance and ``n_bins`` the number
    of bins that hold counts. These five go to the run report, not to
    ``lag_fits.json``.
    """

    lag: float
    params: QParams
    fit_residual: float
    n_samples: int
    q_err: float = 0.0
    beta_err: float = 0.0
    at_boundary: bool = False
    grid_mass: float = 1.0
    nfev: int = 0
    status: int = 0
    deviance: float = 0.0
    n_bins: int = 0

    def __post_init__(self) -> None:
        if self.fit_residual < 0.0:
            raise ValueError("fit residual must be nonnegative")
        if not (0.0 < self.grid_mass <= 1.0 + 1e-9):
            raise ValueError(f"grid mass must lie in (0, 1], got {self.grid_mass!r}")


@dataclass(frozen=True)
class CollapseResult:
    """Joint fit of one zone's lags: master-curve q and the scaling law.

    ``collapse_residual`` is the rms deviance residual and ``n_points`` the
    number of bins fitted.
    """

    q: float
    scaling: ScalingLaw
    collapse_residual: float
    zone: str
    q_err: float = 0.0
    n_points: int = 0
    alpha_err: float = 0.0
    d_coef_err: float = 0.0

    def __post_init__(self) -> None:
        if self.collapse_residual < 0.0:
            raise ValueError("collapse residual must be nonnegative")
        if self.zone not in ("A", "C"):
            raise ValueError(f"zone must be 'A' or 'C', got {self.zone!r}")


def fit_qgauss(bins: LagBins, span: tuple[float, float] = (-math.inf, math.inf)) -> LagFit:
    """Fit (q, log beta) to one lag's bins in one solve.

    The start is q = ``START_Q`` with the beta whose 25% quantile of |x| is
    the lag's scale. ``span`` is the lag's KDE grid, for ``grid_mass``.
    Fits that end on the q-domain boundary are flagged, not rejected; an
    exact Gaussian legitimately fits at the lower edge. FitError when fewer
    than ``MIN_FILLED_BINS`` bins hold counts, and when the fitted width
    1/sqrt(beta) is below the innermost edge, which the bins cannot
    resolve.
    """
    filled = int(np.count_nonzero(bins.counts))
    if filled < MIN_FILLED_BINS:
        raise FitError(f"need >= {MIN_FILLED_BINS} bins holding counts, got {filled}")
    counts = _Counts([bins])
    nu = (3.0 - START_Q) / (START_Q - 1.0)
    z = float(scipy.special.stdtrit(nu, 0.625))  # F(z) = 0.625: P(|X| < z) = 0.25
    log_beta0 = 2.0 * math.log(z / bins.scale) - math.log(3.0 - START_Q)
    sol, stderr = _solve(lambda theta: counts.residuals(theta[0], theta[1:]),
                         [START_Q, log_beta0], [Q_FIT_BOUNDS[0], -math.inf],
                         [Q_FIT_BOUNDS[1], math.inf])
    q_hat = float(sol.x[0])
    beta_hat = math.exp(sol.x[1])
    width = 1.0 / math.sqrt(beta_hat)
    if width < bins.edges[0]:
        raise FitError(f"q-Gaussian fit is degenerate: width {width:.3g} "
                       f"below the innermost bin edge {bins.edges[0]:.3g}")
    deviance = 2.0 * float(sol.cost)
    return LagFit(
        lag=bins.lag,
        params=QParams(q=q_hat, beta=beta_hat),
        fit_residual=math.sqrt(deviance / counts.size),
        n_samples=int(counts.n[0]),
        q_err=float(stderr[0]),
        beta_err=float(beta_hat * stderr[1]),
        at_boundary=(q_hat - Q_FIT_BOUNDS[0] < 5e-6) or (Q_FIT_BOUNDS[1] - q_hat < 5e-6),
        grid_mass=grid_mass(q_hat, beta_hat, span[0], span[1]),
        nfev=int(sol.nfev),
        status=int(sol.status),
        deviance=deviance,
        n_bins=filled,
    )


def fit_beta_law(fits) -> ScalingLaw:
    """Scaling law from the power-law decay beta = (D t)^(-2/alpha).

    In log space the slope is -2/alpha and the intercept -(2/alpha) log D,
    both from an ordinary least-squares fit weighting lags uniformly in
    log t; the start of a zone fit. Raises FitError when beta does not
    decay (no scaling).
    """
    rows = [(f.lag, f.params.beta) for f in fits]
    if len(rows) < 3:
        raise FitError(f"need >= 3 lag fits, got {len(rows)}")
    t = np.asarray([r[0] for r in rows])
    beta = np.asarray([r[1] for r in rows])
    if np.any(beta <= 0.0):
        raise FitError("nonpositive beta values cannot define a scaling law")
    fit = loglog_fit(t, beta)
    if fit.slope >= -1e-12:
        raise FitError(
            f"beta slope {fit.slope!r} is not negative; widths do not grow with t"
        )
    alpha = -2.0 / fit.slope
    log_d = fit.intercept / fit.slope
    return ScalingLaw(alpha=alpha, d_coef=math.exp(log_d))


def collapse_pdfs(pdfs, scaling: ScalingLaw, restriction=None,
                  grid_masses=None) -> np.ndarray:
    """Pool rescaled points (x/w(t), P * w(t), t) across lags.

    ``restriction`` is an optional callable (t, x_array) -> bool mask
    selecting which grid points of each lag participate (used to keep
    zone-C points out of bump fits and vice versa). ``grid_masses`` maps
    lag -> in-grid probability mass (from LagFit.grid_mass); when given,
    each lag's density is multiplied by its mass, undoing the truncation
    renormalization so that pooled levels are mutually consistent.
    """
    rows = []
    for p in pdfs:
        w = float(scaling.width(p.lag))
        mask = np.ones(p.grid.size, dtype=bool)
        if restriction is not None:
            mask = np.asarray(restriction(p.lag, p.grid), dtype=bool)
        scale = w
        if grid_masses is not None:
            scale = w * float(grid_masses[p.lag])
        x_r = p.grid[mask] / w
        dens_r = p.density[mask] * scale
        lag_col = np.full(x_r.size, p.lag)
        rows.append(np.column_stack([x_r, dens_r, lag_col]))
    if not rows:
        return np.empty((0, 3))
    return np.vstack(rows)


def collapse_spread(points: np.ndarray, n_grid: int = 512) -> float:
    """RMS spread of per-lag log-density interpolants on a common grid.

    Zero (to rounding) when the lags collapse exactly onto one master
    curve; grows quickly when the scaling exponents are wrong. Only the
    x-range covered by at least two lags contributes.
    """
    if points.shape[0] == 0:
        return 0.0
    lags = np.unique(points[:, 2])
    if lags.size < 2:
        return 0.0
    curves = []
    los, his = [], []
    for t in lags:
        sel = points[:, 2] == t
        x = points[sel, 0]
        y = points[sel, 1]
        pos = y > 0.0
        x, y = x[pos], y[pos]
        order = np.argsort(x)
        curves.append((x[order], np.log(y[order])))
        los.append(x.min())
        his.append(x.max())
    lo = sorted(los)[1]   # covered by at least two lags
    hi = sorted(his)[-2]
    if not (lo < hi):
        return 0.0
    grid = np.linspace(lo, hi, n_grid)
    stack = []
    for x, logy in curves:
        vals = np.interp(grid, x, logy, left=np.nan, right=np.nan)
        stack.append(vals)
    stack = np.asarray(stack)
    counts = np.sum(np.isfinite(stack), axis=0)
    usable = counts >= 2
    if not np.any(usable):
        return 0.0
    mean = np.nanmean(stack[:, usable], axis=0)
    dev = stack[:, usable] - mean
    return float(np.sqrt(np.nanmean(dev**2)))


def fit_collapsed(bins, start: ScalingLaw, q0: float, zone: str = "C") -> CollapseResult:
    """Fit one zone's lags jointly: (q, alpha, log D), with beta(t) =
    (D t)^(-2/alpha) at each lag, in one solve from q0 and ``start``.

    ``bins`` are the zone's ``LagBins``, windowed where the zone is.
    Needs >= 3 lags.
    """
    if len(bins) < 3:
        raise FitError(f"need >= 3 lags, got {len(bins)}")
    counts = _Counts(bins)
    log_t = np.log([b.lag for b in bins])

    def resid(theta):
        q, alpha, log_d = theta
        return counts.residuals(q, -(2.0 / alpha) * (log_d + log_t))

    sol, stderr = _solve(resid, [q0, start.alpha, math.log(start.d_coef)],
                         [Q_FIT_BOUNDS[0], 0.0, -math.inf], [Q_FIT_BOUNDS[1], math.inf, math.inf])
    q, alpha, log_d = (float(v) for v in sol.x)
    d_coef = math.exp(log_d)
    return CollapseResult(
        q=q,
        scaling=ScalingLaw(alpha=alpha, d_coef=d_coef),
        collapse_residual=math.sqrt(2.0 * float(sol.cost) / counts.size),
        zone=zone,
        q_err=float(stderr[0]),
        n_points=counts.size,
        alpha_err=float(stderr[1]),
        d_coef_err=float(d_coef * stderr[2]),
    )


def collapse_zone(pdfs, bins, fits, zone: str, restriction=None) -> tuple[np.ndarray, CollapseResult]:
    """One zone's data collapse: the zone fit and its pooled cloud.

    ``fits`` are the lag fits of the zone's lags; the beta law fitted to
    them and their median q start the zone fit of ``bins``. The cloud
    pools ``pdfs`` under the fitted law, each lag's density scaled by its
    fit's grid mass, and ``restriction`` is passed on to ``collapse_pdfs``.
    """
    start = fit_beta_law(fits)
    result = fit_collapsed(bins, start, float(np.median([f.params.q for f in fits])), zone=zone)
    points = collapse_pdfs(pdfs, result.scaling, restriction=restriction,
                           grid_masses={f.lag: f.grid_mass for f in fits})
    return points, result


# --- serialization -----------------------------------------------------

def write_lag_fits_json(fits, path) -> None:
    """``lag_fits.json``: one object per lag fit (``LagFit`` says which
    fields the run report holds instead)."""
    write_json(path, [
        {"lag": f.lag, "q": f.params.q, "beta": f.params.beta,
         "fit_residual": f.fit_residual, "n_samples": f.n_samples, "q_err": f.q_err,
         "beta_err": f.beta_err, "at_boundary": f.at_boundary}
        for f in fits
    ])


def collapse_payload(result: CollapseResult) -> dict:
    """The JSON fields of one zone's collapse result."""
    return {
        "q": result.q,
        "alpha": result.scaling.alpha,
        "d_coef": result.scaling.d_coef,
        "collapse_residual": result.collapse_residual,
        "zone": result.zone,
        "q_err": result.q_err,
        "alpha_err": result.alpha_err,
        "d_coef_err": result.d_coef_err,
        "n_points": result.n_points,
    }


def write_collapsed_csv(points: np.ndarray, path) -> None:
    """Rescaled point cloud as an (n, 3) float64 ``.npy`` array at exactly
    ``path``, columns x_rescaled, p_rescaled, lag.

    The name predates the ``.npy`` format.
    """
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be a 2-d array with 3 columns, got shape {points.shape}")
    write_array(path, points)
