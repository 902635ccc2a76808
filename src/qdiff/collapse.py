"""Per-lag q-Gaussian fits, the beta(t) scaling law, and the data collapse.

Fits are least squares in log-density space (balances tails and center on
the log-scale plots the results are judged on) over grid points whose
density exceeds a floor. Each fit evaluates its residual at a grid of q
starts and runs one solve from the best, which starts it past the q/beta
trade-off valley. The gradient in (q, log beta) is analytic for the log
density and a central difference for the log window mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from qdiff._loglog import FitError, loglog_fit
from qdiff.density import EmpiricalPdf
from qdiff.io import write_array, write_json
from qdiff.qgauss import (
    Q_FIT_BOUNDS,
    QParams,
    ScalingLaw,
    grid_mass,
    log_qgauss,
    log_qgauss_jac,
)

__all__ = [
    "CollapseResult",
    "FitError",
    "LagFit",
    "collapse_payload",
    "collapse_pdfs",
    "collapse_spread",
    "collapse_zone",
    "fit_beta_law",
    "fit_collapsed",
    "fit_qgauss",
]

# q of the starts each fit screens
SCREEN_Q = (1.05, 1.15, 1.25, 1.35, 1.45, 1.55, 1.65, 1.75, 1.85, 1.95,
            2.05, 2.15, 2.25, 2.35, 2.45, 2.55, 2.65, 2.75, 2.85, 2.95)
MAX_ITER = 500
DENSITY_FLOOR = 1e-6  # relative to the peak; below this points carry no weight
FIT_FLOOR_COUNTS = 50.0  # kernel counts below which a KDE grid point is not fitted


@dataclass(frozen=True)
class LagFit:
    """Fitted q-Gaussian for one lag, with log-space misfit and errors.

    ``grid_mass`` is the mass of the fitted density inside the estimation
    grid; collapse routines use it to undo the truncation renormalization
    before pooling lags estimated over different spans. ``nfev``,
    ``status`` and ``start_q`` describe the solve (function evaluations,
    the least-squares status, the screen q it started from). These four
    go to the run report, not to ``lag_fits.json``.
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
    start_q: float = math.nan

    def __post_init__(self) -> None:
        if self.fit_residual < 0.0:
            raise ValueError("fit residual must be nonnegative")
        if not (0.0 < self.grid_mass <= 1.0 + 1e-9):
            raise ValueError(f"grid mass must lie in (0, 1], got {self.grid_mass!r}")


@dataclass(frozen=True)
class CollapseResult:
    """Master-curve fit of pooled rescaled densities for one zone."""

    q: float
    scaling: ScalingLaw
    collapse_residual: float
    zone: str
    q_err: float = 0.0
    n_points: int = 0

    def __post_init__(self) -> None:
        if self.collapse_residual < 0.0:
            raise ValueError("collapse residual must be nonnegative")
        if self.zone not in ("A", "C"):
            raise ValueError(f"zone must be 'A' or 'C', got {self.zone!r}")


def _log_grid_mass(q: float, log_beta: float, span: tuple[float, float]) -> float:
    return math.log(grid_mass(q, math.exp(log_beta), span[0], span[1]))


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, loaded on the first fit rather than on import."""
    return scipy.optimize.least_squares(*args, **kwargs)


def _fit_log_density(
    x: np.ndarray,
    log_dens: np.ndarray,
    *,
    x_half: float | None = None,
    span: tuple[float, float] | None = None,
) -> tuple:
    """Shared optimizer: returns (least-squares result, rms, stderr, start q).

    One solve runs from the ``SCREEN_Q`` start with the smallest sum of
    squares. With ``x_half`` the inverse width is fitted too, and each
    screen q takes the beta that puts half the peak at ``x_half``;
    without it beta is pinned at 1.

    When ``span`` is given, the model is the q-Gaussian conditioned on
    that window (density renormalized over it), matching estimates built
    on truncated grids; heavy-tailed members hold large mass outside any
    finite span and the unconditioned model misfits them badly.
    """
    x2 = x * x

    def mass_term(q, log_beta):
        return _log_grid_mass(q, log_beta, span) if span is not None else 0.0

    def mass_grad(q, log_beta):
        # Small central differences; the closed-form gradient of the
        # window mass in (q, log beta) is not worth its complexity.
        if span is None:
            return 0.0, 0.0
        hq, hs = 1e-6, 1e-6
        q_lo = max(q - hq, Q_FIT_BOUNDS[0])
        q_hi = min(q + hq, Q_FIT_BOUNDS[1])
        d_q = (_log_grid_mass(q_hi, log_beta, span)
               - _log_grid_mass(q_lo, log_beta, span)) / (q_hi - q_lo)
        d_s = (_log_grid_mass(q, log_beta + hs, span)
               - _log_grid_mass(q, log_beta - hs, span)) / (2.0 * hs)
        return d_q, d_s

    n_par = 1 if x_half is None else 2

    def unpack(theta):
        return theta[0], (theta[1] if n_par == 2 else 0.0)

    def resid(theta):
        q, log_beta = unpack(theta)
        return log_qgauss(x2, q, log_beta) - mass_term(q, log_beta) - log_dens

    def jac(theta):
        q, log_beta = unpack(theta)
        j = log_qgauss_jac(x2, q, log_beta)[:, :n_par]
        j -= np.asarray(mass_grad(q, log_beta))[:n_par]
        return j

    def screen_start(q0):
        if x_half is None:
            return np.array([q0])
        return np.array([q0, math.log((2.0 ** (q0 - 1.0) - 1.0) / ((q0 - 1.0) * x_half**2))])

    starts = [screen_start(q0) for q0 in SCREEN_Q]
    costs = [np.sum(resid(theta) ** 2) for theta in starts]
    theta0 = starts[int(np.argmin(costs))]
    bounds = ([Q_FIT_BOUNDS[0], -60.0][:n_par], [Q_FIT_BOUNDS[1], 60.0][:n_par])
    sol = least_squares(
        resid, theta0, jac=jac, bounds=bounds, method="trf", max_nfev=MAX_ITER
    )
    if not np.all(np.isfinite(sol.x)):
        raise FitError("q-Gaussian fit did not produce a finite solution")
    rms = math.sqrt(2.0 * sol.cost / x.size)
    dof = max(x.size - sol.x.size, 1)
    jtj = sol.jac.T @ sol.jac
    try:
        cov = np.linalg.inv(jtj) * (2.0 * sol.cost / dof)
        stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        stderr = np.full(sol.x.size, math.nan)
    return sol, rms, stderr, float(theta0[0])


def _halfwidth(x: np.ndarray, log_dens: np.ndarray) -> float:
    """The smallest |x| > 0 where the data fall to half their peak, else
    the largest |x|."""
    peak = np.max(log_dens)
    ax = np.abs(x)
    # Only x != 0 can set a width: a grid point at 0 lies below half the
    # peak when the density is bimodal.
    below = ax[(log_dens <= peak - math.log(2.0)) & (ax > 0.0)]
    if below.size == 0:
        return max(float(np.max(ax)), 1e-12)
    return float(np.min(below))


def fit_qgauss(p: EmpiricalPdf, restriction: tuple[float, float] | None = None) -> LagFit:
    """Fit (q, beta) to one density in log space.

    ``restriction`` limits the fit to grid points inside an (lo, hi)
    window, e.g. the bump domain for strong-regime fits. Points at or
    below the density floor are excluded: ``FIT_FLOOR_COUNTS`` kernel
    counts, from the sample count and bandwidth every KDE carries, and
    never below ``DENSITY_FLOOR`` of the peak, or ``DENSITY_FLOOR`` of the
    peak for a pdf with no samples or no bandwidth (analytic pdfs). The
    model is conditioned on the estimate's own grid span, since the
    estimate integrates to one there no matter how much tail mass lies
    beyond.
    One least-squares solve starts from the best of the ``SCREEN_Q``
    starts, each with the beta that puts half the peak at the data's
    half-width.
    Fits that end on the q-domain boundary are flagged, not rejected; an
    exact Gaussian legitimately fits at the lower edge. A fit whose width
    1/sqrt(beta) is below the grid spacing, which the grid cannot resolve,
    raises FitError.
    """
    x = p.grid
    dens = p.density
    span = (float(p.grid[0]), float(p.grid[-1]))
    if restriction is not None:
        lo, hi = restriction
        mask = (x >= lo) & (x <= hi)
        x, dens = x[mask], dens[mask]
    peak = float(np.max(p.density))
    floor = DENSITY_FLOOR
    if p.n_samples > 0 and p.bandwidth > 0.0:
        counts = FIT_FLOOR_COUNTS / (p.n_samples * p.bandwidth * math.sqrt(2.0 * math.pi))
        floor = max(DENSITY_FLOOR, counts / peak)
    keep = dens > floor * peak
    x, dens = x[keep], dens[keep]
    if x.size < 10:
        raise FitError(f"need >= 10 usable grid points, got {x.size}")
    log_dens = np.log(dens)
    sol, rms, stderr, start_q = _fit_log_density(
        x, log_dens, x_half=_halfwidth(x, log_dens), span=span
    )
    if sol.status <= 0:
        raise FitError("q-Gaussian fit did not converge within the iteration cap")
    q_hat = float(sol.x[0])
    beta_hat = math.exp(sol.x[1])
    width = 1.0 / math.sqrt(beta_hat)
    if width < p.dx:
        raise FitError(f"q-Gaussian fit is degenerate: width {width:.3g} "
                       f"below the grid spacing {p.dx:.3g}")
    at_edge = (q_hat - Q_FIT_BOUNDS[0] < 5e-6) or (Q_FIT_BOUNDS[1] - q_hat < 5e-6)
    return LagFit(
        lag=p.lag,
        params=QParams(q=q_hat, beta=beta_hat),
        fit_residual=rms,
        n_samples=p.n_samples,
        q_err=float(stderr[0]),
        beta_err=float(beta_hat * stderr[1]),
        at_boundary=at_edge,
        grid_mass=grid_mass(q_hat, beta_hat, span[0], span[1]),
        nfev=int(sol.nfev),
        status=int(sol.status),
        start_q=start_q,
    )


def fit_beta_law(fits) -> ScalingLaw:
    """Scaling law from the power-law decay beta = (D t)^(-2/alpha).

    In log space the slope is -2/alpha and the intercept -(2/alpha) log D,
    both from an ordinary least-squares fit weighting lags uniformly in
    log t. Raises FitError when beta does not decay (no scaling).
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


def fit_collapsed(points: np.ndarray, scaling: ScalingLaw, zone: str = "C") -> CollapseResult:
    """Fit the master curve of pooled rescaled points to a unit q-Gaussian.

    The inverse-width is pinned to 1, since the rescaling already carries
    the widths. Points at or below ``DENSITY_FLOOR`` of the peak are not
    fitted. Needs >= 50 pooled points.
    """
    if points.shape[0] < 50:
        raise FitError(f"need >= 50 pooled points, got {points.shape[0]}")
    x = points[:, 0]
    dens = points[:, 1]
    keep = dens > DENSITY_FLOOR * float(np.max(dens))
    x, dens = x[keep], dens[keep]
    if x.size < 50:
        raise FitError(f"need >= 50 usable pooled points, got {x.size}")
    sol, rms, stderr, _ = _fit_log_density(x, np.log(dens))
    if sol.status <= 0:
        raise FitError("collapsed fit did not converge within the iteration cap")
    return CollapseResult(
        q=float(sol.x[0]),
        scaling=scaling,
        collapse_residual=rms,
        zone=zone,
        q_err=float(stderr[0]),
        n_points=int(x.size),
    )


def collapse_zone(pdfs, fits, zone: str, restriction=None) -> tuple[np.ndarray, CollapseResult]:
    """One zone's data collapse: the pooled cloud and its master-curve fit.

    ``fits`` are the per-lag fits of ``pdfs``, and the beta law is fitted
    to them. Each lag's density is scaled by its fit's grid mass before
    pooling, and ``restriction`` is passed on to ``collapse_pdfs``.
    """
    scaling = fit_beta_law(fits)
    points = collapse_pdfs(pdfs, scaling, restriction=restriction,
                           grid_masses={f.lag: f.grid_mass for f in fits})
    return points, fit_collapsed(points, scaling, zone=zone)


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
