"""Per-lag q-Gaussian fits, the beta(t) scaling law, and the data collapse.

Fits are least squares in log-density space (balances tails and center on
the log-scale plots the results are judged on) over grid points whose
density exceeds a floor, with analytic gradients in (q, log beta) and a
multi-start over q to escape the q/beta trade-off valley.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import digamma, ndtr, stdtr

from qdiff._loglog import FitError, loglog_fit
from qdiff.density import EmpiricalPdf
from qdiff.io import write_json, write_table
from qdiff.qgauss import QParams, ScalingLaw, log_c_q

__all__ = [
    "CollapseResult",
    "FitError",
    "LagFit",
    "collapse_payload",
    "collapse_pdfs",
    "collapse_spread",
    "fit_beta_law",
    "fit_collapsed",
    "fit_qgauss",
]

Q_BOUNDS = (1.0 + 1e-6, 3.0 - 1e-6)
MULTISTART_Q = (1.2, 1.7, 2.2, 2.7)
MAX_ITER = 500
DENSITY_FLOOR = 1e-6  # relative to the peak; below this points carry no weight


@dataclass(frozen=True)
class LagFit:
    """Fitted q-Gaussian for one lag, with log-space misfit and errors.

    ``grid_mass`` is the mass of the fitted density inside the estimation
    grid; collapse routines use it to undo the truncation renormalization
    before pooling lags estimated over different spans.
    """

    lag: float
    params: QParams
    fit_residual: float
    n_samples: int
    q_err: float = 0.0
    beta_err: float = 0.0
    at_boundary: bool = False
    grid_mass: float = 1.0

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


def _log_qgauss_model(x2: np.ndarray, q: float, log_beta: float) -> np.ndarray:
    beta = math.exp(log_beta)
    qm1 = q - 1.0
    return 0.5 * log_beta - log_c_q(q) - np.log1p(qm1 * beta * x2) / qm1


def grid_mass(q: float, beta: float, lo: float, hi: float) -> float:
    """Probability mass of a q-Gaussian inside [lo, hi].

    Uses the exact Student-t correspondence: a q-Gaussian with 1 < q < 3
    is a t distribution with nu = (3-q)/(q-1) degrees of freedom scaled
    by 1/sqrt((3-q) beta). Heavy-tailed members hold substantial mass
    outside any practical grid, which matters when fitting densities that
    were renormalized over a finite span.

    ``stdtr`` and ``ndtr`` are the ufuncs behind ``scipy.stats.t.cdf`` and
    ``norm.cdf``; called directly they give the same bits without the
    per-call argument handling, which costs far more than the evaluation
    in the fit loops.
    """
    if abs(q - 1.0) <= 1e-8:
        scale = 1.0 / math.sqrt(2.0 * beta)
        return float(ndtr(hi / scale) - ndtr(lo / scale))
    nu = (3.0 - q) / (q - 1.0)
    scale = 1.0 / math.sqrt((3.0 - q) * beta)
    return float(stdtr(nu, hi / scale) - stdtr(nu, lo / scale))


def _log_grid_mass(q: float, log_beta: float, span: tuple[float, float]) -> float:
    return math.log(grid_mass(q, math.exp(log_beta), span[0], span[1]))


def _log_qgauss_jac(x2: np.ndarray, q: float, log_beta: float) -> np.ndarray:
    """Columns: d/dq and d/dlog(beta) of the log density."""
    beta = math.exp(log_beta)
    qm1 = q - 1.0
    u = qm1 * beta * x2
    frac = beta * x2 / (1.0 + u)
    z1 = (3.0 - q) / (2.0 * qm1)
    z2 = 1.0 / qm1
    dlogcq = -0.5 / qm1 + (digamma(z2) - digamma(z1)) / (qm1 * qm1)
    d_q = -dlogcq + np.log1p(u) / (qm1 * qm1) - frac / qm1
    d_s = 0.5 - frac
    return np.column_stack([d_q, d_s])


def _fit_log_density(
    x: np.ndarray,
    log_dens: np.ndarray,
    *,
    fix_beta_one: bool,
    beta_starts: tuple[float, ...] | None = None,
    span: tuple[float, float] | None = None,
) -> tuple[float, float, float, np.ndarray, bool]:
    """Shared optimizer: returns (q, log_beta, rms, stderr, converged).

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
        q_lo = max(q - hq, Q_BOUNDS[0])
        q_hi = min(q + hq, Q_BOUNDS[1])
        d_q = (_log_grid_mass(q_hi, log_beta, span)
               - _log_grid_mass(q_lo, log_beta, span)) / (q_hi - q_lo)
        d_s = (_log_grid_mass(q, log_beta + hs, span)
               - _log_grid_mass(q, log_beta - hs, span)) / (2.0 * hs)
        return d_q, d_s

    if fix_beta_one:
        def resid(theta):
            return _log_qgauss_model(x2, theta[0], 0.0) - mass_term(theta[0], 0.0) - log_dens

        def jac(theta):
            j = _log_qgauss_jac(x2, theta[0], 0.0)[:, :1]
            j[:, 0] -= mass_grad(theta[0], 0.0)[0]
            return j

        bounds = ([Q_BOUNDS[0]], [Q_BOUNDS[1]])
        starts = [np.array([q0]) for q0 in MULTISTART_Q]
    else:
        def resid(theta):
            return (_log_qgauss_model(x2, theta[0], theta[1])
                    - mass_term(theta[0], theta[1]) - log_dens)

        def jac(theta):
            j = _log_qgauss_jac(x2, theta[0], theta[1])
            g_q, g_s = mass_grad(theta[0], theta[1])
            j[:, 0] -= g_q
            j[:, 1] -= g_s
            return j

        bounds = ([Q_BOUNDS[0], -60.0], [Q_BOUNDS[1], 60.0])
        if beta_starts is None:
            beta_starts = (1.0,)
        starts = [
            np.array([q0, math.log(b0)])
            for q0 in MULTISTART_Q
            for b0 in beta_starts
        ]

    best = None
    for theta0 in starts:
        sol = least_squares(
            resid, theta0, jac=jac, bounds=bounds, method="trf", max_nfev=MAX_ITER
        )
        if best is None or sol.cost < best.cost:
            best = sol
    if best is None or not np.all(np.isfinite(best.x)):
        raise FitError("q-Gaussian fit did not produce a finite solution")
    rms = math.sqrt(2.0 * best.cost / x.size)
    dof = max(x.size - best.x.size, 1)
    jtj = best.jac.T @ best.jac
    try:
        cov = np.linalg.inv(jtj) * (2.0 * best.cost / dof)
        stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        stderr = np.full(best.x.size, math.nan)
    q_hat = float(best.x[0])
    log_beta_hat = float(best.x[1]) if not fix_beta_one else 0.0
    converged = bool(best.status > 0)
    return q_hat, log_beta_hat, rms, stderr, converged


def _beta_start_from_halfwidth(x: np.ndarray, log_dens: np.ndarray) -> tuple[float, ...]:
    """Initial inverse-widths from the half-maximum point of the data."""
    peak = np.max(log_dens)
    ax = np.abs(x)
    # Only x != 0 can set a width: a grid point at 0 lies below half the
    # peak when the density is bimodal.
    below = ax[(log_dens <= peak - math.log(2.0)) & (ax > 0.0)]
    if below.size == 0:
        return (1.0 / max(np.max(ax), 1e-12) ** 2,)
    x_half = float(np.min(below))
    starts = []
    for q0 in (1.2, 2.2):
        starts.append((2.0 ** (q0 - 1.0) - 1.0) / ((q0 - 1.0) * x_half**2))
    return tuple(starts)


def fit_qgauss(
    p: EmpiricalPdf,
    restriction: tuple[float, float] | None = None,
    *,
    density_floor: float | None = None,
) -> LagFit:
    """Fit (q, beta) to one density in log space.

    ``restriction`` limits the fit to grid points inside an (lo, hi)
    window, e.g. the bump domain for strong-regime fits. Points below
    the density floor (default 1e-6 of the peak) are excluded. The model
    is conditioned on the estimate's own grid span, since the estimate
    integrates to one there no matter how much tail mass lies beyond.
    Fits that end on the q-domain boundary are flagged, not rejected; an
    exact Gaussian legitimately fits at the lower edge.
    """
    x = p.grid
    dens = p.density
    span = (float(p.grid[0]), float(p.grid[-1]))
    if restriction is not None:
        lo, hi = restriction
        mask = (x >= lo) & (x <= hi)
        x, dens = x[mask], dens[mask]
    floor = (DENSITY_FLOOR if density_floor is None else density_floor) * float(
        np.max(p.density)
    )
    keep = dens > max(floor, 0.0)
    x, dens = x[keep], dens[keep]
    if x.size < 10:
        raise FitError(f"need >= 10 usable grid points, got {x.size}")
    log_dens = np.log(dens)
    q_hat, log_beta, rms, stderr, converged = _fit_log_density(
        x, log_dens, fix_beta_one=False,
        beta_starts=_beta_start_from_halfwidth(x, log_dens),
        span=span,
    )
    if not converged:
        raise FitError("q-Gaussian fit did not converge within the iteration cap")
    beta_hat = math.exp(log_beta)
    at_edge = (q_hat - Q_BOUNDS[0] < 5e-6) or (Q_BOUNDS[1] - q_hat < 5e-6)
    params = QParams(q=q_hat, beta=beta_hat)
    return LagFit(
        lag=p.lag,
        params=params,
        fit_residual=rms,
        n_samples=p.n_samples,
        q_err=float(stderr[0]),
        beta_err=float(beta_hat * stderr[1]) if stderr.size > 1 else 0.0,
        at_boundary=at_edge,
        grid_mass=grid_mass(q_hat, beta_hat, span[0], span[1]),
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


def fit_collapsed(
    points: np.ndarray,
    scaling: ScalingLaw,
    zone: str = "C",
    fix_beta_one: bool = True,
    *,
    density_floor: float = DENSITY_FLOOR,
) -> CollapseResult:
    """Fit the master curve of pooled rescaled points to a unit q-Gaussian.

    The inverse-width is pinned to 1 (the rescaling already carries the
    widths) unless ``fix_beta_one`` is False. Needs >= 50 pooled points.
    """
    if points.shape[0] < 50:
        raise FitError(f"need >= 50 pooled points, got {points.shape[0]}")
    x = points[:, 0]
    dens = points[:, 1]
    keep = dens > density_floor * float(np.max(dens))
    x, dens = x[keep], dens[keep]
    if x.size < 50:
        raise FitError(f"need >= 50 usable pooled points, got {x.size}")
    q_hat, log_beta, rms, stderr, converged = _fit_log_density(
        x, np.log(dens), fix_beta_one=fix_beta_one
    )
    if not converged:
        raise FitError("collapsed fit did not converge within the iteration cap")
    return CollapseResult(
        q=q_hat,
        scaling=scaling,
        collapse_residual=rms,
        zone=zone,
        q_err=float(stderr[0]),
        n_points=int(x.size),
    )


# --- serialization -----------------------------------------------------

def write_lag_fits_json(fits, path) -> None:
    rows = [
        {
            "lag": f.lag,
            "q": f.params.q,
            "beta": f.params.beta,
            "fit_residual": f.fit_residual,
            "n_samples": f.n_samples,
            "q_err": f.q_err,
            "beta_err": f.beta_err,
            "at_boundary": f.at_boundary,
        }
        for f in fits
    ]
    write_json(path, rows)


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


def write_collapse_json(result: CollapseResult, path) -> None:
    write_json(path, collapse_payload(result))


def write_collapsed_csv(points: np.ndarray, path) -> None:
    """Rescaled point cloud as CSV (x_rescaled, p_rescaled, lag)."""
    write_table(path, ["x_rescaled", "p_rescaled", "lag"], points)
