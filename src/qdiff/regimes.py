"""Central-bump detection and the zone partition of the (x, t) plane.

The short-lag densities carry a narrow central bump on top of a wide
heavy-tailed component. Its edges show up as abrupt slope changes of the
density in log-log coordinates: the log-log slope jumps upward where the
steep bump flank hands over to the flat center of the wide component, so
the edge is the strongest positive spike of the log-log curvature on each
side of the peak. A pure one-component density has monotonically
decreasing log-log slope and therefore no positive spike at all, which is
what makes the detector specific.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from qdiff._loglog import FitError, loglog_fit
from qdiff.density import EmpiricalPdf
from qdiff.io import write_table
from qdiff.qgauss import Q_FIT_BOUNDS, log_qgauss

__all__ = [
    "BoundaryFit",
    "FitError",
    "PowerLawFit",
    "RegimePartition",
    "bump_boundary",
    "detect_bump_end",
    "fit_boundary_curve",
    "fit_height_law",
]

# Paper-calibrated defaults for the S&P500-style analysis; both crossover
# readings (35 and 38 min) occur in the source material, the figure value
# is the default and the other is accepted through configuration.
DEFAULT_T_CROSS_START = 35.0
DEFAULT_T_BUMP_END = 78.0
# Paper-calibrated boundary curve |x| = a t^nu (t in minutes), used when
# too few lags show a bump to fit one.
DEFAULT_BOUNDARY_A = 0.0339
DEFAULT_BOUNDARY_NU = 0.62

# Bump detector tuning (``bump_boundary``).
DENSITY_FLOOR = 1e-6        # relative to the peak; lower grid points are not profiled
N_LOG_GRID = 512            # cells of the uniform log|x| grid per side
SG_WINDOW = 61              # Savitzky-Golay window, in log-grid cells
CURVATURE_THRESHOLD = 0.15  # least log-log curvature of a slope break
MIN_BREAK_RUN = 0.6         # least width of its positive-curvature run, in log units


@dataclass(frozen=True)
class RegimePartition:
    """Zone geometry: boundary curve |x| = a (t/t0)^nu plus crossover times.

    Zone A (strong super-diffusion): inside the curve, t < t_cross_start.
    Zone C (weak super-diffusion): t >= t_bump_end, the bump gone.
    """

    a: float
    nu: float
    t0: float = 1.0
    t_cross_start: float = DEFAULT_T_CROSS_START
    t_bump_end: float = DEFAULT_T_BUMP_END

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"boundary amplitude a must be positive, got {self.a!r}")
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"boundary exponent nu must lie in (0, 1), got {self.nu!r}")
        if not (self.t0 > 0.0):
            raise ValueError(f"reference time t0 must be positive, got {self.t0!r}")
        if not (self.t_cross_start < self.t_bump_end):
            raise ValueError(
                f"inverted crossover times: {self.t_cross_start!r} >= {self.t_bump_end!r}"
            )

    def boundary(self, t):
        """Half-width of the bump domain at time t."""
        return self.a * (np.asarray(t, dtype=float) / self.t0) ** self.nu


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted y ~ prefactor * t^exponent over fit_range, in log-log space."""

    exponent: float
    prefactor: float
    fit_range: tuple[float, float]
    residual: float
    exponent_err: float = 0.0

    def __post_init__(self) -> None:
        if not (self.fit_range[0] < self.fit_range[1]):
            raise ValueError(f"empty fit range {self.fit_range!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")


@dataclass(frozen=True)
class BoundaryFit:
    """Power-law boundary |x| = a t^nu with standard errors."""

    a: float
    nu: float
    a_err: float
    nu_err: float
    residual: float
    n_points: int


def _savgol_curvature(y: np.ndarray, delta: float) -> np.ndarray:
    """Cubic Savitzky-Golay second derivative of ``y`` over ``SG_WINDOW`` points.

    The steps, and so the bits, of ``savgol_filter(y, SG_WINDOW, 3, deriv=2,
    delta=delta)`` away from the ends: least-squares filter taps convolved
    with ``y``. The first and last ``SG_WINDOW // 2`` values see the zero
    padding past the ends and are meaningless.
    """
    half = SG_WINDOW // 2
    powers = np.arange(half, -half - 1, -1.0) ** np.arange(4.0)[:, None]
    rhs = np.array([0.0, 0.0, 2.0 / delta**2, 0.0])
    taps = scipy.linalg.lstsq(powers, rhs, cond=np.finfo(float).eps * SG_WINDOW)[0]
    return scipy.ndimage.convolve1d(y, taps, mode="constant")


def _side_profile(x: np.ndarray, dens: np.ndarray):
    """Log-log profile of one side: (log_pos, logp, curv).

    ``x`` holds positive distances from the peak, increasing, with their
    densities. Linear-grid values falling into the same log cell are
    averaged (the far tail holds many linear points per cell, so this
    suppresses estimator noise); empty cells are filled by interpolation.
    ``curv`` is the smoothed log-log curvature (``_savgol_curvature``).
    Returns None when the side is too short to filter.
    """
    if x.size < SG_WINDOW + 2:
        return None
    s = np.log(x)
    logp_lin = np.log(dens)
    edges = np.linspace(s[0], s[-1], N_LOG_GRID + 1)
    ds = edges[1] - edges[0]
    centers = edges[:-1] + 0.5 * ds
    cell = np.clip(((s - edges[0]) / ds).astype(np.int64), 0, N_LOG_GRID - 1)
    sums = np.bincount(cell, weights=logp_lin, minlength=N_LOG_GRID)
    counts = np.bincount(cell, minlength=N_LOG_GRID)
    filled = counts > 0
    logp = np.empty(N_LOG_GRID)
    logp[filled] = sums[filled] / counts[filled]
    if not filled.all():
        logp[~filled] = np.interp(centers[~filled], centers[filled], logp[filled])
    curv = _savgol_curvature(logp, ds)
    margin = SG_WINDOW // 2 + 1  # past the filter's meaningless ends
    sl = slice(margin, N_LOG_GRID - margin)
    return centers[sl], logp[sl], curv[sl]


def _innermost_spike(log_pos, curv) -> int | None:
    """Index of the innermost qualifying positive-curvature spike, or None.

    A spike qualifies when it is a positive local maximum above
    ``CURVATURE_THRESHOLD`` whose contiguous positive run spans at least
    ``MIN_BREAK_RUN`` log-units; noise spikes ride on runs no wider than
    the smoothing window and are rejected by the run-length condition.
    """
    ds = log_pos[1] - log_pos[0]
    inner = np.arange(1, curv.size - 1)
    is_max = (curv[inner] >= curv[inner - 1]) & (curv[inner] >= curv[inner + 1])
    for spike in inner[is_max & (curv[inner] > CURVATURE_THRESHOLD)]:
        run_lo = spike
        while run_lo > 0 and curv[run_lo - 1] > 0.0:
            run_lo -= 1
        run_hi = spike
        while run_hi < curv.size - 1 and curv[run_hi + 1] > 0.0:
            run_hi += 1
        if (run_hi - run_lo) * ds >= MIN_BREAK_RUN:
            return int(spike)
    return None


def _two_component_crossing(log_pos, logp, x_spike: float) -> float | None:
    """Refine the bump edge by a local two-q-Gaussian decomposition.

    The side profile is fitted in log space to a mixture of two
    q-Gaussians with a free amplitude (grid truncation perturbs the
    normalization), and the edge is where the fitted components cross.
    On exact two-component input this recovers the analytic crossing;
    slope-break geometry alone mislocates it because the regimes never
    fully separate.
    """
    x2 = np.exp(2.0 * log_pos)
    x_max = math.exp(float(log_pos[-1]))

    def model(theta):
        amp, logit_w, q1, lb1, q2, lb2 = theta
        w = 1.0 / (1.0 + math.exp(-logit_w))
        return amp + np.logaddexp(
            math.log(w) + log_qgauss(x2, q1, lb1),
            math.log1p(-w) + log_qgauss(x2, q2, lb2),
        )

    q_lo, q_hi = Q_FIT_BOUNDS
    lo = [-3.0, -7.0, q_lo, -60.0, q_lo, -60.0]
    hi = [3.0, 7.0, q_hi, 60.0, q_hi, 60.0]
    best = None
    for core_factor in (4.0, 40.0, 400.0):
        for q1_0, q2_0 in ((2.5, 1.6), (2.0, 1.3)):
            theta0 = [0.0, 0.0, q1_0, math.log(core_factor / x_spike**2),
                      q2_0, math.log(9.0 / x_max**2)]
            try:
                sol = scipy.optimize.least_squares(lambda th: model(th) - logp, theta0,
                                                   bounds=(lo, hi), max_nfev=2000)
            except ValueError:
                continue
            if best is None or sol.cost < best.cost:
                best = sol
    if best is None or not np.all(np.isfinite(best.x)):
        return None
    _, logit_w, q1, lb1, q2, lb2 = best.x
    if lb1 < lb2:  # make component 1 the narrow (bump) one
        q1, lb1, q2, lb2 = q2, lb2, q1, lb1
        logit_w = -logit_w
    w = 1.0 / (1.0 + math.exp(-logit_w))

    def imbalance(xx):
        x2v = xx * xx
        return (math.log(w) + float(log_qgauss(x2v, q1, lb1))) - (
            math.log1p(-w) + float(log_qgauss(x2v, q2, lb2))
        )

    scan = np.geomspace(x_spike / 30.0, min(x_max, x_spike * 30.0), 600)
    vals = np.array([imbalance(v) for v in scan])
    sign_flip = np.flatnonzero(np.diff(np.sign(vals)) != 0)
    if sign_flip.size == 0:
        return None
    k = sign_flip[0]
    return float(scipy.optimize.brentq(imbalance, scan[k], scan[k + 1]))


def bump_boundary(p: EmpiricalPdf) -> tuple[float, float] | None:
    """Locate the bump edges (x_minus, x_plus), or None when no bump exists.

    Each side of the peak is resampled on a uniform log|x| grid and the
    log density is Savitzky-Golay differentiated there. In these
    coordinates a single q-Gaussian (or Gaussian) has strictly
    nonpositive curvature, while a bump handing over to a wider component
    produces an upward slope break: a positive curvature spike above
    ``CURVATURE_THRESHOLD`` (dimensionless) riding on a positive run at
    least ``MIN_BREAK_RUN`` log-units wide. The innermost such break per
    side gates detection; the reported edge is then refined by a local
    two-component decomposition of the side profile, whose fitted
    component crossing is the operational meaning of "edge of the bump".
    Both sides must fire before either is refined.

    Sampled densities must be estimated with a bandwidth below the bump
    core width, otherwise the kernel itself imprints a slope break.
    """
    dens = p.density
    floor = DENSITY_FLOOR * float(np.max(dens))
    x_peak = p.grid[int(np.argmax(dens))]
    dx = p.dx

    gated = []
    for side in ("plus", "minus"):
        if side == "plus":
            sel = (p.grid >= x_peak + 3.0 * dx) & (dens > floor)
            x_side = p.grid[sel] - x_peak
            d_side = dens[sel]
        else:
            sel = (p.grid <= x_peak - 3.0 * dx) & (dens > floor)
            x_side = (x_peak - p.grid[sel])[::-1]
            d_side = dens[sel][::-1]
        # Keep the contiguous run adjacent to the peak so detached
        # density islands past the floor cannot contribute.
        run_end = np.flatnonzero(np.diff(np.flatnonzero(sel)) > 1)
        if run_end.size and side == "plus":
            x_side, d_side = x_side[: run_end[0] + 1], d_side[: run_end[0] + 1]
        elif run_end.size:
            keep = x_side.size - 1 - run_end[-1]
            x_side, d_side = x_side[:keep], d_side[:keep]
        prof = _side_profile(x_side, d_side)
        if prof is None:
            return None
        log_pos, logp, curv = prof
        spike = _innermost_spike(log_pos, curv)
        if spike is None:
            return None
        gated.append((log_pos, logp, math.exp(log_pos[spike])))
    edges = []
    for log_pos, logp, x_spike in gated:
        edge = _two_component_crossing(log_pos, logp, x_spike)
        if edge is None or not (x_spike / 20.0 < edge < x_spike * 20.0):
            edge = x_spike  # decomposition failed; spike position is still a break
        edges.append(edge)
    edge_plus, edge_minus = edges
    return float(x_peak - edge_minus), float(x_peak + edge_plus)


def fit_boundary_curve(boundaries) -> BoundaryFit:
    """Least squares of log |x_edge| against log t, both branches pooled.

    ``boundaries`` is an iterable of (t, x_minus, x_plus) or (t, edge)
    rows; entries with missing edges may be skipped by passing None for
    the edge values.
    """
    ts: list[float] = []
    xs: list[float] = []
    for row in boundaries:
        t = float(row[0])
        for edge in row[1:]:
            if edge is None:
                continue
            ts.append(t)
            xs.append(abs(float(edge)))
    distinct = len(set(ts))
    if distinct < 3:
        raise FitError(f"need boundaries at >= 3 lags, got {distinct}")
    fit = loglog_fit(np.asarray(ts), np.asarray(xs))
    return BoundaryFit(
        a=math.exp(fit.intercept),
        nu=fit.slope,
        a_err=math.exp(fit.intercept) * fit.intercept_err,
        nu_err=fit.slope_err,
        residual=fit.residual_rms,
        n_points=fit.n_points,
    )


def fit_height_law(heights, fit_range: tuple[float, float]) -> PowerLawFit:
    """Power law of the pdf peak height over lags inside fit_range.

    Heights decay as t^(-1/alpha); the diffusion exponent is recovered as
    alpha = -1 / exponent. Raises FitError when the fitted exponent is
    not negative (no decay, alpha undefined).
    """
    heights = np.asarray(list(heights), dtype=float)
    if heights.ndim != 2 or heights.shape[1] != 2:
        raise ValueError("heights must be (t, P_max) rows")
    t, h = heights[:, 0], heights[:, 1]
    if np.any(h <= 0.0):
        raise FitError("nonpositive heights cannot be fitted in log space")
    lo, hi = fit_range
    mask = (t >= lo) & (t <= hi)
    if int(np.sum(mask)) < 3:
        raise FitError(f"need >= 3 points inside {fit_range!r}, got {int(np.sum(mask))}")
    fit = loglog_fit(t[mask], h[mask])
    if fit.slope >= -1e-12:
        raise FitError(
            f"height exponent {fit.slope!r} is not negative; alpha undefined"
        )
    return PowerLawFit(
        exponent=fit.slope,
        prefactor=math.exp(fit.intercept),
        fit_range=(float(lo), float(hi)),
        residual=fit.residual_rms,
        exponent_err=fit.slope_err,
    )


def height_alpha(fit: PowerLawFit) -> float:
    """Diffusion exponent alpha = -1/exponent of a height power law."""
    return -1.0 / fit.exponent


def detect_bump_end(lags, boundaries) -> float | None:
    """Lag at which the bump dissolves: log-midpoint of the last detection
    and the first non-detection after it. None when the bump never
    disappears inside the scanned ladder."""
    lags = np.asarray(list(lags), dtype=float)
    found = np.asarray([b is not None for b in boundaries], dtype=bool)
    if found.size != lags.size:
        raise ValueError("lags and boundaries must have equal length")
    detected = np.flatnonzero(found)
    if detected.size == 0 or detected[-1] == lags.size - 1:
        return None
    last = detected[-1]
    return float(math.sqrt(lags[last] * lags[last + 1]))


def write_boundary_csv(rows, path) -> None:
    """CSV of per-lag boundary detections: t, x_minus, x_plus (blank if none)."""
    write_table(path, ["t", "x_minus", "x_plus"],
                [(t, None, None) if edges is None else (t, edges[0], edges[1])
                 for t, edges in rows])
