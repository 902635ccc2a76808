"""Nonlinear diffusion equation u_t = (u^m)_xx and its self-similar family.

The analytic source solution, the map between the (B, C) constants of the
rescaled-time formulation and the fitted (q, alpha, D), finite-difference
evolution by TR-BDF2 for every m > 0, the time-rescaled governing
equation for the collapsed densities, and the state-dependent diffusion
coefficient that compares against the linear Fokker-Planck form.

For the fast-diffusion exponents used here (m = 2 - q with q > 1) the
profile coefficient is (1 - m)/(2 m (m + 1)); direct substitution shows
this sign is the one that actually solves the equation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import scipy

from qdiff.qgauss import Q_LIMIT_TOL, c_q, rescale_exponent

__all__ = [
    "GoverningParams",
    "PmeField",
    "SolveResult",
    "SolverError",
    "barenblatt",
    "barenblatt_residual",
    "black_scholes_d2",
    "governing_profile",
    "map_constants",
    "profile_coef",
    "solve_governing",
    "solve_pme",
]

U_FLOOR = 1e-30  # floor before exponentiation; u^(m-1) diverges as u -> 0
MASS_TOL = 1e-6  # relative mass drift a zero-flux solve may end with
MAX_STEPS = 5_000_000  # step budget of one solve


class SolverError(RuntimeError):
    """Evolution failed: instability, mass drift, or ill-posed exponent."""


def profile_coef(m: float) -> float:
    """Barenblatt profile coefficient b = (1 - m)/(2 m (m + 1)); 0 at m = 1."""
    return (1.0 - m) / (2.0 * m * (m + 1.0))


def barenblatt(x, t, m: float, c_int: float):
    """Self-similar source solution of u_t = (u^m)_xx.

    u = t^(-1/(m+1)) (C + b xi^2)^(1/(m-1)) with xi = x t^(-1/(m+1)) and
    b = (1 - m)/(2 m (m + 1)). ``t`` is a scalar or a 1-d array of times;
    an array gives one row per time, of shape ``t.shape + x.shape``, each
    row to the bit what the scalar ``t`` gives. Branches by exponent:

    * 0 < m < 1 (fast diffusion): b > 0, positive for all x with power
      tails ~ |x|^(2/(m-1)).
    * 1 < m < 2 (slow diffusion): b < 0, compact support; 0 outside the
      front where the bracket vanishes.
    * -1 < m < 0: b < 0 and the solution lives inside |xi| < sqrt(C/|b|),
      diverging at the edge; evaluations outside return inf.
    * m = 1 uses the heat-kernel branch with total mass c_int.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or 1-d, got shape {times.shape}")
    if not (times > 0.0).all():
        raise ValueError(f"need t > 0, got {t!r}")
    if not (-1.0 < m < 2.0):
        raise ValueError(f"exponent m={m!r} outside the supported window (-1, 2)")
    if m == 0.0:
        raise ValueError("m = 0 is degenerate (no diffusion); not supported")
    if not (c_int > 0.0):
        raise ValueError(f"integration constant must be positive, got {c_int!r}")
    x = np.asarray(x, dtype=float)
    if times.ndim:  # each time against all of x
        t = times.reshape(times.shape + (1,) * x.ndim)
    if m == 1.0:
        out = c_int * np.exp(-x * x / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
        return out if out.ndim else float(out)
    beta = 1.0 / (m + 1.0)
    if times.ndim:
        # Python float powers, as for a scalar t: numpy's array power differs in the last bit
        scale = np.array([s**-beta for s in times.tolist()]).reshape(t.shape)
    else:
        scale = t**-beta
    xi = x * scale
    bracket = c_int + profile_coef(m) * xi * xi
    expo = 1.0 / (m - 1.0)
    safe = np.where(bracket > 0.0, bracket, 1.0)
    if m > 1.0:
        out = np.where(bracket > 0.0, safe**expo, 0.0)
    else:
        out = np.where(bracket > 0.0, safe**expo, np.inf)
    out = scale * out
    return out if out.ndim else float(out)


def barenblatt_residual(
    x, t: float, m: float, c_int: float, *, rel_step: float = 1e-4
) -> np.ndarray:
    """|u_t - (u^m)_xx| of the analytic solution by 4th-order differences.

    Verification oracle: small residuals certify that the profile solves
    the equation at the probed points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    width = t ** (1.0 / (m + 1.0))
    hx = rel_step * width
    ht = rel_step * t

    def u(xx, tt):
        return np.asarray(barenblatt(xx, tt, m, c_int))

    u_t = (
        -u(x, t + 2 * ht) + 8 * u(x, t + ht) - 8 * u(x, t - ht) + u(x, t - 2 * ht)
    ) / (12.0 * ht)

    def w(xx):
        return u(xx, t) ** m

    w_xx = (
        -w(x + 2 * hx) + 16 * w(x + hx) - 30 * w(x) + 16 * w(x - hx) - w(x - 2 * hx)
    ) / (12.0 * hx * hx)
    return np.abs(u_t - w_xx)


@dataclass(frozen=True)
class PmeField:
    """Discretized nonnegative field u(x) on a uniform grid at one time."""

    grid: np.ndarray
    u: np.ndarray
    time: float
    m: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "u", u)
        if grid.ndim != 1 or u.shape != grid.shape or grid.size < 5:
            raise ValueError("grid and u must be matching 1-d arrays (>= 5 points)")
        steps = np.diff(grid)
        if np.any(steps <= 0.0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise ValueError("grid must be uniform and increasing")
        if np.any(u < 0.0) or not np.all(np.isfinite(u)):
            raise ValueError("u must be nonnegative and finite")
        if not (-1.0 < self.m < 2.0):
            raise ValueError(f"exponent m={self.m!r} outside (-1, 2)")

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.u, self.grid))


@dataclass(frozen=True)
class SolveResult:
    """Evolved field plus solver diagnostics."""

    field: PmeField
    mass_drift: float
    floor_hits: int
    n_steps: int
    scheme: ClassVar[str] = "implicit"  # the one scheme; reports and traces keep the key


@dataclass(frozen=True)
class GoverningParams:
    """Constants tying the fitted (q, alpha, D) to the rescaled equation.

    xi is the time-map exponent (3 - q)/alpha; b_coef scales the time map
    tau = (b_coef * t)^xi; c_int is the profile integration constant
    (negative for q > 2, where only the magnitude enters real-valued
    evaluations). c_q_val caches the q-Gaussian normalization.
    """

    q: float
    alpha: float
    d_coef: float
    xi: float
    b_coef: float
    c_int: float
    c_q_val: float

    def __post_init__(self) -> None:
        if self.xi != (3.0 - self.q) / self.alpha:
            raise ValueError("xi must equal (3 - q)/alpha exactly")
        if not (self.b_coef > 0.0):
            raise ValueError(f"b_coef must be positive, got {self.b_coef!r}")
        if self.c_int == 0.0:
            raise ValueError("c_int must be nonzero")

    @property
    def m(self) -> float:
        return 2.0 - self.q

    def tau(self, t) -> float:
        """Rescaled time tau = (B t)^xi."""
        return (self.b_coef * np.asarray(t, dtype=float)) ** self.xi

    def t_of_tau(self, tau) -> float:
        return np.asarray(tau, dtype=float) ** (1.0 / self.xi) / self.b_coef


def map_constants(q: float, alpha: float, d_coef: float) -> GoverningParams:
    """Solve the two constant relations for (B, C) given (q, alpha, D).

    The relations are C_q = B^(1/alpha) |C|^(1/(q-1)) D^(-1/alpha) and
    D = B (2 C (2-q)(3-q))^(alpha/2). For q > 2 the product
    (2-q)(3-q) is negative, so C must be negative for the bracket to stay
    positive; the real branch uses |C| in fractional powers and the
    result carries the sign. Round-trips are verified to 1e-10 before
    returning. q = 2 is a genuine singular point and is rejected.
    """
    if not (0.0 < alpha):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if abs(q - 2.0) < 1e-6:
        raise ValueError("q = 2 is singular in the constant relations (factor 2 - q)")
    if not (1.0 - Q_LIMIT_TOL <= q < 3.0 - Q_LIMIT_TOL):
        raise ValueError(f"q={q!r} outside the supported window [1, 3)")
    if not (d_coef > 0.0):
        raise ValueError(f"d_coef must be positive, got {d_coef!r}")
    if q > 2.0:
        warnings.warn(
            "q > 2: the bracket 2C(2-q)(3-q) forces C < 0; using the real "
            "branch with |C| in fractional powers",
            stacklevel=2,
        )
    cq = c_q(q)
    spread = 2.0 * abs(2.0 - q) * (3.0 - q)
    abs_c = (cq * cq * spread) ** ((q - 1.0) / (3.0 - q))
    c_int = math.copysign(abs_c, 2.0 - q)
    b_coef = d_coef * (abs_c * spread) ** (-alpha / 2.0)
    xi = rescale_exponent(q, alpha)

    d_rt = b_coef * (abs_c * spread) ** (alpha / 2.0)
    if abs(q - 1.0) <= Q_LIMIT_TOL:
        # |C|^(1/(q-1)) composes to (C_q^2 spread)^(1/(3-q)), regular at q = 1.
        c_pow = (cq * cq * spread) ** (1.0 / (3.0 - q))
    else:
        c_pow = abs_c ** (1.0 / (q - 1.0))
    cq_rt = b_coef ** (1.0 / alpha) * c_pow * d_coef ** (-1.0 / alpha)
    if abs(d_rt - d_coef) > 1e-10 * d_coef or abs(cq_rt - cq) > 1e-10 * cq:
        raise ArithmeticError(
            f"constant relations failed to round-trip: D {d_rt!r} vs {d_coef!r}, "
            f"C_q {cq_rt!r} vs {cq!r}"
        )
    return GoverningParams(
        q=q, alpha=alpha, d_coef=d_coef, xi=xi, b_coef=b_coef,
        c_int=c_int, c_q_val=cq,
    )


def governing_profile(x, t: float, params: GoverningParams):
    """Analytic collapsed density written through the (B, C) constants.

    Identical (to rounding) to the self-similar q-Gaussian family; the
    fractional powers of a negative C are taken on the real branch via
    |C|, with the sign carried by the always-positive inner bracket.
    """
    if not (t > 0.0):
        raise ValueError(f"need t > 0, got {t!r}")
    x = np.asarray(x, dtype=float)
    q = params.q
    if abs(q - 1.0) <= Q_LIMIT_TOL:
        # |C|^(1/(m-1)) degenerates as m -> 1; use the family directly.
        from qdiff.qgauss import ScalingLaw, selfsim_pdf

        return selfsim_pdf(x, t, q, ScalingLaw(alpha=params.alpha, d_coef=params.d_coef))
    m = params.m
    tau_pow = (params.b_coef * t) ** (params.xi / (3.0 - q))
    inner_scale = 2.0 * params.c_int * (2.0 - q) * (3.0 - q)  # positive on branch
    bracket = 1.0 + (q - 1.0) * x * x / (inner_scale * tau_pow**2)
    out = tau_pow**-1.0 * abs(params.c_int) ** (1.0 / (m - 1.0)) * bracket ** (1.0 / (1.0 - q))
    return out if out.ndim else float(out)


def black_scholes_d2(x, t: float, params: GoverningParams):
    """State- and time-dependent diffusion coefficient of the linear form.

    D2(x, t) = (3-q) D^(2/alpha) / (alpha C_q^(1-q) t^((alpha-2)/alpha))
               * (1 + (q-1) x^2 / (D t)^(2/alpha)).

    Constant and equal to D in the classical limit (q -> 1, alpha = 2);
    grows as x^2 at large |x| for fixed t.
    """
    if not (t > 0.0):
        raise ValueError(f"need t > 0, got {t!r}")
    x = np.asarray(x, dtype=float)
    q, alpha, d = params.q, params.alpha, params.d_coef
    w2 = (d * t) ** (2.0 / alpha)
    prefactor = (
        (3.0 - q) * d ** (2.0 / alpha)
        / (alpha * params.c_q_val ** (1.0 - q) * t ** ((alpha - 2.0) / alpha))
    )
    out = prefactor * (1.0 + (q - 1.0) * x * x / w2)
    return out if out.ndim else float(out)


# --- finite-difference evolution ----------------------------------------

def _face_diffusivity(v, m):
    """Face diffusivities of K(v), the linearized operator of (u^m)_xx at v.

    The secant D = (w_j - w_i)/(v_j - v_i) makes K(v) v the flux-form
    Laplacian of v^m exactly; flat faces take the tangent m v^(m-1).
    """
    vf = np.maximum(v, U_FLOOR)
    w = vf**m
    dv = vf[1:] - vf[:-1]
    d_face = w[1:] - w[:-1]
    np.divide(d_face, dv, out=d_face, where=dv != 0.0)  # dv == 0 faces are flat
    mid = vf[:-1] + vf[1:]
    mid *= 0.5
    # Steep faces keep the secant; the rest, NaN included, take the tangent.
    # w is spent, so its tail holds the threshold.
    steep = np.abs(dv, out=dv) > np.multiply(mid, 1e-14, out=w[1:])
    if not steep.all():
        flat = ~steep
        d_face[flat] = m * mid[flat] ** (m - 1.0)
    return d_face


def _apply_k(d_face, u, dx):
    """K u with the half-cell zero-flux rows at both ends, which keep the
    trapezoid mass of K u zero; a dirichlet solve overwrites those rows."""
    flux = u[1:] - u[:-1]
    flux *= d_face
    flux /= dx * dx
    out = np.empty_like(u)
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[0] = 2.0 * flux[0]
    out[-1] = -2.0 * flux[-1]
    return out


def _stage_solve(d_face, rhs, a, dx, bc, bdry):
    """Solve (I - a K) x = rhs for the K of ``d_face``, one implicit stage.

    The rows of one (4, n) buffer hold the sub-diagonal, diagonal,
    super-diagonal and right-hand side; both off-diagonals end in a 0 cell.
    """
    n = rhs.size
    lam = a / (dx * dx)
    bands = np.empty((4, n))
    bands[0, -1] = bands[2, -1] = 0.0
    lower, diag, upper, x = bands[0, :-1], bands[1], bands[2, :-1], bands[3]
    np.multiply(d_face, -lam, out=lower)
    upper[...] = lower
    inner = diag[1:-1]
    np.add(d_face[:-1], d_face[1:], out=inner)
    inner *= lam
    inner += 1.0
    x[...] = rhs
    if bc == "zero-flux":
        diag[0] = 1.0 + 2.0 * lam * d_face[0]
        upper[0] = -2.0 * lam * d_face[0]
        diag[-1] = 1.0 + 2.0 * lam * d_face[-1]
        lower[-1] = -2.0 * lam * d_face[-1]
    else:
        diag[0] = diag[-1] = 1.0
        upper[0] = lower[-1] = 0.0
        x[0], x[-1] = bdry
    # LAPACK gtsv, the routine solve_banded((1, 1), ...) ends in, with its check.
    if not np.isfinite(bands).all():
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = scipy.linalg.lapack.dgtsv(lower, diag, upper, x, True, True, True, True)
    if info > 0:
        raise scipy.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


GAMMA = 2.0 - math.sqrt(2.0)  # TR-BDF2 stage fraction; makes the scheme L-stable
# BDF2 stage: u_{n+1} = NEW u* - OLD u_n + IMPLICIT dt K u_{n+1}, with NEW - OLD = 1
_BDF2_NEW = 1.0 / (GAMMA * (2.0 - GAMMA))
_BDF2_OLD = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))
_BDF2_IMPLICIT = (1.0 - GAMMA) / (2.0 - GAMMA)


def _step_tr_bdf2(u, slope, dx, dt, m, bc, bdry_mid, bdry_end):
    """One TR-BDF2 step: a trapezoid stage to t + gamma dt, then BDF2 to t + dt.

    Each stage freezes K at the state extrapolated to the time it centres on,
    which keeps the linearized step second order in time: the trapezoid at
    t + gamma dt/2, from ``slope`` = (u_n - u_{n-1})/dt_{n-1} (u_n itself on
    the first step), and BDF2 at t + dt, through the stage value. The
    arithmetic is in place, each rounding with the operands of
    u + a K(v) u and NEW u* - OLD u_n.
    """
    a = 0.5 * GAMMA * dt
    if slope is None:
        v = u
    else:
        v = slope * a
        v += u
    d_face = _face_diffusivity(v, m)
    rhs = _apply_k(d_face, u, dx)
    rhs *= a
    rhs += u
    u_mid = _stage_solve(d_face, rhs, a, dx, bc, bdry_mid)
    v = u_mid - u
    v /= GAMMA
    v += u
    d_face = _face_diffusivity(v, m)
    rhs = u_mid
    rhs *= _BDF2_NEW
    rhs -= np.multiply(u, _BDF2_OLD, out=v)
    return _stage_solve(d_face, rhs, _BDF2_IMPLICIT * dt, dx, bc, bdry_end)


def _schedule(t, t_end, log_step):
    """The geometric steps dt = log_step * t from t to ``t_end``: each
    step's dt, and its two stage times t + GAMMA dt and t + dt in order.
    At most ``MAX_STEPS`` steps."""
    dts = array("d")
    times = array("d")
    while t < t_end:
        if len(dts) >= MAX_STEPS:
            raise SolverError(f"step budget exhausted at t={t!r} (of {t_end!r})")
        dt = min(log_step * t if t > 0.0 else log_step, t_end - t)
        dts.append(dt)
        times.append(t + GAMMA * dt)
        times.append(t + dt)
        t += dt
    return dts, np.frombuffer(times)


def solve_pme(
    initial: PmeField,
    t_end: float,
    *,
    bc: str = "zero-flux",
    boundary_values=None,
    log_step: float = 2e-3,
) -> SolveResult:
    """Evolve u_t = (u^m)_xx from ``initial.time`` to ``t_end``.

    Every m > 0 takes TR-BDF2 steps (second order in time, L-stable, so
    no stability bound ties the step to dx^2) with coefficients
    extrapolated to each stage's time, see ``_step_tr_bdf2``, and
    geometric time steps dt = log_step * t. At most ``MAX_STEPS`` steps
    are taken.

    ``bc`` is 'zero-flux' (conservative; mass drift is checked against
    ``MASS_TOL``) or 'dirichlet', which pins the edges (mass legitimately
    crosses the boundary there, so only the drift is reported, not
    enforced). The schedule depends on t alone, so ``boundary_values`` is
    called once, with the 1-d array of every stage time (t + GAMMA dt,
    t + dt for each step), and returns the (len(times), 2) array of the
    (lo, hi) edge values at those times. m <= 0 is rejected: the literal
    equation has negative diffusivity there and an initial-value
    evolution is ill-posed.
    """
    if initial.m <= 0.0:
        raise SolverError(
            f"m={initial.m!r} <= 0 has negative diffusivity m u^(m-1); "
            "initial-value evolution is ill-posed in this form"
        )
    if not (t_end > initial.time):
        raise ValueError(f"t_end={t_end!r} must exceed the initial time {initial.time!r}")
    if bc not in ("zero-flux", "dirichlet"):
        raise ValueError(f"unknown boundary closure {bc!r}")
    if bc == "dirichlet" and boundary_values is None:
        raise ValueError("dirichlet closure needs boundary_values(times) -> (len(times), 2) array")

    u = initial.u.copy()
    dx = initial.dx
    m = initial.m
    t = initial.time
    mass0 = initial.mass

    dts, times = _schedule(t, t_end, log_step)
    edges = itertools.repeat((None, None))
    if bc == "dirichlet":
        values = np.asarray(boundary_values(times), dtype=float)
        if values.shape != (times.size, 2):
            raise ValueError(f"boundary_values(times) must return a ({times.size}, 2) "
                             f"array, got shape {values.shape}")
        edges = values.reshape(-1, 2, 2)

    floor_hits = 0
    slope = None
    for dt, (bdry_mid, bdry_end) in zip(dts, edges):
        old = u
        u = _step_tr_bdf2(u, slope, dx, dt, m, bc, bdry_mid, bdry_end)
        # min is NaN when u holds one, so a NaN skips the clip and fails below
        if u.min() < 0.0:
            floor_hits += int(np.count_nonzero(u < 0.0))
            np.maximum(u, 0.0, out=u)
        if not np.isfinite(u).all():
            raise SolverError(f"non-finite field at t={t + dt!r}; step too large")
        slope = u - old
        slope /= dt
        t += dt

    field = PmeField(grid=initial.grid, u=u, time=t, m=m)
    drift = abs(field.mass - mass0) / mass0 if mass0 > 0.0 else 0.0
    if bc == "zero-flux" and drift > MASS_TOL:
        raise SolverError(f"mass drift {drift!r} exceeds tolerance {MASS_TOL!r}")
    return SolveResult(field=field, mass_drift=drift, floor_hits=floor_hits, n_steps=len(dts))


def solve_governing(
    initial: PmeField,
    t_end: float,
    params: GoverningParams,
    *,
    bc: str = "dirichlet",
    log_step: float = 2e-3,
) -> SolveResult:
    """Evolve the time-rescaled governing equation for the density P(x, t).

    The substitution tau = (B t)^xi reduces the equation to plain
    u_tau = (u^m)_xx with m = 2 - q, which is evolved between the
    rescaled endpoints. ``initial.time`` carries physical time t (> 0;
    the rescaling is singular at t = 0); so does the returned field.
    With the default dirichlet closure the edges follow the analytic
    self-similar tail, which is the right far-field for verifying the
    family; pass bc='zero-flux' for perturbed initial data.
    """
    if not (initial.time > 0.0):
        raise ValueError("the governing equation needs t_start > 0")
    if initial.m != params.m:
        raise ValueError(f"field exponent {initial.m!r} != 2 - q = {params.m!r}")
    tau0 = float(params.tau(initial.time))
    tau1 = float(params.tau(t_end))
    boundary_values = None
    if bc == "dirichlet":
        lo, hi = initial.grid[0], initial.grid[-1]

        def boundary_values(taus):
            # one 0-d evaluation per time and edge: the array path rounds differently
            out = np.empty((taus.size, 2))
            for row, tau in zip(out, taus.tolist()):
                t_phys = float(params.t_of_tau(tau))
                row[:] = [governing_profile(edge, t_phys, params) for edge in (lo, hi)]
            return out

    shifted = PmeField(grid=initial.grid, u=initial.u, time=tau0, m=initial.m)
    result = solve_pme(shifted, tau1, bc=bc, boundary_values=boundary_values,
                       log_step=log_step)
    field = PmeField(grid=result.field.grid, u=result.field.u, time=t_end, m=initial.m)
    return replace(result, field=field)
