"""Nonlinear diffusion equation u_t = (u^m)_xx and its self-similar family.

The analytic source solution, the map between the (B, C) constants of the
rescaled-time formulation and the fitted (q, alpha, D), finite-difference
evolution with explicit and implicit schemes, the time-rescaled governing
equation for the collapsed densities, and the state-dependent diffusion
coefficient that compares against the linear Fokker-Planck form.

For the fast-diffusion exponents used here (m = 2 - q with q > 1) the
profile coefficient is (1 - m)/(2 m (m + 1)); direct substitution shows
this sign is the one that actually solves the equation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv
from scipy.special import gammaln

from qdiff.io import write_json, write_table
from qdiff.qgauss import Q_LIMIT_TOL, c_q, rescale_exponent

__all__ = [
    "GoverningParams",
    "PmeField",
    "SolveResult",
    "SolverError",
    "barenblatt",
    "barenblatt_mass",
    "barenblatt_residual",
    "black_scholes_d2",
    "governing_profile",
    "map_constants",
    "solve_governing",
    "solve_pme",
    "write_field_csv",
]

U_FLOOR = 1e-30  # floor before exponentiation; u^(m-1) diverges as u -> 0


class SolverError(RuntimeError):
    """Evolution failed: instability, mass drift, or ill-posed exponent."""


def _profile_coef(m: float) -> float:
    return (1.0 - m) / (2.0 * m * (m + 1.0))


def barenblatt(x, t: float, m: float, c_int: float):
    """Self-similar source solution of u_t = (u^m)_xx.

    u = t^(-1/(m+1)) (C + b xi^2)^(1/(m-1)) with xi = x t^(-1/(m+1)) and
    b = (1 - m)/(2 m (m + 1)). Branches by exponent:

    * 0 < m < 1 (fast diffusion): b > 0, positive for all x with power
      tails ~ |x|^(2/(m-1)).
    * 1 < m < 2 (slow diffusion): b < 0, compact support; 0 outside the
      front where the bracket vanishes.
    * -1 < m < 0: b < 0 and the solution lives inside |xi| < sqrt(C/|b|),
      diverging at the edge; evaluations outside return inf.
    * m = 1 uses the heat-kernel branch with total mass c_int.
    """
    if not (t > 0.0):
        raise ValueError(f"need t > 0, got {t!r}")
    if not (-1.0 < m < 2.0):
        raise ValueError(f"exponent m={m!r} outside the supported window (-1, 2)")
    if m == 0.0:
        raise ValueError("m = 0 is degenerate (no diffusion); not supported")
    if not (c_int > 0.0):
        raise ValueError(f"integration constant must be positive, got {c_int!r}")
    x = np.asarray(x, dtype=float)
    if m == 1.0:
        out = c_int * np.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        return out if out.ndim else float(out)
    beta = 1.0 / (m + 1.0)
    xi = x * t**-beta
    bracket = c_int + _profile_coef(m) * xi * xi
    expo = 1.0 / (m - 1.0)
    safe = np.where(bracket > 0.0, bracket, 1.0)
    if m > 1.0:
        out = np.where(bracket > 0.0, safe**expo, 0.0)
    else:
        out = np.where(bracket > 0.0, safe**expo, np.inf)
    out = t**-beta * out
    return out if out.ndim else float(out)


def barenblatt_mass(m: float, c_int: float) -> float:
    """Total mass of the source solution (time invariant)."""
    if m == 1.0:
        return c_int
    b = _profile_coef(m)
    if 0.0 < m < 1.0:
        # int (1 + y^2)^(-s) dy = sqrt(pi) Gamma(s - 1/2)/Gamma(s)
        s = 1.0 / (1.0 - m)
        log_i = 0.5 * math.log(math.pi) + gammaln(s - 0.5) - gammaln(s)
    else:
        # compact/interior bracket: int_{-1}^{1} (1 - y^2)^(1/(m-1)) dy
        z = m / (m - 1.0)
        log_i = 0.5 * math.log(math.pi) + gammaln(z) - gammaln(z + 0.5)
    return c_int ** (1.0 / (m - 1.0) + 0.5) * abs(b) ** -0.5 * math.exp(log_i)


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
    scheme: str


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

def _step_explicit(u, dx, dt, m, bc, bdry):
    w = np.maximum(u, U_FLOOR) ** m
    lap = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (dx * dx)
    nxt = u.copy()
    nxt[1:-1] += dt * lap
    if bc == "zero-flux":
        # Half-cell boundary update keeps the trapezoid mass exact.
        nxt[0] += 2.0 * dt * (w[1] - w[0]) / (dx * dx)
        nxt[-1] += 2.0 * dt * (w[-2] - w[-1]) / (dx * dx)
    else:
        nxt[0], nxt[-1] = bdry
    return nxt


def _step_implicit(u, dx, dt, m, bc, bdry):
    """Backward Euler with the lagged secant diffusivity.

    The secant D = (w_j - w_i)/(u_j - u_i) reproduces the Laplacian of
    u^m exactly at the old state, so spatial accuracy matches the
    explicit flux form; the linearization is what makes large steps
    stable for fast diffusion.
    """
    n = u.size
    uf = np.maximum(u, U_FLOOR)
    w = uf**m
    du = uf[1:] - uf[:-1]
    dw = w[1:] - w[:-1]
    mid = 0.5 * (uf[:-1] + uf[1:])
    d_face = dw / np.where(du == 0.0, 1.0, du)
    # Flat faces take the tangent m u^(m-1); the negated test sends NaN there too.
    flat = ~(np.abs(du) > 1e-14 * mid)
    if flat.any():
        d_face[flat] = m * mid[flat] ** (m - 1.0)
    lam = dt / (dx * dx)
    diag = np.ones(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    rhs = u.copy()
    diag[1:-1] += lam * (d_face[:-1] + d_face[1:])
    lower[:-1] = -lam * d_face[:-1]
    upper[1:] = -lam * d_face[1:]
    if bc == "zero-flux":
        diag[0] += 2.0 * lam * d_face[0]
        upper[0] = -2.0 * lam * d_face[0]
        diag[-1] += 2.0 * lam * d_face[-1]
        lower[-1] = -2.0 * lam * d_face[-1]
    else:
        upper[0] = 0.0
        lower[-1] = 0.0
        rhs[0], rhs[-1] = bdry
    # LAPACK gtsv, the routine solve_banded((1, 1), ...) ends in, with its checks.
    for a in (lower, diag, upper, rhs):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def solve_pme(
    initial: PmeField,
    t_end: float,
    *,
    scheme: str = "auto",
    bc: str = "zero-flux",
    boundary_values=None,
    dt_safety: float = 0.4,
    log_step: float = 2e-4,
    max_steps: int = 5_000_000,
    mass_tol: float = 1e-6,
    explicit_step_budget: int = 300_000,
) -> SolveResult:
    """Evolve u_t = (u^m)_xx from ``initial.time`` to ``t_end``.

    * scheme 'explicit': flux-form central differences, step from the
      worst-case stability bound dt <= safety dx^2 / (2 max m u^(m-1)).
    * scheme 'implicit': backward Euler with lagged coefficients and
      geometric time steps dt = log_step * t, for stiff fast-diffusion
      runs where the explicit bound collapses.
    * 'auto' picks explicit when its step count fits the budget.

    ``bc`` is 'zero-flux' (conservative; mass drift is checked against
    ``mass_tol``) or 'dirichlet' with ``boundary_values(t) -> (lo, hi)``
    pinning the edges (mass legitimately crosses the boundary there, so
    only the drift is reported, not enforced). m <= 0 is rejected: the
    literal equation has negative diffusivity there and an initial-value
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
        raise ValueError("dirichlet closure needs boundary_values(t) -> (lo, hi)")

    u = initial.u.copy()
    dx = initial.dx
    m = initial.m
    t = initial.time
    mass0 = initial.mass

    if scheme == "auto":
        d_max = float(np.max(m * np.maximum(u, U_FLOOR) ** (m - 1.0)))
        dt_exp = dt_safety * dx * dx / (2.0 * d_max)
        scheme = "explicit" if (t_end - t) / dt_exp <= explicit_step_budget else "implicit"

    floor_hits = 0
    steps = 0
    while t < t_end:
        if steps >= max_steps:
            raise SolverError(f"step budget exhausted at t={t!r} (of {t_end!r})")
        if scheme == "explicit":
            d_max = float(np.max(m * np.maximum(u, U_FLOOR) ** (m - 1.0)))
            if not math.isfinite(d_max) or d_max <= 0.0:
                raise SolverError(f"stability bound unavailable (max diffusivity {d_max!r})")
            dt = min(dt_safety * dx * dx / (2.0 * d_max), t_end - t)
        elif scheme == "implicit":
            dt = min(log_step * t if t > 0.0 else log_step, t_end - t)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        bdry = boundary_values(t + dt) if boundary_values is not None else None
        stepper = _step_explicit if scheme == "explicit" else _step_implicit
        u = stepper(u, dx, dt, m, bc, bdry)
        below = u < 0.0
        if below.any():
            floor_hits += int(np.sum(below))
            u = np.maximum(u, 0.0)
        if not np.isfinite(u).all():
            raise SolverError(f"non-finite field at t={t + dt!r}; step too large")
        t += dt
        steps += 1

    field = PmeField(grid=initial.grid, u=u, time=t, m=m)
    drift = abs(field.mass - mass0) / mass0 if mass0 > 0.0 else 0.0
    if bc == "zero-flux" and drift > mass_tol:
        raise SolverError(f"mass drift {drift!r} exceeds tolerance {mass_tol!r}")
    return SolveResult(field=field, mass_drift=drift, floor_hits=floor_hits,
                       n_steps=steps, scheme=scheme)


def write_field_csv(result: SolveResult | PmeField, path, **extra_meta) -> None:
    """Field snapshot as CSV (x, u) plus a JSON sidecar with the metadata."""
    field = result.field if isinstance(result, SolveResult) else result
    path = Path(path)
    write_table(path, ["x", "u"], np.column_stack([field.grid, field.u]))
    meta = {"m": field.m, "time": field.time, "mass": field.mass, "dx": field.dx}
    if isinstance(result, SolveResult):
        meta.update({"scheme": result.scheme, "n_steps": result.n_steps,
                     "mass_drift": result.mass_drift,
                     "floor_hits": result.floor_hits})
    meta.update(extra_meta)
    write_json(path.with_suffix(".json"), meta)


def solve_governing(
    initial: PmeField,
    t_end: float,
    params: GoverningParams,
    *,
    scheme: str = "implicit",
    bc: str = "dirichlet",
    log_step: float = 2e-4,
    **solver_options,
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

        def boundary_values(tau):
            t_phys = float(params.t_of_tau(tau))
            return (
                float(governing_profile(lo, t_phys, params)),
                float(governing_profile(hi, t_phys, params)),
            )

    shifted = PmeField(grid=initial.grid, u=initial.u, time=tau0, m=initial.m)
    result = solve_pme(
        shifted, tau1, scheme=scheme, bc=bc, boundary_values=boundary_values,
        log_step=log_step, **solver_options,
    )
    field = PmeField(grid=result.field.grid, u=result.field.u, time=t_end, m=initial.m)
    return SolveResult(field=field, mass_drift=result.mass_drift,
                       floor_hits=result.floor_hits, n_steps=result.n_steps,
                       scheme=result.scheme)
