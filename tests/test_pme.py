import math
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from conftest import loglog_slope_fd
from qdiff.pme import (
    U_FLOOR,
    GoverningParams,
    PmeField,
    SolverError,
    barenblatt,
    barenblatt_mass,
    barenblatt_residual,
    black_scholes_d2,
    governing_profile,
    map_constants,
    solve_governing,
    solve_pme,
    _step_implicit,
)
from qdiff.qgauss import ScalingLaw, c_q, selfsim_pdf

WEAK = (1.71, 1.79, 0.1118)
STRONG = (2.73, 1.26, 4.8e-3)


def barenblatt_field(grid, t, m, c=1.0):
    return PmeField(grid=grid, u=np.asarray(barenblatt(grid, t, m, c)), time=t, m=m)


def analytic_boundary(grid, m, c=1.0):
    return lambda t: (
        float(barenblatt(grid[0], t, m, c)),
        float(barenblatt(grid[-1], t, m, c)),
    )


class TestBarenblatt:
    def test_peak_value_by_substitution(self):
        m, c = 0.29, 1.7
        assert barenblatt(0.0, 1.0, m, c) == pytest.approx(c ** (1.0 / (m - 1.0)), rel=1e-14)

    def test_heat_branch_is_heat_kernel(self):
        x = np.linspace(-5, 5, 11)
        t, c = 2.0, 3.0
        expect = c * np.exp(-x * x / (4 * t)) / math.sqrt(4 * math.pi * t)
        assert np.allclose(barenblatt(x, t, 1.0, c), expect, rtol=1e-14)
        assert barenblatt_mass(1.0, c) == c
        # and it solves the equation
        r = barenblatt_residual(np.linspace(0.2, 3.0, 8), 1.0, 1.0, c)
        assert np.max(r) < 1e-7

    def test_fast_diffusion_positive_everywhere(self):
        x = np.linspace(-100, 100, 1001)
        u = barenblatt(x, 1.0, 0.29, 1.0)
        assert np.all(u > 0.0)

    def test_slow_diffusion_compact_support(self):
        m, c = 1.5, 1.0
        b = (1.0 - m) / (2.0 * m * (m + 1.0))
        edge = math.sqrt(c / abs(b))
        assert barenblatt(edge * 1.01, 1.0, m, c) == 0.0
        assert barenblatt(edge * 0.99, 1.0, m, c) > 0.0

    def test_negative_m_interior_window(self):
        m, c = -0.73, 1.0
        b = (1.0 - m) / (2.0 * m * (m + 1.0))
        edge = math.sqrt(c / abs(b))
        assert np.isfinite(barenblatt(0.5 * edge, 1.0, m, c))
        assert np.isinf(barenblatt(1.5 * edge, 1.0, m, c))

    @pytest.mark.parametrize("m", [0.29, 0.5, -0.73])
    def test_solves_equation(self, m):
        # 4th-order finite-difference residual of the closed form
        if m > 0:
            x = np.linspace(0.05, 3.0, 25)
        else:
            b = (1.0 - m) / (2.0 * m * (m + 1.0))
            x = np.linspace(0.05, 0.6, 25) * math.sqrt(1.0 / abs(b))
        resid = barenblatt_residual(x, 1.0, m, 1.0, rel_step=3e-5)
        peak = float(np.max(np.asarray(barenblatt(x, 1.0, m, 1.0))))
        assert np.max(resid) < 1e-6 * peak

    def test_printed_sign_variant_fails_equation(self):
        # flipping the profile coefficient's sign stops solving the
        # equation; guards the convention against regressions
        m, c = 0.29, 1.0
        beta = 1.0 / (m + 1.0)
        b_flipped = (m - 1.0) / (2.0 * m * (m + 1.0))

        def wrong(x, t):
            xi = np.asarray(x) * t**-beta
            return t**-beta * (c + b_flipped * xi * xi) ** (1.0 / (m - 1.0))

        h = 1e-4
        x = np.array([0.2, 0.4])
        u_t = (wrong(x, 1.0 + h) - wrong(x, 1.0 - h)) / (2 * h)
        w_xx = (wrong(x + h, 1.0) ** m - 2 * wrong(x, 1.0) ** m + wrong(x - h, 1.0) ** m) / h**2
        assert np.max(np.abs(u_t - w_xx)) > 0.1

    def test_mass_helper_matches_trapezoid(self):
        for m, c, tol in [(0.29, 1.0, 1e-4), (0.5, 2.0, 1e-6), (1.5, 1.0, 1e-6)]:
            # power tails put a little mass beyond any finite window
            grid = np.linspace(-300, 300, 600001)
            total = np.trapezoid(np.asarray(barenblatt(grid, 1.0, m, c)), grid)
            assert barenblatt_mass(m, c) == pytest.approx(total, rel=tol)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            barenblatt(0.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            barenblatt(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            barenblatt(0.0, 1.0, 2.5, 1.0)
        with pytest.raises(ValueError):
            barenblatt(0.0, 1.0, 0.5, -1.0)


class TestMapConstants:
    def test_classical_limit(self):
        gp = map_constants(1.0, 2.0, 0.37)
        assert gp.xi == 1.0
        assert gp.b_coef == pytest.approx(0.37 / 4.0, rel=1e-12)

    def test_weak_regime_relations_hold(self):
        q, alpha, d = WEAK
        gp = map_constants(q, alpha, d)
        cq = c_q(q)
        spread = 2.0 * gp.c_int * (2.0 - q) * (3.0 - q)
        assert spread > 0.0
        assert gp.b_coef * spread ** (alpha / 2.0) == pytest.approx(d, rel=1e-10)
        assert gp.b_coef ** (1 / alpha) * abs(gp.c_int) ** (1 / (q - 1)) * d ** (-1 / alpha) == pytest.approx(cq, rel=1e-10)

    def test_strong_regime_warns_and_uses_negative_branch(self):
        q, alpha, d = STRONG
        with pytest.warns(UserWarning, match="C < 0"):
            gp = map_constants(q, alpha, d)
        assert gp.c_int < 0.0
        spread = 2.0 * gp.c_int * (2.0 - q) * (3.0 - q)
        assert spread > 0.0
        assert gp.b_coef * spread ** (alpha / 2.0) == pytest.approx(d, rel=1e-10)

    def test_q2_singularity_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            map_constants(2.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            map_constants(2.0 + 1e-9, 1.5, 0.1)

    def test_xi_consistency_exact(self):
        for q, alpha, d in (WEAK, STRONG):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gp = map_constants(q, alpha, d)
            assert gp.xi == (3.0 - q) / alpha
            assert abs(gp.xi * gp.alpha + gp.q - 3.0) < 1e-14

    def test_governing_params_validation(self):
        with pytest.raises(ValueError):
            GoverningParams(q=1.7, alpha=1.8, d_coef=0.1, xi=0.5,
                            b_coef=0.1, c_int=1.0, c_q_val=2.5)


class TestGoverningProfile:
    @pytest.mark.parametrize("q,alpha,d", [WEAK, STRONG])
    def test_identity_with_selfsim(self, q, alpha, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = map_constants(q, alpha, d)
        law = ScalingLaw(alpha=alpha, d_coef=d)
        for t in (0.5, 5.0, 211.0):
            x = np.linspace(-6 * law.width(t), 6 * law.width(t), 401)
            ours = governing_profile(x, t, gp)
            ref = selfsim_pdf(x, t, q, law)
            assert np.max(np.abs(ours - ref)) < 1e-12 * float(np.max(ref))


class TestSolvePme:
    def test_heat_equation_baseline(self):
        grid = np.linspace(-17, 17, 2049)
        f0 = barenblatt_field(grid, 0.5, 1.0)
        res = solve_pme(f0, 1.0, scheme="explicit", bc="zero-flux")
        exact = np.asarray(barenblatt(grid, 1.0, 1.0, 1.0))
        assert np.max(np.abs(res.field.u - exact)) < 1e-4 * float(np.max(exact))
        assert res.mass_drift < 1e-6

    def test_zero_field_stays_zero(self):
        grid = np.linspace(-1, 1, 101)
        f0 = PmeField(grid=grid, u=np.zeros(grid.size), time=1.0, m=1.0)
        res = solve_pme(f0, 2.0, scheme="explicit", bc="zero-flux")
        assert np.all(res.field.u == 0.0)

    def test_fast_diffusion_tracks_analytic(self):
        m = 0.29
        grid = np.linspace(-45, 45, 2049)
        f0 = barenblatt_field(grid, 1.0, m)
        res = solve_pme(f0, 4.0, scheme="implicit", bc="dirichlet",
                        boundary_values=analytic_boundary(grid, m), log_step=2e-4)
        exact = np.asarray(barenblatt(grid, 4.0, m, 1.0))
        assert np.max(np.abs(res.field.u - exact)) < 1e-3 * float(np.max(exact))

    def test_zero_flux_conserves_mass_exactly(self):
        m = 0.5
        grid = np.linspace(-30, 30, 1025)
        f0 = barenblatt_field(grid, 1.0, m)
        res = solve_pme(f0, 2.0, scheme="implicit", bc="zero-flux", log_step=1e-3)
        assert res.mass_drift < 1e-12

    def test_compact_support_front(self):
        m, c = 1.5, 1.0
        grid = np.linspace(-30, 30, 2049)
        f0 = barenblatt_field(grid, 1.0, m, c)
        res = solve_pme(f0, 4.0, scheme="explicit", bc="zero-flux")
        b = (1.0 - m) / (2.0 * m * (m + 1.0))
        front = math.sqrt(c / abs(b)) * 4.0 ** (1.0 / (m + 1.0))
        occupied = res.field.u > 1e-8 * float(np.max(res.field.u))
        numeric_front = float(np.max(np.abs(grid[occupied])))
        assert abs(numeric_front - front) <= 2.0 * f0.dx

    def test_self_similar_rescaling_maps_solutions(self):
        # (x, u, tau) -> (lam^b x, lam^-b u, lam tau) sends solutions to
        # solutions; checked on a non-self-similar initial condition
        m = 0.5
        lam = 2.0
        beta = 1.0 / (m + 1.0)
        grid = np.linspace(-25, 25, 1025)
        u0 = np.exp(-0.5 * grid**2) * (1.0 + 0.3 * np.cos(grid))
        f_a = PmeField(grid=grid, u=u0, time=1.0, m=m)
        res_a = solve_pme(f_a, 1.5, scheme="implicit", bc="zero-flux", log_step=2e-4)

        grid_b = grid * lam**beta
        u0_b = u0 * lam**-beta
        f_b = PmeField(grid=grid_b, u=u0_b, time=lam, m=m)
        res_b = solve_pme(f_b, 1.5 * lam, scheme="implicit", bc="zero-flux", log_step=2e-4)

        mapped = res_a.field.u * lam**-beta
        assert np.max(np.abs(res_b.field.u - mapped)) < 2e-3 * float(np.max(mapped))

    def test_spatial_convergence_second_order(self):
        m = 0.29
        errors = []
        for n in (513, 1025, 2049):
            grid = np.linspace(-20, 20, n)
            dx = grid[1] - grid[0]
            f0 = barenblatt_field(grid, 1.0, m)
            log_step = 2e-3 * (dx / (40.0 / 512.0)) ** 2
            res = solve_pme(f0, 2.0, scheme="implicit", bc="dirichlet",
                            boundary_values=analytic_boundary(grid, m),
                            log_step=log_step)
            exact = np.asarray(barenblatt(grid, 2.0, m, 1.0))
            errors.append(float(np.max(np.abs(res.field.u - exact))))
        order = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert order == pytest.approx(2.0, abs=0.3)
        assert order2 == pytest.approx(2.0, abs=0.3)

    def test_anti_diffusive_exponent_rejected(self):
        grid = np.linspace(-1, 1, 101)
        f0 = PmeField(grid=grid, u=np.ones(grid.size), time=1.0, m=-0.5)
        with pytest.raises(SolverError, match="ill-posed"):
            solve_pme(f0, 2.0)

    def test_time_and_step_guards(self):
        grid = np.linspace(-5, 5, 257)
        f0 = barenblatt_field(grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_pme(f0, 0.5)
        with pytest.raises(SolverError, match="budget"):
            solve_pme(f0, 100.0, scheme="explicit", max_steps=3)

    def test_auto_scheme_picks_implicit_for_stiff_runs(self):
        m = 0.29
        grid = np.linspace(-45, 45, 1025)
        f0 = barenblatt_field(grid, 1.0, m)
        res = solve_pme(f0, 1.05, bc="dirichlet",
                        boundary_values=analytic_boundary(grid, m),
                        explicit_step_budget=1000)
        assert res.scheme == "implicit"


class TestSolveGoverning:
    def test_weak_regime_family_evolution(self):
        q, alpha, d = WEAK
        gp = map_constants(q, alpha, d)
        law = ScalingLaw(alpha=alpha, d_coef=d)
        w_end = float(law.width(100.0))
        grid = np.linspace(-15 * w_end, 15 * w_end, 2305)
        u0 = selfsim_pdf(grid, 10.0, q, law)
        f0 = PmeField(grid=grid, u=u0, time=10.0, m=gp.m)
        res = solve_governing(f0, 100.0, gp, log_step=2e-4)
        exact = selfsim_pdf(grid, 100.0, q, law)
        assert np.max(np.abs(res.field.u - exact)) < 1e-3 * float(np.max(exact))
        assert res.field.time == 100.0

    def test_classical_limit_reduces_to_heat(self):
        gp = map_constants(1.0, 2.0, 1.0)
        law = ScalingLaw(alpha=2.0, d_coef=1.0)
        grid = np.linspace(-40, 40, 2049)
        u0 = selfsim_pdf(grid, 2.0, 1.0, law)
        f0 = PmeField(grid=grid, u=u0, time=2.0, m=1.0)
        res = solve_governing(f0, 8.0, gp, log_step=2e-4)
        exact = selfsim_pdf(grid, 8.0, 1.0, law)
        assert np.max(np.abs(res.field.u - exact)) < 1e-3 * float(np.max(exact))

    def test_perturbation_relaxes_to_family(self):
        q, alpha, d = WEAK
        gp = map_constants(q, alpha, d)
        law = ScalingLaw(alpha=alpha, d_coef=d)
        w_end = float(law.width(120.0))
        grid = np.linspace(-20 * w_end, 20 * w_end, 2049)
        u0 = selfsim_pdf(grid, 10.0, q, law)
        u0 = u0 * (1.0 + 0.1 * np.cos(2.0 * np.pi * grid / (4.0 * law.width(10.0))))
        u0 = np.maximum(u0, 0.0)
        u0 /= np.trapezoid(u0, grid)
        cur = PmeField(grid=grid, u=u0, time=10.0, m=gp.m)
        deviations = []
        for t in (17.8, 31.6, 56.2, 100.0):
            res = solve_governing(cur, t, gp, bc="zero-flux", log_step=5e-4)
            cur = PmeField(grid=grid, u=res.field.u, time=t, m=gp.m)
            exact = selfsim_pdf(grid, t, q, law)
            core = np.abs(grid) <= 10.0 * float(law.width(t))
            deviations.append(
                float(np.max(np.abs(cur.u[core] - exact[core])) / np.max(exact))
            )
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_validation(self):
        gp = map_constants(*WEAK)
        grid = np.linspace(-5, 5, 257)
        f0 = PmeField(grid=grid, u=np.ones(grid.size) / 10.0, time=0.0 + 1.0, m=0.5)
        with pytest.raises(ValueError, match="exponent"):
            solve_governing(f0, 2.0, gp)
        f1 = PmeField(grid=grid, u=np.ones(grid.size) / 10.0, time=0.0, m=gp.m)
        with pytest.raises(ValueError, match="t_start"):
            solve_governing(f1, 2.0, gp)


class TestDiffusionCoefficient:
    def test_classical_limit_constant(self):
        gp = map_constants(1.0, 2.0, 0.37)
        x = np.array([0.0, 1.0, 50.0, 1e4])
        d2 = np.asarray(black_scholes_d2(x, 3.0, gp))
        assert np.max(np.abs(d2 - 0.37)) < 1e-12
        d2b = np.asarray(black_scholes_d2(x, 300.0, gp))
        assert np.max(np.abs(d2b - 0.37)) < 1e-12

    @pytest.mark.parametrize("q,alpha,d", [WEAK, STRONG])
    def test_large_x_quadratic_scaling(self, q, alpha, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = map_constants(q, alpha, d)
        t = 5.0
        w = (d * t) ** (1.0 / alpha)
        slope = loglog_slope_fd(lambda x: float(black_scholes_d2(x, t, gp)),
                                1e2 * w, 1e4 * w)
        assert slope == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("q,alpha,d", [WEAK, STRONG])
    def test_identity_with_rescaled_form(self, q, alpha, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = map_constants(q, alpha, d)
        law = ScalingLaw(alpha=alpha, d_coef=d)
        t = 7.0
        x = np.linspace(-20 * law.width(t), 20 * law.width(t), 301)
        dens = selfsim_pdf(x, t, q, law)
        direct = np.asarray(black_scholes_d2(x, t, gp))
        via_density = gp.xi * d**gp.xi * dens ** (1.0 - q) * t ** (gp.xi - 1.0)
        assert np.max(np.abs(direct - via_density) / np.abs(via_density)) < 1e-10

    def test_time_validation(self):
        gp = map_constants(*WEAK)
        with pytest.raises(ValueError):
            black_scholes_d2(1.0, 0.0, gp)


class TestFieldSnapshot:
    def test_csv_and_metadata(self, tmp_path):
        grid = np.linspace(-17, 17, 513)
        f0 = barenblatt_field(grid, 0.5, 1.0)
        res = solve_pme(f0, 1.0, scheme="explicit", bc="zero-flux")
        from qdiff.pme import write_field_csv
        path = tmp_path / "field.csv"
        write_field_csv(res, path, dt="adaptive")
        import json
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["m"] == 1.0 and meta["scheme"] == "explicit"
        assert meta["mass"] == pytest.approx(1.0, abs=1e-6)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], grid)
        assert np.allclose(data[:, 1], res.field.u)


def banded_reference_step(u, dx, dt, m, bc, bdry):
    """Backward-Euler step assembled as a (3, n) band for solve_banded((1, 1), ...)."""
    n = u.size
    uf = np.maximum(u, U_FLOOR)
    w = uf**m
    du = np.diff(uf)
    dw = np.diff(w)
    mid = 0.5 * (uf[:-1] + uf[1:])
    d_face = np.where(np.abs(du) > 1e-14 * mid, dw / np.where(du == 0.0, 1.0, du),
                      m * mid ** (m - 1.0))
    lam = dt / (dx * dx)
    band = np.zeros((3, n))
    band[1] = 1.0
    band[1, 1:-1] += lam * (d_face[:-1] + d_face[1:])
    band[0, 2:] = -lam * d_face[1:]
    band[2, :-2] = -lam * d_face[:-1]
    rhs = u.copy()
    if bc == "zero-flux":
        band[1, 0] += 2.0 * lam * d_face[0]
        band[0, 1] = -2.0 * lam * d_face[0]
        band[1, -1] += 2.0 * lam * d_face[-1]
        band[2, -2] = -2.0 * lam * d_face[-1]
    else:
        rhs[0], rhs[-1] = bdry
    return solve_banded((1, 1), band, rhs)


def plateau_field(grid):
    """Gaussian with a flat top and a zero run: equal neighbours on many faces."""
    u = np.exp(-0.5 * (grid / 4.0) ** 2)
    u[100:160] = u[100]
    u[:30] = 0.0
    return u


class TestImplicitStep:
    """The LAPACK gtsv step must equal solve_banded on the same system, bit for bit."""

    GRID = np.linspace(-30.0, 30.0, 257)

    @pytest.mark.parametrize("bc", ["dirichlet", "zero-flux"])
    @pytest.mark.parametrize("m", [0.29, 0.6, 1.5])
    @pytest.mark.parametrize("shape", ["barenblatt", "plateau"])
    def test_bit_identical_to_solve_banded(self, m, bc, shape):
        grid = self.GRID
        dx = grid[1] - grid[0]
        if shape == "barenblatt":
            u = np.asarray(barenblatt(grid, 1.0, m, 1.0))
        else:
            u = plateau_field(grid)
            uf = np.maximum(u, U_FLOOR)
            mid = 0.5 * (uf[:-1] + uf[1:])
            assert np.any(~(np.abs(np.diff(uf)) > 1e-14 * mid))  # tangent faces present
        bdry = (1.01 * u[0], 0.99 * u[-1] + 1e-6)
        for dt in (2e-4, 0.05, 3.0):
            got = _step_implicit(u, dx, dt, m, bc, bdry)
            want = banded_reference_step(u, dx, dt, m, bc, bdry)
            assert np.array_equal(got, want)

    def test_non_finite_boundary_value_rejected(self):
        f0 = barenblatt_field(np.linspace(-20, 20, 129), 1.0, 0.29)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_pme(f0, 1.1, scheme="implicit", bc="dirichlet",
                      boundary_values=lambda t: (np.inf, 0.0))

    def test_singular_system_rejected(self):
        # lam = dt/dx^2 = -1/4 on a constant field makes I + lam K singular
        grid = np.linspace(0.0, 1.0, 9)
        dx = grid[1] - grid[0]
        with pytest.raises(LinAlgError, match="singular"):
            _step_implicit(np.ones(9), dx, -0.25 * dx * dx, 1.0, "zero-flux", None)
