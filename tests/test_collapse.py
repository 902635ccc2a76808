import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.optimize import least_squares

from qdiff import collapse
from qdiff.cli import BANDWIDTH_SCALE, CORE_SPAN_SCALES, cmd_synth
from qdiff.collapse import (
    CollapseResult,
    FitError,
    LagFit,
    collapse_pdfs,
    collapse_spread,
    fit_beta_law,
    fit_collapsed,
    fit_qgauss,
    grid_mass,
)
from qdiff.density import DEFAULT_GRID_POINTS, EmpiricalPdf, kde
from qdiff.qgauss import QParams, ScalingLaw, qgauss_pdf, qgauss_sample, selfsim_pdf


def analytic_pdf(p: QParams, span: float, n: int = 8193, lag: float = 1.0) -> EmpiricalPdf:
    grid = np.linspace(-span, span, n)
    return EmpiricalPdf.from_function(lambda x: qgauss_pdf(x, p), grid, lag=lag)


def selfsim_family(q, law, lags, span_widths=60.0, n=4097):
    pdfs = []
    for t in lags:
        w = float(law.width(t))
        grid = np.linspace(-span_widths * w, span_widths * w, n)
        pdfs.append(EmpiricalPdf.from_function(
            lambda x: selfsim_pdf(x, t, q, law), grid, lag=float(t)
        ))
    return pdfs


class TestFitQGauss:
    def test_exact_round_trip(self):
        fit = fit_qgauss(analytic_pdf(QParams(1.71, 2.5), span=40.0))
        assert fit.params.q == pytest.approx(1.71, abs=1e-6)
        assert fit.params.beta == pytest.approx(2.5, abs=2.5e-6)
        assert not fit.at_boundary

    def test_exact_gaussian_hits_domain_edge(self):
        p = QParams(1.0, 1.0)
        fit = fit_qgauss(analytic_pdf(p, span=8.0))
        assert fit.params.q - 1.0 < 1e-3
        assert fit.at_boundary

    def test_narrow_window_kde_chain(self):
        # heavy-tail member estimated from samples, fitted inside the bump
        # window only; the grid-truncation term keeps it identifiable
        p = QParams(2.73, 1e4)
        x = qgauss_sample(p, 10**6, seed=21)
        est = kde(x, bandwidth=0.0008, grid=(-1.0, 1.0, 16385))
        fit = fit_qgauss(est, restriction=(-0.034, 0.034))
        assert fit.params.q == pytest.approx(2.73, abs=0.05)

    def test_truncation_aware_on_renormalized_grid(self):
        # nearly half the mass of this member lies beyond the grid;
        # the conditioned model still recovers the parameters exactly
        p = QParams(2.73, 4793.0)
        fit = fit_qgauss(analytic_pdf(p, span=1.017))
        assert fit.params.q == pytest.approx(2.73, abs=1e-6)
        assert fit.params.beta == pytest.approx(4793.0, rel=1e-5)
        assert fit.grid_mass == pytest.approx(
            grid_mass(2.73, 4793.0, -1.017, 1.017), rel=1e-6
        )

    def test_scale_equivariance(self):
        base = analytic_pdf(QParams(1.6, 1.0), span=50.0)
        s = 3.0
        scaled = EmpiricalPdf(
            lag=base.lag, grid=base.grid * s, density=base.density / s,
            n_samples=0, bandwidth=0.0,
        )
        fit0 = fit_qgauss(base)
        fit1 = fit_qgauss(scaled)
        assert fit1.params.q == pytest.approx(fit0.params.q, abs=1e-6)
        assert fit1.params.beta == pytest.approx(fit0.params.beta / s**2, rel=1e-5)

    def test_too_few_points(self):
        pdf = analytic_pdf(QParams(1.5, 1.0), span=10.0, n=257)
        with pytest.raises(FitError):
            fit_qgauss(pdf, restriction=(-0.1, 0.1))


class TestGridMass:
    def test_wide_grid_holds_everything(self):
        assert grid_mass(1.5, 1.0, -1e4, 1e4) == pytest.approx(1.0, abs=1e-6)

    def test_matches_quadrature(self):
        p = QParams(2.2, 3.0)
        val, _ = integrate.quad(lambda x: qgauss_pdf(x, p), -2.0, 5.0)
        assert grid_mass(2.2, 3.0, -2.0, 5.0) == pytest.approx(val, rel=1e-9)

    def test_gaussian_branch(self):
        assert grid_mass(1.0, 0.5, -3.0, 3.0) == pytest.approx(0.9973, abs=1e-4)


class TestBetaLaw:
    @pytest.mark.parametrize("alpha,d_coef", [(1.79, 0.1118), (1.26, 4.8e-3)])
    def test_exact_recovery(self, alpha, d_coef):
        lags = np.geomspace(1, 3000, 12)
        fits = [
            LagFit(lag=float(t), params=QParams(1.7, (d_coef * t) ** (-2.0 / alpha)),
                   fit_residual=0.0, n_samples=0)
            for t in lags
        ]
        law = fit_beta_law(fits)
        assert law.alpha == pytest.approx(alpha, rel=1e-6)
        assert law.d_coef == pytest.approx(d_coef, rel=1e-6)

    def test_constant_beta_flagged(self):
        fits = [
            LagFit(lag=t, params=QParams(1.7, 2.0), fit_residual=0.0, n_samples=0)
            for t in (1.0, 10.0, 100.0)
        ]
        with pytest.raises(FitError, match="widths"):
            fit_beta_law(fits)

    def test_insufficient_lags(self):
        fits = [
            LagFit(lag=t, params=QParams(1.7, 1.0 / t), fit_residual=0.0, n_samples=0)
            for t in (1.0, 10.0)
        ]
        with pytest.raises(FitError):
            fit_beta_law(fits)


class TestCollapse:
    def setup_method(self):
        self.q = 1.71
        self.law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        self.lags = [1.0, 10.0, 100.0, 1000.0]
        self.pdfs = selfsim_family(self.q, self.law, self.lags)

    def test_exact_family_lands_on_one_curve(self):
        pts = collapse_pdfs(self.pdfs, self.law)
        assert collapse_spread(pts) < 1e-10

    def test_wrong_alpha_blows_up_spread(self):
        right = collapse_spread(collapse_pdfs(self.pdfs, self.law))
        wrong_law = ScalingLaw(alpha=self.law.alpha + 0.3, d_coef=self.law.d_coef)
        wrong = collapse_spread(collapse_pdfs(self.pdfs, wrong_law))
        assert wrong >= 10.0 * max(right, 1e-12)

    def test_single_lag_is_pure_rescaling(self):
        pts = collapse_pdfs(self.pdfs[:1], self.law)
        w = float(self.law.width(self.lags[0]))
        x_back = pts[:, 0] * w
        dens_back = pts[:, 1] / w
        assert np.allclose(x_back, self.pdfs[0].grid)
        assert np.allclose(dens_back, self.pdfs[0].density)
        assert collapse_spread(pts) == 0.0

    def test_residual_minimized_at_true_alpha(self):
        alphas = np.linspace(1.4, 2.2, 17)
        spreads = [
            collapse_spread(collapse_pdfs(
                self.pdfs, ScalingLaw(alpha=float(a), d_coef=self.law.d_coef)
            ))
            for a in alphas
        ]
        best = alphas[int(np.argmin(spreads))]
        da = alphas[1] - alphas[0]
        assert abs(best - self.law.alpha) <= da

    def test_restriction_masks_points(self):
        pts_all = collapse_pdfs(self.pdfs, self.law)
        pts_cut = collapse_pdfs(
            self.pdfs, self.law, restriction=lambda t, xs: np.abs(xs) < self.law.width(t)
        )
        assert pts_cut.shape[0] < pts_all.shape[0]
        assert np.all(np.abs(pts_cut[:, 0]) < 1.0 + 1e-12)


class TestFitCollapsed:
    def test_weak_regime_master_curve(self):
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        pdfs = selfsim_family(1.71, law, [1.0, 10.0, 100.0, 1000.0, 3000.0])
        pts = collapse_pdfs(pdfs, law)
        res = fit_collapsed(pts, law, zone="C")
        assert res.q == pytest.approx(1.71, abs=1e-4)
        assert res.zone == "C"

    def test_strong_regime_bump_window(self):
        # pooled analytic bump-window data at true (untruncated) levels
        law = ScalingLaw(alpha=1.26, d_coef=4.8e-3)
        unit = QParams(2.73, 1.0)
        rows = []
        for t in (1.0, 3.0, 10.0, 35.0):
            x_resc = np.linspace(-2.0, 2.0, 801)
            rows.append(np.column_stack([
                x_resc, qgauss_pdf(x_resc, unit), np.full(x_resc.size, t)
            ]))
        res = fit_collapsed(np.vstack(rows), law, zone="A")
        assert res.q == pytest.approx(2.73, abs=1e-3)

    def test_gaussian_family(self):
        law = ScalingLaw(alpha=2.0, d_coef=1.0)
        pdfs = selfsim_family(1.0, law, [1.0, 4.0, 16.0], span_widths=12.0)
        pts = collapse_pdfs(pdfs, law)
        res = fit_collapsed(pts, law, zone="C")
        assert res.q - 1.0 < 1e-3

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_collapsed(np.zeros((10, 3)), ScalingLaw(2.0, 1.0))

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CollapseResult(q=1.7, scaling=ScalingLaw(2.0, 1.0),
                           collapse_residual=0.0, zone="X")


class TestMassCorrectedPooling:
    def test_lag_dependent_truncation_is_undone(self):
        # grids spanning different numbers of widths renormalize each lag
        # differently; the per-lag masses restore one master curve
        q = 2.73
        law = ScalingLaw(alpha=1.26, d_coef=4.8e-3)
        lags = [1.0, 5.0, 35.0]
        spans = [70.0, 45.0, 25.0]
        pdfs, masses = [], {}
        for t, span_w in zip(lags, spans):
            w = float(law.width(t))
            grid = np.linspace(-span_w * w, span_w * w, 4097)
            pdfs.append(EmpiricalPdf.from_function(
                lambda x: selfsim_pdf(x, t, q, law), grid, lag=t
            ))
            masses[t] = grid_mass(q, w**-2.0, grid[0], grid[-1])
        raw = collapse_spread(collapse_pdfs(pdfs, law))
        fixed = collapse_spread(collapse_pdfs(pdfs, law, grid_masses=masses))
        assert fixed < 0.2 * raw
        pts = collapse_pdfs(pdfs, law, grid_masses=masses,
                            restriction=lambda t, xs: np.abs(xs) < 2.0 * law.width(t))
        res = fit_collapsed(pts, law, zone="A")
        assert res.q == pytest.approx(q, abs=5e-3)


def reference_grid_mass(q, beta, lo, hi):
    """The scipy.stats form grid_mass replaced; it must agree bit for bit."""
    if abs(q - 1.0) <= 1e-8:
        scale = 1.0 / math.sqrt(2.0 * beta)
        return float(stats.norm.cdf(hi / scale) - stats.norm.cdf(lo / scale))
    nu = (3.0 - q) / (q - 1.0)
    scale = 1.0 / math.sqrt((3.0 - q) * beta)
    return float(stats.t.cdf(hi / scale, df=nu) - stats.t.cdf(lo / scale, df=nu))


class TestGridMassBits:
    @pytest.mark.parametrize("q", [1.0, 1.0 + 1e-9, 1.0 - 5e-9, 1.0 + 1e-8, 1.0 + 2e-8,
                                   1.0 + 1e-6, 1.26, 1.5, 1.71, 2.2, 2.73, 3.0 - 1e-6])
    def test_equals_scipy_stats_difference(self, q):
        for beta in (1e-4, 0.5, 1.0, 2.5, 4793.0, 1e6):
            for lo, hi in ((-1.017, 1.017), (-2.0, 5.0), (-1e4, 1e4), (-0.0, 0.3),
                           (0.1, 0.2), (-3e-3, -1e-3), (-50.0, 50.0)):
                got = grid_mass(q, beta, lo, hi)
                want = reference_grid_mass(q, beta, lo, hi)
                assert got.hex() == want.hex(), (q, beta, lo, hi)


class TestBimodalStart:
    def test_zero_at_half_peak_does_not_divide_by_zero(self):
        grid = np.linspace(-4.0, 4.0, 801)
        assert np.any(grid == 0.0)
        pdf = EmpiricalPdf.from_function(
            lambda x: np.exp(-0.5 * ((x - 1.5) / 0.3) ** 2)
            + np.exp(-0.5 * ((x + 1.5) / 0.3) ** 2),
            grid, lag=1.0,
        )
        try:
            fit = fit_qgauss(pdf)
        except FitError:
            return
        assert math.isfinite(fit.params.q) and fit.params.beta > 0.0

    def test_two_hump_fit_narrower_than_the_grid_raises(self):
        # the solve ends at a width of about 2e-6 on a grid spacing of 0.01
        grid = np.linspace(-4.0, 4.0, 801)
        pdf = EmpiricalPdf.from_function(
            lambda x: np.exp(-0.5 * ((x - 1.5) / 0.3) ** 2)
            + np.exp(-0.5 * ((x + 1.5) / 0.3) ** 2),
            grid, lag=1.0,
        )
        with pytest.raises(FitError, match="below the grid spacing"):
            fit_qgauss(pdf)


def pipeline_kde(x) -> EmpiricalPdf:
    """A core pdf as the pipeline estimates it: bandwidth and span from the
    25% quantile of |x|."""
    scale = float(np.quantile(np.abs(x), 0.25))
    span = CORE_SPAN_SCALES * scale
    return kde(x, bandwidth=BANDWIDTH_SCALE * scale, grid=(-span, span, DEFAULT_GRID_POINTS))


def mixture_lag_pdf(tmp_path) -> EmpiricalPdf:
    """Lag 3 of the two-regime ``synth --mode mixture`` family."""
    cmd_synth(tmp_path, q=1.71, alpha=1.79, d_coef=0.1118, lags=[3.0], n_per_lag=10**5,
              seed=7, mode="mixture")
    return pipeline_kde(np.load(tmp_path / "lag_000003.npy"))


FIT_PDFS = {
    "kde-q1.71": lambda tmp_path: pipeline_kde(qgauss_sample(QParams(1.71, 2.0), 10**5, seed=31)),
    "kde-q2.73": lambda tmp_path: pipeline_kde(qgauss_sample(QParams(2.73, 50.0), 10**5, seed=32)),
    "mixture-lag": mixture_lag_pdf,
    "exact-gaussian": lambda tmp_path: analytic_pdf(QParams(1.0, 1.0), span=8.0),
}


def eight_start_reference(fun, jac, bounds, x_half) -> list:
    """The multistart the screen replaced: q in (1.2, 1.7, 2.2, 2.7) crossed
    with two inverse widths that put half the peak at ``x_half`` for
    q = 1.2 and 2.2, one solve from each; it kept the lowest cost."""
    sols = []
    for q0 in (1.2, 1.7, 2.2, 2.7):
        for qb in (1.2, 2.2):
            b0 = (2.0 ** (qb - 1.0) - 1.0) / ((qb - 1.0) * x_half**2)
            sols.append(least_squares(fun, np.array([q0, math.log(b0)]), jac=jac,
                                      bounds=bounds, method="trf", max_nfev=collapse.MAX_ITER))
    return sols


@pytest.fixture
def solves(monkeypatch):
    """Every least-squares call the fits make, with its arguments and result."""
    calls = []

    def recording(fun, x0, **kwargs):
        sol = least_squares(fun, x0, **kwargs)
        calls.append((fun, kwargs, sol))
        return sol

    monkeypatch.setattr(collapse, "least_squares", recording)
    return calls


class TestOneSolvePerFit:
    def test_a_lag_fit_and_a_master_fit_each_solve_once(self, solves):
        fit_qgauss(analytic_pdf(QParams(1.71, 2.5), span=40.0))
        assert len(solves) == 1
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        fit_collapsed(collapse_pdfs(selfsim_family(1.71, law, [1.0, 10.0, 100.0]), law), law)
        assert len(solves) == 2

    @pytest.mark.parametrize("name", list(FIT_PDFS))
    def test_the_solve_matches_the_eight_start_search(self, name, solves, monkeypatch, tmp_path):
        pdf = FIT_PDFS[name](tmp_path)
        halfwidth, halfwidths = collapse._halfwidth, []

        def recording_halfwidth(x, log_dens):
            halfwidths.append(halfwidth(x, log_dens))
            return halfwidths[-1]

        monkeypatch.setattr(collapse, "_halfwidth", recording_halfwidth)
        fit = fit_qgauss(pdf)
        (fun, kwargs, sol), = solves
        refs = eight_start_reference(fun, kwargs["jac"], kwargs["bounds"], halfwidths[0])
        best = min(refs, key=lambda r: r.cost)
        # the eight solves stop on ftol and scatter along the flat q/beta
        # valley (by 9e-6 in q on the mixture lag); q must land within 1e-6
        # of the best one or inside that scatter
        ref_q = [float(r.x[0]) for r in refs]
        q = fit.params.q
        assert abs(q - best.x[0]) <= 1e-6 or min(ref_q) <= q <= max(ref_q)
        n = sol.fun.size
        rms = math.sqrt(2.0 * sol.cost / n)
        assert fit.fit_residual == rms
        assert rms <= math.sqrt(2.0 * best.cost / n) * (1.0 + 1e-9)
