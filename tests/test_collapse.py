import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.optimize import least_squares

from qdiff import collapse
from qdiff.cli import cmd_synth
from qdiff.collapse import (
    EDGE_SCALES,
    CollapseResult,
    FitError,
    LagBins,
    LagFit,
    bin_samples,
    collapse_pdfs,
    collapse_spread,
    collapse_zone,
    fit_beta_law,
    fit_collapsed,
    fit_qgauss,
    grid_mass,
)
from qdiff.density import EmpiricalPdf
from qdiff.qgauss import QParams, ScalingLaw, qgauss_pdf, qgauss_sample, selfsim_pdf, tail_mass


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


def sample_bins(x, lag: float = 1.0, cut=None) -> LagBins:
    """Bins as the pipeline counts them: edges from the 25% quantile of |x|."""
    return bin_samples(x, lag, float(np.quantile(np.abs(x), 0.25)), cut=cut)


def exact_bins(p: QParams, lag: float = 1.0, n: float = 1e6, window: float = math.inf) -> LagBins:
    """Bins that hold the expected counts of ``n`` draws of ``p`` (within
    ``window``), with edges scaled to the quartile of |x| at q = 1.5."""
    scale = 0.5 / math.sqrt(p.beta)
    edges = np.append(scale * EDGE_SCALES, math.inf)
    if window < math.inf:
        edges = np.append(edges[edges < window], window)
    tail = tail_mass(p.q, p.beta, edges)
    counts = n * (np.append(1.0, tail[:-1]) - tail) / (1.0 - tail[-1])
    return LagBins(lag, scale, edges, counts)


def family_bins(q, law, lags, window_widths=math.inf) -> list:
    """Exact bins of the self-similar family at each lag, windowed at
    ``window_widths`` widths."""
    out = []
    for t in lags:
        w = float(law.width(t))
        out.append(exact_bins(QParams(q, w**-2.0), lag=float(t), window=window_widths * w))
    return out


class TestFitQGauss:
    def test_exact_round_trip(self):
        fit = fit_qgauss(exact_bins(QParams(1.71, 2.5)))
        assert fit.params.q == pytest.approx(1.71, abs=1e-6)
        assert fit.params.beta == pytest.approx(2.5, rel=1e-6)
        assert fit.deviance < 1e-8 and fit.n_bins == 120
        assert not fit.at_boundary

    def test_exact_gaussian_hits_domain_edge(self):
        fit = fit_qgauss(exact_bins(QParams(1.0, 1.0)))
        assert fit.params.q - 1.0 < 1e-3
        assert fit.at_boundary

    def test_narrow_window_kde_chain(self):
        # heavy-tail member counted from samples and fitted inside the bump
        # window only; the model is conditioned on the window
        x = qgauss_sample(QParams(2.73, 1e4), 10**6, seed=21)
        fit = fit_qgauss(sample_bins(x, cut=0.034).below(0.034))
        assert fit.params.q == pytest.approx(2.73, abs=0.05)

    def test_truncation_aware_on_renormalized_grid(self):
        # nearly half the mass of this member lies beyond the window; the
        # conditioned model still recovers the parameters exactly
        p = QParams(2.73, 4793.0)
        fit = fit_qgauss(exact_bins(p, window=1.017), span=(-1.017, 1.017))
        assert fit.params.q == pytest.approx(2.73, abs=1e-6)
        assert fit.params.beta == pytest.approx(4793.0, rel=1e-5)
        assert fit.grid_mass == pytest.approx(grid_mass(2.73, 4793.0, -1.017, 1.017), rel=1e-6)

    def test_scale_equivariance(self):
        # a power of two scales every sample, the quartile and the edges
        # exactly, so the counts are the same
        x = qgauss_sample(QParams(1.6, 1.0), 10**5, seed=5)
        s = 4.0
        fit0 = fit_qgauss(sample_bins(x))
        fit1 = fit_qgauss(sample_bins(x * s))
        assert fit1.params.q == pytest.approx(fit0.params.q, abs=1e-6)
        assert fit1.params.beta == pytest.approx(fit0.params.beta / s**2, rel=1e-5)

    def test_too_few_points(self):
        bins = exact_bins(QParams(1.5, 1.0))
        counts = np.zeros_like(bins.counts)
        counts[40:49] = 100.0
        with pytest.raises(FitError, match="need >= 10 bins holding counts, got 9"):
            fit_qgauss(LagBins(1.0, bins.scale, bins.edges, counts))


class TestExactBins:
    @pytest.mark.parametrize("q", [1.05, 1.26, 1.5, 2.0, 2.5, 2.9])
    def test_round_trip_across_q(self, q):
        fit = fit_qgauss(exact_bins(QParams(q, 0.7)))
        assert fit.params.q == pytest.approx(q, abs=1e-6)
        assert fit.params.beta == pytest.approx(0.7, rel=1e-5)

    @pytest.mark.parametrize("q", [1.26, 1.71, 2.73])
    def test_window_round_trip(self, q):
        # a window at one width: most of the mass lies outside it
        fit = fit_qgauss(exact_bins(QParams(q, 4.0), window=0.5))
        assert fit.params.q == pytest.approx(q, abs=1e-5)
        assert fit.params.beta == pytest.approx(4.0, rel=1e-4)

    @pytest.mark.parametrize("q", [1.0 + 1e-6, 1.26, 1.71, 2.2, 2.73])
    def test_deviance_is_the_poisson_likelihood_ratio(self, q):
        # counts drawn from one member, the model another; the oracle takes
        # the bin masses from scipy.stats and the deviance from the Poisson
        # log pmf, against the saturated model
        x = qgauss_sample(QParams(q, 2.0), 20_000, seed=8)
        bins = sample_bins(x)
        fit_q, beta = min(q + 0.1, 2.9), 1.5
        nu = (3.0 - fit_q) / (fit_q - 1.0)
        edges = np.append(0.0, bins.edges) * math.sqrt((3.0 - fit_q) * beta)
        mu = x.size * np.diff(2.0 * stats.t.cdf(edges, df=nu) - 1.0)
        c = bins.counts
        want = 2.0 * np.sum(stats.poisson.logpmf(c, c) - stats.poisson.logpmf(c, mu))
        got = collapse._Counts([bins]).residuals(fit_q, np.array([math.log(beta)]))
        assert np.sum(got**2) == pytest.approx(want, rel=1e-9)
        # the oracle's 1 - 2 F differences lose the far tail, where no bin has counts
        filled = c > 0
        assert np.array_equal(np.sign(got[filled]), np.sign(c - mu)[filled])


class TestBins:
    def test_counts_every_sample_once(self):
        x = qgauss_sample(QParams(1.71, 2.0), 10**4, seed=3)
        bins = sample_bins(x)
        assert bins.counts.size == 120 and bins.counts.sum() == x.size
        assert bins.edges[-1] == math.inf
        lower = np.append(0.0, bins.edges[:-1])
        k = 57
        assert bins.counts[k] == np.count_nonzero((np.abs(x) >= lower[k]) & (np.abs(x) < bins.edges[k]))

    def test_a_window_is_one_more_edge(self):
        x = qgauss_sample(QParams(1.71, 2.0), 10**4, seed=3)
        full = sample_bins(x, cut=0.3)
        inside = full.below(0.3)
        assert full.counts.size == 121 and inside.edges[-1] == 0.3
        assert inside.counts.sum() == np.count_nonzero(np.abs(x) < 0.3)
        with pytest.raises(ValueError, match="not a bin edge"):
            full.below(0.31)


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
        bins = family_bins(1.71, law, [1.0, 10.0, 100.0, 1000.0, 3000.0])
        res = fit_collapsed(bins, ScalingLaw(alpha=1.6, d_coef=0.2), 1.5, zone="C")
        assert res.q == pytest.approx(1.71, abs=1e-4)
        assert res.scaling.alpha == pytest.approx(1.79, abs=1e-4)
        assert res.scaling.d_coef == pytest.approx(0.1118, rel=1e-4)
        assert res.zone == "C" and res.n_points == 5 * 120

    def test_strong_regime_bump_window(self):
        # each lag fitted inside two widths, with its model conditioned there
        law = ScalingLaw(alpha=1.26, d_coef=4.8e-3)
        bins = family_bins(2.73, law, [1.0, 3.0, 10.0, 35.0], window_widths=2.0)
        res = fit_collapsed(bins, ScalingLaw(alpha=1.4, d_coef=1e-2), 2.0, zone="A")
        assert res.q == pytest.approx(2.73, abs=1e-3)
        assert res.scaling.alpha == pytest.approx(1.26, abs=1e-3)

    def test_gaussian_family(self):
        law = ScalingLaw(alpha=2.0, d_coef=1.0)
        res = fit_collapsed(family_bins(1.0, law, [1.0, 4.0, 16.0]), law, 1.5, zone="C")
        assert res.q - 1.0 < 1e-3

    def test_too_few_points(self):
        law = ScalingLaw(2.0, 1.0)
        with pytest.raises(FitError, match="need >= 3 lags"):
            fit_collapsed(family_bins(1.5, law, [1.0, 2.0]), law, 1.5)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CollapseResult(q=1.7, scaling=ScalingLaw(2.0, 1.0),
                           collapse_residual=0.0, zone="X")

    def test_stated_errors_cover_sampled_truth(self):
        # 4 lags of 10^5 draws: each error is finite and positive, and the
        # fit lies within 4 of them of the truth
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        lags = [1.0, 10.0, 100.0, 1000.0]
        bins = [sample_bins(qgauss_sample(QParams(1.71, float(law.width(t)) ** -2.0), 10**5,
                                          seed=40 + i), lag=t) for i, t in enumerate(lags)]
        res = fit_collapsed(bins, law, 1.71)
        for value, err, truth in ((res.q, res.q_err, 1.71),
                                  (res.scaling.alpha, res.alpha_err, 1.79),
                                  (res.scaling.d_coef, res.d_coef_err, 0.1118)):
            assert math.isfinite(err) and err > 0.0
            assert abs(value - truth) < 4.0 * err

    def test_zone_draws_the_cloud_with_the_fitted_law(self):
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        lags = [1.0, 10.0, 100.0]
        bins = family_bins(1.71, law, lags)
        fits = [fit_qgauss(b) for b in bins]
        points, res = collapse_zone(selfsim_family(1.71, law, lags), bins, fits, "C")
        want = collapse_pdfs(selfsim_family(1.71, law, lags), res.scaling,
                             grid_masses={f.lag: f.grid_mass for f in fits})
        assert np.array_equal(points, want)
        assert res.scaling.alpha == pytest.approx(1.79, abs=1e-5)


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
        # inside two widths every pooled level is the unit master curve's
        np.testing.assert_allclose(pts[:, 1], qgauss_pdf(pts[:, 0], QParams(q, 1.0)), rtol=1e-2)


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
        # two humps, one sample at exactly 0: the fit ends finite or refuses
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(1.5, 0.3, 50_000), rng.normal(-1.5, 0.3, 50_000), [0.0]])
        try:
            fit = fit_qgauss(sample_bins(x))
        except FitError:
            return
        assert math.isfinite(fit.params.q) and fit.params.beta > 0.0

    def test_two_hump_fit_narrower_than_the_grid_raises(self):
        # a hump inside the inner bin and a sparse one far out: the solve
        # ends at a width of about 3e-62 on an innermost edge of 1e-3
        counts = np.zeros(120)
        counts[0], counts[100:111] = 1e5, 1.0
        with pytest.raises(FitError, match="below the innermost bin edge"):
            fit_qgauss(LagBins(1.0, 1.0, np.append(EDGE_SCALES, math.inf), counts))


def mixture_lag_bins(tmp_path) -> LagBins:
    """Lag 3 of the two-regime ``synth --mode mixture`` family."""
    cmd_synth(tmp_path, q=1.71, alpha=1.79, d_coef=0.1118, lags=[3.0], n_per_lag=10**5,
              seed=7, mode="mixture")
    return sample_bins(np.load(tmp_path / "lag_000003.npy"), lag=3.0)


# the ids name the inputs of the KDE-grid fits these replaced
FIT_BINS = {
    "kde-q1.71": lambda tmp_path: sample_bins(qgauss_sample(QParams(1.71, 2.0), 10**5, seed=31)),
    "kde-q2.73": lambda tmp_path: sample_bins(qgauss_sample(QParams(2.73, 50.0), 10**5, seed=32)),
    "mixture-lag": mixture_lag_bins,
    "exact-gaussian": lambda tmp_path: exact_bins(QParams(1.0, 1.0)),
}


def eight_start_reference(fun, bounds, scale) -> list:
    """One solve from each of eight starts: q in (1.2, 1.7, 2.2, 2.7)
    crossed with the two inverse widths that put the 25% quantile of |x|
    at ``scale`` for q = 1.2 and 2.2."""
    sols = []
    for q0 in (1.2, 1.7, 2.2, 2.7):
        for qb in (1.2, 2.2):
            nu = (3.0 - qb) / (qb - 1.0)
            b0 = (stats.t.ppf(0.625, nu) / scale) ** 2 / (3.0 - qb)
            sols.append(least_squares(fun, np.array([q0, math.log(b0)]), bounds=bounds,
                                      method="trf", max_nfev=collapse.MAX_ITER))
    return sols


@pytest.fixture
def solves(monkeypatch):
    """Every least-squares call the fits make, with its arguments and result."""
    calls = []

    def recording(fun, x0, **kwargs):
        sol = least_squares(fun, x0, **kwargs)
        calls.append((fun, x0, kwargs, sol))
        return sol

    monkeypatch.setattr(collapse, "least_squares", recording)
    return calls


class TestOneSolvePerFit:
    def test_a_lag_fit_and_a_master_fit_each_solve_once(self, solves):
        fit_qgauss(exact_bins(QParams(1.71, 2.5)))
        assert len(solves) == 1
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        fit_collapsed(family_bins(1.71, law, [1.0, 10.0, 100.0]), law, 1.7)
        assert len(solves) == 2

    @pytest.mark.parametrize("name", list(FIT_BINS))
    def test_the_solve_matches_the_eight_start_search(self, name, solves, tmp_path):
        bins = FIT_BINS[name](tmp_path)
        fit = fit_qgauss(bins)
        (fun, x0, kwargs, sol), = solves
        refs = eight_start_reference(fun, kwargs["bounds"], bins.scale)
        best = min(refs, key=lambda r: r.cost)
        # the one start reaches the deviance of the best of eight, and of a
        # solve from its own start with a three-point Jacobian
        three = least_squares(fun, x0, jac="3-point", bounds=kwargs["bounds"], method="trf",
                              max_nfev=collapse.MAX_ITER)
        assert fit.deviance == 2.0 * sol.cost
        assert fit.deviance <= 2.0 * min(best.cost, three.cost) * (1.0 + 1e-6) + 1e-9
        ref_q = [float(r.x[0]) for r in refs]
        assert abs(fit.params.q - best.x[0]) <= 1e-4 or min(ref_q) <= fit.params.q <= max(ref_q)
