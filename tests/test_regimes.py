import math

import numpy as np
import pytest
from scipy.signal import savgol_filter

from conftest import mixture_crossing
from qdiff import regimes as reg
from qdiff.density import EmpiricalPdf, kde, pdf_height
from qdiff.ingest import lag_ladder
from qdiff.qgauss import QParams, ScalingLaw, qgauss_pdf, qgauss_sample, selfsim_height, selfsim_sample
from qdiff.regimes import (
    N_LOG_GRID,
    SG_WINDOW,
    FitError,
    PowerLawFit,
    RegimePartition,
    _savgol_curvature,
    bump_boundary,
    detect_bump_end,
    fit_boundary_curve,
    fit_height_law,
    height_alpha,
)

BUMP = QParams(2.73, 1e4)
WIDE = QParams(1.71, 1.0)


def mixture_density(w=0.5, p1=BUMP, p2=WIDE):
    return lambda x: w * qgauss_pdf(x, p1) + (1.0 - w) * qgauss_pdf(x, p2)


class TestSavgolCurvatureBits:
    """The detector's curvature gives the bits of scipy's ``savgol_filter``
    on the cells ``_side_profile`` keeps."""

    @pytest.mark.parametrize("density", [mixture_density(), mixture_density(w=0.0)],
                             ids=["bump", "no_bump"])
    def test_equals_savgol_filter(self, density):
        s = np.linspace(math.log(1e-4), math.log(30.0), N_LOG_GRID)
        ds = s[1] - s[0]
        noise = 1e-3 * np.random.default_rng(5).standard_normal(N_LOG_GRID)
        logp = np.log(density(np.exp(s))) + noise
        got = _savgol_curvature(logp, ds)
        want = savgol_filter(logp, SG_WINDOW, polyorder=3, deriv=2, delta=ds)
        kept = slice(SG_WINDOW // 2 + 1, N_LOG_GRID - SG_WINDOW // 2 - 1)
        np.testing.assert_array_equal(got[kept].view(np.uint64), want[kept].view(np.uint64))


class TestBumpBoundary:
    def test_pure_qgauss_has_no_bump(self):
        for q, beta, span in [(1.71, 1.0, 20.0), (2.73, 1e4, 1.0), (1.5, 1.0, 50.0), (2.0, 10.0, 30.0)]:
            p = QParams(q, beta)
            pdf = EmpiricalPdf.from_function(
                lambda x: qgauss_pdf(x, p), np.linspace(-span, span, 16385), lag=1.0
            )
            assert bump_boundary(pdf) is None

    def test_pure_gaussian_has_no_bump(self):
        p = QParams(1.0, 0.5)
        pdf = EmpiricalPdf.from_function(
            lambda x: qgauss_pdf(x, p), np.linspace(-10, 10, 16385), lag=1.0
        )
        assert bump_boundary(pdf) is None

    def test_mixture_edges_near_component_crossing(self):
        x_cross = mixture_crossing(0.5, BUMP, WIDE)
        pdf = EmpiricalPdf.from_function(
            mixture_density(), np.linspace(-4, 4, 16385), lag=1.0
        )
        edges = bump_boundary(pdf)
        assert edges is not None
        x_minus, x_plus = edges
        assert abs(x_plus - x_cross) / x_cross < 0.10
        assert abs(-x_minus - x_cross) / x_cross < 0.10

    def test_mirrored_fixture_symmetry(self):
        pdf = EmpiricalPdf.from_function(
            mixture_density(), np.linspace(-4, 4, 16385), lag=1.0
        )
        x_minus, x_plus = bump_boundary(pdf)
        assert abs(abs(x_minus) - x_plus) <= pdf.dx

    def test_sampled_mixture_detection(self):
        x_cross = mixture_crossing(0.5, BUMP, WIDE)
        samples = np.concatenate([
            qgauss_sample(BUMP, 500_000, seed=11),
            qgauss_sample(WIDE, 500_000, seed=12),
        ])
        pdf = kde(samples, bandwidth=0.002, grid=(-4.0, 4.0, 16385))
        edges = bump_boundary(pdf)
        assert edges is not None
        assert abs(edges[1] - x_cross) / x_cross < 0.15

    def test_no_refinement_unless_both_sides_gate(self, monkeypatch):
        pdf = EmpiricalPdf.from_function(
            mixture_density(), np.linspace(-4, 4, 16385), lag=1.0
        )
        spike, crossing = reg._innermost_spike, reg._two_component_crossing
        calls = {"spike": 0, "crossing": 0}

        def first_side_only(log_pos, curv):  # the plus side gates, the minus side not
            calls["spike"] += 1
            return spike(log_pos, curv) if calls["spike"] == 1 else None

        def counted(*args):
            calls["crossing"] += 1
            return crossing(*args)

        monkeypatch.setattr(reg, "_innermost_spike", first_side_only)
        monkeypatch.setattr(reg, "_two_component_crossing", counted)
        assert bump_boundary(pdf) is None
        assert calls == {"spike": 2, "crossing": 0}

    def test_sampled_pure_member_stays_clean(self):
        # kernel bandwidth below the core width: no spurious break
        x = qgauss_sample(QParams(1.71, 1.0), 500_000, seed=5)
        pdf = kde(x, bandwidth=0.05, grid=(-20.0, 20.0, 16385))
        assert bump_boundary(pdf) is None


class TestBoundaryCurveFit:
    def test_exact_recovery(self):
        t = np.geomspace(1, 78, 9)
        x = 0.0339 * t**0.62
        fit = fit_boundary_curve([(ti, -xi, xi) for ti, xi in zip(t, x)])
        assert fit.a == pytest.approx(0.0339, rel=1e-12)
        assert fit.nu == pytest.approx(0.62, rel=1e-12)
        assert fit.residual < 1e-12

    def test_linear_boundary_gives_unit_exponent(self):
        t = np.array([1.0, 4.0, 9.0, 20.0])
        fit = fit_boundary_curve([(ti, 0.27 * ti) for ti in t])
        assert fit.nu == pytest.approx(1.0, rel=1e-12)

    def test_two_lags_insufficient(self):
        with pytest.raises(FitError):
            fit_boundary_curve([(1.0, 0.03), (2.0, 0.05)])

    def test_pooled_branches(self):
        t = np.array([1.0, 3.0, 9.0, 27.0])
        rows = [(ti, -0.02 * ti**0.5, 0.02 * ti**0.5) for ti in t]
        fit = fit_boundary_curve(rows)
        assert fit.n_points == 8
        assert fit.nu == pytest.approx(0.5, rel=1e-12)


class TestHeightLaw:
    def _heights(self, alpha, lags, q=1.71, d_coef=0.1118):
        law = ScalingLaw(alpha=alpha, d_coef=d_coef)
        return np.array([(t, selfsim_height(float(t), q, law)) for t in lags])

    def test_exact_recovery_strong_range(self):
        rows = self._heights(1.26, np.geomspace(1, 35, 8), q=2.73, d_coef=4.8e-3)
        fit = fit_height_law(rows, (1, 35))
        assert height_alpha(fit) == pytest.approx(1.26, abs=1e-6)

    def test_exact_recovery_weak_range(self):
        rows = self._heights(1.79, np.geomspace(78, 3000, 9))
        fit = fit_height_law(rows, (78, 3000))
        assert height_alpha(fit) == pytest.approx(1.79, abs=1e-6)

    def test_range_filtering(self):
        rows = np.vstack([
            self._heights(1.26, np.geomspace(1, 35, 6), q=2.73, d_coef=4.8e-3),
            self._heights(1.79, np.geomspace(78, 3000, 6)),
        ])
        fit_lo = fit_height_law(rows, (1, 35))
        fit_hi = fit_height_law(rows, (78, 3000))
        assert height_alpha(fit_lo) == pytest.approx(1.26, abs=1e-6)
        assert height_alpha(fit_hi) == pytest.approx(1.79, abs=1e-6)

    def test_constant_heights_flagged(self):
        rows = np.array([(t, 0.4) for t in (1.0, 5.0, 20.0, 70.0)])
        with pytest.raises(FitError, match="alpha undefined"):
            fit_height_law(rows, (1, 100))

    def test_nonpositive_heights(self):
        rows = np.array([(1.0, 0.5), (5.0, 0.0), (20.0, 0.1)])
        with pytest.raises(FitError):
            fit_height_law(rows, (1, 100))

    def test_insufficient_points(self):
        rows = self._heights(1.5, [1.0, 2.0])
        with pytest.raises(FitError):
            fit_height_law(rows, (1, 100))

    def test_powerlaw_fit_validation(self):
        with pytest.raises(ValueError):
            PowerLawFit(exponent=-1.0, prefactor=1.0, fit_range=(5.0, 1.0), residual=0.0)


class TestPartition:
    def test_inverted_times_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            RegimePartition(a=0.0339, nu=0.62, t_cross_start=78.0, t_bump_end=35.0)


class TestBumpEnd:
    def test_midpoint_of_last_detection(self):
        lags = [10.0, 20.0, 40.0, 80.0]
        bounds = [(-1, 1), (-1, 1), None, None]
        assert detect_bump_end(lags, bounds) == pytest.approx(math.sqrt(20.0 * 40.0))

    def test_never_disappearing(self):
        lags = [10.0, 20.0]
        assert detect_bump_end(lags, [(-1, 1), (-1, 1)]) is None

    def test_never_detected(self):
        assert detect_bump_end([1.0, 2.0], [None, None]) is None


@pytest.mark.slow
class TestSampledHeightLaw:
    def test_exponent_within_002_at_1e6(self):
        # kernel bandwidth and grid scale with the family width, so the
        # estimator bias is lag-independent and drops out of the slope
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        rows = []
        for i, t in enumerate(np.geomspace(1.0, 300.0, 8)):
            x = selfsim_sample(1.71, law, float(t), 10**6, seed=8800 + i)
            q25 = float(np.quantile(np.abs(x), 0.25))
            pdf = kde(x, bandwidth=0.05 * q25, grid=(-250 * q25, 250 * q25, 8193))
            rows.append((float(t), pdf_height(pdf)[1]))
        fit = fit_height_law(np.asarray(rows), (1.0, 300.0))
        assert abs(height_alpha(fit) - 1.79) <= 0.02


@pytest.mark.slow
class TestTwoRegimeSynthetic:
    def test_boundary_exponent_recovery(self):
        # well-separated scales keep both regimes detectable over the ladder
        law_a = ScalingLaw(alpha=1.26, d_coef=4.8e-4)
        law_c = ScalingLaw(alpha=1.79, d_coef=0.1118)
        lags = lag_ladder(1, 20, 4)
        rows_true, rows_det = [], []
        for i, t in enumerate(lags):
            t = float(t)
            w_a, w_c = float(law_a.width(t)), float(law_c.width(t))
            x_cross = mixture_crossing(0.5, QParams(2.73, w_a**-2), QParams(1.71, w_c**-2))
            n = 400_000
            samples = np.concatenate([
                selfsim_sample(2.73, law_a, t, n // 2, seed=9100 + 2 * i),
                selfsim_sample(1.71, law_c, t, n - n // 2, seed=9101 + 2 * i),
            ])
            q25 = float(np.quantile(np.abs(samples), 0.25))
            pdf = kde(samples, bandwidth=0.05 * q25, grid=(-40 * w_c, 40 * w_c, 16385))
            det = bump_boundary(pdf)
            assert det is not None, f"no bump detected at t={t}"
            rows_true.append((t, x_cross))
            rows_det.append((t, det[0], det[1]))
        fit_true = fit_boundary_curve(rows_true)
        fit_det = fit_boundary_curve(rows_det)
        assert abs(fit_det.nu - fit_true.nu) < 0.1

    def test_bump_end_detection_within_20pct(self):
        law_a = ScalingLaw(alpha=1.26, d_coef=4.8e-4)
        law_c = ScalingLaw(alpha=1.79, d_coef=0.1118)
        t_end = 78.0
        lags = lag_ladder(30, 120, 12)
        bounds = []
        for i, t in enumerate(lags):
            t = float(t)
            weight = 0.5 * max(0.0, 1.0 - (t / t_end) ** 6)
            n = 400_000
            n_bump = int(round(weight * n))
            parts = []
            if n_bump:
                parts.append(selfsim_sample(2.73, law_a, t, n_bump, seed=5100 + 3 * i))
            parts.append(selfsim_sample(1.71, law_c, t, n - n_bump, seed=5101 + 3 * i))
            samples = np.concatenate(parts)
            q25 = float(np.quantile(np.abs(samples), 0.25))
            w_c = float(law_c.width(t))
            pdf = kde(samples, bandwidth=0.05 * q25, grid=(-40 * w_c, 40 * w_c, 16385))
            bounds.append(bump_boundary(pdf))
        detected = detect_bump_end([float(t) for t in lags], bounds)
        assert detected is not None
        assert abs(detected - t_end) / t_end < 0.20


class TestSharedFitError:
    def test_one_class_for_every_fit(self):
        from qdiff import _loglog
        from qdiff import collapse as clp
        from qdiff import regimes as reg

        assert reg.FitError is clp.FitError is _loglog.FitError
