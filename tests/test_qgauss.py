import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import ks_distance, loglog_slope_fd, quad_cdf_oracle, quad_normalization
from qdiff.qgauss import (
    QDomainError,
    QParams,
    ScalingLaw,
    c_q,
    grid_mass,
    log_qgauss,
    q_exponential,
    qgauss_logpdf,
    qgauss_pdf,
    qgauss_sample,
    rescale_exponent,
    selfsim_height,
    selfsim_pdf,
    selfsim_sample,
    tail_mass,
)


class TestQExponential:
    def test_zero_argument(self):
        assert q_exponential(0.0, 1.5) == 1.0
        assert q_exponential(0.0, 2.7) == 1.0

    def test_direct_substitution(self):
        # [1 + (1-2)(-1)]^(1/(1-2)) = 2^(-1)
        assert q_exponential(-1.0, 2.0) == pytest.approx(0.5, abs=0.0)

    def test_gaussian_limit(self):
        assert q_exponential(0.3, 1.0 + 1e-12) == pytest.approx(math.exp(0.3), rel=1e-9)

    def test_cutoff_convention(self):
        # q < 1: compact support, zero past the cutoff
        assert q_exponential(-3.0, 0.5) == 0.0
        assert q_exponential(np.array([-3.0, 0.0]), 0.5)[0] == 0.0

    @given(st.floats(-50.0, 0.0), st.floats(1.01, 2.99))
    @settings(max_examples=100, deadline=None)
    def test_total_and_positive_on_density_arguments(self, x, q):
        val = q_exponential(x, q)
        assert np.isfinite(val) and val >= 0.0


class TestNormalizationConstant:
    def test_gaussian_limit(self):
        assert c_q(1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert c_q(1.0 + 1e-12) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_q2_closed_form(self):
        # sqrt(pi) Gamma(1/2) / Gamma(1) = pi
        assert c_q(2.0) == pytest.approx(math.pi, rel=1e-12)

    def test_against_quadrature(self):
        # C_q is the integral of e_q(-x^2)
        val, _ = integrate.quad(lambda x: q_exponential(-x * x, 1.71), 0, np.inf, limit=400)
        assert c_q(1.71) == pytest.approx(2.0 * val, rel=1e-10)

    @pytest.mark.parametrize("q", [0.5, 0.9999, 3.0, 3.0 - 1e-9, 3.2, -1.0])
    def test_domain_guard(self, q):
        with pytest.raises(QDomainError):
            c_q(q)


class TestDensity:
    def test_peak_value(self):
        p = QParams(1.5, 1.0)
        assert qgauss_pdf(0.0, p) == pytest.approx(1.0 / c_q(1.5), rel=1e-14)

    def test_sqrt_beta_scaling_of_peak(self):
        assert qgauss_pdf(0.0, QParams(1.5, 4.0)) == pytest.approx(
            2.0 / c_q(1.5), rel=1e-14
        )

    def test_tail_exponent_fd_oracle(self):
        p = QParams(2.0, 1.0)
        slope = loglog_slope_fd(lambda x: qgauss_pdf(x, p), 1e3, 1e4)
        assert slope == pytest.approx(-2.0 / (2.0 - 1.0), rel=0.02)

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5])
    def test_tail_law_grid(self, q):
        p = QParams(q, 1.0)
        slope = loglog_slope_fd(lambda x: qgauss_pdf(x, p), 1e3, 1e5)
        assert slope == pytest.approx(-2.0 / (q - 1.0), rel=0.02)

    @pytest.mark.parametrize("q", [1.1, 1.5, 1.71, 2.0, 2.5, 2.73, 2.9])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_normalization(self, q, beta):
        assert quad_normalization(q, beta) == pytest.approx(1.0, abs=1e-8)

    @given(
        st.floats(1.05, 2.95),
        st.floats(0.01, 100.0),
        st.floats(-30.0, 30.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_family_identity(self, q, beta, x):
        p = QParams(q, beta)
        unit = QParams(q, 1.0)
        lhs = qgauss_pdf(x, p)
        rhs = math.sqrt(beta) * qgauss_pdf(math.sqrt(beta) * x, unit)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
    def test_gaussian_limit_sup_norm(self, beta):
        p = QParams(1.0 + 1e-10, beta)
        x = np.linspace(-10.0, 10.0, 2001)
        gauss = np.sqrt(beta / np.pi) * np.exp(-beta * x * x)
        assert np.max(np.abs(qgauss_pdf(x, p) - gauss)) < 1e-6


class TestLogDensityCore:
    @pytest.mark.parametrize("q", [1.0 + 1e-6, 1.26, 1.71, 2.2, 2.73, 3.0 - 1e-6])
    @pytest.mark.parametrize("beta", [1e-4, 0.3, 1.0, 4793.0, 1e6])
    def test_logpdf_is_the_core_bit_for_bit(self, q, beta):
        x = np.linspace(-50.0, 50.0, 2001) / math.sqrt(beta)
        got = qgauss_logpdf(x, QParams(q, beta))
        want = log_qgauss(x * x, q, math.log(beta))
        assert np.array_equal(got, want)
        assert qgauss_logpdf(float(x[7]), QParams(q, beta)) == float(want[7])


class TestTailMass:
    @pytest.mark.parametrize("q", [1.0, 1.0 + 1e-6, 1.26, 1.71, 2.73])
    def test_is_the_mass_outside_the_window(self, q):
        x = np.array([0.0, 0.1, 1.0, 3.0])
        want = [1.0 - grid_mass(q, 2.5, -v, v) for v in x]
        np.testing.assert_allclose(tail_mass(q, 2.5, x), want, rtol=0, atol=1e-15)
        assert tail_mass(q, 2.5, 0.0) == 1.0 and tail_mass(q, 2.5, math.inf) == 0.0

    @pytest.mark.parametrize("q,beta,x", [(1.71, 1.0, 1e4), (1.26, 3.0, 50.0), (2.73, 1e4, 1e45),
                                          (1.0, 1.0, 5.0)])
    def test_far_tail_keeps_its_relative_precision(self, q, beta, x):
        if q == 1.0:
            want = 2.0 * stats.norm.sf(x * math.sqrt(2.0 * beta))
        else:
            want = 2.0 * stats.t.sf(x * math.sqrt((3.0 - q) * beta), df=(3.0 - q) / (q - 1.0))
        assert 0.0 < want < 1e-6
        assert tail_mass(q, beta, x) == pytest.approx(want, rel=1e-12)

    def test_beta_and_x_broadcast(self):
        beta = np.array([0.5, 2.0, 8.0])
        x = np.array([0.2, 0.1, 0.05])
        got = tail_mass(1.71, beta, x)
        assert np.array_equal(got, [tail_mass(1.71, b, v) for b, v in zip(beta, x)])
        # the family is one shape: x sqrt(beta) fixes the mass
        assert got[1] == pytest.approx(got[2], rel=1e-14)


class TestSampler:
    def test_determinism(self):
        p = QParams(1.5, 1.0)
        a = qgauss_sample(p, 1000, seed=42)
        b = qgauss_sample(p, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_gaussian_limit_variance(self):
        p = QParams(1.0, 0.5)
        x = qgauss_sample(p, 10**6, seed=3)
        assert np.var(x) == pytest.approx(1.0, rel=0.01)

    def test_ks_distance_against_quadrature_cdf(self):
        p = QParams(1.5, 1.0)
        cdf = quad_cdf_oracle(1.5, 1.0)
        x = qgauss_sample(p, 10**6, seed=11)
        assert ks_distance(x, cdf) < 0.002

    def test_heavy_tail_member_ks(self):
        cdf = quad_cdf_oracle(2.73, 1e4)
        x = qgauss_sample(QParams(2.73, 1e4), 200_000, seed=4)
        assert ks_distance(x, cdf) < 0.005

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            qgauss_sample(QParams(1.5, 1.0), 0, seed=1)


class TestSelfSimilar:
    def test_classical_peak(self):
        law = ScalingLaw(alpha=2.0, d_coef=1.0)
        assert selfsim_pdf(0.0, 1.0, 1.0, law) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_height_power_law_ratio(self):
        law = ScalingLaw(alpha=1.26, d_coef=1.0)
        ratio = selfsim_height(1.0, 2.0, law) / selfsim_height(16.0, 2.0, law)
        assert ratio == pytest.approx(16.0 ** (1.0 / 1.26), rel=1e-12)

    def test_normalization_preserved_in_time(self):
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        val, _ = integrate.quad(
            lambda x: selfsim_pdf(x, 7.0, 1.71, law), 0, np.inf, limit=400
        )
        assert 2.0 * val == pytest.approx(1.0, abs=1e-8)

    def test_identity_with_direct_expression(self):
        # Same density written through the explicit closed form.
        q, law, t = 1.71, ScalingLaw(alpha=1.79, d_coef=0.1118), 5.0
        x = np.linspace(-8.0, 8.0, 501)
        w = float(law.width(t))
        direct = (
            (1.0 + (q - 1.0) * (x / w) ** 2) ** (1.0 / (1.0 - q)) / (c_q(q) * w)
        )
        ours = selfsim_pdf(x, t, q, law)
        assert np.max(np.abs(ours - direct) / direct.max()) < 1e-12

    def test_rejects_nonpositive_time(self):
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        with pytest.raises(ValueError):
            selfsim_pdf(0.0, 0.0, 1.71, law)

    def test_truncated_second_moment_scaling(self):
        # Moment over |x| <= 1000 w(t) grows exactly as t^(2/alpha) for
        # this finite-variance member; checked against quadrature.
        q, law = 1.5, ScalingLaw(alpha=1.79, d_coef=0.1118)
        lags = np.array([1.0, 10.0, 100.0, 1000.0, 3000.0])
        moments = []
        for t in lags:
            w = float(law.width(t))
            val, _ = integrate.quad(
                lambda x: x * x * selfsim_pdf(x, t, q, law), 0, 1000.0 * w, limit=400
            )
            moments.append(2.0 * val)
        slope = np.polyfit(np.log(lags), np.log(moments), 1)[0]
        assert slope == pytest.approx(2.0 / 1.79, rel=0.03)

    def test_divergent_member_truncated_moment_is_window_bound(self):
        # q >= 5/3 has no second moment; the truncated value is finite
        # and reported against its window.
        q, law, t = 2.0, ScalingLaw(alpha=1.26, d_coef=1.0), 3.0
        w = float(law.width(t))
        small, _ = integrate.quad(lambda x: x * x * selfsim_pdf(x, t, q, law), 0, 10 * w)
        big, _ = integrate.quad(
            lambda x: x * x * selfsim_pdf(x, t, q, law), 0, 1000 * w, limit=400
        )
        assert np.isfinite(big) and big > 2.0 * small

    def test_selfsim_sample_scales(self):
        law = ScalingLaw(alpha=2.0, d_coef=1.0)
        x = selfsim_sample(1.0, law, 4.0, 200_000, seed=9)
        # classical: variance = w^2 / 2 with w = sqrt(D t)
        assert np.var(x) == pytest.approx(4.0 / 2.0, rel=0.02)


class TestRescaleExponent:
    def test_classical(self):
        assert rescale_exponent(1.0, 2.0) == 1.0

    def test_weak_regime_value(self):
        assert rescale_exponent(1.71, 1.79) == pytest.approx(0.7207, abs=1e-4)

    def test_strong_regime_value(self):
        assert rescale_exponent(2.73, 1.26) == pytest.approx(0.2143, abs=1e-4)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rescale_exponent(1.5, 0.0)


class TestParams:
    @pytest.mark.parametrize("q", [1.0, 1.0 - 1e-9, 1.0 + 1e-9])
    def test_q_near_one_is_the_gaussian_member(self, q):
        beta = 2.0
        p = QParams(q, beta)
        assert p.is_gaussian
        x = np.linspace(-3.0, 3.0, 61)
        exact = np.sqrt(beta / np.pi) * np.exp(-beta * x * x)
        np.testing.assert_allclose(qgauss_pdf(x, p), exact, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q", [1.0 - 1e-6, 3.0 - 1e-9, math.nan])
    def test_q_outside_the_window_raises(self, q):
        with pytest.raises(QDomainError):
            QParams(q, 1.0)

    @pytest.mark.parametrize("q,beta", [(0.5, 1.0), (3.0, 1.0), (1.5, 0.0), (1.5, -2.0)])
    def test_invalid_params(self, q, beta):
        with pytest.raises(QDomainError):
            QParams(q, beta)

    def test_scaling_law_regimes(self):
        assert ScalingLaw(1.26, 1.0).regime == "super-diffusion"
        assert ScalingLaw(2.5, 1.0).regime == "sub-diffusion"
        assert ScalingLaw(2.0, 1.0).regime == "classical"
        with pytest.raises(ValueError):
            ScalingLaw(-1.0, 1.0)
        with pytest.raises(ValueError):
            ScalingLaw(2.0, 0.0)
