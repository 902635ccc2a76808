import json
import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from qdiff._loglog import loglog_fit
from qdiff.density import (
    EmpiricalPdf,
    _convolve_same,
    kde,
    pdf_height,
    second_moment,
    write_pdf_csv,
)
from qdiff.ingest import ReturnEnsemble
from qdiff.io import read_array, read_sidecar
from qdiff.qgauss import (
    QParams,
    ScalingLaw,
    qgauss_pdf,
    qgauss_sample,
    selfsim_pdf,
    selfsim_sample,
)


def analytic_pdf(func, lo, hi, n=8193, lag=1.0):
    return EmpiricalPdf.from_function(func, np.linspace(lo, hi, n), lag=lag)


class TestConvolveSameBits:
    """kde's convolution gives the bits of ``fftconvolve(mode="same")``."""

    @pytest.mark.parametrize("size", [513, 1000, 4097, 8193])
    @pytest.mark.parametrize("radius", ["one", "short", "half", "longest"])
    def test_equals_fftconvolve(self, size, radius):
        rng = np.random.default_rng(size)
        pos = rng.standard_t(1.5, 20_000) * size / 40.0 + size / 2.0
        pos = pos[(pos >= 0.0) & (pos < size - 1)]
        i0 = pos.astype(np.int64)
        counts = np.bincount(i0, weights=1.0 - (pos - i0), minlength=size)
        counts += np.bincount(i0 + 1, weights=pos - i0, minlength=size)
        # "longest" is kde's largest kernel, 2 * size - 1 taps: longer than the grid.
        r = {"one": 1, "short": 37, "half": size // 2, "longest": size - 1}[radius]
        offsets = np.arange(-r, r + 1) / 11.0
        kernel = np.exp(-0.5 * offsets**2) / np.sqrt(2.0 * np.pi)
        got = _convolve_same(counts, kernel)
        want = fftconvolve(counts, kernel, mode="same")
        assert got.shape == want.shape == (size,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKde:
    def test_single_sample_peak(self):
        h = 0.005
        est = kde(np.array([0.0]), bandwidth=h, grid=(-0.1, 0.1, 4097))
        _, height = pdf_height(est)
        assert height == pytest.approx(1.0 / (h * math.sqrt(2 * math.pi)), rel=1e-9)

    def test_sup_norm_against_sampler(self):
        # 1e6 draws: estimator within 1% of the peak everywhere
        p = QParams(1.71, 1.0)
        x = qgauss_sample(p, 10**6, seed=1)
        est = kde(x, bandwidth=0.05, grid=(-50.0, 50.0, 8193))
        target = qgauss_pdf(est.grid, p)
        sup = float(np.max(np.abs(est.density - target)))
        assert sup < 0.01 * qgauss_pdf(0.0, p)

    def test_symmetric_samples_give_even_density(self):
        est = kde(np.array([-1.0, 1.0]), bandwidth=0.1, grid=(-2.0, 2.0, 2001))
        assert np.max(np.abs(est.density - est.density[::-1])) < 1e-12

    def test_unit_integral(self):
        for samples in (np.array([0.0]), np.random.default_rng(2).normal(size=2000)):
            est = kde(samples, bandwidth=0.08, grid=(-6.0, 6.0, 4097))
            assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=1e-9)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 20000)
        a = kde(x, bandwidth=0.1, grid=(-6.0, 6.0, 4097))
        b = kde(x + 2.0, bandwidth=0.1, grid=(-4.0, 8.0, 4097))
        xa, _ = pdf_height(a)
        xb, _ = pdf_height(b)
        assert xb - xa == pytest.approx(2.0, abs=2 * a.dx)

    def test_accepts_return_ensemble(self):
        ens = ReturnEnsemble(lag=5.0, returns=np.random.default_rng(1).normal(size=500))
        est = kde(ens, bandwidth=0.2, grid=(-6.0, 6.0, 4097))
        assert est.lag == 5.0 and est.n_samples == 500

    def test_degenerate_and_invalid(self):
        with pytest.raises(ValueError):
            kde(np.array([]), bandwidth=0.1, grid=(-1.0, 1.0, 101))
        with pytest.raises(ValueError):
            kde(np.array([1.0]), bandwidth=0.0, grid=(-1.0, 1.0, 101))
        with pytest.raises(ValueError):
            kde(np.array([1.0, 2.0]), bandwidth=0.1, grid=(-10.0, -5.0, 101))
        for grid in ((1.0, -1.0, 101), (-1.0, 1.0, 2)):
            with pytest.raises(ValueError, match="grid must be"):
                kde(np.array([0.0]), bandwidth=0.1, grid=grid)


class TestPdfHeight:
    def test_even_density_peaks_at_zero(self):
        p = QParams(1.3, 1.0)  # light enough tail that the grid holds ~all mass
        est = analytic_pdf(lambda x: qgauss_pdf(x, p), -30, 30)
        x_peak, height = pdf_height(est)
        assert x_peak == 0.0
        assert height == pytest.approx(qgauss_pdf(0.0, p), rel=1e-3)

    def test_selfsim_height_doubling(self):
        alpha = 1.26
        law = ScalingLaw(alpha=alpha, d_coef=1.0)
        t1 = 3.0
        t2 = 2.0**alpha * t1
        grids = np.linspace(-80, 80, 2**15 + 1)
        p1 = EmpiricalPdf.from_function(lambda x: selfsim_pdf(x, t1, 1.5, law), grids, lag=t1)
        p2 = EmpiricalPdf.from_function(lambda x: selfsim_pdf(x, t2, 1.5, law), grids, lag=t2)
        ratio = pdf_height(p1)[1] / pdf_height(p2)[1]
        assert ratio == pytest.approx(2.0, rel=1e-3)

    def test_bimodal_tie_goes_to_smallest_abs(self):
        grid = np.linspace(-2, 2, 4001)
        dens = np.exp(-200 * (np.abs(grid) - 1.0) ** 2)
        dens += 1e-4 * np.exp(-grid**2)  # make the +1 and -1 peaks exactly tie
        dens = dens / np.trapezoid(dens, grid)
        dens[grid == -1.0] = dens[grid == 1.0]
        est = EmpiricalPdf(lag=1.0, grid=grid, density=dens, n_samples=0, bandwidth=0.0)
        x_peak, _ = pdf_height(est)
        assert x_peak == 1.0 or x_peak == -1.0
        # exact tie: build it explicitly
        dens2 = np.where(np.abs(np.abs(grid) - 1.0) < 1e-9, 2.0, 0.1)
        dens2 = dens2 / np.trapezoid(dens2, grid)
        est2 = EmpiricalPdf(lag=1.0, grid=grid, density=dens2, n_samples=0, bandwidth=0.0)
        assert abs(pdf_height(est2)[0]) == 1.0

    def test_height_power_law_slope(self):
        # peak height of the analytic family decays as t^(-1/alpha)
        alpha = 1.79
        law = ScalingLaw(alpha=alpha, d_coef=0.1118)
        lags = np.geomspace(1, 3000, 12)
        heights = []
        for t in lags:
            grid = np.linspace(-60 * law.width(t), 60 * law.width(t), 8193)
            est = EmpiricalPdf.from_function(
                lambda x: selfsim_pdf(x, t, 1.71, law), grid, lag=t
            )
            heights.append(pdf_height(est)[1])
        fit = loglog_fit(lags, np.array(heights))
        assert fit.slope == pytest.approx(-1.0 / alpha, abs=0.02)


class TestSecondMoment:
    def test_samples_outside_the_window_count_in_n_only(self):
        # |x| <= 2.5 keeps -1, 0.5, 2 and 2.5; -3 and 10 count in n = 6 only
        x = np.array([-3.0, -1.0, 0.5, 2.0, 2.5, 10.0])
        assert second_moment(x, 2.5) == (1.0 + 0.25 + 4.0 + 6.25) / 6

    def test_window_validation(self):
        for window in (0.0, -1.0):
            with pytest.raises(ValueError, match="window must be positive"):
                second_moment(np.array([1.0, 2.0]), window)

    def test_gaussian_unit_variance(self):
        x = np.random.default_rng(5).normal(size=10**6)
        assert second_moment(x, 11.9) == pytest.approx(1.0, rel=0.005)

    def test_selfsim_family_moment_slope(self):
        # windowed moment of samples of the self-similar family grows as t^(2/alpha)
        q, alpha = 1.5, 1.79
        law = ScalingLaw(alpha=alpha, d_coef=0.1118)
        lags = np.geomspace(1, 3000, 10)
        moments = [second_moment(selfsim_sample(q, law, t, 10**5, seed=40 + i),
                                 1000.0 * float(law.width(t)))
                   for i, t in enumerate(lags)]
        fit = loglog_fit(lags, np.array(moments))
        assert fit.slope == pytest.approx(2.0 / alpha, rel=0.03)


class TestTypesAndSerialization:
    def test_pdf_validation(self):
        grid = np.linspace(-1, 1, 101)
        good = np.full(grid.size, 0.5)
        with pytest.raises(ValueError):
            EmpiricalPdf(lag=1.0, grid=grid, density=-good, n_samples=0, bandwidth=0.0)
        with pytest.raises(ValueError):
            EmpiricalPdf(lag=1.0, grid=grid, density=good * 3.0, n_samples=0, bandwidth=0.0)
        with pytest.raises(ValueError):
            EmpiricalPdf(lag=1.0, grid=grid[::-1], density=good, n_samples=0, bandwidth=0.0)

    def test_pdf_csv_round_trip(self, tmp_path):
        p = QParams(1.5, 1.0)
        est = kde(qgauss_sample(p, 5000, seed=8), bandwidth=0.2, grid=(-50.0, 50.0, 8193))
        est = EmpiricalPdf(lag=17.0, grid=est.grid, density=est.density,
                           n_samples=est.n_samples, bandwidth=est.bandwidth)
        path = tmp_path / "pdf_000017.npy"
        write_pdf_csv(est, path)
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["lag"] == 17.0 and meta["bandwidth"] == 0.2
        assert read_sidecar(path)["lag"] == 17.0
        back = read_array(path)
        assert np.array_equal(back[:, 0], est.grid)
        assert np.array_equal(back[:, 1], est.density)


def stored_pdf():
    est = kde(qgauss_sample(QParams(1.5, 1.0), 5000, seed=8), bandwidth=0.2,
              grid=(-50.0, 50.0, 8193))
    return EmpiricalPdf(lag=17.0, grid=est.grid, density=est.density,
                        n_samples=est.n_samples, bandwidth=est.bandwidth)


class TestNpyPdfFiles:
    def test_round_trip_is_bit_for_bit(self, tmp_path):
        est = stored_pdf()
        path = tmp_path / "pdf_000017.npy"
        write_pdf_csv(est, path)
        stored = np.load(path, allow_pickle=False)
        assert stored.dtype == np.float64 and stored.shape == (est.grid.size, 2)
        back = read_array(path)
        for got, want in ((back[:, 0], est.grid), (back[:, 1], est.density)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        meta = read_sidecar(path)
        assert (meta["lag"], meta["n_samples"], meta["bandwidth"]) == (17.0, 5000, 0.2)
        # the sidecar is the JSON document the text format had beside it
        want = json.dumps({"lag": 17.0, "n_samples": 5000, "bandwidth": 0.2},
                          indent=2, sort_keys=True)
        assert path.with_suffix(".json").read_text() == want

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "pdf_000017.dat"
        write_pdf_csv(stored_pdf(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pdf_000017.dat",
                                                              "pdf_000017.json"]
        assert np.array_equal(read_array(path)[:, 0], stored_pdf().grid)
