"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. The synthetic datasets are parameterized by the
fitted values of the reference market analysis (weak regime q=1.71,
alpha=1.79, D=0.1118 1/min; strong regime q=2.73, alpha=1.26,
D=4.8e-3 1/min) and all tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import shutil
import warnings

import numpy as np
import pytest

from conftest import ks_distance, mixture_crossing, quad_cdf_oracle, quad_normalization
from qdiff import pme
from qdiff._loglog import loglog_fit
from qdiff.cli import RunConfig, cmd_pipeline, cmd_synth, cmd_verify_pme
from qdiff.collapse import collapse_pdfs, fit_beta_law, fit_collapsed, fit_qgauss
from qdiff.density import kde, pdf_height
from qdiff.ingest import lag_ladder
from qdiff.qgauss import (
    QParams,
    ScalingLaw,
    qgauss_pdf,
    qgauss_sample,
    selfsim_height,
    selfsim_pdf,
    selfsim_sample,
)
from qdiff.regimes import (
    bump_boundary,
    fit_boundary_curve,
    fit_height_law,
    height_alpha,
)

WEAK_Q, WEAK_ALPHA, WEAK_D = 1.71, 1.79, 0.1118
STRONG_Q, STRONG_ALPHA, STRONG_D = 2.73, 1.26, 4.8e-3
N_PER_LAG = 10**6
MIX_WEIGHT, MIX_T_END = 0.5, 78.0  # strong weight MIX_WEIGHT * (1 - t / MIX_T_END)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status} ({detail})", flush=True)


@pytest.fixture(scope="module")
def weak_run(tmp_path_factory):
    """Full-pipeline weak-regime round trip: synth files -> pipeline dir."""
    base = tmp_path_factory.mktemp("weak")
    lags = lag_ladder(1, 3000, 4)
    ens = cmd_synth(base / "ens", q=WEAK_Q, alpha=WEAK_ALPHA, d_coef=WEAK_D,
                    lags=lags, n_per_lag=N_PER_LAG, seed=1000)
    cfg = RunConfig(ensembles=str(ens), out=str(base / "run"))
    out = cmd_pipeline(cfg)
    return out


@pytest.fixture(scope="module")
def mixture_run(tmp_path_factory):
    """Full-pipeline two-regime round trip: a strong component of weight
    0.5 (1 - t/78) over the weak family, seed 7, 15 lags of 10^6 samples."""
    base = tmp_path_factory.mktemp("mixture")
    ens = cmd_synth(base / "ens", q=WEAK_Q, alpha=WEAK_ALPHA, d_coef=WEAK_D,
                    lags=lag_ladder(1, 3000, 4), n_per_lag=N_PER_LAG, seed=7,
                    mode="mixture")
    out = cmd_pipeline(RunConfig(ensembles=str(ens), out=str(base / "run")))
    shutil.rmtree(ens)  # 120 MB of samples; the checks read the run only
    return out


@pytest.fixture(scope="module")
def strong_chain():
    """Bump-windowed strong-regime fits with the zone-A window geometry."""
    law = ScalingLaw(alpha=STRONG_ALPHA, d_coef=STRONG_D)
    bound = lambda t: 0.0339 * t**0.62
    lags = lag_ladder(1, 35, 4)
    pdfs, fits = [], []
    for i, t in enumerate(lags):
        t = float(t)
        x = selfsim_sample(STRONG_Q, law, t, N_PER_LAG, seed=2000 + i)
        q25 = float(np.quantile(np.abs(x), 0.25))
        h = 0.05 * q25
        w = float(law.width(t))
        est = kde(x, bandwidth=h, grid=(-70.0 * w, 70.0 * w, 8193))
        est = type(est)(lag=t, grid=est.grid, density=est.density,
                        n_samples=est.n_samples, bandwidth=est.bandwidth)
        fits.append(fit_qgauss(est, restriction=(-bound(t), bound(t))))
        pdfs.append(est)
    return pdfs, fits, bound


class TestCriterion1WeakRoundTrip:
    def test_weak_regime_recovery(self, weak_run):
        res = json.loads((weak_run / "collapse.json").read_text())["weak"]
        dq = abs(res["q"] - WEAK_Q)
        da = abs(res["alpha"] - WEAK_ALPHA)
        dd = abs(res["d_coef"] - WEAK_D) / WEAK_D
        ok = dq <= 0.05 and da <= 0.05 and dd <= 0.10
        report(1, "weak-regime round trip", ok,
               f"q={res['q']:.4f} (|dq|={dq:.4f}<=0.05), "
               f"alpha={res['alpha']:.4f} (|da|={da:.4f}<=0.05), "
               f"D={res['d_coef']:.5f} (|dD|/D={dd:.3f}<=0.10)")
        assert ok


class TestCriterion2StrongRoundTrip:
    def test_strong_regime_recovery(self, strong_chain):
        pdfs, fits, bound = strong_chain
        scaling = fit_beta_law(fits)
        masses = {f.lag: f.grid_mass for f in fits}
        pts = collapse_pdfs(pdfs, scaling, grid_masses=masses,
                            restriction=lambda t, xs: np.abs(xs) <= bound(t))
        res = fit_collapsed(pts, scaling, zone="A")
        dq = abs(res.q - STRONG_Q)
        da = abs(scaling.alpha - STRONG_ALPHA)
        dd = abs(scaling.d_coef - STRONG_D) / STRONG_D
        ok = dq <= 0.08 and da <= 0.08 and dd <= 0.15
        report(2, "strong-regime round trip", ok,
               f"q={res.q:.4f} (|dq|={dq:.4f}<=0.08), "
               f"alpha={scaling.alpha:.4f} (|da|={da:.4f}<=0.08), "
               f"D={scaling.d_coef:.3e} (|dD|/D={dd:.3f}<=0.15)")
        assert ok


class TestCriterion3HeightLaw:
    def test_noiseless_and_sampled_heights(self, weak_run, strong_chain):
        # noiseless: exact analytic heights per regime
        lawS = ScalingLaw(alpha=STRONG_ALPHA, d_coef=STRONG_D)
        lawW = ScalingLaw(alpha=WEAK_ALPHA, d_coef=WEAK_D)
        rows = [(float(t), selfsim_height(float(t), STRONG_Q, lawS))
                for t in lag_ladder(1, 35, 4)]
        rows += [(float(t), selfsim_height(float(t), WEAK_Q, lawW))
                 for t in lag_ladder(78, 3000, 4)]
        rows = np.asarray(rows)
        a_strong = height_alpha(fit_height_law(rows, (1, 35)))
        a_weak = height_alpha(fit_height_law(rows, (78, 3000)))
        exact_ok = abs(a_strong - STRONG_ALPHA) < 1e-6 and abs(a_weak - WEAK_ALPHA) < 1e-6

        # sampled: strong heights from the bump-window chain, weak from
        # the pipeline's height series
        pdfs, _, _ = strong_chain
        sampled_strong = np.asarray([(p.lag, pdf_height(p)[1]) for p in pdfs])
        a_strong_s = height_alpha(fit_height_law(sampled_strong, (1, 35)))
        heights = np.loadtxt(weak_run / "heights.csv", delimiter=",", skiprows=1)
        a_weak_s = height_alpha(fit_height_law(heights[:, [0, 2]], (78, 3000)))
        sampled_ok = (abs(a_strong_s - STRONG_ALPHA) <= 0.05
                      and abs(a_weak_s - WEAK_ALPHA) <= 0.05)
        ok = exact_ok and sampled_ok
        report(3, "height power laws", ok,
               f"noiseless ({a_strong:.8f}, {a_weak:.8f}) within 1e-6; "
               f"sampled ({a_strong_s:.4f}, {a_weak_s:.4f}) within 0.05")
        assert ok


class TestCriterion4BoundaryCurve:
    def test_noiseless_exact_recovery(self):
        t = np.geomspace(1, 78, 10)
        fit = fit_boundary_curve([(ti, 0.0339 * ti**0.62) for ti in t])
        ok = (abs(fit.a - 0.0339) < 1e-12 and abs(fit.nu - 0.62) < 1e-13)
        report(4, "boundary curve, noiseless", ok,
               f"a={fit.a!r}, nu={fit.nu!r} at machine precision")
        assert ok

    def test_two_regime_mixture_exponent(self):
        # scale-separated mixture so both regimes stay detectable
        law_a = ScalingLaw(alpha=STRONG_ALPHA, d_coef=4.8e-4)
        law_c = ScalingLaw(alpha=WEAK_ALPHA, d_coef=WEAK_D)
        lags = lag_ladder(1, 20, 5)
        rows_true, rows_det = [], []
        for i, t in enumerate(lags):
            t = float(t)
            w_a, w_c = float(law_a.width(t)), float(law_c.width(t))
            x_cross = mixture_crossing(0.5, QParams(STRONG_Q, w_a**-2),
                                       QParams(WEAK_Q, w_c**-2))
            samples = np.concatenate([
                selfsim_sample(STRONG_Q, law_a, t, N_PER_LAG // 2, seed=9100 + 2 * i),
                selfsim_sample(WEAK_Q, law_c, t, N_PER_LAG - N_PER_LAG // 2,
                               seed=9101 + 2 * i),
            ])
            q25 = float(np.quantile(np.abs(samples), 0.25))
            est = kde(samples, bandwidth=0.05 * q25, grid=(-40 * w_c, 40 * w_c, 16385))
            det = bump_boundary(est)
            rows_true.append((t, x_cross))
            if det is not None:
                rows_det.append((t, det[0], det[1]))
        nu_true = fit_boundary_curve(rows_true).nu
        nu_det = fit_boundary_curve(rows_det).nu
        ok = abs(nu_det - nu_true) <= 0.1 and len(rows_det) == len(rows_true)
        report(4, "boundary curve, sampled mixture", ok,
               f"nu_detected={nu_det:.4f} vs construction {nu_true:.4f} "
               f"({len(rows_det)}/{len(rows_true)} lags detected)")
        assert ok


class TestCriterion5Barenblatt:
    def test_residuals_evolution_and_order(self):
        resid_ok = True
        details = []
        for m in (0.29, -0.73, 0.5):
            rep = cmd_verify_pme(m, refinements=0 if m <= 0 else 1,
                                 grid_points=513, t2=2.0)
            resid_ok &= rep["residual_rel_peak"] < 1e-6
            details.append(f"m={m}: resid={rep['residual_rel_peak']:.2e}")
        rep = cmd_verify_pme(0.29, grid_points=1025, t2=4.0, refinements=3)
        sup_ok = rep["sup_error_rel_peak"] < 1e-3
        order_ok = abs(rep["convergence_order"] - 2.0) <= 0.3
        ok = resid_ok and sup_ok and order_ok
        report(5, "analytic-solution verification", ok,
               "; ".join(details)
               + f"; evolve sup={rep['sup_error_rel_peak']:.2e}<1e-3"
               + f"; order={rep['convergence_order']:.2f} in 2.0+-0.3")
        assert ok


class TestCriterion6GoverningEquation:
    def test_family_evolution_and_constants(self):
        gp = pme.map_constants(WEAK_Q, WEAK_ALPHA, WEAK_D)
        law = ScalingLaw(alpha=WEAK_ALPHA, d_coef=WEAK_D)
        w_end = float(law.width(100.0))
        grid = np.linspace(-15 * w_end, 15 * w_end, 2305)
        f0 = pme.PmeField(grid=grid, u=selfsim_pdf(grid, 10.0, WEAK_Q, law),
                          time=10.0, m=gp.m)
        res = pme.solve_governing(f0, 100.0, gp, log_step=2e-3)
        exact = selfsim_pdf(grid, 100.0, WEAK_Q, law)
        sup = float(np.max(np.abs(res.field.u - exact)) / np.max(exact))

        cq = pme.c_q(WEAK_Q)
        spread = 2.0 * gp.c_int * (2.0 - WEAK_Q) * (3.0 - WEAK_Q)
        rt_d = abs(gp.b_coef * spread ** (WEAK_ALPHA / 2.0) - WEAK_D) / WEAK_D
        rt_cq = abs(
            gp.b_coef ** (1 / WEAK_ALPHA) * abs(gp.c_int) ** (1 / (WEAK_Q - 1))
            * WEAK_D ** (-1 / WEAK_ALPHA) - cq
        ) / cq
        xi_exact = gp.xi == (3.0 - WEAK_Q) / WEAK_ALPHA
        ok = sup < 1e-3 and rt_d < 1e-10 and rt_cq < 1e-10 and xi_exact
        report(6, "governing equation", ok,
               f"evolve sup={sup:.2e}<1e-3; constant round-trips "
               f"({rt_d:.1e}, {rt_cq:.1e})<1e-10; xi exact: {xi_exact}")
        assert ok


class TestCriterion7DiffusionCoefficient:
    def test_classical_limit_scaling_and_identity(self):
        gp1 = pme.map_constants(1.0, 2.0, 0.37)
        x = np.array([0.0, 1.0, 1e3])
        classical = float(np.max(np.abs(np.asarray(
            pme.black_scholes_d2(x, 7.0, gp1)) - 0.37)))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = pme.map_constants(WEAK_Q, WEAK_ALPHA, WEAK_D)
        t = 5.0
        w = (WEAK_D * t) ** (1.0 / WEAK_ALPHA)
        lo, hi = 1e2 * w, 1e4 * w
        slope = math.log(
            float(pme.black_scholes_d2(hi, t, gp))
            / float(pme.black_scholes_d2(lo, t, gp))
        ) / math.log(hi / lo)

        law = ScalingLaw(alpha=WEAK_ALPHA, d_coef=WEAK_D)
        xs = np.linspace(-30 * w, 30 * w, 301)
        dens = selfsim_pdf(xs, t, WEAK_Q, law)
        direct = np.asarray(pme.black_scholes_d2(xs, t, gp))
        via = gp.xi * WEAK_D**gp.xi * dens ** (1.0 - WEAK_Q) * t ** (gp.xi - 1.0)
        ident = float(np.max(np.abs(direct - via) / np.abs(via)))

        ok = classical < 1e-12 and abs(slope - 2.0) <= 0.02 and ident < 1e-10
        report(7, "diffusion coefficient", ok,
               f"classical dev={classical:.1e}<1e-12; large-x slope={slope:.4f} "
               f"within 1%; identity dev={ident:.1e}<1e-10")
        assert ok


class TestCriterion8CoreProperties:
    def test_property_suite(self):
        norm_devs = [
            abs(quad_normalization(q, beta) - 1.0)
            for q in (1.1, 1.5, 1.71, 2.0, 2.5, 2.73, 2.9)
            for beta in (0.1, 1.0, 10.0)
        ]
        norm_ok = max(norm_devs) < 1e-8

        tail_ok = True
        for q in (1.5, 2.0, 2.5):
            p = QParams(q, 1.0)
            slope = math.log(qgauss_pdf(1e5, p) / qgauss_pdf(1e3, p)) / math.log(1e2)
            tail_ok &= abs(slope + 2.0 / (q - 1.0)) <= 0.02 * (2.0 / (q - 1.0))

        xg = np.linspace(-10, 10, 2001)
        p_lim = QParams(1.0 + 1e-10, 1.0)
        gauss = np.sqrt(1.0 / np.pi) * np.exp(-xg * xg)
        limit_dev = float(np.max(np.abs(qgauss_pdf(xg, p_lim) - gauss)))
        limit_ok = limit_dev < 1e-6

        cdf = quad_cdf_oracle(1.5, 1.0)
        ks = ks_distance(qgauss_sample(QParams(1.5, 1.0), 10**6, seed=11), cdf)
        ks_ok = ks < 0.002

        ok = norm_ok and tail_ok and limit_ok and ks_ok
        report(8, "q-Gaussian core properties", ok,
               f"norm dev={max(norm_devs):.1e}<1e-8; tails within 2%; "
               f"gaussian-limit dev={limit_dev:.1e}<1e-6; KS={ks:.5f}<0.002")
        assert ok


class TestCriterion9GlobalDiffusion:
    def test_second_moment_exponent(self, weak_run):
        data = np.loadtxt(weak_run / "moments.csv", delimiter=",", skiprows=1)
        fit = loglog_fit(data[:, 0], data[:, 1])
        alpha = 2.0 / fit.slope
        ok = 1.7 <= alpha <= 1.9
        report(9, "global second-moment scaling", ok,
               f"moment exponent={fit.slope:.4f} -> alpha={alpha:.4f} in [1.7, 1.9]")
        assert ok


class TestCriterion10TwoRegimePipeline:
    """Both regimes and the boundary from ``qdiff pipeline`` on a mixture,
    with the tolerances of criteria 1, 2 and 4."""

    def test_weak_regime_recovery(self, mixture_run):
        res = json.loads((mixture_run / "collapse.json").read_text())["weak"]
        dq = abs(res["q"] - WEAK_Q)
        da = abs(res["alpha"] - WEAK_ALPHA)
        dd = abs(res["d_coef"] - WEAK_D) / WEAK_D
        ok = dq <= 0.05 and da <= 0.05 and dd <= 0.10
        report(10, "two-regime pipeline, weak regime", ok,
               f"q={res['q']:.4f} (|dq|={dq:.4f}<=0.05), "
               f"alpha={res['alpha']:.4f} (|da|={da:.4f}<=0.05), "
               f"D={res['d_coef']:.5f} (|dD|/D={dd:.3f}<=0.10)")
        assert ok

    def test_second_moment_positive_on_every_lag(self, mixture_run):
        # the q = 2.73 component puts max|x| near 1e38; the moment must not
        # depend on a grid spanning it
        data = np.loadtxt(mixture_run / "moments.csv", delimiter=",", skiprows=1)
        assert data.shape == (15, 3)
        bad = data[~(np.isfinite(data[:, 1]) & (data[:, 1] > 0.0)), 0]
        assert bad.size == 0, f"second moment not finite and positive at lags {bad.tolist()}"

    @pytest.mark.xfail(strict=True, reason=(
        "one q-Gaussian per lag cannot describe the bump while the weak component "
        "carries much of its density; needs the joint two-component fit of ROADMAP item 2"))
    def test_strong_regime_and_boundary(self, mixture_run):
        res = json.loads((mixture_run / "collapse.json").read_text()).get("strong")
        strong_ok = res is not None and (
            abs(res["q"] - STRONG_Q) <= 0.08
            and abs(res["alpha"] - STRONG_ALPHA) <= 0.08
            and abs(res["d_coef"] - STRONG_D) / STRONG_D <= 0.15
        )
        # the innermost analytic crossing, on the lags where the strong
        # component dominates the centre
        law_a = ScalingLaw(alpha=STRONG_ALPHA, d_coef=STRONG_D)
        law_c = ScalingLaw(alpha=WEAK_ALPHA, d_coef=WEAK_D)
        rows_true = []
        for t in lag_ladder(1, 3000, 4):
            t = float(t)
            w = MIX_WEIGHT * max(0.0, 1.0 - t / MIX_T_END)
            p_a = QParams(STRONG_Q, float(law_a.width(t)) ** -2)
            p_c = QParams(WEAK_Q, float(law_c.width(t)) ** -2)
            if w * qgauss_pdf(0.0, p_a) > (1.0 - w) * qgauss_pdf(0.0, p_c):
                rows_true.append((t, mixture_crossing(w, p_a, p_c)))
        table = np.genfromtxt(mixture_run / "boundaries.csv", delimiter=",", skip_header=1,
                              ndmin=2)
        found = {row[0]: (row[1], row[2]) for row in table if np.isfinite(row[2])}
        rows_det = [(t, *found[t]) for t, _ in rows_true if t in found]
        nu_true = fit_boundary_curve(rows_true).nu
        nu_det = fit_boundary_curve(rows_det).nu if len(rows_det) >= 3 else math.nan
        boundary_ok = len(rows_det) == len(rows_true) and abs(nu_det - nu_true) <= 0.1
        ok = strong_ok and boundary_ok
        report(10, "two-regime pipeline, strong regime and boundary", ok,
               f"strong q, alpha, D = {[res and round(res[k], 4) for k in ('q', 'alpha', 'd_coef')]}; "
               f"nu_detected={nu_det:.4f} vs crossing {nu_true:.4f} "
               f"({len(rows_det)}/{len(rows_true)} lags)")
        assert ok
