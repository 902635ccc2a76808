"""Shared oracles for the test suite.

Everything here is computed independently of the code paths under test:
quadrature for normalizations and distribution functions, closed-form
crossings by bracketed root finding, and high-order finite differences.
"""

import multiprocessing

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.stats import t as student_t

from qdiff.qgauss import QParams, qgauss_pdf


def quad_normalization(q: float, beta: float) -> float:
    """Integral of the q-Gaussian density over the real line by quadrature."""
    p = QParams(q=q, beta=beta)
    val, _ = integrate.quad(lambda x: qgauss_pdf(x, p), 0.0, np.inf, limit=400)
    return 2.0 * val


def quad_cdf_oracle(q: float, beta: float):
    """CDF of the q-Gaussian built by quadrature, cross-checked exactly.

    Returns a vectorized callable. The quadrature construction is checked
    against the scaled Student-t form (an independent closed-form route)
    to 1e-9 before use, so a defect in either construction is caught.
    """
    p = QParams(q=q, beta=beta)
    nu = (3.0 - q) / (q - 1.0)
    scale = 1.0 / np.sqrt((3.0 - q) * beta)

    for x_chk in (0.2, 1.0, 4.0, 25.0):
        by_quad = 0.5 + integrate.quad(
            lambda u: qgauss_pdf(u, p), 0.0, x_chk, limit=200,
            epsabs=1e-13, epsrel=1e-13,
        )[0]
        by_t = student_t.cdf(x_chk / scale, df=nu)
        assert abs(by_quad - by_t) < 1e-9, (x_chk, by_quad, by_t)

    def cdf(x):
        return student_t.cdf(np.asarray(x, dtype=float) / scale, df=nu)

    return cdf


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic of samples against a CDF callable."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def mixture_crossing(w1: float, p1: QParams, p2: QParams) -> float:
    """Innermost positive x where w1 g1 crosses (1 - w1) g2."""
    def diff(x):
        return w1 * qgauss_pdf(x, p1) - (1.0 - w1) * qgauss_pdf(x, p2)

    xs = np.geomspace(1e-6 / np.sqrt(p1.beta / 1e4 + 1e-12), 1e3, 6000)
    vals = diff(xs)
    flips = np.flatnonzero(np.diff(np.sign(vals)) != 0)
    assert flips.size > 0, "components never cross"
    return brentq(diff, xs[flips[0]], xs[flips[0] + 1])


def loglog_slope_fd(f, x1: float, x2: float) -> float:
    """Two-point log-log slope oracle between abscissae x1 < x2."""
    return float(np.log(f(x2) / f(x1)) / np.log(x2 / x1))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a child process (a worker pool) running.

    Leaked children are reported, not killed: killing a pool's worker
    behind the pool's back can leave a queue lock held and hang the pool's
    own shutdown. Children alive before the test are not counted again.
    """
    before = set(multiprocessing.active_children())
    yield
    leaked = set(multiprocessing.active_children()) - before
    assert not leaked, f"test left child processes running: {sorted(map(str, leaked))}"
