"""The lag scale's one partition and the in-place per-lag passes give
the bits of the plain numpy formulas they replace.

Each reference below is the out-of-place formula as it stood before the
work went in place or to one partition; results are compared as int64
views, so -0.0, subnormals and every last bit count.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff import cli, ingest
from qdiff.density import _convolve_same, kde, second_moment
from qdiff.ingest import IndexSeries, returns_at_lag
from qdiff.qgauss import Q_LIMIT_TOL, QParams, ScalingLaw, qgauss_sample, selfsim_sample


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


# --- references: the formulas as written before -------------------------

def lag_scale_ref(x):
    return float(np.quantile(np.abs(x), 0.25)) or float(np.std(x)) or 1.0


def qgauss_sample_ref(p, n, seed):
    rng = np.random.default_rng(seed)
    u1 = 1.0 - rng.random(n)
    u2 = rng.random(n)
    q = p.q
    q_dual = (1.0 + q) / (3.0 - q)
    if abs(q_dual - 1.0) <= Q_LIMIT_TOL:
        log_q = np.log(u1)
    else:
        log_q = (u1 ** (1.0 - q_dual) - 1.0) / (1.0 - q_dual)
    z = np.sqrt(-2.0 * log_q) * np.cos(2.0 * np.pi * u2)
    return z / np.sqrt((3.0 - q) * p.beta)


def kde_density_ref(x, bandwidth, grid):
    lo, hi, n = grid
    g = np.linspace(float(lo), float(hi), int(n))
    dx = g[1] - g[0]
    inside = x[(x >= g[0]) & (x <= g[-1])]
    pos = (inside - g[0]) / dx
    i0 = np.minimum(pos.astype(np.int64), g.size - 2)
    frac = pos - i0
    counts = np.bincount(i0, weights=1.0 - frac, minlength=g.size)
    counts += np.bincount(i0 + 1, weights=frac, minlength=g.size)
    radius = int(min(np.ceil(10.0 * bandwidth / dx), g.size - 1))
    offsets = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2) / (bandwidth * math.sqrt(2.0 * math.pi))
    dens = _convolve_same(counts, kernel) / inside.size
    dens = np.maximum(dens, 0.0)
    dens /= np.trapezoid(dens, g)
    return dens


def second_moment_ref(x, window):
    v = x[np.abs(x) <= window]
    return float(np.sum(v * v)) / x.size


# --- inputs ---------------------------------------------------------------

# values that tie, sit at zero of either sign, or are subnormal
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                    1.0, -1.0, 1.5, 0.1, 1e-300, 1e300])


def values(kind, n, seed):
    """n doubles of one kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "wide":  # magnitudes from 1e-300 to 1e300
        return sign * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-300, 300, n).astype(float)
    if kind == "ties":
        return rng.choice(SPECIAL[: int(rng.integers(1, SPECIAL.size + 1))], n)
    if kind == "zeros":  # mostly zeros of either sign, the rest spread
        x = rng.choice([0.0, -0.0], n)
        few = rng.random(n) < 0.1
        x[few] = sign[few] * rng.uniform(0.0, 3.0, few.sum())
        return x
    if kind == "subnormal":
        return sign * rng.integers(0, 2**20, n) * 5e-324
    return rng.standard_normal(n) * rng.uniform(0.01, 100.0)  # "normal"


KINDS = ["wide", "ties", "zeros", "subnormal", "normal"]
draws = dict(kind=st.sampled_from(KINDS), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
# every virtual index fraction 0, 1/4, 1/2, 3/4 at the acceptance sizes, odd and even n
LARGE_N = [10**5, 10**5 + 1, 10**5 + 2, 2 * 10**5, 2 * 10**5 + 1]


# --- the lag scale ----------------------------------------------------------

class TestLagScale:
    """``cli._lag_scale`` is the 25% quantile of |x| of np.quantile, else
    the standard deviation, else 1.0."""

    @settings(max_examples=300, deadline=None)
    @given(**draws)
    def test_equals_np_quantile(self, kind, n, seed):
        x = values(kind, n, seed)
        keep = x.copy()
        assert same_bits(cli._lag_scale(x), lag_scale_ref(x))
        assert same_bits(x, keep)  # the samples are not touched

    @pytest.mark.parametrize("n", LARGE_N)
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_np_quantile_large(self, kind, n):
        x = values(kind, n, n)
        assert same_bits(cli._lag_scale(x), lag_scale_ref(x))

    def test_every_interpolation_branch(self):
        # n = 5..8: virtual index 1, 1.25, 1.5 and 1.75, between ranks 1 and
        # 2, whose values give other bits from a + (b - a) g at g >= 1/2
        for n in (5, 6, 7, 8):
            x = np.array([0.0, -0.252, 2.498] + [9.0] * (n - 3))
            assert same_bits(cli._lag_scale(x), lag_scale_ref(x))

    def test_fallbacks(self):
        assert cli._lag_scale(np.array([0.0, 0.0, 0.0, 4.0])) == float(np.std([0.0, 0.0, 0.0, 4.0]))
        assert cli._lag_scale(np.array([-0.0, 0.0])) == 1.0
        assert cli._lag_scale(np.array([-3.5])) == 3.5


# --- in-place per-lag passes ---------------------------------------------

class TestSampler:
    """The in-place sampler gives the plain formula's samples."""

    @settings(max_examples=60, deadline=None)
    @given(q=st.one_of(st.just(1.0), st.floats(1.0 + 2 * Q_LIMIT_TOL, 3.0 - 2 * Q_LIMIT_TOL)),
           beta=st.floats(1e-6, 1e6), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_equals_formula(self, q, beta, n, seed):
        p = QParams(q, beta)
        assert same_bits(qgauss_sample(p, n, seed), qgauss_sample_ref(p, n, seed))

    # qgauss_sample reads only p.q and p.beta, so a stand-in reaches the
    # exponents 1 - q' = 0.5 (q = 1/3) and 2 (q = 1e17), where numpy's
    # power takes its square-root and square paths; no q in (1, 3) gives
    # them. q = 5/3 is the nearest to -1 there, and q near 1 takes np.log.
    @pytest.mark.parametrize("p", [
        QParams(1.0, 0.5),
        QParams(1.0 + 5e-9, 2.0),
        QParams(5.0 / 3.0, 1.0),
        QParams(2.73, 1e4),
        SimpleNamespace(q=1.0 / 3.0, beta=1.0),
        SimpleNamespace(q=1e17, beta=-1.0),
    ])
    def test_branches_and_power_paths(self, p):
        for n in (1, 7, 10**5):
            assert same_bits(qgauss_sample(p, n, 11), qgauss_sample_ref(p, n, 11))

    @pytest.mark.parametrize("exponent", [-1.0, 0.5, 2.0, -1.0000000000000004])
    def test_in_place_power_is_the_power(self, exponent):
        z = np.random.default_rng(2).random(10**5)
        want = z ** exponent
        z **= exponent
        assert same_bits(z, want)

    def test_selfsim_rescale(self):
        law = ScalingLaw(alpha=1.79, d_coef=0.1118)
        for t in (1.0, 17.0, 3000.0):
            want = qgauss_sample_ref(QParams(1.71, 1.0), 10**4, 5) * float(law.width(t))
            assert same_bits(selfsim_sample(1.71, law, t, 10**4, 5), want)


class TestKdeAndMoment:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
           bandwidth=st.floats(1e-3, 10.0), points=st.integers(3, 600),
           aligned=st.booleans())
    def test_kde_equals_formula(self, n, seed, bandwidth, points, aligned):
        rng = np.random.default_rng(seed)
        grid = (-5.0, 5.0, points)
        if aligned:  # node-aligned samples, the grid's ends included
            x = np.linspace(*grid)[rng.integers(0, points, n)]
        else:  # some fall outside the grid
            x = rng.standard_t(2.0, n) * 2.0
        if not np.any((x >= -5.0) & (x <= 5.0)):
            return
        keep = x.copy()
        got = kde(x, bandwidth, grid).density
        assert same_bits(got, kde_density_ref(x, bandwidth, grid))
        assert same_bits(x, keep)

    def test_kde_at_acceptance_size(self):
        x = np.random.default_rng(9).standard_t(1.5, 10**6)
        grid = (-250.0, 250.0, 2**13 + 1)
        assert same_bits(kde(x, 0.05, grid).density, kde_density_ref(x, 0.05, grid))

    @settings(max_examples=100, deadline=None)
    @given(window=st.floats(1e-3, 1e3), **draws)
    def test_second_moment_equals_formula(self, window, kind, n, seed):
        x = values(kind, n, seed)
        x = x[np.abs(x) < 1e150]  # x^2 finite
        if x.size:
            assert same_bits(second_moment(x, window), second_moment_ref(x, window))


class TestReturns:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1), whole=st.booleans())
    def test_difference_equals_formula(self, n, seed, whole):
        # whole minutes take the slot index, half minutes the binary search
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.choice([1.0, 1.0, 1.0, 2.0], n)) + (0.0 if whole else 0.5)
        series = IndexSeries(timestamps=ts, values=values("wide", n, seed))
        for lag in (1.0, 2.0, 5.0):
            # returns_at_lag refuses a lag outside [interval, span]
            if not series.interval <= lag <= series.span:
                continue
            i_idx, j_idx = ingest._search_pairs(ts, lag, series.interval * 1e-9)
            if i_idx.size == 0:
                continue
            got = returns_at_lag(series, lag).returns
            assert same_bits(got, series.values[j_idx] - series.values[i_idx])
