"""Closed-form q-Gaussian mathematics.

Provides the deformed exponential, the normalization constant of the
q-Gaussian density on 1 < q < 3, density/log-density evaluation, the
log density and its Jacobian in the fit coordinates (x^2, q, log beta),
the probability mass inside a window, exact sampling via the generalized
Box-Muller transform, and the self-similar spreading family
P(x, t) = g_q(x / w(t)) / w(t) with w(t) = (D t)^(1/alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

# |q - 1| below this tolerance is evaluated through the analytic
# Gaussian/exponential limit; the closed forms lose precision there
# (gamma arguments diverge) although the limit itself is regular.
Q_LIMIT_TOL = 1e-8

# Box bounds on q for least-squares fits: the closed interval just inside
# the open window (1, 3) where the density is normalizable.
Q_FIT_BOUNDS = (1.0 + 1e-6, 3.0 - 1e-6)

__all__ = [
    "Q_FIT_BOUNDS",
    "Q_LIMIT_TOL",
    "QDomainError",
    "QParams",
    "ScalingLaw",
    "c_q",
    "grid_mass",
    "log_c_q",
    "log_qgauss",
    "log_qgauss_jac",
    "q_exponential",
    "qgauss_logpdf",
    "qgauss_pdf",
    "qgauss_sample",
    "rescale_exponent",
    "selfsim_height",
    "selfsim_pdf",
    "selfsim_sample",
]


class QDomainError(ValueError):
    """Entropic index outside the normalizable window 1 < q < 3."""


def _check_q(q: float) -> None:
    """Refuse q outside [1 - Q_LIMIT_TOL, 3 - Q_LIMIT_TOL), and NaN."""
    if not (abs(q - 1.0) <= Q_LIMIT_TOL or 1.0 + Q_LIMIT_TOL < q < 3.0 - Q_LIMIT_TOL):
        raise QDomainError(
            f"q={q!r} outside (1, 3); densities are not normalizable there"
        )


@dataclass(frozen=True)
class QParams:
    """Shape (entropic index q) and inverse-width (beta) of a q-Gaussian.

    q within ``Q_LIMIT_TOL`` of 1 is the Gaussian member (variance
    1 / (2 beta)), evaluated through the analytic limit rather than the
    removable singularity of the closed forms. Other q must lie in
    (1 + Q_LIMIT_TOL, 3 - Q_LIMIT_TOL); QDomainError otherwise.
    """

    q: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise QDomainError(f"beta must be positive and finite, got {self.beta!r}")
        _check_q(self.q)

    @property
    def is_gaussian(self) -> bool:
        return abs(self.q - 1.0) <= Q_LIMIT_TOL


@dataclass(frozen=True)
class ScalingLaw:
    """Self-similar spreading law: widths grow as (d_coef * t)^(1/alpha).

    alpha < 2 is super-diffusive spreading, alpha > 2 sub-diffusive;
    alpha = 2 recovers classical diffusion. d_coef carries units 1/time.
    """

    alpha: float
    d_coef: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (math.isfinite(self.d_coef) and self.d_coef > 0.0):
            raise ValueError(f"d_coef must be positive, got {self.d_coef!r}")

    def width(self, t):
        """Characteristic width (D t)^(1/alpha) at time t."""
        return (self.d_coef * np.asarray(t, dtype=float)) ** (1.0 / self.alpha)

    @property
    def regime(self) -> str:
        if self.alpha < 2.0:
            return "super-diffusion"
        if self.alpha > 2.0:
            return "sub-diffusion"
        return "classical"


def q_exponential(x, q: float):
    """Deformed exponential [1 + (1 - q) x]^(1/(1 - q)).

    Total by convention: where the base 1 + (1 - q) x is nonpositive the
    cutoff value 0 is returned (compact-support convention for q < 1; for
    the density argument x = -beta u^2 with q > 1 the base is always
    positive, so no cutoff occurs there). |q - 1| below Q_LIMIT_TOL
    evaluates exp(x).
    """
    x = np.asarray(x, dtype=float)
    if abs(q - 1.0) <= Q_LIMIT_TOL:
        out = np.exp(x)
    else:
        base = 1.0 + (1.0 - q) * x
        safe = np.where(base > 0.0, base, 1.0)
        out = np.where(base > 0.0, safe ** (1.0 / (1.0 - q)), 0.0)
    return out if out.ndim else float(out)


def log_c_q(q: float) -> float:
    """log of the q-Gaussian normalization constant, 1 < q < 3.

    Evaluated in the log-gamma domain so the constant stays finite as
    q -> 3 where it diverges.
    """
    _check_q(q)
    if abs(q - 1.0) <= Q_LIMIT_TOL:
        return 0.5 * math.log(math.pi)
    qm1 = q - 1.0
    return (
        0.5 * (math.log(math.pi) - math.log(qm1))
        + scipy.special.gammaln((3.0 - q) / (2.0 * qm1))
        - scipy.special.gammaln(1.0 / qm1)
    )


def c_q(q: float) -> float:
    """Normalization constant sqrt(pi/(q-1)) Gamma((3-q)/(2(q-1))) / Gamma(1/(q-1)).

    Returns sqrt(pi) in the Gaussian limit |q - 1| <= Q_LIMIT_TOL; raises
    QDomainError outside (1, 3).
    """
    return math.exp(log_c_q(q))


def log_qgauss(x2, q: float, log_beta: float):
    """log of the q-Gaussian density at squared positions ``x2``, q > 1.

    Parametrized by log beta, the coordinate the fits work in; uses
    log1p for stable far tails.
    """
    beta = math.exp(log_beta)
    qm1 = q - 1.0
    return 0.5 * log_beta - log_c_q(q) - np.log1p(qm1 * beta * x2) / qm1


# d log C_q/dq as a power series in q - 1, highest power first, from the
# large-z expansion of log Gamma(z - 1/2) - log Gamma(z) at z = 1/(q - 1);
# used below _DLOGCQ_SERIES_MAX, where the digamma difference cancels to
# its limit 3/8.
_DLOGCQ_SERIES = (0.000244140625, 0.04266357421875, 0.0009765625, -0.01318359375,
                  0.00390625, 0.01611328125, 0.015625, 0.0234375, 0.0625,
                  0.140625, 0.25, 0.375)
_DLOGCQ_SERIES_MAX = 0.05
# Below this v = u / (1 + u) the tail term is summed as a series in v,
# with coefficients 1/(k + 2), highest power first.
_TAIL_SERIES_MAX = 0.01
_TAIL_SERIES = (1 / 9, 1 / 8, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2)


def _dlog_c_q(q: float) -> float:
    """d log C_q/dq for 1 < q < 3."""
    qm1 = q - 1.0
    if qm1 < _DLOGCQ_SERIES_MAX:
        return float(np.polyval(_DLOGCQ_SERIES, qm1))
    z1 = (3.0 - q) / (2.0 * qm1)
    dpsi = scipy.special.digamma(1.0 / qm1) - scipy.special.digamma(z1)
    return -0.5 / qm1 + dpsi / (qm1 * qm1)


def log_qgauss_jac(x2: np.ndarray, q: float, log_beta: float) -> np.ndarray:
    """Columns: d/dq and d/dlog(beta) of the log density.

    With u = (q - 1) beta x^2, d/dq is -d log C_q/dq plus the tail term
    log1p(u)/(q - 1)^2 - beta x^2/((q - 1)(1 + u)). Both parts cancel
    to leading order as q -> 1 or u -> 0, so near there each is a series
    that keeps full precision: d log C_q/dq in powers of q - 1, and the
    tail term as frac^2 sum_k v^k/(k + 2) with frac = beta x^2/(1 + u)
    and v = u/(1 + u).
    """
    beta = math.exp(log_beta)
    qm1 = q - 1.0
    u = qm1 * beta * x2
    frac = beta * x2 / (1.0 + u)
    v = qm1 * frac
    tail = np.where(
        v < _TAIL_SERIES_MAX,
        frac * frac * np.polyval(_TAIL_SERIES, v),
        np.log1p(u) / (qm1 * qm1) - frac / qm1,
    )
    d_q = tail - _dlog_c_q(q)
    d_s = 0.5 - frac
    return np.column_stack([d_q, d_s])


def grid_mass(q: float, beta: float, lo: float, hi: float) -> float:
    """Probability mass of a q-Gaussian inside [lo, hi].

    Uses the exact Student-t correspondence: a q-Gaussian with 1 < q < 3
    is a t distribution with nu = (3-q)/(q-1) degrees of freedom scaled
    by 1/sqrt((3-q) beta). Heavy-tailed members hold substantial mass
    outside any practical grid, which matters when fitting densities that
    were renormalized over a finite span.

    ``stdtr`` and ``ndtr`` are the ufuncs that the Student-t and normal
    distribution objects' ``cdf`` methods end in; called directly they give
    the same bits without the per-call argument handling, which costs far
    more than the evaluation in the fit loops.
    """
    if abs(q - 1.0) <= Q_LIMIT_TOL:
        scale = 1.0 / math.sqrt(2.0 * beta)
        return float(scipy.special.ndtr(hi / scale) - scipy.special.ndtr(lo / scale))
    nu = (3.0 - q) / (q - 1.0)
    scale = 1.0 / math.sqrt((3.0 - q) * beta)
    return float(scipy.special.stdtr(nu, hi / scale) - scipy.special.stdtr(nu, lo / scale))


def qgauss_logpdf(x, p: QParams):
    """log of the q-Gaussian density."""
    x = np.asarray(x, dtype=float)
    if p.is_gaussian:
        out = 0.5 * math.log(p.beta / math.pi) - p.beta * x * x
    else:
        out = log_qgauss(x * x, p.q, math.log(p.beta))
    return out if out.ndim else float(out)


def qgauss_pdf(x, p: QParams):
    """q-Gaussian density sqrt(beta)/C_q * e_q(-beta x^2).

    Normalized on the real line for 1 < q < 3; heavy power-law tails
    ~ |x|^(-2/(q-1)) for q > 1.
    """
    out = np.exp(qgauss_logpdf(np.asarray(x, dtype=float), p))
    return out if out.ndim else float(out)


def qgauss_sample(p: QParams, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. variates of the q-Gaussian, deterministic per seed.

    Generalized Box-Muller: with q' = (1+q)/(3-q), the radius
    sqrt(-2 ln_{q'} U1) times cos(2 pi U2) is q-Gaussian distributed with
    inverse-width 1/(3-q); a final rescale maps it to the requested beta.
    Exact in distribution, no rejection step. q' -> 1 recovers the
    classical transform.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    u1 = 1.0 - rng.random(n)  # in (0, 1]: keeps the deformed log finite
    u2 = rng.random(n)
    q = p.q
    q_dual = (1.0 + q) / (3.0 - q)
    if abs(q_dual - 1.0) <= Q_LIMIT_TOL:
        log_q = np.log(u1)
    else:
        log_q = (u1 ** (1.0 - q_dual) - 1.0) / (1.0 - q_dual)
    z = np.sqrt(-2.0 * log_q) * np.cos(2.0 * np.pi * u2)
    return z / np.sqrt((3.0 - q) * p.beta)


def rescale_exponent(q: float, alpha: float) -> float:
    """Exponent (3 - q)/alpha of the time map tau = (B t)^((3-q)/alpha).

    Equals 1 in the classical case (q = 1, alpha = 2), where rescaled and
    physical time coincide up to the scale constant.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return (3.0 - q) / alpha


def selfsim_pdf(x, t: float, q: float, law: ScalingLaw):
    """Self-similar density: q-Gaussian of unit inverse-width rescaled by w(t).

    P(x, t) = g_q(x / w, beta=1) / w with w = (d_coef * t)^(1/alpha).
    Peak height is 1/(C_q w).
    """
    if not (t > 0.0):
        raise ValueError(f"self-similar family needs t > 0, got {t!r}")
    w = float(law.width(t))
    return qgauss_pdf(np.asarray(x, dtype=float) / w, QParams(q=q, beta=1.0)) / w


def selfsim_height(t: float, q: float, law: ScalingLaw) -> float:
    """Peak height 1/(C_q (D t)^(1/alpha)) of the self-similar density."""
    if not (t > 0.0):
        raise ValueError(f"self-similar family needs t > 0, got {t!r}")
    return 1.0 / (c_q(q) * float(law.width(t)))


def selfsim_sample(q: float, law: ScalingLaw, t: float, n: int, seed) -> np.ndarray:
    """Draw n variates of the self-similar density at time t."""
    if not (t > 0.0):
        raise ValueError(f"self-similar family needs t > 0, got {t!r}")
    return qgauss_sample(QParams(q=q, beta=1.0), n, seed) * float(law.width(t))
