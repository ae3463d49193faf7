"""Single-parameter multiplicative robustness certificates.

Given a lower bound on the top-class probability and an upper bound on the
runner-up probability of a classifier smoothed with a Rayleigh-distributed
multiplicative factor, the functions here compute the interval of attack
factors (gamma1, gamma2) over which the smoothed prediction provably cannot
change.  With t = 1/gamma^2 the Rayleigh scale cancels, so one certificate
applies to every scale choice, and both endpoints are roots in t of one convex
equation a^t + b^t = 1, found by a few Newton steps; the trivial runner-up
bound is its closed-form case a = b.  Every endpoint of every law passes one
inward-rounding step (:func:`_inward`), so no certificate claims more than the
exact interval, down to floating-point rounding.  Also provided:
exact one-sided Clopper-Pearson binomial bounds, computed as closed-form beta
quantiles rounded outward so that they never claim more than the exact
binomial tail allows; log-space certified intervals for the symmetric
baseline laws; and :func:`certify_for`, the one dispatch from a smoothing law
to its rule and the one body of the t-root rule and of its reciprocal for
smoothing with 1/Rayleigh factors.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from scipy.special import betainccinv, betaincinv, ndtri

from .distributions import Kind, SmoothingDistribution, inverse_rayleigh, rayleigh

__all__ = [
    "Method",
    "Side",
    "ProbBounds",
    "Certificate",
    "Abstain",
    "SampleCounts",
    "certify_rayleigh",
    "certify_rayleigh_closed_form",
    "certify_inverse_rayleigh",
    "clopper_pearson",
    "log_space_radius",
    "certify_for",
]

_CP_MARGIN = 1e-12
# Allowed rounding error of a log-endpoint per unit of the terms it comes
# from: 128 times the unit roundoff, several times each rule's own bound.
_LOG_TOL = 2.0**-46


class Method(enum.Enum):
    T_ROOT = "t-root"
    RECIPROCAL = "reciprocal"
    LOG_SPACE = "log-space"


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ProbBounds:
    """Confidence bounds on the top two class probabilities.

    ``pa_lower`` underestimates the top-class probability and ``pb_upper``
    overestimates the runner-up; both hold jointly with probability
    ``confidence``.  Certification needs ``pa_lower > pb_upper``; bounds that
    cross are representable and yield an abstention downstream.
    """

    pa_lower: float
    pb_upper: float
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pa_lower < 1.0:
            raise ValueError(f"pa_lower must lie in (0, 1), got {self.pa_lower}")
        if not 0.0 <= self.pb_upper < 1.0:
            raise ValueError(f"pb_upper must lie in [0, 1), got {self.pb_upper}")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in (0, 1], got {self.confidence}")

    @classmethod
    def with_trivial_pb(cls, pa_lower: float, confidence: float = 1.0) -> "ProbBounds":
        """Bounds using the trivial runner-up estimate pb = 1 - pa."""
        return cls(pa_lower, 1.0 - pa_lower, confidence)

    @property
    def certifiable(self) -> bool:
        return self.pa_lower > self.pb_upper


@dataclass(frozen=True)
class Certificate:
    """A multiplicative robustness interval (gamma1, gamma2).

    The smoothed prediction is guaranteed unchanged for every attack factor
    strictly between the endpoints.  ``gamma2 == math.inf`` marks an unbounded
    right end and, its mirror, ``gamma1 == 0.0`` an unbounded left end (every
    factor in (0, 1]); both arise at the tightest runner-up bound pb = 0.
    """

    gamma1: float
    gamma2: float
    method: Method
    distribution: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma1 <= 1.0:
            raise ValueError(f"gamma1 must lie in [0, 1], got {self.gamma1}")
        if not self.gamma2 >= 1.0:
            raise ValueError(f"gamma2 must be >= 1, got {self.gamma2}")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.gamma2)

    def clipped(self, lo: float, hi: float) -> "Certificate":
        """Intersection with [lo, hi]; the result must still straddle 1."""
        g1, g2 = max(self.gamma1, lo), min(self.gamma2, hi)
        if not g1 <= 1.0 <= g2:
            raise ValueError(f"clip interval [{lo}, {hi}] leaves no factor range around 1")
        return Certificate(g1, g2, self.method, self.distribution, self.confidence)


@dataclass(frozen=True)
class Abstain:
    """Refusal to certify; carries the reason for diagnostics."""

    reason: str


@dataclass(frozen=True)
class SampleCounts:
    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes must lie in [0, {self.trials}], got {self.successes}")


def _t_root(log_a: float, log_b: float) -> float:
    """ln t for the root t > 0 of a**t + b**t = 1, from ln a and ln b in [-inf, 0).

    Either may also be 0 (a = 1) or -inf (b = 0), but not both at once; these
    give the limits t = inf and t = 0.  With the exponents m <= n of -ln a and
    -ln b and x = n t, the equation reads k(x) = ln q - x - ln x - ln(m / n) = 0
    with q = -ln(1 - e^-x) e^x in [1, 2 ln 2].  k is convex and falls with slope
    at most -1 from -ln(m / n) >= 0 at x = ln 2 (the root when a = b), so Newton
    steps from there climb to the root without overshoot, in five steps at
    most for exponents from 1e-323 to 745.  As the slope is at most -1, x is
    off by no more than the rounding in k, and a rounding count puts
    -ln(t) / 2 within 2**-48 (1 + |ln t| / 2) of the exact value; the tests
    check that bound against 60-digit residuals.
    """
    m, n = sorted((-log_a, -log_b))
    if m == 0.0:  # a = 1: b^t must vanish
        return math.inf
    if math.isinf(n):  # b = 0: a^t must be 1
        return -math.inf
    c = math.log(m) - math.log(n)
    x = math.log(2.0)
    while True:
        p = math.exp(-x)
        q = -math.log1p(-p) / p if p else 1.0
        step = (math.log(q) - x - math.log(x) - c) / (1.0 / ((1.0 - p) * q) + 1.0 / x)
        x += step
        if not step > x * 2.0**-30:  # the next step would be below 2**-60 x
            return math.log(x) - math.log(n)


def _inward(log_gamma: float, size: float) -> float:
    """The endpoint exp(log_gamma), rounded toward 1 so that it never overstates.

    ``log_gamma`` is the float value of an exact log-endpoint computed from terms
    whose magnitudes sum to ``size``; each rule keeps its rounding error below
    ``_LOG_TOL * size``.  The log is moved toward 0 by that bound, and the
    result one relative 2**-51 further toward 1, which covers ``math.exp`` (1 ulp)
    and this product.  Exact limits (log_gamma = -inf or inf) give 0 and inf;
    otherwise an endpoint beyond the doubles is clamped to the largest double or
    the smallest normal one, both on the safe side.
    """
    if math.isinf(log_gamma):
        return math.exp(log_gamma)
    shrunk = max(abs(log_gamma) - _LOG_TOL * size, 0.0)
    if log_gamma > 0.0:
        return max(min(math.exp(shrunk) * (1.0 - 2.0**-51), sys.float_info.max), 1.0)
    return min(max(math.exp(-shrunk) * (1.0 + 2.0**-51), sys.float_info.min), 1.0)


def certify_rayleigh(bounds: ProbBounds) -> Certificate | Abstain:
    """Certified factor interval for Rayleigh-smoothed classifiers.

    With t = 1/gamma^2 the Rayleigh scale cancels from F(F^{-1}(q) / gamma) =
    1 - (1 - q)^t, and the endpoints are t-roots of a^t + b^t = 1
    (:func:`_t_root`): gamma1 at (a, b) = (1 - pb, pa) and gamma2 at
    (1 - pa, pb), each unique because the left side is convex and decreasing.
    pb = 0 gives the exact limit (0, inf).
    """
    return certify_for(rayleigh(), bounds)


def certify_rayleigh_closed_form(pa_lower: float, confidence: float = 1.0) -> Certificate | Abstain:
    """:func:`certify_rayleigh` under the trivial runner-up bound pb = 1 - pa.

    Both t-roots then have a == b, so t = ln(1/2) / ln a: gamma1 =
    sqrt(ln pa / ln 1/2) and gamma2 = sqrt(ln(1 - pa) / ln 1/2).  At or below
    pa = 1/2 the bounds do not separate and the result is an abstention.
    """
    return certify_rayleigh(ProbBounds.with_trivial_pb(pa_lower, confidence))


def certify_inverse_rayleigh(bounds: ProbBounds) -> Certificate | Abstain:
    """Certificate for smoothing with reciprocal factors 1/beta.

    The map z -> 1/z carries Rayleigh smoothing under attack 1/gamma onto
    reciprocal smoothing under attack gamma, so the interval is the
    elementwise reciprocal of the Rayleigh one with endpoints swapped: the
    log-endpoints change sign before the one rounding step.
    """
    return certify_for(inverse_rayleigh(), bounds)


def clopper_pearson(counts: SampleCounts, alpha: float, side: Side) -> float:
    """Exact one-sided binomial confidence bound at level 1 - alpha.

    LOWER is the alpha-quantile of Beta(k, n - k + 1), the largest p with
    P(Bin(n, p) >= k) <= alpha, and 0 when k = 0.  UPPER is the
    (1 - alpha)-quantile of Beta(k + 1, n - k), the smallest p with
    P(Bin(n, p) <= k) <= alpha, and 1 when k = n.  The inversion itself can
    land on the unsafe side by more than 1e-15 relative, so each quantile is
    stepped outward by a relative ``_CP_MARGIN``: the bound is conservative
    against the exact tail and still within 1e-9 of the exact quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k, n = counts.successes, counts.trials
    if side is Side.LOWER:
        if k == 0:
            return 0.0
        return float(betaincinv(k, n - k + 1, alpha)) * (1.0 - _CP_MARGIN)
    if side is Side.UPPER:
        if k == n:
            return 1.0
        return min(float(betainccinv(k + 1, n - k, alpha)) * (1.0 + _CP_MARGIN), 1.0)
    raise ValueError(f"unknown side: {side!r}")


def log_space_radius(dist: SmoothingDistribution, bounds: ProbBounds) -> Certificate | Abstain:
    """Certified factor interval of a log-space law from its additive radius (base e).

    The additive radius R follows the standard one-dimensional results for
    each law (Gaussian: half the quantile gap; Laplace: -scale*ln(2(1-pa)),
    trivial runner-up; uniform on [-scale, scale]: scale*(pa - pb)), and the
    returned interval is (exp(-R), exp(R)), rounded inward.  For the Gaussian
    radius pb = 0 gives the exact limit (0, inf).
    """
    if not dist.kind.log_space:
        raise ValueError(f"not a log-space kind: {dist.kind!r}")
    pa, pb, scale = bounds.pa_lower, bounds.pb_upper, dist.scale

    # size: the terms of R, whose rounding (ndtri within 8 ulps) stays below _LOG_TOL * size
    if dist.kind is Kind.LOG_LAPLACE:
        if pa <= 0.5:
            return Abstain(f"pa_lower={pa} <= 1/2: no Laplace radius")
        radius = size = -scale * math.log(2.0 * (1.0 - pa))
    else:
        if pa <= pb:
            return Abstain(f"bounds do not separate: {pa} <= {pb}")
        if dist.kind is Kind.LOG_GAUSSIAN:
            za, zb = 0.5 * scale * float(ndtri(pa)), 0.5 * scale * float(ndtri(pb))
            radius, size = za - zb, abs(za) + abs(zb)
        else:
            radius = size = scale * (pa - pb)

    lo, hi = _inward(-radius, size), _inward(radius, size)
    return Certificate(lo, hi, Method.LOG_SPACE, dist.descriptor, bounds.confidence)


def certify_for(dist: SmoothingDistribution, bounds: ProbBounds) -> Certificate | Abstain:
    """The certificate rule of the smoothing law ``dist`` applied to ``bounds``.

    The one place a :class:`Kind` meets its rule: the ln-space radius of the
    log-space laws, or the t-root rule written here, with ln gamma = -ln(t) / 2
    at the roots of :func:`certify_rayleigh`, negated and swapped for the
    reciprocal law (:func:`certify_inverse_rayleigh`).  The t-root rule is
    scale-free; every certificate names ``dist`` itself.
    """
    if dist.kind.log_space:
        return log_space_radius(dist, bounds)
    pa, pb = bounds.pa_lower, bounds.pb_upper
    if not bounds.certifiable:
        return Abstain(f"bounds do not separate: pa_lower={pa} <= pb_upper={pb}")
    lo = -0.5 * _t_root(math.log1p(-pb), math.log(pa))
    hi = -0.5 * _t_root(math.log1p(-pa), math.log(pb) if pb > 0.0 else -math.inf)
    method = Method.T_ROOT
    if dist.kind is Kind.INVERSE_RAYLEIGH:
        lo, hi, method = -hi, -lo, Method.RECIPROCAL
    # size 1 + |ln gamma|: four times the rounding bound of _t_root
    lo, hi = _inward(lo, 1.0 + abs(lo)), _inward(hi, 1.0 + abs(hi))
    return Certificate(lo, hi, method, dist.descriptor, bounds.confidence)
