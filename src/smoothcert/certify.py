"""Single-parameter multiplicative robustness certificates.

Given a lower bound on the top-class probability and an upper bound on the
runner-up probability of a classifier smoothed with a Rayleigh-distributed
multiplicative factor, the functions here compute the interval of attack
factors (gamma1, gamma2) over which the smoothed prediction provably cannot
change.  The interval endpoints are roots of monotone one-dimensional
equations and are found by bracketed bisection; with the trivial runner-up
bound the roots also have closed forms.

The solver works on a reduced CDF composite that is invariant in the Rayleigh
scale, so one certificate applies to every scale choice.  Also provided:
exact one-sided Clopper-Pearson binomial bounds, computed as closed-form beta
quantiles rounded outward so that they never claim more than the exact
binomial tail allows; the reciprocal rule for smoothing with 1/Rayleigh
factors; log-space certified intervals for the symmetric baseline laws; and
:func:`certify_for`, the one dispatch from a smoothing law to its rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from scipy.special import betainccinv, betaincinv, ndtri

from .distributions import (
    _LOG_KINDS,
    Kind,
    SmoothingDistribution,
    inverse_rayleigh,
    rayleigh,
)

__all__ = [
    "Method",
    "Side",
    "ProbBounds",
    "Certificate",
    "Abstain",
    "SampleCounts",
    "reduced_cdf_map",
    "certify_rayleigh",
    "certify_rayleigh_closed_form",
    "certify_inverse_rayleigh",
    "clopper_pearson",
    "certify_from_counts",
    "log_space_radius",
    "certify_for",
]

_GAMMA_TOL = 1e-12
_GAMMA_MAX_ITER = 200
_BRACKET_FLOOR = 1e-9
_BRACKET_CAP = 1e9
_CP_MARGIN = 1e-12


class Method(enum.Enum):
    BISECTION = "bisection"
    CLOSED_FORM = "closed-form"
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
    right end.
    """

    gamma1: float
    gamma2: float
    method: Method
    distribution: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma1 <= 1.0:
            raise ValueError(f"gamma1 must lie in (0, 1], got {self.gamma1}")
        if not self.gamma2 >= 1.0:
            raise ValueError(f"gamma2 must be >= 1, got {self.gamma2}")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.gamma2)

    def contains(self, gamma: float, strict: bool = True) -> bool:
        if strict:
            return self.gamma1 < gamma < self.gamma2
        return self.gamma1 <= gamma <= self.gamma2

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


def reduced_cdf_map(gamma: float, q: float) -> float:
    """The scale-free composite F(F^{-1}(q) / gamma) = 1 - (1 - q)^(1/gamma^2).

    The Rayleigh scale cancels inside the composite, which is why one solver
    serves every scale choice.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    return -math.expm1(math.log1p(-q) / (gamma * gamma))


def _bisect_decreasing(residual, lo: float, hi: float) -> float:
    """Root of a residual that is positive at ``lo`` and negative at ``hi``."""
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo > 0.0 > f_hi):
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle a sign change")
    for _ in range(_GAMMA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _GAMMA_TOL:
            break
    return 0.5 * (lo + hi)


def _solve_gamma_pair(res_lo, res_hi, distribution: str, confidence: float) -> Certificate:
    """Solve the left root on (0, 1] and the right root on [1, inf)."""
    # Right end: res_hi decreases from pa - pb > 0 at gamma = 1; double out.
    hi = 1.0
    while res_hi(hi) > 0.0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            return Certificate(_left_root(res_lo), math.inf, Method.BISECTION, distribution, confidence)
    gamma2 = _bisect_decreasing(res_hi, hi / 2.0, hi) if hi > 1.0 else 1.0

    gamma1 = _left_root(res_lo)
    return Certificate(gamma1, gamma2, Method.BISECTION, distribution, confidence)


def _left_root(res_lo) -> float:
    # res_lo is negative at gamma = 1 (pb - pa) and rises to +1 as gamma -> 0.
    lo = 1.0
    while res_lo(lo) < 0.0:
        lo /= 2.0
        if lo < _BRACKET_FLOOR:
            return _BRACKET_FLOOR
    if lo == 1.0:
        return 1.0
    # res_lo is positive at lo and negative at 2*lo, the shape the helper expects.
    return _bisect_decreasing(res_lo, lo, 2.0 * lo)


def _check_open_bounds(bounds: ProbBounds) -> Abstain | None:
    if bounds.pb_upper == 0.0:
        raise ValueError("pb_upper must be strictly positive (open-interval probabilities)")
    if not bounds.certifiable:
        return Abstain(
            f"bounds do not separate: pa_lower={bounds.pa_lower} <= pb_upper={bounds.pb_upper}"
        )
    return None


def certify_rayleigh(bounds: ProbBounds) -> Certificate | Abstain:
    """Certified factor interval for Rayleigh-smoothed classifiers.

    gamma1 solves m(g, pb) + m(g, 1 - pa) = 1 on (0, 1] and gamma2 solves
    m(g, pa) + m(g, 1 - pb) = 1 on [1, inf), with m the reduced CDF map.
    Both roots are unique because each residual is strictly monotone.
    """
    abstain = _check_open_bounds(bounds)
    if abstain is not None:
        return abstain
    pa, pb = bounds.pa_lower, bounds.pb_upper

    def res_hi(g: float) -> float:
        return reduced_cdf_map(g, pa) + reduced_cdf_map(g, 1.0 - pb) - 1.0

    def res_lo(g: float) -> float:
        return reduced_cdf_map(g, pb) + reduced_cdf_map(g, 1.0 - pa) - 1.0

    return _solve_gamma_pair(res_lo, res_hi, rayleigh().descriptor, bounds.confidence)


def certify_rayleigh_closed_form(pa_lower: float, confidence: float = 1.0) -> Certificate | Abstain:
    """Analytic certificate under the trivial runner-up bound pb = 1 - pa.

    gamma1 = sqrt(ln pa / ln 1/2), gamma2 = sqrt(ln(1 - pa) / ln 1/2);
    requires pa > 1/2 (at or below 1/2 the interval degenerates to {1}).
    """
    if not 0.0 < pa_lower < 1.0:
        raise ValueError(f"pa_lower must lie in (0, 1), got {pa_lower}")
    if pa_lower <= 0.5:
        return Abstain(f"pa_lower={pa_lower} <= 1/2 under the trivial runner-up bound")
    ln_half = math.log(0.5)
    gamma1 = math.sqrt(math.log(pa_lower) / ln_half)
    gamma2 = math.sqrt(math.log1p(-pa_lower) / ln_half)
    return Certificate(gamma1, gamma2, Method.CLOSED_FORM, rayleigh().descriptor, confidence)


def certify_inverse_rayleigh(bounds: ProbBounds) -> Certificate | Abstain:
    """Certificate for smoothing with reciprocal factors 1/beta.

    The map z -> 1/z carries Rayleigh smoothing under attack 1/gamma onto
    reciprocal smoothing under attack gamma, so the interval is the
    elementwise reciprocal of the Rayleigh one with endpoints swapped.
    """
    base = certify_rayleigh(bounds)
    if isinstance(base, Abstain):
        return base
    if base.unbounded:
        raise ValueError("cannot take the reciprocal of an unbounded certificate")
    return Certificate(
        1.0 / base.gamma2,
        1.0 / base.gamma1,
        Method.RECIPROCAL,
        inverse_rayleigh().descriptor,
        base.confidence,
    )


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


def certify_from_counts(
    top_class_counts: SampleCounts,
    alpha: float,
    use_trivial_pb: bool = True,
    runner_up_counts: SampleCounts | None = None,
) -> Certificate | Abstain:
    """Certificate from Monte-Carlo hit counts of the estimation phase.

    With the trivial runner-up bound the whole mistake budget ``alpha`` goes
    into the top-class lower bound and the closed form applies; otherwise the
    budget is split evenly between the two Clopper-Pearson bounds and the
    interval is solved by bisection.  Abstains whenever the lower bound is at
    most 1/2.
    """
    if use_trivial_pb:
        pa = clopper_pearson(top_class_counts, alpha, Side.LOWER)
        if pa <= 0.5:
            return Abstain(f"pa_lower={pa:.6f} <= 1/2 at alpha={alpha}")
        return certify_rayleigh_closed_form(pa, confidence=1.0 - alpha)
    if runner_up_counts is None:
        raise ValueError("runner_up_counts is required when use_trivial_pb is false")
    pa = clopper_pearson(top_class_counts, alpha / 2.0, Side.LOWER)
    pb = clopper_pearson(runner_up_counts, alpha / 2.0, Side.UPPER)
    if pa <= 0.5:
        return Abstain(f"pa_lower={pa:.6f} <= 1/2 at alpha={alpha}")
    if pb == 0.0:
        pb = math.nextafter(0.0, 1.0)
    bounds = ProbBounds(pa, pb, confidence=1.0 - alpha)
    if not bounds.certifiable:
        return Abstain(f"bounds cross: pa_lower={pa:.6f} <= pb_upper={pb:.6f}")
    return certify_rayleigh(bounds)


def log_space_radius(
    kind: Kind,
    scale: float,
    pa_lower: float,
    pb_upper: float,
    confidence: float = 1.0,
) -> Certificate | Abstain:
    """Certified factor interval from an additive radius in log space (base e).

    The additive radius R follows the standard one-dimensional results for
    each law (Gaussian: half the quantile gap; Laplace: -scale*ln(2(1-pa)),
    trivial runner-up; uniform on [-scale, scale]: scale*(pa - pb)), and the
    returned interval is (exp(-R), exp(R)).
    """
    if kind not in _LOG_KINDS:
        raise ValueError(f"not a log-space kind: {kind!r}")
    if not 0.0 < pa_lower < 1.0:
        raise ValueError(f"pa_lower must lie in (0, 1), got {pa_lower}")
    if not 0.0 <= pb_upper < 1.0:
        raise ValueError(f"pb_upper must lie in [0, 1), got {pb_upper}")
    dist = SmoothingDistribution(kind, scale)

    if kind is Kind.LOG_LAPLACE:
        if pa_lower <= 0.5:
            return Abstain(f"pa_lower={pa_lower} <= 1/2: no Laplace radius")
        radius = -scale * math.log(2.0 * (1.0 - pa_lower))
    else:
        if pa_lower <= pb_upper:
            return Abstain(f"bounds do not separate: {pa_lower} <= {pb_upper}")
        if kind is Kind.LOG_GAUSSIAN:
            if pb_upper == 0.0:
                raise ValueError("pb_upper must be strictly positive for the Gaussian radius")
            radius = 0.5 * scale * (float(ndtri(pa_lower)) - float(ndtri(pb_upper)))
        else:
            radius = scale * (pa_lower - pb_upper)

    return Certificate(
        math.exp(-radius), math.exp(radius), Method.LOG_SPACE, dist.descriptor, confidence
    )


def certify_for(dist: SmoothingDistribution, bounds: ProbBounds) -> Certificate | Abstain:
    """The certificate rule of the smoothing law ``dist`` applied to ``bounds``.

    The one place a :class:`Kind` meets its rule: the Rayleigh bisection, the
    reciprocal rule, or the log-space radius (defined for base e only).  The
    Rayleigh certificates are scale-free, so only the log-space radius reads
    ``dist.scale``.
    """
    if dist.kind is Kind.RAYLEIGH:
        return certify_rayleigh(bounds)
    if dist.kind is Kind.INVERSE_RAYLEIGH:
        return certify_inverse_rayleigh(bounds)
    if not math.isclose(dist.log_base, math.e):
        raise ValueError("log-space certification is only defined for base e")
    return log_space_radius(
        dist.kind, dist.scale, bounds.pa_lower, bounds.pb_upper, bounds.confidence
    )
