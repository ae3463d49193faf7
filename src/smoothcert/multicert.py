"""Robust-region membership for transforms with several multiplicative factors.

With n independent Rayleigh smoothing factors the certified set is no longer
an interval: a factor vector gamma is robust when a weighted sum of squared
factors (each square is exponentially distributed) stays below one threshold
more often than it exceeds another.  The weighted-sum law has no convenient
closed form for mixed-sign weights, so probabilities are estimated by
Monte-Carlo with common random numbers: a query weights one set of draws
to solve its two thresholds and a fresh set for its verdict, and each tail
probability carries a two-sided 99% Clopper-Pearson interval; queries whose
intervals overlap are reported as unknown.  The verdict itself has no stated
confidence: near the region's boundary a decided verdict can contradict the
exact sign, in either direction.  A query reads only the two streams its
``stream_base`` names, so a caller scanning several factor vectors gives each
its own base and gets verdicts independent of the order.

With the draws fixed, each empirical tail probability is a step function of
the threshold, so both thresholds are exact order statistics of the sampled
sums: the smallest threshold whose empirical probability reaches its target,
found by one selection (``np.partition``) per threshold.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import SampleCounts, Side, clopper_pearson
from .distributions import RayleighParams
from .rng import SeededSampler, _split

__all__ = [
    "MultiCertProblem",
    "Verdict",
    "RegionQuery",
    "solve_thresholds",
    "in_robust_region",
]

_MIN_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class MultiCertProblem:
    """One membership problem: factor count, smoothing scale, probability bounds.

    Each squared factor is exponentially distributed with mean ``2 sigma**2``,
    which is what the Monte-Carlo estimator samples.
    """

    n: int
    sigma: float
    pa_lower: float
    pb_upper: float
    mc_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"factor count must be >= 1, got {self.n}")
        RayleighParams(self.sigma)  # the one sigma rule
        if not 0.0 < self.pa_lower < 1.0:
            raise ValueError(f"pa_lower must lie in (0, 1), got {self.pa_lower}")
        if not 0.0 < self.pb_upper < 1.0:
            raise ValueError(f"pb_upper must lie in (0, 1), got {self.pb_upper}")
        if self.pa_lower <= self.pb_upper:
            raise ValueError("pa_lower must exceed pb_upper")
        if self.mc_samples < _MIN_MC_SAMPLES:
            raise ValueError(f"mc_samples must be >= {_MIN_MC_SAMPLES}, got {self.mc_samples}")
        SeededSampler(self.seed)  # the one seed rule


class Verdict(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegionQuery:
    """Outcome of one membership query at a factor vector."""

    gamma: tuple[float, ...]
    r: float
    theta: float
    verdict: Verdict


def _sorted_gamma(gamma: Sequence[float], n: int) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"gamma must be a vector of {n} entries, got shape {g.shape}")
    if not np.all(g > 0.0):
        raise ValueError("gamma entries must be positive")
    # Canonical descending order makes queries permutation-symmetric: the
    # same exponential draw always meets the same-ranked coefficient.
    return np.sort(g)[::-1]


def _coefficients(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The threshold and verdict coefficients 1 - g^-2 and g^2 - 1; a square past the doubles reads as inf."""
    with np.errstate(over="ignore"):
        return 1.0 - g**-2.0, g**2.0 - 1.0


def _exp_squares(sigma: float, n: int, mc_samples: int, sampler: SeededSampler) -> np.ndarray:
    """(mc_samples, n) draws of squared Rayleigh factors: Exp(mean 2 sigma^2)."""
    u = sampler.uniforms(mc_samples * n)
    scale = -2.0 * sigma * sigma

    def transform(lo: int, hi: int) -> None:
        chunk = u[lo:hi]
        np.negative(chunk, out=chunk)
        np.log1p(chunk, out=chunk)
        chunk *= scale

    _split(transform, u.size)
    return u.reshape(mc_samples, n)


def _sums(problem: MultiCertProblem, coeffs: np.ndarray, stream_index: int) -> np.ndarray:
    """Draws of sum_i coeffs_i beta_i^2 from stream ``stream_index`` of the problem's seed."""
    sampler = SeededSampler(problem.seed, stream_index)
    return _exp_squares(problem.sigma, problem.n, problem.mc_samples, sampler) @ coeffs


def _estimate(indicator: np.ndarray) -> tuple[float, float]:
    """The two-sided 99% Clopper-Pearson interval (lo, hi) on the share of true entries."""
    c = SampleCounts(int(np.count_nonzero(indicator)), indicator.size)
    return clopper_pearson(c, 0.005, Side.LOWER), clopper_pearson(c, 0.005, Side.UPPER)


def _solve_threshold(sums: np.ndarray, target: float, upper_tail: bool) -> float:
    """Exact threshold on the common-random-number CDF estimate.

    With fixed draws the empirical CDF is a monotone step function of the
    threshold.  The lower tail returns the smallest t with
    ``mean(sums <= t) >= target``: the k-th smallest sum, k the least count
    with ``k / n >= target``.  ``upper_tail`` returns the smallest t with
    ``mean(sums >= t) <= target``: the double just above the (m+1)-th largest
    sum, m the greatest count with ``m / n <= target``.  Each count is one
    bisection over 0..n that compares ``k / n`` in float, as ``mean`` compares
    it, since ``target * n`` may round across an integer.  ``sums`` is
    partially sorted in place.
    """
    n = sums.size
    if upper_tail:
        kth = n - bisect.bisect_right(range(n + 1), target, key=lambda m: m / n)  # bisect_right is m + 1
        sums.partition(kth)
        return float(np.nextafter(sums[kth], np.inf))
    k = bisect.bisect_left(range(n + 1), target, key=lambda k: k / n)
    sums.partition(k - 1)
    return float(sums[k - 1])


def solve_thresholds(
    problem: MultiCertProblem, gamma: Sequence[float], stream_index: int = 0
) -> tuple[float, float]:
    """Thresholds (r, theta) for one factor vector.

    On one set of draws of S = sum (1 - gamma_i^-2) beta_i^2, r is the
    smallest sampled value with empirical P(S <= r) >= pa_lower, and theta is
    the smallest double with empirical P(S >= theta) <= pb_upper (just above a
    sampled value).  Both are exact order statistics of the draws.  The
    identity vector has all-zero coefficients; membership short-circuits
    there, and (0, 0) is returned.
    """
    coeffs, _ = _coefficients(_sorted_gamma(gamma, problem.n))
    if np.all(coeffs == 0.0):
        return 0.0, 0.0
    sums = _sums(problem, coeffs, stream_index)
    r = _solve_threshold(sums, problem.pa_lower, upper_tail=False)
    theta = _solve_threshold(sums, problem.pb_upper, upper_tail=True)
    return r, theta


def in_robust_region(
    problem: MultiCertProblem, gamma: Sequence[float], stream_base: int = 0
) -> RegionQuery:
    """Membership query: is the prediction provably unchanged at ``gamma``?

    Evaluates whether P(sum (gamma_i^2 - 1) beta_i^2 <= r) exceeds
    P(sum (gamma_i^2 - 1) beta_i^2 >= theta); the verdict is INSIDE or OUTSIDE
    only when the two 99% intervals are disjoint, UNKNOWN otherwise.  The
    identity vector is always inside (the smoothed outputs coincide there).
    """
    g = _sorted_gamma(gamma, problem.n)
    if np.all(g == 1.0):
        return RegionQuery(tuple(np.asarray(gamma, dtype=float)), 0.0, 0.0, Verdict.INSIDE)

    r, theta = solve_thresholds(problem, g, stream_index=stream_base)
    sums = _sums(problem, _coefficients(g)[1], stream_base + 1)
    (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = _estimate(sums <= r), _estimate(sums >= theta)
    if lhs_lo > rhs_hi:
        verdict = Verdict.INSIDE
    elif lhs_hi < rhs_lo:
        verdict = Verdict.OUTSIDE
    else:
        verdict = Verdict.UNKNOWN
    return RegionQuery(tuple(np.asarray(gamma, dtype=float)), r, theta, verdict)

