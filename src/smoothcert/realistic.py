"""Double smoothing for the 8-bit setting: inner Gaussian, outer factor law.

Once images are re-quantized to 8 bits per channel, composing power
transforms is only approximately multiplicative.  The fix is layered: the
base classifier is first smoothed with additive Gaussian noise so that it is
provably robust, by the radius that :func:`certify_for` gives, in an l2-ball
large enough to absorb the measured conversion error, and that inner
classifier is then smoothed over the multiplicative factor as usual.  Every
estimation step spends part of a mistake budget; the final probability bounds
are shifted by the budget total and the certificate is clipped to the attack
interval the error bound was measured on.
:func:`estimate_conversion_error` measures the bound, :class:`ErrorBudget`
records it, and :func:`certify_realistic` spends it; the budget shift, the
inner hit threshold and the sample-count rule are private steps of these.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import bdtrc, ndtri

from .certify import Abstain, ProbBounds, SampleCounts, Side, certify_for, clopper_pearson
from .distributions import SmoothingDistribution, log_gaussian, rayleigh
from .rng import SeededSampler, _split
from .runtime import BaseClassifier, PredictionResult, _bounds, _read_manifest, _tally, _top
from .transforms import conversion_error, gamma_correct, validate_image

__all__ = [
    "ErrorBudget",
    "RealisticConfig",
    "error_budget",
    "quantile_upper_confidence",
    "estimate_conversion_error",
    "certify_realistic",
]

def _check_interval(name: str, interval: tuple[float, float]) -> tuple[float, float]:
    """The one rule for an attack interval: 0 < lo <= 1 <= hi < inf and lo < hi."""
    lo, hi = interval
    if not (0.0 < lo <= 1.0 <= hi < math.inf and lo < hi):
        raise ValueError(f"{name} must straddle 1 with 0 < lo < hi < inf, got {interval}")
    return float(lo), float(hi)


def error_budget(alpha: float, q_E: float, alpha_E: float) -> float:
    """Total mistake probability rho = alpha + (1 - q_E) + alpha_E.

    A budget of 1/2 or more can never certify (the adjusted lower bound
    cannot clear 1/2); callers should treat that as always-abstain.
    """
    for name, value in (("alpha", alpha), ("q_E", q_E), ("alpha_E", alpha_E)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return alpha + (1.0 - q_E) + alpha_E


@dataclass(frozen=True)
class ErrorBudget:
    """Accounting record for the realistic setting.

    ``E`` bounds the l2 conversion error with rate ``q_E`` over the data
    distribution, estimated at confidence ``1 - alpha_E``; ``rho`` is the
    total budget of Eq-style mistake probabilities including the
    certification-time ``alpha``; ``gamma_interval`` is the attack interval
    the bound was measured on (and certificates are clipped to).  On disk it
    is the JSON object :meth:`to_json` writes; :meth:`load` reads one, and
    its errors, range errors included, name the file.
    """

    E: float
    q_E: float
    alpha_E: float
    rho: float
    gamma_interval: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.E >= 0.0:
            raise ValueError(f"E must be nonnegative, got {self.E}")
        if not 0.0 < self.q_E < 1.0:
            raise ValueError(f"q_E must lie in (0, 1), got {self.q_E}")
        if not 0.0 < self.alpha_E < 1.0:
            raise ValueError(f"alpha_E must lie in (0, 1), got {self.alpha_E}")
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        object.__setattr__(self, "gamma_interval", _check_interval("gamma_interval", self.gamma_interval))

    @classmethod
    def for_alpha(
        cls,
        E: float,
        q_E: float,
        alpha_E: float,
        alpha: float,
        gamma_interval: tuple[float, float],
    ) -> "ErrorBudget":
        return cls(E, q_E, alpha_E, error_budget(alpha, q_E, alpha_E), gamma_interval)

    @property
    def feasible(self) -> bool:
        return self.rho < 0.5

    def to_json(self) -> dict:
        return {**asdict(self), "gamma_interval": list(self.gamma_interval)}

    @classmethod
    def load(cls, path) -> "ErrorBudget":
        return _read_manifest(path, lambda doc: cls)


@dataclass(frozen=True)
class RealisticConfig:
    """Sampling plan: n_eps inner Gaussian draws per each of n_gamma factor draws.

    On disk it is the JSON object :meth:`to_json` writes; :meth:`load` reads
    one, and its errors, range errors included, name the file.
    """

    n_eps: int
    n_gamma: int
    sigma_gauss: float
    alpha: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_eps < 1:
            raise ValueError(f"n_eps must be positive, got {self.n_eps}")
        if self.n_gamma < 1:
            raise ValueError(f"n_gamma must be positive, got {self.n_gamma}")
        if not 0.0 < self.sigma_gauss < math.inf:
            raise ValueError(f"sigma_gauss must be a positive finite real, got {self.sigma_gauss}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        SeededSampler(self.seed)  # the one seed rule

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path) -> "RealisticConfig":
        return _read_manifest(path, lambda doc: cls)


def _adjust_probabilities(pa_lower: float, pb_upper: float, rho: float) -> ProbBounds | Abstain:
    """Shift both bounds by the mistake budget: pa - rho versus pb + rho."""
    pa = pa_lower - rho
    if pa <= 0.5:
        return Abstain(f"adjusted pa_lower={pa:.6f} <= 1/2 (rho={rho})")
    return ProbBounds(pa, pb_upper + rho, confidence=1.0 - rho)


def _min_samples_for_quantile_bound(q_E: float, alpha_E: float) -> int:
    """Smallest sample count for which an order statistic can bound the q_E-quantile.

    Needs P(Bin(m, q_E) >= m) = q_E**m <= alpha_E, i.e. m >= ln(alpha_E) / ln(q_E).
    The count steps from that float estimate to the least m whose tail as
    :func:`quantile_upper_confidence` reads it, ``bdtrc(m - 1, m, q_E)``, is
    at most alpha_E, so the largest sample always qualifies at the returned count.
    """
    for name, value in (("q_E", q_E), ("alpha_E", alpha_E)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    m = max(1, math.ceil(math.log(alpha_E) / math.log(q_E)))
    while bdtrc(m - 1, m, q_E) > alpha_E:
        m += 1
    while m > 1 and bdtrc(m - 2, m - 1, q_E) <= alpha_E:
        m -= 1
    return m


def quantile_upper_confidence(samples: Sequence[float], q: float, alpha: float) -> float:
    """Distribution-free upper confidence bound on the q-quantile.

    Returns the k-th order statistic with k the smallest index whose
    binomial coverage argument P(Bin(m, q) >= k) <= alpha; the bound covers
    the true quantile with probability at least 1 - alpha for any law.  The
    range errors of ``q`` and ``alpha`` name them q_E and alpha_E, the roles
    they play in the error budget.
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"samples must be a 1-D array, got shape {values.shape}")
    nan = np.isnan(values)
    if nan.any():
        raise ValueError(f"samples must not be NaN, got {nan.sum()} NaN of {values.size}")
    values = np.sort(values)
    m = values.size
    needed = _min_samples_for_quantile_bound(q, alpha)
    if m < needed:
        raise ValueError(
            f"need >= {needed} samples for a {q}-quantile bound at confidence "
            f"{1 - alpha}, got {m}"
        )
    # smallest k with P(Bin(m, q) >= k) <= alpha; k = m always qualifies here.
    tail = bdtrc(np.arange(m), m, q)  # tail[j] = P(X >= j+1)
    k = int(np.argmax(tail <= alpha)) + 1
    return float(values[k - 1])


def estimate_conversion_error(
    dataset: Sequence[np.ndarray],
    gamma_interval: tuple[float, float],
    q_E: float,
    alpha_E: float,
    grid_points: int = 64,
    seed: int = 0,
    dist: SmoothingDistribution | None = None,
) -> float:
    """Distributional bound E on the l2 conversion error over an attack interval.

    Pairs every dataset tensor with one smoothing-factor draw, takes the worst
    conversion error over a ``grid_points`` grid of attack factors in the
    interval, and lifts the empirical q_E-quantile of those maxima to a
    one-sided upper confidence bound at level 1 - alpha_E.  The grid max is an
    approximation of the true supremum; 64 points is the default trade-off.

    For a per-input guarantee at inference time, pass the same tensor repeated
    enough times to satisfy the sample requirement: the maxima then vary only
    over the factor draws.
    """
    lo, hi = _check_interval("gamma interval", gamma_interval)
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    tensors = [validate_image(x) for x in dataset]
    needed = _min_samples_for_quantile_bound(q_E, alpha_E)
    if len(tensors) < needed:
        raise ValueError(
            f"need >= {needed} dataset tensors for q_E={q_E} at confidence "
            f"{1 - alpha_E}, got {len(tensors)}"
        )
    law = dist or rayleigh()
    betas = law.sample(SeededSampler(seed), len(tensors))
    grid = np.linspace(lo, hi, grid_points)
    maxima = [conversion_error(x, float(beta), grid).max() for x, beta in zip(tensors, betas)]
    return quantile_upper_confidence(maxima, q_E, alpha_E)


def _hit_threshold(n_eps: int, alpha: float, sigma_gauss: float, E: float) -> int:
    """The least top count of n_eps inner draws whose l2 radius reaches ``E`` (bisected: radii rise), else n_eps + 1.

    At pb = 1 - pa the l2 radius sigma * Phi^-1(pa) is the ln-radius of log-Gaussian smoothing at sigma, rounded
    inward by :func:`certify_for`; one above ln(max double) ~ 709.78 reads as 709.78, which is conservative.
    """

    def covers(hits: int) -> bool:
        pa = clopper_pearson(SampleCounts(hits, n_eps), alpha, Side.LOWER)
        return pa > 0.5 and math.log(certify_for(log_gaussian(sigma_gauss), ProbBounds.with_trivial_pb(pa)).gamma2) >= E

    return bisect.bisect_left(range(1, n_eps + 1), True, key=covers) + 1


def _noisy_rows(sampler: SeededSampler, start: int, sigma: float, out: np.ndarray, image: np.ndarray) -> None:
    """Writes ``image`` plus draws ``start..`` of N(0, sigma^2) noise into the rows of ``out``.

    Runs on the calling thread: it is the per-core kernel of the realistic
    inner rows.  ``out`` must be contiguous, one draw per leading index.
    """
    flat = out.reshape(-1)
    sampler._fill(flat, start * math.prod(out.shape[1:]))
    ndtri(flat, out=flat)
    flat *= sigma
    np.add(out, image, out=out)


def certify_realistic(
    base: BaseClassifier,
    x: np.ndarray,
    cfg: RealisticConfig,
    budget: ErrorBudget,
    dist: SmoothingDistribution | None = None,
) -> PredictionResult:
    """Certify through the double-smoothing pipeline and clip to the attack interval.

    A factor draw votes its top inner label when that label's count reaches
    :func:`_hit_threshold`, so that it certifies an l2 radius covering the
    conversion-error bound; no row is labelled when no count can.  Factor
    draws are made per chunk and each tally is dropped once it has voted.
    The outer hit count gives a bound pair through the vote-to-bounds body
    of :mod:`smoothcert.runtime`, shifted by the budget total, certified by
    the rule of the factor law ``dist`` (Rayleigh when omitted) through
    :func:`certify_for`, and clipped.  Pass the law the budget's ``E`` was
    measured under.  Both binomial bounds spend the certification-time
    alpha, which must be the alpha the budget's rho was computed from.
    """
    arr = validate_image(x)
    expected_rho = error_budget(cfg.alpha, budget.q_E, budget.alpha_E)
    if abs(expected_rho - budget.rho) > 1e-9:
        raise ValueError(f"budget.rho={budget.rho} does not match alpha={cfg.alpha} (expected {expected_rho})")
    if not budget.feasible:
        return PredictionResult(None, 0.0, None, None, reason=f"rho={budget.rho} >= 1/2 always abstains")

    n_eps = cfg.n_eps
    threshold = _hit_threshold(n_eps, cfg.alpha, cfg.sigma_gauss, budget.E)
    no_vote = PredictionResult(
        None, 0.0, None, SampleCounts(0, cfg.n_gamma), reason="no factor draw produced a robust inner vote"
    )
    if threshold > n_eps:  # no factor draw can vote
        return no_vote
    law = dist or rayleigh()
    sampler = SeededSampler(cfg.seed)

    def rows(lo: int, hi: int) -> np.ndarray:
        # Row j * n_eps + i is inner draw i under factor draw j: stream j + 1 at draw index i
        # plus image j.  This chunk's factors, images and streams are made on the calling thread.
        draws = range(lo // n_eps, (hi - 1) // n_eps + 1)
        factors = law.sample(sampler.stream(0), len(draws), draws.start)
        images = {j: gamma_correct(arr, float(factor)) for j, factor in zip(draws, factors)}
        streams = {j: sampler.stream(j + 1) for j in draws}
        out = np.empty((hi - lo,) + arr.shape)

        def build(a: int, b: int) -> None:
            for j in range((lo + a) // n_eps, (lo + b - 1) // n_eps + 1):
                first, last = max(lo + a, j * n_eps), min(lo + b, (j + 1) * n_eps)
                _noisy_rows(streams[j], first - j * n_eps, cfg.sigma_gauss, out[first - lo : last - lo], images[j])

        _split(build, hi - lo, arr.size)
        return out

    tops = map(_top, _tally(base, rows, cfg.n_gamma * n_eps, arr.size, n_eps))
    robust = Counter(label for label, count in tops if count >= threshold)  # the outer votes
    if not robust:
        return no_vote
    label, outer, pa_lower, pb_upper = _bounds(robust, robust, cfg.n_gamma, cfg.alpha)

    adjusted = _adjust_probabilities(pa_lower, pb_upper, budget.rho)
    if isinstance(adjusted, Abstain):
        return PredictionResult(None, pa_lower, None, outer, reason=adjusted.reason)
    outcome = certify_for(law, adjusted)
    if isinstance(outcome, Abstain):
        return PredictionResult(None, pa_lower, None, outer, reason=outcome.reason, adjusted=adjusted)
    lo, hi = budget.gamma_interval
    return PredictionResult(label, pa_lower, outcome.clipped(lo, hi), outer, adjusted=adjusted)
