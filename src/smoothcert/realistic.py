"""Double smoothing for the 8-bit setting: inner Gaussian, outer factor law.

Once images are re-quantized to 8 bits per channel, composing power
transforms is only approximately multiplicative.  The fix is layered: the
base classifier is first smoothed with additive Gaussian noise so that it is
provably robust in an l2-ball large enough to absorb the measured conversion
error, and that inner classifier is then smoothed over the multiplicative
factor as usual.  Every estimation step spends part of a mistake budget; the
final probability bounds are shifted by the budget total and the certificate
is clipped to the attack interval the error bound was measured on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import bdtrc, ndtri

from .certify import Abstain, ProbBounds, SampleCounts, certify_for
from .distributions import SmoothingDistribution, rayleigh
from .rng import SeededSampler, _split
from .runtime import BaseClassifier, PredictionResult, _bounds, _read_manifest, _tally
from .transforms import conversion_error, gamma_correct, validate_image

__all__ = [
    "ErrorBudget",
    "RealisticConfig",
    "error_budget",
    "adjust_probabilities",
    "gaussian_l2_radius",
    "min_samples_for_quantile_bound",
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


def adjust_probabilities(pa_lower: float, pb_upper: float, rho: float) -> ProbBounds | Abstain:
    """Shift both bounds by the mistake budget: pa - rho versus pb + rho."""
    if not rho >= 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    pa = pa_lower - rho
    pb = pb_upper + rho
    if pa <= 0.5:
        return Abstain(f"adjusted pa_lower={pa:.6f} <= 1/2 (rho={rho})")
    if pa <= pb:
        return Abstain(f"adjusted bounds cross: {pa:.6f} <= {pb:.6f} (rho={rho})")
    return ProbBounds(pa, pb, confidence=max(1.0 - rho, 0.0))


def gaussian_l2_radius(pa_lower: float, sigma_gauss: float) -> float | Abstain:
    """Certified l2 radius of Gaussian smoothing with the trivial runner-up bound."""
    if not 0.0 < pa_lower < 1.0:
        raise ValueError(f"pa_lower must lie in (0, 1), got {pa_lower}")
    if not 0.0 < sigma_gauss < math.inf:
        raise ValueError(f"sigma_gauss must be a positive finite real, got {sigma_gauss}")
    if pa_lower <= 0.5:
        return Abstain(f"pa_lower={pa_lower} <= 1/2: no l2 radius")
    return sigma_gauss * float(ndtri(pa_lower))


def min_samples_for_quantile_bound(q: float, alpha: float) -> int:
    """Smallest sample count for which an order statistic can bound the q-quantile.

    Needs P(Bin(m, q) >= m) = q**m <= alpha, i.e. m >= ln(alpha) / ln(q).  The
    count steps from that float estimate to the least m whose tail as
    :func:`quantile_upper_confidence` reads it, ``bdtrc(m - 1, m, q)``, is at
    most alpha, so the largest sample always qualifies at the returned count.
    """
    if not 0.0 < q < 1.0 or not 0.0 < alpha < 1.0:
        raise ValueError("q and alpha must lie in (0, 1)")
    m = max(1, math.ceil(math.log(alpha) / math.log(q)))
    while bdtrc(m - 1, m, q) > alpha:
        m += 1
    while m > 1 and bdtrc(m - 2, m - 1, q) <= alpha:
        m -= 1
    return m


def quantile_upper_confidence(samples: Sequence[float], q: float, alpha: float) -> float:
    """Distribution-free upper confidence bound on the q-quantile.

    Returns the k-th order statistic with k the smallest index whose
    binomial coverage argument P(Bin(m, q) >= k) <= alpha; the bound covers
    the true quantile with probability at least 1 - alpha for any law.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    m = values.size
    needed = min_samples_for_quantile_bound(q, alpha)
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
    needed = min_samples_for_quantile_bound(q_E, alpha_E)
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

    For each factor draw, the inner Gaussian-smoothed prediction contributes a
    vote only when its own lower bound clears 1/2 *and* its certified l2
    radius covers the conversion-error bound; anything less counts as a miss.
    The outer hit count gives a Clopper-Pearson bound, shifted by the budget
    total, certified by the rule of the factor law ``dist`` (Rayleigh when
    omitted) through :func:`certify_for`, and clipped.  The inner and the
    outer bounds both come from the one vote-to-bounds body of
    :mod:`smoothcert.runtime`.  Any law works; pass the one the budget's ``E``
    was measured under.  The certification-time alpha is the single
    confidence knob: both the inner and outer binomial bounds spend it, and it
    must be the alpha the budget's rho was computed from.
    """
    arr = validate_image(x)
    expected_rho = error_budget(cfg.alpha, budget.q_E, budget.alpha_E)
    if abs(expected_rho - budget.rho) > 1e-9:
        raise ValueError(
            f"budget.rho={budget.rho} does not match alpha={cfg.alpha} "
            f"(expected {expected_rho})"
        )
    if not budget.feasible:
        return PredictionResult(None, 0.0, None, None, reason=f"rho={budget.rho} >= 1/2 always abstains")

    n_eps = cfg.n_eps

    def vote(tally: Counter) -> int | None:  # the top inner label if it certifies an l2 radius of at least E
        label, _, pa_lower, _ = _bounds(tally, tally, n_eps, cfg.alpha)
        radius = gaussian_l2_radius(pa_lower, cfg.sigma_gauss)
        return label if not isinstance(radius, Abstain) and radius >= budget.E else None

    no_vote = PredictionResult(
        None, 0.0, None, SampleCounts(0, cfg.n_gamma), reason="no factor draw produced a robust inner vote"
    )
    if vote(Counter({0: n_eps})) is None:  # the radius rises with the count, so no factor draw can vote
        return no_vote
    law = dist or rayleigh()
    sampler = SeededSampler(cfg.seed)
    factors = law.sample(sampler.stream(0), cfg.n_gamma)

    def rows(lo: int, hi: int) -> np.ndarray:
        # Row j * n_eps + i is inner draw i under factor draw j: stream j + 1
        # at draw index i, shifted by the j-th transformed image.  Images and
        # streams are made here, on the calling thread, for this chunk only.
        draws = range(lo // n_eps, (hi - 1) // n_eps + 1)
        images = {j: gamma_correct(arr, float(factors[j])) for j in draws}
        streams = {j: sampler.stream(j + 1) for j in draws}
        out = np.empty((hi - lo,) + arr.shape)

        def build(a: int, b: int) -> None:
            for j in range((lo + a) // n_eps, (lo + b - 1) // n_eps + 1):
                first, last = max(lo + a, j * n_eps), min(lo + b, (j + 1) * n_eps)
                _noisy_rows(streams[j], first - j * n_eps, cfg.sigma_gauss, out[first - lo : last - lo], images[j])

        _split(build, hi - lo, arr.size)
        return out

    inner = map(vote, _tally(base, rows, cfg.n_gamma * n_eps, arr.size, n_eps))
    robust = Counter(label for label in inner if label is not None)  # the outer votes
    if not robust:
        return no_vote
    label, outer, pa_lower, pb_upper = _bounds(robust, robust, cfg.n_gamma, cfg.alpha)

    adjusted = adjust_probabilities(pa_lower, pb_upper, budget.rho)
    if isinstance(adjusted, Abstain):
        return PredictionResult(None, pa_lower, None, outer, reason=adjusted.reason)
    outcome = certify_for(law, adjusted)
    if isinstance(outcome, Abstain):
        return PredictionResult(None, pa_lower, None, outer, reason=outcome.reason, adjusted=adjusted)
    lo, hi = budget.gamma_interval
    return PredictionResult(label, pa_lower, outcome.clipped(lo, hi), outer, adjusted=adjusted)
