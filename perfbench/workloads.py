"""The four benchmark workloads: inputs from a seed, requests, and exact checks.

Every workload builds a fixed pool of requests from ``--seed`` and the timed
loop cycles through it.  Pools are stratified: each seed draws fresh inputs,
but the mix of easy, hard and abstaining requests is fixed by construction,
so latency percentiles, the abstain share and the certificate width measure
the program rather than the luck of the draw.

The linear and realistic classifiers are "planted": class 1 beats class 0
exactly when sum(x**beta) exceeds a threshold tau, and every other class
always loses.  With ``x = u**s`` the exponent ``s`` places the flip factor
``beta*`` of each image wherever the pool needs it, which gives the linear
workload the same exact flip interval the threshold oracle has.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom

import smoothcert as sc

IMAGE_SHAPE = (3, 32, 32)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**32, size=count)]


def _stratified(rng, lo, hi, count):
    """One value from each of ``count`` equal strata of [lo, hi), in random order."""
    edges = lo + (np.arange(count) + rng.uniform(size=count)) * (hi - lo) / count
    return list(rng.permutation(edges))


def _write_read(tensor, path: Path) -> np.ndarray:
    sc.write_tensor(tensor, path)
    return sc.read_tensor(path)


def _flip_check(result, alpha, prob_class1):
    """Certificate inside the exact flip interval, with the exact top label.

    ``prob_class1(gamma)`` is the exact smoothed probability of class 1 under
    attack factor gamma; it decreases in gamma, so only the endpoint on the
    flip side needs checking.  A certificate is allowed to miss with
    probability alpha: a miss whose hit count is at least as unlikely as
    alpha under the exact probability is a coverage miss, not a failure.
    Returns ``(failure reason or None, coverage miss)``.
    """
    top = 1 if prob_class1(1.0) > 0.5 else 0
    cert = result.certificate
    if result.label != top:
        problem = f"label {result.label} but exact top label is {top}"
    elif top == 1 and prob_class1(cert.gamma2) < 0.5:
        problem = f"gamma2={cert.gamma2!r} is past the exact flip point"
    elif top == 0 and prob_class1(cert.gamma1) > 0.5:
        problem = f"gamma1={cert.gamma1!r} is past the exact flip point"
    else:
        return None, False
    p_label = prob_class1(1.0) if result.label == 1 else 1.0 - prob_class1(1.0)
    k, n = result.counts.successes, result.counts.trials
    tail = float(binom.sf(k - 1, n, p_label))
    if tail <= alpha:
        return None, True
    return f"{problem}; P(hits >= {k}) = {tail:.3g} > alpha", False


class Workload:
    """Interface the runner drives; subclasses fill in the four methods."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool: list = []

    def setup(self, inj) -> None:
        """Generate inputs, round-trip them through files, build ``self.pool``."""
        raise NotImplementedError

    def issue(self, request, inj):
        raise NotImplementedError

    def check(self, request, result) -> tuple[str | None, bool]:
        """``(reason, excused)``: reason is None for a correct result.

        ``excused`` marks a disagreement with the exact answer that the
        result's stated confidence allows; it is counted and printed, not
        failed.
        """
        raise NotImplementedError

    def abstained(self, result) -> bool:
        return result.abstained

    def log_width(self, request, result) -> float | None:
        """ln(gamma2 / gamma1) of a certificate; None when nothing was certified."""
        cert = result.certificate
        return None if cert is None else math.log(cert.gamma2 / cert.gamma1)


# --- oracle -----------------------------------------------------------------


@dataclass(frozen=True)
class OracleRequest:
    oracle: object
    x: np.ndarray
    seed: int


class OracleWorkload(Workload):
    """ThresholdOracle predict-and-certify on one pixel at n = 1e6."""

    name = "oracle"
    N, N0, ALPHA = 1_000_000, 100, 0.001
    CERTIFIED, ABSTAIN, SLOW, MIDDLE = 12, 1, 3, 5

    def setup(self, inj) -> None:
        rng = np.random.default_rng([self.seed, 1])
        dist = sc.rayleigh()
        # A fixed ladder of top-class probabilities fixes each request's cost
        # (the exact binomial tail sums about n * (1 - p) terms), while the
        # seed picks pixels, labels and sample streams.  Groups of requests
        # share a rung so that the median falls inside one group (p = 0.98)
        # and the tail percentile inside another (p = 0.9), not between two
        # rungs of different cost.  The last request sits just above 1/2,
        # inside the Clopper-Pearson margin (about 1.5e-3 at n = 1e6), and
        # abstains.
        cheap = self.CERTIFIED - self.SLOW - self.MIDDLE
        top_probs = [0.9] * self.SLOW + [0.98] * self.MIDDLE + list(1.0 - np.logspace(-2.4, -3.0, cheap))
        top_probs += list(0.5 + rng.uniform(5e-5, 2e-4, self.ABSTAIN))
        count = len(top_probs)
        top_labels = rng.integers(0, 2, count)
        pixels = rng.uniform(0.2, 0.8, count)
        seeds = _seeds(rng, count)

        pixels = _write_read(pixels.reshape(count, 1), self.workdir / "oracle_inputs.mst1")
        self.pool = []
        for i in range(count):
            prob1 = top_probs[i] if top_labels[i] == 1 else 1.0 - top_probs[i]
            threshold = float(pixels[i, 0] ** dist.quantile(prob1))
            manifest = self.workdir / f"oracle_{i}.json"
            manifest.write_text(
                json.dumps({"type": "threshold", "pixel_value": float(pixels[i, 0]), "threshold": threshold})
            )
            oracle = sc.load_classifier(manifest)
            self.pool.append(OracleRequest(oracle, pixels[i], seeds[i]))

    def issue(self, req: OracleRequest, inj):
        cfg = sc.SmoothingConfig(
            n=self.N, alpha=self.ALPHA, dist=inj.distribution(sc.rayleigh()), seed=req.seed, n0=self.N0
        )
        base = inj.classifier(req.oracle)
        return sc.smoothed_predict_certify(base, req.x, cfg, transform=inj.transform(sc.gamma_correct_batch))

    def check(self, req: OracleRequest, result):
        if result.abstained:
            return None, False
        dist = sc.rayleigh()
        return _flip_check(result, self.ALPHA, lambda gamma: sc.exact_oracle_probability(req.oracle, gamma, dist))


# --- planted linear classifier ---------------------------------------------


def planted_classifier(rng, classes: int, d: int, kappa: float, tau: float):
    """Weights and bias in [0, 1]: class 1 wins iff sum(x) > tau, others lose."""
    base = rng.uniform(0.2, 0.8, d)
    weights = np.empty((classes, d))
    weights[0] = base
    weights[1] = base + kappa
    weights[2:] = base - rng.uniform(0.0, 1e-4, (classes - 2, d))
    bias = np.empty(classes)
    bias[0] = 0.6
    bias[1] = 0.6 - kappa * tau
    bias[2:] = rng.uniform(0.0, 0.5, classes - 2)
    return weights, bias


def planted_image(rng, d: int, tau: float, beta_star: float) -> np.ndarray:
    """Image x = u**s with sum(x**beta_star) == tau."""
    u = rng.uniform(0.05, 1.0, d)
    log_u = np.log(u)
    exponent = brentq(
        lambda e: float(np.exp(e * log_u).sum()) - tau, 1e-9, 1e3, xtol=1e-14, rtol=4 * np.finfo(float).eps
    )
    return (u ** (exponent / beta_star)).reshape(IMAGE_SHAPE)


@dataclass(frozen=True)
class ImageRequest:
    x: np.ndarray
    seed: int
    beta_star: float


class _PlantedWorkload(Workload):
    CLASSES = 10
    KAPPA = 1e-4
    TAU_SHARE = 0.35

    def _build(self, rng, stem: str, beta_stars):
        d = int(np.prod(IMAGE_SHAPE))
        tau = self.TAU_SHARE * d
        weights, bias = planted_classifier(rng, self.CLASSES, d, self.KAPPA, tau)
        images = np.stack([planted_image(rng, d, tau, b) for b in beta_stars])
        seeds = _seeds(rng, len(beta_stars))

        sc.write_tensor(weights, self.workdir / f"{stem}_w.mst1")
        sc.write_tensor(bias, self.workdir / f"{stem}_b.mst1")
        manifest = self.workdir / f"{stem}.json"
        manifest.write_text(json.dumps({"weights": f"{stem}_w.mst1", "bias": f"{stem}_b.mst1", "classes": self.CLASSES}))
        self.classifier = sc.load_classifier(manifest)
        images = _write_read(images, self.workdir / f"{stem}_x.mst1")
        self.pool = [
            ImageRequest(images[i], seeds[i], float(beta_stars[i])) for i in range(len(beta_stars))
        ]


class LinearWorkload(_PlantedWorkload):
    """10-class linear classifier on 3x32x32 at n = 1e4."""

    name = "linear-3x32x32"
    N, N0, ALPHA = 10_000, 100, 0.001
    CERTIFIED, ABSTAIN = 10, 3

    def setup(self, inj) -> None:
        rng = np.random.default_rng([self.seed, 2])
        dist = sc.rayleigh()
        # The Clopper-Pearson margin at n = 1e4 is about 0.015.
        top_probs = list(1.0 - np.logspace(-0.5, -2.0, self.CERTIFIED))
        top_probs += list(0.5 + rng.uniform(5e-4, 2e-3, self.ABSTAIN))
        top_labels = rng.integers(0, 2, len(top_probs))
        beta_stars = [
            float(dist.quantile(p if t == 1 else 1.0 - p)) for p, t in zip(top_probs, top_labels)
        ]
        self._build(rng, "linear", beta_stars)

    def issue(self, req: ImageRequest, inj):
        cfg = sc.SmoothingConfig(
            n=self.N, alpha=self.ALPHA, dist=inj.distribution(sc.rayleigh()), seed=req.seed, n0=self.N0
        )
        base = inj.classifier(self.classifier)
        return sc.smoothed_predict_certify(base, req.x, cfg, transform=inj.transform(sc.gamma_correct_batch))

    def check(self, req: ImageRequest, result):
        if result.abstained:
            return None, False
        dist = sc.rayleigh()
        return _flip_check(result, self.ALPHA, lambda gamma: float(dist.cdf(req.beta_star / gamma)))


class RealisticWorkload(_PlantedWorkload):
    """certify_realistic at n_eps = 50 x n_gamma = 40 on 3x32x32."""

    name = "realistic-8bit"
    N_EPS, N_GAMMA, ALPHA = 50, 40, 0.001
    Q_E, ALPHA_E = 0.9, 0.01
    INTERVAL = (0.71, 1.33)
    E_TENSORS, E_GRID = 44, 64
    # E on uniform 3x32x32 tensors is about 3.0, and the inner radius caps at
    # 1.13 sigma at n_eps = 50; sigma = 4 lets 48 of 50 inner hits cover E.
    SIGMA_GAUSS = 4.0
    CERTIFIED, ABSTAIN = 16, 8

    def setup(self, inj) -> None:
        rng = np.random.default_rng([self.seed, 3])
        tensors = [rng.uniform(0.0, 1.0, IMAGE_SHAPE) for _ in range(self.E_TENSORS)]
        tensors = list(_write_read(np.stack(tensors), self.workdir / "realistic_e.mst1"))
        with inj.span("realistic.estimate_error"):
            e_bound = sc.estimate_conversion_error(
                tensors, self.INTERVAL, self.Q_E, self.ALPHA_E, self.E_GRID,
                seed=_seeds(rng, 1)[0], dist=inj.distribution(sc.rayleigh()),
            )
        budget_path = self.workdir / "realistic_budget.json"
        budget = sc.ErrorBudget.for_alpha(e_bound, self.Q_E, self.ALPHA_E, self.ALPHA, self.INTERVAL)
        budget_path.write_text(json.dumps(budget.to_json()))
        self.budget = sc.ErrorBudget.load(budget_path)

        # Inner votes are robust only when beta is far from beta* (beta < beta*/3
        # for class 1).  Certified requests put beta* out of reach of all 40
        # factor draws; abstaining ones put it near the median factor.  The
        # abstaining requests are the slower ones (more distinct inner hit
        # counts, so more Clopper-Pearson solves, as many as the seed gives);
        # eight of them keep the tail percentile inside their group and spread
        # it over enough inner-hit patterns that the seed moves it little.
        beta_stars = list(rng.uniform(12.0, 16.0, self.CERTIFIED)) + list(rng.uniform(1.0, 1.5, self.ABSTAIN))
        self._build(rng, "realistic", beta_stars)

    def issue(self, req: ImageRequest, inj):
        cfg = sc.RealisticConfig(self.N_EPS, self.N_GAMMA, self.SIGMA_GAUSS, self.ALPHA, seed=req.seed)
        base = inj.classifier(self.classifier)
        with inj.span("realistic.certify"):
            return sc.certify_realistic(base, req.x, cfg, self.budget, dist=inj.distribution(sc.rayleigh()))

    def check(self, req: ImageRequest, result):
        expected_rho = sc.error_budget(self.ALPHA, self.Q_E, self.ALPHA_E)
        if self.budget.rho != expected_rho:
            return f"budget rho={self.budget.rho!r} but error_budget gives {expected_rho!r}", False
        cert = result.certificate
        if result.abstained:
            return (None if cert is None else "abstained with a certificate"), False
        lo, hi = self.INTERVAL
        if not lo <= cert.gamma1 <= 1.0 <= cert.gamma2 <= hi:
            return f"certificate ({cert.gamma1!r}, {cert.gamma2!r}) leaves the attack interval {self.INTERVAL}", False
        return None, False


# --- multi-factor -------------------------------------------------------------

EXP_MEAN = 2.0 * sc.RayleighParams.unit_median().sigma ** 2


def _positive_sf(means, t: float) -> float:
    """P(T > t) for T a sum of independent exponentials with the given means."""
    if t <= 0.0:
        return 1.0
    if len(means) == 1:
        return math.exp(-t / means[0])
    a, b = means
    if abs(a - b) <= 1e-6 * max(a, b):
        m = 0.5 * (a + b)
        return math.exp(-t / m) * (1.0 + t / m)
    return (a * math.exp(-t / a) - b * math.exp(-t / b)) / (a - b)


def expsum_cdf(coeffs, t: float) -> float:
    """Exact P(sum c_i * beta_i**2 <= t) for at most two squared unit-median Rayleigh factors."""
    means = [c * EXP_MEAN for c in coeffs if c != 0.0]
    pos = [m for m in means if m > 0.0]
    neg = [-m for m in means if m < 0.0]
    if not means:
        return 1.0 if t >= 0.0 else 0.0
    if not neg:
        return 1.0 - _positive_sf(pos, t)
    if not pos:
        return _positive_sf(neg, -t)
    a, b = pos[0], neg[0]
    if t >= 0.0:
        return 1.0 - a / (a + b) * math.exp(-t / a)
    return b / (a + b) * math.exp(t / b)


def _expsum_quantile(coeffs, p: float) -> float:
    means = [c * EXP_MEAN for c in coeffs]
    lo = -60.0 * sum(-m for m in means if m < 0.0)
    hi = 60.0 * sum(m for m in means if m > 0.0)
    return brentq(lambda t: expsum_cdf(coeffs, t) - p, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def exact_margin(gamma, pa: float, pb: float) -> float:
    """P(S' <= r*) - P(S' >= theta*) with the exact thresholds of the two-factor law."""
    g = np.asarray(gamma, dtype=float)
    coeffs = list(1.0 - g**-2.0)
    flipped = list(g**2.0 - 1.0)
    r = _expsum_quantile(coeffs, pa)
    theta = _expsum_quantile(coeffs, 1.0 - pb)
    return expsum_cdf(flipped, r) - (1.0 - expsum_cdf(flipped, theta))


def boundary_distance(direction, pa: float, pb: float, t_max: float = 4.0) -> float:
    """Log-space distance along ``direction`` where the exact margin first turns negative."""
    u = np.asarray(direction)
    steps = np.linspace(0.2, t_max, 20)
    prev = 0.0
    for t in steps:
        if exact_margin(np.exp(t * u), pa, pb) < 0.0:
            return brentq(lambda s: exact_margin(np.exp(s * u), pa, pb), prev, t, xtol=1e-12)
        prev = t
    raise ValueError(f"no region boundary within distance {t_max} along {direction}")


@dataclass(frozen=True)
class RegionRequest:
    gamma: tuple
    pa: float
    pb: float
    stream_base: int
    margin: float


class MultiFactorWorkload(Workload):
    """in_robust_region with n = 2 at mc_samples = 1e5."""

    name = "multi-factor"
    MC = 100_000
    DIRECTIONS = 40
    # Each direction in log-factor space is one (pa, pb) problem probed at
    # shares of its exact boundary distance: one inside, two within 0.1% of
    # the boundary (where Monte-Carlo verdicts are mostly UNKNOWN) and one
    # outside.  Many directions keep the UNKNOWN share steady across seeds.
    FRACTIONS = (0.6, 0.999, 1.001, 1.4)
    # Verdicts may disagree with the exact sign this close to the boundary:
    # the sign band of the multi-factor acceptance criterion.
    SIGN_BAND = 0.01

    def setup(self, inj) -> None:
        rng = np.random.default_rng([self.seed, 4])
        angles = 2.0 * math.pi * (np.arange(self.DIRECTIONS) + rng.uniform(size=self.DIRECTIONS)) / self.DIRECTIONS
        bounds = np.column_stack(
            [_stratified(rng, 0.75, 0.95, self.DIRECTIONS), _stratified(rng, 0.02, 0.15, self.DIRECTIONS)]
        )
        bounds = _write_read(bounds, self.workdir / "multi_bounds.mst1")
        self.problem_seed = _seeds(rng, 1)[0]
        self.pool = []
        for angle, (pa, pb) in zip(angles, bounds):
            u = (math.cos(angle), math.sin(angle))
            distance = boundary_distance(u, pa, pb)
            for fraction in self.FRACTIONS:
                t = fraction * distance
                gamma = (math.exp(t * u[0]), math.exp(t * u[1]))
                # Stream bases follow scan_gamma_grid: 2 * (point index + 1).
                stream_base = 2 * (len(self.pool) + 1)
                self.pool.append(RegionRequest(gamma, float(pa), float(pb), stream_base, exact_margin(gamma, pa, pb)))

    def issue(self, req: RegionRequest, inj):
        problem = sc.MultiCertProblem(
            n=2, sigma=sc.RayleighParams.unit_median().sigma, pa_lower=req.pa, pb_upper=req.pb,
            mc_samples=self.MC, seed=self.problem_seed,
        )
        with inj.span("multicert.query"):
            return sc.in_robust_region(problem, req.gamma, stream_base=req.stream_base)

    def check(self, req: RegionRequest, result):
        """A decided verdict must match the sign of the exact margin.

        Within the sign band a disagreement is excused and counted.
        """
        if result.verdict is sc.Verdict.INSIDE and not req.margin > 0.0:
            wrong = "INSIDE"
        elif result.verdict is sc.Verdict.OUTSIDE and not req.margin < 0.0:
            wrong = "OUTSIDE"
        else:
            return None, False
        if abs(req.margin) < self.SIGN_BAND:
            return None, True
        return f"{wrong} at {req.gamma} but the exact margin is {req.margin!r}", False

    def abstained(self, result) -> bool:
        return result.verdict is sc.Verdict.UNKNOWN

    def log_width(self, req: RegionRequest, result) -> float | None:
        """Log-width of the factor range holding 1 and the point's factors, over clearly inside points.

        Points within the sign band of the boundary are left out, so that
        Monte-Carlo coin flips there do not move the figure; a clearly inside
        point that is not certified INSIDE counts as width 0.
        """
        if not req.margin > self.SIGN_BAND:
            return None
        if result.verdict is not sc.Verdict.INSIDE:
            return 0.0
        ends = list(result.gamma) + [1.0]
        return math.log(max(ends) / min(ends))


WORKLOADS = {
    w.name: w for w in (OracleWorkload, LinearWorkload, RealisticWorkload, MultiFactorWorkload)
}
