import hashlib
import itertools
import math
import sys
import threading
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from scipy.special import ndtri

from smoothcert import (
    MultiCertProblem,
    ProbBounds,
    RayleighParams,
    SampleCounts,
    Side,
    Verdict,
    certify_rayleigh,
    clopper_pearson,
    in_robust_region,
    rayleigh,
    solve_thresholds,
)
from smoothcert.multicert import (
    _MIN_MC_SAMPLES,
    _estimate,
    _exp_squares,
    _solve_threshold,
)
from smoothcert.rng import SeededSampler

from loop_threshold import loop_threshold

SIGMA = RayleighParams.unit_median().sigma
# Two-sided 99% normal quantile for the Monte-Carlo tolerance of the reference estimator.
Z99 = float(ndtri(0.995))


def exponential_cdf(t: float, scale: float) -> float:
    return -math.expm1(-t / scale) if t >= 0 else 0.0


def make_problem(pa=0.9, pb=0.1, n=1, mc=100_000, seed=12) -> MultiCertProblem:
    return MultiCertProblem(n=n, sigma=SIGMA, pa_lower=pa, pb_upper=pb, mc_samples=mc, seed=seed)


def scan_gamma_grid(problem: MultiCertProblem, axes) -> list:
    """Membership over the cartesian product of per-factor grids; point i reads stream base 2 * (i + 1)."""
    points = itertools.product(*axes)
    return [in_robust_region(problem, point, stream_base=2 * (i + 1)) for i, point in enumerate(points)]


def bisection_threshold(sums: np.ndarray, target: float, upper_tail: bool) -> float:
    """Reference: bisect the empirical tail probability until lo and hi are
    adjacent doubles, then take hi, the limit of the bisection.
    """
    lo = float(sums.min()) - 1.0
    hi = float(sums.max()) + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if upper_tail:
            too_low = float((sums >= mid).mean()) > target
        else:
            too_low = float((sums <= mid).mean()) < target
        if too_low:
            lo = mid
        else:
            hi = mid


# Draw counts: round, prime, and just under 1e5.
MC_SIZES = [100_000, 10_007, 99_991]
# Targets whose target * n is inexact in float, or rounds across an integer
# (0.56 and 0.29 at n = 1e5 need the index corrected after ceil and floor).
TARGET_PAIRS = [(0.3, 0.15), (0.123456789, 0.1), (0.56, 0.29), (0.9, 0.05)]


class McEstimate(NamedTuple):
    value: float
    half_width: float


def weighted_expsum_cdf(
    coeffs: Sequence[float],
    sigma: float,
    threshold: float,
    mc_samples: int,
    seed: int,
    stream_index: int = 0,
) -> McEstimate:
    """Monte-Carlo estimate of P(sum_i c_i * beta_i^2 <= threshold), with its 99% half-width.

    Deterministic in ``(seed, stream_index)``.  An all-zero coefficient vector
    degenerates to a point mass at 0 and is answered exactly.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError(f"coeffs must be a nonempty vector, got shape {c.shape}")
    if mc_samples < _MIN_MC_SAMPLES:
        raise ValueError(f"mc_samples must be >= {_MIN_MC_SAMPLES}, got {mc_samples}")
    if np.all(c == 0.0):
        return McEstimate(1.0 if threshold >= 0.0 else 0.0, 0.0)
    c = np.sort(c)[::-1]
    squares = _exp_squares(sigma, c.size, mc_samples, SeededSampler(seed, stream_index))
    p = float((squares @ c <= threshold).mean())
    return McEstimate(p, Z99 * math.sqrt(p * (1.0 - p) / mc_samples))



class TestWeightedExpsumCdf:
    def test_degenerate_all_zero(self):
        assert weighted_expsum_cdf([0.0, 0.0], SIGMA, 0.5, 10_000, seed=1).value == 1.0
        assert weighted_expsum_cdf([0.0, 0.0], SIGMA, -0.5, 10_000, seed=1).value == 0.0

    def test_single_positive_coefficient_matches_exponential(self):
        g = 1.7
        c = 1.0 - g**-2
        threshold = c * rayleigh(RayleighParams(SIGMA)).quantile(0.9) ** 2
        est = weighted_expsum_cdf([c], SIGMA, threshold, 200_000, seed=4)
        exact = exponential_cdf(threshold / c, 2.0 * SIGMA**2)
        assert abs(exact - 0.9) < 1e-12
        assert abs(est.value - exact) <= 1.5 * est.half_width

    def test_erlang_two_closed_form(self):
        threshold = 2.0 * (2.0 * SIGMA**2)
        est = weighted_expsum_cdf([1.0, 1.0], SIGMA, threshold, 100_000, seed=11)
        exact = 1.0 - math.exp(-2.0) * 3.0
        assert abs(est.value - exact) <= 1.5 * est.half_width

    def test_deterministic_given_seed(self):
        a = weighted_expsum_cdf([0.4, -0.2], SIGMA, 0.3, 50_000, seed=9)
        b = weighted_expsum_cdf([0.4, -0.2], SIGMA, 0.3, 50_000, seed=9)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            weighted_expsum_cdf([1.0], SIGMA, 0.5, 5_000, seed=1)


class TestEstimate:
    @pytest.mark.parametrize("hits", [0, 1, 5_000, 9_999, 10_000])
    def test_is_the_two_sided_clopper_pearson_interval(self, hits):
        indicator = np.arange(10_000) < hits
        counts = SampleCounts(hits, 10_000)
        expected = (clopper_pearson(counts, 0.005, Side.LOWER), clopper_pearson(counts, 0.005, Side.UPPER))
        assert _estimate(indicator) == expected

    @pytest.mark.parametrize("value", [False, True])
    def test_has_positive_width_when_every_entry_agrees(self, value):
        lo, hi = _estimate(np.full(100_000, value))
        assert 0.0 <= lo < hi <= 1.0
        assert (hi == 1.0) if value else (lo == 0.0)


class TestSolveThresholds:
    def test_single_factor_analytic_reduction(self):
        problem = make_problem(pa=0.85, pb=0.1, mc=200_000)
        g = 1.6
        r, theta = solve_thresholds(problem, [g])
        c = 1.0 - g**-2
        scale = 2.0 * SIGMA**2
        # translate threshold error to probability space and compare to MC noise
        hw = 2.5758 * math.sqrt(0.85 * 0.15 / problem.mc_samples)
        assert abs(exponential_cdf(r / c, scale) - 0.85) < hw + 2e-5
        assert abs(math.exp(-theta / (c * scale)) - 0.1) < hw + 2e-5

    def test_identity_short_circuit(self):
        problem = make_problem(n=2)
        assert solve_thresholds(problem, [1.0, 1.0]) == (0.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_thresholds(make_problem(n=2), [1.5])

    @pytest.mark.parametrize("mc", MC_SIZES)
    @pytest.mark.parametrize("pa, pb", TARGET_PAIRS + [(None, None)])
    def test_equals_converged_bisection(self, mc, pa, pb):
        if pa is None:
            # Extreme indices: r is the smallest sum (k = 1), theta sits just
            # above the largest (m = 0).
            pa, pb = 1.0 / mc, 0.5 / mc
        problem = make_problem(pa=pa, pb=pb, n=2, mc=mc, seed=21)
        gamma = [1.6, 0.8]
        r, theta = solve_thresholds(problem, gamma, stream_index=3)
        coeffs = 1.0 - np.asarray(gamma) ** -2.0
        sums = _exp_squares(SIGMA, 2, mc, SeededSampler(21, 3)) @ coeffs
        assert r == bisection_threshold(sums, pa, upper_tail=False)
        assert theta == bisection_threshold(sums, pb, upper_tail=True)

    @pytest.mark.parametrize("mc", MC_SIZES)
    @pytest.mark.parametrize("target", [0.3, 0.15, 0.123456789, 0.56, 0.29, None])
    @pytest.mark.parametrize("upper_tail", [False, True])
    def test_equals_converged_bisection_with_ties(self, mc, target, upper_tail):
        sums = np.round(_exp_squares(SIGMA, 1, mc, SeededSampler(5, 1))[:, 0], 2)
        assert np.unique(sums).size < mc // 10
        if target is None:
            target = 0.5 / mc if upper_tail else 1.0 / mc
        expected = bisection_threshold(sums, target, upper_tail)
        assert _solve_threshold(sums.copy(), target, upper_tail) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 49, 100, 1000, 10_007, 99_991, 100_000])
    def test_equals_the_loop_count_at_every_neighbour_of_k_over_n(self, n):
        # distinct sums, so the threshold names the order statistic it picked
        sums = np.random.default_rng(n).permutation(n).astype(float)
        counts = set(range(min(n, 12) + 1)) | {n // 3, n // 2, n - 2, n - 1} | set(range(0, n + 1, max(n // 37, 1)))
        targets = {
            t
            for k in counts
            if 0 <= k <= n
            for t in (math.nextafter(k / n, -math.inf), k / n, math.nextafter(k / n, math.inf))
            if 0.0 < t < 1.0
        } | {0.56, 0.29, 0.123456789}
        for target in sorted(targets):
            for upper_tail in (False, True):
                expected = loop_threshold(sums.copy(), target, upper_tail)
                assert _solve_threshold(sums.copy(), target, upper_tail) == expected, (target, upper_tail)

    def test_draws_are_golden(self):
        # sha256 of the raw float64 bytes recorded with numpy 2.4 / scipy 1.17;
        # any change to the draw arithmetic must keep every bit.
        squares = _exp_squares(SIGMA, 2, 1000, SeededSampler(3, 1))
        assert squares.shape == (1000, 2) and squares.dtype == np.float64
        assert hashlib.sha256(squares.tobytes()).hexdigest() == (
            "2547ca4df6379ed4ab0a6b2e5b60d570c77f9afbb81156dfe88851d92d438c38"
        )
        squares = _exp_squares(0.7, 3, 500, SeededSampler(11, 4))
        assert hashlib.sha256(squares.tobytes()).hexdigest() == (
            "8d2c6faa7b179e8f7fe4a875e31604ccb913c2cd2e3870469a21b93df4b242a1"
        )
        # the benchmark's size, large enough to be transformed in parallel chunks
        squares = _exp_squares(SIGMA, 2, 100_000, SeededSampler(17, 2))
        assert hashlib.sha256(squares.tobytes()).hexdigest() == (
            "9046d09fb2461cb33c265dc0ab972232c3c33587971cace911524a4e8e602a51"
        )


class TestInRobustRegion:
    @pytest.mark.parametrize("gamma", [[math.nan, 1.2], [1.2, math.nan]])
    def test_nan_factor_is_rejected(self, gamma):
        # one positivity rule with gamma_correct: NaN is no positive factor
        with pytest.raises(ValueError, match="positive"):
            in_robust_region(make_problem(n=2), gamma)

    def test_infinite_sigma_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MultiCertProblem(n=2, sigma=math.inf, pa_lower=0.9, pb_upper=0.1, mc_samples=20_000, seed=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 0, "factor count must be >= 1"),
            ("pa_lower", 1.0, "pa_lower must lie in"),
            ("pb_upper", 0.0, "pb_upper must lie in"),
            ("pb_upper", 0.95, "pa_lower must exceed pb_upper"),
            ("mc_samples", 10, "mc_samples must be >= "),
        ],
    )
    def test_problem_checks_its_fields_when_built(self, field, value, message):
        fields = dict(n=2, sigma=0.8, pa_lower=0.9, pb_upper=0.05, mc_samples=10_000, seed=1)
        with pytest.raises(ValueError, match=message):
            MultiCertProblem(**{**fields, field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_problem_checks_its_seed_when_built(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            MultiCertProblem(n=2, sigma=0.8, pa_lower=0.9, pb_upper=0.05, mc_samples=10_000, seed=seed)

    def test_identity_always_inside(self):
        query = in_robust_region(make_problem(n=3, pa=0.55, pb=0.45), [1.0, 1.0, 1.0])
        assert query.verdict is Verdict.INSIDE

    def test_single_factor_agrees_with_interval(self):
        problem = make_problem(pa=0.9, pb=0.1)
        cert = certify_rayleigh(ProbBounds(0.9, 0.1))
        inside = in_robust_region(problem, [0.5 * (1.0 + cert.gamma2)])
        outside = in_robust_region(problem, [cert.gamma2 * 1.5])
        assert inside.verdict is Verdict.INSIDE
        assert outside.verdict is Verdict.OUTSIDE

    @pytest.mark.parametrize("gamma", [(1e-200, 1.0), (1e200, 1.0), (1e200, 1e-200), (1e-160, 1e160)])
    def test_factors_whose_squares_leave_the_doubles_are_outside(self, gamma):
        # the squares overflow to infinite coefficients, which decide the
        # verdict without a warning
        problem = make_problem(n=2, pa=0.9, pb=0.05, mc=10_000, seed=1)
        assert in_robust_region(problem, gamma).verdict is Verdict.OUTSIDE

    def test_permutation_symmetry(self):
        problem = make_problem(n=2, pa=0.85, pb=0.05)
        a = in_robust_region(problem, [1.2, 0.9])
        b = in_robust_region(problem, [0.9, 1.2])
        assert a.verdict is b.verdict
        assert a.r == b.r and a.theta == b.theta

    def test_monotone_nesting_in_pa(self):
        grid = np.linspace(0.4, 2.2, 25)
        low = make_problem(pa=0.7, pb=0.05, seed=33)
        high = make_problem(pa=0.95, pb=0.05, seed=33)
        accepted_low = {g for g in grid if in_robust_region(low, [g]).verdict is Verdict.INSIDE}
        accepted_high = {g for g in grid if in_robust_region(high, [g]).verdict is Verdict.INSIDE}
        assert accepted_low <= accepted_high

    def test_concurrent_queries_match_serial(self):
        # more calling threads than cores, all sharing the chunk worker pool
        problem = make_problem(n=2, pa=0.85, pb=0.05, seed=44)
        points = [(1.2, 0.9), (0.7, 1.3), (1.05, 1.0), (2.0, 0.6), (0.95, 0.97)]

        def queries() -> list:
            found = [in_robust_region(problem, p, stream_base=2 * i) for i, p in enumerate(points)]
            return [(q.verdict, q.r, q.theta) for q in found]

        serial = queries()
        callers = 4
        results: dict[int, list] = {}
        barrier = threading.Barrier(callers)

        def run(caller: int) -> None:
            barrier.wait()
            results[caller] = queries()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(c,)) for c in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[c] for c in range(callers)] == [serial] * callers


class TestScanGammaGrid:
    def test_grid_shape_and_determinism(self):
        problem = make_problem(n=2, pa=0.9, pb=0.05, mc=20_000)
        axes = [np.linspace(0.8, 1.2, 3), np.linspace(0.9, 1.1, 3)]
        first = scan_gamma_grid(problem, axes)
        second = scan_gamma_grid(problem, axes)
        assert len(first) == 9
        assert [q.verdict for q in first] == [q.verdict for q in second]

    def test_axis_count_checked(self):
        with pytest.raises(ValueError):
            in_robust_region(make_problem(n=2), [1.0])

    @pytest.mark.parametrize(
        "n, pa, pb, mc, seed, axis, digest",
        [
            # equal factors, the identity, and all three verdicts on each grid
            (2, 0.9, 0.05, 20_000, 7, [0.6, 1.0, 1.3, 1.3, 1.8],
             "beec7ad3fd216642ee392fc14e3f640bc9cbaf3990af6e6a480e4829537336d4"),
            (3, 0.85, 0.1, 10_007, 8, [0.6, 1.0, 1.4, 1.4],
             "ce90377461ab11d153ea63db4eb17bc9668e6c3ca5cd5c6143f9cc366cce2da6"),
        ],
    )
    def test_queries_are_golden(self, n, pa, pb, mc, seed, axis, digest):
        # sha256 of each point's (r, theta) float64 bytes and verdict name,
        # recorded with numpy 2.4 / scipy 1.17
        queries = scan_gamma_grid(make_problem(pa=pa, pb=pb, n=n, mc=mc, seed=seed), [axis] * n)
        assert {q.verdict for q in queries} == set(Verdict)
        found = hashlib.sha256()
        for q in queries:
            found.update(np.array([q.r, q.theta]).tobytes())
            found.update(q.verdict.value.encode())
        assert found.hexdigest() == digest
