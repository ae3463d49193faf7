"""Release gate: one test per acceptance criterion, at its stated tolerance.

Each test prints a [PASS] line via the conftest summary hook.  Tolerances are
pinned here and nowhere else; seeds are fixed so every run is reproducible.
"""

import csv
import io
import math
import time

import numpy as np
from scipy.stats import binom
from scipy.stats import gamma as gamma_dist

from smoothcert import (
    ErrorBudget,
    MultiCertProblem,
    ProbBounds,
    RayleighParams,
    RealisticConfig,
    SampleCounts,
    Side,
    SmoothedClassifier,
    SmoothingConfig,
    ThresholdOracle,
    Verdict,
    certify_inverse_rayleigh,
    certify_rayleigh,
    certify_rayleigh_closed_form,
    certify_realistic,
    clopper_pearson,
    empirical_sweep,
    error_budget,
    estimate_conversion_error,
    exact_oracle_probability,
    in_robust_region,
    quantile_upper_confidence,
    rayleigh,
    smoothed_predict_certify,
    solve_thresholds,
)
from smoothcert.cli import main

from explicit_rayleigh import certify_rayleigh_explicit

UNIT_MEDIAN_SIGMA = RayleighParams.unit_median().sigma
EXP_SCALE = 2.0 * UNIT_MEDIAN_SIGMA**2  # squared factors are Exp with this mean

REFERENCE_ROWS = [
    (0.600, 0.400, 0.86, 1.15),
    (0.600, 0.200, 0.71, 1.33),
    (0.700, 0.300, 0.72, 1.32),
    (0.700, 0.100, 0.54, 1.56),
    (0.800, 0.200, 0.57, 1.52),
    (0.900, 0.100, 0.39, 1.82),
    (0.990, 0.010, 0.12, 2.58),
    (0.999, 0.001, 0.04, 3.16),
]


def test_reference_table_reproduced_to_two_decimals():
    """All eight reference bound pairs certify to the printed two decimals in < 1 s."""
    started = time.perf_counter()
    for pa, pb, g1, g2 in REFERENCE_ROWS:
        cert = certify_rayleigh(ProbBounds(pa, pb))
        assert round(cert.gamma1, 2) == g1, (pa, pb, cert.gamma1)
        assert round(cert.gamma2, 2) == g2, (pa, pb, cert.gamma2)
    assert time.perf_counter() - started < 1.0


def test_closed_form_agrees_with_bisection():
    """200 random trivial-runner-up inputs agree within 1e-9, plus exact witnesses."""
    rng = np.random.default_rng(101)
    for pa in rng.uniform(0.5 + 1e-6, 1.0 - 1e-9, size=200):
        closed = certify_rayleigh_closed_form(pa)
        solved = certify_rayleigh(ProbBounds.with_trivial_pb(pa))
        assert abs(closed.gamma1 - solved.gamma1) < 1e-9
        assert abs(closed.gamma2 - solved.gamma2) < 1e-9
    # exact algebraic witnesses
    assert abs(certify_rayleigh(ProbBounds(0.6, 0.2)).gamma1 - 1.0 / math.sqrt(2.0)) < 1e-9
    assert abs(certify_rayleigh_closed_form(0.9375).gamma2 - 2.0) < 1e-12


def test_sigma_invariance_of_the_solver():
    """Explicit-scale solver matches the reduced form within 1e-9 on 50 random inputs."""
    rng = np.random.default_rng(202)
    for _ in range(50):
        pa = rng.uniform(0.45, 0.999)
        pb = rng.uniform(0.001, pa - 0.02)
        reduced = certify_rayleigh(ProbBounds(pa, pb))
        for sigma in (0.3, 0.849, 2.0):
            explicit = certify_rayleigh_explicit(ProbBounds(pa, pb), RayleighParams(sigma))
            assert abs(reduced.gamma1 - explicit.gamma1) < 1e-9
            assert abs(reduced.gamma2 - explicit.gamma2) < 1e-9


def test_end_to_end_oracle_soundness():
    """Threshold oracle at 1e5 samples: certificate below the exact flip point,
    sweep right end inside [gamma2, 2.00], exact probability above 1/2 inside,
    all in under 30 s."""
    started = time.perf_counter()
    oracle = ThresholdOracle(pixel_value=0.5, threshold=0.25)
    cfg = SmoothingConfig(n=100_000, alpha=0.001, dist=rayleigh(), seed=7)
    result = smoothed_predict_certify(oracle, oracle.clean_input(), cfg)
    assert result.label == 1
    cert = result.certificate
    assert cert.gamma2 <= 2.0  # the exact smoothed probability flips at 2

    handle = SmoothedClassifier(oracle, cfg)
    left, right = empirical_sweep(handle.predict, oracle.clean_input(), 0.01, 2.5)
    assert cert.gamma2 <= right <= 2.00

    for gamma in np.linspace(cert.gamma1, cert.gamma2, 102)[1:-1]:
        assert exact_oracle_probability(oracle, gamma, cfg.dist) > 0.5
    assert left <= cert.gamma1  # empirical interval contains the theoretical one
    assert time.perf_counter() - started < 30.0


def test_clopper_pearson_coverage():
    """Over 2000 simulated binomials (n=1000, p=0.8, alpha=0.01) the lower bound
    exceeds p no more often than the one-sided binomial test at 99% allows."""
    rng = np.random.default_rng(303)
    n, p, alpha, sims = 1000, 0.8, 0.01, 2000
    draws = rng.binomial(n, p, size=sims)
    bounds = {k: clopper_pearson(SampleCounts(int(k), n), alpha, Side.LOWER) for k in np.unique(draws)}
    violations = int(sum(bounds[k] > p for k in draws))
    # do not reject H0: violation rate <= alpha, at the 99% level
    assert binom.sf(violations - 1, sims, alpha) >= 0.01


def _exact_margin(gamma: float, pa: float, pb: float) -> float:
    """Exact membership margin for one factor: closed-form exponential tails."""
    c = 1.0 - gamma**-2
    if c > 0:
        r = c * EXP_SCALE * (-math.log1p(-pa))
        theta = c * EXP_SCALE * (-math.log(pb))
    else:
        r = c * EXP_SCALE * (-math.log(pa))
        theta = c * EXP_SCALE * (-math.log1p(-pb))
    d = gamma**2 - 1.0
    if d > 0:
        lhs = 1.0 - math.exp(-r / (d * EXP_SCALE)) if r >= 0 else 0.0
        rhs = math.exp(-theta / (d * EXP_SCALE)) if theta >= 0 else 1.0
    else:
        lhs = math.exp(-r / (d * EXP_SCALE)) if r <= 0 else 1.0
        rhs = 1.0 - math.exp(-theta / (d * EXP_SCALE)) if theta <= 0 else 0.0
    return lhs - rhs


def test_multi_factor_consistency_with_single_factor_theory():
    """n=1 membership grid agrees with the certified interval up to Monte-Carlo
    noise on 20 random bound pairs; n=2 equal-factor thresholds match the
    Erlang-2 quantile oracle within the half-width."""
    mc = 100_000
    hw_cap = 2.5758 * 0.5 / math.sqrt(mc)  # largest possible 99% half-width
    sign_band = 0.01          # verdicts never contradict the sign beyond this
    unknown_band = 6 * hw_cap  # unknowns appear only this close to the boundary

    rng = np.random.default_rng(31)
    for trial in range(20):
        pa = rng.uniform(0.55, 0.99)
        pb = rng.uniform(0.005, min(0.45, pa - 0.05))
        cert = certify_rayleigh(ProbBounds(pa, pb))
        problem = MultiCertProblem(
            n=1, sigma=UNIT_MEDIAN_SIGMA, pa_lower=pa, pb_upper=pb,
            mc_samples=mc, seed=1000 + trial,
        )
        grid = np.linspace(max(0.05, cert.gamma1 * 0.5), cert.gamma2 * 1.5, 50)
        for gamma in grid:
            if abs(gamma - 1.0) < 1e-9:
                continue
            margin = _exact_margin(gamma, pa, pb)
            inside_interval = cert.gamma1 < gamma < cert.gamma2
            if abs(margin) > 1e-9:
                assert (margin > 0) == inside_interval  # the two theories agree
            query = in_robust_region(problem, [gamma])
            if query.verdict is Verdict.INSIDE:
                assert margin > -sign_band
            elif query.verdict is Verdict.OUTSIDE:
                assert margin < sign_band
            else:
                assert abs(margin) < unknown_band

    # n = 2, equal factors: thresholds against the Erlang-2 quantile oracle
    for g, pa, pb, seed in [(1.3, 0.9, 0.1, 51), (1.15, 0.8, 0.15, 52), (1.6, 0.95, 0.02, 53)]:
        problem = MultiCertProblem(
            n=2, sigma=UNIT_MEDIAN_SIGMA, pa_lower=pa, pb_upper=pb, mc_samples=mc, seed=seed
        )
        r, theta = solve_thresholds(problem, [g, g])
        c = 1.0 - g**-2
        erlang = gamma_dist(a=2, scale=EXP_SCALE)
        hw_r = 2.5758 * math.sqrt(pa * (1 - pa) / mc)
        hw_t = 2.5758 * math.sqrt(pb * (1 - pb) / mc)
        assert abs(erlang.cdf(r / c) - pa) <= hw_r + 2.0 / mc
        assert abs(erlang.sf(theta / c) - pb) <= hw_t + 2.0 / mc


def test_error_budget_arithmetic_and_clipping():
    """rho(0.001, 0.9, 0.01) = 0.111 exactly; realistic certificates are subsets
    of the attack interval; rho >= 1/2 always abstains."""
    assert abs(error_budget(0.001, 0.9, 0.01) - 0.111) < 1e-12

    from smoothcert import ConstantClassifier

    for interval in [(0.9, 1.1), (0.71, 1.33), (0.99, 1.01)]:
        budget = ErrorBudget.for_alpha(0.0, 0.9, 0.01, 0.001, interval)
        cfg = RealisticConfig(n_eps=40, n_gamma=200, sigma_gauss=0.25, alpha=0.001, seed=9)
        result = certify_realistic(ConstantClassifier(1), np.array([0.5]), cfg, budget)
        assert result.certificate is not None
        assert interval[0] <= result.certificate.gamma1 <= 1.0
        assert 1.0 <= result.certificate.gamma2 <= interval[1]

    fat = ErrorBudget.for_alpha(0.0, 0.6, 0.2, 0.1, (0.71, 1.33))
    assert fat.rho >= 0.5
    cfg = RealisticConfig(n_eps=40, n_gamma=50, sigma_gauss=0.25, alpha=0.1, seed=9)
    assert certify_realistic(ConstantClassifier(1), np.array([0.5]), cfg, fat).abstained


def test_conversion_error_bound_properties():
    """All-binary tensors give E = 0; nested attack intervals nest E on common
    draws; the distribution-free bound covers the true quantile in at least a
    1 - alpha_E fraction of 500 uniform-law trials."""
    binary = [np.array([0.0, 1.0, 0.0, 1.0]) for _ in range(30)]
    assert estimate_conversion_error(binary, (0.71, 1.33), 0.9, 0.05, seed=4) == 0.0

    rng = np.random.default_rng(77)
    dataset = [rng.uniform(0.0, 1.0, size=10) for _ in range(30)]
    inner = estimate_conversion_error(dataset, (0.86, 1.15), 0.9, 0.05, seed=4)
    outer = estimate_conversion_error(dataset, (0.71, 1.33), 0.9, 0.05, seed=4)
    assert inner <= outer

    c, q, alpha_e, trials = 2.5, 0.9, 0.05, 500
    rng = np.random.default_rng(18)
    covered = sum(
        quantile_upper_confidence(rng.uniform(0.0, c, size=35), q, alpha_e) >= q * c
        for _ in range(trials)
    )
    assert covered >= math.ceil((1.0 - alpha_e) * trials)


def test_scale_constants():
    """Unit-median sigma = 0.84932 and unit-mean sigma = 0.79788 within 1e-4."""
    assert abs(RayleighParams.unit_median().sigma - 0.84932) < 1e-4
    assert abs(RayleighParams.unit_mean().sigma - 0.79788) < 1e-4


def test_reciprocal_certificates():
    """Reciprocal-factor certificates equal swapped elementwise reciprocals of
    the direct ones within 1e-9 on 50 random bound pairs."""
    rng = np.random.default_rng(404)
    for _ in range(50):
        pa = rng.uniform(0.45, 0.999)
        pb = rng.uniform(0.001, pa - 0.02)
        direct = certify_rayleigh(ProbBounds(pa, pb))
        flipped = certify_inverse_rayleigh(ProbBounds(pa, pb))
        assert abs(flipped.gamma1 - 1.0 / direct.gamma2) < 1e-9
        assert abs(flipped.gamma2 - 1.0 / direct.gamma1) < 1e-9


def test_small_factor_advantage_over_matched_baseline(capsys):
    """Figure-level substitute: on the documented pa grid the direct certificate's
    left endpoint is strictly smaller than the matched-median log-Gaussian
    baseline's (equal right endpoints)."""
    code = main(["compare", "--pa-grid", "0.55:0.995:9", "--dists", "rayleigh,log-gaussian"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_pa: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_pa.setdefault(row["pa"], {})[row["distribution"]] = row
    assert len(by_pa) == 9
    for pa, dists in by_pa.items():
        direct = dists["rayleigh"]
        matched = dists["log-gaussian-matched"]
        assert abs(float(direct["gamma2_full"]) - float(matched["gamma2_full"])) < 1e-9
        assert float(direct["gamma1_full"]) < float(matched["gamma1_full"]), pa
