import dataclasses
import functools
import hashlib
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import beta as beta_dist

from smoothcert import (
    Abstain,
    Certificate,
    Kind,
    Method,
    ProbBounds,
    RayleighParams,
    SampleCounts,
    Side,
    SmoothingDistribution,
    certify_for,
    certify_inverse_rayleigh,
    certify_rayleigh,
    certify_rayleigh_closed_form,
    clopper_pearson,
    log_gaussian,
    log_laplace,
    log_space_radius,
    log_uniform,
    rayleigh,
)

from explicit_rayleigh import certify_rayleigh_explicit

# Reference grid of bound pairs with their certified intervals at two decimals.
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


def random_bounds(rng: np.random.Generator) -> tuple[float, float]:
    pa = rng.uniform(0.4, 0.999)
    pb = rng.uniform(0.001, pa - 0.02)
    return pa, pb


# Exact binomial tails, the oracle for the Clopper-Pearson bounds: stdlib
# rationals for small n, a 50-digit pmf recurrence for large n.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_BERNOULLI = [  # B_2, B_4, ..., B_20
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
]


def _ln_factorial(m: int) -> Decimal:
    """ln(m!) in the current context: exact below 1000, Stirling series above.

    From m = 1000 on, the first omitted term of the series is below 1e-60.
    """
    if m < 1000:
        return Decimal(math.factorial(m)).ln()
    z = Decimal(m)
    total = z * z.ln() - z + (2 * _PI * z).ln() / 2
    power = z
    for j, b in enumerate(_BERNOULLI, start=1):
        total += Decimal(b.numerator) / Decimal(b.denominator) / (2 * j * (2 * j - 1) * power)
        power *= z * z
    return total


def _fraction_tail(k: int, n: int, p: float, upper: bool) -> Fraction:
    """P(X >= k) if upper else P(X <= k), X ~ Bin(n, p), in exact rationals."""
    p = Fraction(p)
    terms = range(k, n + 1) if upper else range(0, k + 1)
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in terms)


def _decimal_tail(k: int, n: int, p: float, upper: bool) -> Fraction:
    """The same tail to about 45 digits, walking the pmf away from k.

    The walk stops once the geometric bound on the rest falls below 1e-45 of
    the sum; the pmf ratio only shrinks along the walk, so that bound holds.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ctx.Emin, ctx.Emax = -(10**8), 10**8
        p = Decimal(p)
        q = 1 - p
        term = (
            _ln_factorial(n)
            - _ln_factorial(k)
            - _ln_factorial(n - k)
            + k * p.ln()
            + (n - k) * q.ln()
        ).exp()
        total, i = term, k
        while i != (n if upper else 0):
            if upper:
                ratio = (n - i) * p / ((i + 1) * q)
                i += 1
            else:
                ratio = i * q / ((n - i + 1) * p)
                i -= 1
            term *= ratio
            total += term
            if ratio < 1 and term * ratio / (1 - ratio) < total * Decimal("1e-45"):
                break
        return Fraction(total)


def _exact_tail(k: int, n: int, p: float, upper: bool) -> Fraction:
    return (_fraction_tail if n <= 50 else _decimal_tail)(k, n, p, upper)


# Exact certificate endpoints, the oracle for the soundness of every rule, in
# stdlib decimals at 60 digits.  Each oracle gives, per endpoint, a function of
# gamma that is <= 0 exactly when gamma lies between 1 and the exact endpoint.
_DIGITS = 60


def _context(extra: int = 0):
    return localcontext(Context(prec=_DIGITS + extra, Emin=-(10**8), Emax=10**8))


def _ln1m(p: Decimal) -> Decimal:
    """ln(1 - p), to 60 digits however small p is."""
    with _context(max(0, -p.adjusted())):
        value = (1 - p).ln()
    return +value


def _expm1(y: Decimal) -> Decimal:
    """e^y - 1, to 60 digits however small y is."""
    with _context(max(0, -y.adjusted())):
        value = y.exp() - 1
    return +value


def _rayleigh_excess(pa: float, pb: float):
    """Rayleigh oracles: the sign of a^t + b^t - 1 at t = 1/gamma^2, which
    falls in t, for (a, b) = (1 - pb, pa) (gamma1) and (1 - pa, pb) (gamma2)."""
    with _context():
        pa_d, pb_d = Decimal(pa), Decimal(pb)
        logs1 = (_ln1m(pb_d), pa_d.ln())
        logs2 = (_ln1m(pa_d), pb_d.ln())

    def residual(logs, gamma: Decimal) -> Decimal:
        with _context():
            t = 1 / (gamma * gamma)
            far, near = sorted(t * log for log in logs)  # near 1: e^near needs expm1
            return far.exp() + _expm1(near)

    return (lambda g: -residual(logs1, g)), (lambda g: residual(logs2, g))


@functools.cache
def _decimal_pi(digits: int) -> Decimal:
    """pi by the series recipe of the decimal module's documentation."""
    with _context(digits + 2 - _DIGITS):
        lasts, t, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while total != lasts:
            lasts = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            total += t
    return total


def _lower_tail(x: Decimal) -> Decimal:
    """Phi(x) for x <= 0: (1 - erf(z)) / 2 at z = -x / sqrt(2), from the series
    erf(z) = 2/sqrt(pi) e^(-z^2) sum_n (2 z^2)^n z / (2n + 1)!!, whose terms are
    all positive; the digits lost to 1 - erf(z) are added up front."""
    extra = int(x * x / 4) + 10  # log10 of 1 / erfc(z) is below z^2 / 2.3
    with _context(extra):
        z = -x / Decimal(2).sqrt()
        term = total = z
        n, z2, tiny = 0, 2 * z * z, Decimal(10) ** -(_DIGITS + extra + 5)
        while term > tiny * total:
            n += 1
            term = term * z2 / (2 * n + 1)
            total += term
        erf = 2 / _decimal_pi(_DIGITS + extra).sqrt() * (-z * z).exp() * total
        value = (1 - erf) / 2
    return +value


def _probit(p: float) -> Decimal:
    """Phi^{-1}(p) by Newton steps on the erf series, from scipy's value."""
    if p > 0.5:  # 1 - p is exact
        return -_probit(1.0 - p)
    target, x = Decimal(p), Decimal(float(ndtri(p)))
    with _context():
        for _ in range(20):
            density = (-x * x / 2).exp() / (2 * _decimal_pi(_DIGITS)).sqrt()
            step = (_lower_tail(x) - target) / density
            x -= step
            if abs(step) <= abs(x) * Decimal("1e-50"):
                return x
    raise AssertionError(f"Newton steps for the probit of {p} did not settle")


def _exact_radius(kind: Kind, scale: float, pa: float, pb: float) -> Decimal:
    with _context():
        s, pa_d, pb_d = Decimal(scale), Decimal(pa), Decimal(pb)
        if kind is Kind.LOG_GAUSSIAN:
            return s * (_probit(pa) - _probit(pb)) / 2
        if kind is Kind.LOG_LAPLACE:
            return -s * (2 * (1 - pa_d)).ln()
        return s * (pa_d - pb_d)


def _exact_excess(kind: Kind, scale: float, pa: float, pb: float):
    if kind is Kind.RAYLEIGH:
        return _rayleigh_excess(pa, pb)
    if kind is Kind.INVERSE_RAYLEIGH:  # the reciprocal of the Rayleigh interval
        excess1, excess2 = _rayleigh_excess(pa, pb)
        return (lambda g: excess2(1 / g)), (lambda g: excess1(1 / g))
    radius = _exact_radius(kind, scale, pa, pb)
    return (lambda g: -radius - g.ln()), (lambda g: g.ln() - radius)


# The Rayleigh scale cancels from the composite F(F^{-1}(q) / gamma), leaving
# 1 - (1 - q)^t with t = 1/gamma^2: the identity the t-form solver rests on.
UNIT_MEDIAN = rayleigh(RayleighParams.unit_median())


def _composite(dist, gamma: float, q: float) -> float:
    return float(dist.cdf(dist.quantile(q) / gamma))


class TestReducedCdfMap:
    def test_identity_at_gamma_one(self):
        assert abs(_composite(UNIT_MEDIAN, 1.0, 0.3) - 0.3) < 1e-15

    def test_sixteenth_root(self):
        # (1/16)^(1/4) = 1/2
        assert abs(_composite(UNIT_MEDIAN, 2.0, 0.9375) - 0.5) < 1e-15

    def test_zero_fixed_point(self):
        for gamma in (0.2, 1.0, 7.0):
            assert _composite(UNIT_MEDIAN, gamma, 0.0) == 0.0

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.1, max_value=3.0),
    )
    def test_matches_explicit_composite_for_any_scale(self, gamma, q, sigma):
        reduced = -math.expm1(math.log1p(-q) / (gamma * gamma))
        assert abs(reduced - _composite(rayleigh(RayleighParams(sigma)), gamma, q)) < 1e-12


class TestCertifyRayleigh:
    @pytest.mark.parametrize("pa,pb,g1,g2", REFERENCE_ROWS)
    def test_reference_rows_to_two_decimals(self, pa, pb, g1, g2):
        cert = certify_rayleigh(ProbBounds(pa, pb))
        assert isinstance(cert, Certificate)
        assert round(cert.gamma1, 2) == g1
        assert round(cert.gamma2, 2) == g2

    def test_exact_inverse_sqrt_two(self):
        # 0.8^2 + 0.6^2 = 1 makes gamma1 = 1/sqrt(2) exactly
        cert = certify_rayleigh(ProbBounds(0.6, 0.2))
        assert abs(cert.gamma1 - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_residuals_vanish_at_roots(self):
        cert = certify_rayleigh(ProbBounds(0.83, 0.07))
        excess1, excess2 = _rayleigh_excess(0.83, 0.07)
        assert abs(excess1(Decimal(cert.gamma1))) < Decimal("1e-10")
        assert abs(excess2(Decimal(cert.gamma2))) < Decimal("1e-10")

    def test_abstains_when_bounds_cross(self):
        outcome = certify_rayleigh(ProbBounds(0.4, 0.6))
        assert isinstance(outcome, Abstain)

    def test_rejects_closed_interval_edges(self):
        # pb = 0 is the tightest runner-up bound, with the exact limit (0, inf)
        cert = certify_rayleigh(ProbBounds(0.9, 0.0))
        assert (cert.gamma1, cert.gamma2) == (0.0, math.inf)
        with pytest.raises(ValueError):
            ProbBounds(1.0, 0.1)

    def test_interval_straddles_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pa, pb = random_bounds(rng)
            cert = certify_rayleigh(ProbBounds(pa, pb))
            assert cert.gamma1 <= 1.0 <= cert.gamma2

    def test_gamma2_monotone_in_pa(self):
        gammas = [certify_rayleigh(ProbBounds(pa, 0.05)).gamma2 for pa in np.linspace(0.2, 0.99, 30)]
        assert np.all(np.diff(gammas) > 0)

    def test_gamma1_monotone_in_pa(self):
        gammas = [certify_rayleigh(ProbBounds(pa, 0.05)).gamma1 for pa in np.linspace(0.2, 0.99, 30)]
        assert np.all(np.diff(gammas) < 0)

    def test_monotone_in_pb(self):
        g1 = [certify_rayleigh(ProbBounds(0.9, pb)).gamma1 for pb in np.linspace(0.005, 0.85, 30)]
        g2 = [certify_rayleigh(ProbBounds(0.9, pb)).gamma2 for pb in np.linspace(0.005, 0.85, 30)]
        assert np.all(np.diff(g1) > 0)
        assert np.all(np.diff(g2) < 0)

    def test_trivial_bound_is_contained_in_tighter(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pa = rng.uniform(0.55, 0.99)
            loose = certify_rayleigh(ProbBounds.with_trivial_pb(pa))
            tight = certify_rayleigh(ProbBounds(pa, rng.uniform(0.001, 1.0 - pa - 1e-6)))
            assert tight.gamma1 <= loose.gamma1 + 1e-12
            assert tight.gamma2 >= loose.gamma2 - 1e-12


class TestClosedForm:
    def test_last_reference_row(self):
        cert = certify_rayleigh_closed_form(0.999)
        assert round(cert.gamma1, 2) == 0.04
        assert round(cert.gamma2, 2) == 3.16

    def test_abstention_boundary(self):
        cert = certify_rayleigh_closed_form(0.5 + 1e-13)
        assert abs(cert.gamma1 - 1.0) < 1e-6
        assert abs(cert.gamma2 - 1.0) < 1e-6

    def test_exact_two(self):
        # ln(0.0625) = 4 ln(0.5)
        cert = certify_rayleigh_closed_form(0.9375)
        assert abs(cert.gamma2 - 2.0) < 1e-12
        assert abs(cert.gamma1 - 0.3051) < 1e-4

    def test_abstains_at_or_below_half(self):
        assert isinstance(certify_rayleigh_closed_form(0.5), Abstain)
        assert isinstance(certify_rayleigh_closed_form(0.3), Abstain)

    def test_rejects_degenerate_pa(self):
        with pytest.raises(ValueError):
            certify_rayleigh_closed_form(1.0)

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(21)
        for pa in rng.uniform(0.5 + 1e-6, 1.0 - 1e-9, size=200):
            closed = certify_rayleigh_closed_form(pa)
            solved = certify_rayleigh(ProbBounds.with_trivial_pb(pa))
            assert abs(closed.gamma1 - solved.gamma1) < 1e-9
            assert abs(closed.gamma2 - solved.gamma2) < 1e-9
            # the closed form itself, apart from the solver: each endpoint lies inward of it
            gamma1 = math.sqrt(math.log(pa) / math.log(0.5))
            gamma2 = math.sqrt(math.log(1.0 - pa) / math.log(0.5))
            assert gamma1 <= closed.gamma1 < gamma1 + 1e-9
            assert gamma2 - 1e-9 < closed.gamma2 <= gamma2


class TestSigmaInvariance:
    def test_explicit_solver_matches_reduced(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pa, pb = random_bounds(rng)
            reduced = certify_rayleigh(ProbBounds(pa, pb))
            for sigma in (0.3, 0.849, 2.0):
                explicit = certify_rayleigh_explicit(ProbBounds(pa, pb), RayleighParams(sigma))
                assert abs(reduced.gamma1 - explicit.gamma1) < 1e-9
                assert abs(reduced.gamma2 - explicit.gamma2) < 1e-9

    def test_explicit_solver_abstains_identically(self):
        outcome = certify_rayleigh_explicit(ProbBounds(0.3, 0.4), RayleighParams(1.0))
        assert isinstance(outcome, Abstain)


class TestInverseRayleigh:
    def test_reciprocal_of_reference_row(self):
        direct = certify_rayleigh(ProbBounds(0.9, 0.1))
        flipped = certify_inverse_rayleigh(ProbBounds(0.9, 0.1))
        assert abs(flipped.gamma1 - 1.0 / direct.gamma2) < 1e-12
        assert abs(flipped.gamma2 - 1.0 / direct.gamma1) < 1e-12
        assert abs(flipped.gamma1 - 0.5487) < 1e-4
        assert abs(flipped.gamma2 - 2.5649) < 1e-4
        assert flipped.method is Method.RECIPROCAL

    def test_no_margin_collapses_to_one(self):
        cert = certify_inverse_rayleigh(ProbBounds.with_trivial_pb(0.5 + 1e-12))
        assert abs(cert.gamma1 - 1.0) < 1e-5
        assert abs(cert.gamma2 - 1.0) < 1e-5

    def test_reciprocal_is_an_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pa, pb = random_bounds(rng)
            direct = certify_rayleigh(ProbBounds(pa, pb))
            flipped = certify_inverse_rayleigh(ProbBounds(pa, pb))
            assert abs(1.0 / flipped.gamma2 - direct.gamma1) < 1e-9
            assert abs(1.0 / flipped.gamma1 - direct.gamma2) < 1e-9

    def test_propagates_abstention(self):
        assert isinstance(certify_inverse_rayleigh(ProbBounds(0.3, 0.4)), Abstain)


class TestClopperPearson:
    def test_all_successes_closed_form(self):
        bound = clopper_pearson(SampleCounts(100, 100), 0.001, Side.LOWER)
        assert abs(bound - 0.001 ** (1.0 / 100.0)) < 1e-9

    def test_no_successes_lower_is_zero(self):
        assert clopper_pearson(SampleCounts(0, 50), 0.05, Side.LOWER) == 0.0

    def test_no_successes_upper_closed_form(self):
        bound = clopper_pearson(SampleCounts(0, 50), 0.05, Side.UPPER)
        assert abs(bound - (1.0 - 0.05 ** (1.0 / 50.0))) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 40, 50, 1000, 100_000, 1_000_000])
    def test_conservative_and_tight_against_exact_tail(self, n):
        # LOWER's tail P(X >= k) and UPPER's tail P(X <= k) at the bound are at
        # most alpha, and 1e-9 further in they exceed it: the bound lies within
        # 1e-9 relative of the exact quantile, on its safe side.
        ks = {0, 1, 2, n // 3, n // 2, int(0.9 * n), n - 3, n - 1, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            for alpha in (1e-3, 0.05):
                lower = clopper_pearson(SampleCounts(k, n), alpha, Side.LOWER)
                upper = clopper_pearson(SampleCounts(k, n), alpha, Side.UPPER)
                if k == 0:
                    assert lower == 0.0
                else:
                    assert _exact_tail(k, n, lower, upper=True) <= Fraction(alpha)
                    assert _exact_tail(k, n, lower * (1 + 1e-9), upper=True) > Fraction(alpha)
                if k == n:
                    assert upper == 1.0
                else:
                    assert _exact_tail(k, n, upper, upper=False) <= Fraction(alpha)
                    assert _exact_tail(k, n, upper * (1 - 1e-9), upper=False) > Fraction(alpha)

    def test_exact_tail_oracle_paths_agree(self):
        for k, p in [(3, 0.1), (10, 0.3), (40, 0.7)]:
            for upper in (True, False):
                exact = _fraction_tail(k, 50, p, upper)
                assert abs(_decimal_tail(k, 50, p, upper) - exact) <= exact * Fraction(1, 10**40)
        with localcontext() as ctx:
            ctx.prec = 50
            for m in (1000, 2500):
                stirling = _ln_factorial(m)
                assert abs(stirling - Decimal(math.factorial(m)).ln()) < Decimal("1e-40")

    def test_matches_beta_quantile_oracle(self):
        # the standard beta-quantile closed form is an independent route
        for k, n, alpha in [(7, 20, 0.05), (55, 100, 0.001), (930, 1000, 0.01), (1, 10, 0.1)]:
            lower = clopper_pearson(SampleCounts(k, n), alpha, Side.LOWER)
            upper = clopper_pearson(SampleCounts(k, n), alpha, Side.UPPER)
            assert abs(lower - beta_dist.ppf(alpha, k, n - k + 1)) < 1e-9
            assert abs(upper - beta_dist.ppf(1.0 - alpha, k + 1, n - k)) < 1e-9

    def test_lower_bound_monotone_in_alpha(self):
        counts = SampleCounts(80, 100)
        bounds = [clopper_pearson(counts, a, Side.LOWER) for a in (0.001, 0.01, 0.05, 0.2)]
        assert np.all(np.diff(bounds) > 0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(SampleCounts(5, 10), 0.0, Side.LOWER)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            SampleCounts(11, 10)
        with pytest.raises(ValueError):
            SampleCounts(0, 0)


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
    interval is solved in the t-form.  Abstains whenever the lower bound is at
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
    bounds = ProbBounds(pa, pb, confidence=1.0 - alpha)
    if not bounds.certifiable:
        return Abstain(f"bounds cross: pa_lower={pa:.6f} <= pb_upper={pb:.6f}")
    return certify_rayleigh(bounds)



class TestCertifyFromCounts:
    def test_perfect_counts_compose_closed_forms(self):
        cert = certify_from_counts(SampleCounts(100, 100), 0.001)
        pa = 0.001 ** (1.0 / 100.0)
        expected_gamma2 = math.sqrt(math.log(1.0 - pa) / math.log(0.5))
        assert abs(cert.gamma2 - expected_gamma2) < 1e-9
        assert abs(cert.gamma2 - 1.977) < 1e-3
        assert cert.confidence == 1.0 - 0.001

    def test_abstains_near_half(self):
        # beta-quantile oracle confirms the bound is below 1/2
        assert beta_dist.ppf(0.001, 55, 46) < 0.5
        assert isinstance(certify_from_counts(SampleCounts(55, 100), 0.001), Abstain)

    def test_abstains_with_zero_hits(self):
        assert isinstance(certify_from_counts(SampleCounts(0, 100), 0.001), Abstain)

    def test_even_alpha_split_with_runner_up(self):
        cert = certify_from_counts(
            SampleCounts(900, 1000),
            0.01,
            use_trivial_pb=False,
            runner_up_counts=SampleCounts(60, 1000),
        )
        pa = clopper_pearson(SampleCounts(900, 1000), 0.005, Side.LOWER)
        pb = clopper_pearson(SampleCounts(60, 1000), 0.005, Side.UPPER)
        expected = certify_rayleigh(ProbBounds(pa, pb))
        assert abs(cert.gamma1 - expected.gamma1) < 1e-12
        assert abs(cert.gamma2 - expected.gamma2) < 1e-12

    def test_runner_up_required(self):
        with pytest.raises(ValueError):
            certify_from_counts(SampleCounts(90, 100), 0.01, use_trivial_pb=False)


class TestLogSpaceRadius:
    def test_gaussian_interval(self):
        cert = log_space_radius(log_gaussian(1.0), ProbBounds.with_trivial_pb(0.93319))
        assert abs(math.log(cert.gamma2) - 1.5) < 1e-3
        assert abs(cert.gamma1 - 0.2231) < 1e-3
        assert abs(cert.gamma2 - 4.4817) < 2e-3

    def test_uniform_no_margin(self):
        cert = log_space_radius(log_uniform(2.0), ProbBounds(0.5 + 1e-9, 0.5 - 1e-9))
        assert abs(math.log(cert.gamma2)) < 1e-6

    def test_laplace_half_doubling(self):
        cert = log_space_radius(log_laplace(1.0), ProbBounds(0.75, 0.25))
        assert abs(cert.gamma1 - 0.5) < 1e-12
        assert abs(cert.gamma2 - 2.0) < 1e-12

    def test_laplace_abstains_below_half(self):
        assert isinstance(log_space_radius(log_laplace(1.0), ProbBounds(0.45, 0.55)), Abstain)

    def test_laplace_abstains_at_half(self):
        # radius -ln(2 (1 - pa)) is 0 at pa = 1/2: the degenerate interval (1, 1)
        assert isinstance(log_space_radius(log_laplace(1.0), ProbBounds(0.5, 0.5)), Abstain)
        assert isinstance(log_space_radius(log_laplace(1.0), ProbBounds(0.5, 0.05)), Abstain)

    def test_rejects_direct_kinds(self):
        with pytest.raises(ValueError):
            log_space_radius(rayleigh(), ProbBounds(0.9, 0.1))

    @pytest.mark.parametrize(
        "kind,scale,pa",
        [
            (Kind.LOG_GAUSSIAN, 1.0, 0.93319),
            (Kind.LOG_LAPLACE, 1.0, 0.75),
            (Kind.LOG_UNIFORM, 1.0, 0.8),
        ],
        ids=["gaussian", "laplace", "uniform"],
    )
    def test_radius_against_neyman_pearson_oracle(self, kind, scale, pa):
        """Discretized worst-case classifier check on the additive law.

        The certified radius must put the worst-case adversarial probability
        above 1/2 just inside and below 1/2 just outside.
        """
        cert = log_space_radius(SmoothingDistribution(kind, scale), ProbBounds.with_trivial_pb(pa))
        radius = math.log(cert.gamma2)
        grid = np.linspace(-12.0 * scale, 12.0 * scale, 200_001)
        pdf = {
            Kind.LOG_GAUSSIAN: lambda z: np.exp(-(z**2) / (2 * scale**2))
            / (scale * math.sqrt(2 * math.pi)),
            Kind.LOG_LAPLACE: lambda z: np.exp(-np.abs(z) / scale) / (2 * scale),
            Kind.LOG_UNIFORM: lambda z: np.where(np.abs(z) <= scale, 1 / (2 * scale), 0.0),
        }[kind]
        for delta, expect_robust in [(0.97 * radius, True), (1.03 * radius, False)]:
            worst = _np_worst_case(pdf, grid, pa, delta)
            assert (worst > 0.5) == expect_robust


def _naming(rule):
    """A scale-free rule whose certificate names the law it is applied for, as ``certify_for``'s does."""

    def named(dist, bounds):
        outcome = rule(bounds)
        return dataclasses.replace(outcome, distribution=dist.descriptor) if isinstance(outcome, Certificate) else outcome

    return named


# The rule of each law, called directly; a Kind missing here fails the dispatch test.
DIRECT_RULES = {
    Kind.RAYLEIGH: _naming(certify_rayleigh),
    Kind.INVERSE_RAYLEIGH: _naming(certify_inverse_rayleigh),
    Kind.LOG_GAUSSIAN: log_space_radius,
    Kind.LOG_LAPLACE: log_space_radius,
    Kind.LOG_UNIFORM: log_space_radius,
}


class TestCertifyFor:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "pa,pb,confidence",
        [(0.9, 0.1, 1.0), (0.7, 0.2, 0.99), (0.6, 0.4, 0.95), (0.999, 0.0005, 0.999), (0.45, 0.5, 1.0)],
    )
    @pytest.mark.parametrize("scale", [0.4, 1.0, 2.5])
    def test_matches_the_direct_rule(self, kind, pa, pb, confidence, scale):
        dist = SmoothingDistribution(kind, scale)
        bounds = ProbBounds(pa, pb, confidence)
        outcome = certify_for(dist, bounds)
        expected = DIRECT_RULES[kind](dist, bounds)
        assert type(outcome) is type(expected)
        # method, distribution, confidence and bit-equal endpoints (all positive)
        assert outcome == expected



def _digest_pairs() -> list[tuple[float, float]]:
    """40 bound pairs: 30 random, half with pb spread over 300 decades, and the edges."""
    rng = np.random.default_rng(19)
    pairs = []
    for i in range(30):
        pa = float(rng.uniform(0.3, 1.0))
        pb = float(rng.uniform(0.0, 1.0 - pa)) if i % 2 else float(pa * 10.0 ** rng.uniform(-300.0, 0.0))
        pairs.append((pa, min(pb, math.nextafter(1.0, 0.0))))
    return pairs + [
        (0.9, 0.0), (0.6, 0.0), (1.0 - 1e-12, 0.0), (1.0 - 1e-12, 1e-300), (1.0 - 2**-53, 2**-53),
        (0.5 + 1e-12, 0.5 - 1e-12), (0.5 + 1e-12, 0.0), (0.45, 0.5), (0.7, 0.7), (0.999, 0.001),
    ]


def _encode(outcome) -> str:
    if isinstance(outcome, Certificate):
        g1, g2 = outcome.gamma1, outcome.gamma2
        return f"{g1.hex()} {g2.hex()} {outcome.method.value} {outcome.distribution} {outcome.confidence.hex()}"
    return outcome.reason


# sha256 of every certify_for outcome over _digest_pairs() at scale 0.8 and
# confidence 0.99: endpoint bits, method and law name, or the abstain text.
CERTIFY_FOR_DIGESTS = {
    Kind.RAYLEIGH: "fe5b682dd745a1e3f56ed5f995d282187156ea8ad052faa4cbb925190d4f328d",
    Kind.INVERSE_RAYLEIGH: "1a329c30a2b72e5d65bcffc837b5c8394846888ee3632dd8beafe56f37c480df",
    Kind.LOG_GAUSSIAN: "78c1d3945e655fba23ec3815ea7b3aa4bf8b5969a85cecbc02c8cc446ddab7d4",
    Kind.LOG_LAPLACE: "64f4992a53c9eb8ffef99e352c91ed0dde8a090da65033d56f7528b7654f0567",
    Kind.LOG_UNIFORM: "4a5d5a2f893e24428507408ca6c8b5aa7457ec8fdb495c7f9950708b33e9a017",
}


class TestCertifyForDigests:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_outcomes_are_golden(self, kind):
        dist = SmoothingDistribution(kind, 0.8)
        outcomes = [certify_for(dist, ProbBounds(pa, pb, 0.99)) for pa, pb in _digest_pairs()]
        assert sum(isinstance(o, Certificate) for o in outcomes) == (31 if kind is Kind.LOG_LAPLACE else 37)
        text = "\n".join(map(_encode, outcomes))
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFY_FOR_DIGESTS[kind]


def _np_worst_case(pdf, grid, pa, delta) -> float:
    """Worst-case shifted probability over classifiers with base probability pa."""
    dz = grid[1] - grid[0]
    base_mass = pdf(grid) * dz
    shifted_mass = pdf(grid - delta) * dz
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(base_mass > 0, shifted_mass / np.maximum(base_mass, 1e-300), np.inf)
    order = np.argsort(ratio, kind="stable")
    cum_base = np.cumsum(base_mass[order])
    cum_shifted = np.cumsum(shifted_mass[order])
    i = int(np.searchsorted(cum_base, pa))
    return float(cum_shifted[min(i, len(cum_shifted) - 1)])


def _soundness_cases() -> list[tuple[float, float, float]]:
    """(pa, pb, scale): 600 random pairs, half with pb spread over 300 decades, and the edges."""
    rng = np.random.default_rng(8)
    cases = []
    for i in range(600):
        pa = rng.uniform(0.3, 1.0)
        pb = rng.uniform(0.0, pa) if i % 2 else pa * 10.0 ** rng.uniform(-300.0, 0.0)
        cases.append((pa, pb, rng.uniform(0.25, 2.0)))
    for pa in (0.5 + 1e-12, 1.0 - 1e-12):
        for pb in (1e-300, 1e-12, 1.0 - pa, 0.0):
            cases.extend((pa, pb, scale) for scale in (0.25, 1.0, 2.0))
    return cases


SOUNDNESS_CASES = _soundness_cases()


class TestExactSoundness:
    """Every endpoint of every rule against the exact one, to 60 digits.

    gamma1 is never below the exact endpoint and gamma2 never above it, and
    both lie within 1e-11 relative of it; at pb = 0 the Rayleigh, reciprocal
    and Gaussian intervals are the exact limit (0, inf).
    """

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_endpoints_are_sound_and_tight(self, kind):
        certified = 0
        for pa, pb, scale in SOUNDNESS_CASES:
            outcome = certify_for(SmoothingDistribution(kind, scale), ProbBounds(pa, pb))
            if kind is Kind.LOG_LAPLACE and pa <= 0.5:
                assert isinstance(outcome, Abstain)
                continue
            assert isinstance(outcome, Certificate), (pa, pb)
            certified += 1
            if pb == 0.0 and kind in (Kind.RAYLEIGH, Kind.INVERSE_RAYLEIGH, Kind.LOG_GAUSSIAN):
                assert (outcome.gamma1, outcome.gamma2) == (0.0, math.inf), (pa, pb)
                continue
            excess1, excess2 = _exact_excess(kind, scale, pa, pb)
            with _context():
                gamma1, gamma2 = Decimal(outcome.gamma1), Decimal(outcome.gamma2)
                slack = 1 + Decimal("1e-11")
                assert excess1(gamma1) <= 0, ("gamma1 below the exact endpoint", pa, pb, scale)
                assert excess2(gamma2) <= 0, ("gamma2 above the exact endpoint", pa, pb, scale)
                assert excess1(gamma1 / slack) >= 0, ("gamma1 not tight", pa, pb, scale)
                assert excess2(gamma2 * slack) >= 0, ("gamma2 not tight", pa, pb, scale)
        assert certified >= 400

    def test_t_root_within_its_error_bound(self):
        # -ln(t)/2 within 2**-48 (1 + |ln t|/2) of the exact value: the residual
        # a^t + b^t - 1, falling in t, changes sign between the two bounds
        from smoothcert.certify import _t_root

        for pa, pb, _ in SOUNDNESS_CASES:
            if pb == 0.0:
                continue
            log_pb = math.log(pb)
            for excess, logs in zip(
                _rayleigh_excess(pa, pb),
                [(math.log1p(-pb), math.log(pa)), (math.log1p(-pa), log_pb)],
            ):
                half_log_t = -0.5 * _t_root(*logs)
                bound = 2.0**-48 * (1.0 + abs(half_log_t))
                with _context():
                    inner = Decimal(half_log_t - bound).exp()
                    outer = Decimal(half_log_t + bound).exp()
                    signs = {excess(inner) <= 0, excess(outer) <= 0}
                assert signs == {True, False}, (pa, pb)


class TestCertificateType:
    def test_invariants(self):
        # gamma1 == 0 is the unbounded left end, the mirror of gamma2 == inf
        assert Certificate(0.0, 2.0, Method.T_ROOT, "d", 1.0).gamma1 == 0.0
        for gamma1 in (-1e-300, -0.5, 1.0 + 1e-12):
            with pytest.raises(ValueError):
                Certificate(gamma1, 2.0, Method.T_ROOT, "d", 1.0)
        with pytest.raises(ValueError):
            Certificate(0.5, 0.9, Method.T_ROOT, "d", 1.0)

    def test_unbounded_marker(self):
        cert = Certificate(0.5, math.inf, Method.T_ROOT, "d", 1.0)
        assert cert.unbounded
        assert cert.gamma2 > 1e12

    def test_clipping(self):
        cert = Certificate(0.3, 2.5, Method.T_ROOT, "d", 1.0)
        clipped = cert.clipped(0.7, 1.4)
        assert (clipped.gamma1, clipped.gamma2) == (0.7, 1.4)
        with pytest.raises(ValueError):
            cert.clipped(1.5, 2.0)

    def test_abstain_is_a_distinct_variant(self):
        outcome = certify_rayleigh(ProbBounds(0.4, 0.41))
        assert isinstance(outcome, Abstain)
        assert not isinstance(outcome, Certificate)
        assert "separate" in outcome.reason


class TestOracleSoundness:
    def test_exact_probability_stays_above_half_inside(self):
        # single-pixel threshold rule admits an exact smoothed probability
        dist = rayleigh(RayleighParams.unit_median())
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.05, 0.95)
            beta_star = math.log(t) / math.log(v)
            if beta_star <= 0:
                continue
            pa = dist.cdf(beta_star)
            if pa <= 0.5 + 1e-6 or pa >= 1.0 - 1e-12:
                continue
            cert = certify_rayleigh_closed_form(pa)
            for gamma in np.linspace(cert.gamma1, cert.gamma2, 102)[1:-1]:
                assert dist.cdf(beta_star / gamma) > 0.5
