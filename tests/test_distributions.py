import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from smoothcert import (
    Kind,
    RayleighParams,
    SeededSampler,
    SmoothingDistribution,
    inverse_rayleigh,
    log_gaussian,
    log_laplace,
    log_uniform,
    rayleigh,
)

UNIT_MEDIAN = RayleighParams.unit_median()
RAYLEIGH = rayleigh(UNIT_MEDIAN)
INVERSE_RAYLEIGH = inverse_rayleigh(UNIT_MEDIAN)

ALL_KINDS = [
    rayleigh(),
    inverse_rayleigh(),
    log_gaussian(0.7),
    log_laplace(0.5),
    log_uniform(1.3),
]


class TestRayleighParams:
    def test_unit_median_constant(self):
        # median = sigma * sqrt(2 ln 2) = 1
        assert abs(UNIT_MEDIAN.sigma - math.sqrt(1.0 / (2.0 * math.log(2.0)))) < 1e-12

    def test_unit_mean_constant(self):
        # mean = sigma * sqrt(pi / 2) = 1
        assert abs(RayleighParams.unit_mean().sigma - math.sqrt(2.0) / math.sqrt(math.pi)) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError):
            RayleighParams(bad)

    def test_scale_for_targets(self):
        assert abs(RayleighParams.unit_median().sigma - 0.84932) < 1e-4
        assert abs(RayleighParams.unit_mean().sigma - 0.79788) < 1e-4

    def test_unit_median_roundtrip(self):
        assert abs(rayleigh(RayleighParams.unit_median()).quantile(0.5) - 1.0) < 1e-12


class TestRayleighCdfQuantile:
    def test_cdf_support_edge(self):
        assert RAYLEIGH.cdf(0.0) == 0.0

    def test_cdf_unit_median(self):
        assert abs(RAYLEIGH.cdf(1.0) - 0.5) < 1e-15

    def test_cdf_exponent_identity(self):
        # 1 - e^{-4 ln 2} = 1 - 1/16
        assert abs(RAYLEIGH.cdf(2.0) - 0.9375) < 1e-15

    def test_cdf_zero_below_support(self):
        assert RAYLEIGH.cdf(-0.1) == 0.0

    def test_quantile_examples(self):
        assert abs(RAYLEIGH.quantile(0.5) - 1.0) < 1e-12
        assert RAYLEIGH.quantile(0.0) == 0.0
        assert abs(RAYLEIGH.quantile(0.9375) - 2.0) < 1e-12

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_quantile_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            RAYLEIGH.quantile(bad)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-12))
    def test_quantile_inverts_cdf(self, p):
        assert abs(RAYLEIGH.cdf(RAYLEIGH.quantile(p)) - p) < 1e-9


class TestInverseRayleigh:
    def test_unit_median_reciprocal(self):
        assert abs(INVERSE_RAYLEIGH.cdf(1.0) - 0.5) < 1e-15

    def test_upper_limit(self):
        assert abs(INVERSE_RAYLEIGH.cdf(1e12) - 1.0) < 1e-9

    def test_exponent_identity(self):
        # exp(-4 ln 2) = 1/16
        assert abs(INVERSE_RAYLEIGH.cdf(0.5) - 0.0625) < 1e-15

    @pytest.mark.parametrize("z", [0.0, -2.0])
    def test_cdf_zero_off_support(self, z):
        assert INVERSE_RAYLEIGH.cdf(z) == 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_reciprocal_identity(self, z):
        lhs = INVERSE_RAYLEIGH.cdf(z)
        rhs = 1.0 - RAYLEIGH.cdf(1.0 / z)
        assert abs(lhs - rhs) < 1e-12


class TestSmoothingDistribution:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_scale(self, kind, bad):
        with pytest.raises(ValueError, match="scale must be a positive finite real"):
            SmoothingDistribution(kind, bad)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind.value)
    def test_cdf_monotone_and_normalized(self, dist):
        z = np.geomspace(1e-4, 1e3, 200)
        values = dist.cdf(z)
        assert np.all(np.diff(values) >= 0)
        assert dist.cdf(1e-12) < 1e-6
        assert dist.cdf(1e9) > 1.0 - 1e-6

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind.value)
    def test_quantile_inverts_cdf(self, dist):
        for p in np.linspace(0.01, 0.99, 25):
            z = dist.quantile(p)
            assert abs(dist.cdf(z) - p) < 1e-9

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind.value)
    def test_ks_statistic_below_one_percent(self, dist):
        draws = dist.sample(SeededSampler(42), 100_000)
        assert np.all(draws > 0)
        result = kstest(draws, dist.cdf)
        assert result.statistic < 0.01

    @pytest.mark.parametrize(
        "dist", [log_gaussian(0.8), log_laplace(0.6), log_uniform(1.1)], ids=lambda d: d.kind.value
    )
    def test_log_kind_cdf_matches_integration_oracle(self, dist):
        from scipy.stats import laplace, norm, uniform

        additive = {
            Kind.LOG_GAUSSIAN: norm(scale=dist.scale).cdf,
            Kind.LOG_LAPLACE: laplace(scale=dist.scale).cdf,
            Kind.LOG_UNIFORM: uniform(loc=-dist.scale, scale=2 * dist.scale).cdf,
        }[dist.kind]
        # the log-space CDF is the additive law's CDF at ln(z)
        for z in np.geomspace(0.15, 6.0, 20):
            assert abs(dist.cdf(z) - float(additive(math.log(z)))) < 1e-12


class TestSampling:
    def test_median_of_a_million_draws(self):
        draws = rayleigh().sample(SeededSampler(7), 1_000_000)
        assert abs(np.median(draws) - 1.0) < 0.005

    def test_log_uniform_support_bound(self):
        lam = 1.7
        draws = log_uniform(lam).sample(SeededSampler(3), 50_000)
        assert draws.min() >= math.exp(-lam) - 1e-12
        assert draws.max() <= math.exp(lam) + 1e-12

    def test_partitioned_draws_are_identical(self):
        dist = rayleigh()
        sampler = SeededSampler(99, stream_index=5)
        full = dist.sample(sampler, 10_000)
        quarters = [dist.sample(sampler, 2_500, start=i * 2_500) for i in range(4)]
        assert np.array_equal(full, np.concatenate(quarters))

    def test_streams_are_independent(self):
        dist = rayleigh()
        a = dist.sample(SeededSampler(1, 0), 100)
        b = dist.sample(SeededSampler(1, 1), 100)
        assert not np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            rayleigh().sample(SeededSampler(1), 0)

    @pytest.mark.parametrize(
        "law",
        [
            rayleigh(RayleighParams(5e-324)),
            inverse_rayleigh(RayleighParams(1e308)),
            log_gaussian(400.0),
            log_laplace(100.0),
            log_uniform(1000.0),
        ],
        ids=lambda law: law.descriptor,
    )
    def test_draws_that_underflow_become_the_least_positive_double(self, law):
        sampler = SeededSampler(0)
        images = law.quantile(sampler.uniforms(100_000))
        assert (images == 0.0).any()  # at this scale some inverse-CDF images underflow
        draws = law.sample(sampler, 100_000)
        assert np.array_equal(draws, np.where(images > 0.0, images, math.ulp(0.0)))


# sha256 of the raw float64 bytes of SeededSampler(seed, stream).uniforms(count,
# start), recorded with numpy 2.4; any change to the stream must keep every bit.
# Starts 5, 4094 and 6 are not multiples of the 4-word Philox block; the
# counts of 2**17 + 3 are large enough to be filled in parallel chunks.
GOLDEN_UNIFORMS = [
    (0, 0, 1000, 0, "3606d59a0dcf7955d9a5b4fbbe4c12912bfd43dfbb4ab1a976d014f20e02b8c9"),
    (7, 3, 333, 5, "1f1b71eee1df518a0b7b8fbded3d6d83c0cef3e5cdd6f9d51cc2a7804408d570"),
    (2**64 - 1, 12, 17, 4094, "340578059f72b1158587cd3e2ffc57d760a5b0c88aa50705c893fe4c9eb14801"),
    (123, 0, 1, 6, "370d7f7b91168bd0ef4ed6095bd51e89cc14e21e7c93cbd5fc0c17c34766df24"),
    (42, 1, 2**17 + 3, 0, "49362453ed10bad57bb68ff5f746f5628c664490e3da3070dbd9b36f0f67f2a5"),
    (42, 1, 2**17 + 3, 5, "f9cc82627f5a8db7578fa659c979be94cd5ea5d8a245e9d783c54c87d8e77de7"),
    (42, 1, 2**17 + 3, 2**40 + 7, "5ae0ae79872abbc2b3667bacc314180a25c0cca4afa85c3c4056e66366fa7fc4"),
]


@pytest.mark.parametrize("seed, stream, count, start, digest", GOLDEN_UNIFORMS)
def test_uniforms_are_golden(seed, stream, count, start, digest):
    u = SeededSampler(seed, stream).uniforms(count, start)
    assert u.shape == (count,) and u.dtype == np.float64
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


@settings(max_examples=30)
@given(
    st.sampled_from(["rayleigh", "inverse", "log_gaussian", "log_laplace", "log_uniform"]),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_quantile_cdf_roundtrip_all_kinds(name, p):
    dist = {
        "rayleigh": rayleigh(),
        "inverse": inverse_rayleigh(),
        "log_gaussian": log_gaussian(0.9),
        "log_laplace": log_laplace(1.2),
        "log_uniform": log_uniform(0.8),
    }[name]
    assert abs(dist.cdf(dist.quantile(p)) - p) < 1e-9


@pytest.mark.parametrize("sigma", [1.35e154, 1e200, 1e308])
@pytest.mark.parametrize("factory, limit", [(rayleigh, 0.0), (inverse_rayleigh, 1.0)], ids=["rayleigh", "inverse"])
def test_cdf_takes_its_limit_where_sigma_squared_overflows(factory, limit, sigma):
    # 2 sigma**2 is inf, so P(Z <= 1) is 0 for Rayleigh and 1 for the inverse law
    dist = factory(RayleighParams(sigma))
    expected = [limit, limit, limit]
    if factory is rayleigh and sigma == 1.35e154:
        # (z / sigma)**2 is still a subnormal above 0 here, so the CDF is that tiny exact value
        expected = [-math.expm1(-0.5 * (z / sigma) ** 2) for z in (1.0, 0.5, 2.0)]
    assert dist.cdf(1.0) == expected[0]
    assert dist.cdf(np.array([0.5, 2.0])).tolist() == expected[1:]


# sha256 of the raw float64 bytes of quantile(p) over SeededSampler(5, 3).uniforms(10**5)
# followed by p in {2**-64, 1e-300, 0.5, 1 - 2**-53}; a scale of None is the law's default.
# Any rewrite of quantile must keep every bit of every draw.
GOLDEN_QUANTILES = [
    ("rayleigh", None, "25c37df0bad29c55cf491ba402f55788c5829a75b82775a96db54139edad0bda"),
    ("rayleigh", 0.5, "c22224d91fe13f88c08e25993c806cc72d392137877f716bdaf10ed167ff5695"),
    ("rayleigh", 2.0, "2196c26b71959e8abacca9399d9e541aa15abace033d03162bb431148f913dff"),
    ("inverse-rayleigh", None, "156203d8e903d097af62995db81e3f06a841b2aa93c90ab74a97b9cbfa73cdbb"),
    ("inverse-rayleigh", 0.5, "23c594e4d81f7b4ad206e44bfbd4690a98e2108a0885e32f4369ce65721f1137"),
    ("inverse-rayleigh", 2.0, "20fa0b91f8bf113e1657688b1adc2555683098c03e040aae42c46fe7d5b64b7d"),
    ("log-gaussian", None, "f6e4f8d11c2d3a7d873a519e087414f4d6115552a9b5b0d282ac93464467b6b7"),
    ("log-gaussian", 0.5, "df85854e8ebfaa4360c26cb62cf0e4cabfea5c2995e6ec981cc21409babe8ac7"),
    ("log-gaussian", 2.0, "ee549bb51049d2d8a83bf9539c04631f25dca9824ce16a49b0f2e2510adf420a"),
    ("log-laplace", None, "5cf180be2684f28ec06c17db113a4bb6f02f1f43716a34ee9e3e7a1bcedab2cd"),
    ("log-laplace", 0.5, "99d547bde7cfda7ef9045d617673fa72d2954730fd3265cbc65e27f6f07ffbe3"),
    ("log-laplace", 2.0, "a306fbfe7691d301957345b3ff4c123edf01eb37dcf32ee32b4367f05e825304"),
    ("log-uniform", None, "5e0cf48a2151e8ea5a1fb8484aa40c602954014f25e837c290a66697a7f956c1"),
    ("log-uniform", 0.5, "458cfc06c57ca0bf783fa9b6a10222b937a89fd67de29c822aa0bbde650bb990"),
    ("log-uniform", 2.0, "95fe8b40f02fee214fb4eeffe89c0c79184de4ba88325a4f201e483ce91b365b"),
]

LAWS = {
    "rayleigh": lambda scale: rayleigh(scale and RayleighParams(scale)),
    "inverse-rayleigh": lambda scale: inverse_rayleigh(scale and RayleighParams(scale)),
    "log-gaussian": lambda scale: log_gaussian(scale or 1.0),
    "log-laplace": lambda scale: log_laplace(scale or 1.0),
    "log-uniform": lambda scale: log_uniform(scale or 1.0),
}


@pytest.mark.parametrize("name, scale, digest", GOLDEN_QUANTILES)
def test_quantile_draws_are_golden(name, scale, digest):
    p = np.concatenate([SeededSampler(5, 3).uniforms(10**5), [2.0**-64, 1e-300, 0.5, 1.0 - 2.0**-53]])
    z = LAWS[name](scale).quantile(p)
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


TOTALITY_Z = [-1.0, 0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, math.inf]
TOTALITY_P = [0.0, 2.0**-64, 0.5, 1.0 - 2.0**-53]


@pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e300])
@pytest.mark.parametrize("name", list(LAWS))
def test_cdf_and_quantile_are_total_at_any_scale(name, scale):
    # the ends of the support and every valid scale give a value or limit, silently
    dist = LAWS[name](scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = dist.cdf(np.array(TOTALITY_Z))
        singles = [dist.cdf(z) for z in TOTALITY_Z]
        quantiles = dist.quantile(np.array(TOTALITY_P))
        lowest = dist.quantile(0.0)
    assert values.tolist() == singles
    assert not np.any(np.isnan(values))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= 0.0)
    assert not np.any(np.isnan(quantiles))
    assert np.all(np.diff(quantiles) >= 0.0)
    assert lowest == (math.exp(-scale) if dist.kind is Kind.LOG_UNIFORM else 0.0)
