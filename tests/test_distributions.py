import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from smoothcert import (
    Kind,
    RayleighParams,
    SeededSampler,
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

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
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
    assert dist.cdf(1.0) == limit
    assert dist.cdf(np.array([0.5, 2.0])).tolist() == [limit, limit]
