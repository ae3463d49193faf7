import hashlib
import math
import re
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import bdtrc
from scipy.stats import binom

from smoothcert import (
    Abstain,
    ConstantClassifier,
    ErrorBudget,
    RayleighParams,
    RealisticConfig,
    SampleCounts,
    Side,
    SmoothingConfig,
    ThresholdOracle,
    certify_for,
    certify_rayleigh,
    certify_realistic,
    clopper_pearson,
    conversion_error,
    error_budget,
    estimate_conversion_error,
    inverse_rayleigh,
    load_classifier,
    log_gaussian,
    quantile_upper_confidence,
    rayleigh,
    read_tensor,
    smoothed_predict_certify,
)
from smoothcert import realistic, rng, runtime
from smoothcert.realistic import (
    _adjust_probabilities,
    _gaussian_l2_radius,
    _min_samples_for_quantile_bound,
    _noisy_rows,
)
from smoothcert.rng import _SPLIT_MIN, SeededSampler
from smoothcert.rng import _split as rng_split
from smoothcert.runtime import BaseClassifier, PredictionResult
from test_cli_golden import SIGMAS_GAUSS, _workspace

GAMMA_INTERVAL = (0.71, 1.33)


def make_budget(E=0.0, q_E=0.9, alpha_E=0.01, alpha=0.001, interval=GAMMA_INTERVAL) -> ErrorBudget:
    return ErrorBudget.for_alpha(E=E, q_E=q_E, alpha_E=alpha_E, alpha=alpha, gamma_interval=interval)


class TestErrorBudget:
    def test_reference_arithmetic(self):
        assert abs(error_budget(0.001, 0.9, 0.01) - 0.111) < 1e-12

    def test_zero_limit(self):
        assert error_budget(0.0, 1.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert abs(error_budget(0.01, 0.9, 0.01) - 0.12) < 1e-12

    @pytest.mark.parametrize(
        "name, args", [("alpha", (-0.1, 0.9, 0.01)), ("q_E", (0.01, 1.5, 0.01)), ("alpha_E", (0.01, 0.9, math.nan))]
    )
    def test_components_must_lie_in_the_unit_interval(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            error_budget(*args)

    def test_feasibility_flag(self):
        assert make_budget().feasible
        assert not make_budget(q_E=0.55, alpha_E=0.2, alpha=0.1).feasible

    def test_interval_must_straddle_one(self):
        with pytest.raises(ValueError):
            make_budget(interval=(1.1, 1.5))
        with pytest.raises(ValueError):
            make_budget(interval=(0.9, 0.8))
        with pytest.raises(ValueError, match="gamma_interval must straddle 1"):
            make_budget(interval=(0.5, math.inf))

    def test_json_roundtrip(self, tmp_path):
        budget = make_budget(E=0.22)
        (tmp_path / "b.json").write_text(__import__("json").dumps(budget.to_json()))
        assert ErrorBudget.load(tmp_path / "b.json") == budget


class TestAdjustProbabilities:
    def test_reference_shift(self):
        bounds = _adjust_probabilities(0.8, 0.2, 0.111)
        assert abs(bounds.pa_lower - 0.689) < 1e-12
        assert abs(bounds.pb_upper - 0.311) < 1e-12

    def test_crossing_abstains(self):
        # 0.489 versus 0.511: under the trivial runner-up bound pb = 1 - pa,
        # shifted bounds cross only where pa - rho <= 1/2 already abstains
        assert isinstance(_adjust_probabilities(0.6, 0.4, 0.111), Abstain)

    def test_zero_shift_is_identity(self):
        bounds = _adjust_probabilities(0.8, 0.2, 0.0)
        assert (bounds.pa_lower, bounds.pb_upper) == (0.8, 0.2)

    def test_below_half_abstains(self):
        assert isinstance(_adjust_probabilities(0.55, 0.1, 0.1), Abstain)


class TestGaussianRadius:
    def test_vanishing_margin(self):
        radius = _gaussian_l2_radius(0.5 + 1e-12, 0.25)
        assert 0.0 <= radius < 1e-9

    def test_erf_reference_points(self):
        assert abs(_gaussian_l2_radius(0.93319, 0.25) - 0.375) < 1e-4
        assert abs(_gaussian_l2_radius(0.97725, 0.25) - 0.5) < 1e-4

    def test_below_half_abstains(self):
        assert isinstance(_gaussian_l2_radius(0.4, 0.25), Abstain)


class TestQuantileUpperConfidence:
    def test_minimum_sample_count(self):
        assert _min_samples_for_quantile_bound(0.9, 0.01) == 44
        for q, alpha, message in [
            (0.0, 0.01, "q_E must lie in (0, 1), got 0.0"),
            (1.0, 0.01, "q_E must lie in (0, 1), got 1.0"),
            (0.9, 0.0, "alpha_E must lie in (0, 1), got 0.0"),
            (0.9, 1.0, "alpha_E must lie in (0, 1), got 1.0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                _min_samples_for_quantile_bound(q, alpha)

    @pytest.mark.parametrize("q, alpha, count", [(0.1, 0.01, 3), (0.1, 0.001, 4), (0.2, 0.04, 3), (0.5, 0.1, 4)])
    def test_minimum_count_is_where_the_largest_sample_first_qualifies(self, q, alpha, count):
        # q**m sits on alpha at the float estimate m = ln(alpha) / ln(q) here;
        # the count is the least m whose tail P(Bin(m, q) >= m) is at most alpha
        assert _min_samples_for_quantile_bound(q, alpha) == count
        assert bdtrc(count - 1, count, q) <= alpha < bdtrc(count - 2, count - 1, q)
        assert quantile_upper_confidence(np.arange(1.0, count + 1), q, alpha) == count
        with pytest.raises(ValueError, match=f"need >= {count}"):
            quantile_upper_confidence(np.arange(1.0, count), q, alpha)

    def test_minimum_count_matches_a_linear_search(self):
        # the float estimate ln(alpha) / ln(q) is one too high at (0.01, 1e-8) and one too low at (0.2, 0.0016)
        alphas = (1e-4, 0.001, 0.01, 0.04, 0.05, 0.1, 0.25, 0.5)
        grid = [(q, alpha) for q in np.linspace(0.05, 0.95, 19) for alpha in alphas]
        for q, alpha in grid + [(0.01, 1e-8), (0.2, 0.0016)]:
            m = 1
            while bdtrc(m - 1, m, q) > alpha:
                m += 1
            assert _min_samples_for_quantile_bound(q, alpha) == m, (q, alpha)

    @pytest.mark.parametrize(
        "samples, message",
        [
            (np.full(44, np.nan), "samples must not be NaN, got 44 NaN of 44"),
            (np.r_[np.linspace(0.0, 1.0, 43), np.nan], "samples must not be NaN, got 1 NaN of 44"),
            (np.zeros((44, 2)), "samples must be a 1-D array, got shape (44, 2)"),
            (np.zeros((1, 44)), "samples must be a 1-D array, got shape (1, 44)"),
        ],
        ids=["all-nan", "one-nan", "columns", "one-row"],
    )
    def test_samples_that_are_not_one_row_of_numbers_are_rejected(self, samples, message):
        # a NaN sample made the bound NaN, and a 2-D array raised IndexError
        with pytest.raises(ValueError, match=re.escape(message)):
            quantile_upper_confidence(samples, 0.9, 0.01)

    def test_infinite_samples_give_an_infinite_bound(self):
        assert quantile_upper_confidence(np.full(44, np.inf), 0.9, 0.01) == math.inf

    def test_insufficient_samples_error_names_the_count(self):
        with pytest.raises(ValueError, match="need >= 44"):
            quantile_upper_confidence(np.linspace(0, 1, 20), 0.9, 0.01)

    def test_bound_is_an_order_statistic_above_the_empirical_quantile(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 1.0, size=100)
        bound = quantile_upper_confidence(samples, 0.9, 0.05)
        assert bound in samples
        assert bound >= np.quantile(samples, 0.9, method="inverted_cdf")

    def test_coverage_on_uniform_law(self):
        # true 0.9-quantile of U[0, c] is 0.9 c; coverage must hit 1 - alpha_E
        rng = np.random.default_rng(18)
        c, q, alpha_e, trials = 2.5, 0.9, 0.05, 500
        covered = sum(
            quantile_upper_confidence(rng.uniform(0.0, c, size=35), q, alpha_e) >= q * c
            for _ in range(trials)
        )
        assert covered >= math.ceil((1.0 - alpha_e) * trials)


    def test_order_statistic_index_matches_binomial_survival(self):
        # the selected index is the smallest k with P(Bin(m, q) >= k) <= alpha,
        # the same as scipy.stats' survival function picks
        for q in (0.5, 0.75, 0.9, 0.95, 0.99):
            for alpha in (1e-4, 1e-3, 0.01, 0.05, 0.2):
                needed = _min_samples_for_quantile_bound(q, alpha)
                for m in sorted({needed, needed + 1, needed + 7, 2 * needed, 257, 1000, 5000}):
                    if m < needed:
                        continue
                    k = int(np.argmax(binom.sf(np.arange(m), m, q) <= alpha)) + 1
                    samples = np.arange(m, dtype=float)
                    assert quantile_upper_confidence(samples, q, alpha) == k - 1


class TestEstimateConversionError:
    def test_binary_dataset_gives_zero(self):
        dataset = [np.array([0.0, 1.0, 1.0]) for _ in range(30)]
        E = estimate_conversion_error(dataset, GAMMA_INTERVAL, q_E=0.9, alpha_E=0.05, seed=4)
        assert E == 0.0

    def test_nested_intervals_give_nested_bounds(self):
        rng = np.random.default_rng(9)
        dataset = [rng.uniform(0.0, 1.0, size=12) for _ in range(30)]
        inner = estimate_conversion_error(dataset, (0.86, 1.15), q_E=0.9, alpha_E=0.05, seed=4)
        outer = estimate_conversion_error(dataset, (0.71, 1.33), q_E=0.9, alpha_E=0.05, seed=4)
        assert 0.0 < inner <= outer

    def test_requires_enough_tensors(self):
        with pytest.raises(ValueError, match="need >= 44"):
            estimate_conversion_error(
                [np.array([0.5])] * 10, GAMMA_INTERVAL, q_E=0.9, alpha_E=0.01, seed=1
            )
        with pytest.raises(ValueError, match="need >= 44 .* got 0"):
            estimate_conversion_error([], GAMMA_INTERVAL, q_E=0.9, alpha_E=0.01, seed=1)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            estimate_conversion_error([np.array([0.5])] * 50, (1.2, 0.8), 0.9, 0.05)
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            estimate_conversion_error([np.array([0.5])] * 50, GAMMA_INTERVAL, 0.9, 0.05, grid_points=1)
        for interval in ((1.1, 1.3), (0.8, 0.95)):  # the attack interval of any budget straddles 1
            with pytest.raises(ValueError, match="gamma interval must straddle 1"):
                estimate_conversion_error([np.array([0.5])] * 50, interval, 0.9, 0.05)

    def test_factor_draws_that_underflow_to_zero_are_taken(self):
        law = inverse_rayleigh(RayleighParams(1e308))
        assert (law.quantile(SeededSampler(0).uniforms(44)) == 0.0).any()
        dataset = [np.array([0.5, 0.2])] * 44
        assert 0.0 <= estimate_conversion_error(dataset, GAMMA_INTERVAL, 0.9, 0.01, seed=0, dist=law) < math.inf

    def test_interval_end_must_be_finite(self):
        with pytest.raises(ValueError, match="gamma interval"):
            estimate_conversion_error([np.array([0.5])] * 50, (0.9, math.inf), 0.9, 0.05)

    def test_memory_is_flat_in_the_grid(self):
        # E recorded when each tensor's whole grid was one array; one
        # image-sized buffer a factor leaves only the O(grid) factor and norm
        # vectors, a few dozen bytes per grid point instead of one image each
        tensors = list(np.random.default_rng(8).random((30, 3, 16, 16)))
        peaks = {}
        for grid_points, E in {64: 0.5555546696332037, 512: 0.5589558310807705}.items():
            tracemalloc.start()
            try:
                assert estimate_conversion_error(tensors, (0.8, 1.25), 0.9, 0.05, grid_points, seed=3) == E
                peaks[grid_points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[512] - peaks[64]) / (512 - 64) < 24

    def test_per_input_guarantee_via_repetition(self):
        # same tensor repeated: the bound then holds over factor draws alone
        x = np.array([0.3, 0.62, 0.85])
        E = estimate_conversion_error([x] * 40, GAMMA_INTERVAL, q_E=0.9, alpha_E=0.05, seed=2)
        assert E > 0.0
        assert E <= np.sqrt(x.size)


@pytest.mark.parametrize("interval, seed", [((0.71, 1.33), 3), ((0.5, 2.0), 4), ((0.93, 1.07), 5)])
def test_vectorised_grid_matches_scalar_path(interval, seed):
    # one conversion_error call per tensor must reproduce every one of the
    # 44 x 64 per-point errors, their maxima and E
    rng = np.random.default_rng(seed)
    tensors = [rng.uniform(0.0, 1.0, (3, 32, 32)) for _ in range(44)]
    grid = np.linspace(*interval, 64)
    betas = rayleigh().sample(SeededSampler(seed), len(tensors))
    maxima = []
    for x, beta in zip(tensors, betas):
        scalar = [float(conversion_error(x, float(beta), [g])[0]) for g in grid]
        vector = conversion_error(x, float(beta), grid)
        assert vector.tolist() == scalar
        maxima.append(max(scalar))
    expected = quantile_upper_confidence(maxima, 0.9, 0.01)
    assert estimate_conversion_error(tensors, interval, 0.9, 0.01, 64, seed=seed) == expected


def gaussian_noise(sampler, count, shape, sigma, start=0):
    """``count`` draws of N(0, sigma^2) noise of ``shape`` from draw index ``start`` on."""
    out = np.empty((count,) + shape)
    _noisy_rows(sampler, start, sigma, out, np.zeros(shape))
    return out


@pytest.mark.parametrize(
    "seed, stream, count, shape, sigma, digest",
    [
        (5, 2, 4, (3, 8, 8), 0.25, "bcc7d8553e4e0b154d385e8695d2d81f242d5ee957c16d7b2ca1248b9f9a160c"),
        (9, 7, 3, (1, 5, 7), 0.5, "302595a68a503be7fa226a305a55d8bfc18efd680b29e6ab94fc5c3c11d28c50"),
        (8, 3, 50, (3, 32, 32), 4.0, "9cf5a4c7092ebdebfe79587514eb2a1fd5020454047cc13038335f1d53e264ba"),
    ],
)
def test_gaussian_noise_is_golden(seed, stream, count, shape, sigma, digest):
    # sha256 of the raw float64 bytes, recorded with numpy 2.4 / scipy 1.17;
    # any change to the noise arithmetic must keep every bit.
    noise = gaussian_noise(SeededSampler(seed, stream), count, shape, sigma)
    assert hashlib.sha256(noise.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("count", [_SPLIT_MIN // 105, _SPLIT_MIN // 105 + 1])
def test_gaussian_noise_does_not_depend_on_core_count(monkeypatch, count):
    # 105 values per draw: the two counts sit just below and just above the
    # size at which the noise transform is split across cores.
    shape = (3, 5, 7)
    sampler = SeededSampler(4, 9)
    reference = gaussian_noise(sampler, count, shape, 0.75).tobytes()
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(rng, "_usable_cores", lambda cores=cores: cores)
        out = np.empty((count,) + shape)
        rng_split(lambda lo, hi: _noisy_rows(sampler, lo, 0.75, out[lo:hi], np.zeros(shape)), count, math.prod(shape))
        assert out.tobytes() == reference


def test_gaussian_noise_from_a_start_index_continues_the_stream():
    sampler, shape = SeededSampler(6, 4), (2, 3, 5)
    whole = gaussian_noise(sampler, 9, shape, 0.5)
    parts = [gaussian_noise(sampler, hi - lo, shape, 0.5, lo) for lo, hi in ((0, 2), (2, 7), (7, 9))]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("start, count", [(0, 4), (1, 3), (3, 5), (6, 1)])
def test_noisy_rows_equal_noise_plus_the_image(start, count):
    # 35 doubles a row: most rows start inside a Philox block
    shape = (1, 5, 7)
    sampler = SeededSampler(3, 2)
    image = np.random.default_rng(0).uniform(0.0, 1.0, shape)
    rows = np.empty((count,) + shape)
    _noisy_rows(sampler, start, 0.5, rows, image)
    expected = gaussian_noise(sampler, count, shape, 0.5, start) + image
    for row, want in zip(rows, expected, strict=True):
        assert row.tobytes() == want.tobytes()


def _golden_realistic(tmp_path, sigma):
    ws = _workspace(tmp_path)
    base, x = load_classifier(ws / "linear.json"), read_tensor(ws / "image.mst1")
    cfg = RealisticConfig.load(ws / f"realistic-sigma{sigma:g}.json")
    return base, x, cfg, ErrorBudget.load(ws / "budget.json")


class BrightnessLabels(BaseClassifier):
    """Labels a row 2**62 - 1 when more than ``cut`` of its values exceed 1/2, else 2**40, and 0 when its first value exceeds 2.5.

    The counts are exact integers, so a row's label does not depend on the batch it comes in.
    """

    descriptor = "brightness"

    def __init__(self, cut: int):
        self.cut = cut

    def labels(self, batch):
        flat = batch.reshape(len(batch), -1)
        bright = np.where(np.count_nonzero(flat > 0.5, axis=1) > self.cut, 2**62 - 1, 2**40)
        return np.where(flat[:, 0] > 2.5, 0, bright)


@pytest.mark.parametrize("sigma", SIGMAS_GAUSS)
def test_realistic_result_does_not_depend_on_the_chunking(monkeypatch, tmp_path, sigma):
    base, x, cfg, budget = _golden_realistic(tmp_path, sigma)
    reference = certify_realistic(base, x, cfg, budget)
    assert reference.counts.successes > 0  # some inner votes are robust
    bright = BrightnessLabels(388)
    tops, top = [], runtime._top
    with monkeypatch.context() as patched:
        for module in (runtime, realistic):
            patched.setattr(module, "_top", lambda tally: tops.append(dict(tally)) or top(tally))
        bright_reference = certify_realistic(bright, x, cfg, budget)
    if sigma == 1.0:  # label 0 shows in inner tallies, and the outer votes tie
        assert any(0 in tally for tally in tops[: cfg.n_gamma])
        assert tops[-1] == {2**40: 5, 2**62 - 1: 5} and bright_reference.counts.successes == 5
    # caps that cut factor draws mid-way, or leave the core count to decide
    n_eps = cfg.n_eps
    caps = (x.size, 7 * x.size, (n_eps - 1) * x.size, (2 * n_eps + 1) * x.size, 1000 * x.size, 2**40)
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(rng, "_usable_cores", lambda cores=cores: cores)
        for cap in caps:
            monkeypatch.setattr(runtime, "_TALLY_CAP", cap)
            assert certify_realistic(base, x, cfg, budget) == reference, (cores, cap)
            assert certify_realistic(bright, x, cfg, budget) == bright_reference, (cores, cap)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_realistic_request_splits_once_per_group_of_factor_draws(monkeypatch, tmp_path, cores):
    # one split builds each group of draws, one scores it, and one fills
    # the chunk's factor draws
    base, x, cfg, budget = _golden_realistic(tmp_path, 1.0)
    monkeypatch.setattr(rng, "_usable_cores", lambda: cores)
    calls = []

    def counting(kernel, size, width=1):
        calls.append(size)
        rng_split(kernel, size, width)

    for module in (rng, runtime, realistic):
        monkeypatch.setattr(module, "_split", counting)
    certify_realistic(base, x, cfg, budget)
    assert len(calls) == 3 * math.ceil(cfg.n_gamma / cores)


def test_instrumented_calls_stay_on_the_calling_thread(monkeypatch, tmp_path):
    # perfbench wraps these names with a span tracer whose stack is not
    # thread-safe; the split kernels must never call them from a pool worker.
    base, x, cfg, budget = _golden_realistic(tmp_path, 1.0)
    monkeypatch.setattr(rng, "_usable_cores", lambda: 2)
    seen = []

    def recording(name, fn):
        def call(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return call

    class RecordingClassifier(BaseClassifier):
        labels = staticmethod(recording("labels", base.labels))
        descriptor = "recording"

    monkeypatch.setattr(SeededSampler, "uniforms", recording("uniforms", SeededSampler.uniforms))
    monkeypatch.setattr(realistic, "gamma_correct", recording("gamma_correct", realistic.gamma_correct))
    assert certify_realistic(RecordingClassifier(), x, cfg, budget) == certify_realistic(base, x, cfg, budget)
    assert {name for name, _ in seen} == {"labels", "uniforms", "gamma_correct"}
    assert {ident for _, ident in seen} == {threading.get_ident()}


class CountingLabels(BaseClassifier):
    """Delegates to a base classifier and counts the rows it labels."""

    descriptor = "counting"

    def __init__(self, base):
        self.base = base
        self.rows = 0

    def labels(self, batch):
        self.rows += len(batch)
        return self.base.labels(batch)


class TestCertifyRealistic:
    def test_constant_base_matches_shifted_idealized_certificate(self):
        cfg = RealisticConfig(n_eps=50, n_gamma=200, sigma_gauss=0.25, alpha=0.001, seed=6)
        budget = make_budget(E=0.0)
        result = certify_realistic(ConstantClassifier(1), np.array([0.5]), cfg, budget)
        assert result.label == 1
        assert result.counts == SampleCounts(200, 200)
        pa = clopper_pearson(SampleCounts(200, 200), cfg.alpha, Side.LOWER)
        adjusted = _adjust_probabilities(pa, 1.0 - pa, budget.rho)
        expected = certify_rayleigh(adjusted).clipped(*GAMMA_INTERVAL)
        assert abs(result.certificate.gamma1 - expected.gamma1) < 1e-12
        assert abs(result.certificate.gamma2 - expected.gamma2) < 1e-12

    @pytest.mark.parametrize("law", [inverse_rayleigh(), log_gaussian(0.5)], ids=["inverse-rayleigh", "log-gaussian"])
    def test_any_factor_law_gets_its_own_rule(self, law):
        cfg = RealisticConfig(n_eps=50, n_gamma=200, sigma_gauss=0.25, alpha=0.001, seed=6)
        budget = make_budget(E=0.0)
        result = certify_realistic(ConstantClassifier(1), np.array([0.5]), cfg, budget, dist=law)
        assert result.label == 1 and result.adjusted is not None
        assert result.certificate == certify_for(law, result.adjusted).clipped(*budget.gamma_interval)

    def test_factor_draws_that_underflow_to_zero_are_smoothed(self):
        # 1 / (1e308 * sqrt(-2 ln u)) rounds to 0 wherever the square root exceeds about 1.8
        law = inverse_rayleigh(RayleighParams(1e308))
        cfg = RealisticConfig(n_eps=50, n_gamma=200, sigma_gauss=0.25, alpha=0.001, seed=6)
        result = certify_realistic(ConstantClassifier(1), np.array([0.5]), cfg, make_budget(E=0.0), dist=law)
        assert result.label == 1 and result.counts == SampleCounts(200, 200)

    def test_certificate_is_clipped_to_the_attack_interval(self):
        cfg = RealisticConfig(n_eps=50, n_gamma=300, sigma_gauss=0.25, alpha=0.001, seed=6)
        tight = make_budget(E=0.0, interval=(0.95, 1.05))
        result = certify_realistic(ConstantClassifier(0), np.array([0.5]), cfg, tight)
        assert result.certificate.gamma1 >= 0.95
        assert result.certificate.gamma2 <= 1.05

    def test_infeasible_budget_always_abstains(self):
        cfg = RealisticConfig(n_eps=50, n_gamma=50, sigma_gauss=0.25, alpha=0.1, seed=1)
        budget = make_budget(q_E=0.55, alpha_E=0.2, alpha=0.1)
        result = certify_realistic(ConstantClassifier(0), np.array([0.5]), cfg, budget)
        assert result.abstained
        assert "rho" in result.reason
        assert result.counts is None and result.adjusted is None

    def test_budget_alpha_consistency_enforced(self):
        cfg = RealisticConfig(n_eps=50, n_gamma=50, sigma_gauss=0.25, alpha=0.01, seed=1)
        with pytest.raises(ValueError, match="rho"):
            certify_realistic(ConstantClassifier(0), np.array([0.5]), cfg, make_budget(alpha=0.001))

    def test_larger_budget_never_widens_the_certificate(self):
        x = np.array([0.9])
        base = ThresholdOracle(0.9, 0.1)
        small = make_budget(E=0.0, q_E=0.99)
        large = make_budget(E=0.0, q_E=0.9)
        cfg = RealisticConfig(n_eps=100, n_gamma=200, sigma_gauss=0.1, alpha=0.001, seed=2)
        a = certify_realistic(base, x, cfg, small)
        b = certify_realistic(base, x, cfg, large)
        assert a.counts == b.counts  # same draws, same votes
        assert b.certificate.gamma1 >= a.certificate.gamma1
        assert b.certificate.gamma2 <= a.certificate.gamma2

    def test_degenerate_inner_layer_approaches_idealized(self):
        # vanishing noise and zero conversion error reduce to plain smoothing
        oracle = ThresholdOracle(0.5, 0.25)
        cfg = RealisticConfig(n_eps=30, n_gamma=400, sigma_gauss=1e-9, alpha=0.001, seed=5)
        budget = make_budget(E=0.0, q_E=1.0 - 1e-9, alpha_E=1e-9)
        realistic = certify_realistic(oracle, oracle.clean_input(), cfg, budget)
        idealized = smoothed_predict_certify(
            oracle, oracle.clean_input(), SmoothingConfig(n=400, alpha=0.001, seed=5)
        )
        assert realistic.label == idealized.label == 1
        # same outer sample size, so the bounds differ only by binomial noise
        noise = 4.0 * math.sqrt(0.9375 * 0.0625 / 400)
        assert abs(realistic.pa_lower - idealized.pa_lower) < noise

    def test_abstain_rate_non_increasing_in_alpha(self):
        # fixed synthetic batch spanning easy through borderline inputs; the
        # borderline ones sit where the larger alpha rescues certification
        batch = [
            (1.05, 0), (1.2, 1), (1.225, 5), (1.25, 6), (1.275, 0),
            (1.2875, 4), (1.3, 2), (1.45, 0), (1.6, 1),
        ]
        rates = {}
        for alpha in (0.001, 0.01):
            abstained = 0
            for q, seed in batch:
                oracle = ThresholdOracle(0.5, 0.5 ** (q * q))
                cfg = RealisticConfig(n_eps=60, n_gamma=150, sigma_gauss=0.05, alpha=alpha, seed=seed)
                budget = make_budget(E=0.02, alpha=alpha)
                result = certify_realistic(oracle, oracle.clean_input(), cfg, budget)
                abstained += result.abstained
            rates[alpha] = abstained
        assert rates[0.01] < rates[0.001]

    def test_large_budget_needs_a_near_certain_bound(self):
        # rho = 0.45 abstains unless pa_lower > 0.95; with all hits that means
        # alpha**(1/n_gamma) > 0.95, so 200 draws clear it and 100 do not
        budget_args = dict(E=0.0, q_E=0.56, alpha_E=0.009, alpha=0.001)
        assert abs(error_budget(0.001, 0.56, 0.009) - 0.45) < 1e-12
        for n_gamma, certifies in [(200, True), (100, False)]:
            cfg = RealisticConfig(n_eps=30, n_gamma=n_gamma, sigma_gauss=0.25, alpha=0.001, seed=8)
            result = certify_realistic(
                ConstantClassifier(0), np.array([0.5]), cfg, make_budget(**budget_args)
            )
            assert result.abstained != certifies

    def test_miss_when_inner_radius_cannot_cover_error(self):
        # huge E: every inner vote fails the radius requirement
        cfg = RealisticConfig(n_eps=50, n_gamma=60, sigma_gauss=0.05, alpha=0.001, seed=3)
        result = certify_realistic(ConstantClassifier(0), np.array([0.5]), cfg, make_budget(E=5.0))
        assert result.abstained
        assert result.counts == SampleCounts(0, 60)

    def test_no_row_is_labelled_when_no_inner_count_can_cover_the_error(self):
        # n_eps of n_eps inner votes reach the largest radius any factor draw
        # can: an E just above it labels no row and abstains as when every
        # draw misses, and an E equal to it labels every row
        cfg = RealisticConfig(n_eps=50, n_gamma=60, sigma_gauss=0.05, alpha=0.001, seed=3)
        reach = _gaussian_l2_radius(clopper_pearson(SampleCounts(50, 50), cfg.alpha, Side.LOWER), cfg.sigma_gauss)
        missed = PredictionResult(None, 0.0, None, SampleCounts(0, 60), reason="no factor draw produced a robust inner vote")
        for E, rows in [(math.nextafter(reach, math.inf), 0), (reach, 50 * 60)]:
            counting = CountingLabels(ConstantClassifier(0))
            result = certify_realistic(counting, np.array([0.5]), cfg, make_budget(E=E))
            assert counting.rows == rows, E
            assert (result == missed) == (rows == 0)
        assert result.label == 0 and result.counts == SampleCounts(60, 60)

    def test_peak_memory_is_flat_in_the_factor_draws(self):
        # one pixel and n_eps = 10: a tally or factor held per draw would grow
        # the peak tenfold from 500 to 5,000 factor draws
        oracle = ThresholdOracle(0.5, 0.45)
        budget = make_budget(E=0.0)
        certify_realistic(oracle, oracle.clean_input(), RealisticConfig(10, 50, 0.05, 0.001, seed=4), budget)
        peaks = {}
        for n_gamma in (500, 5_000):
            cfg = RealisticConfig(n_eps=10, n_gamma=n_gamma, sigma_gauss=0.05, alpha=0.001, seed=4)
            tracemalloc.start()
            try:
                result = certify_realistic(oracle, oracle.clean_input(), cfg, budget)
                peaks[n_gamma] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < result.counts.successes < n_gamma  # some draws vote, some miss
        assert peaks[5_000] <= 1.1 * peaks[500], peaks

    @pytest.mark.parametrize("n_gamma", [50, 2_000])
    @pytest.mark.parametrize("n_eps, alpha", [(1, 0.4), (2, 0.4), (3, 0.2), (10, 0.001), (64, 0.001), (101, 0.001)])
    def test_clopper_pearson_solves_per_request_do_not_grow_with_the_draws(self, monkeypatch, n_gamma, n_eps, alpha):
        # one pixel: the hit threshold is bisected over 1..n_eps in at most
        # ceil(log2(n_eps + 1)) solves, and the outer vote takes one more;
        # every draw votes, except at n_eps = 1, where no count can and the
        # request returns before any draw
        solves = []

        def counting(*args):
            solves.append(args)
            return clopper_pearson(*args)

        for module in (runtime, realistic):
            monkeypatch.setattr(module, "clopper_pearson", counting, raising=False)
        cfg = RealisticConfig(n_eps=n_eps, n_gamma=n_gamma, sigma_gauss=0.25, alpha=alpha, seed=1)
        budget = make_budget(E=0.0, q_E=1.0 - 1e-9, alpha_E=1e-9, alpha=alpha)
        result = certify_realistic(ConstantClassifier(0), np.array([0.5]), cfg, budget)
        assert result.counts == SampleCounts(n_gamma if n_eps > 1 else 0, n_gamma)
        assert len(solves) <= math.ceil(math.log2(n_eps + 1)) + 1, len(solves)

    @pytest.mark.parametrize("n_eps", [1, 2, 3, 10, 50, 101])
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.9])
    @pytest.mark.parametrize("sigma", [1e-3, 0.25, 4.0])
    def test_hit_threshold_is_the_per_draw_rule(self, n_eps, alpha, sigma):
        # the rule as each factor draw applied it: the top inner label votes
        # when its bound certifies an l2 radius of at least E
        def radius(hits):
            tally = Counter({0: hits})
            return _gaussian_l2_radius(runtime._bounds(tally, tally, n_eps, alpha)[2], sigma)

        radii = {hits: radius(hits) for hits in range(1, n_eps + 1)}
        reached = [r for r in radii.values() if not isinstance(r, Abstain)]
        # E at every attained radius, just above each, and past them all
        for E in {0.0, math.inf, *reached, *(math.nextafter(r, math.inf) for r in reached)}:
            threshold = realistic._hit_threshold(n_eps, alpha, sigma, E)
            for hits, r in radii.items():
                assert (hits >= threshold) == (not isinstance(r, Abstain) and r >= E), (E, hits)
        if (n_eps, alpha) == (2, 0.9):  # a 1-1 tie clears 1/2 and votes
            assert realistic._hit_threshold(n_eps, alpha, sigma, 0.0) == 1


class TestRealisticConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = RealisticConfig(n_eps=5, n_gamma=7, sigma_gauss=0.3, alpha=0.01, seed=12)
        (tmp_path / "c.json").write_text(__import__("json").dumps(cfg.to_json()))
        assert RealisticConfig.load(tmp_path / "c.json") == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            RealisticConfig(n_eps=0, n_gamma=1, sigma_gauss=0.1, alpha=0.01)
        with pytest.raises(ValueError):
            RealisticConfig(n_eps=1, n_gamma=1, sigma_gauss=-0.1, alpha=0.01)
        with pytest.raises(ValueError, match="n_gamma must be positive"):
            RealisticConfig(n_eps=1, n_gamma=0, sigma_gauss=0.1, alpha=0.01)
        with pytest.raises(ValueError, match="sigma_gauss must be a positive finite real, got inf"):
            RealisticConfig(n_eps=1, n_gamma=1, sigma_gauss=math.inf, alpha=0.01)
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha must lie in"):
                RealisticConfig(n_eps=1, n_gamma=1, sigma_gauss=0.1, alpha=alpha)
