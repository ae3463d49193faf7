import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from dense_tally import dense_tally
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert import (
    ConstantClassifier,
    LinearClassifier,
    SampleCounts,
    Side,
    SmoothedClassifier,
    SmoothingConfig,
    ThresholdOracle,
    clopper_pearson,
    empirical_sweep,
    exact_oracle_probability,
    inverse_rayleigh,
    load_classifier,
    log_gaussian,
    log_laplace,
    log_uniform,
    rayleigh,
    smoothed_predict_certify,
    write_tensor,
)
from smoothcert import runtime
from smoothcert.rng import SeededSampler, _usable_cores
from smoothcert.runtime import BaseClassifier
from smoothcert.transforms import gamma_correct_batch
from two_loop_sweep import two_loop_sweep

ORACLE = ThresholdOracle(pixel_value=0.5, threshold=0.25)


def unsmoothed(base):
    """Single-input predictor over a base classifier, for sweeps without smoothing."""
    return lambda x, index: int(base.labels(np.asarray(x, dtype=float)[np.newaxis, ...])[0])


def config(n=2000, alpha=0.01, seed=7, n0=100) -> SmoothingConfig:
    return SmoothingConfig(n=n, alpha=alpha, dist=rayleigh(), seed=seed, n0=n0)


class TestThresholdOracle:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ThresholdOracle(1.0, 0.5)
        with pytest.raises(ValueError):
            ThresholdOracle(0.5, 0.0)

    def test_batch_labels(self):
        batch = np.array([[0.2], [0.25], [0.9]])
        assert ORACLE.labels(batch).tolist() == [0, 1, 1]

    def test_exact_probability_examples(self):
        dist = rayleigh()
        assert abs(exact_oracle_probability(ORACLE, 1.0, dist) - 0.9375) < 1e-12
        assert abs(exact_oracle_probability(ORACLE, 2.0, dist) - 0.5) < 1e-12
        symmetric = ThresholdOracle(0.5, 0.5)
        assert abs(exact_oracle_probability(symmetric, 1.0, dist) - 0.5) < 1e-12

    def test_exact_probability_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            exact_oracle_probability(ORACLE, 0.0, rayleigh())


class TestSmoothedPredictCertify:
    def test_oracle_prediction_and_certificate(self):
        result = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config(n=20_000))
        assert result.label == 1
        assert not result.abstained
        # the Clopper-Pearson bound sits below the exact probability 0.9375
        assert 0.91 < result.pa_lower < 0.9375
        assert result.certificate.gamma2 <= 2.0

    def test_constant_classifier_never_abstains(self):
        cfg = config(n=100, n0=10)
        result = smoothed_predict_certify(ConstantClassifier(3), np.array([0.4]), cfg)
        assert result.label == 3
        expected = clopper_pearson(SampleCounts(100, 100), cfg.alpha, Side.LOWER)
        assert result.pa_lower == expected

    def test_even_odds_abstain(self):
        # the threshold sits at the clean pixel: the exact smoothed probability is 1/2
        result = smoothed_predict_certify(ThresholdOracle(0.5, 0.5), np.array([0.5]), config())
        assert result.abstained
        assert result.certificate is None

    def test_deterministic_reruns(self):
        a = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config())
        b = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config())
        assert a == b

    def test_seed_changes_counts(self):
        a = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config(seed=1))
        b = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config(seed=2))
        assert a.counts != b.counts

    def test_raising_alpha_never_introduces_abstention(self):
        # borderline oracle: exact smoothed probability ~0.53, where the two
        # alpha levels genuinely disagree on abstention for some seeds
        oracle = ThresholdOracle(0.5, 0.5**1.0437)
        outcomes = []
        for seed in range(8):
            strict = smoothed_predict_certify(oracle, oracle.clean_input(), config(seed=seed, alpha=0.001))
            loose = smoothed_predict_certify(oracle, oracle.clean_input(), config(seed=seed, alpha=0.01))
            outcomes.append((strict.abstained, loose.abstained))
            if not strict.abstained:
                assert not loose.abstained
        assert any(s and not l for s, l in outcomes)  # the implication is not vacuous

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(n=5, alpha=0.01)
        with pytest.raises(ValueError):
            SmoothingConfig(n=1000, alpha=0.0)
        with pytest.raises(ValueError):
            SmoothingConfig(n=1000, alpha=0.01, n0=5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_config_checks_its_seed_when_built(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            SmoothingConfig(n=1000, alpha=0.01, seed=seed)

    def test_inverse_rayleigh_smoothing_gets_reciprocal_certificate(self):
        from smoothcert import Method, exact_oracle_probability, inverse_rayleigh

        cfg = SmoothingConfig(n=20_000, alpha=0.001, dist=inverse_rayleigh(), seed=7)
        result = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), cfg)
        assert result.label == 1
        cert = result.certificate
        assert cert.method is Method.RECIPROCAL
        # exact smoothed probability stays above 1/2 strictly inside
        for gamma in np.linspace(cert.gamma1, cert.gamma2, 52)[1:-1]:
            assert exact_oracle_probability(ORACLE, gamma, cfg.dist) > 0.5

    def test_log_space_smoothing_gets_log_space_certificate(self):
        from smoothcert import Method, exact_oracle_probability, log_gaussian

        cfg = SmoothingConfig(n=20_000, alpha=0.001, dist=log_gaussian(0.5), seed=7)
        result = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), cfg)
        assert result.label == 1
        assert result.certificate.method is Method.LOG_SPACE
        for gamma in np.linspace(result.certificate.gamma1, result.certificate.gamma2, 52)[1:-1]:
            assert exact_oracle_probability(ORACLE, gamma, cfg.dist) > 0.5

    def test_every_abstention_names_its_reason(self):
        half = ThresholdOracle(0.5, 0.5)  # smoothed top-class probability exactly 1/2
        result = smoothed_predict_certify(half, half.clean_input(), config(n=500))
        assert result.abstained and result.certificate is None
        assert result.reason == f"pa_lower={result.pa_lower} <= 1/2"
        assert result.adjusted is None
        certified = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), config())
        assert certified.reason is None


class TestEmpiricalSweep:
    def test_unsmoothed_oracle_flips_exactly_at_two(self):
        # 0.5**gamma < 0.25 first happens just above gamma = 2
        interval = empirical_sweep(unsmoothed(ORACLE), ORACLE.clean_input(), 0.01, 4.0)
        left, right = interval
        assert right == 2.0
        assert abs(left - 0.01) < 1e-9

    def test_constant_classifier_spans_everything(self):
        handle = ConstantClassifier(0)
        left, right = empirical_sweep(unsmoothed(handle), np.array([0.5]), 0.01, 3.0)
        assert right == 3.0
        assert abs(left - 0.01) < 1e-9

    def test_queries_are_numbered_in_walk_order(self):
        seen = []

        def record(x, index):
            seen.append((float(x[0]), index))
            return 1 if x[0] >= 0.25 else 0

        empirical_sweep(record, ORACLE.clean_input(), 0.5, 3.0)
        assert [index for _, index in seen] == list(range(len(seen)))
        assert [v for v, _ in seen] == pytest.approx([0.5, 0.5**1.5, 0.25, 0.5**2.5, 0.5**0.5])

    def test_abstaining_handle_gives_empty(self):
        assert empirical_sweep(lambda x, index: None, np.array([0.5]), 0.1, 2.0) is None

    def test_step_validation(self):
        with pytest.raises(ValueError):
            empirical_sweep(unsmoothed(ORACLE), ORACLE.clean_input(), 0.0, 2.0)

    def test_smoothed_handle_contains_certificate(self):
        cfg = config(n=4000, alpha=0.01)
        result = smoothed_predict_certify(ORACLE, ORACLE.clean_input(), cfg)
        handle = SmoothedClassifier(ORACLE, cfg)
        left, right = empirical_sweep(handle.predict, ORACLE.clean_input(), 0.05, 3.0)
        assert right >= result.certificate.gamma2 - 0.05
        assert left <= result.certificate.gamma1 + 0.05

    def test_smoothed_handle_is_deterministic(self):
        cfg = config(n=2000, alpha=0.01)
        first = SmoothedClassifier(ORACLE, cfg)
        second = SmoothedClassifier(ORACLE, cfg)
        swept_a = empirical_sweep(first.predict, ORACLE.clean_input(), 0.1, 3.0)
        swept_b = empirical_sweep(second.predict, ORACLE.clean_input(), 0.1, 3.0)
        assert swept_a == swept_b


    @pytest.mark.parametrize("step, gamma_max", [(0.01, 2.5), (0.3, 2.5), (0.7, 1.2), (0.6, 3.0)])
    @pytest.mark.parametrize("k_up", [1, 2, 5, None])
    @pytest.mark.parametrize("k_down", [1, 3, None])
    def test_matches_the_two_loop_walk(self, step, gamma_max, k_up, k_down):
        # label 1 between the factors just past k_down steps down and k_up steps up, 0 outside
        high = 1.0 + (k_up - 0.5) * step if k_up else math.inf
        low = 1.0 - (k_down - 0.5) * step if k_down else -math.inf
        x = np.array([0.5])

        def recording(seen):
            def predict(image, index):
                seen.append((image.tobytes(), index))
                return 1 if 0.5**high <= image[0] <= 0.5**low else 0

            return predict

        walked, expected = [], []
        interval = empirical_sweep(recording(walked), x, step, gamma_max)
        assert interval == two_loop_sweep(recording(expected), x, step, gamma_max)
        assert walked == expected

    def test_matches_the_two_loop_walk_when_the_clean_input_abstains(self):
        assert two_loop_sweep(lambda x, index: None, np.array([0.5]), 0.1, 2.0) is None
        assert empirical_sweep(lambda x, index: None, np.array([0.5]), 0.1, 2.0) is None

    @pytest.mark.parametrize(
        "step, gamma_max", [(0.01, math.inf), (math.inf, 2.0), (0.01, math.nan), (math.nan, 2.0)]
    )
    def test_limits_must_be_finite(self, step, gamma_max):
        with pytest.raises(ValueError, match="finite"):
            empirical_sweep(constant_for_1000_queries(), np.array([0.5]), step, gamma_max)

    @pytest.mark.parametrize("step", [1e-300, 2.0**-53])
    def test_step_must_move_the_factor_off_one(self, step):
        # 1 + step rounds to 1: unchecked, the walk makes at least 1 / step queries
        with pytest.raises(ValueError, match="step"):
            empirical_sweep(constant_for_1000_queries(), np.array([0.5]), step, 2.0)

    @pytest.mark.parametrize("gamma_max", [2.0, 3.7, 1.0 + 2.0**-20])
    def test_smallest_step_the_query_cap_allows_is_accepted(self, gamma_max):
        # gamma_max / step may reach 2**20 and no further
        step = gamma_max / 2**20

        def flips(x, index):
            return 1 if index == 0 else 0

        assert empirical_sweep(flips, np.array([0.5]), step, gamma_max) == (1.0, 1.0)
        with pytest.raises(ValueError, match="step"):
            empirical_sweep(flips, np.array([0.5]), float(np.nextafter(step, 0.0)), gamma_max)

    def test_a_step_past_the_query_cap_is_refused_before_any_query(self):
        # step 1e-12 would walk about 2e12 factors
        with pytest.raises(ValueError, match="step"):
            empirical_sweep(constant_for_1000_queries(), np.array([0.5]), 1e-12, 2.0)
        queries = []
        with pytest.raises(ValueError, match="step"):
            empirical_sweep(lambda x, index: queries.append(index), np.array([0.5]), 1e-12, 2.0)
        assert queries == []


def constant_for_1000_queries():
    """A predict that always says 0 and fails, rather than hangs, if a walk has no end."""
    queries = itertools.count()

    def constant(x, index):
        if next(queries) >= 1000:
            raise RuntimeError("the walk made 1000 queries")
        return 0

    return constant


class TestSmoothedClassifier:
    def test_predict_is_a_function_of_the_query_index(self):
        handle = SmoothedClassifier(ORACLE, config(n=500))
        inputs = [ORACLE.clean_input() ** g for g in np.linspace(0.5, 2.5, 12)]
        serial = [handle.predict(x, i) for i, x in enumerate(inputs)]
        assert None in serial and 1 in serial  # some queries abstain, some do not
        order = list(range(len(inputs)))
        random.Random(3).shuffle(order)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                answers = pool.map(lambda i: handle.predict(inputs[i], i), order, timeout=60)
                shuffled = dict(zip(order, answers))
        finally:
            sys.setswitchinterval(interval)
        assert [shuffled[i] for i in range(len(inputs))] == serial
        assert handle.predict(inputs[0], 0) == serial[0]


LAWS = [rayleigh(), inverse_rayleigh(), log_gaussian(0.5), log_laplace(0.5), log_uniform(0.5)]


class CountingClassifier:
    """Delegates to a base classifier and records the size of every labelled batch."""

    def __init__(self, base):
        self.base = base
        self.sizes = []

    def labels(self, batch):
        self.sizes.append(batch.size)
        return self.base.labels(batch)


def linear_workload(shape, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, shape) / 255.0
    return random_linear(image.size, seed=seed), image


BIG_LABELS = np.array([0, 2**40, 2**62 - 1])


class BandedLabels(BaseClassifier):
    """Labels 0, 2**40 or 2**62 - 1 by the band the first pixel falls in.

    Under ``dist`` a smoothed pixel 0.5**beta falls below 0.5**Q(0.9), below
    0.5**Q(0.45) or above, with chances 0.1, 0.45 and 0.45 (Q the quantile
    function), so the two large labels tie often and at the same seeds for
    every law.
    """

    descriptor = "banded"

    def __init__(self, dist):
        self.cuts = np.sort(0.5 ** dist.quantile(np.array([0.9, 0.45])))

    def labels(self, batch):
        return BIG_LABELS[np.searchsorted(self.cuts, batch.reshape(len(batch), -1)[:, 0], side="right")]


class IndexedLabels:
    """Labels draw i with ``table[i]``; its rows carry their draw index."""

    def __init__(self, table):
        self.table = np.array(table)

    def labels(self, batch):
        return self.table[batch[:, 0].astype(int)]

    @staticmethod
    def rows(lo, hi):
        return np.arange(lo, hi, dtype=float)[:, np.newaxis]


class TestTally:
    """Vote counts are exact for any chunking and memory stays bounded in n and in the labels."""

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind.value)
    def test_results_do_not_depend_on_the_chunking(self, monkeypatch, dist):
        linear, image = linear_workload((3, 16, 16))
        banded = BandedLabels(dist)
        # at seed 5 the selection draws give both large labels 23 votes
        stream = SeededSampler(5).stream(runtime._SELECTION_STREAM)
        selection = runtime._factor_tally(banded, np.array([0.5]), dist, stream, 50, gamma_correct_batch)
        assert selection == {0: 4, 2**40: 23, 2**62 - 1: 23}
        workloads = [(ORACLE, ORACLE.clean_input(), 600), (linear, image, 300), (banded, np.array([0.5]), 300)]
        for base, x, n in workloads:
            cfg = SmoothingConfig(n=n, alpha=0.01, dist=dist, seed=5, n0=50)
            reference = smoothed_predict_certify(base, x, cfg)
            for cap in (x.size, 7 * x.size, 1000 * x.size, 2**40):
                monkeypatch.setattr(runtime, "_TALLY_CAP", cap)
                assert smoothed_predict_certify(base, x, cfg) == reference, cap
            monkeypatch.undo()

    def test_no_labelling_call_exceeds_the_cap(self, monkeypatch):
        linear, image = linear_workload((3, 32, 32))
        cfg = SmoothingConfig(n=3000, alpha=0.01, seed=1, n0=100)
        for cap in (runtime._TALLY_CAP, 7 * image.size + 5):
            monkeypatch.setattr(runtime, "_TALLY_CAP", cap)
            counting = CountingClassifier(linear)
            smoothed_predict_certify(counting, image, cfg)
            assert max(counting.sizes) <= cap
            assert sum(counting.sizes) == (cfg.n0 + cfg.n) * image.size
            handle = CountingClassifier(linear)
            SmoothedClassifier(handle, cfg).predict(image, 0)
            assert max(handle.sizes) <= cap
            assert sum(handle.sizes) == cfg.n * image.size

    def test_peak_memory_is_flat_in_n(self):
        linear, image = linear_workload((3, 32, 32))
        peaks = []
        for n in (5_000, 50_000):
            cfg = SmoothingConfig(n=n, alpha=0.01, seed=2)
            tracemalloc.start()
            try:
                smoothed_predict_certify(linear, image, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_tally_matches_the_dense_reference(self, data):
        group = data.draw(st.integers(1, 6))
        # at most four groups, the last one possibly short: four dense rows of 2**20 + 1 counts
        n = group * data.draw(st.integers(0, 3)) + data.draw(st.integers(1, group))
        table = data.draw(st.lists(st.sampled_from([0, 1, 7, 2**20]), min_size=n, max_size=n))
        cap = data.draw(st.integers(1, 2 * group))
        cores = data.draw(st.integers(1, 4))
        base = IndexedLabels(table)
        with mock.patch.object(runtime, "_TALLY_CAP", cap), mock.patch("smoothcert.rng._usable_cores", lambda: cores):
            sparse = list(runtime._tally(base, base.rows, n, 1, group))
            dense = dense_tally(base, base.rows, n, 1, group)
        assert len(sparse) == len(dense) == -(-n // group)
        for tally, row in zip(sparse, dense):
            seen = np.flatnonzero(row)
            assert tally == dict(zip(seen.tolist(), row[seen].tolist()))
            assert runtime._top(tally) == (int(np.argmax(row)), int(row.max()))
        # the vote-to-bounds body: select on the first group, estimate on the last
        label, last = int(np.argmax(dense[0])), n - group * (len(dense) - 1)
        counts = SampleCounts(int(dense[-1][label]), last)
        pa_lower = clopper_pearson(counts, 0.01, Side.LOWER)
        assert runtime._bounds(sparse[0], sparse[-1], last, 0.01) == (label, counts, pa_lower, 1.0 - pa_lower)

    @pytest.mark.parametrize("table", [[-1, 0, 1], [0.0, 1.0], [1.5]], ids=["negative", "float", "fraction"])
    def test_labels_other_than_nonnegative_integers_are_rejected(self, table):
        base = IndexedLabels(table)
        with pytest.raises(ValueError, match="nonnegative integers"):
            list(runtime._tally(base, base.rows, len(table), 1, len(table)))

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the address-space size from procfs")
    def test_peak_memory_is_flat_in_the_label_value(self):
        # Runs in a child whose address space is capped a few hundred MB
        # above its own size after a warm-up, so a count table sized by the
        # label value fails there with a MemoryError instead of taking the
        # machine's memory: L = 10**6 would need 320 MB in the realistic
        # pipeline, and 2**62 could not be allocated at all.
        code = (
            "import json, resource, sys, tracemalloc; sys.path.insert(0, sys.argv[1]); import numpy as np\n"
            "from smoothcert import (ConstantClassifier, ErrorBudget, RealisticConfig, SmoothingConfig,\n"
            "    certify_realistic, smoothed_predict_certify)\n"
            "image = np.full((3, 8, 8), 0.5)\n"
            "cfg = RealisticConfig(n_eps=20, n_gamma=20, sigma_gauss=1.0, alpha=0.001, seed=1)\n"
            "budget = ErrorBudget.for_alpha(0.0, 0.9, 0.01, 0.001, (0.71, 1.33))\n"
            "smooth = SmoothingConfig(n=1000, alpha=0.01, seed=1)\n"
            "runs = {'realistic': lambda base: certify_realistic(base, image, cfg, budget),\n"
            "        'smoothed': lambda base: smoothed_predict_certify(base, image, smooth)}\n"
            "for run in runs.values():\n"
            "    run(ConstantClassifier(1))\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 256 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "peaks = {}\n"
            "for name, run in runs.items():\n"
            "    for label in (1, 10**6, 2**62):\n"
            "        tracemalloc.start()\n"
            "        result = run(ConstantClassifier(label))\n"
            "        peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1])\n"
            "        tracemalloc.stop()\n"
            "        assert result.label == label, result\n"
            "print(json.dumps(peaks))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC_DIR)], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        for name, peaks in json.loads(done.stdout).items():
            assert max(peaks) <= 1.1 * min(peaks), (name, peaks)


class TestLinearClassifier:
    def test_scores_and_tie_break(self):
        # class 0 has constant score 0.25; class 1 tracks the pixel
        clf = LinearClassifier(np.array([[0.0], [1.0]]), np.array([0.25, 0.0]))
        labels = clf.labels(np.array([[0.2], [0.25], [0.6]]))
        assert labels.tolist() == [0, 0, 1]  # exact tie goes to the lower index

    def test_feature_mismatch(self):
        clf = LinearClassifier(np.array([[0.1, 0.2]]), np.array([0.0]))
        with pytest.raises(ValueError):
            clf.labels(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="weights must be 2-D"):
            LinearClassifier(np.array([0.1, 0.2]), np.array([0.0]))
        with pytest.raises(ValueError, match="bias shape"):
            LinearClassifier(np.array([[0.1, 0.2]]), np.array([0.0, 0.0]))

    def test_manifest_roundtrip(self, tmp_path):
        weights = np.array([[0.9, 0.1], [0.2, 0.8]])
        bias = np.array([0.0, 0.1])
        write_tensor(weights, tmp_path / "w.mst1")
        write_tensor(bias, tmp_path / "b.mst1")
        (tmp_path / "clf.json").write_text(
            json.dumps({"weights": "w.mst1", "bias": "b.mst1", "classes": 2})
        )
        clf = load_classifier(tmp_path / "clf.json")
        assert isinstance(clf, LinearClassifier)
        assert clf.labels(np.array([[1.0, 0.0], [0.0, 1.0]])).tolist() == [0, 1]

    def test_manifest_class_mismatch(self, tmp_path):
        write_tensor(np.array([[0.9, 0.1]]), tmp_path / "w.mst1")
        write_tensor(np.array([0.0]), tmp_path / "b.mst1")
        (tmp_path / "clf.json").write_text(
            json.dumps({"weights": "w.mst1", "bias": "b.mst1", "classes": 3})
        )
        with pytest.raises(ValueError):
            load_classifier(tmp_path / "clf.json")

    def test_smoothing_a_linear_classifier(self, tmp_path):
        # two-pixel analogue of the threshold rule via nonnegative weights
        clf = LinearClassifier(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([0.25, 0.0]))
        x = np.array([0.5, 0.5])
        result = smoothed_predict_certify(clf, x, config(n=20_000))
        assert result.label == 1
        assert abs(result.pa_lower - 0.93) < 0.02


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def random_linear(features: int, classes: int = 10, seed: int = 0) -> LinearClassifier:
    rng = np.random.default_rng(seed)
    return LinearClassifier(rng.normal(size=(classes, features)), rng.normal(size=classes))


def run_isolated(code: str, blas_threads: int) -> str:
    """Runs ``code`` in a fresh interpreter with the given OpenBLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC_DIR)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env=env,
    )
    return done.stdout


class TestLinearRowPurity:
    """A row's scores, and so its label, depend only on that row, bit for bit."""

    @pytest.mark.parametrize("features", [105, 3072])
    def test_row_blocks_match_one_call(self, features):
        clf = random_linear(features)
        batch = np.random.default_rng(1).uniform(0.0, 1.0, (1000, features))
        scores = clf._scores(batch)
        labels = clf.labels(batch)
        for block in (1, 2, 7, 49, 50, 1000):
            starts = range(0, len(batch), block)
            blocked = np.concatenate([clf._scores(batch[i : i + block]) for i in starts])
            assert blocked.tobytes() == scores.tobytes(), f"row blocks of {block}"
            blocked = np.concatenate([clf.labels(batch[i : i + block]) for i in starts])
            assert np.array_equal(blocked, labels), f"row blocks of {block}"

    def test_memory_layout_does_not_change_bits(self):
        clf = random_linear(105)
        batch = np.random.default_rng(2).uniform(0.0, 1.0, (64, 105))
        scores = clf._scores(batch).tobytes()
        assert clf._scores(np.asfortranarray(batch)).tobytes() == scores
        assert clf._scores(batch.reshape(64, 3, 5, 7)).tobytes() == scores

    def test_blas_thread_count_does_not_change_bits(self):
        code = (
            "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "from smoothcert import LinearClassifier\n"
            "for features in (3072, 12288):\n"
            "    rng = np.random.default_rng(0)\n"
            "    clf = LinearClassifier(rng.normal(size=(10, features)), rng.normal(size=10))\n"
            "    batch = rng.uniform(0.0, 1.0, (64, features))\n"
            "    scores = clf._scores(batch)\n"
            "    print(features, hashlib.sha256(scores.tobytes()).hexdigest(), clf.labels(batch).tolist())\n"
        )
        one, two = run_isolated(code, 1), run_isolated(code, 2)
        assert one.count("\n") == 2
        assert one == two

    @pytest.mark.skipif(_usable_cores() < 2, reason="needs two usable cores")
    def test_labelling_wakes_no_blas_thread(self):
        # A woken OpenBLAS helper spins between calls, which shows as about
        # two CPU-seconds per wall second in a labelling loop run on one core.
        code = (
            "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "from smoothcert import LinearClassifier, rng\n"
            "rng._usable_cores = lambda: 1\n"
            "rng = np.random.default_rng(0)\n"
            "clf = LinearClassifier(rng.normal(size=(10, 3072)), rng.normal(size=10))\n"
            "batch = rng.uniform(0.0, 1.0, (50, 3072))\n"
            "clf.labels(batch)\n"
            "wall, cpu = time.perf_counter(), time.process_time()\n"
            "while time.perf_counter() - wall < 0.5:\n"
            "    clf.labels(batch)\n"
            "print((time.process_time() - cpu) / (time.perf_counter() - wall))\n"
        )
        assert float(run_isolated(code, 2)) < 1.5


class TestSyntheticManifests:
    def test_threshold_manifest(self, tmp_path):
        (tmp_path / "m.json").write_text(
            json.dumps({"type": "threshold", "pixel_value": 0.5, "threshold": 0.25})
        )
        clf = load_classifier(tmp_path / "m.json")
        assert isinstance(clf, ThresholdOracle)

    def test_constant_and_hash_manifests(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"type": "constant", "label": 2}))
        (tmp_path / "h.json").write_text(json.dumps({"type": "hash", "classes": 4}))
        assert isinstance(load_classifier(tmp_path / "c.json"), ConstantClassifier)
        with pytest.raises(ValueError, match="h.json: unrecognized classifier manifest"):
            load_classifier(tmp_path / "h.json")

    def test_negative_constant_label_is_rejected(self):
        with pytest.raises(ValueError, match=r"label must lie in \[0, 2\*\*63\), got -1"):
            ConstantClassifier(-1)
        assert ConstantClassifier(0).label == 0

    def test_constant_label_must_fit_a_label_array(self):
        with pytest.raises(ValueError, match=r"label must lie in \[0, 2\*\*63\), got 9223372036854775808"):
            ConstantClassifier(2**63)
        assert ConstantClassifier(2**63 - 1).labels(np.zeros((2, 1))).tolist() == [2**63 - 1] * 2

    def test_every_manifest_type_is_a_classifier_class(self):
        # a manifest's fields are its classifier's parameters: no adapter in between
        for make in runtime._SYNTHETIC.values():
            assert isinstance(make, type) and issubclass(make, runtime.BaseClassifier), make

    def test_unknown_manifest(self, tmp_path):
        (tmp_path / "u.json").write_text(json.dumps({"type": "mystery"}))
        with pytest.raises(ValueError):
            load_classifier(tmp_path / "u.json")
