"""Monte-Carlo smoothed classification over multiplicative factors.

The smoothed classifier draws random power factors, evaluates the base
classifier on every transformed copy of the input, and certifies the modal
label from exact binomial confidence bounds, abstaining when the lower bound
does not clear 1/2.  One vote tally labels the transformed copies in chunks
of at most 32 MB and counts labels sparsely, so memory stays flat in the sample
count and in the label values, and the counts are the same for any chunking.
One vote-to-bounds body, :func:`_bounds`, turns the votes of every smoothed
decision, plain or realistic, into its label and its bound pair.

Shipped base classifiers are synthetic and analytic on purpose — the
single-pixel threshold rule admits an exact smoothed probability, making it
the ground-truth oracle the test suite certifies against.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import sys
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, get_origin

import numpy as np

from . import rng
from .certify import (
    Abstain,
    Certificate,
    ProbBounds,
    SampleCounts,
    Side,
    certify_for,
    clopper_pearson,
)
from .distributions import SmoothingDistribution, rayleigh
from .rng import SeededSampler, _split
from .transforms import gamma_correct_batch, read_tensor, validate_image

__all__ = [
    "BaseClassifier",
    "ThresholdOracle",
    "ConstantClassifier",
    "LinearClassifier",
    "load_classifier",
    "SmoothingConfig",
    "PredictionResult",
    "SmoothedClassifier",
    "smoothed_predict_certify",
    "empirical_sweep",
    "exact_oracle_probability",
]

_SELECTION_STREAM = 0
_ESTIMATION_STREAM = 1
_PREDICT_STREAM_BASE = 16
# Doubles of input built and labelled per chunk of a vote tally (32 MB).
_TALLY_CAP = 2**22


class BaseClassifier(ABC):
    """Deterministic labelling contract: same tensor in, same label out.

    Labels are nonnegative integers of any size.  A row's label depends only
    on that row, bit for bit: it is the same for any batch size the row
    arrives in and any BLAS thread count, so callers may label the draw-index
    range in chunks of any size.  Implementations must be safe for concurrent
    evaluation; all the shipped ones are stateless.
    """

    @abstractmethod
    def labels(self, batch: np.ndarray) -> np.ndarray:
        """Label a stack of inputs, shape (m, *dims) -> (m,) int array."""

    @property
    @abstractmethod
    def descriptor(self) -> str:
        """Short human-readable identity for reports."""


@dataclass(frozen=True)
class ThresholdOracle(BaseClassifier):
    """Single-pixel threshold rule with an exact smoothed probability.

    Predicts class 1 iff the first pixel is at least ``threshold``.  For a
    clean pixel ``pixel_value`` under power-factor smoothing the smoothed
    top-class probability is the factor law's CDF at ln(threshold)/ln(pixel).
    """

    pixel_value: float
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.pixel_value < 1.0:
            raise ValueError(f"pixel_value must lie in (0, 1), got {self.pixel_value}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    def labels(self, batch: np.ndarray) -> np.ndarray:
        flat = batch.reshape(batch.shape[0], -1)
        return (flat[:, 0] >= self.threshold).astype(int)

    @property
    def descriptor(self) -> str:
        return f"threshold(pixel={self.pixel_value:g}, t={self.threshold:g})"

    def clean_input(self) -> np.ndarray:
        return np.array([self.pixel_value])


@dataclass(frozen=True)
class ConstantClassifier(BaseClassifier):
    constant_label: int = 0

    def __post_init__(self) -> None:
        if self.constant_label < 0:
            raise ValueError(f"constant_label must be nonnegative, got {self.constant_label}")

    def labels(self, batch: np.ndarray) -> np.ndarray:
        return np.full(batch.shape[0], self.constant_label, dtype=int)

    @property
    def descriptor(self) -> str:
        return f"constant(label={self.constant_label})"


@dataclass(frozen=True)
class LinearClassifier(BaseClassifier):
    """argmax(W x + b) over flattened inputs; first index wins ties.

    Scores come from numpy's einsum loops rather than BLAS, which makes each
    row's scores the same bits in any batch and keeps BLAS thread pools idle.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D (classes, features), got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match {w.shape[0]} classes")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    def labels(self, batch: np.ndarray) -> np.ndarray:
        return np.argmax(self._scores(batch), axis=1).astype(int)

    def _scores(self, batch: np.ndarray) -> np.ndarray:
        # Each score is one dot product summed in the same order whatever the
        # batch, so any split of the rows is exact: large batches are scored
        # one row chunk per core.
        flat = np.ascontiguousarray(batch.reshape(batch.shape[0], -1), dtype=float)
        rows, features = flat.shape
        if features != self.weights.shape[1]:
            raise ValueError(
                f"input has {features} features, classifier expects {self.weights.shape[1]}"
            )
        scores = np.empty((rows, self.weights.shape[0]))

        def score(lo: int, hi: int) -> None:
            np.einsum("nd,cd->nc", flat[lo:hi], self.weights, out=scores[lo:hi])

        _split(score, rows, features)
        scores += self.bias
        return scores

    @property
    def descriptor(self) -> str:
        return f"linear(classes={self.weights.shape[0]}, features={self.weights.shape[1]})"


def _is_finite_double(value) -> bool:
    """Whether a parsed JSON value is a number that reads as a finite double (not a boolean)."""
    # The comparison also rejects NaN, and an int too large for a double
    # without converting it.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# What each field kind of a manifest takes, and how its error names it.
_KINDS = {
    str: ("str", lambda value: type(value) is str),
    int: ("a finite int", lambda value: _is_finite_double(value) and not value % 1),
    float: ("a finite float", _is_finite_double),
    tuple: ("two finite numbers", lambda v: type(v) is list and len(v) == 2 and all(map(_is_finite_double, v))),
}


def _read_manifest(path, pick: Callable[[dict], Callable]):
    """The object that the JSON manifest at ``path`` describes.

    ``pick(doc)`` gives the constructor, and may pop a tag that it reads.  The
    constructor's parameters are the manifest's fields, each one required,
    and each annotation (or its origin) gives the field's kind: float, int,
    str, or tuple for a pair of numbers.  A number must be a finite double,
    and an int field takes one without a fraction, as the schemas' "integer"
    does.  A file that is no JSON object, a field that the constructor does
    not take, a field that is missing or of another kind, and a value that
    the constructor rejects each raise a ValueError naming the file, and the
    field where the error is about one.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:  # bad JSON, or bytes that are no text
        raise ValueError(f"{path}: not a JSON document: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    make = pick(doc)
    params = inspect.signature(make, eval_str=True).parameters
    kinds = {name: get_origin(param.annotation) or param.annotation for name, param in params.items()}
    unknown = [name for name in doc if name not in kinds]
    if unknown:
        raise ValueError(f"{path}: field {unknown[0]!r} is not one this manifest takes")
    for name, kind in kinds.items():
        wanted, fits = _KINDS[kind]
        if not fits(doc.get(name)):
            raise ValueError(f"{path}: field {name!r} must be {wanted}, got {json.dumps(doc.get(name))}")
    try:
        return make(*(kind(doc[name]) for name, kind in kinds.items()))
    except ValueError as err:  # a range error, named by file and, for a one-field manifest, field
        named = f"field {next(iter(kinds))!r} out of range: " if len(kinds) == 1 else ""
        raise ValueError(f"{path}: {named}{err}") from None


def _linear(directory: Path, weights: str, bias: str, classes: int) -> LinearClassifier:
    classifier = LinearClassifier(read_tensor(directory / weights), read_tensor(directory / bias).reshape(-1))
    if classifier.weights.shape[0] != classes:
        raise ValueError(f"manifest declares {classes} classes, weights have {classifier.weights.shape[0]}")
    return classifier


def _constant(label: int) -> ConstantClassifier:
    return ConstantClassifier(label)


_SYNTHETIC = {"threshold": ThresholdOracle, "constant": _constant}


def load_classifier(manifest_path) -> BaseClassifier:
    """Build a base classifier from a JSON manifest.

    The linear form references MST1 tensors next to the manifest:
    ``{"weights": path, "bias": path, "classes": k}``.  Synthetic classifiers
    use a ``type`` tag instead: ``threshold`` (pixel_value, threshold) or
    ``constant`` (label).
    """

    def pick(spec: dict) -> Callable:
        if "weights" in spec:
            return partial(_linear, Path(manifest_path).parent)
        kind = spec.pop("type", None)
        if not (isinstance(kind, str) and kind in _SYNTHETIC):
            raise ValueError(f"{manifest_path}: unrecognized classifier manifest")
        return _SYNTHETIC[kind]

    return _read_manifest(manifest_path, pick)


@dataclass(frozen=True)
class SmoothingConfig:
    """Two-phase Monte-Carlo protocol parameters.

    ``n0`` draws pick the candidate label, ``n`` fresh draws estimate its
    probability, and the whole mistake budget ``alpha`` is spent on the
    estimation bound.
    """

    n: int
    alpha: float
    dist: SmoothingDistribution = field(default_factory=rayleigh)
    seed: int = 0
    n0: int = 100

    def __post_init__(self) -> None:
        if self.n0 < 10:
            raise ValueError(f"n0 must be >= 10, got {self.n0}")
        if self.n < self.n0:
            raise ValueError(f"n must be >= n0 ({self.n0}), got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        SeededSampler(self.seed)  # the one seed rule


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of one smoothed prediction, plain or realistic.

    The certificate is present iff not abstained, and every abstention names
    its ``reason``; ``adjusted`` holds the realistic pipeline's shifted bounds.
    """

    label: int | None
    pa_lower: float
    certificate: Certificate | None
    counts: SampleCounts | None
    reason: str | None = None
    adjusted: ProbBounds | None = None

    @property
    def abstained(self) -> bool:
        return self.label is None


def _tally(
    base: BaseClassifier, rows: Callable[[int, int], np.ndarray], n: int, width: int, group: int
) -> list[Counter]:
    """Label counts of draws 0..n-1 per group of ``group`` consecutive draws.

    Item g counts the labels of draws g*group..(g+1)*group-1 by label, so it
    grows with the distinct labels seen, never with their values.  ``rows(lo,
    hi)`` builds the inputs of draws lo..hi-1, ``width`` doubles each, one chunk
    at a time: at most one group per usable core (so a row builder can give
    each core one group) and at most ``_TALLY_CAP`` doubles.  Draws are
    addressed by index and labels are row-pure, so the counts are the same for
    any chunking.  Labels other than nonnegative integers raise a ValueError.
    """
    step = max(1, min(_TALLY_CAP // width, group * rng._usable_cores()))
    tallies = [Counter() for _ in range(-(-n // group))]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        labels = np.asarray(base.labels(rows(lo, hi)))
        if labels.shape != (hi - lo,) or labels.dtype.kind not in "iu" or labels.min() < 0:
            raise ValueError(f"labels must be {hi - lo} nonnegative integers, got {labels!r}")
        # one part per group the chunk meets: cut where a group starts
        for g, part in enumerate(np.split(labels, range(group - lo % group, hi - lo, group)), lo // group):
            values, counts = np.unique(part, return_counts=True)
            tallies[g].update(dict(zip(values.tolist(), counts.tolist())))
    return tallies


def _top(tally: Counter) -> tuple[int, int]:
    """The most frequent label of a tally and its count; the lowest label wins ties."""
    return min(tally.items(), key=lambda item: (-item[1], item[0]))


def _bounds(selection: Counter, estimation: Counter, n: int, alpha: float) -> tuple[int, SampleCounts, float, float]:
    """The label, count and bound pair that the votes of a smoothed decision give.

    The label is the top of ``selection`` (:func:`_top`); its count is taken
    among the ``n`` draws that ``estimation`` tallies, which may be the same
    tally.  pa_lower is that count's Clopper-Pearson lower bound at level
    1 - alpha, and pb_upper = 1 - pa_lower is the trivial runner-up bound.
    Each caller applies its own rule to the bounds.
    """
    label, _ = _top(selection)
    counts = SampleCounts(estimation[label], n)
    pa_lower = clopper_pearson(counts, alpha, Side.LOWER)
    return label, counts, pa_lower, 1.0 - pa_lower


def _factor_tally(base, arr, dist, sampler, n, transform) -> Counter:
    """Label counts of ``transform(arr, factors)`` over n draws of ``dist`` from ``sampler``: one :func:`_tally` group."""
    return _tally(base, lambda lo, hi: transform(arr, dist.sample(sampler, hi - lo, lo)), n, arr.size, n)[0]


def smoothed_predict_certify(
    base: BaseClassifier,
    x: np.ndarray,
    cfg: SmoothingConfig,
    transform: Callable[[np.ndarray, np.ndarray], np.ndarray] = gamma_correct_batch,
) -> PredictionResult:
    """Predict and certify in one pass, abstaining below the 1/2 bound.

    Phase 1 votes with ``cfg.n0`` draws; phase 2 re-estimates the winner on
    ``cfg.n`` fresh draws and converts the Clopper-Pearson lower bound into a
    certificate with the trivial runner-up estimate, using the interval rule
    that matches ``cfg.dist``.  All draws derive from ``cfg.seed``, so reruns
    reproduce the result bit-for-bit.
    """
    arr = validate_image(x)
    sampler = SeededSampler(cfg.seed)
    selection = _factor_tally(base, arr, cfg.dist, sampler.stream(_SELECTION_STREAM), cfg.n0, transform)
    estimation = _factor_tally(base, arr, cfg.dist, sampler.stream(_ESTIMATION_STREAM), cfg.n, transform)
    candidate, counts, pa_lower, pb_upper = _bounds(selection, estimation, cfg.n, cfg.alpha)
    if pa_lower <= 0.5:
        return PredictionResult(None, pa_lower, None, counts, reason=f"pa_lower={pa_lower} <= 1/2")
    outcome = certify_for(cfg.dist, ProbBounds(pa_lower, pb_upper, 1.0 - cfg.alpha))
    if isinstance(outcome, Abstain):
        return PredictionResult(None, pa_lower, None, counts, reason=outcome.reason)
    return PredictionResult(candidate, pa_lower, outcome, counts)


@dataclass(frozen=True)
class SmoothedClassifier:
    """Prediction-only handle over the smoothed classifier, for sweeps.

    :meth:`predict` is a pure function of the seed and the query index it is
    given: each index draws from its own sample stream, so a sweep that
    numbers its queries is deterministic end to end while successive queries
    stay independent, and queries may run on any thread in any order.
    """

    base: BaseClassifier
    cfg: SmoothingConfig

    def predict(self, x: np.ndarray, index: int) -> int | None:
        """Modal label of query ``index`` under ``cfg.n`` draws, or None when not confidently above 1/2."""
        arr = np.asarray(x, dtype=float)
        sampler = SeededSampler(self.cfg.seed, _PREDICT_STREAM_BASE + index)
        tally = _factor_tally(self.base, arr, self.cfg.dist, sampler, self.cfg.n, gamma_correct_batch)
        candidate, _, pa_lower, _ = _bounds(tally, tally, self.cfg.n, self.cfg.alpha)
        return candidate if pa_lower > 0.5 else None


def empirical_sweep(
    predict: Callable[[np.ndarray, int], int | None],
    x: np.ndarray,
    step: float,
    gamma_max: float,
) -> tuple[float, float] | None:
    """Walk the attack factor away from 1 until the prediction changes.

    Upward in additive increments of ``step`` to ``gamma_max``, downward in
    the same increments to a floor of ``step``; both ends are the last factor
    at which the prediction still matched the factor-1 label; both limits are
    finite, so the walk ends even where the prediction never changes.  Returns
    None when the clean prediction abstains.  ``predict(x, index)`` gets a
    running query index: 0 at factor 1, then in walk order, upward first.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not 1.0 < gamma_max < math.inf:
        raise ValueError(f"gamma_max must be finite and exceed 1, got {gamma_max}")
    arr = validate_image(x)
    queries = itertools.count()

    def predict_at(gamma: float) -> int | None:
        return predict(gamma_correct_batch(arr, np.array([gamma]))[0], next(queries))

    label0 = predict_at(1.0)
    if label0 is None:
        return None

    def last_kept(factors) -> float:  # the factor before the first whose label differs, or 1
        kept = 1.0
        for gamma in factors:
            if predict_at(gamma) != label0:
                break
            kept = gamma
        return kept

    # upward while the previous factor was below gamma_max; downward while at least the floor
    up = itertools.takewhile(lambda k: 1.0 + (k - 1) * step < gamma_max, itertools.count(1))
    right = last_kept(min(1.0 + k * step, gamma_max) for k in up)
    down = (1.0 - k * step for k in itertools.count(1))
    return last_kept(itertools.takewhile(lambda gamma: gamma >= step - 1e-12, down)), right


def exact_oracle_probability(
    oracle: ThresholdOracle, attack_gamma: float, dist: SmoothingDistribution
) -> float:
    """Ground-truth smoothed top-class probability for the threshold oracle.

    Under attack ``gamma`` the smoothed pixel is pixel**(beta*gamma), so the
    top class wins iff beta <= beta*/gamma with beta* = ln t / ln pixel.
    """
    if not attack_gamma > 0.0:
        raise ValueError(f"attack_gamma must be positive, got {attack_gamma}")
    beta_star = np.log(oracle.threshold) / np.log(oracle.pixel_value)
    return float(dist.cdf(beta_star / attack_gamma))
