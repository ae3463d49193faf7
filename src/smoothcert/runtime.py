"""Monte-Carlo smoothed classification over multiplicative factors.

The smoothed classifier draws random power factors, evaluates the base
classifier on every transformed copy of the input, and certifies the modal
label from exact binomial confidence bounds, abstaining when the lower bound
does not clear 1/2.  One vote tally labels the transformed copies in chunks
of at most 32 MB, so memory stays flat in the sample count, and the counts are
the same for any chunking.

Shipped base classifiers are synthetic and analytic on purpose — the
single-pixel threshold rule admits an exact smoothed probability, making it
the ground-truth oracle the test suite certifies against.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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
    "HashLabelClassifier",
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

    A row's label depends only on that row, bit for bit: it is the same for
    any batch size the row arrives in and any BLAS thread count, so callers
    may label the draw-index range in chunks of any size.  Implementations
    must be safe for concurrent evaluation; all the shipped ones are
    stateless.
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
class HashLabelClassifier(BaseClassifier):
    """Labels from a content hash: deterministic but uniformly scattered."""

    num_classes: int = 10

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    def labels(self, batch: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(batch.reshape(batch.shape[0], -1), dtype="<f8")
        out = np.empty(batch.shape[0], dtype=int)
        for i, row in enumerate(flat):
            digest = hashlib.blake2b(row.tobytes(), digest_size=8).digest()
            out[i] = int.from_bytes(digest, "little") % self.num_classes
        return out

    @property
    def descriptor(self) -> str:
        return f"hash(classes={self.num_classes})"


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


def _fields(doc, source, **kinds: type) -> list:
    """The named fields of the JSON manifest ``doc`` read from ``source``, as float, int or str.

    A number must be a finite double, and an int field takes one without a
    fraction, as the schemas' "integer" does.  A ``doc`` that is no object, or
    a field that is missing, null, a boolean, non-finite, out of double range
    or of another kind, raises a ValueError naming ``source`` and the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: expected a JSON object")
    for name, kind in kinds.items():
        value = doc.get(name)
        fits = type(value) is str if kind is str else _is_finite_double(value)
        if not fits or kind is int and value % 1:
            wanted = "str" if kind is str else f"a finite {kind.__name__}"
            raise ValueError(f"{source}: field {name!r} must be {wanted}, got {json.dumps(value)}")
    return [kind(doc[name]) for name, kind in kinds.items()]


def load_classifier(manifest_path) -> BaseClassifier:
    """Build a base classifier from a JSON manifest.

    The linear form references MST1 tensors next to the manifest:
    ``{"weights": path, "bias": path, "classes": k}``.  Synthetic classifiers
    use a ``type`` tag instead: ``threshold`` (pixel_value, threshold),
    ``constant`` (label) or ``hash`` (classes).
    """
    manifest_path = Path(manifest_path)
    spec = json.loads(manifest_path.read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"{manifest_path}: expected a JSON object")
    if "weights" in spec:
        weights_file, bias_file, classes = _fields(spec, manifest_path, weights=str, bias=str, classes=int)
        weights = read_tensor(manifest_path.parent / weights_file)
        bias = read_tensor(manifest_path.parent / bias_file)
        classifier = LinearClassifier(weights, bias.reshape(-1))
        if classifier.weights.shape[0] != classes:
            raise ValueError(
                f"{manifest_path}: manifest declares {classes} classes, "
                f"weights have {classifier.weights.shape[0]}"
            )
        return classifier
    kind = spec.get("type")
    if kind == "threshold":
        return ThresholdOracle(*_fields(spec, manifest_path, pixel_value=float, threshold=float))
    if kind == "constant":
        return ConstantClassifier(*_fields(spec, manifest_path, label=int))
    if kind == "hash":
        return HashLabelClassifier(*_fields(spec, manifest_path, classes=int))
    raise ValueError(f"{manifest_path}: unrecognized classifier manifest")


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
) -> np.ndarray:
    """Label counts of draws 0..n-1 per group of ``group`` consecutive draws.

    Row g of the result counts the labels of draws g*group..(g+1)*group-1,
    indexed by label.  ``rows(lo, hi)`` builds the inputs of draws lo..hi-1,
    ``width`` doubles each; they are built and labelled one chunk at a time,
    of at most one group per usable core (so a row builder can give each core
    one group) and at most ``_TALLY_CAP`` doubles.  Draws are addressed by
    index and labels are row-pure, so the counts are the same for any
    chunking.
    """
    step = max(1, min(_TALLY_CAP // width, group * rng._usable_cores()))
    groups = -(-n // group)
    counts = np.zeros((groups, 0), dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        labels = np.asarray(base.labels(rows(lo, hi)))
        classes = max(counts.shape[1], int(labels.max()) + 1)
        slots = np.arange(lo, hi) // group * classes + labels
        chunk = np.bincount(slots, minlength=groups * classes).reshape(groups, classes)
        chunk[:, : counts.shape[1]] += counts
        counts = chunk
    return counts


def _factor_tally(base, arr, dist, sampler, n, transform) -> np.ndarray:
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
    candidate = int(np.argmax(selection))  # ties resolve to the lowest class index
    estimation = _factor_tally(base, arr, cfg.dist, sampler.stream(_ESTIMATION_STREAM), cfg.n, transform)
    counts = SampleCounts(int(estimation[candidate]) if candidate < estimation.size else 0, cfg.n)

    pa_lower = clopper_pearson(counts, cfg.alpha, Side.LOWER)
    if pa_lower <= 0.5:
        return PredictionResult(None, pa_lower, None, counts, reason=f"pa_lower={pa_lower} <= 1/2")
    outcome = certify_for(cfg.dist, ProbBounds.with_trivial_pb(pa_lower, 1.0 - cfg.alpha))
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
    transform: Callable[[np.ndarray, np.ndarray], np.ndarray] = gamma_correct_batch

    def predict(self, x: np.ndarray, index: int) -> int | None:
        """Modal label of query ``index`` under ``cfg.n`` draws, or None when not confidently above 1/2."""
        arr = np.asarray(x, dtype=float)
        sampler = SeededSampler(self.cfg.seed, _PREDICT_STREAM_BASE + index)
        votes = _factor_tally(self.base, arr, self.cfg.dist, sampler, self.cfg.n, self.transform)
        candidate = int(np.argmax(votes))
        pa_lower = clopper_pearson(SampleCounts(int(votes[candidate]), self.cfg.n), self.cfg.alpha, Side.LOWER)
        return candidate if pa_lower > 0.5 else None


def empirical_sweep(
    predict: Callable[[np.ndarray, int], int | None],
    x: np.ndarray,
    step: float,
    gamma_max: float,
    expected_label: int | None = None,
    transform: Callable[[np.ndarray, np.ndarray], np.ndarray] = gamma_correct_batch,
) -> tuple[float, float] | None:
    """Walk the attack factor away from 1 until the prediction changes.

    Upward in additive increments of ``step`` to ``gamma_max``, downward in
    the same increments to a floor of ``step``; both ends are the last factor
    at which the prediction still matched the factor-1 label.  Returns None
    when the clean prediction is already wrong (or abstains).  ``predict(x,
    index)`` gets a running query index: 0 at factor 1, then in walk order.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if not gamma_max > 1.0:
        raise ValueError(f"gamma_max must exceed 1, got {gamma_max}")
    arr = validate_image(x)
    queries = itertools.count()

    def predict_at(gamma: float) -> int | None:
        return predict(transform(arr, np.array([gamma]))[0], next(queries))

    label0 = predict_at(1.0)
    if label0 is None or (expected_label is not None and label0 != expected_label):
        return None

    right = 1.0
    k = 1
    while True:
        gamma = min(1.0 + k * step, gamma_max)
        if predict_at(gamma) != label0:
            break
        right = gamma
        if gamma >= gamma_max:
            break
        k += 1

    left = 1.0
    k = 1
    while True:
        gamma = 1.0 - k * step
        if gamma < step - 1e-12:
            break
        if predict_at(gamma) != label0:
            break
        left = gamma
        k += 1

    return left, right


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
