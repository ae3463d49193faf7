"""Smoothing distributions over multiplicative factors.

All laws here have strictly positive support: the Rayleigh family used for
direct multiplicative smoothing, its reciprocal, and log-space wrappers of the
usual symmetric laws (Gaussian, Laplace, uniform) taken in base e, used as
comparison baselines.  Each exposes an exact CDF and quantile, plus seeded
inverse-CDF sampling via :class:`~smoothcert.rng.SeededSampler`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .rng import SeededSampler

__all__ = [
    "RayleighParams",
    "Kind",
    "SmoothingDistribution",
    "rayleigh",
    "inverse_rayleigh",
    "log_gaussian",
    "log_laplace",
    "log_uniform",
]


@dataclass(frozen=True)
class RayleighParams:
    """Scale parameter of a Rayleigh law (dimensionless multiplicative units)."""

    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")

    @classmethod
    def unit_median(cls) -> "RayleighParams":
        """Scale placing the median sigma * sqrt(2 ln 2) at 1, the default centering."""
        return cls(1.0 / math.sqrt(2.0 * math.log(2.0)))

    @classmethod
    def unit_mean(cls) -> "RayleighParams":
        """Scale placing the mean sigma * sqrt(pi / 2) at 1."""
        return cls(math.sqrt(2.0 / math.pi))


class Kind(enum.Enum):
    RAYLEIGH = "rayleigh"
    INVERSE_RAYLEIGH = "inverse-rayleigh"
    LOG_GAUSSIAN = "log-gaussian"
    LOG_LAPLACE = "log-laplace"
    LOG_UNIFORM = "log-uniform"

    @property
    def log_space(self) -> bool:
        """True for the laws of exp(A), A a symmetric additive law."""
        return self in (Kind.LOG_GAUSSIAN, Kind.LOG_LAPLACE, Kind.LOG_UNIFORM)


@dataclass(frozen=True)
class SmoothingDistribution:
    """A one-parameter positive-support smoothing law.

    ``scale`` is the Rayleigh sigma for the Rayleigh kinds, and the scale of
    the underlying additive law (standard deviation, Laplace scale, or support
    half-width) for the log-space kinds, whose logarithm is the natural one.
    """

    kind: Kind
    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")

    @property
    def descriptor(self) -> str:
        if self.kind.log_space:
            return f"{self.kind.value}(scale={self.scale:g}, base={math.e:g})"
        return f"{self.kind.value}(sigma={self.scale:g})"

    def cdf(self, z):
        """P(Z <= z) for every z, at any scale: 0 below the support, 1 at +inf."""
        z_arr = np.maximum(np.asarray(z, dtype=float), 0.0)
        # at z = 0, 1/0 = inf and log(0) = -inf, and overflow gives inf: the arithmetic takes each limit
        with np.errstate(divide="ignore", over="ignore"):
            if self.kind is Kind.RAYLEIGH:
                out = -np.expm1(-0.5 * np.square(z_arr / self.scale))
            elif self.kind is Kind.INVERSE_RAYLEIGH:
                out = np.exp(-0.5 * np.square(1.0 / (self.scale * z_arr)))
            else:
                out = self._additive_cdf(np.log(z_arr))
        return float(out) if np.isscalar(z) else out

    def quantile(self, p):
        """Inverse CDF on [0, 1); exact inverse of :meth:`cdf` on the support interior."""
        p_arr = np.asarray(p, dtype=float)
        if not np.all((p_arr >= 0.0) & (p_arr < 1.0)):
            raise ValueError("quantile requires 0 <= p < 1")
        # log(0) = -inf carries p = 0 to the lower end of the support, and overflow is inf
        with np.errstate(divide="ignore", over="ignore"):
            if self.kind is Kind.RAYLEIGH:
                out = self.scale * np.sqrt(-2.0 * np.log1p(-p_arr))
            elif self.kind is Kind.INVERSE_RAYLEIGH:
                out = 1.0 / (self.scale * np.sqrt(-2.0 * np.log(p_arr)))
            else:
                # np.power, not np.exp: the two differ in the last bit, which would move every draw
                out = np.power(math.e, self._additive_quantile(p_arr))
        return float(out) if np.isscalar(p) else out

    def sample(self, sampler: SeededSampler, count: int, start: int = 0) -> np.ndarray:
        """``count`` i.i.d. draws at absolute draw indices ``start..``.

        Inverse-CDF transform of the sampler's uniform stream, so the result
        is a pure function of ``(sampler.seed, sampler.stream_index, start)``.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self.quantile(sampler.uniforms(count, start))

    # Underlying symmetric additive laws (zero-centered, scale = self.scale).

    def _additive_cdf(self, a: np.ndarray) -> np.ndarray:
        s = self.scale
        if self.kind is Kind.LOG_GAUSSIAN:
            return ndtr(a / s)
        if self.kind is Kind.LOG_LAPLACE:
            return np.where(a < 0.0, 0.5 * np.exp(a / s), 1.0 - 0.5 * np.exp(-a / s))
        return np.clip((a + s) / (2.0 * s), 0.0, 1.0)

    def _additive_quantile(self, p: np.ndarray) -> np.ndarray:
        s = self.scale
        if self.kind is Kind.LOG_GAUSSIAN:
            return s * ndtri(p)
        if self.kind is Kind.LOG_LAPLACE:
            return np.where(p < 0.5, s * np.log(2.0 * p), -s * np.log1p(1.0 - 2.0 * p))
        return s * (2.0 * p - 1.0)


def rayleigh(params: RayleighParams | None = None) -> SmoothingDistribution:
    """Rayleigh smoothing law, unit-median scale by default."""
    params = params or RayleighParams.unit_median()
    return SmoothingDistribution(Kind.RAYLEIGH, params.sigma)


def inverse_rayleigh(params: RayleighParams | None = None) -> SmoothingDistribution:
    """Reciprocal-Rayleigh law: the distribution of 1/beta."""
    params = params or RayleighParams.unit_median()
    return SmoothingDistribution(Kind.INVERSE_RAYLEIGH, params.sigma)


def log_gaussian(scale: float = 1.0) -> SmoothingDistribution:
    return SmoothingDistribution(Kind.LOG_GAUSSIAN, scale)


def log_laplace(scale: float = 1.0) -> SmoothingDistribution:
    return SmoothingDistribution(Kind.LOG_LAPLACE, scale)


def log_uniform(scale: float = 1.0) -> SmoothingDistribution:
    return SmoothingDistribution(Kind.LOG_UNIFORM, scale)
