"""Multiplicatively composable image transforms and 8-bit conversion error.

Images are plain float arrays with entries in [0, 1].  The power transform
composes multiplicatively in its exponent; once each intermediate result is
re-quantized to 8 bits per channel that composition breaks, and
:func:`conversion_error` measures by how much, one norm per attack factor.
Also here: the binary tensor file format used by the CLI and the classifier
loaders.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "TensorFormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "OutOfRangeError",
    "validate_image",
    "gamma_correct",
    "gamma_correct_batch",
    "conversion_error",
    "read_tensor",
    "write_tensor",
]

_MAGIC = b"MST1"
_MAX_NDIM = 32


class TensorFormatError(ValueError):
    """Base class for tensor-file parse failures."""


class BadMagicError(TensorFormatError):
    """File does not start with the MST1 magic bytes."""


class TruncatedPayloadError(TensorFormatError):
    """Header or payload size does not match the declared dimensions."""


class OutOfRangeError(TensorFormatError):
    """Tensor entries fall outside [0, 1]."""


def validate_image(x) -> np.ndarray:
    """Coerce to a float array and check every entry lies in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("image tensor must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image tensor entries must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise OutOfRangeError(
            f"image tensor entries must lie in [0, 1], found range "
            f"[{arr.min():.6g}, {arr.max():.6g}]"
        )
    return arr


def gamma_correct(x, gamma: float) -> np.ndarray:
    """Elementwise power transform x ** gamma; preserves shape and [0, 1] range."""
    if not gamma > 0.0:
        raise ValueError(f"gamma factor must be positive, got {gamma}")
    return validate_image(x) ** gamma


def gamma_correct_batch(x, factors: np.ndarray) -> np.ndarray:
    """Apply one power factor per row: result[i] = x ** factors[i].

    Returns shape ``(len(factors),) + x.shape``.  The batched form is what the
    smoothing runtime uses to evaluate a chunk of Monte-Carlo draws at once.
    """
    arr = validate_image(x)
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 1:
        raise ValueError(f"factors must be one-dimensional, got shape {factors.shape}")
    if not np.all(factors > 0.0):
        raise ValueError("all factors must be positive")
    return arr[np.newaxis, ...] ** factors.reshape((-1,) + (1,) * arr.ndim)


def _snap8(a: np.ndarray) -> np.ndarray:
    """Snap entries to the 8-bit grid k/255 in place, rounding halves away from zero.

    ``a`` must already lie in [0, 1].  Idempotent; the rounding rule matters
    because conversion-error values depend on it (entries are nonnegative, so
    away-from-zero is floor(v+1/2)).
    """
    a *= 255.0
    a += 0.5
    np.floor(a, out=a)
    a /= 255.0
    return a


def conversion_error(x, beta: float, gammas) -> np.ndarray:
    """l2 magnitude of the 8-bit conversion error, one norm per attack factor.

    The quantized path stores the attacked image at 8 bits, applies the
    smoothing factor, and stores again: q(q(x^gamma)^beta).  The reference is
    the unquantized composite x^(beta*gamma).  ``gammas`` is a 1-D array of
    attack factors; the result has the same length.  One image-sized buffer
    serves every factor, so memory is a few images for any number of them.
    """
    if not beta > 0.0:
        raise ValueError(f"smoothing factor must be positive, got {beta}")
    rows = np.asarray(gammas, dtype=float)
    if rows.ndim != 1 or not np.all(rows > 0.0):
        raise ValueError(f"attack factors must be a 1-D array of positive values, got {gammas!r}")
    arr = validate_image(x)
    buf = np.empty_like(arr)
    norms = np.empty(rows.size)
    # One scalar exponent per call: numpy takes x ** 0.5 as sqrt(x) and
    # x ** 2.0 as x * x only for a scalar exponent, so a broadcast exponent
    # array can differ in the last bit.
    for i, g in enumerate(rows):
        _snap8(np.power(arr, g, out=buf))
        _snap8(np.power(buf, beta, out=buf))
        buf -= np.power(arr, beta * g)
        norms[i] = np.linalg.norm(buf)
    return norms


def write_tensor(x, path) -> None:
    """Write a [0, 1] tensor in the MST1 format.

    Layout (little-endian): magic ``MST1``, u32 ndim, ndim x u32 dims, then
    product(dims) x f64 row-major entries.
    """
    arr = validate_image(x)
    if not 1 <= arr.ndim <= _MAX_NDIM:
        raise TensorFormatError(f"{path}: MST1 holds 1 to {_MAX_NDIM} dimensions, got {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read an MST1 tensor; round-trips :func:`write_tensor` bit-exactly."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != _MAGIC:
        raise BadMagicError(f"{path}: not an MST1 file (bad or missing magic)")
    if len(data) < 8:
        raise TruncatedPayloadError(f"{path}: header cut short before ndim")
    (ndim,) = struct.unpack_from("<I", data, 4)
    if not 1 <= ndim <= _MAX_NDIM:
        raise TruncatedPayloadError(f"{path}: implausible ndim {ndim}")
    header_end = 8 + 4 * ndim
    if len(data) < header_end:
        raise TruncatedPayloadError(f"{path}: header cut short before dims")
    dims = struct.unpack_from(f"<{ndim}I", data, 8)
    if any(d == 0 for d in dims):
        raise TruncatedPayloadError(f"{path}: zero-sized dimension in {dims}")
    count = math.prod(dims)  # Python integers: a fixed-width product can wrap to a small count
    expected = header_end + 8 * count
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(data) - header_end} bytes, expected {8 * count}"
        )
    arr = np.frombuffer(data, dtype="<f8", offset=header_end, count=count).reshape(dims)
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise OutOfRangeError(f"{path}: entries outside [0, 1]")
    return arr.astype(float, copy=True)

