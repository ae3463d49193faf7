"""Multiplicatively composable image transforms and 8-bit conversion error.

Images are plain float arrays with entries in [0, 1].  The power transform
composes multiplicatively in its exponent; once each intermediate result is
re-quantized to 8 bits per channel that composition breaks, and
:func:`conversion_error` measures by how much.  Also here: the binary tensor
file format used by the CLI and the classifier loaders.
"""

from __future__ import annotations

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
    "quantize8",
    "conversion_error",
    "conversion_error_diff",
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
    if np.any(factors <= 0.0):
        raise ValueError("all factors must be positive")
    return arr[np.newaxis, ...] ** factors.reshape((-1,) + (1,) * arr.ndim)


def quantize8(x) -> np.ndarray:
    """Snap entries to the 8-bit grid k/255, rounding halves away from zero.

    Idempotent; the rounding rule matters because conversion-error values
    depend on it (entries are nonnegative, so away-from-zero is floor(v+1/2)).
    """
    return _snap8(validate_image(x).copy())


def _snap8(a: np.ndarray) -> np.ndarray:
    """:func:`quantize8` in place on an array already known to lie in [0, 1]."""
    a *= 255.0
    a += 0.5
    np.floor(a, out=a)
    a /= 255.0
    return a


def conversion_error_diff(x, beta: float, gamma) -> np.ndarray:
    """Raw difference between the 8-bit transform path and the ideal composite.

    The quantized path stores the attacked image at 8 bits, applies the
    smoothing factor, and stores again: q(q(x^gamma)^beta).  The reference is
    the unquantized composite x^(beta*gamma).  A 1-D array of attack factors
    ``gamma`` gives one row per factor, shape ``(len(gamma),) + x.shape``.
    """
    if not beta > 0.0:
        raise ValueError(f"smoothing factor must be positive, got {beta}")
    factors = np.asarray(gamma, dtype=float)
    rows = np.atleast_1d(factors)
    if rows.ndim != 1 or np.any(rows <= 0.0):
        raise ValueError(f"attack factors must be positive, as a scalar or 1-D array, got {gamma!r}")
    arr = validate_image(x)
    # One scalar exponent per row: numpy takes x ** 0.5 as sqrt(x) and
    # x ** 2.0 as x * x only for a scalar exponent, so a broadcast exponent
    # array can differ in the last bit.
    diff = np.empty((rows.size,) + arr.shape)
    for row, g in zip(diff, rows):
        np.power(arr, g, out=row)
    _snap8(diff)
    np.power(diff, beta, out=diff)
    _snap8(diff)
    for row, g in zip(diff, rows):
        row -= np.power(arr, beta * g)
    return diff if factors.ndim else diff[0]


def conversion_error(x, beta: float, gamma):
    """l2 magnitude of the 8-bit conversion error for factors (beta, gamma).

    A 1-D array of attack factors gives an array with one norm per factor.
    """
    diff = conversion_error_diff(x, beta, gamma)
    if np.ndim(gamma) == 0:
        return float(np.linalg.norm(diff))
    return np.array([np.linalg.norm(row) for row in diff])


def write_tensor(x, path) -> None:
    """Write a [0, 1] tensor in the MST1 format.

    Layout (little-endian): magic ``MST1``, u32 ndim, ndim x u32 dims, then
    product(dims) x f64 row-major entries.
    """
    arr = validate_image(x)
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
    count = int(np.prod(dims, dtype=np.int64))
    expected = header_end + 8 * count
    if len(data) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(data) - header_end} bytes, expected {8 * count}"
        )
    arr = np.frombuffer(data, dtype="<f8", offset=header_end, count=count).reshape(dims)
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise OutOfRangeError(f"{path}: entries outside [0, 1]")
    return arr.astype(float, copy=True)

