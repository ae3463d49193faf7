import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothcert import (
    BadMagicError,
    OutOfRangeError,
    TensorFormatError,
    TruncatedPayloadError,
    conversion_error,
    gamma_correct,
    gamma_correct_batch,
    read_tensor,
    validate_image,
    write_tensor,
)
from smoothcert.transforms import _snap8


def quantize8(x) -> np.ndarray:
    """The 8-bit snap on a validated copy of ``x``."""
    return _snap8(validate_image(x).copy())


unit_arrays = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestGammaCorrect:
    def test_identity(self):
        x = np.array([0.0, 0.2, 0.5, 1.0])
        assert np.array_equal(gamma_correct(x, 1.0), x)

    def test_square_root(self):
        assert gamma_correct(np.array([0.25]), 0.5)[0] == 0.5

    def test_two_step_equals_single(self):
        x = np.array([0.5])
        twice = gamma_correct(gamma_correct(x, 2.0), 0.5)
        assert np.array_equal(twice, gamma_correct(x, 1.0))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            gamma_correct(np.array([0.5]), 0.0)

    def test_rejects_out_of_range_input(self):
        with pytest.raises(OutOfRangeError):
            gamma_correct(np.array([1.5]), 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            gamma_correct(np.array([]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            gamma_correct(np.array([0.5, math.nan]), 1.0)

    def test_batch_rejects_nan_and_takes_the_limit_at_inf(self):
        # one positivity rule with the scalar form: NaN is no positive factor
        with pytest.raises(ValueError):
            gamma_correct(np.array([0.5]), math.nan)
        with pytest.raises(ValueError):
            gamma_correct_batch(np.array([0.5]), np.array([1.2, math.nan]))
        with pytest.raises(ValueError, match="one-dimensional"):
            gamma_correct_batch(np.array([0.5]), np.array([[1.2, 0.8]]))
        assert gamma_correct_batch(np.array([0.5, 1.0]), np.array([math.inf])).tolist() == [[0.0, 1.0]]

    def test_composability_over_random_factors(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.uniform(0.0, 1.0, size=(4, 4))
            b, g = rng.uniform(0.1, 10.0, size=2)
            direct = gamma_correct(x, b * g)
            composed = gamma_correct(gamma_correct(x, g), b)
            assert np.max(np.abs(composed - direct)) <= 1e-12

    @given(unit_arrays, st.floats(min_value=0.1, max_value=10.0))
    def test_stays_in_unit_interval_and_order_preserving(self, x, g):
        out = gamma_correct(x, g)
        assert out.min() >= 0.0 and out.max() <= 1.0
        flat = np.sort(x.ravel())
        assert np.all(np.diff(flat**g) >= 0)

    def test_batch_matches_scalar(self):
        x = np.array([[0.2, 0.7], [0.4, 0.9]])
        factors = np.array([0.5, 1.0, 2.3])
        batch = gamma_correct_batch(x, factors)
        assert batch.shape == (3, 2, 2)
        for i, f in enumerate(factors):
            assert np.array_equal(batch[i], gamma_correct(x, f))


class TestQuantize8:
    def test_grid_fixed_point(self):
        assert quantize8(np.array([51.0 / 255.0]))[0] == 51.0 / 255.0

    def test_half_rounds_away_from_zero(self):
        # 0.5 * 255 = 127.5 -> 128
        assert quantize8(np.array([0.5]))[0] == 128.0 / 255.0

    @given(unit_arrays)
    def test_idempotent(self, x):
        once = quantize8(x)
        assert np.array_equal(quantize8(once), once)

    @given(unit_arrays)
    def test_error_at_most_half_step(self, x):
        assert np.max(np.abs(quantize8(x) - x)) <= 1.0 / 510.0 + 1e-12


class TestConversionError:
    def test_binary_tensors_are_exact(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for beta, gamma in [(0.5, 2.0), (3.0, 0.2), (1.0, 1.0)]:
            assert conversion_error(x, beta, [gamma]).tolist() == [0.0]

    def test_grid_point_with_identity_factors(self):
        assert conversion_error(np.array([51.0 / 255.0]), 1.0, [1.0]).tolist() == [0.0]

    def test_hand_traced_value(self):
        # 0.25 -> 0.0625 -> 16/255 -> sqrt -> 64/255 against ideal 0.25
        (err,) = conversion_error(np.array([0.25]), beta=0.5, gammas=[2.0])
        assert abs(err - 0.25 / 255.0) < 1e-15

    def test_bounded_by_sqrt_length(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
            (err,) = conversion_error(x, rng.uniform(0.2, 5.0), [rng.uniform(0.2, 5.0)])
            assert err <= np.sqrt(x.size)


    def test_factor_array_matches_scalar_path(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(0.0, 1.0, size=(3, 5, 4))
        # endpoints 0.5 and 2.0 hit numpy's special-cased scalar powers
        factors = np.concatenate([np.linspace(0.5, 2.0, 7), rng.uniform(0.2, 5.0, 5)])
        for beta in (0.5, 0.83, 1.0, 2.0):
            norms = conversion_error(x, beta, factors)
            assert norms.shape == factors.shape
            for norm, gamma in zip(norms, factors):
                g = float(gamma)
                stored = quantize8(gamma_correct(quantize8(gamma_correct(x, g)), beta))
                reference = stored - gamma_correct(x, beta * g)
                assert norm == conversion_error(x, beta, [g])[0] == float(np.linalg.norm(reference))

    def test_factor_array_validation(self):
        x = np.array([0.2, 1.0])
        for gammas in (np.ones((2, 2)), np.array([1.1, 0.0]), [1.1, math.nan], 1.1, np.array(1.1)):
            with pytest.raises(ValueError):
                conversion_error(x, 0.9, gammas)
        for beta in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="smoothing factor must be positive"):
                conversion_error(x, beta, [1.1])
        # x ** inf is 0 below 1 and 1 at 1 on both paths
        assert conversion_error(x, 0.9, [math.inf]).tolist() == [0.0]


@pytest.mark.parametrize(
    "seed, shape, grid, digest",
    [
        (11, (5,), (0.5, 2.0, 16), "f07e65081ec295ee2d86ed8a188ce745182ee271754097525f35aced83cfaed0"),
        (12, (5,), (0.71, 1.33, 64), "e1750bc1ac2fbdc2fbfda3bfdf9970a56bd1846c02b7f529f79dff223e51528d"),
        (13, (3, 8, 8), (0.5, 2.0, 16), "f09185dc1e72ffce4074fc5bc8c289a0d519fc7b3d1e57be9031df3cfff9d9c4"),
        (14, (3, 8, 8), (0.71, 1.33, 64), "3d2faec6a4c2c075247b33e5ee6fe1be34f00a67b020ed9b21810cb796f53660"),
        (15, (3, 32, 32), (0.5, 2.0, 16), "d8a4dbb5fe7a110672204be737bec175c1485026dd9221b4a6c7ce901fae572d"),
        (16, (3, 32, 32), (0.71, 1.33, 64), "0ef4007dcec1c4fcc0cc8c44160c5d01ef4c878251fa3f3870513adac3b9dd73"),
    ],
)
def test_conversion_error_is_golden(seed, shape, grid, digest):
    # sha256 of the float64 norms for four smoothing factors, recorded with
    # numpy 2.4; any rewrite of the grid walk must keep every bit.
    x = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
    factors = np.linspace(*grid)
    norms = np.concatenate([conversion_error(x, beta, factors) for beta in (0.37, 0.83, 1.0, 2.0)])
    assert hashlib.sha256(norms.tobytes()).hexdigest() == digest


def test_conversion_error_memory_is_flat_in_the_factors():
    # one image-sized buffer whatever the number of attack factors; a
    # (factors x pixels) array would grow 98 KB a factor on this image
    x = np.random.default_rng(17).uniform(0.0, 1.0, (3, 64, 64))
    peaks = {}
    for count in (16, 1024):
        factors = np.linspace(0.5, 2.0, count)
        tracemalloc.start()
        try:
            conversion_error(x, 0.83, factors)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[1024] - peaks[16]) / (1024 - 16) < 24


class TestTensorFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(5,), (3, 4), (2, 3, 4)]:
            x = rng.uniform(0.0, 1.0, size=shape)
            path = tmp_path / f"t{len(shape)}.mst1"
            write_tensor(x, path)
            back = read_tensor(path)
            assert back.shape == x.shape
            assert np.array_equal(back, x)

    def test_writer_keeps_the_readers_ndim_rule(self, tmp_path):
        x = np.full((1,) * 32, 0.25)
        write_tensor(x, tmp_path / "d32.mst1")
        back = read_tensor(tmp_path / "d32.mst1")
        assert back.shape == x.shape and np.array_equal(back, x)
        for ndim in (0, 33):
            path = tmp_path / f"d{ndim}.mst1"
            with pytest.raises(TensorFormatError, match=f"1 to 32 dimensions, got {ndim}"):
                write_tensor(np.zeros((1,) * ndim), path)
            assert not path.exists()

    def test_empty_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "empty.mst1"
        path.write_bytes(b"")
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "wrong.mst1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.mst1"
        write_tensor(np.array([0.1, 0.2, 0.3]), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"\x01\x00", "before ndim"),
            (struct.pack("<I", 0), "implausible ndim 0"),
            (struct.pack("<I", 33), "implausible ndim 33"),
            (struct.pack("<2I", 2, 3), "before dims"),
            (struct.pack("<3I", 2, 3, 0), "zero-sized dimension"),
        ],
        ids=["no-ndim", "ndim-zero", "ndim-33", "no-dims", "zero-dim"],
    )
    def test_short_or_empty_header_is_truncated(self, tmp_path, header, message):
        path = tmp_path / "head.mst1"
        path.write_bytes(b"MST1" + header)
        with pytest.raises(TruncatedPayloadError, match=message):
            read_tensor(path)

    def test_header_whose_element_count_overflows_64_bits(self, tmp_path):
        # 65536**4 = 2**64 entries: a 64-bit product wraps to 0, which the header-only file matches
        path = tmp_path / "huge.mst1"
        path.write_bytes(b"MST1" + struct.pack("<5I", 4, 65536, 65536, 65536, 65536))
        with pytest.raises(TruncatedPayloadError, match="huge.mst1: payload is 0 bytes"):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.mst1"
        write_tensor(np.array([0.1]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_out_of_range_entry(self, tmp_path):
        path = tmp_path / "range.mst1"
        payload = b"MST1" + struct.pack("<II", 1, 1) + struct.pack("<d", 1.5)
        path.write_bytes(payload)
        with pytest.raises(OutOfRangeError):
            read_tensor(path)

    def test_write_rejects_out_of_range(self, tmp_path):
        with pytest.raises(OutOfRangeError):
            write_tensor(np.array([-0.1]), tmp_path / "neg.mst1")
