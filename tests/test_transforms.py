import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smoothcert import (
    BadMagicError,
    OutOfRangeError,
    TruncatedPayloadError,
    conversion_error,
    conversion_error_diff,
    gamma_correct,
    gamma_correct_batch,
    quantize8,
    read_tensor,
    write_tensor,
)

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
            assert conversion_error(x, beta, gamma) == 0.0

    def test_grid_point_with_identity_factors(self):
        assert conversion_error(np.array([51.0 / 255.0]), 1.0, 1.0) == 0.0

    def test_hand_traced_value(self):
        # 0.25 -> 0.0625 -> 16/255 -> sqrt -> 64/255 against ideal 0.25
        err = conversion_error(np.array([0.25]), beta=0.5, gamma=2.0)
        assert abs(err - 0.25 / 255.0) < 1e-15

    def test_bounded_by_sqrt_length(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
            err = conversion_error(x, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            assert err <= np.sqrt(x.size)

    def test_diff_variant_matches_norm(self):
        x = np.array([0.1, 0.6, 0.9])
        diff = conversion_error_diff(x, 0.7, 1.8)
        assert abs(np.linalg.norm(diff) - conversion_error(x, 0.7, 1.8)) < 1e-15


    def test_factor_array_matches_scalar_path(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(0.0, 1.0, size=(3, 5, 4))
        # endpoints 0.5 and 2.0 hit numpy's special-cased scalar powers
        factors = np.concatenate([np.linspace(0.5, 2.0, 7), rng.uniform(0.2, 5.0, 5)])
        for beta in (0.5, 0.83, 1.0, 2.0):
            rows = conversion_error_diff(x, beta, factors)
            norms = conversion_error(x, beta, factors)
            assert rows.shape == (factors.size,) + x.shape and norms.shape == factors.shape
            for row, norm, gamma in zip(rows, norms, factors):
                g = float(gamma)
                stored = quantize8(gamma_correct(quantize8(gamma_correct(x, g)), beta))
                reference = stored - gamma_correct(x, beta * g)
                assert np.array_equal(row, reference)
                assert np.array_equal(conversion_error_diff(x, beta, g), reference)
                assert norm == conversion_error(x, beta, g) == float(np.linalg.norm(reference))
        assert isinstance(conversion_error(x, 0.9, 1.1), float)

    def test_factor_array_validation(self):
        x = np.array([0.2, 0.7])
        with pytest.raises(ValueError):
            conversion_error(x, 0.9, np.ones((2, 2)))
        with pytest.raises(ValueError):
            conversion_error(x, 0.9, np.array([1.1, 0.0]))


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
