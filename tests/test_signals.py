import tracemalloc

import numpy as np
import pytest

from nilmedge.signals import (
    CalibrationCoefficients,
    LengthMismatchError,
    RawSampleBlock,
    SampleStream,
    SampleWindow,
    calibrate_raw,
    decimate_average,
    decimate_stream,
    default_calibration,
    window_blocks,
    window_stream,
)

BIPOLAR = CalibrationCoefficients(gain_v=2.5 / 16384, offset_v=-1.25,
                                  gain_i=2.5 / 16384, offset_i=-1.25)


class TestCalibrate:
    def test_zero_code(self):
        block = RawSampleBlock(codes_v=[0], codes_i=[0])
        out = calibrate_raw(block, BIPOLAR)
        assert out.v[0] == -1.25
        assert out.i[0] == -1.25

    def test_mid_scale_code_reads_zero(self):
        block = RawSampleBlock(codes_v=[8192], codes_i=[8192])
        out = calibrate_raw(block, BIPOLAR)
        assert out.v[0] == 0.0
        assert out.i[0] == 0.0

    def test_matches_scalar_oracle_elementwise(self, rng):
        codes = rng.integers(0, 16384, size=64)
        block = RawSampleBlock(codes_v=codes, codes_i=codes[::-1].copy())
        coeffs = default_calibration()
        out = calibrate_raw(block, coeffs)
        for k in range(64):
            assert out.v[k] == codes[k] * coeffs.gain_v + coeffs.offset_v
            assert out.i[k] == codes[::-1][k] * coeffs.gain_i + coeffs.offset_i

    def test_every_code_equals_the_affine_arithmetic(self):
        # the table gather must give the bits of code * gain + offset for
        # all 16,384 codes, under the default and under random coefficients
        codes = np.arange(16384)
        rng = np.random.default_rng(20)
        coeff_sets = [default_calibration(), BIPOLAR] + [
            CalibrationCoefficients(*(rng.uniform(1e-6, 1.0) * 10.0 ** rng.integers(-3, 3)
                                      if k % 2 == 0 else rng.normal(0, 10.0 ** rng.integers(-3, 4))
                                      for k in range(4)))
            for _ in range(20)]
        for coeffs in coeff_sets:
            out = calibrate_raw(RawSampleBlock(codes_v=codes, codes_i=codes[::-1].copy()), coeffs)
            expected_v = np.array([float(c) * coeffs.gain_v + coeffs.offset_v for c in codes])
            expected_i = np.array([float(c) * coeffs.gain_i + coeffs.offset_i for c in codes[::-1]])
            assert np.array_equal(out.v, expected_v) and np.array_equal(out.i, expected_i)
            assert np.array_equal(np.signbit(out.v), np.signbit(expected_v))
            assert np.array_equal(np.signbit(out.i), np.signbit(expected_i))

    def test_affine_scaling_property(self, rng):
        codes = rng.integers(0, 4096, size=50)
        no_offset = CalibrationCoefficients(gain_v=0.01, offset_v=0.0,
                                            gain_i=0.01, offset_i=0.0)
        tripled = CalibrationCoefficients(gain_v=0.03, offset_v=0.0,
                                          gain_i=0.03, offset_i=0.0)
        block = RawSampleBlock(codes_v=codes, codes_i=codes)
        np.testing.assert_allclose(calibrate_raw(block, tripled).v,
                                   3 * calibrate_raw(block, no_offset).v, rtol=1e-15)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(LengthMismatchError):
            RawSampleBlock(codes_v=[1, 2], codes_i=[1])

    def test_code_range_enforced(self):
        with pytest.raises(ValueError):
            RawSampleBlock(codes_v=[16384], codes_i=[0])

    @pytest.mark.parametrize("bad", [[1.5, 2.0], [np.nan, 2.0], [np.inf, 2.0], [-np.inf, 2.0],
                                     np.array([True, False]), [1 + 0j, 2 + 0j], ["1", "2"]])
    @pytest.mark.parametrize("channel", ["voltage", "current"])
    def test_codes_that_are_not_whole_numbers_rejected(self, bad, channel):
        good = [3, 4]
        codes = {"codes_v": bad, "codes_i": good} if channel == "voltage" else {"codes_v": good, "codes_i": bad}
        with pytest.raises(ValueError, match=f"^{channel} codes"):
            RawSampleBlock(**codes)

    @pytest.mark.parametrize("codes", [[3.0, 4.0], np.array([3, 4], dtype=np.uint16),
                                       np.array([3, 4], dtype=np.int8), [-0.0, 4.0]])
    def test_whole_number_codes_of_any_numeric_dtype_kept(self, codes):
        block = RawSampleBlock(codes_v=codes, codes_i=codes)
        assert block.codes_v.dtype == np.int16
        assert np.array_equal(block.codes_v, np.asarray(codes, dtype=np.float64))

    def test_codes_take_two_bytes_each(self, rng):
        block = RawSampleBlock(codes_v=rng.integers(0, 16384, size=1001),
                               codes_i=rng.integers(0, 16384, size=1001))
        assert block.codes_v.nbytes == block.codes_i.nbytes == 2 * 1001

    def test_block_owns_its_codes(self):
        src = np.array([3, 4, 5], dtype=np.int64)
        block = RawSampleBlock(codes_v=src, codes_i=src)
        src[0] = -5  # out of range, written after the range check
        assert block.codes_v.tolist() == block.codes_i.tolist() == [3, 4, 5]
        assert calibrate_raw(block, BIPOLAR).v[0] == 3 * BIPOLAR.gain_v + BIPOLAR.offset_v
        with pytest.raises(ValueError, match="read-only"):
            block.codes_v[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            block.codes_i[1] = 1

    @pytest.mark.parametrize("n", [0, 1, 16383, 16384, 16385, 3 * 16384 + 7])
    def test_sliced_calibration_equals_the_scalar_arithmetic(self, n):
        # the calibration runs in 16,384-code slices; lengths at and around
        # a slice boundary must give the bits of one product and one sum
        rng = np.random.default_rng(n)
        codes_v, codes_i = rng.integers(0, 16384, size=(2, n))
        coeffs = default_calibration()
        out = calibrate_raw(RawSampleBlock(codes_v=codes_v, codes_i=codes_i), coeffs)
        expected_v = np.array([float(c) * coeffs.gain_v + coeffs.offset_v for c in codes_v.tolist()])
        expected_i = np.array([float(c) * coeffs.gain_i + coeffs.offset_i for c in codes_i.tolist()])
        assert out.v.dtype == out.i.dtype == np.float64
        assert out.v.tobytes() == expected_v.tobytes() and out.i.tobytes() == expected_i.tobytes()

    def test_calibration_allocates_only_its_outputs(self, rng):
        # numpy reports its buffers to tracemalloc, so a whole-array
        # intermediate, such as the index array a gather over int16 codes
        # makes, shows
        n = 2_000_000
        block = RawSampleBlock(codes_v=rng.integers(0, 16384, size=n),
                               codes_i=rng.integers(0, 16384, size=n))
        tracemalloc.start()
        try:
            out = calibrate_raw(block, default_calibration())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.v.nbytes + out.i.nbytes + 2**20

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            CalibrationCoefficients(gain_v=0.0, offset_v=0.0, gain_i=1.0, offset_i=0.0)


class TestDecimate:
    def test_pair_means(self):
        np.testing.assert_array_equal(decimate_average([1, 3, 5, 7]), [2, 6])

    def test_constant_stream_unchanged(self):
        np.testing.assert_array_equal(decimate_average([4.2] * 10), [4.2] * 5)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            decimate_average([1, 2, 3])

    def test_noise_variance_halves(self):
        noise = np.random.default_rng(42).normal(0, 1.0, size=10**6)
        out = decimate_average(noise)
        assert out.size == noise.size // 2
        assert abs(out.var() / noise.var() - 0.5) < 0.05 * 0.5

    def test_mean_preserved(self, rng):
        x = rng.normal(3.0, 1.0, size=2000)
        assert np.isclose(decimate_average(x).mean(), x.mean(), rtol=1e-12)

    def test_stream_rate_halved(self, rng):
        s = SampleStream(v=rng.normal(size=400), i=rng.normal(size=400), rate_hz=20000)
        out = decimate_stream(s)
        assert out.rate_hz == 10000 and len(out) == 200


class TestWindowing:
    def test_discards_trailing_partial(self, rng):
        s = SampleStream(v=rng.normal(size=3500), i=rng.normal(size=3500))
        windows = list(window_stream(s))
        assert len(windows) == 3

    def test_single_exact_window(self, rng):
        v = rng.normal(size=1000)
        i = rng.normal(size=1000)
        (w,) = window_stream(SampleStream(v=v, i=i))
        assert w.index == 0
        np.testing.assert_array_equal(w.v, v)
        np.testing.assert_array_equal(w.i, i)

    def test_windows_are_ramp_slices(self):
        ramp = np.arange(4096, dtype=float)
        s = SampleStream(v=ramp, i=ramp)
        for k, w in enumerate(window_stream(s)):
            assert w.index == k
            np.testing.assert_array_equal(w.v, ramp[1000 * k : 1000 * k + 1000])

    def test_empty_stream_yields_nothing(self):
        s = SampleStream(v=np.array([]), i=np.array([]))
        assert list(window_stream(s)) == []

    def test_window_size_enforced(self):
        with pytest.raises(ValueError):
            SampleWindow(v=np.zeros(999), i=np.zeros(999))

    def test_wrong_rate_rejected(self):
        s = SampleStream(v=np.zeros(2000), i=np.zeros(2000), rate_hz=20000)
        with pytest.raises(ValueError):
            list(window_stream(s))


class TestWindowBlocks:
    @pytest.mark.parametrize("n_samples", [0, 999, 1000, 1500, 31_000, 32_000, 33_500])
    def test_rows_are_window_stream_as_views_of_the_stream(self, rng, n_samples):
        s = SampleStream(v=rng.normal(size=n_samples), i=rng.normal(size=n_samples))
        windows = list(window_stream(s))
        blocks = list(window_blocks(s, 32))
        assert [first for first, _, _ in blocks] == list(range(0, len(windows), 32))
        assert [len(v) for _, v, _ in blocks] == [min(32, len(windows) - k)
                                                  for k in range(0, len(windows), 32)]
        rows = [(first + k, v[k], i[k]) for first, v, i in blocks for k in range(len(v))]
        assert len(rows) == len(windows) == n_samples // 1000
        for w, (j, v, i) in zip(windows, rows):
            lo = 1000 * j
            assert w.index == j
            assert v.tobytes() == w.v.tobytes() == s.v[lo : lo + 1000].tobytes()
            assert i.tobytes() == w.i.tobytes() == s.i[lo : lo + 1000].tobytes()
        for _, v, i in blocks:
            assert v.shape == i.shape == (len(v), 1000)
            assert np.shares_memory(v, s.v) and np.shares_memory(i, s.i)

    def test_wrong_rate_raises_once_iterated(self):
        s = SampleStream(v=np.zeros(2000), i=np.zeros(2000), rate_hz=20000)
        blocks = window_blocks(s, 32)
        with pytest.raises(ValueError, match="10000 Hz"):
            next(blocks)
