import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import assert_same_bits, calibrate_oracle, decimate_oracle
from nilmedge import signals
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
    window_rows,
    window_stream,
)

BIPOLAR = CalibrationCoefficients(gain_v=2.5 / 16384, offset_v=-1.25,
                                  gain_i=2.5 / 16384, offset_i=-1.25)
# no coefficient here is a short binary fraction, so products and sums round
INEXACT = CalibrationCoefficients(gain_v=0.0123, offset_v=0.37, gain_i=0.0071, offset_i=-0.53)
BLOCK = signals._CALIBRATE_BLOCK
# every ordered pair of these, NaN, infinities, signed zeros, subnormals
# whose halves round and sums that overflow included
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 1.0, -2.5, 5e-324, -5e-324, 3e-308]


def traced_peak(fn):
    """fn() and the peak bytes numpy allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        out, peak = traced_peak(lambda: calibrate_raw(block, default_calibration()))
        assert peak <= out.v.nbytes + out.i.nbytes + 2**20

    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            CalibrationCoefficients(gain_v=0.0, offset_v=0.0, gain_i=1.0, offset_i=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["gain_v", "offset_v", "gain_i", "offset_i"])
    def test_non_finite_coefficient_rejected_by_name(self, field, value):
        good = dict(gain_v=0.01, offset_v=0.0, gain_i=0.01, offset_i=0.0)
        with pytest.raises(ValueError, match=f"calibration {field} must be"):
            CalibrationCoefficients(**{**good, field: value})


class TestShapesAndRates:
    """A channel that is not one-dimensional, or a rate that is not an int
    >= 1, fails where it is given, naming the channel or field."""

    @pytest.mark.parametrize("bad", [[[1, 2], [3, 4]], 5, np.zeros((1, 4), dtype=np.int16)])
    @pytest.mark.parametrize("channel", ["voltage", "current"])
    def test_block_channel_must_be_one_dimensional(self, bad, channel):
        good = [1, 2, 3, 4]
        codes = {"codes_v": bad, "codes_i": good} if channel == "voltage" else {"codes_v": good, "codes_i": bad}
        with pytest.raises(ValueError, match=f"^{channel} codes must be one-dimensional"):
            RawSampleBlock(**codes)

    @pytest.mark.parametrize("bad", [1.0, [[1.0, 2.0], [3.0, 4.0]], np.zeros((4, 1))])
    @pytest.mark.parametrize("channel", ["voltage", "current"])
    def test_stream_channel_must_be_one_dimensional(self, bad, channel):
        good = [1.0, 2.0, 3.0, 4.0]
        samples = {"v": bad, "i": good} if channel == "voltage" else {"v": good, "i": bad}
        with pytest.raises(ValueError, match=f"^{channel} samples must be one-dimensional"):
            SampleStream(**samples)

    @pytest.mark.parametrize("rate", [0, -10_000, 10_000.0, True, "10000", None])
    def test_stream_rate_must_be_an_int_of_at_least_one(self, rate):
        with pytest.raises(ValueError, match="rate_hz must be an int >= 1"):
            SampleStream(v=np.zeros(4), i=np.zeros(4), rate_hz=rate)

    @pytest.mark.parametrize("rate", [1, np.int64(20_000)])
    def test_int_rates_kept_as_int(self, rate):
        s = SampleStream(v=np.zeros(4), i=np.zeros(4), rate_hz=rate)
        assert type(s.rate_hz) is int and s.rate_hz == rate and s.duration_s == 4 / rate


class TestCodeBackedStream:
    """calibrate_raw returns a stream that holds the block's codes and one
    table per channel; decimate_stream reads the codes, and the first read
    of v or i gathers both channels from the tables."""

    def test_length_duration_and_rate_read_no_samples(self, rng):
        n = 2_000_000
        block = RawSampleBlock(codes_v=rng.integers(0, 16384, size=n), codes_i=rng.integers(0, 16384, size=n))
        stream = calibrate_raw(block, INEXACT)
        (size, duration, rate), peak = traced_peak(lambda: (len(stream), stream.duration_s, stream.rate_hz))
        assert (size, duration, rate) == (n, n / 20_000, 20_000)
        assert peak < 2**16

    def test_chain_allocates_only_its_outputs(self, rng):
        # a 20 kHz float array, even one channel's, would be 16 MB here
        n = 2_000_000
        block = RawSampleBlock(codes_v=rng.integers(0, 16384, size=n), codes_i=rng.integers(0, 16384, size=n))
        out, peak = traced_peak(lambda: decimate_stream(calibrate_raw(block, default_calibration())))
        assert peak <= out.v.nbytes + out.i.nbytes + 2**20

    def test_first_read_gives_writable_float_channels(self, rng):
        codes_v, codes_i = rng.integers(0, 16384, size=(2, 2 * BLOCK + 6))
        stream = calibrate_raw(RawSampleBlock(codes_v=codes_v, codes_i=codes_i), INEXACT)
        v = stream.v
        assert stream.i is stream.i and stream.v is v
        assert_same_bits(v, calibrate_oracle(codes_v, INEXACT.gain_v, INEXACT.offset_v))
        assert_same_bits(stream.i, calibrate_oracle(codes_i, INEXACT.gain_i, INEXACT.offset_i))
        v[:2] = [1.0, 3.0]  # once read, the stream is a float stream: a write reaches decimation
        out = decimate_stream(stream)
        assert out.v[0] == 2.0
        assert_same_bits(out.v[1:], decimate_oracle(v)[1:])

    # with gain 1e305, codes from 1798 up calibrate to inf, and pair sums of
    # finite samples overflow too
    @pytest.mark.parametrize("coeffs", [INEXACT, CalibrationCoefficients(gain_v=1e305, offset_v=-1e307,
                                                                         gain_i=1e305, offset_i=0.0)])
    def test_decimating_codes_twice_gives_the_float_path_bits(self, rng, coeffs):
        codes_v, codes_i = rng.integers(0, 3600, size=(2, 1000))
        with np.errstate(over="ignore"):
            stream = calibrate_raw(RawSampleBlock(codes_v=codes_v, codes_i=codes_i), coeffs)
            first = decimate_stream(stream)
            assert first.v.flags.writeable and first.i.flags.writeable
            second = decimate_stream(stream)
            floats = decimate_stream(SampleStream(v=stream.v, i=stream.i, rate_hz=20_000))
        for out in (second, floats):
            assert_same_bits(out.v, first.v)
            assert_same_bits(out.i, first.i)

    def test_concurrent_first_reads_gather_once(self, rng):
        # more readers than CPUs, switching often: a second gather would hand
        # some reader an array the stream no longer holds
        codes_v, codes_i = rng.integers(0, 16384, size=(2, 4 * BLOCK))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                stream = calibrate_raw(RawSampleBlock(codes_v=codes_v, codes_i=codes_i), INEXACT)
                seen = []
                readers = [threading.Thread(target=lambda: seen.append((stream.v, stream.i))) for _ in range(8)]
                for t in readers:
                    t.start()
                for t in readers:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(seen) == 8
                assert all(v is stream.v and i is stream.i for v, i in seen)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("channel", ["v", "i"])
    def test_codes_below_an_overflowing_code_do_not_raise(self, channel):
        # 1798 * 1e305 overflows; the table holds only the block's code range,
        # and these codes' pair sums stay finite too
        coeffs = CalibrationCoefficients(**{"gain_v": 0.01, "offset_v": 0.0, "gain_i": 0.01, "offset_i": 0.0,
                                            f"gain_{channel}": 1e305})
        codes = [0, 1, 500, 800]
        with np.errstate(over="raise"):
            stream = calibrate_raw(RawSampleBlock(codes_v=codes, codes_i=codes), coeffs)
            out = decimate_stream(stream)
            assert np.isfinite(getattr(stream, channel)).all() and np.isfinite(getattr(out, channel)).all()
            with pytest.raises(FloatingPointError, match="overflow"):
                calibrate_raw(RawSampleBlock(codes_v=codes + [1798, 0], codes_i=codes + [1798, 0]), coeffs)

    def test_odd_code_count_rejected_as_for_floats(self):
        block = RawSampleBlock(codes_v=[1, 2, 3], codes_i=[1, 2, 3])
        message = "^decimation needs an even sample count, got 3$"
        with pytest.raises(ValueError, match=message):
            decimate_stream(calibrate_raw(block, BIPOLAR))
        with pytest.raises(ValueError, match=message):
            decimate_stream(SampleStream(v=[1.0, 2.0, 3.0], i=[1.0, 2.0, 3.0], rate_hz=20_000))

    def test_empty_block(self):
        stream = calibrate_raw(RawSampleBlock(codes_v=[], codes_i=[]), INEXACT)
        assert len(stream) == 0 and stream.duration_s == 0.0
        out = decimate_stream(stream)
        assert len(out) == 0 and stream.v.size == stream.i.size == 0


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

    def test_special_values_give_the_whole_array_bits(self):
        # one sum and one division per pair, so NaN signs, infinities,
        # -0.0 and overflowing sums come out as the whole-array formula's
        pairs = np.array(list(itertools.product(SPECIAL, repeat=2))).ravel()
        x = np.tile(pairs, 4 * BLOCK // pairs.size + 2)  # 2 * BLOCK pairs and more: two slice edges
        with np.errstate(over="ignore", invalid="ignore"):
            expected = decimate_oracle(x)
            assert_same_bits(decimate_average(x), expected)
            out = decimate_stream(SampleStream(v=x, i=x[::-1].copy(), rate_hz=20000))
            assert_same_bits(out.v, expected)
            assert_same_bits(out.i, decimate_oracle(x[::-1]))

    @pytest.mark.parametrize("step", [3, -1])
    def test_strided_input(self, rng, step):
        base = rng.normal(size=6 * BLOCK + 6)
        x = base[::step][: 2 * BLOCK + 2]
        assert not x.flags.c_contiguous
        assert_same_bits(decimate_average(x), decimate_oracle(x))

    def test_decimation_allocates_only_its_outputs(self, rng):
        # numpy reports its buffers to tracemalloc, so a whole-array sum
        # of the pairs shows
        s = SampleStream(v=rng.normal(size=2_000_000), i=rng.normal(size=2_000_000), rate_hz=20000)
        out, peak = traced_peak(lambda: decimate_average(s.v))
        assert peak <= out.nbytes + 2**20
        out, peak = traced_peak(lambda: decimate_stream(s))
        assert peak <= out.v.nbytes + out.i.nbytes + 2**20


class TestChannelThreads:
    """calibrate_raw and decimate_stream run the voltage channel on a worker
    thread while the caller runs current: the bits, the errors and the
    thread count are those of the serial calls."""

    @pytest.mark.parametrize("n", [0, 2, BLOCK - 2, BLOCK, BLOCK + 2,
                                   2 * BLOCK - 2, 2 * BLOCK, 2 * BLOCK + 2])
    def test_chain_gives_the_whole_array_bits(self, n):
        # the default calibration's arithmetic is exact (gain 25/512, offset
        # -400), so only inexact coefficients show a reassociated or fused
        # multiply-add kernel
        rng = np.random.default_rng(n)
        codes_v, codes_i = rng.integers(0, 16384, size=(2, n))
        block = RawSampleBlock(codes_v=codes_v, codes_i=codes_i)
        for coeffs in (default_calibration(), INEXACT):
            threads = threading.active_count()
            out = decimate_stream(calibrate_raw(block, coeffs))
            assert threading.active_count() == threads
            assert out.rate_hz == 10_000
            assert_same_bits(out.v, decimate_oracle(calibrate_oracle(codes_v, coeffs.gain_v, coeffs.offset_v)))
            assert_same_bits(out.i, decimate_oracle(calibrate_oracle(codes_i, coeffs.gain_i, coeffs.offset_i)))

    def test_voltage_runs_on_a_worker_thread(self):
        caller = threading.get_ident()
        v, i = signals._per_channel(threading.get_ident, threading.get_ident)
        assert i == caller and v != caller

    @pytest.mark.parametrize("failing", ["v", "i", "both"])
    def test_failure_raises_and_leaves_no_thread(self, failing):
        def channel(name):
            def run():
                time.sleep(0.01 if name == "v" else 0)  # the caller's channel ends first
                if failing in (name, "both"):
                    raise ValueError(name)
                return name
            return run

        threads = threading.active_count()
        with pytest.raises(ValueError) as err:
            signals._per_channel(channel("v"), channel("i"))
        assert threading.active_count() == threads
        assert str(err.value) == ("i" if failing == "i" else "v")  # voltage wins, as in serial order

    @pytest.mark.parametrize("channel", ["v", "i"])
    def test_errstate_holds_on_either_channel(self, channel):
        # a new thread starts with numpy's default error settings (numpy 1.x
        # keeps them per thread, 2.x per context), so the worker must take
        # the caller's: each mode acts alike on either channel
        coeffs = {"gain_v": 0.01, "offset_v": 0.0, "gain_i": 0.01, "offset_i": 0.0, f"gain_{channel}": 1e305}
        block = RawSampleBlock(codes_v=[16383] * 4, codes_i=[16383] * 4)
        calm, hot = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1e308, 1e308]
        stream = SampleStream(v=hot if channel == "v" else calm, i=hot if channel == "i" else calm,
                              rate_hz=20000)
        threads = threading.active_count()
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                calibrate_raw(block, CalibrationCoefficients(**coeffs))
            with pytest.raises(FloatingPointError, match="overflow"):
                decimate_stream(stream)
        with np.errstate(over="ignore"):  # numpy's default warns, and this suite fails on warnings
            assert np.isinf(getattr(calibrate_raw(block, CalibrationCoefficients(**coeffs)), channel)).all()
            assert np.isinf(getattr(decimate_stream(stream), channel)[1])
        seen = []
        with np.errstate(over="call", call=lambda err, flag: seen.append(err)):
            calibrate_raw(block, CalibrationCoefficients(**coeffs))
            decimate_stream(stream)
        assert seen == ["overflow", "overflow"]
        assert threading.active_count() == threads

    def test_both_channels_failing_raise_voltage_error(self):
        stream = SampleStream(v=[1e308, 1e308], i=[np.inf, -np.inf], rate_hz=20000)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):  # voltage's; current's is invalid
                decimate_stream(stream)


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
    """window_rows: a stream's whole windows as one (windows, 1000) block of
    row views per channel."""

    @pytest.mark.parametrize("n_samples", [0, 999, 1000, 1500, 31_000, 32_000, 33_500])
    def test_rows_are_window_stream_as_views_of_the_stream(self, rng, n_samples):
        s = SampleStream(v=rng.normal(size=n_samples), i=rng.normal(size=n_samples))
        windows = list(window_stream(s))
        v, i = window_rows(s)
        assert v.shape == i.shape == (len(windows), 1000) == (n_samples // 1000, 1000)
        for j, w in enumerate(windows):
            lo = 1000 * j
            assert w.index == j
            assert v[j].tobytes() == w.v.tobytes() == s.v[lo : lo + 1000].tobytes()
            assert i[j].tobytes() == w.i.tobytes() == s.i[lo : lo + 1000].tobytes()
        if len(v):
            assert np.shares_memory(v, s.v) and np.shares_memory(i, s.i)

    def test_wrong_rate_raises_once_iterated(self):
        # window_rows checks the rate when called, window_stream when
        # iteration starts
        s = SampleStream(v=np.zeros(2000), i=np.zeros(2000), rate_hz=20000)
        with pytest.raises(ValueError, match="10000 Hz"):
            window_rows(s)
        windows = window_stream(s)
        with pytest.raises(ValueError, match="10000 Hz"):
            next(windows)
