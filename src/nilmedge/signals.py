"""Acquisition-side signal handling: ADC calibration, 2:1 averaging decimation,
and 100 ms windowing of voltage/current sample streams.

The numeric contract mirrors a metering front end that digitizes both channels
with a 14-bit converter at 20 kHz, averages sample pairs down to 10 kHz, and
hands the DSP stage non-overlapping frames of 1000 samples per channel.
Raw codes are held as the converter delivers them, 2 bytes each (int16), and
calibrated slice by slice straight into the float output, with no code table
and no whole-array intermediate.
`window_blocks` hands those frames over as (n, 1000) row views of the
stream, the form the feature and event stages read; `window_stream` is its
one-window form, one `SampleWindow` per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

ADC_CODE_MAX = 16383  # 14-bit converter, 16384 discrete values
ACQUISITION_RATE_HZ = 20_000
SAMPLE_RATE_HZ = 10_000
WINDOW_SAMPLES = 1000  # 100 ms at 10 kHz


class LengthMismatchError(ValueError):
    """Voltage and current channels differ in length."""


@dataclass(frozen=True)
class CalibrationCoefficients:
    """Affine code-to-unit calibration: value = code * gain + offset."""

    gain_v: float  # volts per code
    offset_v: float  # volts
    gain_i: float  # amperes per code
    offset_i: float  # amperes

    def __post_init__(self):
        for name, value in (("gain_v", self.gain_v), ("gain_i", self.gain_i)):
            if not 0 < value < np.inf:  # NaN fails too
                raise ValueError(f"calibration {name} must be a finite number > 0, got {value!r}")
        for name, value in (("offset_v", self.offset_v), ("offset_i", self.offset_i)):
            if not np.isfinite(value):
                raise ValueError(f"calibration {name} must be finite, got {value!r}")


def default_calibration() -> CalibrationCoefficients:
    """Bipolar mapping over a unipolar 14-bit converter: mid-scale code 8192
    reads as 0 V / 0 A, full scale spans +-400 V and +-50 A."""
    return CalibrationCoefficients(
        gain_v=800.0 / 16384.0,
        offset_v=-400.0,
        gain_i=100.0 / 16384.0,
        offset_i=-50.0,
    )


@dataclass(frozen=True)
class RawSampleBlock:
    """Uncalibrated ADC codes for both channels at the acquisition rate,
    ACQUISITION_RATE_HZ.

    Each channel is a read-only int16 copy that the block owns, 2 bytes per
    code: a later write to the caller's array cannot reach it, and a write
    to the block's raises."""

    codes_v: np.ndarray
    codes_i: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "codes_v", _adc_codes("voltage", self.codes_v))
        object.__setattr__(self, "codes_i", _adc_codes("current", self.codes_i))
        if self.codes_v.shape != self.codes_i.shape:
            raise LengthMismatchError(
                f"channel lengths differ: {self.codes_v.size} voltage vs {self.codes_i.size} current codes"
            )


def _adc_codes(name: str, codes) -> np.ndarray:
    """One channel's codes as a read-only int16 copy, or ValueError naming
    the channel. Only float input is checked value by value: an integer
    dtype holds whole numbers."""
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iuf":  # bool, complex, text, objects
        raise ValueError(f"{name} codes must be whole numbers, not {codes.dtype} values")
    if codes.dtype.kind == "f" and not (codes == np.trunc(codes)).all():  # NaN too; inf fails the range
        raise ValueError(f"{name} codes must be whole numbers")
    if codes.size and (codes.min() < 0 or codes.max() > ADC_CODE_MAX):
        raise ValueError(f"{name} codes outside the 14-bit range [0, {ADC_CODE_MAX}]")
    owned = codes.astype(np.int16)  # always a copy
    owned.flags.writeable = False
    return owned


@dataclass(frozen=True)
class SampleStream:
    """Calibrated paired stream of voltage (V) and current (A) samples."""

    v: np.ndarray
    i: np.ndarray
    rate_hz: int = SAMPLE_RATE_HZ

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        object.__setattr__(self, "i", np.asarray(self.i, dtype=np.float64))
        if self.v.shape != self.i.shape:
            raise LengthMismatchError(
                f"channel lengths differ: {self.v.size} voltage vs {self.i.size} current samples"
            )

    def __len__(self) -> int:
        return int(self.v.size)

    @property
    def duration_s(self) -> float:
        return self.v.size / self.rate_hz


@dataclass(frozen=True)
class SampleWindow:
    """One 100 ms frame: exactly 1000 calibrated samples per channel at
    SAMPLE_RATE_HZ (10 kHz).

    `index` is the window ordinal within its stream, counted from 0.
    """

    v: np.ndarray
    i: np.ndarray
    index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        object.__setattr__(self, "i", np.asarray(self.i, dtype=np.float64))
        if self.v.size != WINDOW_SAMPLES or self.i.size != WINDOW_SAMPLES:
            raise ValueError(
                f"a window holds exactly {WINDOW_SAMPLES} samples per channel, "
                f"got {self.v.size}/{self.i.size}"
            )


def calibrate_raw(block: RawSampleBlock, coeffs: CalibrationCoefficients) -> SampleStream:
    """Apply the affine calibration to both channels, preserving length and rate.

    Every sample is float(code) * gain + offset, rounded after the product
    and after the sum, as the scalar arithmetic rounds it. The 2-byte codes
    are calibrated in 16,384-code slices written straight into the float64
    output: no code table, and nothing the size of the stream but the output."""
    v = _calibrated(block.codes_v, coeffs.gain_v, coeffs.offset_v)
    i = _calibrated(block.codes_i, coeffs.gain_i, coeffs.offset_i)
    return SampleStream(v=v, i=i, rate_hz=ACQUISITION_RATE_HZ)


_CALIBRATE_BLOCK = 16_384  # codes per slice: 32 KiB in, 128 KiB out


def _calibrated(codes: np.ndarray, gain: float, offset: float) -> np.ndarray:
    """codes * gain + offset in float64, one cache-sized slice at a time,
    each written straight into the output."""
    gain, offset = float(gain), float(offset)  # int16 times a float32 gain would be float32
    out = np.empty(codes.size)
    for lo in range(0, codes.size, _CALIBRATE_BLOCK):
        seg = out[lo : lo + _CALIBRATE_BLOCK]
        np.multiply(codes[lo : lo + _CALIBRATE_BLOCK], gain, out=seg)
        seg += offset
    return out


def decimate_average(samples: np.ndarray) -> np.ndarray:
    """Average consecutive sample pairs: out[k] = (in[2k] + in[2k+1]) / 2.

    Halves both the length and the rate. The input length must be even; the
    caller re-buffers odd tails.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size % 2 != 0:
        raise ValueError(f"decimation needs an even sample count, got {samples.size}")
    pairs = samples.reshape(-1, 2)
    return (pairs[:, 0] + pairs[:, 1]) / 2.0


def decimate_stream(stream: SampleStream) -> SampleStream:
    """Pair-average both channels of a stream, e.g. 20 kHz -> 10 kHz."""
    return SampleStream(
        v=decimate_average(stream.v),
        i=decimate_average(stream.i),
        rate_hz=stream.rate_hz // 2,
    )


def window_blocks(stream: SampleStream, n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Cut a 10 kHz stream into consecutive blocks of up to n 1000-sample windows.

    Yields (index of the block's first window, v, i), where v and i are
    (rows, 1000) views of the stream; every block but the last holds n rows.
    Windows start at stream sample 0; a trailing partial window is discarded.
    An empty stream yields nothing. The rate is checked when iteration starts.
    """
    if stream.rate_hz != SAMPLE_RATE_HZ:
        raise ValueError(f"windowing expects a {SAMPLE_RATE_HZ} Hz stream, got {stream.rate_hz} Hz")
    n_windows = len(stream) // WINDOW_SAMPLES
    v = stream.v[: n_windows * WINDOW_SAMPLES].reshape(n_windows, WINDOW_SAMPLES)
    i = stream.i[: n_windows * WINDOW_SAMPLES].reshape(n_windows, WINDOW_SAMPLES)
    for lo in range(0, n_windows, n):
        yield lo, v[lo : lo + n], i[lo : lo + n]


def window_stream(stream: SampleStream) -> Iterator[SampleWindow]:
    """window_blocks one window at a time, each as a SampleWindow."""
    return (SampleWindow(v=v[0], i=i[0], index=j) for j, v, i in window_blocks(stream, 1))
