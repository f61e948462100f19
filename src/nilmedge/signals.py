"""Acquisition-side signal handling: ADC calibration, 2:1 averaging decimation,
and 100 ms windowing of voltage/current sample streams.

The numeric contract mirrors a metering front end that digitizes both channels
with a 14-bit converter at 20 kHz, averages sample pairs down to 10 kHz, and
hands the DSP stage non-overlapping frames of 1000 samples per channel.
Raw codes are held as the converter delivers them, 2 bytes each (int16), and
calibrated slice by slice straight into the float output; decimation also
works in cache-sized slices, adding and halving each slice of pairs while it
is still in cache. Both steps treat the two channels apart: the voltage
channel runs on a short-lived worker thread while the calling thread runs
the current channel (numpy releases the GIL inside each slice's
arithmetic), and the worker is joined before the call returns, so no
thread outlives it. Every output bit is that of the serial whole-array
arithmetic.
`window_rows` is the one windowing rule: it hands a stream's frames over as
two (windows, 1000) row views of the stream, the form the feature and event
stages read; `window_stream` is its one-window form, one `SampleWindow` per
frame.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator

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
    output, so nothing the size of the stream is allocated but the output.
    The two channels run on two threads (`_per_channel`)."""
    v, i = _per_channel(
        lambda: _calibrated(block.codes_v, coeffs.gain_v, coeffs.offset_v),
        lambda: _calibrated(block.codes_i, coeffs.gain_i, coeffs.offset_i),
    )
    return SampleStream(v=v, i=i, rate_hz=ACQUISITION_RATE_HZ)


_CALIBRATE_BLOCK = 16_384  # codes or pairs per slice: 128 KiB out


def _per_channel(voltage: Callable[[], np.ndarray], current: Callable[[], np.ndarray]):
    """(voltage(), current()): voltage() runs on a worker thread while this
    thread runs current(). The worker runs under the caller's numpy error
    settings (`np.errstate` is per thread on numpy 1.x and per context on
    2.x, and a new thread starts with neither), and it is joined before this
    returns or raises. When both fail, voltage's error is raised, as in
    serial order."""
    errors, errcall = np.geterr(), np.geterrcall()
    done: dict = {}

    def run_voltage():
        try:
            with np.errstate(call=errcall, **errors):
                done["v"] = voltage()
        except BaseException as exc:  # raised again in the caller below
            done["error"] = exc

    worker = threading.Thread(target=run_voltage)
    worker.start()
    try:
        i = current()
    finally:
        worker.join()
        if "error" in done:
            raise done.pop("error")
    return done["v"], i


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
    caller re-buffers odd tails. Each 16,384-pair slice is added straight
    into the output and halved there while it is still in cache, one sum
    and one division per sample as in the whole-array formula, so nothing
    the size of the input is allocated but the output.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size % 2 != 0:
        raise ValueError(f"decimation needs an even sample count, got {samples.size}")
    out = np.empty(samples.size // 2)
    for lo in range(0, out.size, _CALIBRATE_BLOCK):
        seg = out[lo : lo + _CALIBRATE_BLOCK]
        pairs = samples[2 * lo : 2 * (lo + seg.size)]
        np.add(pairs[0::2], pairs[1::2], out=seg)
        seg /= 2.0
    return out


def decimate_stream(stream: SampleStream) -> SampleStream:
    """Pair-average both channels of a stream, e.g. 20 kHz -> 10 kHz, the
    two channels on two threads (`_per_channel`)."""
    v, i = _per_channel(lambda: decimate_average(stream.v), lambda: decimate_average(stream.i))
    return SampleStream(v=v, i=i, rate_hz=stream.rate_hz // 2)


def window_rows(stream: SampleStream) -> tuple[np.ndarray, np.ndarray]:
    """The whole 1000-sample windows of a 10 kHz stream as (windows, 1000)
    voltage and current views of the stream, row j holding window j.

    Windows start at stream sample 0; a trailing partial window is
    discarded, so an empty or sub-window stream gives (0, 1000) views."""
    if stream.rate_hz != SAMPLE_RATE_HZ:
        raise ValueError(f"windowing expects a {SAMPLE_RATE_HZ} Hz stream, got {stream.rate_hz} Hz")
    n = len(stream) // WINDOW_SAMPLES * WINDOW_SAMPLES
    return stream.v[:n].reshape(-1, WINDOW_SAMPLES), stream.i[:n].reshape(-1, WINDOW_SAMPLES)


def window_stream(stream: SampleStream) -> Iterator[SampleWindow]:
    """window_rows one window at a time, each as a SampleWindow. The rate is
    checked when iteration starts."""
    for j, (v, i) in enumerate(zip(*window_rows(stream))):
        yield SampleWindow(v=v, i=i, index=j)
