"""Sample-stream file formats.

CSV: header ``t_s,v,i``, one row per 10 kHz sample, UTF-8, LF line endings.
Values are written with 9 significant digits, so a CSV round trip preserves
that precision; the binary format is bit-exact.

Binary: magic ``NILM1``, then little-endian u32 sample count, f64 rate_hz,
and count pairs of f64 (v, i).

Both loaders reject NaN and infinite samples: CSV names the line, binary the
sample index. The rate, read from the binary header or inferred from the
CSV time stamps, must be one the signal chain takes: the 10 kHz window rate
or the 20 kHz acquisition rate. Every malformed file
raises SampleParseError; in a CSV, bytes that are not UTF-8 are reported as
a bad cell or header of their line.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .signals import ACQUISITION_RATE_HZ, SAMPLE_RATE_HZ, SampleStream

BINARY_MAGIC = b"NILM1"
FORMATS = ("csv", "bin")


class SampleParseError(ValueError):
    """Malformed sample file; carries the offending line number for CSV."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def save_samples(stream: SampleStream, path: str | Path, format: str = "bin") -> None:
    path = Path(path)
    if format == "csv":
        _save_csv(stream, path)
    elif format == "bin":
        _save_bin(stream, path)
    else:
        raise ValueError(f"unknown sample format {format!r} (expected one of {FORMATS})")


def load_samples(path: str | Path, format: str | None = None) -> SampleStream:
    """Load a sample stream; when format is None it is sniffed from the file."""
    path = Path(path)
    if format is None:
        with open(path, "rb") as fh:
            format = "bin" if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "csv"
    if format == "csv":
        return _load_csv(path)
    if format == "bin":
        return _load_bin(path)
    raise ValueError(f"unknown sample format {format!r} (expected one of {FORMATS})")


def _save_csv(stream: SampleStream, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_s,v,i\n")
        for k in range(len(stream)):
            t = k / stream.rate_hz
            fh.write(f"{t:.9g},{stream.v[k]:.9g},{stream.i[k]:.9g}\n")


def _load_csv(path: Path) -> SampleStream:
    v: list[float] = []
    i: list[float] = []
    rate = SAMPLE_RATE_HZ
    # bytes that are not UTF-8 decode to lone surrogates, so they fail the
    # header or the cell parse of their own line instead of the file read
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        if header.strip() != "t_s,v,i":
            raise SampleParseError(f"expected header 't_s,v,i', got {header.strip()!r}", line_no=1)
        prev_t = None
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise SampleParseError(f"expected 3 cells, got {len(cells)}", line_no=line_no)
            try:
                t, vv, ii = (float(c) for c in cells)
            except ValueError:
                raise SampleParseError(f"non-numeric cell in {line!r}", line_no=line_no) from None
            if not (math.isfinite(t) and math.isfinite(vv) and math.isfinite(ii)):
                raise SampleParseError(f"non-finite value in {line!r}", line_no=line_no)
            if prev_t is None and t > 0:
                raise SampleParseError("first sample must start at t_s = 0", line_no=line_no)
            if prev_t is not None and t <= prev_t:
                raise SampleParseError("timestamps must be strictly increasing", line_no=line_no)
            prev_t = t
            v.append(vv)
            i.append(ii)
    if len(v) >= 2 and prev_t and prev_t > 0:
        inferred = (len(v) - 1) / prev_t  # inf when prev_t is subnormal
        rate = next((r for r in (SAMPLE_RATE_HZ, ACQUISITION_RATE_HZ)
                     if abs(inferred - r) < 0.5), None)
        if rate is None:
            raise SampleParseError(f"time stamps give a rate of {inferred:.6g} Hz, "
                                   f"neither {SAMPLE_RATE_HZ} nor {ACQUISITION_RATE_HZ} Hz")
    return SampleStream(v=np.array(v), i=np.array(i), rate_hz=rate)


def _save_bin(stream: SampleStream, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<Id", len(stream), float(stream.rate_hz)))
        pairs = np.empty((len(stream), 2), dtype="<f8")
        pairs[:, 0] = stream.v
        pairs[:, 1] = stream.i
        fh.write(pairs.tobytes())


def _load_bin(path: Path) -> SampleStream:
    blob = Path(path).read_bytes()
    header_len = len(BINARY_MAGIC) + struct.calcsize("<Id")
    if len(blob) < header_len:
        raise SampleParseError("file shorter than the binary header")
    if blob[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise SampleParseError(f"bad magic, expected {BINARY_MAGIC!r}")
    count, rate = struct.unpack_from("<Id", blob, len(BINARY_MAGIC))
    if rate not in (SAMPLE_RATE_HZ, ACQUISITION_RATE_HZ):
        raise SampleParseError(
            f"header rate {rate!r} Hz is neither {SAMPLE_RATE_HZ} nor {ACQUISITION_RATE_HZ} Hz"
        )
    expected = header_len + count * 16
    if len(blob) != expected:
        raise SampleParseError(f"expected {expected} bytes for {count} samples, file has {len(blob)}")
    pairs = np.frombuffer(blob, dtype="<f8", offset=header_len).reshape(count, 2)
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if bad.size:
        raise SampleParseError(f"sample {int(bad[0])} is not finite")
    return SampleStream(v=pairs[:, 0].copy(), i=pairs[:, 1].copy(), rate_hz=int(rate))
