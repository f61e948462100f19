"""Per-window feature extraction: real/apparent/reactive power plus odd
current harmonics from a 1024-point FFT.

The canonical feature vector has 103 entries:

    [P, |S|, Q, H1_re, H1_im, H3_re, H3_im, ..., H99_re, H99_im]

where H_k is the k-th odd harmonic of the 50 Hz mains, taken from the bin of
the zero-padded 1024-point transform nearest to 50*k Hz (bin width
10000/1024 = 9.766 Hz, so order 99 sits just below 5 kHz). Harmonic
components are scaled by 2/1000 so that a bin-aligned unit-amplitude tone
reads as magnitude 1 A; the residual leakage of the 1000-sample rectangular
frame is part of the feature definition, not an artifact to be corrected.

A layout may drop the time-domain triple, restrict the harmonic orders, or
report magnitudes instead of (re, im) pairs; the default reproduces the
103-entry vector above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .signals import SAMPLE_RATE_HZ, WINDOW_SAMPLES, SampleWindow

FFT_SIZE = 1024
HARMONIC_SCALE = 2.0 / WINDOW_SAMPLES
DEFAULT_HARMONIC_ORDERS = tuple(range(1, 100, 2))  # 1, 3, ..., 99


# --- radix-2 FFT -------------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for k in range(n):
        rev[k] = int(format(k, f"0{bits}b")[::-1], 2)
    return rev


@lru_cache(maxsize=None)
def _twiddles(m: int) -> np.ndarray:
    half = m // 2
    return np.exp(-2j * np.pi * np.arange(half) / m)


def fft_radix2(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time transform of a power-of-two input.

    Returns the full two-sided complex spectrum (same length as the input).
    """
    a = np.asarray(x, dtype=np.complex128)
    n = a.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"input length must be a power of two, got {n}")
    a = a[_bit_reversal(n)]
    m = 2
    while m <= n:
        half = m // 2
        w = _twiddles(m)
        blocks = a.reshape(-1, m)
        even = blocks[:, :half]
        odd = blocks[:, half:] * w
        a = np.concatenate([even + odd, even - odd], axis=1).reshape(-1)
        m *= 2
    return a


def dft_direct(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """O(N^2) discrete Fourier transform straight from the definition.

    Kept as a slow reference implementation; tests use it as the oracle for
    the radix-2 path."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum of the zero-padded current window: 513 complex bins."""

    bins: np.ndarray
    bin_hz: float = SAMPLE_RATE_HZ / FFT_SIZE

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=np.complex128))
        if self.bins.size != FFT_SIZE // 2 + 1:
            raise ValueError(f"one-sided spectrum has {FFT_SIZE // 2 + 1} bins, got {self.bins.size}")


def fft_1024(current: Sequence[float] | np.ndarray) -> Spectrum:
    """Zero-pad the 1000-sample current window to 1024 and transform it."""
    current = np.asarray(current, dtype=np.float64)
    if current.size != WINDOW_SAMPLES:
        raise ValueError(f"expected exactly {WINDOW_SAMPLES} samples, got {current.size}")
    padded = np.zeros(FFT_SIZE)
    padded[:WINDOW_SAMPLES] = current
    full = fft_radix2(padded)
    return Spectrum(bins=full[: FFT_SIZE // 2 + 1])


# --- layouts -----------------------------------------------------------------

@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    unit: str


@dataclass(frozen=True)
class FeatureLayout:
    """Ordered description of one feature vector.

    time_domain controls the leading [P, |S|, Q] triple; harmonic_orders are
    the odd mains-harmonic orders reported afterwards, as (re, im) pairs or,
    with complex_pairs=False, as magnitudes.
    """

    time_domain: bool = True
    harmonic_orders: tuple[int, ...] = DEFAULT_HARMONIC_ORDERS
    complex_pairs: bool = True

    def __post_init__(self):
        object.__setattr__(self, "harmonic_orders", tuple(self.harmonic_orders))
        orders = self.harmonic_orders
        if any(k % 2 == 0 or k < 1 for k in orders):
            raise ValueError("harmonic orders must be odd and >= 1")
        if list(orders) != sorted(set(orders)):
            raise ValueError("harmonic orders must be strictly increasing")
        if orders and orders[-1] > 99:
            raise ValueError("harmonic orders are limited to 99 (below 5 kHz)")
        if not self.time_domain and not orders:
            raise ValueError("a layout needs at least one feature")

    def __len__(self) -> int:
        per_harmonic = 2 if self.complex_pairs else 1
        return (3 if self.time_domain else 0) + per_harmonic * len(self.harmonic_orders)

    @property
    def descriptors(self) -> tuple[FeatureDescriptor, ...]:
        out: list[FeatureDescriptor] = []
        if self.time_domain:
            out += [
                FeatureDescriptor("P", "W"),
                FeatureDescriptor("S_abs", "VA"),
                FeatureDescriptor("Q", "VAR"),
            ]
        for k in self.harmonic_orders:
            if self.complex_pairs:
                out.append(FeatureDescriptor(f"H{k}_re", "A"))
                out.append(FeatureDescriptor(f"H{k}_im", "A"))
            else:
                out.append(FeatureDescriptor(f"H{k}_mag", "A"))
        return tuple(out)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.descriptors)

    def harmonic_bin(self, order: int) -> int:
        """Nearest 1024-point bin to the order-th 50 Hz harmonic."""
        return int(np.floor(50.0 * order * FFT_SIZE / SAMPLE_RATE_HZ + 0.5))

    def to_dict(self) -> dict:
        return {
            "time_domain": self.time_domain,
            "harmonic_orders": list(self.harmonic_orders),
            "complex_pairs": self.complex_pairs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureLayout":
        return cls(
            time_domain=bool(d["time_domain"]),
            harmonic_orders=tuple(int(k) for k in d["harmonic_orders"]),
            complex_pairs=bool(d["complex_pairs"]),
        )


DEFAULT_LAYOUT = FeatureLayout()

TIME_ONLY_LAYOUT = FeatureLayout(harmonic_orders=())
FREQUENCY_ONLY_LAYOUT = FeatureLayout(time_domain=False)


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    layout: FeatureLayout
    window_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.size != len(self.layout):
            raise ValueError(
                f"vector length {self.values.size} does not match layout length {len(self.layout)}"
            )


# --- feature computations ----------------------------------------------------

def real_power(w: SampleWindow) -> float:
    """Average instantaneous power over the window: mean of v[k]*i[k], in W."""
    return float(np.dot(w.v, w.i) / WINDOW_SAMPLES)


def apparent_power(w: SampleWindow) -> float:
    """|S| = V_rms * I_rms over the window, in VA."""
    v_rms = np.sqrt(np.dot(w.v, w.v) / WINDOW_SAMPLES)
    i_rms = np.sqrt(np.dot(w.i, w.i) / WINDOW_SAMPLES)
    return float(v_rms * i_rms)


def reactive_power(p: float, s_abs: float) -> float:
    """Q = sqrt(|S|^2 - P^2), clamped at 0 when rounding pushes |P| past |S|."""
    return float(np.sqrt(max(0.0, s_abs * s_abs - p * p)))


def extract_harmonics(spec: Spectrum, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """Harmonic components per the layout, scaled by 2/1000."""
    out = np.empty(len(layout.harmonic_orders) * (2 if layout.complex_pairs else 1))
    pos = 0
    for order in layout.harmonic_orders:
        c = spec.bins[layout.harmonic_bin(order)] * HARMONIC_SCALE
        if layout.complex_pairs:
            out[pos] = c.real
            out[pos + 1] = c.imag
            pos += 2
        else:
            out[pos] = abs(c)
            pos += 1
    return out


def extract_features(w: SampleWindow, layout: FeatureLayout = DEFAULT_LAYOUT) -> FeatureVector:
    """Assemble the per-window feature vector in layout order."""
    parts: list[np.ndarray] = []
    if layout.time_domain:
        p = real_power(w)
        s = apparent_power(w)
        parts.append(np.array([p, s, reactive_power(p, s)]))
    if layout.harmonic_orders:
        parts.append(extract_harmonics(fft_1024(w.i), layout))
    return FeatureVector(values=np.concatenate(parts), layout=layout, window_index=w.index)


def feature_matrix(windows: Iterable[SampleWindow], layout: FeatureLayout = DEFAULT_LAYOUT):
    """Stack extract_features over windows; returns (matrix, window indices)."""
    rows = []
    idx = []
    for w in windows:
        fv = extract_features(w, layout)
        rows.append(fv.values)
        idx.append(fv.window_index)
    if not rows:
        return np.empty((0, len(layout))), []
    return np.vstack(rows), idx


def write_features_csv(path, matrix: np.ndarray, window_indices: Sequence[int],
                       layout: FeatureLayout = DEFAULT_LAYOUT) -> None:
    """One row per window: window_index followed by the layout's features."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index," + ",".join(layout.names) + "\n")
        for j, row in zip(window_indices, matrix):
            fh.write(str(int(j)) + "," + ",".join(repr(float(x)) for x in row) + "\n")
