"""Switching-event detection and the differential feature vector.

An event is a window-to-window step of the real-power track whose magnitude
strictly exceeds the detection threshold (5 W by default). For overlapped
loads, classification uses the differential vector

    dF(j) = (F[j-20] + F[j-10] + F[j-1]) / 3 - (F[j+1] + F[j+10] + F[j+20]) / 3

built from the 41-window (4.1 s) neighbourhood of the event window j. The
pre-minus-post orientation is kept as printed, so a turn-on yields negative
power components; `sign="post_minus_pre"` flips it for experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_THRESHOLD_W = 5.0
DELTA_OFFSETS_PRE = (-20, -10, -1)
DELTA_OFFSETS_POST = (1, 10, 20)
DELTA_HALF_SPAN = 20  # windows on each side of the event
GUARD_RADIUS = 20  # another event within +-20 windows invalidates both


class WindowNotReady(LookupError):
    """The delta buffer does not yet span the six windows around the event."""


@dataclass(frozen=True)
class SwitchEvent:
    window_index: int
    delta_p_w: float
    direction: str  # "on" for a positive power step, "off" for negative

    def __post_init__(self):
        if self.direction not in ("on", "off"):
            raise ValueError(f"direction must be 'on' or 'off', got {self.direction!r}")


def detect_event(
    p_prev: float,
    p_curr: float,
    threshold_w: float = DEFAULT_THRESHOLD_W,
    window_index: int = 0,
) -> SwitchEvent | None:
    """Emit an event iff |p_curr - p_prev| strictly exceeds the threshold.

    The boundary case |delta| == threshold does not trigger; non-finite
    power raises ValueError rather than passing as an "off" step."""
    if threshold_w <= 0:
        raise ValueError("threshold must be positive")
    if not (math.isfinite(p_prev) and math.isfinite(p_curr)):
        raise ValueError(f"non-finite power at window {window_index}: {p_prev!r} -> {p_curr!r}")
    delta = p_curr - p_prev
    if abs(delta) <= threshold_w:
        return None
    return SwitchEvent(
        window_index=window_index,
        delta_p_w=float(delta),
        direction="on" if delta > 0 else "off",
    )


class DeltaBuffer:
    """Ring of the most recent 41 feature vectors, slot = window index % 41.

    Single-writer, single-reader; one instance per stream."""

    CAPACITY = 2 * DELTA_HALF_SPAN + 1  # 41 windows = 4.1 s

    def __init__(self):
        self._slots: list[tuple[int, np.ndarray] | None] = [None] * self.CAPACITY
        self._count = 0
        self.latest_index: int | None = None

    def push(self, window_index: int, values: np.ndarray) -> None:
        if self.latest_index is not None and window_index != self.latest_index + 1:
            raise ValueError(
                f"window indices must be consecutive: got {window_index} after {self.latest_index}"
            )
        self._slots[window_index % self.CAPACITY] = (window_index, np.asarray(values, dtype=np.float64))
        self._count = min(self._count + 1, self.CAPACITY)
        self.latest_index = window_index

    def __len__(self) -> int:
        return self._count

    def get(self, window_index: int) -> np.ndarray:
        slot = self._slots[window_index % self.CAPACITY]
        if slot is None or slot[0] != window_index:
            raise WindowNotReady(f"window {window_index} is not buffered")
        return slot[1]


def check_sign(sign: str) -> None:
    """Reject a differential-vector orientation other than the two defined."""
    if sign not in ("pre_minus_post", "post_minus_pre"):
        raise ValueError(f"unknown sign convention {sign!r}")


def delta_feature(buffer: DeltaBuffer, event_index: int, sign: str = "pre_minus_post") -> np.ndarray:
    """Differential feature vector around event window j = event_index.

    Requires windows j-20, j-10, j-1, j+1, j+10, j+20 in the buffer; raises
    WindowNotReady otherwise (retry once 20 more windows have streamed in).
    """
    pre = [buffer.get(event_index + off) for off in DELTA_OFFSETS_PRE]
    post = [buffer.get(event_index + off) for off in DELTA_OFFSETS_POST]
    return delta_feature_from_windows(pre, post, sign=sign)


def delta_feature_from_windows(
    pre: Sequence[np.ndarray], post: Sequence[np.ndarray], sign: str = "pre_minus_post"
) -> np.ndarray:
    """The differential vector on explicit window triples: mean(pre) - mean(post)."""
    check_sign(sign)
    if len(pre) != 3 or len(post) != 3:
        raise ValueError("the differential vector averages exactly three windows per side")
    a = (np.asarray(pre[0], float) + pre[1] + pre[2]) / 3.0
    b = (np.asarray(post[0], float) + post[1] + post[2]) / 3.0
    delta = a - b
    return -delta if sign == "post_minus_pre" else delta


def event_guard(events: Sequence[SwitchEvent], radius: int = GUARD_RADIUS) -> list[bool]:
    """Flag each event valid iff no other event lies within +-radius windows.

    Invalid events are excluded from differential-vector classification."""
    indices = [e.window_index for e in events]
    if indices != sorted(indices):
        raise ValueError("events must be ordered by window index")
    valid = []
    for k, j in enumerate(indices):
        clash = any(abs(j - other) <= radius for m, other in enumerate(indices) if m != k)
        valid.append(not clash)
    return valid


def write_event_log_csv(path, events: Iterable[SwitchEvent], valid: Sequence[bool]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index,delta_p_w,direction,valid\n")
        for ev, ok in zip(events, valid):
            fh.write(f"{ev.window_index},{ev.delta_p_w!r},{ev.direction},{int(ok)}\n")
