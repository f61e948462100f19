"""Switching-event detection and the differential feature vector.

An event is a window-to-window step of the real-power track whose magnitude
strictly exceeds the detection threshold (5 W by default), which must be a
finite positive number of watts. For overlapped loads, classification uses
the differential vector

    dF(j) = (F[j-20] + F[j-10] + F[j-1]) / 3 - (F[j+1] + F[j+10] + F[j+20]) / 3

built from the 41-window (4.1 s) neighbourhood of the event window j. The
pre-minus-post orientation is kept as printed, so a turn-on yields negative
power components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_THRESHOLD_W = 5.0
DELTA_OFFSETS_PRE = (-20, -10, -1)
DELTA_OFFSETS_POST = (1, 10, 20)
DELTA_HALF_SPAN = 20  # windows on each side of the event
GUARD_RADIUS = 20  # another event within +-20 windows invalidates both


@dataclass(frozen=True)
class SwitchEvent:
    window_index: int
    delta_p_w: float

    @property
    def direction(self) -> str:
        """"on" for a positive power step, "off" for a negative one."""
        return "on" if self.delta_p_w > 0 else "off"


def check_threshold(threshold_w: float) -> None:
    """Reject a detection threshold that is not a finite positive number:
    with NaN, |delta| <= threshold never holds, so every window would be an
    event."""
    if not 0.0 < threshold_w < math.inf:
        raise ValueError(
            f"threshold must be a finite positive number of watts, got {threshold_w!r}")


def detect_event(
    p_prev: float,
    p_curr: float,
    threshold_w: float = DEFAULT_THRESHOLD_W,
    window_index: int = 0,
) -> SwitchEvent | None:
    """Emit an event iff |p_curr - p_prev| strictly exceeds the threshold.

    The boundary case |delta| == threshold does not trigger; non-finite
    power raises ValueError rather than passing as an "off" step."""
    check_threshold(threshold_w)
    if not (math.isfinite(p_prev) and math.isfinite(p_curr)):
        raise ValueError(f"non-finite power at window {window_index}: {p_prev!r} -> {p_curr!r}")
    delta = p_curr - p_prev
    if abs(delta) <= threshold_w:
        return None
    return SwitchEvent(window_index=window_index, delta_p_w=float(delta))


def delta_feature(features: np.ndarray, j: int) -> np.ndarray:
    """Differential vector of event window j from rows j-20 .. j+20 of a
    window-indexed feature matrix (row w holds window w's features).

    Raises ValueError naming the windows the matrix does not hold."""
    windows = [j + off for off in DELTA_OFFSETS_PRE + DELTA_OFFSETS_POST]
    missing = [w for w in windows if not 0 <= w < len(features)]
    if missing:
        raise ValueError(f"the delta of window {j} needs windows {missing}, "
                         f"outside the {len(features)}-window feature matrix")
    rows = features[windows]
    return delta_feature_from_windows(rows[:3], rows[3:])


def delta_feature_from_windows(pre: Sequence[np.ndarray], post: Sequence[np.ndarray]) -> np.ndarray:
    """The differential vector on explicit window triples: mean(pre) - mean(post)."""
    if len(pre) != 3 or len(post) != 3:
        raise ValueError("the differential vector averages exactly three windows per side")
    a = (np.asarray(pre[0], float) + pre[1] + pre[2]) / 3.0
    b = (np.asarray(post[0], float) + post[1] + post[2]) / 3.0
    return a - b


def event_guard(events: Sequence[SwitchEvent]) -> list[bool]:
    """Flag each event valid iff no other event lies within +-GUARD_RADIUS
    windows.

    Invalid events are excluded from differential-vector classification."""
    indices = [e.window_index for e in events]
    if indices != sorted(indices):
        raise ValueError("events must be ordered by window index")
    valid = []
    for k, j in enumerate(indices):
        clash = any(abs(j - other) <= GUARD_RADIUS for m, other in enumerate(indices) if m != k)
        valid.append(not clash)
    return valid
