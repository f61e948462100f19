"""End-to-end plumbing: turning scenario streams into labeled datasets and
running the online window -> features -> event -> classify loop.

One in-order event core serves both the offline differential-vector
dataset and the online classifier. It pulls windows from the stream in
blocks of features.EXTRACT_BLOCK (32, 3.2 s of signal) and extracts each
block with one extract_feature_matrix call; from there it goes on one
window at a time: it steps the real-power track through threshold
detection and keeps the last 41 vectors in a ring. An event detected at
window j resolves at window j+20: the +-20-window guard decides it and, if
it is valid, the differential vector is taken from the ring. Events still
open at end of stream come out unresolved. Single-appliance mode labels
the window where the power threshold crossing is observed;
multi-appliance mode labels resolved events and reports the rest as
invalid or pending. Blocks change when a result is ready, up to 31
windows later, never what it is: a window's features do not depend on its
block. window_dataset extracts its steady windows in the same blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .events import (
    DEFAULT_THRESHOLD_W,
    DELTA_HALF_SPAN,
    GUARD_RADIUS,
    DeltaBuffer,
    SwitchEvent,
    WindowNotReady,
    check_sign,
    delta_feature,
    delta_feature_from_windows,  # noqa: F401 - perfbench/spans.py wraps it at this name
    detect_event,
    event_guard,
)
from .features import (
    DEFAULT_LAYOUT,
    FeatureLayout,
    extract_blocks,
    extract_features,  # noqa: F401 - perfbench/spans.py wraps it at this name
    real_power,
)
from .models.base import BaseModel, classify_matrix
from .signals import SampleStream, window_stream
from .synth import LabelTrack
from .train.dataset import Dataset


def _event_core(
    stream: SampleStream, layout: FeatureLayout, threshold_w: float, sign: str
) -> Iterator[tuple[np.ndarray | None, SwitchEvent | None, list[tuple]]]:
    """Yield (features, event detected here or None, events resolved here)
    per window, then (None, None, events left open) once the stream ends.

    A resolved event is (event, valid, delta): delta is None when the guard
    rejects the event or the ring never held window j-20. Open events come
    out valid with delta None. The guard and the delta both need every
    window up to j+20, hence GUARD_RADIUS == DELTA_HALF_SPAN."""
    check_sign(sign)
    buffer = DeltaBuffer()
    recent: deque[SwitchEvent] = deque()  # events the guard may still need
    open_events: deque[SwitchEvent] = deque()
    prev_p: float | None = None
    for w, values in extract_blocks(window_stream(stream), layout):
        buffer.push(w.index, values)
        # detection always runs on real power, even for layouts without it
        p = float(values[0]) if layout.time_domain else real_power(w)
        ev = None if prev_p is None else detect_event(prev_p, p, threshold_w, window_index=w.index)
        prev_p = p
        if ev is not None:
            recent.append(ev)
            open_events.append(ev)
        resolved = []
        j = w.index - DELTA_HALF_SPAN
        if open_events and open_events[0].window_index == j:
            due = open_events.popleft()
            while recent[0].window_index < j - GUARD_RADIUS:
                recent.popleft()
            near = list(recent)
            valid = event_guard(near)[near.index(due)]
            delta = None
            if valid:
                try:
                    delta = delta_feature(buffer, j, sign=sign)
                except WindowNotReady:
                    pass
            resolved.append((due, valid, delta))
        yield values, ev, resolved
    yield None, None, [(e, True, None) for e in open_events]


def window_dataset(
    stream: SampleStream,
    track: LabelTrack,
    layout: FeatureLayout = DEFAULT_LAYOUT,
    class_names: tuple[str, ...] | None = None,
    provenance: str = "synthetic-windows",
) -> Dataset:
    """Steady-state single-appliance dataset: one row per window in which
    exactly one appliance is on and no switch occurs."""
    if class_names is None:
        seen = sorted({app for s in track.active for app in s})
        class_names = tuple(seen)
    index_of = {name: k for k, name in enumerate(class_names)}
    steady = (w for w in window_stream(stream)
              if w.index < len(track) and w.index not in track.toggles
              and len(track.active[w.index]) == 1)
    rows, labels = [], []
    for w, values in extract_blocks(steady, layout):
        (app,) = track.active[w.index]
        rows.append(values)
        labels.append(index_of[app])
    return _dataset(rows, labels, class_names, layout, provenance,
                    "steady single-appliance windows")


def delta_dataset(
    stream: SampleStream,
    track: LabelTrack,
    layout: FeatureLayout = DEFAULT_LAYOUT,
    class_names: tuple[str, ...] | None = None,
    threshold_w: float = DEFAULT_THRESHOLD_W,
    sign: str = "pre_minus_post",
    provenance: str = "synthetic-delta",
) -> Dataset:
    """Differential-vector dataset: one row per valid detected event whose
    window matches a scripted toggle (within one window of slack)."""
    if class_names is None:
        seen = sorted({app for s in track.active for app in s}
                      | {app for evs in track.toggles.values() for app, _ in evs})
        class_names = tuple(seen)
    index_of = {name: k for k, name in enumerate(class_names)}

    rows, labels = [], []
    for _, _, resolved in _event_core(stream, layout, threshold_w, sign):
        for ev, _, delta in resolved:
            label = None if delta is None else _matching_toggle(track, ev.window_index)
            if label is not None:
                rows.append(delta)
                labels.append(index_of[label])
    return _dataset(rows, labels, class_names, layout, provenance, "valid labeled events")


def _dataset(rows, labels, class_names, layout, provenance, what: str) -> Dataset:
    if not rows:
        raise ValueError(f"no {what} found in the scenario")
    return Dataset(
        x=np.vstack(rows),
        y=np.array(labels, dtype=np.int64),
        class_names=class_names,
        layout=layout,
        provenance=provenance,
    )


def _matching_toggle(track: LabelTrack, window_index: int) -> str | None:
    for j in (window_index, window_index - 1, window_index + 1):
        if j in track.toggles:
            return track.toggles[j][0][0]
    return None


# --- online classification -----------------------------------------------------

@dataclass(frozen=True)
class StreamLabel:
    window_index: int
    delta_p_w: float
    direction: str
    valid: bool
    status: str  # "labeled" | "invalid" | "pending"
    label: str | None


def classify_stream(
    stream: SampleStream,
    model: BaseModel,
    mode: str = "single",
    threshold_w: float = DEFAULT_THRESHOLD_W,
    sign: str = "pre_minus_post",
) -> list[StreamLabel]:
    """Run the full online pipeline over a stream with the given model."""
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi', got {mode!r}")
    out: list[StreamLabel] = []
    for values, ev, resolved in _event_core(stream, model.layout, threshold_w, sign):
        if mode == "single":  # label each event at once from its own window
            resolved = [] if ev is None else [(ev, True, values)]
        for ev, valid, x in resolved:
            if not valid:
                status, label = "invalid", None
            elif x is None:  # lookahead or look-back never filled
                status, label = "pending", None
            else:
                status, label = "labeled", model.class_names[classify_matrix(model, x[None, :])[0]]
            out.append(StreamLabel(ev.window_index, ev.delta_p_w, ev.direction,
                                   valid=valid, status=status, label=label))
    return out


def write_stream_labels_csv(path, labels: list[StreamLabel]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index,delta_p_w,direction,valid,status,label\n")
        for s in labels:
            fh.write(
                f"{s.window_index},{s.delta_p_w!r},{s.direction},"
                f"{int(s.valid)},{s.status},{s.label or ''}\n"
            )
