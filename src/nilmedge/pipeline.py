"""End-to-end plumbing: turning scenario streams into labeled datasets and
running the online window -> features -> event -> classify loop.

One in-order event core serves both the offline differential-vector
dataset and the online classifier, and yields one (event, valid, vector)
per result, in window order. It reads the stream as consecutive
(32, 1000) row blocks from signals.window_blocks (features.EXTRACT_BLOCK
windows, 3.2 s of signal) and keeps the blocks that cover the last 41
windows, as views into the stream. Every window gets its real power, one
features.real_power_matrix call per block (no |S|, Q or FFT), and the
core steps that track through threshold detection one window at a time.
Single-appliance mode reports each event at its own window with that
window's full vector. Otherwise an event detected at window j comes out
at window j+20: the +-20-window guard decides it and, if it is valid,
the six windows of its differential vector are extracted in the model's
layout in one extract_feature_matrix call. Events still open at end of
stream come out valid with no vector. So the harmonic FFT runs on the
windows a result needs and on no others. Blocks change when a result is
ready, up to 31 windows later, never what it is: a window's features do
not depend on its block, on which other windows are extracted with it,
or on the stream's memory layout. window_dataset reads the same blocks
and extracts only their steady rows. No path builds a SampleWindow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .events import (
    DEFAULT_THRESHOLD_W,
    DELTA_HALF_SPAN,
    DELTA_OFFSETS_POST,
    DELTA_OFFSETS_PRE,
    GUARD_RADIUS,
    SwitchEvent,
    check_threshold,
    delta_feature,  # noqa: F401 - perfbench/spans.py wraps it at this name
    delta_feature_from_windows,
    detect_event,
    event_guard,
)
from .features import (
    DEFAULT_LAYOUT,
    EXTRACT_BLOCK,
    FeatureLayout,
    extract_feature_matrix,
    extract_features,  # noqa: F401 - perfbench/spans.py wraps it at this name
    real_power_matrix,
)
from .models.base import BaseModel, classify_matrix
from .signals import SampleStream, window_blocks
from .signals import window_stream  # noqa: F401 - perfbench/spans.py wraps it at this name
from .synth import LabelTrack
from .train.dataset import Dataset


def _event_core(
    stream: SampleStream, layout: FeatureLayout, threshold_w: float, single: bool = False,
) -> Iterator[tuple[SwitchEvent, bool, np.ndarray | None]]:
    """Yield (event, valid, x) per result, in window order.

    With single=True every event comes out at its own window, valid, and x
    is that window's full vector in the layout. Otherwise an event at
    window j comes out at window j+20 with the guard's verdict, and x is
    its differential vector, or None when the guard rejects the event or
    the stream has no window j-20; events still open at end of stream
    come out as (event, True, None). The guard and the delta both need
    every window up to j+20, hence GUARD_RADIUS == DELTA_HALF_SPAN. The
    threshold is checked before the first window is read."""
    check_threshold(threshold_w)
    blocks: deque[tuple[int, np.ndarray, np.ndarray]] = deque()  # cover windows w-40 .. w
    recent: deque[SwitchEvent] = deque()  # events the guard may still need
    open_events: deque[SwitchEvent] = deque()
    prev_p: float | None = None
    for first, v, i in window_blocks(stream, EXTRACT_BLOCK):
        blocks.append((first, v, i))
        while blocks[0][0] + len(blocks[0][1]) <= first - 2 * DELTA_HALF_SPAN:
            blocks.popleft()
        # detection always runs on real power, whatever the layout holds
        p_rows = real_power_matrix(v, i).tolist()
        for k, p in enumerate(p_rows):
            w = first + k
            ev = None if prev_p is None else detect_event(prev_p, p, threshold_w, window_index=w)
            prev_p = p
            if ev is not None and single:
                yield ev, True, _window_rows(blocks, [w], layout)[0]
            elif ev is not None:
                recent.append(ev)
                open_events.append(ev)
            j = w - DELTA_HALF_SPAN
            if open_events and open_events[0].window_index == j:
                due = open_events.popleft()
                while recent[0].window_index < j - GUARD_RADIUS:
                    recent.popleft()
                near = list(recent)
                valid = event_guard(near)[near.index(due)]
                delta = None
                if valid and j >= DELTA_HALF_SPAN:  # window j-20 exists
                    rows = _window_rows(blocks, [j + off for off in DELTA_OFFSETS_PRE
                                                 + DELTA_OFFSETS_POST], layout)
                    delta = delta_feature_from_windows(rows[:3], rows[3:])
                yield due, valid, delta
    for ev in open_events:
        yield ev, True, None


def _window_rows(blocks, windows: list[int], layout: FeatureLayout) -> np.ndarray:
    """The given windows' rows, picked from the held blocks, extracted in
    the layout with one call."""
    v_rows, i_rows = zip(*((v[w - first], i[w - first]) for w in windows
                           for first, v, i in blocks if first <= w < first + len(v)))
    return extract_feature_matrix(v_rows, i_rows, layout)


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
    rows, labels = [], []
    for first, v, i in window_blocks(stream, EXTRACT_BLOCK):
        steady = [j for j in range(first, first + len(v)) if j < len(track)
                  and j not in track.toggles and len(track.active[j]) == 1]
        if steady:
            k = np.subtract(steady, first)
            rows.append(extract_feature_matrix(v[k], i[k], layout))
            labels += [index_of[app] for j in steady for app in track.active[j]]
    return _dataset(rows, labels, class_names, layout, provenance,
                    "steady single-appliance windows")


def delta_dataset(
    stream: SampleStream,
    track: LabelTrack,
    layout: FeatureLayout = DEFAULT_LAYOUT,
    class_names: tuple[str, ...] | None = None,
    threshold_w: float = DEFAULT_THRESHOLD_W,
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
    for ev, _, delta in _event_core(stream, layout, threshold_w):
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
) -> list[StreamLabel]:
    """Run the full online pipeline over a stream with the given model."""
    if mode not in ("single", "multi"):
        raise ValueError(f"mode must be 'single' or 'multi', got {mode!r}")
    out: list[StreamLabel] = []
    for ev, valid, x in _event_core(stream, model.layout, threshold_w, single=mode == "single"):
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
