"""End-to-end plumbing: turning scenario streams into labeled datasets and
running the online window -> features -> event -> classify chain.

Every entry reads its stream once, as the two (windows, 1000) row views
that signals.window_rows gives, and extracts features only through
features.window_features, which gathers the listed windows' rows a few at
a time: no entry copies the whole stream.

One event core serves both the offline differential-vector dataset and the
online classifier. It makes a few batched passes over the row views and
returns one (event, valid, vector) per result, in window order. The passes
are: P of every window (features.real_power_matrix: no |S|, Q or FFT);
detect_event on the windows whose power step does not stay within the
threshold; event_guard once on all events; then one window_features call
on just the windows the results read, and one delta_feature_from_windows
call on every differential vector's stacked window triples. Single-appliance
mode labels each event with its own window's full vector. Otherwise an
event at window j is resolved iff window j+20 exists: the +-20-window
guard decides it and, if it is valid and window j-20 exists, its
differential vector comes from windows j-20, j-10, j-1, j+1, j+10 and
j+20. Unresolved events come out valid with no vector. A window's features
do not depend on which other windows are extracted with it or on the
stream's memory layout, and the delta arithmetic is elementwise, so every
result has the bits it would have alone. Classification stays one row per
event: a batched MLP forward or SVM kernel over many rows can differ from
one-row calls in the last bits. window_dataset extracts the steady windows
the same way. No path builds a SampleWindow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import (
    DEFAULT_THRESHOLD_W,
    DELTA_HALF_SPAN,
    DELTA_OFFSETS,
    SwitchEvent,
    check_threshold,
    delta_feature,  # noqa: F401 - perfbench/spans.py wraps it at this name
    delta_feature_from_windows,
    detect_event,
    event_guard,
)
from .features import (
    DEFAULT_LAYOUT,
    FeatureLayout,
    extract_features,  # noqa: F401 - perfbench/spans.py wraps it at this name
    real_power_matrix,
    window_features,
)
from .models.base import BaseModel, classify_matrix
from .records import write_csv
from .signals import SampleStream, window_rows
from .signals import window_stream  # noqa: F401 - perfbench/spans.py wraps it at this name
from .synth import LabelTrack
from .train.dataset import Dataset


def _event_core(
    stream: SampleStream, layout: FeatureLayout, threshold_w: float, single: bool = False,
) -> list[tuple[SwitchEvent, bool, np.ndarray | None]]:
    """(event, valid, x) per result, in window order, from a few passes over
    the stream.

    1. P of every window, one real_power_matrix call on window_rows' views
       of the stream.
    2. detect_event on each candidate window w only: those where
       |P[w] - P[w-1]| <= threshold_w fails, every non-finite pair among
       them. It builds the events and raises for the first non-finite one.
    3. Multi mode runs event_guard once on all events. An event at window
       j is resolved iff window j+20 exists: the guard and the delta both
       need every window up to j+20 (GUARD_RADIUS is DELTA_HALF_SPAN).
    4. One window_features call extracts the windows the results read,
       and one delta_feature_from_windows call averages every event's
       stacked triples. Its arithmetic is elementwise, so each vector has
       the bits it has alone.

    With single=True every event is valid and x is its own window's full
    vector in the layout. Otherwise x is the event's differential vector,
    or None when the guard rejects it or the stream has no window j-20; an
    unresolved event comes out as (event, True, None). No samples are
    copied beyond the few rows that real_power_matrix and window_features
    make contiguous at a time. Callers classify the vectors one row per
    event, since a batched MLP forward or SVM kernel can change a row's
    last bits. The threshold is checked before the first window is read."""
    check_threshold(threshold_w)
    v, i = window_rows(stream)
    # detection always runs on real power, whatever the layout holds
    p = real_power_matrix(v, i)
    p_list = p.tolist()
    steps = np.flatnonzero(~(np.abs(np.diff(p)) <= threshold_w)) + 1
    events = [detect_event(p_list[w - 1], p_list[w], threshold_w, window_index=w)
              for w in steps.tolist()]
    if single:
        x = window_features(v, i, [ev.window_index for ev in events], layout)
        return [(ev, True, row) for ev, row in zip(events, x)]
    results, windows = [], []
    for ev, valid in zip(events, event_guard(events)):
        j = ev.window_index
        resolved = j + DELTA_HALF_SPAN < len(p)
        reads = resolved and valid and j >= DELTA_HALF_SPAN  # windows j-20 .. j+20 exist
        results.append((ev, valid or not resolved, reads))
        if reads:
            windows += [j + off for off in DELTA_OFFSETS]
    rows = window_features(v, i, windows, layout)
    triples = [rows[k::len(DELTA_OFFSETS)] for k in range(len(DELTA_OFFSETS))]
    deltas = iter(delta_feature_from_windows(triples[:3], triples[3:]))
    return [(ev, valid, next(deltas) if reads else None) for ev, valid, reads in results]


def window_dataset(
    stream: SampleStream,
    track: LabelTrack,
    layout: FeatureLayout = DEFAULT_LAYOUT,
    class_names: tuple[str, ...] | None = None,
) -> Dataset:
    """Steady-state single-appliance dataset: one row per window in which
    exactly one appliance is on and no switch occurs."""
    if class_names is None:
        seen = sorted({app for s in track.active for app in s})
        class_names = tuple(seen)
    index_of = {name: k for k, name in enumerate(class_names)}
    v, i = window_rows(stream)
    steady = [j for j in range(min(len(v), len(track)))
              if j not in track.toggles and len(track.active[j]) == 1]
    labels = [index_of[app] for j in steady for app in track.active[j]]
    return _dataset(window_features(v, i, steady, layout), labels, class_names, layout,
                    "synthetic-windows", "steady single-appliance windows")


def delta_dataset(
    stream: SampleStream,
    track: LabelTrack,
    layout: FeatureLayout = DEFAULT_LAYOUT,
    class_names: tuple[str, ...] | None = None,
    threshold_w: float = DEFAULT_THRESHOLD_W,
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
    return _dataset(rows, labels, class_names, layout, "synthetic-delta", "valid labeled events")


def _dataset(x, labels, class_names, layout, provenance, what: str) -> Dataset:
    if not labels:
        raise ValueError(f"no {what} found in the scenario")
    return Dataset(
        x=x,
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
class StreamLabel(SwitchEvent):
    """An event as the online classifier reports it."""

    status: str  # "labeled" | "invalid" | "pending"
    label: str | None

    @property
    def valid(self) -> bool:
        """False only for an event the guard rejected."""
        return self.status != "invalid"


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
        out.append(StreamLabel(ev.window_index, ev.delta_p_w, status=status, label=label))
    return out


def write_stream_labels_csv(path, labels: list[StreamLabel]) -> None:
    write_csv(path, ("window_index", "delta_p_w", "direction", "valid", "status", "label"),
              ((s.window_index, s.delta_p_w, s.direction, int(s.valid), s.status, s.label or "")
               for s in labels))
