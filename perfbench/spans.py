"""Spans recorded from outside the library.

`Tracer.install()` swaps each public name in `TARGETS`, at the place where
its callers look it up, for a wrapper that records a span (name, start,
end, parent, value) in memory; `uninstall()` puts the originals back. The
value is whatever the target's `measure` reads off the call's result, such
as the rows a predictor saw or the nodes a forest grew. Nothing under
`src/` changes.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

import numpy as np


def _rows(result) -> int:
    return int(np.shape(result)[0])


def _statuses(labels) -> Counter:
    return Counter(s.status for s in labels)


# (owner, attribute, span name, measure). The owner is the module (or
# "module:Class") through which callers reach the attribute.
TARGETS = (
    ("nilmedge.synth", "synth_scenario", "synth.scenario", lambda r: len(r[0])),
    ("nilmedge.signals", "calibrate_raw", "signals.calibrate", len),
    ("nilmedge.signals", "decimate_stream", "signals.decimate", None),
    ("nilmedge.pipeline", "window_dataset", "pipeline.window_dataset", None),
    ("nilmedge.pipeline", "delta_dataset", "pipeline.delta_dataset", None),
    ("nilmedge.pipeline", "classify_stream", "pipeline.classify_stream", _statuses),
    ("nilmedge.pipeline", "extract_features", "features.extract", None),
    ("nilmedge.features", "fft_1024", "features.fft", None),
    ("nilmedge.features", "real_power", "features.pqs", None),
    ("nilmedge.features", "apparent_power", "features.pqs", None),
    ("nilmedge.features", "reactive_power", "features.pqs", None),
    ("nilmedge.pipeline", "detect_event", "events.detect", lambda r: int(r is not None)),
    ("nilmedge.pipeline", "event_guard", "events.guard", lambda r: r.count(False)),
    ("nilmedge.pipeline", "delta_feature", "events.delta", None),
    ("nilmedge.pipeline", "delta_feature_from_windows", "events.delta", None),
    ("nilmedge.models.forest:RfModel", "predict_matrix", "models.rf.predict", _rows),
    ("nilmedge.models.forest:TreeNodes", "route_matrix", "models.rf.route", None),
    ("nilmedge.models.mlp:MlpModel", "predict_matrix", "models.mlp.predict", _rows),
    ("nilmedge.train.trainers", "train_rf", "train.rf_fit", lambda r: r.node_count),
    ("nilmedge.train.trainers", "train_mlp", "train.mlp_fit", None),
    ("nilmedge.train.selection", "mda_rank", "train.mda", None),
    ("nilmedge.train.selection", "sweep_feature_count", "train.sweep", lambda r: len(r.points)),
    ("nilmedge.train.selection", "cost_report", "cost.report", None),
    ("nilmedge.cost", "cost_report", "cost.report", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, value]
        self.windows = 0  # windows yielded by pipeline.window_stream
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own; the benchmark's root spans use this."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def _wrap(self, fn, name: str, measure):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if measure is not None:
                record[4] = measure(result)
            return result

        return traced

    def _counted_windows(self, fn):
        def counted(*args, **kwargs):
            for w in fn(*args, **kwargs):
                self.windows += 1
                yield w

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = [(_owner(path), attr, self._wrap(getattr(_owner(path), attr), name, measure))
                for path, attr, name, measure in TARGETS]
        pipeline = _owner("nilmedge.pipeline")
        plan.append((pipeline, "window_stream", self._counted_windows(pipeline.window_stream)))
        for owner, attr, wrapper in plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, value."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, value in self.spans:
                fh.write(json.dumps([name, start, end, parent, value]) + "\n")


class SpanTable:
    """Durations, self times and values of the spans under one root span."""

    def __init__(self, spans: list[list], root: int):
        inside = {root}
        self.rows = []
        for k in range(root + 1, len(spans)):
            if spans[k][3] not in inside:
                break  # spans are stored in start order, so the subtree is contiguous
            inside.add(k)
            self.rows.append(k)
        self.spans = spans
        self.root = root
        child = Counter()
        for k in self.rows:
            name, start, end, parent, _ = spans[k]
            child[parent] += end - start
        self.child_time = child

    def duration(self, k: int) -> float:
        return self.spans[k][2] - self.spans[k][1]

    def select(self, name: str) -> list[int]:
        return [k for k in self.rows if self.spans[k][0] == name]

    def total(self, name: str) -> float:
        return sum(self.duration(k) for k in self.select(name))

    def self_time(self, name: str) -> float:
        return sum(self.duration(k) - self.child_time[k] for k in self.select(name))

    def calls(self, name: str) -> int:
        return len(self.select(name))

    def values(self, name: str) -> list:
        return [self.spans[k][4] for k in self.select(name)]

    def root_uncovered(self) -> float:
        return self.duration(self.root) - self.child_time[self.root]
