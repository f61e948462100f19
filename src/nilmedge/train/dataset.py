"""Labeled feature datasets: validation, stratified splitting, and file I/O.

The on-disk form is a CSV with header ``label,f0,f1,...`` plus a JSON
sidecar (same path with ``.meta.json`` appended) holding the class table,
feature layout, and provenance tag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..features import DEFAULT_LAYOUT, FeatureLayout
from ..models.base import Scaler, check_class_names


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray  # (n, f)
    y: np.ndarray  # (n,) class ids
    class_names: tuple[str, ...]
    layout: FeatureLayout = DEFAULT_LAYOUT
    provenance: str = "unspecified"

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        object.__setattr__(self, "class_names", check_class_names(self.class_names))
        if self.x.ndim != 2 or self.x.shape[0] == 0:
            raise ValueError("dataset matrix must be a non-empty (n, f) array")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("labels must align with matrix rows")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("dataset contains non-finite values")
        if self.y.min() < 0 or self.y.max() >= len(self.class_names):
            raise ValueError("labels reference classes outside the class table")
        counts = np.bincount(self.y, minlength=len(self.class_names))
        thin = np.flatnonzero((counts > 0) & (counts < 2))
        if thin.size:
            raise ValueError(f"classes {thin.tolist()} have fewer than 2 instances")

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.x.shape[1])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=len(self.class_names))

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            x=self.x[rows],
            y=self.y[rows],
            class_names=self.class_names,
            layout=self.layout,
            provenance=self.provenance,
        )


def model_inputs(d: Dataset, selected_indices=None, scale: bool = True):
    """What a model trains on: (fields, x). fields are the keyword arguments
    every model takes from d (class table, layout, selected indices, scaler or
    None); x holds the selected columns of d (all of them by default),
    standardized by a scaler fitted on them unless scale is False."""
    indices = tuple(range(d.n_features) if selected_indices is None else selected_indices)
    x = d.x[:, np.array(indices, dtype=np.intp)]
    scaler = Scaler.fit(x) if scale else None
    fields = dict(class_names=d.class_names, layout=d.layout,
                  selected_indices=indices, scaler=scaler)
    return fields, x if scaler is None else scaler.transform(x)


def split_dataset(d: Dataset, train_frac: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split; both partitions keep >= 2 instances of every class.

    With per-class proportions rounded to the nearest instance, that floor
    means every present class needs at least 4 instances to be splittable.
    """
    if not 0 < train_frac < 1:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_rows: list[np.ndarray] = []
    test_rows: list[np.ndarray] = []
    for c in range(len(d.class_names)):
        rows = np.flatnonzero(d.y == c)
        if rows.size == 0:
            continue
        if rows.size < 4:
            raise ValueError(
                f"class {c} has only {rows.size} instances; need >= 4 so both partitions keep >= 2"
            )
        rows = rng.permutation(rows)
        n_train = int(np.clip(round(train_frac * rows.size), 2, rows.size - 2))
        train_rows.append(rows[:n_train])
        test_rows.append(rows[n_train:])
    train_idx = np.sort(np.concatenate(train_rows))
    test_idx = np.sort(np.concatenate(test_rows))
    return d.subset(train_idx), d.subset(test_idx)


def save_dataset(d: Dataset, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label," + ",".join(f"f{k}" for k in range(d.n_features)) + "\n")
        for label, row in zip(d.y, d.x):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    meta = {
        "class_names": list(d.class_names),
        "layout": d.layout.to_dict(),
        "provenance": d.provenance,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    meta_path = Path(str(path) + ".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing dataset sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"dataset sidecar {meta_path} must hold a JSON object")
    if not isinstance(meta["layout"], dict):
        raise ValueError(f"sidecar 'layout' must be a JSON object, got {meta['layout']!r}")
    names = meta["class_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"sidecar 'class_names' must be a list of strings, got {names!r}")
    labels: list[int] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "label":
            raise ValueError(f"dataset header must start with 'label', got {header[:1]}")
        width = len(header) - 1
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width + 1:
                raise ValueError(f"line {line_no}: expected {width + 1} cells, got {len(cells)}")
            try:
                labels.append(int(cells[0]))
                rows.append([float(c) for c in cells[1:]])
            except ValueError:
                raise ValueError(f"line {line_no}: non-numeric cell") from None
    return Dataset(
        x=np.array(rows, dtype=np.float64),
        y=np.array(labels, dtype=np.int64),
        class_names=tuple(names),
        layout=FeatureLayout.from_dict(meta["layout"]),
        provenance=meta.get("provenance", "unspecified"),
    )
