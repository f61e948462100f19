"""Hyperparameter search, permutation importance, and the feature-count sweep.

The sweep walks the ranked feature vector one prefix at a time, re-tunes
each point (or reuses fixed hyperparameters in fast mode), evaluates it on
the held-out split, attaches the MCU cost report, and picks the smallest
feature count that stays within the accuracy drop tolerance while fitting
the hardware budget.

Each result is a dataclass whose JSON document is its fields
(``records.dumps``). ``MdaReport.from_json`` builds the record from a
document that carries exactly those fields, each of the type it was written
with; any other document raises ``ValueError`` naming the key.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..cost import CostProfile, CostReport, cost_report
from ..models.base import classify_matrix, whole_number
from ..models.forest import RfModel
from ..models.svm import KERNELS
from ..records import dumps, jsonable, record_fields
from .dataset import Dataset
from .metrics import evaluate
from .sgd import check_mlp_settings
from .trainers import MODEL_KINDS, train_model


def derive_seed(*parts: int) -> int:
    """Stable child seed from (master seed, coordinates); order-independent
    across parallel evaluation because every cell owns its stream."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# --- grid search -------------------------------------------------------------

def _finite_positive(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 < v < math.inf


# the values a grid axis may hold: those its trainer accepts on any data
_AXIS_VALUES = {
    "knn_k": (lambda v: whole_number(v, 1), "an int >= 1"),
    "svm_c": (_finite_positive, "a finite number > 0"),
    "svm_gamma": (_finite_positive, "a finite number > 0"),
    "svm_kernel": (lambda v: v in KERNELS, f"one of {KERNELS}"),
    "rf_trees": (lambda v: whole_number(v, 1), "an int >= 1"),
    "rf_depth": (lambda v: v is None or whole_number(v, 0), "None or an int >= 0"),
}


@dataclass(frozen=True)
class GridSpec:
    knn_k: tuple[int, ...] = (1, 3, 5, 9)
    svm_c: tuple[float, ...] = (1.0, 10.0)
    svm_gamma: tuple[float, ...] = (0.01, 0.1)
    svm_kernel: tuple[str, ...] = ("rbf",)
    mlp_hidden: tuple[tuple[int, ...], ...] = ((800, 100),)
    mlp_lr: tuple[float, ...] = (0.05,)
    mlp_epochs: int = 200
    rf_trees: tuple[int, ...] = (100,)
    rf_depth: tuple[int | None, ...] = (None, 12)

    def __post_init__(self):
        for name in ("knn_k", "svm_c", "svm_gamma", "svm_kernel",
                     "mlp_hidden", "mlp_lr", "rf_trees", "rf_depth"):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name} must be non-empty")
        for name, (ok, what) in _AXIS_VALUES.items():
            bad = [v for v in getattr(self, name) if not ok(v)]
            if bad:
                raise ValueError(f"grid axis {name} values must each be {what}, got {bad[0]!r}")
        for hidden, lr in product(self.mlp_hidden, self.mlp_lr):
            check_mlp_settings(hidden, lr, self.mlp_epochs)

    def cells(self, kind: str) -> list[dict]:
        if kind == "knn":
            return [{"k": k} for k in self.knn_k]
        if kind == "svm":
            return [
                {"c": c, "gamma": g, "kernel": kr}
                for c, g, kr in product(self.svm_c, self.svm_gamma, self.svm_kernel)
            ]
        if kind == "mlp":
            return [
                {"hidden": h, "lr": lr, "epochs": self.mlp_epochs}
                for h, lr in product(self.mlp_hidden, self.mlp_lr)
            ]
        if kind == "rf":
            return [
                {"n_trees": t, "max_depth": dep}
                for t, dep in product(self.rf_trees, self.rf_depth)
            ]
        raise ValueError(f"unknown model kind {kind!r} (expected one of {MODEL_KINDS})")


def _cell_size_hint(kind: str, params: dict, n_features: int, n_classes: int) -> float:
    """Approximate parameter count, used only to break exact accuracy ties."""
    if kind == "mlp":
        sizes = (n_features,) + tuple(params["hidden"]) + (n_classes,)
        return float(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
    if kind == "rf":
        depth = params["max_depth"] if params["max_depth"] is not None else 64
        return float(params["n_trees"] * depth)
    return 0.0  # knn and svm cells do not change the stored parameter count


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    assignment = np.zeros(y.size, dtype=np.int64)
    for c in np.flatnonzero(np.bincount(y)):  # np.unique would import numpy.ma
        rows = rng.permutation(np.flatnonzero(y == c))
        assignment[rows] = np.arange(rows.size) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


@dataclass(frozen=True)
class GridSearchResult:
    kind: str
    best_params: dict
    best_accuracy: float
    table: tuple[dict, ...]  # one record per cell, in axis order

    def as_dict(self) -> dict:
        return jsonable(self)


def grid_search(
    d: Dataset,
    kind: str,
    grid: GridSpec,
    folds: int = 5,
    seed: int = 0,
    selected_indices: tuple[int, ...] | None = None,
) -> GridSearchResult:
    """Stratified k-fold accuracy per grid cell; argmax with deterministic
    tie-breaks (fewest parameters, then first in axis order). Cells whose
    training raises are marked failed and excluded."""
    if not whole_number(folds, 2):
        raise ValueError(f"cross-validation needs an int of at least 2 folds, got {folds!r}")
    cells = grid.cells(kind)
    fold_rows = _stratified_folds(d.y, folds, derive_seed(seed, 0xF01D))
    n_classes = len(d.class_names)

    table: list[dict] = []
    best = None  # (mean_acc, -size_hint) maximized, first-wins on ties
    for ci, params in enumerate(cells):
        accs: list[float] = []
        error = None
        for fi, rows in enumerate(fold_rows):
            mask = np.ones(d.n, dtype=bool)
            mask[rows] = False
            try:
                train_part = d.subset(np.flatnonzero(mask))
                model = train_model(kind, train_part, params,
                                    seed=derive_seed(seed, ci, fi),
                                    selected_indices=selected_indices)
            except Exception as exc:  # cell failure: record and exclude
                error = f"{type(exc).__name__}: {exc}"
                accs = []
                break
            pred = classify_matrix(model, d.x[rows])
            accs.append(float(np.mean(pred == d.y[rows])))
        record = {
            "params": params,
            "fold_accuracies": accs,
            "mean_accuracy": float(np.mean(accs)) if accs else None,
            "failed": error is not None,
            "error": error,
        }
        table.append(record)
        if error is None:
            size = _cell_size_hint(kind, params, d.n_features, n_classes)
            key = (record["mean_accuracy"], -size)
            if best is None or key > best[0]:
                best = (key, ci)
    if best is None:
        raise RuntimeError("every grid cell failed to train")
    best_ci = best[1]
    return GridSearchResult(
        kind=kind,
        best_params=cells[best_ci],
        best_accuracy=table[best_ci]["mean_accuracy"],
        table=tuple(table),
    )


# --- mean decrease accuracy ----------------------------------------------------

@dataclass(frozen=True)
class MdaReport:
    baseline_accuracy: float
    importances: tuple[float, ...]  # baseline minus mean shuffled accuracy
    ranking: tuple[int, ...]  # feature indices, most important first
    repetitions: int
    seed: int
    kind: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "importances", tuple(self.importances))
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if sorted(self.ranking) != list(range(len(self.importances))):
            raise ValueError("ranking must be a permutation of the feature indices")

    @property
    def nonzero(self) -> int:
        """How many importances are not zero."""
        return sum(v != 0 for v in self.importances)

    @property
    def tied(self) -> int:
        """How many features share their importance with another, so that
        the tie rule (lower index first) placed them in the ranking."""
        counts = Counter(self.importances)  # -0.0 and 0.0 are one key
        return sum(counts[v] > 1 for v in self.importances)

    def to_json(self) -> str:
        return dumps(self)

    @classmethod
    def from_json(cls, text: str) -> "MdaReport":
        """Parse an MDA document; a malformed one raises ValueError naming the key."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"MDA report is not JSON: {exc}") from None
        doc = record_fields(cls, doc, "MDA report")
        for key, ok in _MDA_VALUES.items():
            if not ok(doc[key]):
                raise ValueError(f"MDA report {key}: unexpected value {doc[key]!r}")
        return cls(**doc)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


# what each key of an MDA document must hold for MdaReport to be built from it
_MDA_VALUES = {
    "baseline_accuracy": lambda v: _is_number(v) and 0 <= v <= 1,
    "importances": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "ranking": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "repetitions": lambda v: _is_int(v) and v >= 1,
    "seed": _is_int,
    "kind": lambda v: v in MODEL_KINDS,
    "params": lambda v: isinstance(v, dict),
}


def _check_splits(train: Dataset, test: Dataset) -> None:
    """A model trained on `train` can score `test` row for row."""
    if test.n_features != train.n_features:
        raise ValueError(f"the test split has {test.n_features} features, "
                         f"the training split {train.n_features}")
    if test.layout != train.layout:
        raise ValueError("the test split's feature layout differs from the training split's")
    if test.class_names != train.class_names:
        raise ValueError(f"the test split's classes {list(test.class_names)} differ from "
                         f"the training split's {list(train.class_names)}")


def mda_rank(
    kind: str,
    params: dict,
    train: Dataset,
    test: Dataset,
    repetitions: int = 10,
    seed: int = 0,
) -> MdaReport:
    """Permutation importance on the test split.

    The model is trained exactly once on the full vector; each feature's
    test column is then shuffled `repetitions` times (fresh permutation per
    repetition) and the accuracy loss against the baseline is averaged.
    Ranking sorts by descending importance, lower index first on ties.

    A forest routes the test rows once; each shuffle then routes only the
    trees that split on the shuffled column and swaps their votes, through
    `RfModel.column_predictor`. The votes are integer counts, so its
    predictions are those of `classify_matrix` on the shuffled rows, which
    the other kinds call."""
    if not whole_number(repetitions, 1):
        raise ValueError(f"repetitions must be an int >= 1, got {repetitions!r}")
    _check_splits(train, test)
    model = train_model(kind, train, params, seed=derive_seed(seed, 0xBA5E))
    baseline = float(np.mean(classify_matrix(model, test.x) == test.y))
    if isinstance(model, RfModel):
        predict = model.column_predictor(test.x)
    else:
        def predict(f: int, values: np.ndarray) -> np.ndarray:
            shuffled = test.x.copy()
            shuffled[:, f] = values
            return classify_matrix(model, shuffled)
    n_features = train.n_features
    importances = np.zeros(n_features)
    for f in range(n_features):
        drop = 0.0
        for rep in range(repetitions):
            rng = np.random.default_rng([seed, f, rep])
            acc = float(np.mean(predict(f, test.x[rng.permutation(test.n), f]) == test.y))
            drop += baseline - acc
        importances[f] = drop / repetitions
    order = np.lexsort((np.arange(n_features), -importances))
    return MdaReport(
        baseline_accuracy=baseline,
        importances=tuple(float(v) for v in importances),
        ranking=tuple(int(i) for i in order),
        repetitions=repetitions,
        seed=seed,
        kind=kind,
        params=params,
    )


# --- feature-count sweep -------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    m: int
    indices: tuple[int, ...]
    params: dict
    accuracy: float
    precision: float
    recall: float
    cost: CostReport

    def as_dict(self) -> dict:
        return jsonable(self)


@dataclass(frozen=True)
class SweepReport:
    kind: str
    points: tuple[SweepPoint, ...]
    chosen_m: int
    feasible: bool  # chosen point fits the budget
    max_accuracy: float
    drop_tolerance: float
    overfitting_dip: bool
    seed: int

    @property
    def chosen(self) -> SweepPoint:
        return next(p for p in self.points if p.m == self.chosen_m)

    def to_json(self) -> str:
        return dumps(self)

    def to_csv(self) -> str:
        """Per-point accuracy/MAC/flash curve data for external plotting."""
        lines = ["m,accuracy,precision,recall,mac,cycles,flash_bytes,sram_bytes,fits_budget"]
        for p in self.points:
            t = p.cost.total
            lines.append(
                f"{p.m},{p.accuracy!r},{p.precision!r},{p.recall!r},"
                f"{t.mac!r},{t.cycles!r},{t.flash_bytes!r},{t.sram_bytes!r},"
                f"{int(p.cost.verdict.fits)}"
            )
        return "\n".join(lines) + "\n"


def check_drop_tolerance(drop_tolerance) -> None:
    """A sweep's accuracy tolerance is a finite number >= 0."""
    if not 0 <= drop_tolerance < math.inf:  # NaN fails too
        raise ValueError(f"drop_tolerance must be a finite number >= 0, got {drop_tolerance!r}")


def sweep_feature_count(
    train: Dataset,
    test: Dataset,
    kind: str,
    mda: MdaReport,
    profile: CostProfile,
    grid: GridSpec | None = None,
    fixed_params: dict | None = None,
    drop_tolerance: float = 0.05,
    feature_counts: list[int] | None = None,
    folds: int = 3,
    seed: int = 0,
) -> SweepReport:
    """Grow the feature set along the MDA ranking and score every prefix.

    Each point re-tunes hyperparameters with a grid search unless
    fixed_params short-circuits it (the fast mode). The chosen operating
    point is the smallest count whose accuracy is within drop_tolerance of
    the sweep maximum and whose cost report fits the profile; when no point
    fits, the best-effort point is reported with feasible=False."""
    check_drop_tolerance(drop_tolerance)
    _check_splits(train, test)
    if len(mda.ranking) != train.n_features:
        raise ValueError("the MDA ranking must cover every feature")
    if fixed_params is None and grid is None:
        raise ValueError("provide a grid to tune with, or fixed_params for fast mode")
    counts = list(feature_counts) if feature_counts else list(range(1, train.n_features + 1))
    if counts != sorted(set(counts)) or counts[0] < 1 or counts[-1] > train.n_features:
        raise ValueError("feature counts must be strictly increasing and within range")

    points: list[SweepPoint] = []
    for m in counts:
        indices = tuple(mda.ranking[:m])
        if fixed_params is not None:
            params = dict(fixed_params)
        else:
            params = grid_search(
                train, kind, grid, folds=folds,
                seed=derive_seed(seed, m, 0x9D1D),
                selected_indices=indices,
            ).best_params
        model = train_model(kind, train, params, seed=derive_seed(seed, m),
                            selected_indices=indices)
        metrics = evaluate(test.y, classify_matrix(model, test.x), len(test.class_names))
        points.append(
            SweepPoint(
                m=m,
                indices=indices,
                params=params,
                accuracy=metrics.accuracy,
                precision=metrics.precision_macro,
                recall=metrics.recall_macro,
                cost=cost_report(model, profile),
            )
        )

    max_accuracy = max(p.accuracy for p in points)
    in_tolerance = [p for p in points if p.accuracy >= max_accuracy - drop_tolerance]
    fitting = [p for p in in_tolerance if p.cost.verdict.fits]
    if fitting:
        chosen, feasible = fitting[0], True
    else:
        chosen, feasible = in_tolerance[0], False
    return SweepReport(
        kind=kind,
        points=tuple(points),
        chosen_m=chosen.m,
        feasible=feasible,
        max_accuracy=max_accuracy,
        drop_tolerance=drop_tolerance,
        overfitting_dip=points[-1].accuracy < max_accuracy - drop_tolerance,
        seed=seed,
    )
