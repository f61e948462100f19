"""MCU resource model: MACs, cycles, Flash, and SRAM for feature extraction
and classifier inference against a named hardware profile.

The shipped ``cortex-m4-paper`` profile targets a 84 MHz Cortex-M4 class
part (512 KiB Flash, 96 KiB SRAM). Its extraction table is measured data
taken verbatim, keyed by feature group; units are cycles, MACs, and bytes
(table kB entries are KiB). Cycle coefficients per model kind are calibrated
so the documented worked examples land on the measured numbers; they are
profile data, not first principles.

One quirk is preserved deliberately: the measured full-vector row does not
equal the sum of its constituent rows in MAC and SRAM (18.24 kMAC vs 18.28,
24 KiB vs 16). When the requested feature set is exactly the canonical full
vector, the estimator returns the measured row; any other subset is the sum
of the applicable rows, with the cheapest valid reactive-power variant and
current-only calibration when no feature needs the voltage channel.

A classifier's cost is counted in one place: `_counts` states, per model
kind, one inference's MACs, stored reals (None for a forest, which stores
nodes) and working bytes. `model_macs`, `model_flash` and `model_sram` read
those counts, and `model_cycles` prices the MACs with the kind's
coefficients plus the rbf SVM's per-vector surcharge.

Reports and profiles are dataclasses, and a record's JSON is its fields
(``records.dumps``): derived values such as ``CostReport.total`` and
``BudgetVerdict.fits`` are fields set at construction. A profile document
carries exactly the profile's fields plus ``format`` and ``version``;
anything else, a non-finite value, a non-positive budget or size, or a
negative table entry raises ``ValueError`` naming the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .checks import finite_number
from .features import FEATURE_GROUPS, FeatureLayout
from .models.base import BaseModel
from .models.io import KIND_CODES, model_kind
from .records import dumps, jsonable, record_fields

PROFILE_FORMAT = "nilmedge-cost-profile"
PROFILE_FORMAT_VERSION = 1

KIB = 1024.0


@dataclass(frozen=True)
class ResourceCost:
    mac: float = 0.0
    cycles: float = 0.0
    flash_bytes: float = 0.0
    sram_bytes: float = 0.0

    def __add__(self, other: "ResourceCost") -> "ResourceCost":
        return ResourceCost(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(self)})


@dataclass(frozen=True)
class ModelCostCoefficients:
    cycles_per_mac: float
    kernel_eval_extra: float = 0.0  # per-SV transcendental surcharge (rbf)
    fixed_overhead: float = 0.0


def _row(sram_kib: float, flash_kib: float, kmac: float, kcycles: float) -> ResourceCost:
    return ResourceCost(
        mac=kmac * 1000.0,
        cycles=kcycles * 1000.0,
        flash_bytes=flash_kib * KIB,
        sram_bytes=sram_kib * KIB,
    )


# Measured extraction costs per feature group. Q variants: q1 reuses both P
# and |S|, q2 recomputes P, q3 recomputes |S|, q4 recomputes both. The
# unordered FFT variant skips output reordering and is the one charged; the
# ordered fft_1024 row stays as measured data of the version-1 profile format.
_CORTEX_M4_EXTRACTION = {
    "raw_conv_vi": _row(8, 0, 4, 15),
    "raw_conv_i": _row(4, 0, 2, 9),
    "p": _row(4, 0, 2, 17),
    "s_abs": _row(0, 0, 2, 11),
    "q1": _row(0, 0, 0.04, 0.08),
    "q2": _row(4, 0, 2.04, 17),
    "q3": _row(0, 0, 2.04, 11),
    "q4": _row(4, 0, 4.04, 28),
    "fft_1024": _row(4, 17.6, 10.24, 66),
    "fft_1024_unordered": _row(4, 14.1, 10.24, 62),
    "full_vector": _row(24, 14.1, 18.24, 105),
}

EXTRACTION_ROWS = tuple(_CORTEX_M4_EXTRACTION)


@dataclass(frozen=True)
class CostProfile:
    name: str
    extraction: dict[str, ResourceCost]
    model_coefficients: dict[str, ModelCostCoefficients]
    flash_total_bytes: float = 512 * KIB
    sram_total_bytes: float = 96 * KIB
    clock_hz: float = 84e6
    window_budget_cycles: float = 8.4e6  # 100 ms at 84 MHz
    bytes_per_parameter: int = 4
    rf_node_bytes: int = 16
    rf_code_overhead_bytes: int = 600

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"profile name must be a string, got {self.name!r}")
        missing = [r for r in EXTRACTION_ROWS if r not in self.extraction]
        if missing:
            raise ValueError(f"profile {self.name!r} lacks extraction rows {missing}")
        for kind in KIND_CODES:
            if kind not in self.model_coefficients:
                raise ValueError(f"profile {self.name!r} lacks coefficients for {kind!r}")
        for key in ("extraction", "model_coefficients"):
            for row, record in getattr(self, key).items():
                for f in fields(record):
                    _check_number(f"{key}.{row}.{f.name}", getattr(record, f.name),
                                  positive=False)
        for f in fields(self):
            if f.name not in ("name", "extraction", "model_coefficients"):
                _check_number(f.name, getattr(self, f.name), positive=True)
        validate_profile(self)


def _check_number(where: str, value, positive: bool) -> None:
    """Profile values are finite numbers; budgets and sizes are positive, and
    table rows and coefficients are non-negative."""
    if not (finite_number(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{where} must be a finite {sign} number, got {value!r}")


def validate_profile(profile: CostProfile) -> None:
    """Consistency check on the measured table: the full-vector cycle count
    must equal calibration + worst-case Q + unordered FFT (15 + 28 + 62)."""
    t = profile.extraction
    parts = t["raw_conv_vi"].cycles + t["q4"].cycles + t["fft_1024_unordered"].cycles
    if abs(parts - t["full_vector"].cycles) > 1e-9:
        raise ValueError(
            f"profile {profile.name!r} breaks the full-vector decomposition: "
            f"{parts} != {t['full_vector'].cycles} cycles"
        )


CORTEX_M4_PAPER = CostProfile(
    name="cortex-m4-paper",
    extraction=_CORTEX_M4_EXTRACTION,
    model_coefficients={
        # Calibrated against the measured classifier figures: a
        # [100, 800, 100, 5] MLP at 1588 Kcycles, the 103-feature 1950-SV
        # rbf SVM at 2065 Kcycles, and the 5-feature 100-tree forest at
        # 4.84 Kcycles. kNN has no measured point; it reuses generic
        # load-multiply-accumulate timing.
        "knn": ModelCostCoefficients(cycles_per_mac=10.0, fixed_overhead=500.0),
        "svm": ModelCostCoefficients(cycles_per_mac=9.0, kernel_eval_extra=50.0,
                                     fixed_overhead=1900.0),
        "mlp": ModelCostCoefficients(cycles_per_mac=9.89, fixed_overhead=655.0),
        "rf": ModelCostCoefficients(cycles_per_mac=3.6, fixed_overhead=520.0),
    },
)


# --- extraction --------------------------------------------------------------

def feature_groups(layout: FeatureLayout, selected_indices=None) -> set[str]:
    """Which feature groups a layout subset actually requires."""
    groups = layout.groups
    return set(groups) if selected_indices is None else {groups[k] for k in selected_indices}


@dataclass(frozen=True)
class ExtractionCost:
    cost: ResourceCost
    rows: tuple[str, ...]
    needs_voltage: bool


def extraction_cost(groups: set[str] | FeatureLayout, profile: CostProfile,
                    selected_indices=None) -> ExtractionCost:
    """Extraction-stage cost for a feature-group subset.

    Accepts either an explicit group set or a layout (plus optional selected
    indices within it). Voltage calibration is charged only when a
    time-domain feature needs it; the reactive-power variant is the cheapest
    one consistent with which of P and |S| are computed anyway.
    """
    if isinstance(groups, FeatureLayout):
        groups = feature_groups(groups, selected_indices)
    unknown = groups - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups {sorted(unknown)}")
    if not groups:
        raise ValueError("at least one feature group is required")

    needs_voltage = bool(groups & {"p", "s_abs", "q"})

    if groups == set(FEATURE_GROUPS):
        # the canonical full vector is a measured row of its own
        return ExtractionCost(
            cost=profile.extraction["full_vector"],
            rows=("full_vector",),
            needs_voltage=True,
        )

    rows = ["raw_conv_vi" if needs_voltage else "raw_conv_i"]
    rows += [g for g in ("p", "s_abs") if g in groups]  # one measured row each, of that name
    if "q" in groups:
        has_p, has_s = "p" in groups, "s_abs" in groups
        rows.append("q1" if has_p and has_s else
                    "q2" if has_s else
                    "q3" if has_p else "q4")
    if "harmonics" in groups:
        rows.append("fft_1024_unordered")

    total = sum((profile.extraction[row] for row in rows), ResourceCost())
    return ExtractionCost(cost=total, rows=tuple(rows), needs_voltage=needs_voltage)


# --- classification ----------------------------------------------------------

def _counts(model: BaseModel) -> tuple[str, int, int | None, int]:
    """One inference's (kind, MACs, stored reals, working bytes).

    kNN scans the whole training matrix it stores; the SVM pays for kernel
    dot products plus the per-row decision sums, and stores those reals plus
    one intercept per class pair; the MLP is its matrix sizes; forest branch
    comparisons count as one MAC-equivalent each, at the worst-case depth,
    and a forest stores nodes, not reals (None). Working bytes are the
    activation and vote buffers only."""
    kind, c = model_kind(model), model.n_classes
    if kind == "knn":
        # k (distance, index) pairs + votes
        return kind, model.train_x.size, model.train_x.size, model.k * 12 + c * 4
    if kind == "svm":
        pairs = c * (c - 1) // 2
        macs = model.n_sv * model.support.shape[1] + model.n_sv * (c - 1)
        return kind, macs, macs + pairs, (c + pairs) * 4  # votes + pair decisions
    if kind == "mlp":
        sizes = model.layer_sizes  # the working memory is the largest activation buffer
        return kind, sum(a * b for a, b in zip(sizes, sizes[1:])), model.parameter_count, max(sizes) * 4
    return kind, model.worst_case_comparisons(), None, c * 4  # vote array


def model_macs(model: BaseModel) -> float:
    """Multiply-accumulate count for one inference."""
    return float(_counts(model)[1])


def model_flash(model: BaseModel, profile: CostProfile) -> float:
    """Parameter storage in bytes (plus per-tree code overhead for forests)."""
    reals = _counts(model)[2]
    if reals is None:
        return float(model.node_count * profile.rf_node_bytes
                     + model.n_trees * profile.rf_code_overhead_bytes)
    return float(reals * profile.bytes_per_parameter)


def model_sram(model: BaseModel, profile: CostProfile) -> float:
    """Working memory during one inference: activation/vote buffers only."""
    return float(_counts(model)[3])


def model_cycles(model: BaseModel, profile: CostProfile) -> float:
    kind, macs, _, _ = _counts(model)
    coeff = profile.model_coefficients[kind]
    rbf = kind == "svm" and model.kernel == "rbf"
    extras = model.n_sv * coeff.kernel_eval_extra if rbf else 0.0
    return float(macs) * coeff.cycles_per_mac + extras + coeff.fixed_overhead


def classification_cost(model: BaseModel, profile: CostProfile) -> ResourceCost:
    return ResourceCost(
        mac=model_macs(model),
        cycles=model_cycles(model, profile),
        flash_bytes=model_flash(model, profile),
        sram_bytes=model_sram(model, profile),
    )


# --- budgets -----------------------------------------------------------------

@dataclass(frozen=True)
class BudgetVerdict:
    fits_cycles: bool
    fits_flash: bool
    fits_sram: bool
    margin_cycles: float
    margin_flash_bytes: float
    margin_sram_bytes: float
    classification_budget_cycles: float
    fits: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "fits", self.fits_cycles and self.fits_flash and self.fits_sram)


def budget_check(extraction: ResourceCost, classification: ResourceCost,
                 profile: CostProfile) -> BudgetVerdict:
    """Window-budget verdict; boundaries are inclusive and margins are signed."""
    total = extraction + classification
    return BudgetVerdict(
        fits_cycles=total.cycles <= profile.window_budget_cycles,
        fits_flash=total.flash_bytes <= profile.flash_total_bytes,
        fits_sram=total.sram_bytes <= profile.sram_total_bytes,
        margin_cycles=profile.window_budget_cycles - total.cycles,
        margin_flash_bytes=profile.flash_total_bytes - total.flash_bytes,
        margin_sram_bytes=profile.sram_total_bytes - total.sram_bytes,
        classification_budget_cycles=profile.window_budget_cycles - extraction.cycles,
    )


@dataclass(frozen=True)
class CostReport:
    profile: str
    extraction: ResourceCost
    extraction_rows: tuple[str, ...]
    needs_voltage: bool
    classification: ResourceCost
    verdict: BudgetVerdict
    total: ResourceCost = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.extraction + self.classification)

    def as_dict(self) -> dict:
        return jsonable(self)

    def to_json(self) -> str:
        return dumps(self)

    def to_table(self) -> str:
        def fmt(label, c: ResourceCost):
            return (f"{label:<16} {c.mac:>12.0f} {c.cycles:>12.0f} "
                    f"{c.flash_bytes / KIB:>11.2f} {c.sram_bytes / KIB:>11.2f}")

        lines = [
            f"cost report against profile '{self.profile}'",
            f"{'stage':<16} {'MAC':>12} {'cycles':>12} {'flash KiB':>11} {'sram KiB':>11}",
            fmt("extraction", self.extraction),
            fmt("classification", self.classification),
            fmt("total", self.total),
            (f"budget: cycles {'ok' if self.verdict.fits_cycles else 'EXCEEDED'} "
             f"(margin {self.verdict.margin_cycles:+.0f}), "
             f"flash {'ok' if self.verdict.fits_flash else 'EXCEEDED'} "
             f"(margin {self.verdict.margin_flash_bytes / KIB:+.2f} KiB), "
             f"sram {'ok' if self.verdict.fits_sram else 'EXCEEDED'} "
             f"(margin {self.verdict.margin_sram_bytes / KIB:+.2f} KiB)"),
        ]
        return "\n".join(lines)


def cost_report(model: BaseModel, profile: CostProfile) -> CostReport:
    """Full extraction + classification report for a trained model."""
    ext = extraction_cost(model.layout, profile, selected_indices=model.selected_indices)
    cls = classification_cost(model, profile)
    return CostReport(
        profile=profile.name,
        extraction=ext.cost,
        extraction_rows=ext.rows,
        needs_voltage=ext.needs_voltage,
        classification=cls,
        verdict=budget_check(ext.cost, cls, profile),
    )


# --- profile files -----------------------------------------------------------

def profile_to_json(profile: CostProfile) -> str:
    return dumps({"format": PROFILE_FORMAT, "version": PROFILE_FORMAT_VERSION,
                  **jsonable(profile)})


def profile_from_json(text: str) -> CostProfile:
    """Parse a profile document; a malformed one raises ValueError naming the key."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.pop("format", None) != PROFILE_FORMAT:
        raise ValueError("not a cost-profile document")
    version = doc.pop("version", None)
    if version != PROFILE_FORMAT_VERSION:
        raise ValueError(f"unsupported profile version {version!r}")
    args = record_fields(CostProfile, doc, "profile")
    for key, record in (("extraction", ResourceCost),
                        ("model_coefficients", ModelCostCoefficients)):
        if not isinstance(args[key], dict):
            raise ValueError(f"profile {key} must be a JSON object")
        args[key] = {row: record(**record_fields(record, cells, f"{key}.{row}"))
                     for row, cells in args[key].items()}
    return CostProfile(**args)


def load_profile(name_or_path: str | Path) -> CostProfile:
    """Resolve a profile by shipped name or by file path."""
    if str(name_or_path) == CORTEX_M4_PAPER.name:
        return CORTEX_M4_PAPER
    return profile_from_json(Path(name_or_path).read_text())
