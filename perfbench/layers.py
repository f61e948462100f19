"""Per-layer metrics from the spans of one traced set-up plus one traced job.

Counts and times cover the whole repetition (set-up and job), so work a
workload does in set-up, such as multi5-online's forest training, shows
too. Shares (`*_share`) and `trace.uncovered_share` are taken of the job
alone. Next to the host times sit the modeled MCU cycles of the matching
rows of the cost profile.
"""

from __future__ import annotations

from collections import Counter

import nilmedge.cost as cost
from nilmedge.features import DEFAULT_LAYOUT
from spans import SpanTable
from workloads import ACQUISITION_SAMPLES_PER_WINDOW, PROFILE, Outcome


def _kcycles(row: str) -> float:
    return PROFILE.extraction[row].cycles / 1000.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_row_us(table: SpanTable, name: str, batch1: bool) -> float:
    time = rows = 0
    for k in table.select(name):
        n = table.spans[k][4]
        if (n == 1) == batch1:
            time += table.duration(k)
            rows += n
    return _ratio(time * 1e6, rows)


def layer_metrics(rep: SpanTable, outcome: Outcome) -> dict[str, float]:
    spans = rep.spans
    (job_root,) = [k for k in rep.rows if spans[k][0] == "job" and spans[k][3] == rep.root]
    job = SpanTable(spans, job_root)
    job_s = job.duration(job_root)

    extract_calls = rep.calls("features.extract")
    statuses = Counter()
    for value in rep.values("pipeline.classify_stream"):
        statuses.update(value)
    calibrated = sum(rep.values("signals.calibrate"))
    mda = set(rep.select("train.mda"))
    mda_predicts = sum(1 for k in rep.select("models.rf.predict") + rep.select("models.mlp.predict")
                       if spans[k][3] in mda)
    sweep_points = sum(rep.values("train.sweep"))

    return {
        "signals.calibrate_decimate_s": rep.total("signals.calibrate") + rep.total("signals.decimate"),
        "signals.windows": spans[rep.root][4],
        "signals.calibrate_us_per_window": _ratio(rep.total("signals.calibrate") * 1e6,
                                                  calibrated // ACQUISITION_SAMPLES_PER_WINDOW),
        "signals.calibrate_mcu_kcycles": _kcycles("raw_conv_vi"),
        "features.extract_calls": extract_calls,
        "features.extract_us": _ratio(rep.total("features.extract") * 1e6, extract_calls),
        "features.extract_self_us": _ratio(rep.self_time("features.extract") * 1e6, extract_calls),
        "features.fft_us": _ratio(rep.total("features.fft") * 1e6, rep.calls("features.fft")),
        "features.pqs_us": _ratio(rep.total("features.pqs") * 1e6, extract_calls),
        "features.mcu_kcycles": cost.extraction_cost(DEFAULT_LAYOUT, PROFILE).cost.cycles / 1000.0,
        "features.fft_mcu_kcycles": _kcycles("fft_1024_unordered"),
        "features.pqs_mcu_kcycles": _kcycles("q4"),
        "features.fft_share": _ratio(job.total("features.fft"), job_s),
        "events.detect_us": _ratio(rep.total("events.detect") * 1e6, rep.calls("events.detect")),
        "events.delta_us": _ratio(rep.total("events.delta") * 1e6, rep.calls("events.delta")),
        "events.detected": sum(rep.values("events.detect")),
        "events.guard_invalid": sum(rep.values("events.guard")) + statuses["invalid"],
        "events.pending": statuses["pending"],
        "events.labeled": statuses["labeled"],
        "models.rf.batch1_us_per_row": _per_row_us(rep, "models.rf.predict", batch1=True),
        "models.rf.batchN_us_per_row": _per_row_us(rep, "models.rf.predict", batch1=False),
        "models.rf.predict_calls": rep.calls("models.rf.predict"),
        "models.rf.rows": sum(rep.values("models.rf.predict")),
        "models.rf.route_calls": rep.calls("models.rf.route"),
        "models.rf.route_share": _ratio(job.total("models.rf.route"), job_s),
        "models.mlp.batch1_us_per_row": _per_row_us(rep, "models.mlp.predict", batch1=True),
        "models.mlp.batchN_us_per_row": _per_row_us(rep, "models.mlp.predict", batch1=False),
        "models.mcu_kcycles": outcome.cost.classification.cycles / 1000.0,
        "train.rf_fit_s": rep.total("train.rf_fit"),
        "train.rf_fits": rep.calls("train.rf_fit"),
        "train.rf_nodes": sum(rep.values("train.rf_fit")),
        "train.rf_fit_share": _ratio(job.total("train.rf_fit"), job_s),
        "train.mlp_fit_s": rep.total("train.mlp_fit"),
        "train.mda_self_s": rep.self_time("train.mda"),
        "train.mda_predicts": mda_predicts,
        "train.sweep_point_s": _ratio(rep.total("train.sweep"), sweep_points),
        "train.sweep_points": sweep_points,
        "cost.report_s": rep.total("cost.report"),
        "cost.report_calls": rep.calls("cost.report"),
        "pipeline.classify_stream_self_s": rep.self_time("pipeline.classify_stream"),
        "pipeline.delta_dataset_self_s": rep.self_time("pipeline.delta_dataset"),
        "pipeline.window_dataset_self_s": rep.self_time("pipeline.window_dataset"),
        "synth.scenario_s": rep.total("synth.scenario"),
        "synth.samples": sum(rep.values("synth.scenario")),
        "trace.job_s": job_s,
        "trace.uncovered_share": _ratio(job.root_uncovered(), job_s),
    }


def layer_table(m: dict[str, float]) -> str:
    """The paper's per-window layer table with a measured host column."""
    rows = (
        ("calibration (raw_conv_vi)", "signals.calibrate_mcu_kcycles", "signals.calibrate_us_per_window"),
        ("P, |S|, Q (q4)", "features.pqs_mcu_kcycles", "features.pqs_us"),
        ("FFT (fft_1024_unordered)", "features.fft_mcu_kcycles", "features.fft_us"),
        ("full vector (full_vector)", "features.mcu_kcycles", "features.extract_us"),
    )
    lines = [f"{'layer':<28} {'modeled MCU kcycles':>20} {'host us/window':>16}"]
    for label, modeled, host in rows:
        lines.append(f"{label:<28} {m[modeled]:>20.2f} {m[host]:>16.2f}")
    batch1 = m["models.rf.batch1_us_per_row"] or m["models.mlp.batch1_us_per_row"]
    lines.append(f"{'classification, batch 1':<28} {m['models.mcu_kcycles']:>20.2f} {batch1:>16.2f}")
    return "\n".join(lines)
