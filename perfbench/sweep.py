#!/usr/bin/env python3
"""Run the benchmark over ten seeds and summarize each metric's spread.

    python3 perfbench/sweep.py [--out FILE]

For every workload of BENCHMARK.json it runs `perfbench/run.py` once per
seed 0-9 with `--trace 0`, one after the other, and reports per end-to-end
metric the median, the quartiles and the spread: the distance between the
first and third quartile as a share of the median. A spread above a third
of the metric's bound is flagged ("noisy"), one above the bound fails
("OVER"); setup_s is exempt, as its spread across seeds is not bounded. It
then makes one `--trace 1` run per workload at seed 0 and keeps its
per-layer metrics. --out writes everything, with each run's environment
and set-up and job times, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, result_path

SEEDS = range(10)
TRACED_SEED = 0


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run; returns the result file it writes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, **json.loads(result_path(workload, seed, trace).read_text())}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, ok = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}, True
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            r = run(name, seed, spec["run_seconds"], trace=0)
            print(f"{name} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
            ok &= r["correct"]
            runs.append(r)
        entry = {"runs": runs, "metrics": {}}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            s = summarize([r["metrics"][m]["value"] for r in runs])
            bound = metric["bound"]
            flag = ("" if m == "setup_s" or s["spread"] <= bound / 3
                    else "noisy" if s["spread"] <= bound else "OVER")
            ok &= flag != "OVER"
            entry["metrics"][m] = {"unit": metric["unit"], "bound": bound, **s}
            print(f"  {m:<24} median {s['median']:>12.6g} {metric['unit']:<8} "
                  f"spread {s['spread']:.4f} (bound {bound}) {flag}", flush=True)
        entry["traced"] = run(name, TRACED_SEED, spec["run_seconds"], trace=1)
        ok &= entry["traced"]["correct"]
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
