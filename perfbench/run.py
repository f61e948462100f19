#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload multi5-online --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`, never from an installed copy. One run:

1. sets the inputs up from the seed three times and reports the median
   (`setup_s`);
2. with `--trace 0`, runs the job back to back for `--seconds` in a forked
   process and reports the end-to-end metrics named in BENCHMARK.json
   (medians over jobs; `peak_rss_mib` is that process's peak); `setup_s`
   and `job_s` are corrected for the host's speed (see hostspeed.py);
   with `--trace 1`, spends half the time on untraced jobs and half on
   traced set-up-plus-job repetitions, and reports the per-layer metrics;
3. checks every job's output outside the timed region.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it print
the environment, every metric with its unit, and the modeled MCU cost next
to the measured host time of each extraction layer. The result, with the
environment and every set-up and job time, wall and corrected, is also
written to `result_path(...)` under perfbench/results/, and a traced run's
spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUPS = 3


def result_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}-trace{trace}.json"


def single_thread_blas() -> None:
    """Run BLAS/OpenMP on the calling thread only.

    The library's matrices are small (the largest is the MLP's 800x100
    layer at batch 16), so a second BLAS thread saves little, and on a
    shared host it waits for a vCPU that a neighbour may hold. Must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_library():
    src = ROOT / "src"
    if not (src / "nilmedge" / "__init__.py").is_file():
        sys.exit(f"error: no nilmedge sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import nilmedge

    if Path(nilmedge.__file__).resolve().parent != (src / "nilmedge").resolve():
        sys.exit(f"error: imported nilmedge from {nilmedge.__file__}, not from {src}")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
    }


def wall_timed(fn):
    """timed() without the host-speed probe, for traced runs."""
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall


def run_jobs(job, budget_s: float, timer):
    """Closed loop: call job() back to back while the next call is expected
    to end at most half a call past budget_s. At least one call always runs.
    timer is hostspeed.timed or wall_timed.

    Returns ((wall, corrected) durations of successful calls, their results,
    calls that raised)."""
    times, results, errors = [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result, wall, corrected = timer(job)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            errors += 1
        else:
            times.append((wall, corrected))
            results.append(result)
        spent = time.perf_counter() - start
        expected = statistics.median(w for w, _ in times) if times else time.perf_counter() - t0
        if spent + expected / 2 > budget_s:
            return times, results, errors


def run_jobs_forked(job, budget_s: float):
    """run_jobs in a forked child process, which also reports its peak
    resident memory in MiB.

    The child starts from the parent's memory after set-up (the inputs and
    the libraries) but not from set-up's transient peak, so the peak is
    that of the inputs plus the jobs. The results come back pickled."""
    from hostspeed import timed

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            times, results, errors = run_jobs(job, budget_s, timed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump((times, results, errors, peak), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        sys.exit("error: the job process failed")
    return pickle.loads(data)


def check_all(workload, inputs, results) -> int:
    failed = 0
    for k, result in enumerate(results):
        problems = workload.check(inputs, result)
        for p in problems:
            print(f"check failed (job {k}): {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    from hostspeed import timed

    setup_times, inputs = [], None
    for _ in range(SETUPS):
        inputs = None  # free the previous inputs so peak memory holds one set
        inputs, wall, corrected = timed(workload.setup, seed)
        setup_times.append((wall, corrected))

    times, results, errors, peak_rss_mib = run_jobs_forked(lambda: workload.job(inputs), seconds)
    failed = errors + check_all(workload, inputs, results)
    if not results:
        sys.exit("error: every job raised")
    outcome = workload.outcome(inputs, results[0])
    job_s = statistics.median(c for _, c in times)
    total = outcome.cost.total
    metrics = {
        "setup_s": statistics.median(c for _, c in setup_times),
        "job_s": job_s,
        "windows_per_s": workload.windows(inputs) / job_s,
        "peak_rss_mib": peak_rss_mib,
        "accuracy": outcome.accuracy,
        "mcu_kcycles_per_window": total.cycles / 1000.0,
        "mcu_flash_kib": total.flash_bytes / 1024.0,
    }
    for what, pairs in (("setup", setup_times), ("job", times)):
        print(f"{what} times, wall (s): {' '.join(f'{w:.4f}' for w, _ in pairs)}")
        print(f"{what} times, corrected (s): {' '.join(f'{c:.4f}' for _, c in pairs)}")
    return metrics, len(times) + errors, failed, {"setup_times": setup_times, "job_times": times}


def per_layer(workload, seed: int, seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    from layers import layer_metrics
    from spans import SpanTable, Tracer

    inputs = workload.setup(seed)
    plain_times, plain_results, errors = run_jobs(lambda: workload.job(inputs), seconds / 2, wall_timed)
    failed = errors + check_all(workload, inputs, plain_results)

    tracer = Tracer()
    reps = []

    def setup_and_job():
        nonlocal inputs
        inputs = tracer.call("setup", workload.setup, seed)
        return tracer.call("job", workload.job, inputs)

    def rep():  # one traced set-up plus one traced job, under a "rep" span
        nonlocal inputs
        inputs = None  # free the previous inputs so peak memory holds one set
        first_window, root = tracer.windows, len(tracer.spans)
        result = tracer.call("rep", setup_and_job)
        tracer.spans[root][4] = tracer.windows - first_window
        reps.append(root)
        return result

    tracer.install()
    try:
        _, traced_results, traced_errors = run_jobs(rep, seconds / 2, wall_timed)
    finally:
        tracer.uninstall()
    failed += traced_errors + check_all(workload, inputs, traced_results)
    if not plain_results or not traced_results:
        sys.exit("error: every job raised")
    tracer.dump(spans_path)

    outcome = workload.outcome(inputs, traced_results[0])
    rows = [layer_metrics(SpanTable(tracer.spans, root), outcome) for root in reps]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(w for w, _ in plain_times)
    print(f"untraced jobs: {len(plain_times)}; traced repetitions: {len(reps)}; "
          f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    attempted = len(plain_times) + len(traced_results) + errors + traced_errors
    return metrics, attempted, failed, {"job_times": plain_times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    single_thread_blas()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    path = result_path(args.workload, args.seed, args.trace)
    if args.trace:
        values, attempted, failed, times = per_layer(workload, args.seed, args.seconds,
                                                     path.with_suffix(".spans.jsonl"))
        declared = spec["per_layer"]
    else:
        values, attempted, failed, times = end_to_end(workload, args.seed, args.seconds)
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        from layers import layer_table

        print(layer_table(values))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    path.write_text(json.dumps({"workload": args.workload, "environment": env, **times,
                                **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
