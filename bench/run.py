"""The rankbound benchmark: one command, three seeded closed-loop workloads.

    python3 bench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and builds nothing.  Every measurement runs in a fresh interpreter
(bench/worker.py), one process with one client that sends the next job only
after the previous one completed.

--trace 0 measures the end-to-end metrics with tracing off: throughput,
median and tail job latency, peak RSS of the run process, and set-up time,
the median of several fresh interpreters from spawn to ready.  The host's
speed drifts by a third within minutes, so every time is scaled by a
reference loop timed just before and after it in the same process (see
hostspeed.py): jobs_per_ref is jobs per reference-loop time, and the ms
and s figures are times on a nominal host.  The raw wall-clock figures
print above the result line.
--trace 1 runs the workload's fixed traced job list twice, in two fresh
interpreters, untraced and traced, and reports the per-layer metrics of the
traced one plus the tracer's overhead.

Every job's output is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every job passed its gates, 1 when any failed, and 2 when the benchmark
cannot run at all (nothing is printed to stdout then).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S, scaled, time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("headline", "verify", "mollifier")
SETUP_SAMPLES = 5
_WORKER_TIMEOUT_S = 170.0
# One client thread: numpy's BLAS would otherwise take every core for the
# matrix products of the verify workload, and its share of a shared host
# is what varies most from run to run.
_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    pass


def _worker(*args: str) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=_ENV,
            stdout=subprocess.PIPE,
            timeout=_WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _setup_sample() -> tuple[float, list[float]]:
    """Seconds from spawning a fresh interpreter to the package being ready,
    and the reference loop's times just before and after."""
    before = time_reference()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), "setup"], cwd=ROOT, env=_ENV,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up worker exited with {proc.returncode}")
    return dt, [before, time_reference()]


def _nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(res: dict, setup: list[tuple[float, list[float]]]) -> tuple[dict, dict]:
    """(metrics, raw wall-clock figures), each as name -> (value, unit)."""
    lat = res["latencies"]
    norm = scaled(lat, res["ref_s"])
    pct = res["tail_pct"]
    metrics = {
        "jobs_per_ref": (len(lat) * NOMINAL_S / sum(norm), "jobs/ref"),
        "job_ms.p50": (1e3 * statistics.median(norm), "ms"),
        "job_ms.tail": (1e3 * _nearest_rank(norm, pct), "ms"),
        "setup_s": (statistics.median(scaled([dt], refs)[0] for dt, refs in setup), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw = {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_ms.p50": (1e3 * statistics.median(lat), "ms"),
        "job_ms.tail": (1e3 * _nearest_rank(lat, pct), "ms"),
        "setup_s": (statistics.median(dt for dt, _ in setup), "s"),
        "reference_loop_ms": (1e3 * statistics.median(res["ref_s"]), "ms"),
    }
    return metrics, raw


def _report(name: str, seed: int, runs: list[dict], metrics: dict, raw: dict) -> dict:
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    main = runs[-1]
    n = len(main["latencies"])
    print(f"workload {name}, seed {seed}: closed loop, 1 client, {n} jobs, "
          f"job list sha256 {main['jobs_sha256'][:16]}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:.6g} {unit}")
    for key, (value, unit) in raw.items():
        print(f"  raw {key:36s} {value:.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if "job_ms.tail" in metrics:
        print(f"  job_ms.tail is p{main['tail_pct']} over {n} jobs; "
              f"setup_s is the median of {SETUP_SAMPLES} fresh interpreters")
    if main["closed_form_worst"] is not None:
        print(f"  worst |S - closedS| / allowance over the run: "
              f"{main['closed_form_worst']:.4f} (known misfit at delta = 0.02; not a gate)")
    if "top_self_s" in main:
        print("  quadrature.self_s includes the callers' integrand closures")
        print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in main["top_self_s"]))
    for run in runs:
        for f in run["failures"][:5]:
            print(f"  FAILED job {f['job']}: {'; '.join(f['errors'])}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rankbound" / "__init__.py").is_file():
        print(f"error: no rankbound package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = (args.workload, str(args.seed), str(args.seconds))
    try:
        if args.trace:
            plain = _worker("run", *common, "1", "0")
            traced = _worker("run", *common, "1", "1")
            runs = [plain, traced]
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            # Job time over reference-loop time in each process, so a change of
            # host speed between the two processes does not count as overhead.
            cost = [sum(scaled(r["latencies"], r["ref_s"])) for r in runs]
            overhead = cost[1] / cost[0] - 1.0
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            # The closed form's known misfit at delta = 0.02, as a number.
            worst = traced["closed_form_worst"] or 0.0
            metrics["mollifier.s_vs_closed.worst_ratio"] = (worst, "ratio")
            raw = {}
        else:
            _setup_sample()  # first start in a checkout compiles bytecode
            setup = [_setup_sample() for _ in range(SETUP_SAMPLES)]
            runs = [_worker("run", *common, "0", "0")]
            metrics, raw = end_to_end(runs[0], setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _report(args.workload, args.seed, runs, metrics, raw)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
