"""One fresh interpreter of the benchmark: import rankbound, then run jobs.

run.py starts this file in a new process for every measurement, because
rankbound keeps module-level caches that a second run in the same process
would find full.  Cache hits between the jobs of one run are real traffic
and stay in.

    python3 bench/worker.py setup
        import the package, print "ready", exit
    python3 bench/worker.py run WORKLOAD SEED SECONDS FIXED TRACE
        run WORKLOAD's jobs from SEED in a closed loop with one client and
        print one JSON object.  FIXED=1 runs the workload's first
        trace_jobs jobs; otherwise whole blocks run until SECONDS have
        passed and enough jobs lie beyond the tail percentile.  TRACE=1
        installs the tracer first.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rankbound  # noqa: E402,F401  (the import is the set-up being timed)
import workloads  # noqa: E402
from hostspeed import time_reference  # noqa: E402

# Safety stop well inside the benchmark's per-run limit.
_MAX_WALL_S = 120.0


def run(name: str, seed: int, seconds: float, fixed: bool, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    state: dict = {}
    latencies: list[float] = []
    ref_s: list[float] = []
    failures: list[dict] = []
    digest = hashlib.sha256()
    clock = time.perf_counter
    blocks = w.blocks(seed)
    if fixed:
        blocks = [list(itertools.islice(itertools.chain.from_iterable(blocks), w.trace_jobs))]
    ref_s.append(time_reference())  # ref_s[i] and ref_s[i + 1] bracket job i
    start = clock()
    for block in blocks:
        for job in block:
            digest.update(json.dumps(job, sort_keys=True).encode())
            t0 = clock()
            try:
                out = w.execute(job)
            except Exception as exc:  # a job that raises is a failed job
                errors = [f"raised {exc!r}"]
            else:
                errors = None
            latencies.append(clock() - t0)
            if errors is None:
                try:
                    errors = w.check(job, out, state)
                except Exception as exc:  # malformed output fails its gate
                    errors = [f"check raised {exc!r}"]
            if errors:
                failures.append({"job": len(latencies) - 1, "errors": errors[:3]})
            ref_s.append(time_reference())
        elapsed = clock() - start
        if not fixed and (
            (elapsed >= seconds and len(latencies) >= w.min_jobs) or elapsed > _MAX_WALL_S
        ):
            break
    result = {
        "latencies": latencies,
        "ref_s": ref_s,
        "failures": failures,
        "tail_pct": w.tail_pct,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs_sha256": digest.hexdigest(),
        "closed_form_worst": state.get("closed_form_worst"),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["top_self_s"] = tracer.self_times()[:6]
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print("ready", flush=True)
        return 0
    if len(argv) != 6 or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    _, name, seed, seconds, fixed, trace = argv
    result = run(name, int(seed), float(seconds), fixed == "1", trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
