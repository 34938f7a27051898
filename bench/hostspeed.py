"""The reference loop that tracks the host's speed.

The host's speed for pure-Python work drifts by a third within minutes, in
phases from about a second long up, while CPU time tracks wall time.  The
benchmark times this fixed loop before and after every measurement, in the
same process, and scales each measured time by the mean of the two loop
times that bracket it, to a nominal host on which the loop takes
``NOMINAL_S``.  Bracketing follows the phases: on identical job lists on a
2-core x86 VM it cut the run-to-run scatter of single job times from 20% to
11%, where one median loop time per run left 16%.
"""
from __future__ import annotations

import time

# Close to the loop's median on the 2-core x86 host these workloads were
# sized on; any fixed value works, it only sets the scale.
NOMINAL_S = 10e-3


def reference_loop() -> int:
    acc = 0
    for i in range(120_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """times[i] on the nominal host, given the loop times refs[i] before and
    refs[i + 1] after it."""
    return [t * NOMINAL_S / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(times)]
