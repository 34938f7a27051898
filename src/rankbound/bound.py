"""Assembly of the average-rank bound H(a, delta) and its minimization in a.

H(a, delta) = 1/2 + (1/phi0hat(0)) [ 1/(a delta)
              + (4 a^2/(1-a)^2) (3 (G_phi(1) - G_phi(a))
                                 + (pi^2/6 - 5/4) (G_phi''(1) - G_phi''(a)) ) ]

where G_psi is the kernel functional from :mod:`rankbound.kernels` evaluated
at the order-0 and order-2 limit measures.  At delta = 1/2 the minimum over
a sits near 0.48 and lands just under 6.5.

The G values are cached per (a, tol) and phi0hat(0) per tol, and reused
across deltas: a scan at a new delta over a values already visited at the
same tol costs no new kernel integral.  Both caches are bounded; the G
cache holds a whole headline benchmark run.  At a new tol, G_psi reuses the
kernel panels it computed at that a before (see :mod:`rankbound.kernels`).

A :class:`BoundReport` is one evaluation: the point (a, delta), the pieces
H is assembled from, and H.  It is a named tuple, immutable and built
positionally; its ``_asdict()`` gives the CLI's JSON keys in field order.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import kernels, limits

__all__ = ["BoundReport", "h_of_a", "minimize", "grid_reports", "SERIES_TAIL", "MAX_GRID_POINTS"]

# sum over n >= 3 of n^{-2}; the weight the second-derivative block enters with
SERIES_TAIL = math.pi * math.pi / 6.0 - 1.25

# Largest scan grid; each new point costs two g_psi evaluations.
MAX_GRID_POINTS = 100_000


class BoundReport(NamedTuple):
    a: float
    delta: float
    phi0_hat0: float
    g_phi_1: float
    g_phi_a: float
    g_phi2_1: float
    g_phi2_a: float
    bracket: float
    H: float


# Bounds of the two memos below, whose keys are floats a caller supplies.
# A headline benchmark run asks for about 1,600 (a, tol) pairs at 3 tols.
_G_PAIR_MEMO = 4096
_PHI0_MEMO = 64


# G_phi(a) and G_phi''(a) hold all the work of H; delta enters H only
# through 1/(a delta), so the cache key is (a, tol).  The a = 1 row serves
# every a.
@functools.lru_cache(maxsize=_G_PAIR_MEMO)
def _g_pair(a: float, tol: float) -> tuple[float, float]:
    return (
        kernels.g_psi(a, limits.limit_measure(0), tol).value,
        kernels.g_psi(a, limits.limit_measure(2), tol).value,
    )


@functools.lru_cache(maxsize=_PHI0_MEMO)
def _phi0_hat0(tol: float) -> float:
    return limits.laplace(limits.limit_measure(0), 0.0, tol)


def _check_a(a: float) -> None:
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly inside (0, 1)")


def h_of_a(a: float, delta: float, tol: float = 1e-10) -> BoundReport:
    """Evaluate the bound at a single (a, delta)."""
    _check_a(a)
    if math.isnan(delta) or not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if a * delta == 0.0 or math.isinf(1.0 / (a * delta)):
        raise ValueError(f"1/(a delta) is not finite: a * delta = {a * delta!r} is too small")
    phi0_hat0 = _phi0_hat0(tol)
    g0_one, g2_one = _g_pair(1.0, tol)
    g0_a, g2_a = _g_pair(a, tol)
    bracket = 3.0 * (g0_one - g0_a) + SERIES_TAIL * (g2_one - g2_a)
    pref = 4.0 * a * a / ((1.0 - a) * (1.0 - a))
    h_val = 0.5 + (1.0 / phi0_hat0) * (1.0 / (a * delta) + pref * bracket)
    if not math.isfinite(h_val):
        raise ArithmeticError(f"H({a!r}, {delta!r}) = {h_val!r} is not finite")
    return BoundReport(a, delta, phi0_hat0, g0_one, g0_a, g2_one, g2_a, bracket, h_val)


def grid_reports(
    delta: float, a_lo: float, a_hi: float, step: float, tol: float = 1e-10
) -> list[BoundReport]:
    """Reports on the closed grid a_lo, a_lo + step, ... up to a_hi."""
    if not 0.0 < a_lo < a_hi < 1.0:
        raise ValueError("need 0 < a_lo < a_hi < 1")
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    span = (a_hi - a_lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:  # the grid has floor(span) + 1 points
        raise ValueError(f"grid too large: more than {MAX_GRID_POINTS} points")
    grid = [a_lo + i * step for i in range(math.floor(span) + 1)]
    # The grid ascends from a_lo > 0, but its last point can round up to 1;
    # that fails here, before any work.  A last point that rounds just past
    # a_hi (0.1 + 6 * 0.1 is 0.7000000000000001) is a_hi.
    _check_a(grid[-1])
    grid[-1] = min(grid[-1], a_hi)
    return [h_of_a(a, delta, tol) for a in grid]


def minimize(
    coarse: list[BoundReport], a_hi: float, coarse_step: float, tol: float = 1e-10
) -> BoundReport:
    """The report at the minimizing a: the best of the caller's coarse
    reports ``grid_reports(delta, a_lo, a_hi, coarse_step, tol)``, refined
    by one pass at a tenth of the step over [best - step, best + step]
    clipped to [a_lo, a_hi].

    It reuses the coarse reports: delta is read from them and a_lo is their
    first a.  a_hi is an argument because it may lie off the coarse grid.
    Ties go to the smaller a at both stages.  A coarse grid with a single
    point is returned as-is: with no neighbors there is nothing to bracket a
    minimum with, so refinement would just wander.
    """
    best = min(coarse, key=lambda r: (r.H, r.a))
    if len(coarse) == 1:
        return best
    lo = max(coarse[0].a, best.a - coarse_step)
    hi = min(a_hi, best.a + coarse_step)
    fine = grid_reports(best.delta, lo, hi, coarse_step / 10.0, tol)
    return min(fine + [best], key=lambda r: (r.H, r.a))
