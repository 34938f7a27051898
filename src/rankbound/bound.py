"""Assembly of the average-rank bound H(a, delta) and its minimization in a.

H(a, delta) = 1/2 + (1/phi0hat(0)) [ 1/(a delta)
              + (4 a^2/(1-a)^2) (3 (G_phi(1) - G_phi(a))
                                 + (pi^2/6 - 5/4) (G_phi''(1) - G_phi''(a)) ) ]

where G_psi is the kernel functional from :mod:`rankbound.kernels` evaluated
at the order-0 and order-2 limit measures.  At delta = 1/2 the minimum over
a sits near 0.48 and lands just under 6.5.

The G values are cached per (a, tol) and phi0hat(0) per tol, and reused
across deltas: a scan at a new delta over a values already visited at the
same tol costs no new kernel integral.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import kernels, testfn

__all__ = ["BoundReport", "h_of_a", "minimize", "grid_reports", "SERIES_TAIL", "MAX_GRID_POINTS"]

# sum over n >= 3 of n^{-2}; the weight the second-derivative block enters with
SERIES_TAIL = math.pi * math.pi / 6.0 - 1.25

# Largest scan grid; each new point costs two g_psi evaluations.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class BoundReport:
    a: float
    delta: float
    phi0_hat0: float
    g_phi_1: float
    g_phi_a: float
    g_phi2_1: float
    g_phi2_a: float
    bracket: float
    H: float


# G_phi(a) and G_phi''(a) hold all the work of H; delta enters H only
# through 1/(a delta), so the cache key is (a, tol).  The a = 1 row serves
# every a.
@functools.lru_cache(maxsize=None)
def _g_pair(a: float, tol: float) -> tuple[float, float]:
    return (
        kernels.g_psi(a, testfn.limit_measure(0), tol)[0],
        kernels.g_psi(a, testfn.limit_measure(2), tol)[0],
    )


@functools.lru_cache(maxsize=None)
def _phi0_hat0(tol: float) -> float:
    return testfn.laplace(testfn.limit_measure(0), 0.0, tol)


def h_of_a(a: float, delta: float, tol: float = 1e-10) -> BoundReport:
    """Evaluate the bound at a single (a, delta)."""
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly inside (0, 1)")
    if math.isnan(delta) or not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    phi0_hat0 = _phi0_hat0(tol)
    g0_one, g2_one = _g_pair(1.0, tol)
    g0_a, g2_a = _g_pair(a, tol)
    bracket = 3.0 * (g0_one - g0_a) + SERIES_TAIL * (g2_one - g2_a)
    pref = 4.0 * a * a / ((1.0 - a) * (1.0 - a))
    h_val = 0.5 + (1.0 / phi0_hat0) * (1.0 / (a * delta) + pref * bracket)
    if not math.isfinite(h_val):
        raise ArithmeticError(f"H({a!r}, {delta!r}) = {h_val!r} is not finite")
    return BoundReport(
        a=a,
        delta=delta,
        phi0_hat0=phi0_hat0,
        g_phi_1=g0_one,
        g_phi_a=g0_a,
        g_phi2_1=g2_one,
        g_phi2_a=g2_a,
        bracket=bracket,
        H=h_val,
    )


def grid_reports(
    delta: float, a_lo: float, a_hi: float, step: float, tol: float = 1e-10
) -> list[BoundReport]:
    """Reports on the closed grid a_lo, a_lo + step, ... up to a_hi."""
    if not 0.0 < a_lo < a_hi < 1.0:
        raise ValueError("need 0 < a_lo < a_hi < 1")
    if not step > 0.0:
        raise ValueError("step must be positive")
    span = (a_hi - a_lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:  # the grid has floor(span) + 1 points
        raise ValueError(f"grid too large: more than {MAX_GRID_POINTS} points")
    n = math.floor(span)
    grid = [a_lo + i * step for i in range(n + 1)]
    if not grid:
        raise ValueError("empty scan grid")
    return [h_of_a(a, delta, tol) for a in grid]


def minimize(
    delta: float, a_lo: float, a_hi: float, coarse_step: float, tol: float = 1e-10
) -> BoundReport:
    """The report at the minimizing a: a coarse scan, then one refinement
    pass at a tenth of the step.

    Ties go to the smaller a at both stages.  A coarse grid with a single
    point is returned as-is: with no neighbors there is nothing to bracket a
    minimum with, so refinement would just wander.
    """
    coarse = grid_reports(delta, a_lo, a_hi, coarse_step, tol)
    best = min(coarse, key=lambda r: (r.H, r.a))
    if len(coarse) == 1:
        return best
    lo = max(a_lo, best.a - coarse_step)
    hi = min(a_hi, best.a + coarse_step)
    fine = grid_reports(delta, lo, hi, coarse_step / 10.0, tol)
    return min(fine + [best], key=lambda r: (r.H, r.a))
