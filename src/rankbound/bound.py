"""Assembly of the average-rank bound H(a, delta) and its minimization in a.

H(a, delta) = 1/2 + (1/phi0hat(0)) [ 1/(a delta)
              + (4 a^2/(1-a)^2) (3 (G_phi(1) - G_phi(a))
                                 + (pi^2/6 - 5/4) (G_phi''(1) - G_phi''(a)) ) ]

where G_psi is the kernel functional from :mod:`rankbound.kernels` evaluated
at the order-0 and order-2 limit measures.  At delta = 1/2 the minimum over
a sits near 0.48 and lands just under 6.5.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels, testfn

__all__ = ["BoundReport", "h_of_a", "minimize", "grid_reports", "SERIES_TAIL"]

# sum over n >= 3 of n^{-2}; the weight the second-derivative block enters with
SERIES_TAIL = math.pi * math.pi / 6.0 - 1.25


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


# The a-independent ingredients are shared across a whole scan.
_static_cache: dict[float, tuple[float, float, float]] = {}
_report_cache: dict[tuple[float, float, float], BoundReport] = {}


def _static(tol: float) -> tuple[float, float, float]:
    got = _static_cache.get(tol)
    if got is None:
        m0 = testfn.limit_measure(0)
        m2 = testfn.limit_measure(2)
        got = (
            testfn.laplace(m0, 0.0, tol),
            kernels.g_psi(1.0, m0, tol),
            kernels.g_psi(1.0, m2, tol),
        )
        _static_cache[tol] = got
    return got


def h_of_a(a: float, delta: float, tol: float = 1e-10) -> BoundReport:
    """Evaluate the bound at a single (a, delta)."""
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly inside (0, 1)")
    if math.isnan(delta) or not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    key = (a, delta, tol)
    got = _report_cache.get(key)
    if got is not None:
        return got
    phi0_hat0, g0_one, g2_one = _static(tol)
    m0 = testfn.limit_measure(0)
    m2 = testfn.limit_measure(2)
    g0_a = kernels.g_psi(a, m0, tol)
    g2_a = kernels.g_psi(a, m2, tol)
    bracket = 3.0 * (g0_one - g0_a) + SERIES_TAIL * (g2_one - g2_a)
    pref = 4.0 * a * a / ((1.0 - a) * (1.0 - a))
    h_val = 0.5 + (1.0 / phi0_hat0) * (1.0 / (a * delta) + pref * bracket)
    if not math.isfinite(h_val):
        raise ArithmeticError(f"H({a!r}, {delta!r}) = {h_val!r} is not finite")
    report = BoundReport(
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
    _report_cache[key] = report
    return report


def grid_reports(
    delta: float, a_lo: float, a_hi: float, step: float, tol: float = 1e-10
) -> list[BoundReport]:
    """Reports on the closed grid a_lo, a_lo + step, ... up to a_hi."""
    if not 0.0 < a_lo < a_hi < 1.0:
        raise ValueError("need 0 < a_lo < a_hi < 1")
    if not step > 0.0:
        raise ValueError("step must be positive")
    n = int(math.floor((a_hi - a_lo) / step + 1e-9))
    grid = [a_lo + i * step for i in range(n + 1)]
    if not grid:
        raise ValueError("empty scan grid")
    return [h_of_a(a, delta, tol) for a in grid]


def minimize(
    delta: float, a_lo: float, a_hi: float, coarse_step: float, tol: float = 1e-10
) -> tuple[float, BoundReport]:
    """Coarse scan then one refinement pass at a tenth of the step.

    Ties go to the smaller a at both stages.  A coarse grid with a single
    point is returned as-is: with no neighbors there is nothing to bracket a
    minimum with, so refinement would just wander.
    """
    coarse = grid_reports(delta, a_lo, a_hi, coarse_step, tol)
    best = min(coarse, key=lambda r: (r.H, r.a))
    if len(coarse) == 1:
        return best.a, best
    lo = max(a_lo, best.a - coarse_step)
    hi = min(a_hi, best.a + coarse_step)
    fine = grid_reports(delta, lo, hi, coarse_step / 10.0, tol)
    best = min(fine + [best], key=lambda r: (r.H, r.a))
    return best.a, best
