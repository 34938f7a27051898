"""Adaptive Gauss-Kronrod quadrature and integration against measures.

Every adaptive integral in the package funnels through :func:`integrate`.
The rule is the classical 15-point Kronrod extension of 7-point Gauss,
applied adaptively by splitting the current worst panel.  It gives up as
soon as failure is certain: the panels frozen at the width floor carry more
error than the tolerance, the interval budget runs out, or the running error
sum met the tolerance but its exact sum does not.
:func:`composite_gk15` lays the same rule on fixed equal panels for the
vectorized callers in testfn.  Semi-infinite domains are pulled back to
(0, 1) with a logarithmic change of variable, which is accurate exactly when
the integrand decays at least like exp(-t); integrands with slower decay
must be rewritten by the caller (several modules do, with a comment at the
call site).

Measures here are a piecewise smooth density plus finitely many point masses;
:func:`integrate_measure` splits the density integral at the breakpoints so
the adaptive rule never straddles a kink.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "MAX_INTERVALS",
    "QuadResult",
    "IntegrationDomain",
    "PiecewiseSmoothFn",
    "Measure",
    "QuadratureError",
    "EvaluationError",
    "ConvergenceError",
    "integrate",
    "integrate_measure",
    "integrate_measure_with_err",
]

DEFAULT_TOL = 1e-10
MAX_INTERVALS = 1_000_000

# Panels narrower than this (relative to their endpoints) are frozen rather
# than split further: at that width the rule is limited by rounding, not
# truncation.
_WIDTH_FLOOR = 1e-15

# On rays, integrand magnitudes under this are treated as exact zeros, which
# stops the change of variable from chasing noise in the far tail.
_TRUNCATE_BELOW = 1e-300

# 15-point Kronrod nodes on [-1, 1] (nonnegative half; the rule is symmetric)
# with their weights, and the weights of the embedded 7-point Gauss rule.
# Gauss nodes are the Kronrod nodes with odd index plus the center.
_KRONROD_X = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_KRONROD_W = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GAUSS_W = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


class QuadratureError(Exception):
    """Base class for integration failures."""


class EvaluationError(QuadratureError):
    """The integrand returned a non-finite value.

    The offending abscissa is kept on the exception so callers can see where
    their function blew up (for mapped semi-infinite integrals this is the
    original coordinate, not the unit-interval one).
    """

    def __init__(self, abscissa: float, value) -> None:
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand evaluated to {value!r} at x = {abscissa!r}")


class ConvergenceError(QuadratureError):
    """The tolerance is out of reach; the message names which of three reasons.

    The panels frozen at the width floor carry more error than the tolerance,
    the interval budget ran out, or the running error sum met the tolerance
    while the exact sum of the panel errors does not.  ``best`` carries the
    estimate accumulated so far together with its error bound, so a caller
    that can live with less accuracy still gets a number.
    """

    def __init__(self, best: "QuadResult", message: str) -> None:
        self.best = best
        super().__init__(message)


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    n_evals: int = 0


@dataclass(frozen=True)
class IntegrationDomain:
    """Finite interval [lo, hi] or semi-infinite ray [lo, inf)."""

    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo):
            raise ValueError("lower endpoint must be finite")
        if math.isnan(self.hi) or not self.hi > self.lo:
            raise ValueError("need hi > lo")


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod panel: (integral estimate, |Kronrod - Gauss| error)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _KRONROD_W[7] * fc
    gauss = _GAUSS_W[3] * fc
    for j in range(7):
        dx = h * _KRONROD_X[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        kron += _KRONROD_W[j] * (f1 + f2)
        if j % 2 == 1:
            gauss += _GAUSS_W[j // 2] * (f1 + f2)
    return kron * h, abs(kron - gauss) * h


def composite_gk15(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Kronrod rule on n equal panels of [lo, hi].

    Both are flat numpy arrays, panel after panel with nodes ascending, so an
    integral over [lo, hi] is ``weights @ f(nodes)``.  Callers that apply one
    fixed rule to many integrands (convolutions, transform scans) use this
    instead of the adaptive path.
    """
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    xs = np.array([-x for x in _KRONROD_X[:7]] + [0.0] + [x for x in reversed(_KRONROD_X[:7])])
    ws = np.array(list(_KRONROD_W[:7]) + [_KRONROD_W[7]] + list(reversed(_KRONROD_W[:7])))
    nodes = (mid[:, None] + h * xs[None, :]).ravel()
    weights = np.broadcast_to(h * ws[None, :], (n_panels, 15)).ravel()
    return nodes, weights


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    def g(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        return float(y)

    return g


def _adaptive(g, lo: float, hi: float, tol: float, cuts: Sequence[float]) -> QuadResult:
    edges = [lo]
    for b in sorted(set(cuts)):
        if edges[-1] < b < hi:
            edges.append(b)
    edges.append(hi)

    heap = []  # entries: (-err, tiebreak, a, b, value, err)
    live_err = 0.0
    for serial, (a, b) in enumerate(zip(edges, edges[1:])):
        v, e = _gk15(g, a, b)
        heapq.heappush(heap, (-e, serial, a, b, v, e))
        live_err += e
    serial = n_intervals = len(heap)
    n_evals = 15 * n_intervals
    frozen: list[tuple[float, float]] = []
    frozen_err = 0.0

    # Split the worst panel until the error meets tol, the panels frozen at
    # the width floor alone exceed it (they never shrink, so no split can
    # help), every panel is frozen, or the budget runs out.
    while heap and n_intervals < MAX_INTERVALS and frozen_err <= tol < live_err + frozen_err:
        _, _, a, b, v, e = heapq.heappop(heap)
        live_err -= e
        if (b - a) < _WIDTH_FLOOR * max(1.0, abs(a), abs(b)):
            frozen.append((v, e))
            frozen_err += e
            continue
        m = 0.5 * (a + b)
        v1, e1 = _gk15(g, a, m)
        v2, e2 = _gk15(g, m, b)
        n_evals += 30
        n_intervals += 1
        heapq.heappush(heap, (-e1, serial, a, m, v1, e1))
        heapq.heappush(heap, (-e2, serial + 1, m, b, v2, e2))
        serial += 2
        live_err += e1 + e2

    result = _collect(heap, frozen, n_evals)
    if result.err_estimate > tol:
        if frozen_err > tol or not heap:
            why = f"panels frozen at the width floor carry {frozen_err:.3e} of it"
        elif n_intervals >= MAX_INTERVALS:
            why = f"interval budget {MAX_INTERVALS} exhausted"
        else:
            why = "the running error sum met tol, its exact sum did not"
        raise ConvergenceError(
            result, f"error estimate {result.err_estimate:.3e} > tol {tol:.3e}: {why}"
        )
    return result


def _collect(heap, frozen, n_evals: int) -> QuadResult:
    vals = [item[4] for item in heap] + [v for v, _ in frozen]
    errs = [item[5] for item in heap] + [e for _, e in frozen]
    return QuadResult(math.fsum(vals), math.fsum(errs), n_evals)


def integrate(
    f: Callable[[float], float],
    domain: IntegrationDomain,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate ``f`` over ``domain`` to absolute tolerance ``tol``.

    ``breakpoints`` are interior points where the integrand is allowed to be
    non-smooth; the initial panel layout honors them.  Raises
    :class:`EvaluationError` on nan/inf from ``f`` and
    :class:`ConvergenceError` (carrying the best estimate) as soon as the
    tolerance is out of reach: the panels frozen at the width floor carry
    more error than ``tol``, the interval budget runs out, or the running
    error sum met ``tol`` but the exact sum of the panel errors does not.
    """
    if tol <= 0.0 or math.isnan(tol):
        raise ValueError("tolerance must be positive")
    g = _checked(f)
    if math.isinf(domain.hi):
        lo = domain.lo

        def mapped(u: float) -> float:
            # t = lo - log(1 - u) sends (0, 1) onto (lo, inf).  Deep
            # subdivision against a slowly decaying integrand can round a
            # node to u = 1 exactly; that is t = inf, where anything this
            # map is valid for sits below the truncation threshold.
            if u >= 1.0:
                return 0.0
            ft = g(lo - math.log1p(-u))
            if abs(ft) < _TRUNCATE_BELOW:
                return 0.0
            return ft / (1.0 - u)

        cuts = [-math.expm1(-(b - lo)) for b in breakpoints if b > lo]
        return _adaptive(mapped, 0.0, 1.0, tol, cuts)

    return _adaptive(g, domain.lo, domain.hi, tol, breakpoints)


@dataclass(frozen=True)
class PiecewiseSmoothFn:
    """A compactly supported function, smooth between listed breakpoints.

    ``pieces[i]`` is the callable valid on (breakpoints[i], breakpoints[i+1]).
    Outside the support the function is identically zero.
    ``value_continuous[j]`` records whether the function value is continuous
    across breakpoint j (counting the jump to zero at the support endpoints);
    derivative-level kinks are expected and not tracked.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[Callable[[float], float], ...]
    value_continuous: tuple[bool, ...]

    def __post_init__(self) -> None:
        bp = self.breakpoints
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bp) - 1:
            raise ValueError("need exactly one piece per gap")
        if len(self.value_continuous) != len(bp):
            raise ValueError("need one continuity flag per breakpoint")

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def __call__(self, x: float) -> float:
        if x < self.breakpoints[0] or x > self.breakpoints[-1]:
            return 0.0
        # Right-continuous convention at interior breakpoints; the last
        # breakpoint maps into the final piece.
        i = bisect.bisect_right(self.breakpoints, x) - 1
        return float(self.pieces[min(i, len(self.pieces) - 1)](x))


@dataclass(frozen=True)
class Measure:
    """Piecewise smooth density plus point masses.

    ``density`` may be None for a purely atomic measure.  Atom masses are
    nonnegative; atom locations must lie in the closure of the density's
    support when a density is present.
    """

    density: PiecewiseSmoothFn | None
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for loc, mass in self.atoms:
            if mass < 0.0:
                raise ValueError("atom masses must be nonnegative")
            if self.density is not None:
                lo, hi = self.density.support
                if not (lo - 1e-12 <= loc <= hi + 1e-12):
                    raise ValueError(f"atom at {loc} outside density support [{lo}, {hi}]")


def integrate_measure_with_err(
    h: Callable[[float], float],
    m: Measure,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Integral of ``h`` against ``m`` with the quadrature error estimate.

    Atoms contribute exactly (no error); the density part is integrated
    piecewise so breakpoint kinks never sit inside a panel.
    """
    total = 0.0
    err = 0.0
    d = m.density
    if d is not None:
        lo, hi = d.support
        res = integrate(
            lambda x: h(x) * d(x),
            IntegrationDomain(lo, hi),
            tol,
            breakpoints=d.breakpoints[1:-1],
        )
        total += res.value
        err += res.err_estimate
    for loc, mass in m.atoms:
        total += mass * h(loc)
    return total, err


def integrate_measure(h: Callable[[float], float], m: Measure, tol: float = DEFAULT_TOL) -> float:
    return integrate_measure_with_err(h, m, tol)[0]
