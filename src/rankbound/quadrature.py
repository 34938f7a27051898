"""Adaptive Gauss-Kronrod quadrature and integration against measures.

Every adaptive integral in the package funnels through one loop and one
panel rule, the classical 15-point Kronrod extension of 7-point Gauss,
applied adaptively by splitting the current worst panel.  The rule is a
fixed weighted sum of a panel's 15 values, and the loop asks for values a
split at a time: one call takes the nodes of all the first panels, and one
call each split the nodes of both halves.  The worst panel is split first
whatever a call holds, so the panels, and every bit of the result, are
those of one panel per call.  The three entry points differ only in how the
values are produced, and each returns a :class:`QuadResult`: the value, its
error estimate and ``n_evals``, the count of values summed.
:func:`integrate` calls a scalar integrand node by node, on an interval or
a ray.  :func:`integrate_array` hands a call's nodes to a panel integrand
at once, as a list (finite domains only; the two give the same bits on
integrands that agree element by element).
:func:`integrate_measure_with_err` integrates against a :class:`Measure`, a
piecewise smooth density plus point masses: the density's breakpoints are
the loop's first cuts and the loop only bisects, so every panel lies inside
one gap, and the gap's piece is picked once per panel.  Its ``n_evals`` is
15 per panel plus one per atom.  The loop gives up as soon as failure is
certain, for one of the four reasons that :class:`ConvergenceError` names.

Only :func:`integrate_measure_with_err` takes a panel memo: a dict, kept by
the caller for one (integrand, measure) pair, from a panel's endpoints to
the rule's (value, error).  The loop splits the worst panel first, so the
panels of a loose tol are a prefix of those of a tight one (QUADPACK,
Piessens et al. 1983), and a second call at another tol recomputes only the
panels it has not seen: a call's hits come from the memo, and only its
misses reach the integrand.  A hit gives the same two doubles and counts in
``n_evals`` as a miss does, so the result is the memo-free one bit for bit.

The 15-node layout is ``GK15_X`` and ``GK15_W``; testfn's composite rule
lays it on fixed equal panels.  The module is scalar and imports no numpy.

Semi-infinite domains are pulled back to (0, 1) with a logarithmic change
of variable, which is accurate exactly when the integrand decays at least
like exp(-t); integrands with slower decay must be rewritten by the caller
(several modules do, with a comment at the call site).
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "DEFAULT_TOL",
    "GK15_X",
    "GK15_W",
    "MAX_INTERVALS",
    "QuadResult",
    "IntegrationDomain",
    "PiecewiseSmoothFn",
    "Measure",
    "QuadratureError",
    "EvaluationError",
    "ConvergenceError",
    "integrate",
    "integrate_array",
    "integrate_measure",
    "integrate_measure_with_err",
]

DEFAULT_TOL = 1e-10
MAX_INTERVALS = 1_000_000

# Panels narrower than this (relative to their endpoints) are frozen rather
# than split further: at that width the rule is limited by rounding, not
# truncation.
_WIDTH_FLOOR = 1e-15

# A run of this many splits in which the running error sum sets no new
# minimum means the error has stalled at the rounding level (the roundoff
# exit of QUADPACK's QAGS; Gonnet, ACM Computing Surveys 44(4), 2012).  A
# tol under one ulp of the integral is met, if ever, only by rounding luck.
_STALL_SPLITS = 4096

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

# The same rule on all 15 nodes of [-1, 1], ascending: the one layout that
# the adaptive panel rule and testfn.composite_gk15 both use.
GK15_X = tuple(-x for x in _KRONROD_X[:7]) + _KRONROD_X[7::-1]
GK15_W = _KRONROD_W[:7] + _KRONROD_W[7::-1]


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
    """The tolerance is out of reach; the message names which of four reasons.

    The panels frozen at the width floor carry more error than the tolerance,
    the error sum stalled (no new minimum over a fixed run of splits), the
    interval budget ran out, or the running error sum met the tolerance while
    the exact sum of the panel errors does not.  ``best`` carries the
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
    n_evals: int


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


def _gk15(
    panel: Callable[[list[float]], list[float]], spans: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Kronrod panels: (integral estimate, |Kronrod - Gauss| error) per span (a, b).

    This is the only panel rule.  ``panel`` maps the spans' nodes, 15 per
    span in span order, each span's c + h x_j ascending, to their values in
    one call; the entry points differ only in how it evaluates them.  Each
    span's sums run left to right: the centre first, then the pairs
    v_j + v_(14 - j) for j = 0, ..., 6 (the odd j alone for Gauss).  They
    are written out, not looped, because every panel of every integral runs
    them.
    """
    xs = []
    for a, b in spans:
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        xs += [c + h * x for x in GK15_X]
    vs = panel(xs)
    k0, k1, k2, k3, k4, k5, k6, k7 = _KRONROD_W
    g0, g1, g2, g3 = _GAUSS_W
    out = []
    for i, (a, b) in enumerate(spans):
        v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = vs[15 * i : 15 * i + 15]
        p1, p3, p5 = v1 + v13, v3 + v11, v5 + v9
        kron = (
            k7 * v7 + k0 * (v0 + v14) + k1 * p1 + k2 * (v2 + v12)
            + k3 * p3 + k4 * (v4 + v10) + k5 * p5 + k6 * (v6 + v8)
        )
        gauss = g3 * v7 + g0 * p1 + g1 * p3 + g2 * p5
        h = 0.5 * (b - a)
        out.append((kron * h, abs(kron - gauss) * h))
    return out


def _finite(xs: list[float], ys) -> list[float]:
    # One C-level pass per call; on failure, name the leftmost bad node.  A
    # wrong count would shift every later span's values, so it is refused.
    if len(ys) != len(xs):
        raise ValueError(f"panel integrand returned {len(ys)} values for {len(xs)} nodes")
    if not all(map(math.isfinite, ys)):
        i = next(i for i, y in enumerate(ys) if not math.isfinite(y))
        raise EvaluationError(xs[i], ys[i])
    return list(map(float, ys))


def _memoized(memo: dict) -> Callable:
    # _gk15 behind a dict from a panel's endpoints to its (value, error):
    # the spans the dict lacks go to one _gk15 call, and every answer is read
    # back from the dict.  Each pair is packed in a complex, which holds two
    # doubles bit for bit in 32 bytes, where a tuple of two floats takes
    # about 100.
    def rule(panel, spans: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
        keys = [complex(a, b) for a, b in spans]
        misses = [span for span, key in zip(spans, keys) if key not in memo]
        if misses:
            for (a, b), (v, e) in zip(misses, _gk15(panel, misses)):
                memo[complex(a, b)] = complex(v, e)
        return [(memo[key].real, memo[key].imag) for key in keys]

    return rule


def _adaptive(
    panel, lo: float, hi: float, tol: float, cuts: Sequence[float], memo: dict | None = None
) -> QuadResult:
    # panel maps the nodes of one or more panels to their values; see
    # _gk15.  The first panels go in one call, and so do the two halves of
    # each split.  memo, if given, must belong to this one integrand.
    if tol <= 0.0 or math.isnan(tol):
        raise ValueError("tolerance must be positive")
    rule = _gk15 if memo is None else _memoized(memo)
    edges = [lo]
    for b in sorted(set(cuts)):
        if edges[-1] < b < hi:
            edges.append(b)
    edges.append(hi)

    heap = []  # entries: (-err, tiebreak, a, b, value, err)
    live_err = 0.0
    spans = list(zip(edges, edges[1:]))
    for serial, ((a, b), (v, e)) in enumerate(zip(spans, rule(panel, spans))):
        heapq.heappush(heap, (-e, serial, a, b, v, e))
        live_err += e
    serial = n_intervals = len(heap)
    n_evals = 15 * n_intervals
    frozen: list[tuple[float, float]] = []
    frozen_err = 0.0
    least_err, stalled = live_err, 0

    # Split the worst panel until the error meets tol, the panels frozen at
    # the width floor alone exceed it (they never shrink, so no split can
    # help), every panel is frozen, the error stalls, or the budget runs out.
    while (
        heap
        and n_intervals < MAX_INTERVALS
        and stalled < _STALL_SPLITS
        and frozen_err <= tol < live_err + frozen_err
    ):
        _, _, a, b, v, e = heapq.heappop(heap)
        live_err -= e
        if (b - a) < _WIDTH_FLOOR * max(1.0, abs(a), abs(b)):
            frozen.append((v, e))
            frozen_err += e
            continue
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = rule(panel, [(a, m), (m, b)])
        n_evals += 30
        n_intervals += 1
        heapq.heappush(heap, (-e1, serial, a, m, v1, e1))
        heapq.heappush(heap, (-e2, serial + 1, m, b, v2, e2))
        serial += 2
        live_err += e1 + e2
        if live_err + frozen_err < least_err:
            least_err, stalled = live_err + frozen_err, 0
        else:
            stalled += 1

    result = _collect(heap, frozen, n_evals)
    if result.err_estimate > tol:
        if frozen_err > tol or not heap:
            why = f"panels frozen at the width floor carry {frozen_err:.3e} of it"
        elif n_intervals >= MAX_INTERVALS:
            why = f"interval budget {MAX_INTERVALS} exhausted"
        elif stalled >= _STALL_SPLITS:
            why = f"the error stalled: no new minimum in {_STALL_SPLITS} splits"
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
    more error than ``tol``, the error sum stalls (no new minimum over a
    fixed run of splits), the interval budget runs out, or the running error
    sum met ``tol`` but the exact sum of the panel errors does not.
    """
    if math.isinf(domain.hi):
        lo = domain.lo

        def mapped(us: list[float]) -> list[float]:
            # t = lo - log(1 - u) sends (0, 1) onto (lo, inf).  Deep
            # subdivision against a slowly decaying integrand can round a
            # node to u = 1 exactly; that is t = inf, where anything this
            # map is valid for sits below the truncation threshold.  A call
            # holds adjacent panels in order, so its nodes ascend across
            # them too, and a u >= 1 node can only end the call.
            ts = [lo - math.log1p(-u) for u in us if u < 1.0]
            fts = _finite(ts, list(map(f, ts)))
            out = [0.0 if abs(ft) < _TRUNCATE_BELOW else ft / (1.0 - u) for u, ft in zip(us, fts)]
            return out + [0.0] * (len(us) - len(out))

        cuts = [-math.expm1(-(b - lo)) for b in breakpoints if b > lo]
        return _adaptive(mapped, 0.0, 1.0, tol, cuts)

    return _adaptive(
        lambda xs: _finite(xs, list(map(f, xs))), domain.lo, domain.hi, tol, breakpoints
    )


def integrate_array(
    fv: Callable[[list[float]], list[float]],
    domain: IntegrationDomain,
    tol: float = DEFAULT_TOL,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """:func:`integrate` for an integrand that maps a list of nodes to as many values.

    ``fv`` is called once per split: first with the 15 nodes of every first
    panel, then with the 30 of each split's two halves, ascending within
    each panel (and across a call's panels, short of the width floor).  It
    must return one value per node; a wrong count raises ``ValueError``.
    Panels, sums and stopping rules are those of :func:`integrate`, so an
    ``fv`` that agrees element by element with a scalar integrand gives the
    same result bit for bit.  Only finite domains are taken.
    """
    if math.isinf(domain.hi):
        raise ValueError("integrate_array needs a finite domain")
    return _adaptive(lambda xs: _finite(xs, fv(xs)), domain.lo, domain.hi, tol, breakpoints)


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


@dataclass(frozen=True)
class Measure:
    """Piecewise smooth density plus point masses.

    Atom masses are nonnegative, and atom locations must lie in the closure
    of the density's support.
    """

    density: PiecewiseSmoothFn
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.density.support
        for loc, mass in self.atoms:
            if mass < 0.0:
                raise ValueError("atom masses must be nonnegative")
            if not (lo - 1e-12 <= loc <= hi + 1e-12):
                raise ValueError(f"atom at {loc} outside density support [{lo}, {hi}]")


def integrate_measure_with_err(
    h: Callable[[float], float],
    m: Measure,
    tol: float = DEFAULT_TOL,
    memo: dict | None = None,
) -> QuadResult:
    """Integral of ``h`` against ``m``, atoms included, with its error estimate.

    Atoms add ``mass * h(loc)`` exactly, with no error; a non-finite
    ``h(loc)`` raises :class:`EvaluationError`.  Each panel lies in one gap
    of the density, and the gap's piece is picked from the panel's centre
    node, which the width floor keeps strictly inside the gap.  The rule is
    one-sided: a node that rounds onto the panel's own edge, a breakpoint,
    takes the piece of the gap the panel lies in, not its neighbour's.
    ``memo`` is the panel memo of the module docstring, for one (h, m) pair.
    """
    bp, pieces = m.density.breakpoints, m.density.pieces

    def panel(xs: list[float]) -> list[float]:
        ys = []
        for i in range(0, len(xs), 15):
            piece = pieces[bisect.bisect_right(bp, xs[i + 7]) - 1]
            ys += [h(x) * piece(x) for x in xs[i : i + 15]]
        return _finite(xs, ys)

    h_atoms = _finite([loc for loc, _ in m.atoms], [h(loc) for loc, _ in m.atoms])
    res = _adaptive(panel, bp[0], bp[-1], tol, bp[1:-1], memo)
    total = res.value
    for (_, mass), h_loc in zip(m.atoms, h_atoms):
        total += mass * h_loc
    return QuadResult(total, res.err_estimate, res.n_evals + len(h_atoms))


def integrate_measure(h: Callable[[float], float], m: Measure, tol: float = DEFAULT_TOL) -> float:
    """The value alone of :func:`integrate_measure_with_err`."""
    return integrate_measure_with_err(h, m, tol).value
