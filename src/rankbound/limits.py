"""The sharp limit phi_0 of the smoothed test functions, as measures.

As eps -> 0 the smoothed test function of :mod:`rankbound.testfn` converges
to phi_0(x) = max(0, 1 - |x|) / cosh(x), and its first and second
derivatives converge in total variation to explicit piecewise densities
plus point masses (:func:`limit_measure`).  The module also gives their
two-sided Laplace transforms.  These measures feed H, and everything here
is scalar, so the H pipeline loads without numpy.

Memos: ``limit_measure`` builds one Measure per order; ``_transform`` keeps
the transform integrals behind :func:`laplace`, :func:`laplace_density` and
:func:`laplace_deriv`, keyed on (measure, s, tol, moment).
"""
from __future__ import annotations

import functools
import math

from . import quadrature
from .quadrature import DEFAULT_TOL, Measure, PiecewiseSmoothFn

__all__ = ["limit_measure", "laplace", "laplace_density", "laplace_deriv", "RHO"]

# Sign change of the second derivative of (1 - x)/cosh x on (0, 1); the
# order-2 limit density switches branch here.
RHO = 0.2995792886928977


# On (0, 1), with c = sech x and s = tanh x:
#   v   = (1 - x) c
#   v'  = -c (1 + (1 - x) s)
#   v'' = 2 c s - (1 - x) c (c^2 - s^2)
# Everything on (-1, 0) follows by the evenness of v.


def _cs(x: float) -> tuple[float, float]:
    return 1.0 / math.cosh(x), math.tanh(x)


def _v(x: float) -> float:
    c, _ = _cs(x)
    return (1.0 - x) * c


def _d1(x: float) -> float:
    c, s = _cs(x)
    return -c * (1.0 + (1.0 - x) * s)


def _d2(x: float) -> float:
    c, s = _cs(x)
    return 2.0 * c * s - (1.0 - x) * c * (c * c - s * s)


@functools.lru_cache(maxsize=None)
def limit_measure(order: int) -> Measure:
    """Total-variation limit of the order-th derivative of the smoothed function.

    Order 0 is phi_0 itself (a plain density).  Order 1 is the density
    |phi_0'|, still atom-free.  Order 2 picks up point masses: weight 2 at
    the origin from the corner of 1 - |x|, and weight sech(1) at each of +-1
    from the jump of phi_0' to zero; its density |phi_0''| changes branch at
    +-RHO where phi_0'' crosses zero.
    """
    if order == 0:
        density = PiecewiseSmoothFn(
            breakpoints=(-1.0, 0.0, 1.0),
            pieces=(lambda x: _v(-x), _v),
            value_continuous=(True, True, True),
        )
        return Measure(density=density, atoms=())
    if order == 1:
        density = PiecewiseSmoothFn(
            breakpoints=(-1.0, 0.0, 1.0),
            pieces=(lambda x: -_d1(-x), lambda x: -_d1(x)),
            value_continuous=(False, True, False),
        )
        return Measure(density=density, atoms=())
    if order == 2:
        density = PiecewiseSmoothFn(
            breakpoints=(-1.0, -RHO, 0.0, RHO, 1.0),
            pieces=(lambda x: _d2(-x), lambda x: -_d2(-x), lambda x: -_d2(x), _d2),
            value_continuous=(False, True, True, True, False),
        )
        sech1 = 1.0 / math.cosh(1.0)
        return Measure(density=density, atoms=((-1.0, sech1), (0.0, 2.0), (1.0, sech1)))
    raise ValueError("order must be 0, 1 or 2")


# Lemma 1's outer integral runs the same u-nodes at every a, so a sweep over
# a asks for the same inner transform integrals again and again: 735 keys
# (three measures, 245 nodes each) over 108 verify jobs at tol 1e-9, and
# 975 in `verify --suite all` at tol 1e-10.  This holds two such tols.  A
# Measure hashes by its fields, so laplace_density's atom-free copy of a
# measure finds the entry of an earlier copy.
_TRANSFORM_MEMO = 2048


@functools.lru_cache(maxsize=_TRANSFORM_MEMO)
def _transform(m: Measure, s: float, tol: float, moment: int) -> float:
    # Integral of x^moment exp(s x) dm(x), moment 0 or 1.  The call goes
    # through the module attribute, so a tracer that rebinds it sees it.
    if moment:
        return quadrature.integrate_measure(lambda x: x * math.exp(s * x), m, tol)
    return quadrature.integrate_measure(lambda x: math.exp(s * x), m, tol)


def laplace(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    """Two-sided transform integral of exp(s x) dm(x), |s| <= 4.

    The cap is an overflow guard: every measure here lives on [-1, 1], so
    larger |s| is never needed and would only invite exp blowups upstream.
    """
    if abs(s) > 4.0:
        raise ValueError("transform argument limited to |s| <= 4")
    return _transform(m, s, tol, 0)


def laplace_density(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    """Transform of the density part alone; point masses are left out."""
    return _transform(Measure(m.density, ()), s, tol, 0)


def laplace_deriv(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    # d/ds of the transform: integral of x exp(s x) dm(x).  No |s| cap; the
    # one caller that sweeps s to infinity guards the product itself.
    return _transform(m, s, tol, 1)
