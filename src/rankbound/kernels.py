"""Density kernels F and K, the functional G_psi, and their closed forms.

F(a, u) is the explicit local average of the zero-counting weight; K(a, x) is
what F integrates to against exp(x u) on [1/2, inf).  The two are tied
together by an exact Fubini identity (verify_lemma1 measures its residual),
and i_pm gives the closed forms of the normalized one-sided tails.

Memos: ``_panels`` keeps, per (a, psi), the Kronrod panels of G_psi's
kernel integral, so G_psi at a second tol evaluates K only on panels the
first did not visit (and at psi's atoms); ``_edges`` keeps K's edge values
per a and ``_f_half`` keeps F(a, 1/2) per a, G_psi's coefficient at every
psi and tol, both sized with it.  ``_big_f1`` and ``_big_k1`` keep F(1, u)
per u and K(1, x) per x, the a-free halves of verify_lemma1.  G_psi's
transform factor comes from the (measure, s, tol) memo in limits.
"""
from __future__ import annotations

import functools
import math

from . import limits
from .quadrature import (
    DEFAULT_TOL,
    IntegrationDomain,
    Measure,
    QuadResult,
    integrate,
    integrate_measure,
    integrate_measure_with_err,
)
from .special import _tail_by_quadrature, exp_e, exp_e1

__all__ = [
    "c_const",
    "big_f",
    "big_k",
    "g_psi",
    "verify_lemma1",
    "i_pm",
    "i_pm_by_quadrature",
]


# 4 pi sin((pi - 1)/2), which is also 4 pi cos(1/2)
_C = 4.0 * math.pi * math.sin(0.5 * (math.pi - 1.0))


def c_const() -> float:
    return _C


def big_f(a: float, u: float) -> float:
    """F(a, u) for a in (0, 1] and u > 0.

    The third term carries exp(+u) against E(((2 + a)/a) u); an underflowed
    E short-circuits to zero since E decays much faster than exp(u) grows
    here.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    if not u > 0.0:
        raise ValueError("need u > 0")
    t1 = math.exp(-2.0 * u / a)
    t2 = u * math.exp(-u) * exp_e((2.0 - a) * u / a)
    e3 = exp_e((2.0 + a) * u / a)
    t3 = 0.0 if e3 == 0.0 else u * math.exp(u) * e3
    return (t1 + t2 - t3) / (_C * u * u)


# Width of the removable-singularity window around x = +-1.  Inside it the
# difference quotient is replaced by its second-order expansion; the switch
# is seamless to ~1e-8, far under anything the tests resolve.
_TAYLOR_WINDOW = 1e-3


def _ratio_taylor(z0: float, e0: float, d: float) -> float:
    # (E(z0 - d/2) - exp(d/2) E(z0)) / d continued through d = 0, given
    # e0 = E(z0): N'(0) = (E1(z0) - E(z0))/2,  N''(0) = (exp(-z0)/z0 - E(z0))/4.
    n1 = 0.5 * (exp_e1(z0) - e0)
    n2 = 0.25 * (math.exp(-z0) / z0 - e0)
    return n1 + 0.5 * d * n2


# Entries of the memos keyed on a: _edges and _f_half hold this many a,
# _panels this many (a, psi) pairs.  A headline benchmark run asks G_psi at about 520 a,
# each at two measures, and the panels of one pair take a few hundred bytes.
_A_MEMO = 4096


@functools.lru_cache(maxsize=_A_MEMO)
def _edges(a: float) -> tuple[float, float, float, float]:
    # z at the edges x = 1 and x = -1, and E there; a quadrature over x
    # holds a fixed, so these are computed once per a.
    z1 = 0.5 * (2.0 / a - 1.0)
    z2 = 0.5 * (2.0 / a + 1.0)
    return z1, z2, exp_e(z1), exp_e(z2)


def big_k(a: float, x: float) -> float:
    """K(a, x) for a in (0, 1] and x in [-1, 1].

    The two difference quotients have removable singularities at x = 1 and
    x = -1; a short Taylor window handles each.  Their edge values E(z1) and
    E(z2) depend on a alone and are cached per a, so every call evaluates E
    once, at z = (2/a - x)/2 (a call inside a window adds one E1 there).
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    if not abs(x) <= 1.0 + 1e-12:
        raise ValueError("need x in [-1, 1]")
    z = 0.5 * (2.0 / a - x)
    z1, z2, ez1, ez2 = _edges(a)
    ez = exp_e(z)
    d_minus = x - 1.0
    if abs(d_minus) < _TAYLOR_WINDOW:
        t2 = _ratio_taylor(z1, ez1, d_minus)
    else:
        t2 = (ez - math.exp(0.5 * d_minus) * ez1) / d_minus
    d_plus = x + 1.0
    if abs(d_plus) < _TAYLOR_WINDOW:
        t3 = _ratio_taylor(z2, ez2, d_plus)
    else:
        t3 = (ez - math.exp(0.5 * d_plus) * ez2) / d_plus
    return (2.0 / _C) * (ez + t2 - t3)


# Like _big_f1 below, it looks big_f up at call time.
@functools.lru_cache(maxsize=_A_MEMO)
def _f_half(a: float) -> float:
    return big_f(a, 0.5)


@functools.lru_cache(maxsize=_A_MEMO)
def _panels(a: float, psi: Measure) -> dict:
    # The kernel integrand of g_psi depends on (a, psi), not on tol.
    return {}


def g_psi(a: float, psi: Measure, tol: float = DEFAULT_TOL) -> QuadResult:
    """G_psi(a) = F(a, 1/2) * (transform of the smooth part of psi at 1)
    plus the integral of x K(a, x) exp(x/2) against all of psi, with its
    error estimate; ``n_evals`` counts the evaluations of that integral.

    The transform factor deliberately sees only the density of psi, never its
    point masses; the kernel integral sees both.  The limit functionals this
    feeds (the 0.1535 / 0.3666 / 0.3321 family and the assembled bound) pin
    that convention down, and flipping it moves the order-2 value by the full
    atom transform, so it is load-bearing.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    hat_smooth = limits.laplace_density(psi, 1.0, tol)
    ker = integrate_measure_with_err(
        lambda x: x * big_k(a, x) * math.exp(0.5 * x), psi, tol, _panels(a, psi)
    )
    f_half = _f_half(a)
    # The transform's error is folded in at the same tol scale as its integral.
    err = abs(f_half) * tol + ker.err_estimate
    return QuadResult(f_half * hat_smooth + ker.value, err, ker.n_evals)


# Lemma 1's a = 1 halves, memoized per argument.  Its integrals run the same
# nodes at every a, and the nodes of a looser tol are among those of a
# tighter one: F(1, u) is asked at 315 distinct u over 108 verify jobs at
# tol 1e-9 and at 405 in `verify --suite all`; K(1, x) at 93 distinct x in
# both.  The memos look big_f and big_k up at call time, so anything that
# rebinds those module functions (a tracer) still sees every miss.
_F1_MEMO = 1024
_K1_MEMO = 256


@functools.lru_cache(maxsize=_F1_MEMO)
def _big_f1(u: float) -> float:
    return big_f(1.0, u)


@functools.lru_cache(maxsize=_K1_MEMO)
def _big_k1(x: float) -> float:
    return big_k(1.0, x)


def verify_lemma1(a: float, psi: Measure, tol: float = 1e-9) -> float:
    """Residual of the Fubini identity tying F to K.

    Left side: (a^2/(1-a)^2) int_{1/2}^inf (F(1,u) - F(a,u)) psihat'(u + 1/2) du
    with psihat'(s) the derivative transform of psi (atoms included).  Right
    side: the same prefactor times the integral of x exp(x/2) (K(1,x) - K(a,x))
    against psi.  Equality is exact; the return value is |lhs - rhs|.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("need a in (0, 1)")
    pref = a * a / ((1.0 - a) * (1.0 - a))

    def lhs_integrand(u: float) -> float:
        return (_big_f1(u) - big_f(a, u)) * limits.laplace_deriv(psi, u + 0.5, tol)

    lhs = pref * integrate(lhs_integrand, IntegrationDomain(0.5), tol).value
    rhs = pref * integrate_measure(
        lambda x: x * math.exp(0.5 * x) * (_big_k1(x) - big_k(a, x)), psi, tol
    )
    return abs(lhs - rhs)


def _tail_sign(a: float, u: float, sign) -> int:
    """Check the arguments of a tail integral; +1 or -1 for the sign."""
    if not 0.0 < a < 1.0:
        raise ValueError("need a in (0, 1)")
    if not u > 0.0:
        raise ValueError("need u > 0")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return 1 if sign == "+" else -1


def i_pm(a: float, u: float, sign) -> float:
    """Normalized tail integral: (exp(-u)/u) E((2/a - 1) u) for sign '+',
    (exp(u)/u) E((2/a + 1) u) for sign '-'."""
    sg = _tail_sign(a, u, sign)
    ev = exp_e((2.0 / a - sg) * u)
    if ev == 0.0:
        return 0.0
    return math.exp(-sg * u) * ev / u


# Absolute tolerance of the defining tail integrals.
_I_PM_QUAD_TOL = 1e-9


def i_pm_by_quadrature(a: float, u: float, sign) -> float:
    """The defining tail integral, evaluated numerically in u-scaled variables:
    exp(-+u)/u times the integral over v >= 1 of exp(-(2/a -+ 1) u v) v^-2 dv."""
    sg = _tail_sign(a, u, sign)
    base = _tail_by_quadrature((2.0 / a - sg) * u, 1.0, _I_PM_QUAD_TOL)
    return math.exp(-sg * u) * base / u
