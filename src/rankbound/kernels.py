"""Density kernels F and K, the functional G_psi, and their closed forms.

F(a, u) is the explicit local average of the zero-counting weight; K(a, x) is
what F integrates to against exp(x u) on [1/2, inf).  The two are tied
together by an exact Fubini identity (verify_lemma1 measures its residual),
and i_pm gives the closed forms of the normalized one-sided tails.
"""
from __future__ import annotations

import math

from . import testfn
from .quadrature import (
    DEFAULT_TOL,
    IntegrationDomain,
    Measure,
    integrate,
    integrate_measure,
    integrate_measure_with_err,
)
from .special import exp_e, exp_e1

__all__ = [
    "c_const",
    "big_f",
    "big_k",
    "g_psi",
    "verify_lemma1",
    "i_pm",
    "i_pm_by_quadrature",
]


def c_const() -> float:
    # 4 pi sin((pi - 1)/2), which is also 4 pi cos(1/2)
    return 4.0 * math.pi * math.sin(0.5 * (math.pi - 1.0))


def big_f(a: float, u: float) -> float:
    """F(a, u) for a in (0, 1] and u > 0.

    The third term carries exp(+u) against E(((2 + a)/a) u); for large u the
    product is evaluated in log space, and an underflowed E short-circuits to
    zero since E decays much faster than exp(u) grows here.
    """
    if math.isnan(a) or not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    if math.isnan(u) or u <= 0.0:
        raise ValueError("need u > 0")
    t1 = math.exp(-2.0 * u / a)
    t2 = u * math.exp(-u) * exp_e((2.0 - a) * u / a)
    e3 = exp_e((2.0 + a) * u / a)
    if e3 == 0.0:
        t3 = 0.0
    elif u > 700.0:
        t3 = u * math.exp(u + math.log(e3))
    else:
        t3 = u * math.exp(u) * e3
    return (t1 + t2 - t3) / (c_const() * u * u)


# Width of the removable-singularity window around x = +-1.  Inside it the
# difference quotient is replaced by its second-order expansion; the switch
# is seamless to ~1e-8, far under anything the tests resolve.
_TAYLOR_WINDOW = 1e-3


def _ratio_taylor(z0: float, d: float) -> float:
    # (E(z0 - d/2) - exp(d/2) E(z0)) / d continued through d = 0:
    # N'(0) = (E1(z0) - E(z0))/2,  N''(0) = (exp(-z0)/z0 - E(z0))/4.
    e0 = exp_e(z0)
    n1 = 0.5 * (exp_e1(z0) - e0)
    n2 = 0.25 * (math.exp(-z0) / z0 - e0)
    return n1 + 0.5 * d * n2


def big_k(a: float, x: float) -> float:
    """K(a, x) for a in (0, 1] and x in [-1, 1].

    The two difference quotients have removable singularities at x = 1 and
    x = -1; a short Taylor window handles each.
    """
    if math.isnan(a) or not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    if math.isnan(x) or abs(x) > 1.0 + 1e-12:
        raise ValueError("need x in [-1, 1]")
    z = 0.5 * (2.0 / a - x)
    z1 = 0.5 * (2.0 / a - 1.0)
    z2 = 0.5 * (2.0 / a + 1.0)
    ez = exp_e(z)
    d_minus = x - 1.0
    if abs(d_minus) < _TAYLOR_WINDOW:
        t2 = _ratio_taylor(z1, d_minus)
    else:
        t2 = (ez - math.exp(0.5 * d_minus) * exp_e(z1)) / d_minus
    d_plus = x + 1.0
    if abs(d_plus) < _TAYLOR_WINDOW:
        t3 = _ratio_taylor(z2, d_plus)
    else:
        t3 = (ez - math.exp(0.5 * d_plus) * exp_e(z2)) / d_plus
    return (2.0 / c_const()) * (ez + t2 - t3)


def g_psi(a: float, psi: Measure, tol: float = DEFAULT_TOL, with_err: bool = False):
    """G_psi(a) = F(a, 1/2) * (transform of the smooth part of psi at 1)
    plus the integral of x K(a, x) exp(x/2) against all of psi.

    The transform factor deliberately sees only the density of psi, never its
    point masses; the kernel integral sees both.  The limit functionals this
    feeds (the 0.1535 / 0.3666 / 0.3321 family and the assembled bound) pin
    that convention down, and flipping it moves the order-2 value by the full
    atom transform, so it is load-bearing.
    """
    if math.isnan(a) or not 0.0 < a <= 1.0:
        raise ValueError("need a in (0, 1]")
    hat_smooth = testfn.laplace_density(psi, 1.0, tol)
    ker, ker_err = integrate_measure_with_err(
        lambda x: x * big_k(a, x) * math.exp(0.5 * x), psi, tol
    )
    f_half = big_f(a, 0.5)
    value = f_half * hat_smooth + ker
    if with_err:
        # Transform error folded in at the same tol scale as its integral.
        return value, abs(f_half) * tol + ker_err
    return value


def verify_lemma1(a: float, psi: Measure, tol: float = 1e-9) -> float:
    """Residual of the Fubini identity tying F to K.

    Left side: (a^2/(1-a)^2) int_{1/2}^inf (F(1,u) - F(a,u)) psihat'(u + 1/2) du
    with psihat'(s) the derivative transform of psi (atoms included).  Right
    side: the same prefactor times the integral of x exp(x/2) (K(1,x) - K(a,x))
    against psi.  Equality is exact; the return value is |lhs - rhs|.
    """
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ValueError("need a in (0, 1)")
    pref = a * a / ((1.0 - a) * (1.0 - a))

    def lhs_integrand(u: float) -> float:
        fd = big_f(1.0, u) - big_f(a, u)
        if fd == 0.0:
            # Both F values underflowed; the transform factor grows like
            # exp(u) and would overflow, so cut the product off here.
            return 0.0
        return fd * testfn.laplace_deriv(psi, u + 0.5, tol)

    lhs = pref * integrate(lhs_integrand, IntegrationDomain(0.5), tol).value
    rhs = pref * integrate_measure(
        lambda x: x * math.exp(0.5 * x) * (big_k(1.0, x) - big_k(a, x)), psi, tol
    )
    return abs(lhs - rhs)


def _sign_of(sign) -> int:
    table = {"+": 1, "-": -1, 1: 1, -1: -1}
    try:
        sg = table[sign]
    except (KeyError, TypeError):
        raise ValueError("sign must be '+' or '-'") from None
    return sg


def i_pm(a: float, u: float, sign) -> float:
    """Normalized tail integral: (exp(-u)/u) E((2/a - 1) u) for sign '+',
    (exp(u)/u) E((2/a + 1) u) for sign '-'."""
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ValueError("need a in (0, 1)")
    if math.isnan(u) or u <= 0.0:
        raise ValueError("need u > 0")
    sg = _sign_of(sign)
    ev = exp_e((2.0 / a - sg) * u)
    if ev == 0.0:
        return 0.0
    if sg > 0:
        return math.exp(-u) * ev / u
    if u > 600.0:
        return math.exp(u + math.log(ev)) / u
    return math.exp(u) * ev / u


def i_pm_by_quadrature(a: float, u: float, sign, tol: float = 1e-9) -> float:
    """The defining tail integral, evaluated numerically in u-scaled variables:
    exp(-+u)/u times the integral over v >= 1 of exp(-(2/a -+ 1) u v) v^-2 dv."""
    if not 0.0 < a < 1.0:
        raise ValueError("need a in (0, 1)")
    if u <= 0.0:
        raise ValueError("need u > 0")
    sg = _sign_of(sign)
    r = (2.0 / a - sg) * u
    if r >= 1.0:
        base = integrate(lambda v: math.exp(-r * v) / (v * v), IntegrationDomain(1.0), tol).value
    else:
        # sub-exponential decay: same 1/v rewrite as the E oracle
        base = integrate(
            lambda w: math.exp(-r / w) if w > 0.0 else 0.0, IntegrationDomain(0.0, 1.0), tol
        ).value
    return math.exp(-sg * u) * base / u
