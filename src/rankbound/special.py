"""The tail function E(x) = integral over t >= 1 of exp(-t x) / t^2.

E is the x Gamma(-1, x) incomplete-gamma tail that the kernel formulas are
written in.  Integration by parts gives E(x) = exp(-x) - x E1(x) with E1 the
classical exponential integral, and that is how the fast path evaluates it:
E1 by power series below 1 and by continued fraction above.  A quadrature
oracle evaluating the defining integral directly is kept alongside, as an
independent path the tests can compare against.
"""
from __future__ import annotations

import math

from .quadrature import DEFAULT_TOL, IntegrationDomain, integrate

__all__ = [
    "exp_e",
    "exp_e1",
    "exp_e_by_quadrature",
    "exp_e1_by_quadrature",
    "verify_e_identities",
]

_EULER_GAMMA = 0.57721566490153286060651209008240


def exp_e1(x: float) -> float:
    """Exponential integral E1(x) for x > 0.

    Power series for x < 1 (alternating, converges in ~20 terms there),
    modified Lentz continued fraction otherwise.  The fraction's stop test
    |delta - 1| < 1e-16 lies below half an ulp of 1 (1.1e-16), so it holds
    only once delta is exactly 1.0: at x = 1 that takes 92 iterations.
    Loosening it would move printed digits, so it stays as it is.
    """
    if x <= 0.0:
        raise ValueError("E1 requires x > 0")
    if x < 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * abs(total):
                break
        return total
    # E1(x) = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        an = -float(i * i)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x) * h


def exp_e(x: float) -> float:
    """E(x) for x >= 0; E(0) = 1 exactly, negative arguments are rejected.

    Values below the double-precision floor come back as 0.0 (the function is
    mathematically positive everywhere; callers that exponentiate against it
    must treat 0.0 as an underflow flag).
    """
    if math.isnan(x) or x < 0.0:
        raise ValueError("E(x) diverges for x < 0")
    if x == 0.0:
        return 1.0
    v = math.exp(-x) - x * exp_e1(x)
    return v if v > 0.0 else 0.0


def exp_e_by_quadrature(x: float, tol: float = 1e-12) -> float:
    """E(x) straight from the defining integral, with u = 1/t.

    The substitution turns [1, inf) into (0, 1] and exp(-tx)/t^2 dt into
    exp(-x/u) du, which is flat at u = 0 to all orders.  The raw ray form
    would need at least exp(-t) decay for the log map, which this integrand
    does not have for x < 1; the rewrite has no such restriction and shares
    no code with the series/continued-fraction path.
    """
    if x < 0.0:
        raise ValueError("E(x) diverges for x < 0")

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0 if x > 0.0 else 1.0
        return math.exp(-x / u)

    return integrate(g, IntegrationDomain(0.0, 1.0), tol).value


# Absolute tolerance of the defining-integral E1.
_E1_QUAD_TOL = 1e-12


def exp_e1_by_quadrature(x: float) -> float:
    """E1(x) from its defining integral, via v = x/t onto (0, 1]."""
    if x <= 0.0:
        raise ValueError("E1 requires x > 0")

    def g(v: float) -> float:
        if v <= 0.0:
            return 0.0
        return math.exp(-x / v) / v

    return integrate(g, IntegrationDomain(0.0, 1.0), _E1_QUAD_TOL).value


def verify_e_identities(a: float, b: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Residual of the two closed-form integral identities E satisfies.

    First:   int_{1/2}^inf u^{-2} exp(-(2/a - x) u) du  =  2 E((2/a - x)/2),
             valid when 2/a - x > 0.
    Second:  int_1^inf E(b u) exp(a u) / u du  =  (E(b - a) - exp(a) E(b)) / a,
             valid when b > a.

    Left sides are evaluated by quadrature, right sides by the fast E path;
    the return value is the larger of the two absolute differences.  For the
    first identity the literal ray is integrated when the decay rate allows
    the log map (rate >= 1); otherwise t = 2u makes it twice the defining
    integral of E((2/a - x)/2), which :func:`exp_e_by_quadrature` takes onto
    (0, 1] with no decay requirement.  The second identity always goes
    through w = 1/u for the same reason: its integrand decays like
    exp(-(b - a) u) and b - a may be small.
    """
    if a <= 0.0:
        raise ValueError("need a > 0")
    if not b > a:
        raise ValueError("need b > a")
    r = 2.0 / a - x
    if r <= 0.0:
        raise ValueError("need 2/a - x > 0")

    if r >= 1.0:
        lhs1 = integrate(
            lambda u: math.exp(-r * u) / (u * u), IntegrationDomain(0.5), tol
        ).value
    else:
        lhs1 = 2.0 * exp_e_by_quadrature(0.5 * r, tol)
    rhs1 = 2.0 * exp_e(0.5 * r)

    def f2(w: float) -> float:
        if w <= 0.0:
            return 0.0
        ev = exp_e(b / w)
        if ev == 0.0:
            return 0.0
        aw = a / w
        if aw > 700.0:
            return math.exp(aw + math.log(ev)) / w
        return math.exp(aw) * ev / w

    lhs2 = integrate(f2, IntegrationDomain(0.0, 1.0), tol).value
    rhs2 = (exp_e(b - a) - math.exp(a) * exp_e(b)) / a

    return max(abs(lhs1 - rhs1), abs(lhs2 - rhs2))
