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


# The continued fraction's partial numerators -i^2, i = 1 .. 199.
_CF_AN = tuple(-float(i * i) for i in range(1, 200))


def exp_e1(x: float) -> float:
    """Exponential integral E1(x) for x > 0.

    Power series for x < 1 (alternating, converges in ~20 terms there),
    modified Lentz continued fraction otherwise, with b_i = x + 2i + 1 and
    a_i = -i^2.  The usual tiny-value guards (1e-300) are left out because
    they never fire: by induction D_i lies in (0, 1/(x + i + 1)] and
    C_i >= x + i + 1, since b_i - i^2 / (x + i) = x + i + 1 + i x / (x + i),
    so neither comes near 1e-300.  C_0 = inf makes a_1 / C_0 = -0.0 and
    C_1 = b_1 exactly.  The stop test delta == 1.0 is |delta - 1| < 1e-16
    written exactly: the neighbours of 1.0 lie 2^-53 and 2^-52 away.  At
    x = 1 it takes 92 iterations.
    """
    if not x > 0.0:
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
    if x == math.inf:  # E1(inf) = 0; the fraction would take 0 * inf
        return 0.0
    # E1(x) = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))))
    b = x + 1.0
    c = math.inf
    d = 1.0 / b
    h = d
    for an in _CF_AN:
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if delta == 1.0:
            break
    return math.exp(-x) * h


def exp_e(x: float) -> float:
    """E(x) for x >= 0; E(0) = 1 exactly, negative arguments are rejected.

    Values below the double-precision floor come back as 0.0 (the function is
    mathematically positive everywhere; callers that exponentiate against it
    must treat 0.0 as an underflow flag).
    """
    if not x >= 0.0:
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
    if not x >= 0.0:
        raise ValueError("E(x) diverges for x < 0")

    def g(u: float) -> float:
        return math.exp(-x / u)

    return integrate(g, IntegrationDomain(0.0, 1.0), tol).value


def _tail_by_quadrature(r: float, lo: float, tol: float) -> float:
    """The integral over t >= lo of exp(-r t) / t^2, for r > 0 and lo > 0.

    The literal ray is integrated when the decay rate allows the log map
    (r >= 1); otherwise t = lo s makes it E(lo r) / lo, and
    :func:`exp_e_by_quadrature` takes the defining integral of E onto (0, 1]
    with no decay requirement.
    """
    if r >= 1.0:
        return integrate(lambda t: math.exp(-r * t) / (t * t), IntegrationDomain(lo), tol).value
    return exp_e_by_quadrature(lo * r, tol) / lo


# Absolute tolerance of the defining-integral E1.
_E1_QUAD_TOL = 1e-12


def exp_e1_by_quadrature(x: float) -> float:
    """E1(x) from its defining integral, via v = x/t onto (0, 1]."""
    if not x > 0.0:
        raise ValueError("E1 requires x > 0")

    def g(v: float) -> float:
        return math.exp(-x / v) / v

    return integrate(g, IntegrationDomain(0.0, 1.0), _E1_QUAD_TOL).value


def verify_e_identities(a: float, b: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Residual of the two closed-form integral identities E satisfies.

    First:   int_{1/2}^inf u^{-2} exp(-(2/a - x) u) du  =  2 E((2/a - x)/2),
             valid when 2/a - x > 0.
    Second:  int_1^inf E(b u) exp(a u) / u du  =  (E(b - a) - exp(a) E(b)) / a,
             valid when b > a.

    Left sides are evaluated by quadrature, right sides by the fast E path;
    the return value is the larger of the two absolute differences.  The
    first left side is :func:`_tail_by_quadrature` from 1/2.  The second
    always goes through w = 1/u: its integrand decays like exp(-(b - a) u)
    and b - a may be small.
    """
    if a <= 0.0:
        raise ValueError("need a > 0")
    if not b > a:
        raise ValueError("need b > a")
    r = 2.0 / a - x
    if r <= 0.0:
        raise ValueError("need 2/a - x > 0")

    lhs1 = _tail_by_quadrature(r, 0.5, tol)
    rhs1 = 2.0 * exp_e(0.5 * r)

    def f2(w: float) -> float:
        ev = exp_e(b / w)
        if ev == 0.0:
            return 0.0
        aw = a / w
        if aw > 700.0:
            return math.exp(aw + math.log(ev)) / w
        return math.exp(aw) * ev / w

    lhs2 = integrate(f2, IntegrationDomain(0.0, 1.0), tol).value
    rhs2 = (exp_e(b - a) - math.exp(a) * exp_e(b)) / a

    r1, r2 = abs(lhs1 - rhs1), abs(lhs2 - rhs2)
    # Not max(r1, r2): max(0.0, nan) is 0.0, and a nan must not read as a pass.
    return r2 if r2 > r1 or math.isnan(r2) else r1
