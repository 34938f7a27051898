"""Zero detection in boxes: the explicit counting identity and its weight.

For a function h(s) = 1 - c0 exp(-rate s), everything is known in closed
form: zeros, boundary values, decay.  lemma6_check evaluates both sides of
the weighted counting identity on such an h over a box and returns the
residual; the randomized family built on it is the package's evidence that
the identity (and hence the detector inequality derived from it) is coded
correctly.  detector_weight and shrunk_box give the normalized counting
weight of a detected zero and the inner box on which it is at least 1.

lemma6_check keeps no memo.  Its two integrands are panel functions: the
integrator hands each a split's nodes as one list, and the loop over the
nodes runs inside the integrand.  Per box they compute the values their
integration variable leaves fixed once (2 cos(rate t1), 2 cos(rate t2) and
c0 exp(-rate sigma')), and per ray node rate beta and c0 exp(-rate beta)
once for both rays.  At every node both write out log|h| = log|1 - w
e^(-i rate y)| = 0.5 log1p(w (w - 2 cos(rate y))), from w = c0 exp(-rate x),
and 0 where w is 0, inline: a function call per node cost about 3% of a
bench verify job.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .quadrature import IntegrationDomain, _checked_make, integrate_array

__all__ = [
    "SyntheticH",
    "DetectorBox",
    "MU",
    "lemma6_check",
    "detector_weight",
    "shrunk_box",
]

# Enlargement margin mu of the detection box: 2 mu + 1 = pi, the smallest
# aspect for which the corner weight stays >= 1.
MU = 0.5 * (math.pi - 1.0)


class SyntheticH(namedtuple("SyntheticH", "c0 rate")):
    """h(s) = 1 - c0 exp(-rate s): zeros on a vertical line, explicit decay."""

    __slots__ = ()

    def __new__(cls, c0: float, rate: float):
        if not 0.0 <= c0 < math.inf:
            raise ValueError("c0 must be finite and nonnegative")
        if not 0.0 < rate < math.inf:
            raise ValueError("rate must be finite and positive")
        return tuple.__new__(cls, (c0, rate))

    _make = _checked_make

    def zeros_in(self, t_lo: float, t_hi: float) -> list[tuple[float, float]]:
        """All zeros x0 + i y with t_lo <= y <= t_hi (x0 = log(c0)/rate)."""
        if self.c0 == 0.0:
            return []
        x0 = math.log(self.c0) / self.rate
        step = 2.0 * math.pi / self.rate
        k_lo = math.ceil(t_lo / step - 1e-12)
        k_hi = math.floor(t_hi / step + 1e-12)
        return [(x0, k * step) for k in range(k_lo, k_hi + 1)]


class DetectorBox(namedtuple("DetectorBox", "sigma_prime t1 t2")):
    """Right half-strip corner: sigma >= sigma_prime, t1 <= t <= t2, all finite."""

    __slots__ = ()

    def __new__(cls, sigma_prime: float, t1: float, t2: float):
        if not all(map(math.isfinite, (sigma_prime, t1, t2))):
            raise ValueError("box edges must be finite")
        if not t2 > t1:
            raise ValueError("need t2 > t1")
        return tuple.__new__(cls, (sigma_prime, t1, t2))

    _make = _checked_make

    @property
    def width(self) -> float:
        return self.t2 - self.t1


def _boundary_distance(box: DetectorBox, x: float, y: float) -> float:
    """Distance from (x, y) to the three boundary pieces of the box."""
    # vertical segment {sigma'} x [t1, t2]
    dy = 0.0 if box.t1 <= y <= box.t2 else min(abs(y - box.t1), abs(y - box.t2))
    d_seg = math.hypot(x - box.sigma_prime, dy)
    # horizontal rays [sigma', inf) x {t1} and {t2}
    dx = 0.0 if x >= box.sigma_prime else box.sigma_prime - x
    d_low = math.hypot(dx, y - box.t1)
    d_high = math.hypot(dx, y - box.t2)
    return min(d_seg, d_low, d_high)


def lemma6_check(h: SyntheticH, box: DetectorBox, tol: float = 1e-9) -> tuple[float, float, float]:
    """Both sides of the weighted zero-counting identity, and their residual.

    Left side: 2 (t2 - t1) sum over zeros beta + i gamma strictly inside the
    box of sin(pi (gamma - t1)/w) sinh(pi (beta - sigma')/w), w = t2 - t1.
    Right side: the sin-weighted integral of log|h| up the segment plus the
    sinh-weighted integrals of log|h| along both rays.

    Preconditions enforced: rate > pi / w (otherwise the ray integrals do not
    converge absolutely and the identity is void) and no zero within 1e-6 of
    the boundary (the identity is discontinuous across it, so near-boundary
    configurations are rejected rather than silently misclassified).
    """
    w = box.width
    c0, rate, sp, t1, t2 = h.c0, h.rate, box.sigma_prime, box.t1, box.t2
    if c0 == 0.0:
        # log|h| vanishes identically: both sides are zero.
        return (0.0, 0.0, 0.0)
    if rate <= math.pi / w:
        raise ValueError(
            f"decay hypothesis violated: rate {rate} <= pi/(t2 - t1) = {math.pi / w:.6g}"
        )

    log_c0 = math.log(c0)
    x0 = log_c0 / rate
    nearby = h.zeros_in(t1 - 1.0, t2 + 1.0)
    for bx, by in nearby:
        if _boundary_distance(box, bx, by) < 1e-6:
            raise ValueError(
                f"zero at {bx:.9g} + {by:.9g}i lies within 1e-6 of the box boundary"
            )

    lhs = 0.0
    for bx, by in nearby:
        if bx > sp and t1 < by < t2:
            lhs += 2.0 * w * math.sin(math.pi * (by - t1) / w) * math.sinh(math.pi * (bx - sp) / w)

    # Up the segment x = sigma' is fixed, so c0 exp(-rate sigma') is too.
    w_seg = c0 * math.exp(-rate * sp)
    seg = integrate_array(
        lambda ts: [
            math.sin(math.pi * (t - t1) / w)
            * (0.5 * math.log1p(w_seg * (w_seg - 2.0 * math.cos(rate * t))) if w_seg else 0.0)
            for t in ts
        ],
        IntegrationDomain(t1, t2),
        tol,
        breakpoints=[by for _, by in nearby if t1 < by < t2],
    ).value

    # The ray integrand is sinh(pi (beta - sigma')/w) * (log|h| at both ray
    # heights); it decays like exp(-(rate - pi/w) beta).  Truncate where the
    # envelope is at least exp(-80) below its start, never closer than
    # 400/rate past sigma'.
    margin = rate - math.pi / w
    hi = sp + max(400.0 / rate, (80.0 + max(0.0, log_c0) + rate * abs(sp)) / margin)

    # Along the rays the heights are fixed, so both cosines are computed
    # once, and c0 exp(-rate beta) once per node serves both rays.  Far out,
    # log|h| shrinks like c0 exp(-rate beta) while sinh grows like
    # exp(pi beta / w); the product stays meaningful long after log|h| itself
    # underflows in doubles.  Past log(c0) - rate beta < -300 the quadratic
    # term of log1p is below 1e-260 relative, so log|h(beta, t1)| +
    # log|h(beta, t2)| = -(cos(rate t1) + cos(rate t2)) c0 exp(-rate beta)
    # exactly to double precision, and that product is taken in log space.
    cos1, cos2 = math.cos(rate * t1), math.cos(rate * t2)
    two_cos1, two_cos2 = 2.0 * cos1, 2.0 * cos2
    cos_sum = cos1 + cos2

    def ray_panel(betas: list[float]) -> list[float]:
        out = []
        for beta in betas:
            arg = math.pi * (beta - sp) / w
            rb = rate * beta
            logs = log_c0 - rb
            if arg <= 0.0:
                y = 0.0
            elif logs > -300.0:
                wb = c0 * math.exp(-rb)
                if wb == 0.0:
                    la = 0.0
                else:
                    la = 0.5 * math.log1p(wb * (wb - two_cos1))
                    la += 0.5 * math.log1p(wb * (wb - two_cos2))
                if la == 0.0:
                    y = 0.0
                elif arg < 700.0:
                    y = math.sinh(arg) * la
                else:
                    # sinh ~ exp/2 here; keep the product in log space
                    y = math.copysign(math.exp(arg + math.log(0.5 * abs(la))), la)
            elif cos_sum == 0.0:
                y = 0.0
            else:
                log_sinh = arg - math.log(2.0) if arg > 40.0 else math.log(math.sinh(arg))
                log_mag = log_sinh + logs + math.log(abs(cos_sum))
                y = 0.0 if log_mag < -740.0 else -math.copysign(math.exp(log_mag), cos_sum)
            out.append(y)
        return out

    ray_cuts = [x0] if sp < x0 < hi else []
    rays = integrate_array(ray_panel, IntegrationDomain(sp, hi), tol, breakpoints=ray_cuts).value

    rhs = seg + rays
    return (lhs, rhs, abs(lhs - rhs))


def shrunk_box(box: DetectorBox) -> tuple[float, float, float]:
    """(sigma, t1, t2) of the inner region whose zeros each weigh at least 1.

    The enlargement pulls sigma' back by w/(2 pi) and each t-edge in by
    mu w / pi, so a zero in the inner region sits far enough from the
    enlarged boundary that its sin and sinh factors clear the corner value.
    """
    w = box.width
    lam = math.pi / w
    return (
        box.sigma_prime + 0.5 / lam,
        box.t1 + MU / lam,
        box.t2 - MU / lam,
    )


def detector_weight(box: DetectorBox, beta: float, gamma: float) -> float:
    """Normalized counting weight of a zero beta + i gamma of the enlarged box.

    (lambda / (pi sin(pi mu/(2 mu + 1)))) * 2 w sinh(pi (beta - sigma')/w)
    * sin(pi (gamma - t1)/w) with lambda = pi/w.  For zeros inside the shrunk
    box this is >= 1, with the minimum 2 sinh(1/2)/... attained at the corners.
    """
    w = box.width
    lam = math.pi / w
    norm = math.pi * math.sin(math.pi * MU / (2.0 * MU + 1.0)) / lam
    return (
        2.0
        * w
        * math.sinh(math.pi * (beta - box.sigma_prime) / w)
        * math.sin(math.pi * (gamma - box.t1) / w)
        / norm
    )

