"""Smoothed test functions and their sharp-cutoff limits.

The family is phi_eps = (g_eps * g_eps) / cosh (self-convolution of a
C-infinity bump, damped by sech and normalized to 1 at the origin).  As
eps -> 0 it converges to phi_0(x) = max(0, 1 - |x|) / cosh(x), and the first
and second derivatives converge in total variation to explicit piecewise
densities plus point masses.  This module builds all of those objects, their
two-sided Laplace transforms, and the positivity scan of Re(transform) on a
complex grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import (
    DEFAULT_TOL,
    IntegrationDomain,
    Measure,
    PiecewiseSmoothFn,
    composite_gk15,
    integrate,
    integrate_measure,
)

__all__ = [
    "SmoothingParam",
    "PositivityGrid",
    "g_eps",
    "phi_eps",
    "phi_eps_deriv",
    "phi0_pieces",
    "limit_measure",
    "laplace",
    "laplace_density",
    "laplace_deriv",
    "check_positivity",
    "finite_eps_functional",
    "RHO",
]

# Sign change of the second derivative of (1 - x)/cosh x on (0, 1); the
# order-2 limit density switches branch here.
RHO = 0.2995792886928977


@dataclass(frozen=True)
class SmoothingParam:
    """Half-width of the mollifying ramp; the bump g_eps lives on [-1/2-eps, 1/2+eps]."""

    eps: float

    def __post_init__(self) -> None:
        if math.isnan(self.eps) or not 0.0 < self.eps <= 0.25:
            raise ValueError("smoothing width must lie in (0, 1/4]")


def _eps_of(eps) -> float:
    if isinstance(eps, SmoothingParam):
        return eps.eps
    return SmoothingParam(float(eps)).eps


def _step_core(y: np.ndarray) -> np.ndarray:
    # C-infinity ramp: 0 below 0, 1 above 1, sigma(1/(1-y) - 1/y) between.
    out = np.zeros_like(y)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    ym = y[mid]
    z = np.clip(1.0 / ym - 1.0 / (1.0 - ym), -700.0, 700.0)
    out[mid] = 1.0 / (1.0 + np.exp(z))
    return out


def _g_core(e: float, x: np.ndarray) -> np.ndarray:
    return _step_core((0.5 + e - np.abs(x)) / e)


def _gp_core(e: float, x: np.ndarray) -> np.ndarray:
    # d/dx of the bump: nonzero only on the two ramps.
    y = (0.5 + e - np.abs(x)) / e
    out = np.zeros_like(x)
    mid = (y > 0.0) & (y < 1.0)
    ym = y[mid]
    z = np.clip(1.0 / ym - 1.0 / (1.0 - ym), -700.0, 700.0)
    s = 1.0 / (1.0 + np.exp(z))
    rp = 1.0 / (1.0 - ym) ** 2 + 1.0 / ym**2
    out[mid] = s * (1.0 - s) * rp * (-np.sign(x[mid])) / e
    return out


def g_eps(eps, x):
    """The bump itself: 1 on [-1/2, 1/2], smooth ramps down to 0 at 1/2 + eps."""
    e = _eps_of(eps)
    a = np.asarray(x, dtype=float)
    v = _g_core(e, a.ravel()).reshape(a.shape)
    return float(v) if a.ndim == 0 else v


class _ConvTable:
    """Composite Kronrod samples of g_eps, so convolutions become dot products.

    Panel width eps/6 keeps each ramp resolved far past double precision;
    the node count is a few hundred per unit of support.
    """

    def __init__(self, e: float) -> None:
        self.eps = e
        half = 0.5 + e
        n_panels = max(24, int(math.ceil(2.0 * half / (e / 6.0))))
        self.t, w = composite_gk15(-half, half, n_panels)
        self.wg = w * _g_core(e, self.t)
        self.wgp = w * _gp_core(e, self.t)
        self.norm = float(self._dot(np.array([0.0]), self.wg, _g_core)[0])

    def _dot(self, x: np.ndarray, wvec: np.ndarray, gfun) -> np.ndarray:
        out = np.empty(x.size)
        step = max(1, 2_000_000 // self.t.size)
        for i in range(0, x.size, step):
            blk = x[i : i + step, None] - self.t[None, :]
            out[i : i + step] = gfun(self.eps, blk.ravel()).reshape(blk.shape) @ wvec
        return out

    def conv0(self, x):  # (g * g)(x)
        return self._dot(x, self.wg, _g_core)

    def conv1(self, x):  # (g * g)'(x) = (g' * g)(x)
        return self._dot(x, self.wg, _gp_core)

    def conv2(self, x):  # (g * g)''(x) = (g' * g')(x)
        return self._dot(x, self.wgp, _gp_core)


@functools.lru_cache(maxsize=32)
def _table(e: float) -> _ConvTable:
    return _ConvTable(e)


def phi_eps(eps, x):
    """phi_eps(x), vectorized; exactly zero for |x| > 1 + 2 eps."""
    e = _eps_of(eps)
    tbl = _table(e)
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    v = tbl.conv0(flat) / tbl.norm / np.cosh(flat)
    v = v.reshape(a.shape)
    return float(v) if a.ndim == 0 else v


def phi_eps_deriv(eps, x, order: int):
    """Derivative of phi_eps of the given order (0, 1 or 2)."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    e = _eps_of(eps)
    tbl = _table(e)
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    sech = 1.0 / np.cosh(flat)
    c0 = tbl.conv0(flat) / tbl.norm
    if order == 0:
        v = c0 * sech
    else:
        th = np.tanh(flat)
        c1 = tbl.conv1(flat) / tbl.norm
        if order == 1:
            v = (c1 - c0 * th) * sech
        else:
            c2 = tbl.conv2(flat) / tbl.norm
            v = (c2 - 2.0 * c1 * th + c0 * (th * th - sech * sech)) * sech
    v = v.reshape(a.shape)
    return float(v) if a.ndim == 0 else v


# ---------------------------------------------------------------------------
# The eps -> 0 limit.  On (0, 1), with c = sech x and s = tanh x:
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


def phi0_pieces() -> PiecewiseSmoothFn:
    """The limit (1 - |x|)/cosh x on [-1, 1]."""
    return PiecewiseSmoothFn(
        breakpoints=(-1.0, 0.0, 1.0),
        pieces=(lambda x: _v(-x), _v),
        value_continuous=(True, True, True),
    )


def limit_measure(order: int) -> Measure:
    """Total-variation limit of the order-th derivative of phi_eps.

    Order 0 is phi_0 itself (a plain density).  Order 1 is the density
    |phi_0'|, still atom-free.  Order 2 picks up point masses: weight 2 at
    the origin from the corner of 1 - |x|, and weight sech(1) at each of +-1
    from the jump of phi_0' to zero; its density |phi_0''| changes branch at
    +-RHO where phi_0'' crosses zero.
    """
    if order == 0:
        return Measure(density=phi0_pieces(), atoms=())
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


def laplace(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    """Two-sided transform integral of exp(s x) dm(x), |s| <= 4.

    The cap is an overflow guard: every measure here lives on [-1, 1], so
    larger |s| is never needed and would only invite exp blowups upstream.
    """
    if abs(s) > 4.0:
        raise ValueError("transform argument limited to |s| <= 4")
    return integrate_measure(lambda x: math.exp(s * x), m, tol)


def laplace_density(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    """Transform of the density part alone; point masses are left out."""
    if m.density is None:
        return 0.0
    return integrate_measure(lambda x: math.exp(s * x), Measure(m.density, ()), tol)


def laplace_deriv(m: Measure, s: float, tol: float = DEFAULT_TOL) -> float:
    # d/ds of the transform: integral of x exp(s x) dm(x).  No |s| cap; the
    # one caller that sweeps s to infinity guards the product itself.
    return integrate_measure(lambda x: x * math.exp(s * x), m, tol)


@dataclass(frozen=True)
class PositivityGrid:
    """Rectangle of transform arguments s = sigma + i tau to scan."""

    sigma_max: float = 1.0
    sigma_step: float = 0.1
    tau_max: float = 20.0
    tau_step: float = 0.1

    def __post_init__(self) -> None:
        if self.sigma_max < 0.0 or self.tau_max < 0.0:
            raise ValueError("grid extents must be nonnegative")
        if self.sigma_step <= 0.0 or self.tau_step <= 0.0:
            raise ValueError("grid steps must be positive")


def check_positivity(eps, grid: PositivityGrid = PositivityGrid(), fn=None, support=None) -> float:
    """Minimum of Re(transform of fn) over the grid (fn defaults to phi_eps).

    Re of the transform at sigma + i tau is the integral of
    fn(x) exp(sigma x) cos(tau x); it is even in tau, so only tau >= 0 is
    scanned while sigma covers both signs.  A fixed composite Kronrod rule is
    used with panels short against both the oscillation wavelength and (for
    the default fn) the smoothing scale, which keeps the scan vectorizable.
    A custom fn is called once with the full numpy array of nodes, so it has
    to accept array input.
    """
    if fn is None:
        e = _eps_of(eps)
        lo, hi = -(1.0 + 2.0 * e), 1.0 + 2.0 * e
        feature = e / 6.0
        f = lambda x: phi_eps(e, x)
    else:
        if support is None:
            raise ValueError("a custom fn needs an explicit support interval")
        lo, hi = support
        feature = (hi - lo) / 64.0
        f = fn
    width = min(feature, math.pi / (4.0 * (grid.tau_max + 1.0)))
    nodes, weights = composite_gk15(lo, hi, int(math.ceil((hi - lo) / width)))
    wphi = weights * np.asarray(f(nodes), dtype=float)

    taus = np.arange(0.0, grid.tau_max + 0.5 * grid.tau_step, grid.tau_step)
    cosmat = np.cos(nodes[:, None] * taus[None, :])
    n_sig = int(math.floor(grid.sigma_max / grid.sigma_step + 1e-9))
    sigmas = np.concatenate([-np.arange(1, n_sig + 1)[::-1], np.arange(0, n_sig + 1)]) * grid.sigma_step
    best = math.inf
    for sg in sigmas:
        vals = (wphi * np.exp(sg * nodes)) @ cosmat
        best = min(best, float(vals.min()))
    return best


def finite_eps_functional(eps, order: int, h: Callable[[float], float], tol: float = 1e-8) -> float:
    """Integral of |d^order phi_eps| * h over the support, adaptively.

    The absolute value has kinks wherever the derivative changes sign, at
    locations that drift with eps, so this stays on the adaptive path rather
    than the fixed-rule one.
    """
    e = _eps_of(eps)
    half = 1.0 + 2.0 * e

    def f(x: float) -> float:
        return abs(phi_eps_deriv(e, x, order)) * h(x)

    seeds = [b for b in (-1.0, -0.5, 0.0, 0.5, 1.0) if -half < b < half]
    return integrate(f, IntegrationDomain(-half, half), tol, breakpoints=seeds).value
