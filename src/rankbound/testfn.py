"""Smoothed test functions phi_eps, the eps > 0 family behind verification.

The smoothed test function is (g * g) / cosh, the self-convolution of a
C-infinity bump g of ramp width eps, damped by sech and normalized to 1 at
the origin.  :func:`phi_eps_deriv` evaluates it and its first two
derivatives.  As eps -> 0 it converges to phi_0(x) = max(0, 1 - |x|) / cosh(x),
whose derivative measures (:mod:`rankbound.limits`) feed H; nothing here
does.  The module checks the family against that limit: the finite-eps
functionals of :func:`finite_eps_functional` converge to the limit-measure
integrals, and :func:`check_positivity` scans Re(transform) on a fixed
complex grid.  The scan folds the even phi_eps onto the half-line
[0, 1 + 2 eps], where Re(transform) at sigma + i tau is twice the integral
of phi_eps(x) cosh(sigma x) cos(tau x), even in sigma and tau; so it takes
sigma >= 0 and tau >= 0 only.

The bump is exactly 1 on [-1/2, 1/2] and 0 beyond 1/2 + eps, so each
convolution at x is a prefix sum of the bump's quadrature samples over the
flat part plus short dot products over the two ramp windows around x -+ 1/2.
The module builds arrays throughout, so it imports numpy at its top; the H
pipeline never imports the module.

Memos: ``_table`` keeps one convolution table per eps.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np

from .limits import limit_measure  # noqa: F401  (bench/workloads.py reads testfn.limit_measure)
from .quadrature import GK15_W, GK15_X, IntegrationDomain, integrate_array

__all__ = ["phi_eps_deriv", "check_positivity", "finite_eps_functional"]

# Absolute tolerance of the adaptive finite-eps integrals.
_FINITE_EPS_TOL = 1e-8


def _eps_of(eps) -> float:
    # eps is the half-width of the mollifying ramp; the bump lives on
    # [-1/2 - eps, 1/2 + eps].
    e = float(eps)
    if not 0.0 < e <= 0.25:
        raise ValueError("smoothing width must lie in (0, 1/4]")
    return e


def composite_gk15(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 15-point Kronrod rule on n equal panels of [lo, hi].

    Both are flat arrays, panel after panel with nodes ascending, so an
    integral over [lo, hi] is ``weights @ f(nodes)``.  The convolution table
    and the positivity scan apply this one fixed rule to many integrands
    instead of taking the adaptive path.
    """
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + h * np.array(GK15_X)[None, :]).ravel()
    weights = np.broadcast_to(h * np.array(GK15_W)[None, :], (n_panels, 15)).ravel()
    return nodes, weights


def _ramp(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The C-infinity ramp is 0 below y = 0, 1 above y = 1, and
    # sigma(1/(1-y) - 1/y) between; returns the mask 0 < y < 1, y there and
    # the sigmoid there.
    mid = (y > 0.0) & (y < 1.0)
    ym = y[mid]
    z = np.clip(1.0 / ym - 1.0 / (1.0 - ym), -700.0, 700.0)
    return mid, ym, 1.0 / (1.0 + np.exp(z))


def _g_core(e: float, x: np.ndarray, deriv: bool = False):
    # The bump: 1 on [-1/2, 1/2], smooth ramps down to 0 at 1/2 + e.  With
    # deriv, the pair (g, g') from the one ramp; g' is nonzero only on the
    # two ramps.  g comes before the ramp's temporaries: in the other order
    # the peak RSS of the positivity scan at eps = 0.05 is 10 MB higher.
    y = (0.5 + e - np.abs(x)) / e
    g = np.zeros_like(y)
    g[y >= 1.0] = 1.0
    mid, ym, s = _ramp(y)
    g[mid] = s
    if not deriv:
        return g
    gp = np.zeros_like(x)
    rp = 1.0 / (1.0 - ym) ** 2 + 1.0 / ym**2
    gp[mid] = s * (1.0 - s) * rp * (-np.sign(x[mid])) / e
    return g, gp


class _ConvTable:
    """Composite Kronrod samples of the bump, convolved across the ramps only.

    Panel width eps/6 keeps each ramp resolved far past double precision;
    the node count is a few hundred per unit of support.  The bump g is
    exactly 1 on [-1/2, 1/2] and 0 beyond 1/2 + eps, so (g * g)(x) is a
    prefix sum of the weighted samples over the nodes t with |x - t| <= 1/2
    plus two dot products over the ramp windows, the nodes just left of
    x - 1/2 and just right of x + 1/2.  g' vanishes off the ramps, so the
    derivative convolutions need the windows alone.  Each window is a fixed
    run of ``width`` nodes, the most that a span of length eps holds; the
    table is padded with that many zero-weight nodes on both sides so every
    run exists.  The prefix sum rounds like any running sum, so against an
    exact sum it drifts with the table size: about 1e-13 relative at
    eps = 0.005, where a dense dot product stays under 1e-15.
    """

    def __init__(self, e: float) -> None:
        self.eps = e
        half = 0.5 + e
        n_panels = max(24, int(math.ceil(2.0 * half / (e / 6.0))))
        t, w = composite_gk15(-half, half, n_panels)
        g, gp = _g_core(e, t, deriv=True)
        wg = w * g
        self.t = t
        self.cum = np.concatenate(([0.0], np.cumsum(wg)))
        self.width = int(np.max(np.searchsorted(t, t + e, side="right") - np.arange(t.size)))
        self.tpad = np.pad(t, self.width, mode="edge")
        self.wg = np.pad(wg, self.width)
        self.wgp = np.pad(w * gp, self.width)
        self.run = np.arange(self.width)
        self.norm = float(self.convs(np.array([0.0]), 0)[0][0])

    def convs(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """[(g * g)(x), (g' * g)(x), (g' * g')(x)] up to the given order."""
        # Rows go in blocks of about a million window entries, so the memory
        # of a long x (the positivity scan at small eps) stays bounded.
        step = max(1, 2**20 // (2 * self.width))
        blocks = [self._convs(x[i : i + step], order) for i in range(0, max(x.size, 1), step)]
        return [np.concatenate(parts) for parts in zip(*blocks)]

    def _convs(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        lo = np.searchsorted(self.t, x - 0.5, side="left")  # first t >= x - 1/2
        hi = np.searchsorted(self.t, x + 0.5, side="right")  # first t > x + 1/2
        # Padded indices of the runs ending at lo and starting at hi.
        idx = np.concatenate((lo[:, None] + self.run, hi[:, None] + self.width + self.run), axis=1)
        d = x[:, None] - self.tpad[idx]
        wg = self.wg[idx]
        if order == 0:
            g = _g_core(self.eps, d)
        else:
            g, gp = _g_core(self.eps, d, deriv=True)
        out = [self.cum[hi] - self.cum[lo] + (g * wg).sum(axis=1)]
        if order >= 1:
            out.append((gp * wg).sum(axis=1))
            if order == 2:
                out.append((gp * self.wgp[idx]).sum(axis=1))
        return out


# Each public call uses one eps throughout.  The bench verify workload takes
# three fresh eps per job and never repeats one, and criterion 9 cycles
# through four, so four tables serve every caller.
@functools.lru_cache(maxsize=4)
def _table(e: float) -> _ConvTable:
    return _ConvTable(e)


def phi_eps_deriv(eps, x, order: int):
    """The smoothed function (order 0) or its first or second derivative; zero for |x| > 1 + 2 eps."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    e = _eps_of(eps)
    tbl = _table(e)
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    sech = 1.0 / np.cosh(flat)
    c = [ci / tbl.norm for ci in tbl.convs(flat, order)]
    if order == 0:
        v = c[0] * sech
    else:
        th = np.tanh(flat)
        if order == 1:
            v = (c[1] - c[0] * th) * sech
        else:
            v = (c[2] - 2.0 * c[1] * th + c[0] * (th * th - sech * sech)) * sech
    v = v.reshape(a.shape)
    return float(v) if a.ndim == 0 else v


# The positivity scan's grid of transform arguments s = sigma + i tau:
# sigma from 0 to 1 and tau from 0 to 20, both in steps of 0.1.  The scanned
# f is even, so this covers sigma in [-1, 1] as well.
_TAU_MAX = 20.0
_STEP = 0.1
_TAUS = np.arange(0.0, _TAU_MAX + 0.5 * _STEP, _STEP)
_SIGMAS = np.arange(0, 11) * _STEP


def _min_re_transform(f, hi: float, feature: float) -> float:
    """Minimum of Re(transform) of f over the grid; f must be even and vanish beyond hi.

    For such an f, Re of the transform at sigma + i tau is 2 times the
    integral of f(x) cosh(sigma x) cos(tau x) over [0, hi], even in sigma
    and in tau.  One fixed Kronrod rule on [0, hi], with panels short
    against both the wavelength and the feature length of f, serves the
    grid; f gets the node array.
    """
    # The 11 sigma rows 2 w f(x) cosh(sigma x) form one matrix, and each
    # block of tau columns takes one product.  The node count grows like
    # 1/feature, so a block of cosines holds about 2^20 entries, which
    # bounds the memory.  The block width changes how BLAS rounds a column,
    # so the minimum's last bits depend on it and on the host; nothing pins
    # them.  np.min keeps a nan, where builtin min could drop it.
    width = min(feature, math.pi / (4.0 * (_TAU_MAX + 1.0)))
    nodes, weights = composite_gk15(0.0, hi, int(math.ceil(hi / width)))
    rows = 2.0 * weights * np.asarray(f(nodes), dtype=float) * np.cosh(_SIGMAS[:, None] * nodes)
    step = max(1, 2**20 // nodes.size)
    blocks = range(0, _TAUS.size, step)
    return float(np.min([(rows @ np.cos(nodes[:, None] * _TAUS[j : j + step])).min() for j in blocks]))


def check_positivity(eps) -> float:
    """Minimum of Re(transform) of the smoothed function over the fixed grid,
    with quadrature panels also short against the smoothing scale eps/6."""
    e = _eps_of(eps)
    return _min_re_transform(lambda x: phi_eps_deriv(e, x, 0), 1.0 + 2.0 * e, e / 6.0)


def finite_eps_functional(eps, order: int, h: Callable[[float], float]) -> float:
    """Integral of |phi_eps_deriv(eps, x, order)| * h over the support, adaptively.

    The absolute value has kinks wherever the derivative changes sign, at
    locations that drift with eps, so this stays on the adaptive path rather
    than the fixed-rule one.  The integrator evaluates a split at a time:
    the nodes of the first panels, then of both halves of each split, go to
    phi_eps_deriv as one array; h is called node by node.
    """
    e = _eps_of(eps)
    half = 1.0 + 2.0 * e

    def fv(xs: list[float]) -> list[float]:
        ys = np.abs(phi_eps_deriv(e, np.array(xs), order)) * np.array([h(t) for t in xs])
        return ys.tolist()

    seeds = [b for b in (-1.0, -0.5, 0.0, 0.5, 1.0) if -half < b < half]
    domain = IntegrationDomain(-half, half)
    return integrate_array(fv, domain, _FINITE_EPS_TOL, breakpoints=seeds).value
