"""Smoothed test functions phi_eps, the eps > 0 family behind verification.

The smoothed test function is (g * g) / cosh, the self-convolution of a
C-infinity bump g of ramp width eps, damped by sech and normalized to 1 at
the origin.  :func:`phi_eps_deriv` evaluates it and its first two
derivatives.  As eps -> 0 it converges to phi_0(x) = max(0, 1 - |x|) / cosh(x),
whose derivative measures (:mod:`rankbound.limits`) feed H; nothing here
does.  The module checks the family against that limit: the finite-eps
functionals of :func:`finite_eps_functional` converge to the limit-measure
integrals, and :func:`check_positivity` scans Re(transform) on a fixed
complex grid.  The functionals integrate adaptively from first panels cut
at phi_eps's narrow features, which 15 nodes can otherwise miss.  The scan
folds the even phi_eps onto the half-line [0, 1 + 2 eps], where
Re(transform) at sigma + i tau is twice the integral of
phi_eps(x) cosh(sigma x) cos(tau x), even in sigma and tau; so it takes
sigma >= 0 and tau >= 0 only.

The bump is exactly 1 on [-1/2, 1/2] and 0 beyond 1/2 + eps, so each
convolution at x is a prefix sum of the bump's quadrature samples over the
flat part plus short dot products over the ramp windows around x -+ 1/2:
both windows for |x| < eps, and for |x| >= eps only the one that meets the
bump's support, since the other holds zero weights alone.  The convolution
runs in row blocks of at most ``_CONV_BLOCK`` = 2^15 window entries, whose
temporaries stay near a core's L2 and are reused from the heap rather than
faulted in afresh.  The rows are independent, so the block size moves no
bit.
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

# Window entries per row block of _ConvTable.convs, counting both windows
# of every row; a row |x| >= eps fills only one.  A block makes about a
# dozen float64 temporaries of this size, 256 KiB each at 2^15 entries, so
# a block's working set of about 3 MiB stays near a core's 2 MiB L2, and
# once the process has freed one large buffer (a positivity scan's cosine
# blocks do) the heap reuses it block after block.  Blocks of 2^20 entries
# were handed back to the kernel after every call and faulted in afresh;
# smaller blocks than 2^14 pay more per-block overhead (the sweep is in
# BENCH_33.json).
_CONV_BLOCK = 2**15


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
    plus dot products over the ramp windows, the nodes just left of
    x - 1/2 and just right of x + 1/2.  g' vanishes off the ramps, so the
    derivative convolutions need the windows alone.  Each window is a fixed
    run of ``width`` nodes, the most that a span of length eps holds; the
    table is padded with that many zero-weight nodes on both sides so every
    run exists.  For x >= eps the right window lies past 1/2 + eps, and for
    x <= -eps the left one lies before -1/2 - eps, so such rows sum their
    one live window: half the entries of a row |x| < eps.  The prefix sum
    rounds like any running sum, so against an exact sum it drifts with the
    table size: about 1e-13 relative at eps = 0.005, where a dense dot
    product stays under 1e-15.  The rows x
    go in blocks of ``_CONV_BLOCK`` window entries, so that a block's dozen
    temporaries stay near a core's 2 MiB L2 whatever the length of x.
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
        # Blocks of 2^15 window entries keep the temporaries near L2 size
        # (_CONV_BLOCK says why); each row is its own sum, so no bit depends
        # on the block size.
        step = max(1, _CONV_BLOCK // (2 * self.width))
        blocks = [self._convs(x[i : i + step], order) for i in range(0, max(x.size, 1), step)]
        return [np.concatenate(parts) for parts in zip(*blocks)]

    def _convs(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        # Rows |x| >= eps sum their one live window (see the class
        # docstring).  A block that mixes them with rows |x| < eps sums each
        # class on its own, so no row's bits depend on the rows beside it.
        far = np.abs(x) >= self.eps
        if far.any() and not far.all():
            sums = [np.empty_like(x) for _ in range(order + 1)]
            for rows in (far, ~far):
                for total, part in zip(sums, self._convs(x[rows], order)):
                    total[rows] = part
            return sums
        lo = np.searchsorted(self.t, x - 0.5, side="left")  # first t >= x - 1/2
        hi = np.searchsorted(self.t, x + 0.5, side="right")  # first t > x + 1/2
        # Padded starts of the runs ending at lo and starting at hi.
        right = hi + self.width
        starts = [np.where(x >= self.eps, lo, right)] if far.all() else [lo, right]
        idx = np.concatenate([s[:, None] + self.run for s in starts], axis=1)
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
    # them.  That is why these blocks stay at 2^20 entries, unlike
    # _CONV_BLOCK: at 2^15 every one of 81 minima over eps in [0.01, 0.25]
    # moved, by up to 4e-16 absolute, which is 4e-6 relative on a minimum
    # of 5e-12, and the scan got no faster.  np.min keeps a nan, where
    # builtin min could drop it.
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


def _sign_changes(e: float) -> list[float]:
    # The sign changes of phi_eps'' on (0, 1 + 2 eps): one scan of 255
    # interior points, then a secant step inside each bracketing pair.
    x = np.linspace(0.0, 1.0 + 2.0 * e, 257)[1:-1]
    f = phi_eps_deriv(e, x, 2)
    k = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)
    a, b, fa, fb = x[k], x[k + 1], f[k], f[k + 1]
    return (a - fa * (b - a) / (fb - fa)).tolist()


def finite_eps_functional(eps, order: int, h: Callable[[float], float]) -> float:
    """Integral of |phi_eps_deriv(eps, x, order)| * h over the support, adaptively.

    phi_eps's narrow features lie at |x| <= 2 eps, where the bump's ramps
    round off the peak, at 1 - 2 eps <= |x| <= 1 + 2 eps, where they round
    off the foot, and at the sign changes of phi_eps^(order), where the
    absolute value has a kink.  When a panel's 15 nodes miss a feature, its
    Gauss and Kronrod sums can agree anyway, and the integral stops short of
    its tolerance.  So the first panels are cut at 0, +-eps, +-1 and
    +-(1 + eps), which split both features, and for order 2 also at +- each
    sign change of phi_eps'' on (0, 1 + 2 eps), found by :func:`_sign_changes`
    (near +-0.30 for small eps, where phi_0'' changes sign at RHO).  Orders
    0 and 1 have no sign change on (0, 1 + 2 eps): g * g is even and
    decreases on x > 0, as the self-convolution of an even bump that
    decreases on x > 0 (such convolutions stay even and unimodal), and sech
    is positive and decreasing there, so phi_eps >= 0 and phi_eps' <= 0 on
    x > 0; the kink of |phi_eps'| at 0 is a cut already.  The integrator
    evaluates a split at a time: the nodes of the first panels, then of both
    halves of each split, go to phi_eps_deriv as one array; h is called node
    by node.
    """
    e = _eps_of(eps)
    half = 1.0 + 2.0 * e

    def fv(xs: list[float]) -> list[float]:
        ys = np.abs(phi_eps_deriv(e, np.array(xs), order)) * np.array([h(t) for t in xs])
        return ys.tolist()

    cuts = [e, 1.0, 1.0 + e] + (_sign_changes(e) if order == 2 else [])
    seeds = [0.0] + [s * c for c in cuts for s in (-1.0, 1.0)]
    domain = IntegrationDomain(-half, half)
    return integrate_array(fv, domain, _FINITE_EPS_TOL, breakpoints=seeds).value
