"""A 30-digit second path for the headline: constants, H and zeta by mpmath.

Every formula here is transcribed from the docstrings of limits, kernels,
special, bound and mollifier, not from their double code:

- E(z), the integral over t >= 1 of exp(-z t) / t^2, is mpmath's expint(2, z).
- phi_0 is (1 - |x|) sech x on [-1, 1]; its limit measures are |phi_0|,
  |phi_0'| and |phi_0''| plus, for order 2, the atoms 2 at 0 and sech 1
  at +-1.  RHO, where phi_0'' changes sign on (0, 1), comes from findroot.
- K(a, x) = (2 / c) (E(z) + q(z1, x - 1) - q(z2, x + 1)), z = (2/a - x)/2,
  z1 = (2/a - 1)/2, z2 = (2/a + 1)/2, with the difference quotient
  q(z0, d) = (E(z0 - d/2) - exp(d/2) E(z0)) / d, which is
  (E1(z0) - E(z0)) / 2 at d = 0.
- G_psi(a) = F(a, 1/2) * (transform at 1 of psi's density alone)
  + integral of x K(a, x) exp(x/2) against psi, atoms included.
- H(a, delta) = 1/2 + (1/phi0hat(0)) (1/(a delta) + 4 a^2/(1 - a)^2
  (3 (G_phi(1) - G_phi(a)) + (pi^2/6 - 5/4) (G_phi''(1) - G_phi''(a)))).

The integrals are mp.quad (tanh-sinh) split at -1, -RHO, 0, RHO and 1.
mp.quad certifies nothing: this is an independent second path, not a proof.
"""

import functools

import pytest

mpmath = pytest.importorskip("mpmath", reason="the 30-digit oracle needs mpmath (the test extra)")

from rankbound import bound, kernels, limits, mollifier  # noqa: E402

mp = mpmath.MPContext()
mp.dps = 30

# Absolute agreement asked of the double pipeline at its default tol; and
# the relative agreement asked of zeta_vals, whose docstring states what
# it measured against this oracle.
TOL = 1e-12
ZETA_REL = 1e-14


def _e(z):
    return mp.expint(2, z)


def _v(x):
    return (1 - x) * mp.sech(x)


def _d1(x):
    c, s = mp.sech(x), mp.tanh(x)
    return -c * (1 + (1 - x) * s)


def _d2(x):
    c, s = mp.sech(x), mp.tanh(x)
    return 2 * c * s - (1 - x) * c * (c * c - s * s)


RHO = mp.findroot(_d2, 0.3)
CUTS = [-1, -RHO, 0, RHO, 1]
C = 4 * mp.pi * mp.cos(mp.mpf(1) / 2)
DENSITY = {
    0: lambda x: _v(abs(x)),
    1: lambda x: -_d1(abs(x)),
    2: lambda x: abs(_d2(abs(x))),
}
ATOMS = {0: (), 1: (), 2: ((-1, mp.sech(1)), (0, mp.mpf(2)), (1, mp.sech(1)))}


def _big_f(a, u):
    t3 = u * mp.exp(u) * _e((2 + a) * u / a)
    return (mp.exp(-2 * u / a) + u * mp.exp(-u) * _e((2 - a) * u / a) - t3) / (C * u * u)


def _quotient(z0, d):
    if d == 0:
        return (mp.e1(z0) - _e(z0)) / 2
    return (_e(z0 - d / 2) - mp.exp(d / 2) * _e(z0)) / d


@functools.lru_cache(maxsize=None)
def _kernel_integrand(a):
    # x K(a, x) exp(x/2), memoized per node: the quadratures of every order
    # at one a share the cuts and so the nodes.
    z1, z2 = (2 / a - 1) / 2, (2 / a + 1) / 2

    @functools.lru_cache(maxsize=None)
    def g(x):
        k = (2 / C) * (_e((2 / a - x) / 2) + _quotient(z1, x - 1) - _quotient(z2, x + 1))
        return x * k * mp.exp(x / 2)

    return g


@functools.lru_cache(maxsize=None)
def _hat(order):
    # The transform at s = 1 of the density alone, the factor G_psi uses.
    return mp.quad(lambda x: mp.exp(x) * DENSITY[order](x), CUTS)


@functools.lru_cache(maxsize=None)
def _g(a, order):
    g = _kernel_integrand(a)
    kernel = mp.quad(lambda x: g(x) * DENSITY[order](x), CUTS)
    kernel += sum(mass * g(mp.mpf(loc)) for loc, mass in ATOMS[order])
    return _big_f(a, mp.mpf(1) / 2) * _hat(order) + kernel


@functools.lru_cache(maxsize=None)
def _phi0_hat0():
    return mp.quad(DENSITY[0], CUTS)


def _h(a, delta):
    one = mp.mpf(1)
    series_tail = mp.pi**2 / 6 - mp.mpf(5) / 4
    bracket = 3 * (_g(one, 0) - _g(a, 0)) + series_tail * (_g(one, 2) - _g(a, 2))
    return one / 2 + (1 / _phi0_hat0()) * (1 / (a * delta) + 4 * a * a / (1 - a) ** 2 * bracket)


def test_rho():
    assert abs(RHO - limits.RHO) <= 1e-16


def test_constants():
    got = {
        "phi0_hat_0": limits.laplace(limits.limit_measure(0), 0.0),
        "c": kernels.c_const(),
        **{
            name: kernels.g_psi(1.0, limits.limit_measure(order)).value
            for order, name in enumerate(("G_abs_phi_1", "G_abs_dphi_1", "G_abs_d2phi_1"))
        },
    }
    one = mp.mpf(1)
    want = {
        "phi0_hat_0": _phi0_hat0(),
        "c": C,
        "G_abs_phi_1": _g(one, 0),
        "G_abs_dphi_1": _g(one, 1),
        "G_abs_d2phi_1": _g(one, 2),
    }
    errors = {k: float(abs(got[k] - want[k])) for k in want}
    assert max(errors.values()) <= TOL, errors


@pytest.mark.parametrize("a", [0.30, 0.483, 0.70])
def test_h(a):
    # The a-free pieces (phi0hat(0), the transforms, G at a = 1) are memoized
    # and computed once for all three a.
    assert abs(bound.h_of_a(a, 0.5).H - _h(mp.mpf(a), mp.mpf(1) / 2)) <= TOL


def test_zeta_vals():
    # delta = 0.005, 0.010, ..., 1: the relative errors of zeta and zeta'.
    worst = [0.0, 0.0]
    for k in range(1, 201):
        delta = k / 200
        s = 1 + 2 * mp.mpf(delta)
        want = (mp.zeta(s), mp.zeta(s, derivative=1))
        for i, got in enumerate(mollifier.zeta_vals(delta)):
            worst[i] = max(worst[i], float(abs(got / want[i] - 1)))
    assert max(worst) <= ZETA_REL, worst
