"""Assembled rank bound H(a, delta) and its minimization over a."""

import importlib
import math
import pkgutil

import pytest

import rankbound
from rankbound import bound, kernels, limits
from rankbound.bound import SERIES_TAIL, grid_reports, h_of_a, minimize
from rankbound.quadrature import IntegrationDomain, integrate

H_048_HALF = 6.49795663079525332764056783948
H_056_QUARTER = 10.5989258711190825275386119701
BRACKET_048 = 0.410826939132319455588406605473


def test_series_tail():
    assert SERIES_TAIL == math.pi * math.pi / 6.0 - 1.25
    # sum over n >= 3 of n^-2, summed directly with an Euler-Maclaurin tail
    n_top = 1000
    partial = sum(n**-2 for n in range(3, n_top + 1))
    tail = 1.0 / n_top - 0.5 / n_top**2 + 1.0 / (6.0 * n_top**3)
    assert SERIES_TAIL == pytest.approx(partial + tail, abs=1e-12)


def test_frozen_values():
    rep = h_of_a(0.48, 0.5)
    assert rep.H == pytest.approx(H_048_HALF, abs=1e-8)
    assert rep.bracket == pytest.approx(BRACKET_048, abs=1e-8)
    assert h_of_a(0.56, 0.25).H == pytest.approx(H_056_QUARTER, abs=1e-8)


def test_report_is_internally_consistent():
    rep = h_of_a(0.48, 0.5)
    bracket = 3.0 * (rep.g_phi_1 - rep.g_phi_a) + SERIES_TAIL * (
        rep.g_phi2_1 - rep.g_phi2_a
    )
    assert rep.bracket == pytest.approx(bracket, abs=1e-12)
    pref = 4.0 * rep.a**2 / (1.0 - rep.a) ** 2
    h = 0.5 + (1.0 / rep.phi0_hat0) * (1.0 / (rep.a * rep.delta) + pref * bracket)
    assert rep.H == pytest.approx(h, abs=1e-12)
    assert rep.g_phi_1 > rep.g_phi_a > 0.0
    assert rep.g_phi2_1 > rep.g_phi2_a > 0.0
    with pytest.raises(AttributeError):
        rep.H = 0.0


# Tol of the F side's integrals, outer and inner.  At 1e-12 an inner
# transform near 45,483, where one ulp is 7.3e-12, stalls.
_F_SIDE_TOL = 1e-11


def _g_difference_by_f(a: float, psi) -> tuple[float, float]:
    """G_psi(1) - G_psi(a) through lemma 1's F side, with its error bound.

    G_psi's kernel integral of x e^(x/2) (K(1, x) - K(a, x)) against psi is,
    by lemma 1, the integral over [1/2, inf) of (F(1, u) - F(a, u)) times
    psihat'(u + 1/2), so K is never evaluated.  The bound is the outer
    integral's error estimate plus what the inner transforms, each within
    tol of its value, can add: tol times the integral of |F(1, u) - F(a, u)|.
    """

    def f_diff(u: float) -> float:
        return kernels.big_f(1.0, u) - kernels.big_f(a, u)

    def integrand(u: float) -> float:
        fd = f_diff(u)
        if fd == 0.0:
            # both F values underflowed, and the transform would overflow
            return 0.0
        return fd * limits.laplace_deriv(psi, u + 0.5, _F_SIDE_TOL)

    ray = IntegrationDomain(0.5)
    outer = integrate(integrand, ray, _F_SIDE_TOL)
    spread = integrate(lambda u: abs(f_diff(u)), ray, 1e-6)
    value = f_diff(0.5) * limits.laplace_density(psi, 1.0) + outer.value
    return value, outer.err_estimate + _F_SIDE_TOL * (spread.value + spread.err_estimate)


@pytest.mark.parametrize("a", [0.30, 0.483, 0.70])
def test_h_without_k(a):
    # H assembled from the F side agrees with h_of_a within both sides'
    # error estimates, carried through H's affine form: H moves by
    # pref / phi0hat(0) per unit of bracket, and phi0hat(0) is shared.
    rep = h_of_a(a, 0.5)
    bracket = err = 0.0
    for order, weight in ((0, 3.0), (2, SERIES_TAIL)):
        psi = limits.limit_measure(order)
        g_diff, f_err = _g_difference_by_f(a, psi)
        k_err = kernels.g_psi(1.0, psi).err_estimate + kernels.g_psi(a, psi).err_estimate
        bracket += weight * g_diff
        err += weight * (f_err + k_err)
    pref = 4.0 * a * a / ((1.0 - a) * (1.0 - a))
    h_f = 0.5 + (1.0 / rep.phi0_hat0) * (1.0 / (a * 0.5) + pref * bracket)
    assert abs(h_f - rep.H) <= pref / rep.phi0_hat0 * err


def test_g_cache_ignores_delta(monkeypatch):
    calls = []
    g_psi = kernels.g_psi

    def counted(a, psi, tol):
        calls.append((a, tol))
        return g_psi(a, psi, tol)

    monkeypatch.setattr(kernels, "g_psi", counted)
    h_of_a(0.48, 0.5)  # the a = 1 row and phi0hat(0) at the default tol
    a = 0.3579  # used nowhere else
    calls.clear()
    first = h_of_a(a, 0.5)
    assert calls == [(a, 1e-10), (a, 1e-10)]
    calls.clear()
    second = h_of_a(a, 0.25)
    assert calls == []
    assert (second.g_phi_a, second.g_phi2_a) == (first.g_phi_a, first.g_phi2_a)
    assert second.H != first.H


# Memos whose keys come from a small fixed domain, never from a float that a
# caller supplies, may grow without bound.
UNBOUNDED_MEMOS = {"rankbound.limits.limit_measure", "rankbound.cli._parser"}

# Every memo of the package, with its bound: a new memo is declared here.
MEMOS = {
    "rankbound.bound._g_pair": 4096,
    "rankbound.bound._phi0_hat0": 64,
    "rankbound.cli._parser": None,
    "rankbound.kernels._big_f1": 1024,
    "rankbound.kernels._big_k1": 256,
    "rankbound.kernels._edges": 4096,
    "rankbound.kernels._f_half": 4096,
    "rankbound.kernels._panels": 4096,
    "rankbound.limits._transform": 2048,
    "rankbound.limits.limit_measure": None,
    "rankbound.mollifier._base": 4,
    "rankbound.testfn._table": 4,
}


def test_memos_are_bounded():
    memos = {}
    for info in pkgutil.iter_modules(rankbound.__path__):
        mod = importlib.import_module(f"rankbound.{info.name}")
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_parameters", None)):
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert memos == MEMOS
    assert {name for name, size in memos.items() if size is None} <= UNBOUNDED_MEMOS


def test_domain_validation():
    for a, d in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 0.6)):
        with pytest.raises(ValueError):
            h_of_a(a, d)
    with pytest.raises(ValueError):
        grid_reports(0.5, 0.6, 0.4, 0.05)
    with pytest.raises(ValueError):
        grid_reports(0.5, 0.3, 0.7, 0.0)


def test_grid_is_closed():
    reports = grid_reports(0.5, 0.4, 0.6, 0.05)
    assert [r.a for r in reports] == pytest.approx(
        [0.4, 0.45, 0.5, 0.55, 0.6], abs=1e-12
    )


def test_grid_ends_on_a_hi(monkeypatch):
    # 0.1 + 6 * 0.1 is 0.7000000000000001, past a_hi: the last point is a_hi.
    # The default grid and the 0.45 .. 0.55 one end on a_hi exactly.
    monkeypatch.setattr(bound, "h_of_a", lambda a, delta, tol: a)
    assert grid_reports(0.5, 0.1, 0.7, 0.1) == [0.1 + i * 0.1 for i in range(6)] + [0.7]
    assert grid_reports(0.5, 0.3, 0.7, 0.01)[-1] == 0.30 + 40 * 0.01 == 0.7
    assert grid_reports(0.5, 0.45, 0.55, 0.05)[-1] == 0.45 + 2 * 0.05 == 0.55


def test_minimize_default_window():
    rep = minimize(grid_reports(0.5, 0.3, 0.7, 0.01), 0.7, 0.01)
    assert rep.a == pytest.approx(0.483, abs=1e-12)
    assert rep.H == pytest.approx(6.497492474322719, abs=1e-6)
    assert rep.H <= 6.5


def test_minimize_step_consistency():
    # halving the coarse step moves the refined minimizer by less than the
    # original step
    a1 = minimize(grid_reports(0.5, 0.3, 0.7, 0.01), 0.7, 0.01).a
    a2 = minimize(grid_reports(0.5, 0.3, 0.7, 0.005), 0.7, 0.005).a
    assert abs(a1 - a2) <= 0.01


def test_minimize_single_point_grid():
    rep = minimize(grid_reports(0.5, 0.48, 0.5, 0.05), 0.5, 0.05)
    assert rep.a == 0.48
    assert rep.H == pytest.approx(H_048_HALF, abs=1e-8)
