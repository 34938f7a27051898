"""Assembled rank bound H(a, delta) and its minimization over a."""

import math

import pytest

from rankbound import kernels
from rankbound.bound import SERIES_TAIL, grid_reports, h_of_a, minimize

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


def test_minimize_default_window():
    rep = minimize(0.5, 0.3, 0.7, 0.01)
    assert rep.a == pytest.approx(0.483, abs=1e-12)
    assert rep.H == pytest.approx(6.497492474322719, abs=1e-6)
    assert rep.H <= 6.5


def test_minimize_step_consistency():
    # halving the coarse step moves the refined minimizer by less than the
    # original step
    a1 = minimize(0.5, 0.3, 0.7, 0.01).a
    a2 = minimize(0.5, 0.3, 0.7, 0.005).a
    assert abs(a1 - a2) <= 0.01


def test_minimize_single_point_grid():
    rep = minimize(0.5, 0.48, 0.5, 0.05)
    assert rep.a == 0.48
    assert rep.H == pytest.approx(H_048_HALF, abs=1e-8)
