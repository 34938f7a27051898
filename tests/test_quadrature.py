"""Adaptive Gauss-Kronrod integrator: accuracy, error paths, measures."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import rankbound.quadrature as q
from rankbound.quadrature import (
    ConvergenceError,
    EvaluationError,
    IntegrationDomain,
    Measure,
    PiecewiseSmoothFn,
    integrate,
    integrate_measure,
    integrate_measure_with_err,
)


def test_smooth_finite_interval():
    r = integrate(math.sin, IntegrationDomain(0.0, math.pi), tol=1e-12)
    assert r.value == pytest.approx(2.0, abs=1e-13)
    assert r.err_estimate < 1e-12
    assert r.n_evals >= 15


def test_kinked_ray_with_breakpoint():
    # int_0^inf e^-t |t-2| dt = 1 + 2 e^-2
    r = integrate(
        lambda t: math.exp(-t) * abs(t - 2.0),
        IntegrationDomain(0.0),
        tol=1e-12,
        breakpoints=(2.0,),
    )
    assert r.value == pytest.approx(1.0 + 2.0 * math.exp(-2.0), abs=1e-11)


def test_fast_decay_ray():
    r = integrate(lambda t: math.exp(-t * t), IntegrationDomain(0.0), tol=1e-12)
    assert r.value == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-12)


def test_shifted_ray():
    r = integrate(lambda t: math.exp(3.0 - t), IntegrationDomain(3.0), tol=1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_domain_validation():
    with pytest.raises(ValueError):
        IntegrationDomain(math.inf)
    with pytest.raises(ValueError):
        IntegrationDomain(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(math.sin, IntegrationDomain(0.0, 1.0), tol=0.0)


def test_evaluation_error_reports_original_coordinate():
    # The ray is integrated through a change of variables; the exception must
    # still name the point in the caller's coordinates.
    def f(t):
        if 2.0 < t < 4.0:
            return float("nan")
        return math.exp(-t)

    with pytest.raises(EvaluationError) as exc:
        integrate(f, IntegrationDomain(0.0), tol=1e-10)
    assert 2.0 < exc.value.abscissa < 4.0


def test_width_floor_returns_best_estimate():
    # Integrable singularity: panels at the origin hit the width floor before
    # the tolerance, but the accumulated estimate is still close.
    with pytest.raises(ConvergenceError) as exc:
        integrate(
            lambda x: x**-0.5 if x > 0 else 0.0,
            IntegrationDomain(0.0, 1.0),
            tol=1e-13,
        )
    best = exc.value.best
    assert best.value == pytest.approx(2.0, abs=1e-6)
    assert best.err_estimate > 1e-13
    # it gives up as soon as the frozen panels alone exceed tol
    assert "width floor" in str(exc.value)
    assert best.n_evals < 10_000


def test_interval_budget(monkeypatch):
    # An oscillating ray that converges under the default budget has no
    # panel at the width floor when 64 intervals run out.
    f = lambda t: math.cos(100.0 * t) * math.exp(-t)
    exact = 1.0 / (1.0 + 100.0**2)
    assert integrate(f, IntegrationDomain(0.0), tol=1e-10).value == pytest.approx(exact, abs=1e-9)
    monkeypatch.setattr(q, "MAX_INTERVALS", 64)
    with pytest.raises(ConvergenceError) as exc:
        integrate(f, IntegrationDomain(0.0), tol=1e-10)
    assert math.isfinite(exc.value.best.value)
    assert "budget" in str(exc.value)


def test_slow_decay_ray_fails_loudly():
    # t^-2 decays too slowly for the log map, and 1/(1+t) is not integrable
    # at all; the integrator must refuse rather than silently truncate, and
    # refuse at the width floor without running through its budget.
    for f, lo in ((lambda t: t**-2.0, 1.0), (lambda t: 1.0 / (1.0 + t), 0.0)):
        with pytest.raises(ConvergenceError) as exc:
            integrate(f, IntegrationDomain(lo), tol=1e-12)
        assert "width floor" in str(exc.value)
        assert exc.value.best.n_evals < 10_000


coeffs = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6)


def _poly(c, x):
    out = 0.0
    for a in reversed(c):
        out = out * x + a
    return out


def _poly_integral(c, lo, hi):
    anti = [a / (k + 1) for k, a in enumerate(c)]
    return _poly([0.0] + anti, hi) - _poly([0.0] + anti, lo)


@given(coeffs, st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_polynomials_and_splitting(c, cut):
    dom = IntegrationDomain(0.0, 1.0)
    whole = integrate(lambda x: _poly(c, x), dom, tol=1e-12).value
    left = integrate(lambda x: _poly(c, x), IntegrationDomain(0.0, cut), tol=1e-12).value
    right = integrate(lambda x: _poly(c, x), IntegrationDomain(cut, 1.0), tol=1e-12).value
    exact = _poly_integral(c, 0.0, 1.0)
    assert whole == pytest.approx(exact, abs=1e-10)
    assert left + right == pytest.approx(whole, abs=1e-10)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_linearity(alpha, beta):
    dom = IntegrationDomain(0.0, 2.0)
    mixed = integrate(lambda x: alpha * math.sin(x) + beta * x, dom, tol=1e-12).value
    assert mixed == pytest.approx(
        alpha * (1.0 - math.cos(2.0)) + beta * 2.0, abs=1e-10
    )


def _tent():
    # 1 - |x| on [-1, 1]
    pieces = (lambda x: 1.0 + x, lambda x: 1.0 - x)
    return PiecewiseSmoothFn((-1.0, 0.0, 1.0), pieces, (True, True, True))


def test_piecewise_fn_validation():
    piece = lambda x: 1.0
    with pytest.raises(ValueError):
        PiecewiseSmoothFn((0.0,), (), ())
    with pytest.raises(ValueError):
        PiecewiseSmoothFn((1.0, 0.0), (piece,), (True, True))
    with pytest.raises(ValueError):
        PiecewiseSmoothFn((0.0, 1.0, 2.0), (piece,), (True, True, True))
    with pytest.raises(ValueError):
        PiecewiseSmoothFn((0.0, 1.0), (piece,), (True, True, True))


def test_piecewise_fn_routing():
    f = PiecewiseSmoothFn((0.0, 1.0, 2.0), (lambda x: 1.0, lambda x: 2.0), (False, False, False))
    assert f.support == (0.0, 2.0)
    assert f(0.5) == 1.0
    assert f(1.0) == 2.0  # right-continuous at interior breakpoints
    assert f(1.5) == 2.0
    assert f(2.0) == 2.0  # top endpoint belongs to the last piece
    assert f(-0.1) == 0.0 and f(2.1) == 0.0


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(None, ((0.0, -1.0),))
    with pytest.raises(ValueError):
        Measure(_tent(), ((3.0, 1.0),))
    Measure(_tent(), ((1.0, 0.5),))  # boundary atom is fine


def test_atoms_only_measure():
    m = Measure(None, ((0.0, 2.0), (1.0, 0.5)))
    assert integrate_measure(math.exp, m) == pytest.approx(
        2.0 + 0.5 * math.e, abs=1e-14
    )


def test_density_plus_atom():
    # tent against e^x gives e + 1/e - 2; the atom at 0 adds its mass
    m = Measure(_tent(), ((0.0, 2.0),))
    exact = math.e + 1.0 / math.e - 2.0 + 2.0
    val, err = integrate_measure_with_err(math.exp, m, tol=1e-12)
    assert val == pytest.approx(exact, abs=1e-11)
    assert err >= 0.0
    assert abs(val - exact) <= max(1e-11, 10.0 * err)
