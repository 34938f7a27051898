"""Tail integral E and exponential integral E1, against quadrature oracles."""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rankbound import special
from rankbound.kernels import i_pm, i_pm_by_quadrature
from rankbound.special import (
    exp_e,
    exp_e1,
    exp_e1_by_quadrature,
    exp_e_by_quadrature,
    verify_e_identities,
)

# 30-digit reference values, frozen from an independent evaluation of the
# defining integrals.
E_AT = {
    0.5: 0.326643862324553017730401565334,
    1.0: 0.148495506775922047918359994701,
    1.5: 0.0731007865384808510804164608965,
}
E1_AT_1 = 0.21938393439552027367716377546


def test_frozen_values():
    for x, want in E_AT.items():
        assert exp_e(x) == pytest.approx(want, abs=1e-13)
    assert exp_e1(1.0) == pytest.approx(E1_AT_1, abs=1e-13)


def _guarded_lentz_e1(x):
    # The continued fraction for x >= 1 with the classic tiny-value guards
    # and the |delta - 1| stop test: a second path that exp_e1 must match
    # bit for bit.
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


@given(st.floats(1.0, 1e300) | st.floats(1.0, 40.0))
@example(1.0)
@example(math.nextafter(1.0, 2.0))
@example(700.0)
@example(745.0)
@example(1e10)
@example(1e300)
@settings(max_examples=300, deadline=None)
def test_continued_fraction_matches_guarded_loop(x):
    assert exp_e1(x).hex() == _guarded_lentz_e1(x).hex()


def test_endpoints_and_domain():
    assert exp_e(0.0) == 1.0  # exact: the integrand collapses to t^-2
    assert exp_e(800.0) == 0.0  # double underflow, documented as a hard zero
    with pytest.raises(ValueError):
        exp_e(-0.1)
    with pytest.raises(ValueError):
        exp_e1(0.0)
    with pytest.raises(ValueError):
        exp_e1(-2.0)
    assert exp_e1(math.inf) == 0.0 and exp_e(math.inf) == 0.0


@pytest.mark.parametrize(
    "fn, args",
    [
        (exp_e, (math.nan,)),
        (exp_e1, (math.nan,)),
        (exp_e_by_quadrature, (math.nan,)),
        (exp_e1_by_quadrature, (math.nan,)),
        (i_pm, (0.5, math.nan, "+")),
        (i_pm_by_quadrature, (0.5, math.nan, "+")),
        (i_pm_by_quadrature, (math.nan, 1.0, "-")),
    ],
    ids=lambda v: getattr(v, "__name__", None) or ",".join(map(str, v)),
)
def test_nan_argument_raises(fn, args):
    # before the integrator or the continued fraction sees it
    with pytest.raises(ValueError):
        fn(*args)


def test_series_cf_seam():
    # The implementation switches between a power series and a continued
    # fraction at x = 1; both sides of the seam must agree with quadrature.
    for x in (0.9, 0.99, 1.0, 1.01, 1.1):
        assert exp_e1(x) == pytest.approx(exp_e1_by_quadrature(x), abs=1e-12)


@given(st.floats(0.05, 30.0))
@settings(max_examples=60, deadline=None)
def test_against_quadrature_oracle(x):
    assert exp_e(x) == pytest.approx(exp_e_by_quadrature(x), abs=1e-10)


@given(st.floats(0.05, 30.0))
@settings(max_examples=30, deadline=None)
def test_parts_identity(x):
    # E(x) = e^-x - x E1(x), which is just integration by parts
    assert exp_e(x) == pytest.approx(math.exp(-x) - x * exp_e1(x), abs=1e-9)


@given(st.floats(0.1, 20.0), st.floats(0.1, 20.0))
@settings(max_examples=40, deadline=None)
def test_monotone_decreasing(x1, x2):
    lo, hi = sorted((x1, x2))
    assert exp_e(lo) >= exp_e(hi)
    assert exp_e1(lo) >= exp_e1(hi)


def test_identities_pinned():
    assert verify_e_identities(0.5, 1.0, 1.0) < 1e-8
    assert verify_e_identities(0.48, 0.9, 0.3) < 1e-8
    # 2/a - x = 0.5 exercises the substitution branch of the first identity
    assert verify_e_identities(1.0, 4.0, 1.5) < 1e-8


def test_identities_nan_second_residual(monkeypatch):
    # E(b - a) = E(1.5) enters only the second identity's right side; a nan
    # there must not fall to the first residual, as max(r1, nan) does.
    monkeypatch.setattr(special, "exp_e", lambda x: math.nan if x == 1.5 else exp_e(x))
    assert math.isnan(verify_e_identities(1.0, 2.5, 0.0))


def test_identities_domain():
    with pytest.raises(ValueError):
        verify_e_identities(1.0, 4.0, 2.0)  # 2/a - x = 0
    with pytest.raises(ValueError):
        verify_e_identities(0.5, 0.5, 0.1)  # needs b > a
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="need a > 0"):
            verify_e_identities(a, 4.0, 0.5)


# sha256 of float.hex over the grid of test_e_tail_quadrature_bits.
E_TAIL_GRID_SHA256 = "91500b7cfb8494c8d70f684338a86b1f1069fab160b81cdc7460b3754512e35a"


def test_e_tail_quadrature_bits():
    # The quadrature sides of the E identities and of the tails I+-, with the
    # decay rate r on both sides of 1 (the ray, and the rewrite onto E), and
    # for the second identity b both close to a and far from it.  The CLI
    # prints only the worst residual, so its reference outputs pin neither.
    rng = random.Random(40)
    rates, out = [], []
    for _ in range(60):
        a = rng.uniform(0.2, 1.5)
        r = rng.uniform(0.1, 4.0)
        b = a + (rng.uniform(0.01, 0.1) if rng.random() < 0.5 else rng.uniform(0.1, 4.0))
        x = 2.0 / a - r
        rates.append(2.0 / a - x)
        out.append(verify_e_identities(a, b, x).hex())
    for _ in range(60):
        a = rng.uniform(0.05, 0.95)
        u = math.exp(rng.uniform(math.log(0.01), math.log(5.0)))
        sign = rng.choice("+-")
        rates.append((2.0 / a - (1.0 if sign == "+" else -1.0)) * u)
        out.append(i_pm_by_quadrature(a, u, sign).hex())
    for part in (rates[:60], rates[60:]):
        assert min(part) < 1.0 <= max(part)
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == E_TAIL_GRID_SHA256


@given(
    st.floats(0.2, 1.0),
    st.floats(0.3, 4.0),
    st.floats(0.05, 0.95),
)
@settings(max_examples=50, deadline=None)
def test_identities_random(a, gap, x_frac):
    # x is drawn as a fraction of 2/a so the first identity stays in domain
    assert verify_e_identities(a, a + gap, x_frac * 2.0 / a) < 1e-6
