"""Zero detector on a synthetic h with planted zeros: the counting identity
is exact, so every case has a closed-form left side to check against."""

import cmath
import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankbound import checks, detector
from rankbound.detector import (
    MU,
    DetectorBox,
    SyntheticH,
    detector_weight,
    lemma6_check,
    shrunk_box,
)

# Weight of a zero sitting exactly on a shrunk-box corner; w cancels, so the
# value is universal: 2 sinh(1/2) sin(mu) / sin(pi mu / (2 mu + 1)).
CORNER_WEIGHT = 1.0421906109874948


def _h_direct(c0, rate, x, y):
    return 1.0 - c0 * cmath.exp(-rate * (x + 1j * y))


def test_synthetic_h_validation():
    SyntheticH(0.0, 5.0)
    with pytest.raises(ValueError):
        SyntheticH(-1.0, 5.0)
    with pytest.raises(ValueError):
        SyntheticH(1.0, 0.0)
    for c0, rate in ((math.nan, 5.0), (math.inf, 5.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            SyntheticH(c0, rate)


def test_log_abs_matches_direct_evaluation(monkeypatch):
    # lemma6_check writes log|h| out inside its two integrands; both are
    # caught here and evaluated at nodes of their own, against log|h| from
    # complex arithmetic.
    c0, rate = math.e, 5.0
    sp, t1, t2 = -0.2, -0.5, 0.7
    w = t2 - t1
    panels = []
    inner = detector.integrate_array

    def caught(fv, domain, tol, breakpoints=()):
        panels.append(fv)
        return inner(fv, domain, tol, breakpoints)

    monkeypatch.setattr(detector, "integrate_array", caught)
    lemma6_check(SyntheticH(c0, rate), DetectorBox(sp, t1, t2))
    seg, ray = panels
    log_abs = lambda x, y: math.log(abs(_h_direct(c0, rate, x, y)))
    ts = [-0.45, -0.1, 0.3, 0.69]
    want = [math.sin(math.pi * (t - t1) / w) * log_abs(sp, t) for t in ts]
    assert seg(ts) == pytest.approx(want, abs=1e-12)
    betas = [-0.1, 0.21, 0.5, 1.5]
    want = [math.sinh(math.pi * (b - sp) / w) * (log_abs(b, t1) + log_abs(b, t2)) for b in betas]
    assert ray(betas) == pytest.approx(want, abs=1e-12)


def test_planted_zeros_are_zeros():
    h = SyntheticH(math.e, 5.0)
    zeros = h.zeros_in(-2.0, 2.0)
    assert len(zeros) == 3  # heights 0, +-2 pi / 5 land inside [-2, 2]
    for x, y in zeros:
        assert x == pytest.approx(0.2, abs=1e-15)
        assert abs(_h_direct(math.e, 5.0, x, y)) < 1e-10
    assert SyntheticH(0.0, 5.0).zeros_in(-2.0, 2.0) == []


def test_box_validation():
    DetectorBox(0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        DetectorBox(0.1, 1.0, 1.0)
    for edges in ((math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (0.1, -math.inf, 1.0),
                  (0.1, 0.0, math.inf), (0.1, math.nan, 1.0)):
        with pytest.raises(ValueError):
            DetectorBox(*edges)
    assert DetectorBox(0.0, -0.5, 1.0).width == 1.5


FIXED_LHS = {
    # (t1, t2, planted zero count) -> exact weighted count, frozen
    (0.2, 1.1, 0): 0.0,
    (-0.3, 0.55, 1): 0.575340821062264950957376955025,
    (-0.1, 1.5, 2): 0.414169256227011,
    (-1.4, 1.5, 3): 0.890061286783305,
}


def test_counting_identity_fixed_cases():
    h = SyntheticH(math.e, 5.0)
    for (t1, t2, nzeros), want in FIXED_LHS.items():
        box = DetectorBox(0.1, t1, t2)
        assert len(h.zeros_in(t1, t2)) == nzeros or nzeros == 0
        lhs, rhs, resid = lemma6_check(h, box, tol=1e-10)
        assert lhs == pytest.approx(want, abs=1e-9)
        assert resid < 1e-9


def test_counting_identity_small_decay_margin():
    # Regression case: with rate barely above pi/w the ray integrand is a
    # product of an exploding sinh and a log factor that underflows doubles;
    # the integrand has to linearize the log factor to keep the tail.
    h = SyntheticH(2.0, math.pi * 1.02)
    lhs, rhs, resid = lemma6_check(h, DetectorBox(-0.2, -0.5, 0.5), tol=1e-10)
    assert lhs == pytest.approx(3.4279107945457343, abs=1e-9)
    assert resid < 1e-9


def test_trivial_h():
    assert lemma6_check(SyntheticH(0.0, 5.0), DetectorBox(0.1, 0.0, 1.0)) == (
        0.0,
        0.0,
        0.0,
    )


def test_applicability_guard():
    # decay rate must beat pi / width for the ray integrals to converge
    with pytest.raises(ValueError):
        lemma6_check(SyntheticH(2.0, 3.0), DetectorBox(0.0, 0.0, 1.0))


def test_boundary_zeros_rejected():
    # zero on the vertical line through sigma'
    h = SyntheticH(1.0, 5.0)  # zeros at x = 0
    with pytest.raises(ValueError):
        lemma6_check(h, DetectorBox(0.0, -0.1, 0.9))
    # zero at the top edge height
    h2 = SyntheticH(math.e, 5.0)  # zeros at y = 2 pi k / 5
    with pytest.raises(ValueError):
        lemma6_check(h2, DetectorBox(0.1, -0.3, 0.0))


@given(
    st.floats(3.5, 12.0),
    st.floats(math.log(0.2), math.log(8.0)),
    st.floats(-0.8, 0.8),
    st.floats(-2.0, 1.0),
    st.floats(0.3, 1.6),
)
@settings(max_examples=60, deadline=None)
def test_counting_identity_random(rate, logc0, sp, t1, extra):
    h = SyntheticH(math.exp(logc0), rate)
    box = DetectorBox(sp, t1, t1 + math.pi / rate + extra)
    try:
        lhs, rhs, resid = lemma6_check(h, box, tol=1e-9)
    except ValueError:
        assume(False)
        return
    assert resid < 1e-6
    assert lhs >= 0.0


def test_random_family_covers_zero_counts():
    # deterministic draw; together the cases hold every count from 0 to 3
    worst, counts = checks.lemma6_sweep(checks.random_detector_cases(7), 1e-9, n=50)
    assert len(counts) == 50
    assert worst < 1e-6
    assert set(counts) == {0, 1, 2, 3}


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_sweep_rejects_bad_tol(tol):
    # The integrator's bad-tol ValueError is the one lemma6_check raises for
    # a rejected case, so a sweep with n would skip every case: a finite
    # list gave a clean (0.0, []), an endless one ran on.
    cases = itertools.islice(checks.random_detector_cases(0), 200)
    with pytest.raises(ValueError, match="tolerance"):
        checks.lemma6_sweep(cases, tol, n=50)


# lemma6_check's (lhs, rhs, residual) at tol 1e-9, as float.hex.
LEMMA6_FIXED_HEX = (
    ("0x0.0p+0", "0x1.c000000000000p-52", "0x1.c000000000000p-52"),
    ("0x1.26931275084d7p-1", "0x1.26931275084d6p-1", "0x1.0000000000000p-53"),
    ("0x1.a81bfc4a03be6p-2", "0x1.a81bfc4a03bdfp-2", "0x1.c000000000000p-52"),
    ("0x1.c7b61cec57068p-1", "0x1.c7b61cec57065p-1", "0x1.8000000000000p-52"),
)
# The first ten cases of random_detector_cases(7) that lemma6_check accepts.
LEMMA6_RANDOM7_HEX = (
    ("0x0.0p+0", "0x1.8500000000000p-56", "0x1.8500000000000p-56"),
    ("0x0.0p+0", "0x1.2000000000000p-57", "0x1.2000000000000p-57"),
    ("0x0.0p+0", "-0x1.0000000000000p-54", "0x1.0000000000000p-54"),
    ("0x0.0p+0", "0x1.a400000000000p-54", "0x1.a400000000000p-54"),
    ("0x0.0p+0", "-0x1.dc80000000000p-61", "0x1.dc80000000000p-61"),
    ("0x0.0p+0", "-0x1.8000000000000p-58", "0x1.8000000000000p-58"),
    ("0x0.0p+0", "0x1.8000000000000p-55", "0x1.8000000000000p-55"),
    ("0x1.b8e91b2083455p+0", "0x1.b8e91b2083457p+0", "0x1.0000000000000p-51"),
    ("0x0.0p+0", "-0x1.b800000000000p-59", "0x1.b800000000000p-59"),
    ("0x0.0p+0", "-0x1.0000000000000p-64", "0x1.0000000000000p-64"),
)


def _hex(triple):
    return tuple(v.hex() for v in triple)


def test_lemma6_exact_bits():
    fixed = tuple(_hex(lemma6_check(h, box, 1e-9)) for h, box in checks.FIXED_DETECTOR_CASES)
    assert fixed == LEMMA6_FIXED_HEX
    accepted = []
    for h, box in checks.random_detector_cases(7):
        if len(accepted) == len(LEMMA6_RANDOM7_HEX):
            break
        try:
            accepted.append(_hex(lemma6_check(h, box, 1e-9)))
        except ValueError:
            continue
    assert tuple(accepted) == LEMMA6_RANDOM7_HEX


def test_shrunk_box_geometry():
    box = DetectorBox(0.1, -0.3, 0.7)
    sg, it1, it2 = shrunk_box(box)
    assert sg == pytest.approx(0.1 + 1.0 / (2.0 * math.pi), abs=1e-15)
    assert it1 == pytest.approx(-0.3 + MU / math.pi, abs=1e-15)
    assert it2 == pytest.approx(0.7 - MU / math.pi, abs=1e-15)


@pytest.mark.parametrize("nan_call", [0, 1])
def test_corner_weight_nan_fails(monkeypatch, nan_call):
    # min(2.0, nan) is 2.0: a fold through min() passed a nan second corner.
    calls = []

    def weight(*args):
        calls.append(args)
        return math.nan if len(calls) == nan_call + 1 else 2.0

    monkeypatch.setattr(detector, "detector_weight", weight)
    assert checks.corner_weight_ok(DetectorBox(0.0, 0.0, 1.0)) is False
    assert len(calls) == 2


def test_weight_at_least_one_inside_shrunk_box():
    box = DetectorBox(0.1, -0.3, 0.7)
    sg, it1, it2 = shrunk_box(box)
    assert detector_weight(box, sg, it1) == pytest.approx(
        CORNER_WEIGHT, abs=1e-12
    )
    assert detector_weight(box, sg, it2) == pytest.approx(
        CORNER_WEIGHT, abs=1e-12
    )
    for i in range(9):
        for j in range(9):
            beta = sg + (0.4 - sg + 0.1) * i / 8.0  # out to sigma' + 0.4
            gamma = it1 + (it2 - it1) * j / 8.0
            assert detector_weight(box, beta, gamma) >= 1.0 - 1e-12

