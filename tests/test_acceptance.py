"""Acceptance gate: the nine headline checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each test
computes its quantity from scratch, prints the measured value against the
target, and then asserts.  Nothing here is weakened to pass: the closed-form
comparison at delta = 0.02 is known to exceed its allowance at M = 10^5 and
is expected to fail; see the module comment on test_criterion_8_closed_form.
"""

import ast
import collections
import math
import random
import time
from pathlib import Path

import pytest

from rankbound import checks
from rankbound.bound import grid_reports, h_of_a, minimize
from rankbound.detector import DetectorBox, SyntheticH
from rankbound.kernels import big_f, big_k, c_const, g_psi
from rankbound.limits import laplace, limit_measure
from rankbound.mollifier import ArithTable, MollifierParams, s_sums
from rankbound.quadrature import DEFAULT_TOL, IntegrationDomain, integrate, integrate_measure
from rankbound.testfn import finite_eps_functional


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_phi0_hat_at_zero():
    t0 = time.perf_counter()
    got = laplace(limit_measure(0), 0.0)
    dt = time.perf_counter() - t0
    ok = abs(got - 0.9281) <= 5e-4 and dt < 1.0
    _verdict(1, ok, f"phi0_hat(0) = {got:.10f} (target 0.9281 +- 5e-4) in {dt:.2f} s")
    assert abs(got - 0.9281) <= 5e-4
    assert dt < 1.0


def test_criterion_2_constant_c():
    got = c_const()
    ok = abs(got - 11.028) <= 1e-3
    _verdict(2, ok, f"c = {got:.10f} (target 11.028 +- 1e-3)")
    assert ok


def test_criterion_3_g_functionals_at_one():
    targets = {0: 0.1535, 1: 0.3666, 2: 0.3321}
    t0 = time.perf_counter()
    got = {j: g_psi(1.0, limit_measure(j)).value for j in targets}
    dt = time.perf_counter() - t0
    worst = checks._worst(abs(got[j] - targets[j]) for j in targets)
    ok = worst <= 5e-4 and dt < 30.0
    _verdict(
        3,
        ok,
        "G(1) = " + ", ".join(f"{got[j]:.6f}" for j in (0, 1, 2))
        + f" (targets 0.1535/0.3666/0.3321 +- 5e-4) in {dt:.1f} s",
    )
    assert worst <= 5e-4
    assert dt < 30.0


def test_criterion_4_bound_at_pinned_point_and_scan_minimum():
    rep = h_of_a(0.48, 0.5)
    t0 = time.perf_counter()
    best = minimize(grid_reports(0.5, 0.30, 0.70, 0.01), 0.70, 0.01)
    dt = time.perf_counter() - t0
    ok = 6.49 <= rep.H <= 6.51 and best.H <= 6.5 and dt < 120.0
    _verdict(
        4,
        ok,
        f"H(0.48, 1/2) = {rep.H:.6f} (target [6.49, 6.51]); scan min "
        f"H({best.a:.3f}) = {best.H:.6f} <= 6.5 in {dt:.1f} s",
    )
    assert 6.49 <= rep.H <= 6.51
    assert best.H <= 6.5
    assert dt < 120.0


def test_criterion_5_fallback_point():
    got = h_of_a(0.56, 0.25).H
    ok = abs(got - 10.6) <= 0.05
    _verdict(5, ok, f"H(0.56, 1/4) = {got:.6f} (target 10.6 +- 0.05)")
    assert ok


def test_criterion_6_identity_suite():
    # randomized sweep over the documented parameter ranges; the
    # hypothesis-driven versions of the same identities live in
    # tests/test_special.py and tests/test_kernels.py
    rng = random.Random(0)
    triples = []
    for _ in range(40):
        a = rng.uniform(0.2, 1.0)
        b = a + rng.uniform(0.3, 4.0)
        x = rng.uniform(0.05, 0.95) * 2.0 / a  # keeps 2/a - x > 0
        triples.append((a, b, x))
    tails = [
        (rng.uniform(0.1, 0.95), rng.uniform(0.05, 5.0), rng.choice(["+", "-"]))
        for _ in range(40)
    ]
    resids = [
        checks.e_identity_worst(triples, DEFAULT_TOL),
        checks.lemma1_worst(((0.3, 0), (0.48, 0), (0.7, 1), (0.48, 2)), 1e-9),
        checks.i_pm_worst(tails),
    ]
    for a in (0.48, 0.7, 1.0):
        for x in (-0.5, 0.0, 0.5, 0.9):
            ref = integrate(
                lambda u: big_f(a, u) * math.exp(x * u),
                IntegrationDomain(0.5),
                tol=1e-11,
            ).value
            resids.append(abs(big_k(a, x) - ref))
    worst = checks._worst(resids)
    ok = worst < 1e-6
    _verdict(6, ok, f"identity suite worst residual {worst:.3e} (< 1e-6)")
    assert ok


def test_criterion_7_detector_suite():
    # pinned boxes covering each planted-zero count 0..3, then 50 random ones
    fixed_worst, fixed_counts = checks.lemma6_sweep(checks.FIXED_DETECTOR_CASES, 1e-9)
    rand_worst, rand_counts = checks.lemma6_sweep(checks.random_detector_cases(7), 1e-9, n=50)
    worst = checks._worst((fixed_worst, rand_worst))
    drawn = len(fixed_counts) + len(rand_counts)
    counts = collections.Counter(fixed_counts + rand_counts)
    # negative control: a zero sitting on the box boundary must be refused
    rejected = checks.lemma6_rejects(SyntheticH(math.e, 5.0), DetectorBox(0.1, -0.3, 0.0))
    ok = worst < 1e-6 and rejected and drawn >= 50 and {0, 1, 2, 3} <= set(counts)
    _verdict(
        7,
        ok,
        f"{drawn} cases, zero counts {dict(sorted(counts.items()))}, "
        f"worst residual {worst:.3e} (< 1e-6); boundary control "
        f"{'rejected' if rejected else 'NOT rejected'}",
    )
    assert worst < 1e-6
    assert rejected
    assert drawn >= 50
    assert {0, 1, 2, 3} <= set(counts)


@pytest.fixture(scope="module")
def big_table():
    return ArithTable(100000)


def test_criterion_8_decomposition_and_support(big_table):
    t0 = time.perf_counter()
    params = [
        MollifierParams(100000, 0.5, delta, t) for delta in (0.02, 0.05, 0.1) for t in (0.0, 0.5)
    ]
    worst, _ = checks.s_sweep(big_table, params)
    p = MollifierParams(100000, 0.5, 0.05)
    support_ok = checks.y_k_support_ok(big_table, p, zero_ks=(4, 12, 100001))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and support_ok and dt < 120.0
    _verdict(
        8,
        ok,
        f"S = S1+S2+S3 worst gap {worst:.2e} (<= 1e-12) over delta x t grid; "
        f"y_k support facts {'exact' if support_ok else 'BROKEN'} in {dt:.1f} s",
    )
    assert worst <= 1e-12
    assert support_ok
    assert dt < 120.0


# The delta = 0.02 case fails: at M = 10^5 the measured gap |S - closedS| is
# 0.2986 against an allowance of 10 * 0.02 * M^-0.02 = 0.1589.  The
# decomposition above is exact, and the component closed forms are each much
# closer; the misfit is concentrated in the zeta'/zeta ~ -1/(2 delta)
# collapse inside the closed form, which at delta = 0.02 needs M far beyond
# 10^5 to settle.  Left to fail on purpose rather than loosening the
# allowance.
@pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
def test_criterion_8_closed_form(big_table, delta):
    p = MollifierParams(100000, 0.5, delta)
    gap, allow = checks.closed_form_misfit(s_sums(big_table, p), p)
    ok = gap <= allow
    _verdict(
        8,
        ok,
        f"delta = {delta}: |S - closedS| = {gap:.6f} vs allowance {allow:.6f}",
    )
    assert gap <= allow


def test_criterion_8_truncated_zeta(big_table):
    worst_ratio = checks._worst(
        checks.truncated_zeta_ratio(big_table, 5000.5, delta) for delta in (0.02, 0.05, 0.1)
    )
    ok = worst_ratio <= 10.0
    _verdict(8, ok, f"truncation identity worst residual/scale = {worst_ratio:.2f} (<= 10)")
    assert ok


def test_nan_residual_fails(monkeypatch, capsys):
    # the criteria fold residuals with checks._worst: max(0.5, nan) is 0.5,
    # so a nan after the first residual would print PASS
    monkeypatch.setattr(
        checks, "truncated_zeta_ratio", lambda table, m, delta: math.nan if delta == 0.05 else 0.5
    )
    with pytest.raises(AssertionError):
        test_criterion_8_truncated_zeta(None)
    assert capsys.readouterr().out.startswith("ACCEPTANCE 8: FAIL: ")


def test_checks_fold_only_through_worst():
    # max(0.5, nan) is 0.5 and min(nan, 0.5) is nan but min(0.5, nan) is
    # 0.5: a builtin min or max in checks can drop a nan residual, so every
    # fold goes through checks._worst
    tree = ast.parse(Path(checks.__file__).read_text())
    found = [
        f"line {node.lineno}: {node.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("min", "max")
    ]
    assert found == []


def test_criterion_9_limit_convergence():
    weights = {
        "1": lambda x: 1.0,
        "e^x": math.exp,
        "x e^(x/2)": lambda x: x * math.exp(0.5 * x),
    }
    eps_grid = (0.1, 0.05, 0.02, 0.01)
    all_ok = True
    lines = []
    for order in (0, 1, 2):
        m = limit_measure(order)
        for name, h in weights.items():
            target = integrate_measure(h, m)
            errs = [
                abs(finite_eps_functional(e, order, h) - target)
                for e in eps_grid
            ]
            monotone = all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
            all_ok = all_ok and monotone
            lines.append(f"order {order}, h = {name}: errors {['%.2e' % e for e in errs]}")
    _verdict(9, all_ok, "finite-eps errors decrease along eps = 0.1, 0.05, 0.02, 0.01")
    for line in lines:
        print("   ", line)
    assert all_ok
