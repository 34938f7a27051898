"""Adaptive Gauss-Kronrod integrator: accuracy, error paths, measures."""

import bisect
import copy
import hashlib
import heapq
import math
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

import rankbound.quadrature as q
from rankbound import limits
from rankbound.kernels import g_psi
from rankbound.quadrature import (
    ConvergenceError,
    EvaluationError,
    IntegrationDomain,
    Measure,
    PiecewiseSmoothFn,
    QuadResult,
    integrate,
    integrate_array,
    integrate_measure_with_err,
)
from rankbound.testfn import composite_gk15


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
    # The first panel is u in (0, 1): the error names the leftmost node
    # t = -log(1 - u) inside (2, 4), in t, not u.
    ts = [-math.log1p(-(0.5 + 0.5 * x)) for x in q.GK15_X]
    assert exc.value.abscissa == min(t for t in ts if 2.0 < t < 4.0)


def test_evaluation_error_names_leftmost_node():
    # Every node right of 0.5 is bad; the error names the leftmost of them
    # in the first panel, [0, 1], and the value found there.
    def f(x):
        return math.inf if x > 0.5 else 1.0

    with pytest.raises(EvaluationError) as exc:
        integrate(f, IntegrationDomain(0.0, 1.0))
    assert exc.value.abscissa == min(0.5 + 0.5 * x for x in q.GK15_X if x > 0.0)
    assert exc.value.value == math.inf


def test_integrate_array_matches_integrate():
    # Runge's function with a kink at 0.3: the panel integrand maps the
    # scalar one over the 15 nodes, so the two entry points must give the
    # same bits.
    dom, cuts = IntegrationDomain(-1.0, 2.0), (0.3,)
    f = lambda x: abs(x - 0.3) / (1.0 + 25.0 * x * x)
    fv = lambda xs: [f(x) for x in xs]
    r = integrate(f, dom, tol=1e-12, breakpoints=cuts)
    ra = integrate_array(fv, dom, tol=1e-12, breakpoints=cuts)
    assert r.n_evals > 15 * len(cuts) + 15
    assert (ra.value, ra.err_estimate, ra.n_evals) == (r.value, r.err_estimate, r.n_evals)

    seen = []

    def nan_at_one_node(xs):
        y = fv(xs)
        y[3] = math.nan
        seen.append(float(xs[3]))
        return y

    with pytest.raises(EvaluationError) as exc:
        integrate_array(nan_at_one_node, dom, breakpoints=cuts)
    assert exc.value.abscissa == seen[0]
    assert math.isnan(exc.value.value)

    with pytest.raises(ValueError, match="finite domain"):
        integrate_array(fv, IntegrationDomain(0.0))
    with pytest.raises(ValueError, match="tolerance"):
        integrate_array(fv, dom, tol=0.0)


@pytest.mark.parametrize("count", [14, 16])
def test_panel_integrand_value_count_is_checked(count):
    # One call carries several panels, so a wrong count would shift every
    # later panel's values; it must be refused, naming both counts.
    with pytest.raises(ValueError, match=f"returned {count} values for 15 nodes"):
        integrate_array(lambda xs: [1.0] * count, IntegrationDomain(0.0, 1.0))


def _literal(panel, lo, hi, tol, cuts):
    # The loop in its one-panel-per-call shape: each first panel, then each
    # half of a split, is its own call of the rule.  The budget and stall
    # exits are left out; the integrands drawn below never reach them.
    rule = lambda a, b: q._gk15(panel, [(a, b)])[0]
    edges = [lo] + [b for b in sorted(set(cuts)) if lo < b < hi] + [hi]
    heap, live, frozen, n = [], 0.0, [], 0
    for serial, (a, b) in enumerate(zip(edges, edges[1:])):
        v, e = rule(a, b)
        heapq.heappush(heap, (-e, serial, a, b, v, e))
        live, n = live + e, n + 15
    serial = len(heap)
    while heap and sum(e for _, e in frozen) <= tol < live + sum(e for _, e in frozen):
        _, _, a, b, v, e = heapq.heappop(heap)
        live -= e
        if (b - a) < q._WIDTH_FLOOR * max(1.0, abs(a), abs(b)):
            frozen.append((v, e))
            continue
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = rule(a, m), rule(m, b)
        heapq.heappush(heap, (-e1, serial, a, m, v1, e1))
        heapq.heappush(heap, (-e2, serial + 1, m, b, v2, e2))
        serial, live, n = serial + 2, live + e1 + e2, n + 30
    parts = [item[4:] for item in heap] + frozen
    return math.fsum(v for v, _ in parts).hex(), math.fsum(e for _, e in parts).hex(), n


@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    st.floats(0.5, 6.0),
    st.floats(-0.9, 1.9),
    st.lists(st.floats(-1.0, 2.0), max_size=3),
    st.sampled_from([1e-6, 1e-9, 1e-11]),
)
@settings(max_examples=30, deadline=None)
def test_batched_panels_match_one_panel_per_call(c, freq, kink, cuts, tol):
    # A second path for the batching: every entry point must give the bits
    # and the evaluation count of the literal loop, one panel per call.
    f = lambda x: _poly(c, x) * math.cos(freq * x) + abs(x - kink)
    fv = lambda xs: [f(x) for x in xs]
    want = _literal(fv, -1.0, 2.0, tol, cuts)
    dom = IntegrationDomain(-1.0, 2.0)
    assert _pin(integrate(f, dom, tol, cuts)) == want

    calls = []

    def recorded(xs):
        calls.append(xs)
        return fv(xs)

    assert _pin(integrate_array(recorded, dom, tol, cuts)) == want
    first = len({b for b in cuts if -1.0 < b < 2.0}) + 1
    assert len(calls[0]) == 15 * first
    assert all(len(xs) == 30 for xs in calls[1:])
    assert all(x <= y for xs in calls for x, y in zip(xs, xs[1:]))

    # A ray with breakpoints: the same loop on the mapped integrand in u.
    rate, lo = 1.0 + freq / 3.0, kink
    g = lambda t: math.exp(-rate * (t - lo)) * (c[0] + abs(t - kink - 1.0))

    def mapped(us):
        ft = [g(lo - math.log1p(-u)) if u < 1.0 else 0.0 for u in us]
        return [0.0 if abs(y) < 1e-300 else y / (1.0 - u) for u, y in zip(us, ft)]

    ray_cuts = [b for b in cuts if b > lo] + [kink + 1.0]
    ray = integrate(g, IntegrationDomain(lo), tol, ray_cuts)
    assert _pin(ray) == _literal(mapped, 0.0, 1.0, tol, [-math.expm1(-(b - lo)) for b in ray_cuts])

    # A measure, cold and with a warm memo: the density's breakpoints are
    # the first cuts, and each panel takes the piece of its centre node.
    bp = (-1.0, min(max(kink, -0.5), 0.5), 1.0)
    pieces = (lambda x: 1.0 + x * x, lambda x: math.cos(freq * x) + 2.0)
    m = Measure(PiecewiseSmoothFn(bp, pieces, (False, True, False)))
    nodes = []

    def h(x):
        nodes.append(x)
        return f(x)

    def density_panel(xs):
        piece = pieces[bisect.bisect_right(bp, xs[7]) - 1]
        return [f(x) * piece(x) for x in xs]

    want = _literal(density_panel, bp[0], bp[-1], tol, bp[1:-1])
    cold = integrate_measure_with_err(h, m, tol, {})
    assert (cold.value.hex(), cold.err_estimate.hex(), len(nodes)) == want
    memo = {}
    loose = _literal(density_panel, bp[0], bp[-1], 1e-4, bp[1:-1])
    integrate_measure_with_err(h, m, 1e-4, memo)
    nodes.clear()
    warm = integrate_measure_with_err(h, m, tol, memo)
    assert (warm.value.hex(), warm.err_estimate.hex()) == want[:2]
    assert len(nodes) == want[2] - loose[2]


def _pin(r):
    return r.value.hex(), r.err_estimate.hex(), r.n_evals


def test_exact_bits():
    # Value, error estimate and evaluation count of a finite and a ray
    # integral with a breakpoint, the finite one through both entry points,
    # and the bytes of a composite rule: any change to the node layout or to
    # the order of the panel sums shows here.
    runge = ("0x1.c7744a2454c4bp-3", "0x1.1bd84cccccccdp-43", 330)
    dom, cuts = IntegrationDomain(-1.0, 2.0), (0.3,)
    r = integrate(lambda x: abs(x - 0.3) / (1.0 + 25.0 * x * x), dom, 1e-12, cuts)
    assert _pin(r) == runge
    ra = integrate_array(
        lambda xs: [abs(x - 0.3) / (1.0 + 25.0 * x * x) for x in xs], dom, 1e-12, cuts
    )
    assert _pin(ra) == runge
    ray = integrate(
        lambda t: math.exp(-t) * abs(t - 2.0), IntegrationDomain(0.0), 1e-12, breakpoints=(2.0,)
    )
    assert _pin(ray) == ("0x1.454aaa8efde92p+0", "0x1.0d2443dd6b215p-40", 1050)
    nodes, weights = composite_gk15(-1.1, 1.1, 37)
    assert nodes.shape == weights.shape == (37 * 15,)
    assert hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest() == (
        "4f2441736281ae50b374fc504ecfaf50bcbad47863c4f8e24f39ae8df24af1d7"
    )


def test_panel_memo_keeps_results():
    # No breakpoint at the kink, so the tight tol splits panels the loose one
    # never visits, and the loose tol's panels are among the tight one's.
    nodes = []

    def h(x):
        nodes.append(x)
        return math.exp(-x)

    m = Measure(PiecewiseSmoothFn((0.0, 1.0), (lambda x: math.sqrt(abs(x - 0.3)),), (False, False)))
    loose, tight = 1e-6, 1e-12
    cold, cold_evals = {}, {}
    for tol in (loose, tight):
        nodes.clear()
        cold[tol] = integrate_measure_with_err(h, m, tol)
        cold_evals[tol] = len(nodes)
    assert cold_evals[tight] > cold_evals[loose]

    memo = {}
    nodes.clear()
    assert integrate_measure_with_err(h, m, loose, memo) == cold[loose]
    assert integrate_measure_with_err(h, m, tight, memo) == cold[tight]
    assert len(nodes) == cold_evals[tight]

    memo = {}
    assert integrate_measure_with_err(h, m, tight, memo) == cold[tight]
    nodes.clear()
    assert integrate_measure_with_err(h, m, loose, memo) == cold[loose]
    assert nodes == []


def test_rounding_level_tol_fails_fast_with_its_reason():
    # Lemma 1's inner transform integral, x e^(s x) against phi_0 at the
    # largest s that check reaches, is about 45,483, where one ulp is 7.3e-12.
    # A tol under that is met, if ever, only by rounding luck; these two fail
    # quickly, each naming why.
    m = limits.limit_measure(0)
    s = 16.85280728362608
    start = time.perf_counter()
    for tol, why in (
        (1e-13, "the running error sum met tol, its exact sum did not"),
        (3e-14, "the error stalled"),
    ):
        with pytest.raises(ConvergenceError, match=why) as exc:
            integrate_measure_with_err(lambda x: x * math.exp(s * x), m, tol)
        assert exc.value.best.value == pytest.approx(45483.196, rel=1e-7)
    assert time.perf_counter() - start < 5.0


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


def _rise(x):
    return 1.0 + x


def _fall(x):
    return 1.0 - x


def _tent():
    # 1 - |x| on [-1, 1]; its pieces are module functions, so it pickles
    return PiecewiseSmoothFn((-1.0, 0.0, 1.0), (_rise, _fall), (True, True, True))


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
    # a nan breakpoint compares false both ways, and a compact support has
    # no infinite end
    for bp in ((-1.0, math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError):
            PiecewiseSmoothFn(bp, (piece,) * (len(bp) - 1), (True,) * len(bp))


def test_piecewise_fn_routing():
    # Two gaps with different pieces: each piece sees only nodes of its own
    # closed gap, and x e^x on [0, 1] plus x cos x on [1, 3] come out exact.
    seen = ([], [])

    def recorded(i, g):
        def piece(x):
            seen[i].append(x)
            return g(x)

        return piece

    d = PiecewiseSmoothFn(
        (0.0, 1.0, 3.0), (recorded(0, math.exp), recorded(1, math.cos)), (False, False, False)
    )
    assert d.support == (0.0, 3.0)
    val = integrate_measure_with_err(lambda x: x, Measure(d), tol=1e-14).value
    exact = 1.0 + 3.0 * math.sin(3.0) + math.cos(3.0) - math.sin(1.0) - math.cos(1.0)
    assert val == pytest.approx(exact, abs=1e-14)
    assert seen[0] and all(0.0 <= x <= 1.0 for x in seen[0])
    assert seen[1] and all(1.0 <= x <= 3.0 for x in seen[1])


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(_tent(), ((0.0, -1.0),))
    with pytest.raises(ValueError):
        Measure(_tent(), ((3.0, 1.0),))
    for atom in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            Measure(_tent(), (atom,))
    Measure(_tent(), ((1.0, 0.5),))  # boundary atom is fine


def test_density_plus_atom():
    # tent against e^x gives e + 1/e - 2; the atom at 0 adds its mass
    m = Measure(_tent(), ((0.0, 2.0),))
    exact = math.e + 1.0 / math.e - 2.0 + 2.0
    r = integrate_measure_with_err(math.exp, m, tol=1e-12)
    assert r.value == pytest.approx(exact, abs=1e-11)
    assert r.err_estimate >= 0.0
    assert abs(r.value - exact) <= max(1e-11, 10.0 * r.err_estimate)


def test_every_integral_returns_a_quadresult():
    # One record of an integral everywhere: value, error estimate and
    # evaluation count, with no bare tuple to unpack or index.
    dom = IntegrationDomain(0.0, 1.0)
    results = [
        integrate(math.exp, dom),
        integrate_array(lambda xs: [math.exp(x) for x in xs], dom),
        integrate_measure_with_err(math.exp, Measure(_tent(), ((0.0, 2.0),))),
        g_psi(0.48, limits.limit_measure(2)),
    ]
    for r in results:
        assert type(r) is QuadResult
        assert r.n_evals >= 15
        with pytest.raises(TypeError):
            tuple(r)
        with pytest.raises(TypeError):
            r[0]
        with pytest.raises(TypeError):
            value, err, n_evals = r


def _records():
    # Each record of the package twice, built from equal fields, with one
    # field name and a value that breaks that field's check.
    from rankbound import detector, mollifier

    tent = _tent()
    return [
        (lambda: QuadResult(1.5, 1e-12, 45), "value", None),
        (lambda: IntegrationDomain(0.0, 2.0), "hi", -1.0),
        (lambda: PiecewiseSmoothFn(tent.breakpoints, tent.pieces, tent.value_continuous),
         "breakpoints", (1.0, 0.0, -1.0)),
        (lambda: Measure(tent, ((0.0, 2.0),)), "atoms", ((0.0, -2.0),)),
        (lambda: detector.SyntheticH(2.0, 5.0), "rate", 0.0),
        (lambda: detector.DetectorBox(0.1, 0.0, 1.0), "t2", 0.0),
        (lambda: mollifier.MollifierParams(1000, 0.5, 0.05), "M", 1000.0),
    ]


def test_records_are_frozen_values():
    # Records compare and hash by their fields, as the frozen dataclasses
    # they replace did, refuse assignment, survive a deep copy and a pickle
    # round trip, and keep their checks through namedtuple's _replace.
    for make, field, bad in _records():
        r, twin = make(), make()
        assert r is not twin and r == twin and hash(r) == hash(twin)
        assert copy.deepcopy(r) == r
        assert pickle.loads(pickle.dumps(r)) == r
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
        if bad is not None:
            with pytest.raises(ValueError):
                r._replace(**{field: bad})
    want = "QuadResult(value=1.5, err_estimate=1e-12, n_evals=45)"
    assert repr(QuadResult(1.5, 1e-12, 45)) == want


def test_transform_memo_hits_on_a_fresh_copy():
    # laplace_density integrates a new atom-free Measure on every call; it
    # hashes and compares by its fields, so the second call is a memo hit.
    m = limits.limit_measure(2)
    s = 0.123456789  # a key no other test asks for
    info = limits._transform.cache_info
    limits.laplace_density(m, s)
    hits = info().hits
    assert limits.laplace_density(m, s) == limits.laplace(Measure(m.density), s)
    assert info().hits == hits + 2


def test_measure_n_evals_counts_each_atom_once():
    # The order-2 limit measure's three atoms add one evaluation each to the
    # count of its density alone, and their terms, in order, to its value.
    m = limits.limit_measure(2)
    h = lambda x: x * math.exp(0.5 * x)
    free = integrate_measure_with_err(h, Measure(m.density), 1e-12)
    full = integrate_measure_with_err(h, m, 1e-12)
    assert len(m.atoms) == 3
    # The four first panels and the halves of two splits: 8 panels of 15 nodes.
    assert (free.n_evals, full.n_evals) == (120, 123)
    want = free.value
    for loc, mass in m.atoms:
        want += mass * h(loc)
    assert (full.value, full.err_estimate) == (want, free.err_estimate)


@pytest.mark.parametrize("loc, bad", [(0.0, math.nan), (1.0, math.inf)])
def test_non_finite_value_at_an_atom_raises(loc, bad):
    # No panel node lies on these atoms (0 is a breakpoint of the tent and 1
    # the end of its support), so only the atoms' own check can see them.
    m = Measure(_tent(), ((0.0, 2.0), (1.0, 0.5)))
    with pytest.raises(EvaluationError) as exc:
        integrate_measure_with_err(lambda x: bad if x == loc else math.exp(x), m)
    assert exc.value.abscissa == loc
    assert not math.isfinite(exc.value.value)
