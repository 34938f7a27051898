"""Density kernels F and K, the functional G, and the tail integrals I+-."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from rankbound import kernels, limits
from rankbound.kernels import (
    big_f,
    big_k,
    c_const,
    g_psi,
    i_pm,
    i_pm_by_quadrature,
    verify_lemma1,
)
from rankbound.limits import limit_measure
from rankbound.quadrature import IntegrationDomain, integrate, integrate_measure_with_err

C_CONST = 11.0280277174132199103129240176

F_AT = {
    (1.0, 0.5): 0.147506988342891015187658161334,
    (0.48, 0.5): 0.0470096940974311799346464459136,
}

K_AT = {
    (1.0, 1.0): 0.0687776775598900676913683411123,
    (1.0, -1.0): 0.0150840709206511072695476407025,
    (1.0, 0.3): 0.0387658622391265953438912681142,
    (0.48, 1.0): 0.012414762555901071180665108799,
    (0.48, -1.0): 0.00338574018154611525621211353624,
    (0.48, 0.0): 0.00640109111089756778292681502184,
}

# Values inside the short Taylor window around the removable point of the
# E-ratio; these pin the series branch against an independent evaluation.
K_NEAR_SEAM = {
    (1.0, 0.9995): 0.068747544032371867625,
    (1.0, -0.99975): 0.015086671625489512253,
    (0.48, -0.9995): 0.0033868016127350575102,
}

G_AT = {
    (1.0, 0): 0.153536030502640879525370488795,
    (1.0, 1): 0.366667163113061656213637701631,
    (1.0, 2): 0.332084416959271414548617445205,
    (0.48, 0): 0.0481271471173599803543513318363,
    (0.48, 2): 0.0925500315580957156817089503092,
}

# Exact bits of K and G at tol 1e-10, recorded before the per-a edge values
# of K were cached; the cache must reproduce every bit.  The x grid enters
# both Taylor windows.
K_X = (-1.0, -0.9995, -0.5, 0.0, 0.5, 0.9995, 1.0)
K_HEX = {
    0.3: (
        "0x1.7af5826ae577cp-11",
        "0x1.7b12546a3d8abp-11",
        "0x1.fea62f2d84159p-11",
        "0x1.58f6b90bcc919p-10",
        "0x1.d3768c9b45fc8p-10",
        "0x1.3db41fafae9bfp-9",
        "0x1.3dcd446fc77e6p-9",
    ),
    0.48: (
        "0x1.bbc696b47a0e5p-9",
        "0x1.bbea34838acd8p-9",
        "0x1.304a5f65165eap-8",
        "0x1.a3807cfae2ad5p-8",
        "0x1.22fe22ff1a306p-7",
        "0x1.96ab3afa53dbap-7",
        "0x1.96ce9395254abp-7",
    ),
    1.0: (
        "0x1.ee465ba5ba159p-7",
        "0x1.ee71fefe91319p-7",
        "0x1.5ef1fa0e4a863p-6",
        "0x1.f99053ff7ab3dp-6",
        "0x1.7390795e45b26p-5",
        "0x1.1997057dd5f65p-4",
        "0x1.19b69f3d08714p-4",
    ),
}
G_HEX_048 = {0: "0x1.8a41f15d67267p-5", 2: "0x1.7b15bdec92973p-4"}


def test_c_const():
    assert c_const() == pytest.approx(C_CONST, abs=1e-13)
    assert c_const() == pytest.approx(4.0 * math.pi * math.cos(0.5), abs=1e-13)


def test_f_frozen_values():
    for (a, u), want in F_AT.items():
        assert big_f(a, u) == pytest.approx(want, abs=1e-12)


def test_f_domain():
    for a, u in ((1.2, 1.0), (0.0, 1.0), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            big_f(a, u)


def test_f_positive_and_monotone_in_a():
    for a in (0.3, 0.48, 0.7):
        for k in range(1, 41):
            u = 0.5 * k
            assert big_f(a, u) > 0.0
            assert big_f(1.0, u) > big_f(a, u)


def test_k_frozen_values():
    for (a, x), want in K_AT.items():
        assert big_k(a, x) == pytest.approx(want, abs=1e-12)
    for (a, x), want in K_NEAR_SEAM.items():
        assert big_k(a, x) == pytest.approx(want, abs=1e-7)


def test_k_exact_bits():
    for a, want in K_HEX.items():
        assert [big_k(a, x).hex() for x in K_X] == list(want)


def test_g_exact_bits():
    for order, want in G_HEX_048.items():
        assert g_psi(0.48, limit_measure(order), 1e-10).value.hex() == want


def test_k_one_e_call_per_node(monkeypatch):
    calls = []
    exp_e = kernels.exp_e

    def counted(z):
        calls.append(z)
        return exp_e(z)

    monkeypatch.setattr(kernels, "exp_e", counted)
    a = 0.4321  # used nowhere else, so its edge values are not cached yet
    big_k(a, 0.25)
    assert len(calls) == 3
    calls.clear()
    big_k(a, -0.5)
    assert calls == [0.5 * (2.0 / a + 0.5)]
    # Inside a Taylor window E at the edge comes from the per-a cache too.
    for x in (1.0, -1.0):
        calls.clear()
        big_k(a, x)
        assert calls == [0.5 * (2.0 / a - x)]


def test_g_panel_memo_keeps_bits(monkeypatch):
    # Cold single calls, each with a fresh memo, against calls that share
    # the per-(a, psi) panel memo across tols, tightest first and loosest
    # first: the value, the error and the evaluation count all hold, since
    # a memo hit counts as an evaluation.  At 1e-13 the order-1 integral
    # splits panels that the looser tols never visit.
    tols = (1e-13, 1e-10, 1e-8)
    cases = [(a, order) for a in (0.48, 1.0) for order in (0, 1, 2)]

    def pin(a, order, tol):
        r = g_psi(a, limit_measure(order), tol)
        return r.value.hex(), r.err_estimate.hex(), r.n_evals

    with monkeypatch.context() as m:
        m.setattr(kernels, "_panels", lambda a, psi: {})
        cold = {(a, order, tol): pin(a, order, tol) for a, order in cases for tol in tols}
    for sequence in (tols, tols[::-1]):
        kernels._panels.cache_clear()
        warm = {(a, order, tol): pin(a, order, tol) for tol in sequence for a, order in cases}
        assert warm == cold


@pytest.mark.parametrize("order, atoms", [(0, 0), (1, 0), (2, 3)])
def test_g_second_tol_evaluates_k_at_atoms_only(monkeypatch, order, atoms):
    calls = []
    big_k = kernels.big_k

    def counted(a, x):
        calls.append(x)
        return big_k(a, x)

    monkeypatch.setattr(kernels, "big_k", counted)
    kernels._panels.cache_clear()
    psi = limit_measure(order)
    g_psi(0.48, psi, 1e-10)
    assert len(calls) >= 15 + atoms
    calls.clear()
    g_psi(0.48, psi, 1e-8)
    assert len(calls) == atoms
    assert calls == [loc for loc, _ in psi.atoms]


def test_k_domain():
    with pytest.raises(ValueError):
        big_k(1.0, 1.1)
    with pytest.raises(ValueError):
        big_k(0.0, 0.5)
    big_k(1.0, 1.0 + 5e-13)  # quadrature jitter past the endpoint is fine


def test_k_positive_on_grid():
    for a in (0.3, 0.48, 0.7, 1.0):
        for k in range(-20, 21):
            assert big_k(a, k / 20.0) > 0.0


@pytest.mark.parametrize("a", [0.48, 0.7, 1.0])
@pytest.mark.parametrize("x", [-0.5, 0.0, 0.5, 0.9])
def test_k_is_the_exponential_moment_of_f(a, x):
    # K(a, x) = int_{1/2}^inf F(a, u) e^{xu} du, evaluated here by direct
    # quadrature with no shared code path
    ref = integrate(
        lambda u: big_f(a, u) * math.exp(x * u),
        IntegrationDomain(0.5),
        tol=1e-11,
    ).value
    assert big_k(a, x) == pytest.approx(ref, abs=1e-8)


def test_k_smooth_across_taylor_window():
    # second differences stay tame when x crosses into the series branch
    for a in (0.48, 1.0):
        xs = [1.0 - 2.5e-3 + k * 2.5e-4 for k in range(11)]
        vals = [big_k(a, x) for x in xs]
        d2 = [u - 2.0 * v + w for u, v, w in zip(vals, vals[1:], vals[2:])]
        assert max(abs(d) for d in d2) < 1e-7


def test_g_frozen_values():
    for (a, order), want in G_AT.items():
        assert g_psi(a, limit_measure(order)).value == pytest.approx(want, abs=1e-9)


def test_g_with_error_estimate():
    r = g_psi(1.0, limit_measure(0))
    assert r.err_estimate >= 0.0
    assert abs(r.value - G_AT[(1.0, 0)]) <= max(1e-9, 10.0 * r.err_estimate)


@pytest.mark.parametrize("order", [0, 2])
def test_g_n_evals_is_its_kernel_integral_count(order):
    psi = limit_measure(order)
    kernel = lambda x: x * big_k(0.48, x) * math.exp(0.5 * x)
    want = integrate_measure_with_err(kernel, psi, 1e-10).n_evals
    assert g_psi(0.48, psi, 1e-10).n_evals == want


def test_g_domain():
    with pytest.raises(ValueError):
        g_psi(0.0, limit_measure(0))
    with pytest.raises(ValueError):
        g_psi(1.2, limit_measure(0))


@pytest.mark.parametrize(
    "a,order", [(0.3, 0), (0.48, 0), (0.7, 1)]
)
def test_lemma1_identity(a, order):
    # both sides independently by quadrature
    assert verify_lemma1(a, limit_measure(order)) < 1e-6


# verify_lemma1 residuals, as float.hex: the `verify` CLI's four cases at its
# default tol, and the acceptance test's four at 1e-9.
LEMMA1_HEX = {
    1e-10: {
        (0.48, 0): "0x1.a2e4d80000000p-39",
        (0.48, 2): "0x1.d1c3000000000p-38",
        (0.7, 1): "0x1.6bcd780000000p-35",
        (0.25, 0): "0x1.b4fea80000000p-42",
    },
    1e-9: {
        (0.3, 0): "0x1.708a518000000p-37",
        (0.48, 0): "0x1.ab6b630000000p-35",
        (0.7, 1): "0x1.0393cb0000000p-32",
        (0.48, 2): "0x1.5399000000000p-34",
    },
}


def _lemma1_memos():
    return (limits._transform, kernels._big_f1, kernels._big_k1)


def test_lemma1_exact_bits_cold_and_warm():
    # The memos of the a-free values must not move a bit, whether a case
    # computes them (cold) or finds them (warm).
    for tol, cases in LEMMA1_HEX.items():
        for memo in _lemma1_memos():
            memo.cache_clear()
        for sweep in ("cold", "warm"):
            got = {(a, o): verify_lemma1(a, limit_measure(o), tol).hex() for a, o in cases}
            assert got == cases, sweep


def test_lemma1_second_a_adds_no_transform():
    # Lemma 1's integrals run the same nodes at every a, so a second a at the
    # same order and tol finds every a-free value in the memos.
    m = limit_measure(1)
    verify_lemma1(0.41, m, 1e-9)
    before = [memo.cache_info().misses for memo in _lemma1_memos()]
    verify_lemma1(0.63, m, 1e-9)
    assert [memo.cache_info().misses for memo in _lemma1_memos()] == before


def test_lemma1_excludes_endpoint():
    # the a^2/(1-a)^2 prefactor is singular at a = 1
    with pytest.raises(ValueError):
        verify_lemma1(1.0, limit_measure(0))


def test_i_pm_sign_spellings():
    # only the two strings name a sign; the integers are not aliases
    assert i_pm(0.5, 1.0, "+") != i_pm(0.5, 1.0, "-")
    for bad in ("x", 1, -1):
        with pytest.raises(ValueError, match="sign must be"):
            i_pm(0.5, 1.0, bad)
        with pytest.raises(ValueError, match="sign must be"):
            i_pm_by_quadrature(0.5, 1.0, bad)
    with pytest.raises(ValueError):
        i_pm(1.5, 1.0, "+")
    with pytest.raises(ValueError):
        i_pm(0.5, 0.0, "+")


def test_i_pm_large_argument():
    # the '-' branch must survive u where e^u alone overflows; the true
    # value there is below the double floor, so the answer is a clean zero
    # rather than inf * 0 = nan
    got = i_pm(0.5, 800.0, "-")
    assert math.isfinite(got)
    assert got == 0.0
    # moderate u keeps a genuinely positive value
    assert i_pm(0.9, 150.0, "-") > 0.0


@given(
    st.floats(0.1, 0.95),
    st.floats(0.05, 5.0),
    st.sampled_from(["+", "-"]),
)
@settings(max_examples=60, deadline=None)
def test_i_pm_matches_quadrature(a, u, sign):
    assert i_pm(a, u, sign) == pytest.approx(
        i_pm_by_quadrature(a, u, sign), abs=1e-7
    )
