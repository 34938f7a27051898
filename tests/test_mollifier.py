"""Arithmetic tables, mollifier coefficients y_k, and the quadratic form S.

Everything here is a finite sum, so oracles are literal re-summations in
plain Python; the frozen constants were produced by those oracles once and
pinned.
"""

import cmath
import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rankbound import mollifier
from rankbound.mollifier import (
    ArithTable,
    MollifierParams,
    s_sums,
    truncated_zeta_check,
    truncated_zeta_error_scale,
    y_k_bruteforce,
    zeta_vals,
)

ZETA_11 = 10.5844484649508098263864007917
ZETA_PRIME_11 = -99.9281630757707224275721438547

# s_sums at M = 10^5, a = 1/2; finite rational-weight sums, frozen exactly.
S_AT = {
    0.02: (3.782774737173384, 0.30053475448136296, 0.6850898558002992, 2.7971501268917214),
    0.05: (1.5627541007917272, 0.5866530570263391, 0.3911037105917367, 0.5849973331736514),
    0.1: (1.0838303041767696, 0.8237629677499091, 0.15747253035549086, 0.10259480607136943),
}


@pytest.fixture(scope="module")
def table():
    return ArithTable(100000)


@pytest.fixture(scope="module")
def small_table():
    return ArithTable(400)


def _trial_factorize(n):
    out, p = [], 2
    while n > 1:
        if n % p:
            p += 1
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def _trial_mu(n):
    fac = _trial_factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def test_sieve_against_trial_division(small_table):
    for n in range(1, 401):
        assert int(small_table.mu[n]) == _trial_mu(n)
    assert small_table.primes.tolist() == [
        n for n in range(2, 401) if _trial_factorize(n) == [(n, 1)]
    ]


def _per_prime_tables(limit, exponents):
    # one strided pass per prime, in ascending order: the table's old loops
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    primes = np.nonzero(is_prime)[0]
    spf = np.arange(limit + 1)
    for p in primes[::-1].tolist():  # descending, so the smallest factor writes last
        spf[p::p] = p
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes:
        p = int(p)
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0
    omegas = []
    for s in exponents:
        tbl = np.ones(limit + 1)
        for p in primes:
            tbl[int(p) :: int(p)] *= 1.0 / (1.0 - float(p) ** (-s))
        omegas.append(tbl)
    return spf, primes, mu, omegas


@pytest.mark.parametrize("limit", [2, 3, 8, 9, 10, 48, 49, 50, 97, 1000, 30030, 100001, 300007])
def test_arith_table_matches_per_prime_loop(limit, monkeypatch):
    # squares of primes and their neighbours, where isqrt(limit) is prime and
    # the split between strided and cofactor primes moves.  Each limit is
    # checked as a view of the sieve held for 10^6, and as a sieve built at
    # exactly the limit with none held before.
    exponents = (1.04, 1.1, 1.2, 1.5, 3.0)
    spf, primes, mu, omegas = _per_prime_tables(limit, exponents)
    # base(k) = mu(k)^2 times the product over p | k of 1/(p^s - 1)
    base = np.square(mu).astype(float)
    for p in primes.tolist():
        base[p::p] *= 1.0 / (float(p) ** 1.04 - 1.0)
    big = ArithTable(1_000_000)
    view = ArithTable(limit)
    assert np.shares_memory(view.spf, big.spf)
    monkeypatch.setattr(mollifier, "_held", None)
    built = ArithTable(limit)
    assert mollifier._held.limit == limit and not np.shares_memory(built.spf, big.spf)
    for t in (view, built):
        assert np.array_equal(t.spf, spf)
        assert np.array_equal(t.primes, primes)
        assert np.array_equal(t.mu, mu)
        for s, want in zip(exponents, omegas):
            assert np.array_equal(t.omega_table(s).view(np.int64), want.view(np.int64))
        assert np.array_equal(t.base_vector(0.02).view(np.int64), base.view(np.int64))


@pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
def test_base_vector_against_omega_table(table, delta):
    # base(k) = prod over p | k of 1/(p^s - 1) against its definition
    # mu(k)^2 omega_s(k) k^-s, whose factors round differently
    s = 1.0 + 2.0 * delta
    k_pow = np.array([0.0] + [float(k) ** (-s) for k in range(1, table.limit + 1)])
    want = np.square(table.mu, dtype=float) * table.omega_table(s) * k_pow
    got = table.base_vector(delta)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 4e-15


def test_base_vector_memo_is_bounded(monkeypatch):
    # The memo is keyed on caller-supplied deltas: a fifth delta evicts the
    # oldest, which comes back with the same bits, and the last four stay.
    # Each call returns a new view, so a vector that stays is the same
    # buffer the memo holds.
    monkeypatch.setattr(mollifier, "_held", None)
    t = ArithTable(400)
    deltas = (0.01, 0.02, 0.05, 0.1, 0.2)
    vecs = [t.base_vector(d) for d in deltas]
    assert all(np.shares_memory(t.base_vector(d), v) for d, v in zip(deltas[1:], vecs[1:]))
    again = t.base_vector(deltas[0])
    assert not np.shares_memory(again, vecs[0])
    assert np.array_equal(again.view(np.int64), vecs[0].view(np.int64))


def test_held_sieve_is_bounded(monkeypatch):
    # The module holds only the largest sieve: a smaller one lives as long
    # as its callers' tables, the memo lets go of its base vectors when the
    # larger sieve replaces it, and the memo keeps at most four base vectors
    # once its callers drop theirs.
    monkeypatch.setattr(mollifier, "_held", None)
    small = ArithTable(1000)
    small_sieve = weakref.ref(mollifier._held)
    small_vec = weakref.ref(small.base_vector(0.05).base)
    big = ArithTable(2000)
    assert ArithTable(1500).spf.base is big.spf.base
    # A second table at the held limit itself is a view too, not a rebuild.
    held = mollifier._held
    again = ArithTable(2000)
    for k in ("spf", "mu", "primes"):
        assert np.shares_memory(getattr(again, k), getattr(held, k))
    assert small_sieve() is not None
    del small
    gc.collect()
    assert small_sieve() is None and small_vec() is None
    vecs = [weakref.ref(big.base_vector(d).base) for d in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)]
    gc.collect()
    assert [v() is not None for v in vecs] == [False, False, True, True, True, True]


def test_shared_tables_are_read_only():
    # Every table views the same held arrays, so a write through one table
    # would reach them all: it raises, and a later table keeps its bits.
    t = ArithTable(1000)
    arrays = (t.spf, t.mu, t.primes, t.base_vector(0.05))
    want = [a.tobytes() for a in arrays]
    for a in arrays:
        with pytest.raises(ValueError):
            a[4] = 7
        with pytest.raises(ValueError):
            a.flags.writeable = True
    later = ArithTable(1000)
    assert [a.tobytes() for a in (later.spf, later.mu, later.primes, later.base_vector(0.05))] == want


def test_sieve_limits(small_table):
    with pytest.raises(ValueError):
        small_table.check_n(401)
    with pytest.raises(ValueError):
        small_table.check_n(0)
    with pytest.raises(ValueError):
        ArithTable(1)


def test_arith_table_rejects_limit_past_int32(monkeypatch):
    # spf is int32, so the limit must stay below 2**31, and the check comes
    # before any table is built: here any use of numpy fails the test.
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"ArithTable used np.{name} before checking its limit")

    monkeypatch.setattr(mollifier, "np", NoNumpy())
    for limit in (2**31, 2**40):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            ArithTable(limit)


def test_params_validation():
    MollifierParams(100, 0.5, 0.05)
    MollifierParams(100, 0.5, 0.05, -3.0)
    for M, a, d, t in (
        (9, 0.5, 0.05, 0.0), (100, 0.0, 0.05, 0.0), (100, 1.0, 0.05, 0.0), (100, 0.5, 0.0, 0.0),
        (100, 0.5, math.inf, 0.0), (100, 0.5, math.nan, 0.0),
        (100, 0.5, 0.05, math.nan), (100, 0.5, 0.05, math.inf), (100, 0.5, 0.05, -math.inf),
    ):
        with pytest.raises(ValueError):
            MollifierParams(M, a, d, t)


def test_params_reject_non_integral_m(small_table):
    # a float M would fail only after the base vector is built
    for M in (1e5, 100.0, np.float64(100.0), "100"):
        with pytest.raises(ValueError, match="M must be an integer"):
            MollifierParams(M, 0.5, 0.05)
    want = s_sums(small_table, MollifierParams(400, 0.5, 0.05))
    for M in (np.int64(400), np.int32(400)):
        assert s_sums(small_table, MollifierParams(M, 0.5, 0.05)) == want


def g_cap(M: float, a: float, x: float) -> float:
    """Logarithmic taper of the mollifier: 1 up to M^a, log-linear down to 0 at M."""
    if x <= 0.0:
        raise ValueError("taper defined for x > 0")
    if M <= 1.0 or not 0.0 < a < 1.0:
        raise ValueError("need M > 1 and a in (0, 1)")
    if x >= M:
        return 0.0
    if x <= M**a:
        return 1.0
    return math.log(x / M) / ((a - 1.0) * math.log(M))


def test_g_cap_shape():
    M, a = 1000.0, 0.5
    knee = M**a
    assert g_cap(M, a, 0.5) == 1.0
    assert g_cap(M, a, knee) == 1.0
    assert g_cap(M, a, M) == 0.0
    assert g_cap(M, a, 2.0 * M) == 0.0
    mid = g_cap(M, a, math.sqrt(knee * M))
    assert mid == pytest.approx(0.5, abs=1e-12)
    xs = [knee * (M / knee) ** (k / 20.0) for k in range(21)]
    vals = [g_cap(M, a, x) for x in xs]
    assert all(u >= v - 1e-15 for u, v in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        g_cap(M, a, 0.0)
    with pytest.raises(ValueError):
        g_cap(1.0, a, 2.0)


def _y_k_naive(table, k, p):
    # literal triple loop straight from the definition, eta_t(m) as the sum
    # over m = u w of (u/w)^{i t}; slow but transparent
    M, a, delta, t = p.M, p.a, p.delta, p.t
    mu = table.mu
    if k > M or mu[k] == 0:
        return 0j
    total = 0j
    for m in range(1, M // k + 1):
        if mu[m] == 0:
            continue
        eta = sum(
            math.cos(t * (2.0 * math.log(u) - math.log(m)))
            for u in range(1, m + 1)
            if m % u == 0
        )
        for n in range(1, M // (k * m) + 1):
            kmn = k * m * n
            if mu[kmn] == 0:
                continue
            g = g_cap(float(M), a, float(kmn))
            term = (
                int(mu[m])
                * eta
                * n ** complex(0.0, -t)
                * (m * n) ** complex(-(1.0 + 2.0 * delta), -t)
                * g
            )
            total += term
    return int(mu[k]) * k ** complex(-delta, -t) * total


@pytest.mark.parametrize("k", [1, 2, 6, 9, 15, 30, 77, 101, 199])
def test_y_k_against_naive_sum(small_table, k):
    for t in (0.0, 0.5):
        p = MollifierParams(200, 0.5, 0.07, t=t)
        got = y_k_bruteforce(small_table, k, p)
        want = _y_k_naive(small_table, k, p)
        assert cmath.isclose(got, want, abs_tol=1e-12) or got == want == 0j


def test_y_k_support(small_table):
    p = MollifierParams(200, 0.5, 0.07)
    assert y_k_bruteforce(small_table, 4, p) == 0j  # not squarefree
    assert y_k_bruteforce(small_table, 9, p) == 0j
    assert y_k_bruteforce(small_table, 201, p) == 0j  # beyond M
    with pytest.raises(ValueError):
        y_k_bruteforce(small_table, 0, p)


def test_y_k_main_term_trend(table):
    # y_k should track mu(k) omega_{1+2delta}(k) k^-delta / zeta(1+2delta),
    # with the relative gap shrinking for small k and staying moderate for
    # the composite ones at M = 10^5.
    delta = 0.1
    z, _ = zeta_vals(delta)
    om = table.omega_table(1.0 + 2.0 * delta)
    p = MollifierParams(100000, 0.5, delta)
    for k, cap in ((1, 0.01), (2, 0.01), (3, 0.01), (6, 0.08), (10, 0.08), (14, 0.08), (15, 0.08)):
        y = y_k_bruteforce(table, k, p)
        assert y.imag == 0.0  # t = 0
        main = int(table.mu[k]) * float(om[k]) * k ** (-delta) / z
        assert abs(y.real - main) / abs(main) < cap


@pytest.mark.parametrize("delta", sorted(S_AT))
def test_s_sums_frozen(table, delta):
    ss = s_sums(table, MollifierParams(100000, 0.5, delta))
    want = S_AT[delta]
    for got, ref in zip((ss.S, ss.S1, ss.S2, ss.S3), want):
        assert got == pytest.approx(ref, abs=1e-9)
    assert ss.S == pytest.approx(ss.S1 + ss.S2 + ss.S3, abs=1e-12)


# float.hex of all eight SSums fields.  A sha256 pins the 3 x 3 grid of
# (a, delta) at M = 10^5; the values themselves are pinned at M = 10^4 with
# a = 1/2 and 1/4, where M^a is an exact integer, so the k = M^a boundary of
# the untapered prefix is pinned too.
S_SUMS_GRID_SHA256 = "9b0efc943be863e2782872d657717b67b11b6e09d2801c2e1e09babc08af17d7"
S_SUMS_AT_EXACT_KNEE = {
    0.5: (
        "0x1.d913302f81f1ep+0", "0x1.0a068fb95da26p-1", "0x1.d5f3197f8a30dp-2",
        "0x1.bd2643e5e1291p-1", "0x1.d2a31fa9580c8p-2", "0x1.f126fa6607f2fp-2",
        "0x1.d965d8a015b31p-1", "0x1.0c89d80872f8ap+1",
    ),
    0.25: (
        "0x1.9bec0fd091751p+0", "0x1.bded10a0736b7p-2", "0x1.0ccc78404ec3ep-1",
        "0x1.4c151f109a707p-1", "0x1.718e1e51027b4p-2", "0x1.23df9645b84b2p-1",
        "0x1.66049547e8537p-1", "0x1.d49220f605bf8p+0",
    ),
}


def test_s_sums_exact_bits(table):
    grid = [
        " ".join(v.hex() for v in s_sums(table, MollifierParams(100000, a, d)))
        for a in (0.3, 0.5, 0.7)
        for d in (0.02, 0.05, 0.1)
    ]
    assert hashlib.sha256("\n".join(grid).encode()).hexdigest() == S_SUMS_GRID_SHA256
    for a, want in S_SUMS_AT_EXACT_KNEE.items():
        assert (10000.0**a).is_integer()
        got = s_sums(table, MollifierParams(10000, a, 0.05))
        assert tuple(v.hex() for v in got) == want


def _s_sums_whole(table, p, total=np.sum):
    # s_sums with the tail sums taken in one pass over the whole tail, each
    # sum by ``total``
    M, a, d = p.M, p.a, p.delta
    zeta, zeta_p = zeta_vals(d)
    base = table.base_vector(d)
    n_lo = math.floor(float(M) ** a)
    cap_l = (1.0 - a) * math.log(M)
    z = zeta_p / zeta
    low_sum = float(total(base[1 : n_lo + 1]))
    b_hi = base[n_lo + 1 : M + 1]
    lg_hi = np.log(float(M) / np.arange(n_lo + 1, M + 1, dtype=float))
    h0 = float(total(b_hi))
    h1 = float(total(b_hi * lg_hi))
    h2 = float(total(b_hi * lg_hi * lg_hi))
    hz = float(total(b_hi * (lg_hi - z) ** 2))
    L2 = cap_l * cap_l
    m2ad = float(M) ** (-2.0 * a * d)
    m2d = float(M) ** (-2.0 * d)
    return (
        (low_sum + hz / L2) / zeta,
        (low_sum + h2 / L2) / zeta,
        -2.0 * zeta_p / (zeta * zeta) * h1 / L2,
        zeta_p * zeta_p / (zeta**3) * h0 / L2,
        1.0 + (1.0 / (d * cap_l)) * ((m2ad - m2d) / (2.0 * d * cap_l) - m2ad),
        -2.0 * (zeta_p / (zeta * zeta)) / cap_l * ((m2d - m2ad) / (4.0 * d * d * cap_l) + m2ad / (2.0 * d)),
        (zeta_p * zeta_p / zeta**3) * (m2ad - m2d) / (2.0 * d * L2),
        1.0 + (m2ad - m2d) / (4.0 * d * d * (1.0 - a) ** 2 * math.log(M) ** 2),
    )


@pytest.fixture(scope="module")
def big_table():
    return ArithTable(1_000_000)


# Blocks end at multiples of 2^17 = 131,072.  300,000 and 10^6 span 3 and 8
# blocks, the last one short.  At 262,656 = 2^18 + 512 and a = 1/2 the tail
# runs from 513 through a short first block, one full block and a last block
# of 512 entries.  2^17 + 1 ends in a block of one entry, and 2^18 in a full
# block.  a = None stands for the a at which floor(M^a) is 2^18, so the
# first block of the tail is a full one.
@pytest.mark.parametrize(
    "a, delta, M",
    [
        (a, delta, M)
        for M in (300_000, 1_000_000, 262_656, 2**17 + 1, 2**18)
        for a, delta in ((0.3, 0.02), (0.5, 0.05), (0.7, 0.1))
    ]
    + [(None, 0.05, 1_000_000)],
)
def test_streamed_s_sums_match_whole_tail(big_table, M, a, delta):
    if a is None:
        a = math.log(2**18 + 0.5) / math.log(M)
        assert math.floor(float(M) ** a) == 2**18
    p = MollifierParams(M, a, delta)
    got = s_sums(big_table, p)
    for g, w in zip(got, _s_sums_whole(big_table, p)):
        assert abs(g - w) <= 1e-13 * abs(w)
    assert abs(got.S - (got.S1 + got.S2 + got.S3)) <= 1e-12


def test_s_sums_memory_stays_at_block_size(big_table):
    # The taper sums use two buffers a block long (1 MiB each), not M long:
    # one pass over the whole tail peaks at 15 MiB here.
    p = MollifierParams(1_000_000, 0.3, 0.05)
    big_table.base_vector(p.delta)
    tracemalloc.start()
    try:
        s_sums(big_table, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_s_sums_memo_keeps_the_bits(big_table):
    # A query's bits do not depend on what came before it: cold, with the
    # base vector and its moments built afresh, and after queries at other
    # (M, a), at the same delta and others.
    p = MollifierParams(1_000_000, 0.6, 0.05)
    mollifier._base.cache_clear()
    cold = s_sums(big_table, p)
    for M, a, d in ((1_000_000, 0.3, 0.05), (300_000, 0.6, 0.05), (700_000, 0.5, 0.1)):
        s_sums(big_table, MollifierParams(M, a, d))
    warm = s_sums(big_table, p)
    assert [v.hex() for v in warm] == [v.hex() for v in cold]


@pytest.mark.parametrize("M", [2**17 + 1, 2**18, 262_656, 1_000_000])
@pytest.mark.parametrize("a, delta", [(0.3, 0.02), (0.5, 0.05), (0.7, 0.1)])
def test_s_sums_block_moments_match_fsum(big_table, M, a, delta):
    # The whole blocks of the tail come from their moments; the sums stay
    # within 1e-14 of correctly rounded ones.  2**17 + 1 ends in a block of
    # one entry, and 2**18 in a full block.
    p = MollifierParams(M, a, delta)
    got = s_sums(big_table, p)
    for g, w in zip(got, _s_sums_whole(big_table, p, math.fsum)):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_s_sums_same_bits_from_any_held_sieve(monkeypatch):
    # A block's moments come from its own base values, so a table whose
    # sieve was built at M and a view of a larger held sieve give the same
    # bits; the larger sieve holds whole blocks where the smaller one ends
    # short.
    queries = [MollifierParams(M, a, 0.05) for M in (262_656, 1_000_000) for a in (0.3, 0.6)]
    monkeypatch.setattr(mollifier, "_held", None)
    views = [s_sums(ArithTable(1_200_000), p) for p in queries]
    for p, view in zip(queries, views):
        monkeypatch.setattr(mollifier, "_held", None)
        built = s_sums(ArithTable(p.M), p)
        assert mollifier._held.limit == p.M
        assert [v.hex() for v in built] == [v.hex() for v in view]


def test_s_sums_sums_at_most_two_blocks(big_table, monkeypatch):
    # At a delta already held, a query sums directly only its first block
    # and its last, partial one, however many blocks its tail spans.
    calls = []
    tail_block = mollifier._tail_block

    def counted(*args):
        calls.append(args[2:4])
        return tail_block(*args)

    big_table.base_vector(0.05)
    monkeypatch.setattr(mollifier, "_tail_block", counted)
    for M, a in ((2**18 + 1, 0.3), (2**19, 0.5), (987_654, 0.6), (1_000_000, 0.3)):
        calls.clear()
        s_sums(big_table, MollifierParams(M, a, 0.05))
        assert 1 <= len(calls) <= 2
    assert calls[-1] == (7 * 2**17 + 1, 1_000_001)


def test_s_sums_independent_of_t(table):
    p0 = MollifierParams(100000, 0.5, 0.05, t=0.0)
    p5 = MollifierParams(100000, 0.5, 0.05, t=0.5)
    assert s_sums(table, p0) == s_sums(table, p5)


@pytest.mark.parametrize("delta", [0.05, 0.1])
def test_s_matches_closed_form(table, delta):
    # allowance 10 delta M^(-2 a delta); at delta = 0.02 the closed form's
    # zeta'/zeta factor is still far from its limit at M = 10^5 and the gap
    # genuinely exceeds the allowance, so that point is exercised (and
    # reported) by the acceptance suite instead
    ss = s_sums(table, MollifierParams(100000, 0.5, delta))
    assert abs(ss.S - ss.closedS) <= 10.0 * delta * 100000 ** (-delta)


def test_truncated_zeta_identity(table):
    resid = truncated_zeta_check(table, 5000.5, 0.05)
    assert resid == pytest.approx(0.2814669950242594, abs=1e-9)
    scale = truncated_zeta_error_scale(5000.5, 0.05)
    assert scale == pytest.approx(0.1553552614484171, abs=1e-12)
    assert resid <= 10.0 * scale
    with pytest.raises(ValueError):
        truncated_zeta_check(table, 5000.0, 0.05)  # integer M' excluded
    for bad in (1.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="M' must exceed 1"):
            truncated_zeta_check(table, bad, 0.05)


def test_truncated_zeta_check_rejects_delta_before_building(table):
    # A delta that zeta_vals rejects builds no base vector and evicts none:
    # the memo sees no call at all.
    table.base_vector(0.05)
    info = mollifier._base.cache_info()
    for bad in (1.5, 0.0, math.nan):
        with pytest.raises(ValueError):
            truncated_zeta_check(table, 5000.5, bad)
    assert mollifier._base.cache_info() == info


def test_zeta_values():
    z, zp = zeta_vals(0.05)
    assert z == pytest.approx(ZETA_11, abs=1e-12)
    assert zp == pytest.approx(ZETA_PRIME_11, abs=1e-9)
    z2, _ = zeta_vals(0.5)
    assert z2 == pytest.approx(math.pi * math.pi / 6.0, abs=1e-13)
    # derivative consistent with a centered difference of zeta itself;
    # zeta_vals is parametrized by delta with s = 1 + 2 delta, hence the 2
    h = 1e-5
    za, _ = zeta_vals(0.05 + h / 2.0)
    zb, _ = zeta_vals(0.05 - h / 2.0)
    assert zp == pytest.approx((za - zb) / (2.0 * h), abs=1e-4)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            zeta_vals(bad)
