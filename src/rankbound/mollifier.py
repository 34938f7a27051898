"""Brute-force arithmetic side: sieves, mollifier coefficients, and the
quadratic sums S, S1, S2, S3 with their closed-form main terms.

Everything here is a finite sum over the integers up to M, vectorized over
the sieved tables, which is the point: the analytic closed forms elsewhere
in the pipeline are verified against these exact sums at concrete M.

An ArithTable is a read-only prefix view of one sieve held per process, the
largest built so far; a table at a smaller limit costs no sieving, and no
base vector that the memo ``_base`` already has.

The tables are as long as M; the taper sums of ``s_sums`` cost O(2**17)
whatever M is.  ``_base`` keeps, beside each base vector, four moments of
every whole block of 2**17 entries, and ``s_sums`` takes each whole block of
its tail from them; it sums directly only the first block of the tail, which
depends on a, and the last, partial one.  Any M up to 2**17, M = 1e5 among
them, is one block summed directly.
"""
from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from itertools import chain, repeat

import numpy as np

from .quadrature import _checked_make

__all__ = [
    "MollifierParams",
    "ArithTable",
    "SSums",
    "y_k_bruteforce",
    "s_sums",
    "truncated_zeta_check",
    "truncated_zeta_error_scale",
    "zeta_vals",
]


class MollifierParams(namedtuple("MollifierParams", "M a delta t")):
    """Mollifier length M, cutoff exponent a, shift delta, and height t."""

    __slots__ = ()

    def __new__(cls, M: int, a: float, delta: float, t: float = 0.0):
        # M indexes the tables; a float M would fail only after the base
        # vector is built.  numpy ints are Integral too.
        if not isinstance(M, numbers.Integral):
            raise ValueError(f"M must be an integer, not {M!r}")
        if M < 10:
            raise ValueError("M must be at least 10")
        if not 0.0 < a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if not 0.0 < delta < math.inf:
            raise ValueError("delta must be finite and positive")
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        return tuple.__new__(cls, (M, a, delta, t))

    _make = _checked_make


# Base vectors, with their block moments, kept by ``_base``: the CLI uses 2
# deltas, the acceptance tests 3 and the bench's jobs 3 in all.
_MEMO = 4

# Entries per block of the tail sums in s_sums and of the moments that
# ``_base`` keeps; block j holds the k in (j 2**17, (j + 1) 2**17].  2**17 is
# the smallest power of two that holds the whole tail (n_lo, M] at M = 1e5,
# so every pinned sum and every printed residual is one block: the same numpy
# sums, bit for bit, as one pass over the whole tail.  A larger M moves only
# in the last bits.
_BLOCK = 1 << 17


def _prime_pows(primes: np.ndarray, e: float) -> np.ndarray:
    """float(p) ** e for every prime p by the scalar pow, taken in chunks of
    2**14 so that no list of all the primes exists."""
    n, step = primes.size, 1 << 14
    chunks = (primes[i : i + step].tolist() for i in range(0, n, step))
    return np.fromiter(chain.from_iterable(map(pow, c, repeat(e)) for c in chunks), float, n)


def _multiply_in(tbl: np.ndarray, primes: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Multiply factors[i] into tbl[k] for every multiple k of primes[i], for
    k up to limit = tbl.size - 1, with primes all the primes up to limit.
    Some prime lies in (r, 2 r] (Bertrand), so ``large`` is never empty."""
    limit = tbl.size - 1
    n = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for p, f in zip(primes[:n].tolist(), factors[:n].tolist()):
        tbl[p::p] *= f
    large, f_large = primes[n:], factors[n:]
    for j in range(1, limit // int(large[0]) + 1):
        m = int(np.searchsorted(large, limit // j, side="right"))
        tbl[j * large[:m]] *= f_large[:m]
    return tbl


class _Sieve:
    """The full-length tables behind every ArithTable of the process, all
    read-only: ``spf``, ``primes`` and ``mu`` up to ``limit``."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        n = limit + 1
        spf = np.zeros(n, dtype=np.int32)  # every entry is at most limit
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == 0:
                seg = spf[i * i :: i]
                seg[seg == 0] = i
        # No strided pass reaches 0, 1 or a prime, and every composite has a
        # prime factor up to isqrt(limit); so the zeros left are 0, 1 and
        # the primes, in order.
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest  # remaining entries are prime (and 0, 1 map to themselves)
        primes = rest[2:].copy()  # an owner, so that its views stay read-only
        mu = _multiply_in(np.ones(n, dtype=np.int8), primes, np.full(primes.size, -1, np.int8))
        mu[0] = 0
        for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
            mu[p * p :: p * p] = 0
        for arr in (spf, primes, mu):
            arr.flags.writeable = False
        self.spf, self.primes, self.mu = spf, primes, mu


# Keyed on the sieve, which hashes by identity, so a table's vector comes
# from its own sieve.  ArithTable empties the memo when it replaces the held
# sieve; until then an old table that asks for a vector keeps its sieve
# alive while that entry stays.
@functools.lru_cache(maxsize=_MEMO)
def _base(sieve: _Sieve, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The sieve's full-length base vector at delta and the moments of its
    whole blocks, both read-only.

    Row j of the moments is (c, P0, P1, P2) for block j, the k in
    (j 2**17, (j + 1) 2**17], for every j >= 1 with (j + 1) 2**17 <= limit:
    c = (j + 1/2) 2**17 is the block's midpoint and P_i the sum over the
    block of base[k] u^i, with u = log(c / k) and so |u| <= log(3/2) < 0.41;
    ``_tail_block`` sums them.  Row 0 is NaN, since block 0 always holds the
    first k of a tail, which ``s_sums`` sums directly.  A row is summed from
    its own block's base values alone, so any sieve that holds the whole
    block gives its bits.
    """
    factors = 1.0 / (_prime_pows(sieve.primes, 1.0 + 2.0 * delta) - 1.0)
    vec = _multiply_in(np.square(sieve.mu, dtype=float), sieve.primes, factors)
    moments = np.full((sieve.limit // _BLOCK, 4), math.nan)
    buf = np.empty(_BLOCK)
    for j in range(1, len(moments)):
        c = (j + 0.5) * _BLOCK
        moments[j] = c, *_tail_block(vec, c, j * _BLOCK + 1, (j + 1) * _BLOCK + 1, 0.0, buf)[:3]
    for arr in (vec, moments):
        arr.flags.writeable = False
    return vec, moments


# The largest sieve built in this process; ArithTable replaces it only with a
# larger one.
_held: _Sieve | None = None


class ArithTable:
    """Sieved tables up to ``limit`` (below 2**31): smallest prime factors
    ``spf`` (int32), the ``primes``, Mobius values ``mu`` (int8), and per
    exponent the multiplicative tables omega and the base weights.

    A table is a read-only prefix view of the one sieve the process holds,
    the largest built so far: ``spf``, ``mu`` and ``primes`` are its first
    entries, and ``base_vector`` slices its full-length vector.  A limit
    past the held sieve's builds a new one at exactly that limit, and the
    module lets go of the old one first.  Every entry is a prefix because
    none depends on the limit: spf, mu and the primes are facts about k, and
    the multiplicative tables below multiply k's prime factors in ascending
    order at any limit, so a view has the bits of a table built at its own
    limit.  The held sieve and the last ``_MEMO`` base vectors, with their
    block moments (``_base``), stay resident after the callers' tables are
    gone (at 3e6, 17 MB of sieve and 24 MB per vector); a delta new to the
    memo costs one base vector at the held size, however small the table
    asking.  The arrays are read-only because every table shares them.

    Every k <= limit has at most one prime factor above r = isqrt(limit); it
    divides k to the first power and is k's largest prime factor (Bays and
    Hudson, BIT 17, 1977).  So only the small primes, p <= r, get a strided
    pass of their own.  The large primes are covered by cofactor: for each
    j = 1 .. limit // (r + 1) one pass reaches j p for every large p <=
    limit / j at once (``_multiply_in``).  The small passes run in ascending
    order and the large prime of k comes last, so a multiplicative table is
    the same product, in the same order, as one strided pass per prime in
    ascending order gives; mu is integer, where order does not matter.

    One pow path: p^s comes from the builtin scalar pow (libm's), once per
    prime, because numpy's vectorised pow differs from it in the last bit
    for many p, by the SIMD width it dispatches to.  Every other step is
    +, -, * or /, correctly rounded at any width: the bits hold on any host.
    """

    def __init__(self, limit: int) -> None:
        global _held
        limit = int(limit)
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        if limit >= 2**31:
            raise ValueError("sieve limit must be below 2**31")
        if _held is None or _held.limit < limit:
            _held = None  # let go of the old sieve and its vectors first
            _base.cache_clear()
            _held = _Sieve(limit)
        self._sieve = sieve = _held
        self.limit = limit
        self.spf = sieve.spf[: limit + 1]
        self.mu = sieve.mu[: limit + 1]
        self.primes = sieve.primes[: int(np.searchsorted(sieve.primes, limit, side="right"))]

    def check_n(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside sieve range [1, {self.limit}]")

    def omega_table(self, s: float) -> np.ndarray:
        """omega_s(k) = prod over p | k of (1 - p^-s)^-1, for all k <= limit (uncached)."""
        factors = 1.0 / (1.0 - _prime_pows(self.primes, -s))
        return _multiply_in(np.ones(self.limit + 1), self.primes, factors)

    def base_vector(self, delta: float) -> np.ndarray:
        """mu(k)^2 omega_{1+2delta}(k) k^{-1-2delta} for all k <= limit: for
        squarefree k, the product over p | k of 1/(p^s - 1), s = 1 + 2 delta.
        A read-only prefix of the sieve's full-length vector."""
        return _base(self._sieve, delta)[0][: self.limit + 1]


def y_k_bruteforce(table: ArithTable, k: int, p: MollifierParams) -> complex:
    """The mollifier coefficient y_k, summed exactly over the integers.

    By definition y_k = mu(k) k^{-delta - i t} * sum over m, n with
    k m n <= M of mu(k m n)^2 mu(m) eta_t(m) n^{-i t}
    (m n)^{-(1 + 2 delta + i t)} g(k m n), with g the taper and
    eta_t(m) = sum over m = u w of (u/w)^{i t}.  Grouping by j = m n
    leaves the inner sum over m n = j of mu(m) eta_t(m) n^{-i t}, which
    equals mu(j) j^{i t} for squarefree j: both sides are multiplicative,
    and at a prime p the left side is p^{-i t} - (p^{i t} + p^{-i t}) =
    -p^{i t}.  So eta_t drops out and

        y_k = mu(k) k^{-delta - i t} * sum over j <= M/k with k j
              squarefree of mu(j) j^{-(1 + 2 delta)} g(k j),

    one real sum.  Exactly zero for k > M and for k not squarefree.  The
    name is kept because the benchmark workloads call it and its tracer
    labels it by it.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    M, a, delta, t = p.M, p.a, p.delta, p.t
    table.check_n(M)
    if k > M or table.mu[k] == 0:
        return 0j
    mu = table.mu
    js = np.arange(1, M // k + 1)
    js = js[mu[k * js] != 0]
    j = js.astype(float)
    taper = np.clip(np.log(k * j / M) / ((a - 1.0) * math.log(M)), 0.0, 1.0)
    total = float(np.sum(mu[js] * j ** (-(1.0 + 2.0 * delta)) * taper))
    pref = int(mu[k]) * float(k) ** (-delta) * complex(math.cos(t * math.log(k)), -math.sin(t * math.log(k)))
    return pref * total


def _tail_block(
    base: np.ndarray, m: float, lo: int, hi: int, z: float, buf: np.ndarray
) -> tuple[float, float, float, float]:
    """The sums over lo <= k < hi of b, b lg, b lg lg and b (lg - z)^2, with
    b = base[k] and lg = log(m / k), in one new buffer of logs and the
    caller's buffer ``buf`` for the products.  Each in-place step is the
    operation that ``b * lg * lg`` and ``b * (lg - z) ** 2`` take on
    temporaries, so the sums have their bits."""
    b = base[lo:hi]
    lg = np.arange(lo, hi, dtype=float)
    np.divide(float(m), lg, out=lg)
    np.log(lg, out=lg)
    prod = np.multiply(b, lg, out=buf[: hi - lo])
    h1 = float(np.sum(prod))
    prod *= lg
    h2 = float(np.sum(prod))
    np.subtract(lg, z, out=prod)
    np.square(prod, out=prod)
    prod *= b
    return float(np.sum(b)), h1, h2, float(np.sum(prod))


SSums = namedtuple("SSums", "S S1 S2 S3 closed1 closed2 closed3 closedS")


def s_sums(table: ArithTable, p: MollifierParams) -> SSums:
    """The quadratic form S and its decomposition S1 + S2 + S3, exactly
    summed, next to the four closed-form main terms.

    All four sums share the same base vector, taper logs and zeta values, so
    S = S1 + S2 + S3 holds to rounding (that regrouping is an algebraic
    identity).  The height t plays no role: it cancels from |y_k|^2 before
    this point.

    The sums over the tapered range M^a < k <= M are taken block by block,
    at the fixed edges of ``_BLOCK``; no temporary is longer than a block.
    Two blocks are summed directly: the first, from floor(M^a) + 1 to the
    next edge, which depends on a, and the last when M ends it short.  For
    M <= 2**17 the tail is one block and the arithmetic is that of one pass
    over the whole tail.  Every whole block between them comes from the
    moments that ``_base`` keeps, which do not depend on M: with c the
    block's midpoint, u = log(c / k) and D = log(M / c), the taper log is
    log(M / k) = D + u, so the block's four sums are

        h0 = P0,  h1 = D P0 + P1,  h2 = D^2 P0 + 2 D P1 + P2,
        hz = w^2 P0 + 2 w P1 + P2 with w = D - z,

    where P_i sums base[k] u^i.  Since |u| <= 0.41, no term cancels.  A
    query thus costs two blocks and a few operations per whole block,
    whatever M and a are.
    """
    M, a, d = p.M, p.a, p.delta
    table.check_n(M)
    zeta, zeta_p = zeta_vals(d)
    base, moments = _base(table._sieve, d)
    # k <= M^a is the prefix k = 1 .. n_lo; the taper logs live on the rest.
    n_lo = math.floor(float(M) ** a)
    cap_l = (1.0 - a) * math.log(M)
    z = zeta_p / zeta

    low_sum = float(np.sum(base[1 : n_lo + 1]))
    # The whole blocks from the moments span (first, last].
    first = min((n_lo // _BLOCK + 1) * _BLOCK, M)
    last = max(M // _BLOCK * _BLOCK, first)
    # One product buffer per call: a new one per block read 1.7 MB more peak
    # RSS on the mollifier benchmark, a heap layout step (BENCH_27.json).
    buf = np.empty(min(_BLOCK, M - n_lo))
    h0, h1, h2, hz = _tail_block(base, M, n_lo + 1, first + 1, z, buf)
    if first < last:
        c, p0, p1, p2 = moments[first // _BLOCK : last // _BLOCK].T
        D = np.log(M / c)
        w = D - z
        h0 += float(np.sum(p0))
        h1 += float(np.sum(D * p0 + p1))
        h2 += float(np.sum(D * (D * p0 + 2.0 * p1) + p2))
        hz += float(np.sum(w * (w * p0 + 2.0 * p1) + p2))
    if last < M:
        s0, s1, s2, sz = _tail_block(base, M, last + 1, M + 1, z, buf)
        h0 += s0
        h1 += s1
        h2 += s2
        hz += sz

    L2 = cap_l * cap_l
    s_full = (low_sum + hz / L2) / zeta
    s1 = (low_sum + h2 / L2) / zeta
    s2 = -2.0 * zeta_p / (zeta * zeta) * h1 / L2
    s3 = zeta_p * zeta_p / (zeta**3) * h0 / L2

    m2ad = float(M) ** (-2.0 * a * d)
    m2d = float(M) ** (-2.0 * d)
    closed1 = 1.0 + (1.0 / (d * cap_l)) * ((m2ad - m2d) / (2.0 * d * cap_l) - m2ad)
    closed2 = (
        -2.0
        * (zeta_p / (zeta * zeta))
        / cap_l
        * ((m2d - m2ad) / (4.0 * d * d * cap_l) + m2ad / (2.0 * d))
    )
    closed3 = (zeta_p * zeta_p / zeta**3) * (m2ad - m2d) / (2.0 * d * L2)
    closed_s = 1.0 + (m2ad - m2d) / (4.0 * d * d * (1.0 - a) ** 2 * math.log(M) ** 2)
    return SSums(s_full, s1, s2, s3, closed1, closed2, closed3, closed_s)


def truncated_zeta_check(table: ArithTable, m_prime: float, delta: float) -> float:
    """|sum_{k < M'} base(k) - (zeta(1+2 delta) - M'^{-2 delta}/(2 delta))|.

    M' must be non-integral so "k < M'" is unambiguous.  The expected size of
    this residual is truncated_zeta_error_scale(M', delta).
    """
    if not m_prime > 1.0:
        raise ValueError("M' must exceed 1")
    if float(m_prime).is_integer():
        raise ValueError("M' must not be an integer")
    kmax = int(math.floor(m_prime))
    table.check_n(kmax)
    z, _ = zeta_vals(delta)  # rejects delta before a base vector is built
    partial = float(np.sum(table.base_vector(delta)[: kmax + 1]))
    return abs(partial - (z - m_prime ** (-2.0 * delta) / (2.0 * delta)))


def truncated_zeta_error_scale(m_prime: float, delta: float) -> float:
    # The two tail terms O(eta M'^{-2delta}) and O(M'^{-1/2}/eta) balance at
    # eta = M'^{1/4 - delta}, giving 2 M'^{-delta - 1/4}.
    return 2.0 * m_prime ** (-delta - 0.25)


# Bernoulli numbers B_2 .. B_20 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)


def zeta_vals(delta: float) -> tuple[float, float]:
    """(zeta(1 + 2 delta), zeta'(1 + 2 delta)) by Euler-Maclaurin at N = 24.

    Direct summation to N, then the standard tail with ten Bernoulli
    corrections; the derivative terms are the analytic s-derivatives of each
    piece.  Over delta = 0.005, 0.010, ..., 1 it agrees with a 30-digit
    evaluation to 1.1e-15 relative in zeta and 2.1e-15 in zeta'
    (tests/test_oracle.py asserts 1e-14).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    s = 1.0 + 2.0 * delta
    big_n = 24
    zv = 0.0
    zd = 0.0
    for n in range(1, big_n):
        ln = math.log(n)
        p = float(n) ** (-s)
        zv += p
        zd -= ln * p
    ln_n = math.log(big_n)
    n_pow = float(big_n) ** (1.0 - s)
    zv += n_pow / (s - 1.0)
    zd += -ln_n * n_pow / (s - 1.0) - n_pow / (s - 1.0) ** 2
    half = 0.5 * float(big_n) ** (-s)
    zv += half
    zd += -ln_n * half
    for j, bern in enumerate(_BERNOULLI, start=1):
        m = 2 * j
        coeff = bern / math.factorial(m)
        poch = 1.0
        hsum = 0.0
        for i in range(m - 1):
            poch *= s + i
            hsum += 1.0 / (s + i)
        n_pow = float(big_n) ** (-s - m + 1.0)
        zv += coeff * poch * n_pow
        zd += coeff * poch * n_pow * (hsum - ln_n)
    return zv, zd
