"""Brute-force arithmetic side: sieves, mollifier coefficients, and the
quadratic sums S, S1, S2, S3 with their closed-form main terms.

Everything here is a finite sum over the integers up to M, vectorized over
the sieved tables, which is the point: the analytic closed forms elsewhere
in the pipeline are verified against these exact sums at concrete M.

An ArithTable is a read-only prefix view of one sieve held per process, the
largest built so far, with the base vectors of its last four deltas; a table
at a smaller limit costs no sieving and no base vector the sieve already has.

The tables are as long as M; the taper sums of ``s_sums`` are not.  They run
over blocks of 2**17 entries cut at fixed edges, so their two buffers stay at
a block's size whatever M is, and every block past the first depends on
(M, delta) alone: the held sieve keeps those block sums for its last four
(M, delta) pairs, and a second cutoff a at the same pair sums only its
first block.  Any M up to 2**17, M = 1e5 among them, is one block.
"""
from __future__ import annotations

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
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        return tuple.__new__(cls, (M, a, delta, t))

    _make = _checked_make


# Base vectors the held sieve keeps, one per delta: the CLI uses 2 deltas,
# the acceptance tests 3 and the bench's jobs 3 in all.  The sieve keeps the
# tail block sums of s_sums for as many (M, delta) pairs: a bench job asks
# for 2, each at two cutoffs a.  The CLI's M = 1e5 is one block and keeps none.
_MEMO = 4


def _prime_pows(primes: np.ndarray, e: float) -> np.ndarray:
    """float(p) ** e for every prime p by the scalar pow, taken in chunks of
    2**14 so that no list of all the primes exists."""
    n, step = primes.size, 1 << 14
    chunks = (primes[i : i + step].tolist() for i in range(0, n, step))
    return np.fromiter(chain.from_iterable(map(pow, c, repeat(e)) for c in chunks), float, n)


def _remember(memo: dict, key, value):
    """Store value under key, first dropping the oldest entry of a full memo."""
    if len(memo) == _MEMO:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


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
    read-only, the base vectors of the last ``_MEMO`` deltas, and the tail
    block sums of ``s_sums`` for the last ``_MEMO`` (M, delta) pairs."""

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
        self._bases: dict[float, np.ndarray] = {}
        self._tails: dict[tuple[int, float], list] = {}

    def base_vector(self, delta: float) -> np.ndarray:
        vec = self._bases.get(delta)
        if vec is None:
            factors = 1.0 / (_prime_pows(self.primes, 1.0 + 2.0 * delta) - 1.0)
            vec = _multiply_in(np.square(self.mu, dtype=float), self.primes, factors)
            vec.flags.writeable = False
            _remember(self._bases, delta, vec)
        return vec

    def tail_blocks(self, m: int, delta: float) -> list:
        """The block sums of s_sums at (m, delta): entry j is block j's
        (h0, h1, h2, hz), or None until a query sums that block."""
        blocks = self._tails.get((m, delta))
        if blocks is None:
            blocks = _remember(self._tails, (m, delta), [None] * -(-m // _BLOCK))
        return blocks


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
    limit.  The held sieve and the base vectors of its last ``_MEMO``
    deltas stay resident after the callers' tables are gone (at 3e6, 17 MB
    of sieve and 24 MB per vector); a delta new to it costs one base vector
    at the held size, however small the table asking.  The arrays are
    read-only because every table shares them.

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
            _held = None  # let go of the old sieve before building the new one
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
        A read-only prefix of the held sieve's vector."""
        return self._sieve.base_vector(delta)[: self.limit + 1]


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


# Entries per block of the tail sums in s_sums; block j holds the k in
# (j 2**17, (j + 1) 2**17].  2**17 is the smallest power of two that holds
# the whole tail (n_lo, M] at M = 1e5, so every pinned sum and every printed
# residual is one block: the same numpy sums, bit for bit, as one pass over
# the whole tail.  A larger M moves only in the last bits.
_BLOCK = 1 << 17


def _tail_block(
    base: np.ndarray, m: int, lo: int, hi: int, z: float, buf: np.ndarray
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
    at the fixed edges of ``_BLOCK``, and the block sums are added in order;
    no temporary is longer than a block.  For M <= 2**17 the tail is one
    block and the arithmetic is that of one pass over the whole tail.  Only
    the first block, from floor(M^a) + 1 to the next edge, depends on a;
    every later block's sums depend on (M, delta) alone, and the held sieve
    keeps them for its last ``_MEMO`` pairs, as long as it is held.  A query
    at a pair the sieve has seen sums its prefix and first block, sums any
    block still missing, and adds the kept sums in the same order, so it
    gets the bits of a query that sums every block.
    """
    M, a, d = p.M, p.a, p.delta
    table.check_n(M)
    zeta, zeta_p = zeta_vals(d)
    base = table.base_vector(d)
    # k <= M^a is the prefix k = 1 .. n_lo; the taper logs live on the rest.
    n_lo = math.floor(float(M) ** a)
    cap_l = (1.0 - a) * math.log(M)
    z = zeta_p / zeta

    low_sum = float(np.sum(base[1 : n_lo + 1]))
    first = min((n_lo // _BLOCK + 1) * _BLOCK, M)
    # One product buffer per call: a new one per block read 1.7 MB more peak
    # RSS on the mollifier benchmark, a heap layout step (BENCH_27.json).
    buf = np.empty(min(_BLOCK, M - n_lo))
    h0, h1, h2, hz = _tail_block(base, M, n_lo + 1, first + 1, z, buf)
    if first < M:
        blocks = table._sieve.tail_blocks(M, d)
        for j in range(first // _BLOCK, len(blocks)):
            if blocks[j] is None:
                lo = j * _BLOCK + 1
                blocks[j] = _tail_block(base, M, lo, min(lo + _BLOCK, M + 1), z, buf)
            s0, s1, s2, sz = blocks[j]
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
