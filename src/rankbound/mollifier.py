"""Brute-force arithmetic side: sieves, mollifier coefficients, and the
quadratic sums S, S1, S2, S3 with their closed-form main terms.

Everything here is a finite sum over the integers up to M, vectorized over
the sieved tables, which is the point: the analytic closed forms elsewhere
in the pipeline are verified against these exact sums at concrete M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "MollifierParams",
    "ArithTable",
    "SSums",
    "g_cap",
    "y_k_bruteforce",
    "s_sums",
    "truncated_zeta_check",
    "truncated_zeta_error_scale",
    "zeta_vals",
]


@dataclass(frozen=True)
class MollifierParams:
    """Mollifier length M, cutoff exponent a, shift delta, and height t."""

    M: int
    a: float
    delta: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.M < 10:
            raise ValueError("M must be at least 10")
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")


class ArithTable:
    """Smallest-prime-factor sieve up to ``limit`` with Mobius values.

    The sieve yields the primes; the Mobius values and the multiplicative
    tables (omega, the base weights) are sieved from them as numpy vectors,
    the latter two cached per exponent.
    """

    def __init__(self, limit: int) -> None:
        limit = int(limit)
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        self.limit = limit
        n = limit + 1
        spf = np.zeros(n, dtype=np.int64)
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == 0:
                seg = spf[i * i :: i]
                seg[seg == 0] = i
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest  # remaining entries are prime (and 0, 1 map to themselves)
        self.spf = spf
        self.primes = np.nonzero(spf[2:] == np.arange(2, n))[0] + 2
        mu = np.ones(n, dtype=np.int64)
        mu[0] = 0
        for p in self.primes:
            p = int(p)
            mu[p::p] *= -1
            if p * p <= limit:
                mu[p * p :: p * p] = 0
        self.mu = mu
        self._base_cache: dict[float, np.ndarray] = {}

    def check_n(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside sieve range [1, {self.limit}]")

    def omega_table(self, s: float) -> np.ndarray:
        """omega_s(k) = prod over p | k of (1 - p^-s)^-1, for all k <= limit (uncached)."""
        tbl = np.ones(self.limit + 1)
        for p in self.primes:
            tbl[int(p) :: int(p)] *= 1.0 / (1.0 - float(p) ** (-s))
        return tbl

    def base_vector(self, delta: float) -> np.ndarray:
        """mu(k)^2 omega_{1+2delta}(k) k^{-1-2delta} for all k <= limit."""
        vec = self._base_cache.get(delta)
        if vec is None:
            s = 1.0 + 2.0 * delta
            k = np.arange(self.limit + 1, dtype=float)
            k[0] = 1.0
            vec = self.omega_table(s) * k ** (-s)
            vec[self.mu == 0] = 0.0
            vec[0] = 0.0
            self._base_cache[delta] = vec
        return vec


def g_cap(M: float, a: float, x: float) -> float:
    """Logarithmic taper: 1 up to M^a, log-linear down to 0 at M."""
    if x <= 0.0:
        raise ValueError("taper defined for x > 0")
    if M <= 1.0 or not 0.0 < a < 1.0:
        raise ValueError("need M > 1 and a in (0, 1)")
    if x >= M:
        return 0.0
    if x <= M**a:
        return 1.0
    return math.log(x / M) / ((a - 1.0) * math.log(M))


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
    if k > M:
        return 0j
    if table.mu[k] == 0:
        return 0j
    mu = table.mu
    js = np.arange(1, M // k + 1)
    js = js[mu[k * js] != 0]
    j = js.astype(float)
    taper = np.clip(np.log(k * j / M) / ((a - 1.0) * math.log(M)), 0.0, 1.0)
    total = float(np.sum(mu[js] * j ** (-(1.0 + 2.0 * delta)) * taper))
    pref = int(mu[k]) * float(k) ** (-delta) * complex(math.cos(t * math.log(k)), -math.sin(t * math.log(k)))
    return pref * total


class SSums(NamedTuple):
    S: float
    S1: float
    S2: float
    S3: float
    closed1: float
    closed2: float
    closed3: float
    closedS: float


def s_sums(table: ArithTable, p: MollifierParams) -> SSums:
    """The quadratic form S and its decomposition S1 + S2 + S3, exactly
    summed, next to the four closed-form main terms.

    All four sums share the same base vector, taper logs and zeta values, so
    S = S1 + S2 + S3 holds to rounding (that regrouping is an algebraic
    identity).  The height t plays no role: it cancels from |y_k|^2 before
    this point.
    """
    M, a, d = p.M, p.a, p.delta
    table.check_n(M)
    zeta, zeta_p = zeta_vals(d)
    base = table.base_vector(d)[: M + 1]
    k = np.arange(M + 1, dtype=float)
    k[0] = 1.0
    m_to_a = float(M) ** a
    idx = np.arange(M + 1)
    lo = (idx >= 1) & (idx <= m_to_a)
    hi = (idx > m_to_a) & (idx <= M)
    cap_l = (1.0 - a) * math.log(M)
    logs = np.zeros(M + 1)
    logs[1:] = np.log(float(M) / k[1:])
    z = zeta_p / zeta

    low_sum = float(np.sum(base[lo]))
    b_hi = base[hi]
    lg_hi = logs[hi]
    h0 = float(np.sum(b_hi))
    h1 = float(np.sum(b_hi * lg_hi))
    h2 = float(np.sum(b_hi * lg_hi * lg_hi))
    hz = float(np.sum(b_hi * (lg_hi - z) ** 2))

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
    partial = float(np.sum(table.base_vector(delta)[: kmax + 1]))
    z, _ = zeta_vals(delta)
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
    piece.  Good to ~1e-13 over delta in (0, 1].
    """
    if math.isnan(delta) or not 0.0 < delta <= 1.0:
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
