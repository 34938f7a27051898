"""Verification checks shared by `rankbound verify` and the acceptance tests.

Each function here runs one check over the cases it is given and returns
its worst residual (or a pass flag); the callers choose the cases, the
seeds, the tolerances and the bounds.  Calls go through module attributes
(``detector.lemma6_check``, not a bound name) so that anything rebinding a
module function, such as a tracer, sees them.
"""
from __future__ import annotations

import math
import random

from . import detector, kernels, mollifier, special, testfn


class CheckList(list):
    """Accumulates (name, residual, bound, ok) rows."""

    def add(self, name: str, residual: float, limit: float) -> None:
        self.append((name, residual, limit, residual <= limit))

    def add_flag(self, name: str, ok: bool) -> None:
        self.append((name, 0.0 if ok else 1.0, 0.5, ok))


# ---------------------------------------------------------------------------
# Identities: E, the Fubini identity tying F to K, and the tails I+-.


def e_identity_worst(triples, tol: float) -> float:
    """Worst residual of special.verify_e_identities over (a, b, x) triples."""
    worst = 0.0
    for a, b, x in triples:
        worst = max(worst, special.verify_e_identities(a, b, x, tol))
    return worst


def e_quadrature_worst(xs) -> float:
    """Worst gap between the fast E(x) and its defining integral."""
    return max(abs(special.exp_e(x) - special.exp_e_by_quadrature(x)) for x in xs)


def e_parts_worst(xs) -> float:
    """Worst residual of E(x) = exp(-x) - x E1(x), both sides by quadrature."""
    return max(
        abs(
            special.exp_e_by_quadrature(x)
            - (math.exp(-x) - x * special.exp_e1_by_quadrature(x))
        )
        for x in xs
    )


def lemma1_worst(cases, tol: float) -> float:
    """Worst residual of kernels.verify_lemma1 over (a, measure order) pairs."""
    worst = 0.0
    for a, order in cases:
        worst = max(worst, kernels.verify_lemma1(a, testfn.limit_measure(order), tol))
    return worst


def i_pm_worst(cases) -> float:
    """Worst gap between the closed-form tails and their quadrature over (a, u, sign)."""
    worst = 0.0
    for a, u, sign in cases:
        worst = max(worst, abs(kernels.i_pm(a, u, sign) - kernels.i_pm_by_quadrature(a, u, sign)))
    return worst


# ---------------------------------------------------------------------------
# The detector: lemma 6 on synthetic h with planted zeros.

# rate 5, c0 = e puts the zero line at x = 0.2 with spacing 2 pi / 5; the
# boxes hold 0, 1, 2 and 3 of those zeros, in that order.
_H_FIXED = detector.SyntheticH(c0=math.e, rate=5.0)
FIXED_DETECTOR_CASES = tuple(
    (_H_FIXED, detector.DetectorBox(0.1, t1, t2))
    for t1, t2 in ((0.2, 1.1), (-0.3, 0.55), (-0.1, 1.5), (-1.4, 1.5))
)


def random_detector_cases(seed: int):
    """Endless seeded (h, box) draws; some violate lemma 6's preconditions."""
    rng = random.Random(seed)
    while True:
        rate = rng.uniform(3.5, 12.0)
        c0 = math.exp(rng.uniform(math.log(0.2), math.log(8.0)))
        sp = rng.uniform(-0.8, 0.8)
        t1 = rng.uniform(-2.0, 1.0)
        width = rng.uniform(math.pi / rate + 0.3, math.pi / rate + 1.6)
        yield detector.SyntheticH(c0, rate), detector.DetectorBox(sp, t1, t1 + width)


def lemma6_sweep(cases, tol: float, n: int | None = None) -> tuple[float, list[int]]:
    """Worst lemma-6 residual over cases, and each checked case's zero count.

    The zero count of a case is the number of zeros of h strictly inside
    its box (x > sigma', t1 < y < t2), the zeros lemma6_check's left side
    sums over.  Without ``n`` every case is checked and a rejected one raises;
    with ``n`` the cases lemma6_check rejects (ValueError) are skipped until n
    have been checked.
    """
    worst = 0.0
    counts: list[int] = []
    for h, box in cases:
        if n is not None and len(counts) == n:
            break
        try:
            _, _, resid = detector.lemma6_check(h, box, tol)
        except ValueError:
            if n is None:
                raise
            continue
        counts.append(
            sum(x > box.sigma_prime and box.t1 < y < box.t2 for x, y in h.zeros_in(box.t1, box.t2))
        )
        worst = max(worst, resid)
    return worst, counts


def lemma6_rejects(h, box) -> bool:
    """Whether lemma6_check refuses (h, box), as it must for a zero on the boundary."""
    try:
        detector.lemma6_check(h, box)
    except ValueError:
        return True
    return False


def trivial_h_ok() -> bool:
    """h = 1 (c0 = 0) has no zeros and log|h| = 0, so both sides are exactly 0."""
    lhs, rhs, _ = detector.lemma6_check(
        detector.SyntheticH(0.0, 4.0), detector.DetectorBox(0.0, 0.0, 1.0)
    )
    return lhs == rhs == 0.0


def corner_weight_ok(box) -> bool:
    """The counting weight is at least 1 at the shrunk box's two left corners."""
    sg, it1, it2 = detector.shrunk_box(box)
    corners = [detector.detector_weight(box, sg, it1), detector.detector_weight(box, sg, it2)]
    return min(corners) >= 1.0


# ---------------------------------------------------------------------------
# The mollifier sums.


def closed_form_misfit(r, p) -> tuple[float, float]:
    """|S - closedS| of s_sums result r at params p, and its allowance 10 delta M^(-2 a delta)."""
    return abs(r.S - r.closedS), 10.0 * p.delta * float(p.M) ** (-2.0 * p.a * p.delta)


def s_sweep(table, params) -> tuple[float, float]:
    """Worst |S - (S1 + S2 + S3)| and worst misfit-to-allowance ratio over params."""
    worst_dec = worst_ratio = 0.0
    for p in params:
        r = mollifier.s_sums(table, p)
        worst_dec = max(worst_dec, abs(r.S - (r.S1 + r.S2 + r.S3)))
        gap, allow = closed_form_misfit(r, p)
        worst_ratio = max(worst_ratio, gap / allow)
    return worst_dec, worst_ratio


def truncated_zeta_ratio(table, m_prime: float, delta: float) -> float:
    """Truncated-zeta residual in units of its error scale."""
    resid = mollifier.truncated_zeta_check(table, m_prime, delta)
    return resid / mollifier.truncated_zeta_error_scale(m_prime, delta)


def y_k_support_ok(table, p, zero_ks, nonzero_ks=()) -> bool:
    """y_k vanishes at every k of zero_ks and not at any k of nonzero_ks."""
    return all(mollifier.y_k_bruteforce(table, k, p) == 0j for k in zero_ks) and all(
        abs(mollifier.y_k_bruteforce(table, k, p)) > 0.0 for k in nonzero_ks
    )
