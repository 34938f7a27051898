"""The three seeded workloads: job generators, job bodies and correctness gates.

Each workload is a closed loop with one client: the next job is sent only
after the previous one has returned.  Jobs come in blocks.  Within a block
every cost-driving parameter (tolerance, window width, order, eps, table
size) is drawn once from each of its strata, in a seeded order, so every
block carries the same mix of cheap and expensive jobs and a run's
throughput and latency percentiles do not hinge on a few lucky draws.  A
run starts with the workload's pinned jobs, then runs whole blocks.

A job is a plain JSON-able dict, so a job list can be hashed and compared
byte for byte.  ``execute`` is the timed part and calls only into the
rankbound package, always through module attributes so that a tracer that
rebinds module functions sees the calls.  ``check`` is untimed and returns
the list of gate failures for one job's output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random

import rankbound as rb

# --------------------------------------------------------------------------
# headline: `rankbound scan --format json` as users run it.

TOLS = ("1e-10", "1e-8", "1e-12")
# Minimizer of the default scan at tol = 1e-10, as `rankbound scan` prints it
# (12 significant digits).
PINNED_A = 0.483
PINNED_H = 6.49749247432
PINNED_SLACK = 0.00250752567728
# Window widths in grid rows (step 0.01, a inside [0.30, 0.65]).  A block
# draws one width from each of _HEADLINE_BLOCK strata and deals the sorted
# widths to the tolerances in turn, so every tolerance sees the same mix.
_MAX_ROWS = 36
_HEADLINE_BLOCK = 102


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    w = (hi - lo) / n
    draws = [lo + (i + rng.random()) * w for i in range(n)]
    rng.shuffle(draws)
    return draws


def _headline_pinned() -> list[dict]:
    return [
        {"argv": ["scan", "--format", "json", "--tol", tol], "tol": tol, "pinned": True}
        for tol in TOLS
    ]


def _headline_block(rng: random.Random) -> list[dict]:
    widths = sorted(_strata(rng, 2, _MAX_ROWS + 1, _HEADLINE_BLOCK))
    block = []
    for i, width in enumerate(widths):
        tol = TOLS[i % len(TOLS)]
        rows = int(width)
        start = rng.randint(30, 66 - rows)
        delta = f"{rng.uniform(0.25, 0.5):.6f}"
        argv = [
            "scan", "--format", "json", "--tol", tol, "--delta", delta,
            "--a-min", f"{start / 100:.2f}", "--a-max", f"{(start + rows - 1) / 100:.2f}",
        ]
        block.append({"argv": argv, "tol": tol, "pinned": False})
    rng.shuffle(block)
    return block


def _run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = rb.cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _headline_execute(job: dict) -> dict:
    return _run_cli(job["argv"])


def _flag(argv: list[str], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _close(x: float, y: float, *terms: float) -> bool:
    """x == y up to the rounding of 12-significant-digit values of the given size."""
    return abs(x - y) <= 1e-11 * sum(abs(t) for t in terms)


def _headline_check(job: dict, out: dict, state: dict) -> list[str]:
    if out["rc"] != 0:
        return [f"exit code {out['rc']}"]
    obj = json.loads(out["stdout"])
    rows, mz = obj["rows"], obj["minimizer"]
    values = [v for r in rows for v in r.values()] + list(mz.values())
    if not all(math.isfinite(v) for v in values):
        return ["non-finite number in output"]
    argv = job["argv"]
    delta = _flag(argv, "--delta", 0.5)
    a_lo, a_hi = _flag(argv, "--a-min", 0.30), _flag(argv, "--a-max", 0.70)
    errs = []
    n_expect = int(math.floor((a_hi - a_lo) / 0.01 + 1e-9)) + 1
    if len(rows) != n_expect:
        errs.append(f"{len(rows)} rows, expected {n_expect}")

    # The minimizer row must be the assembly of its own fields, and no worse
    # than any grid row.  Fields carry 12 significant digits.
    a, h, phi0 = mz["a"], mz["H"], mz["phi0_hat0"]
    bracket = 3.0 * (mz["g_phi_1"] - mz["g_phi_a"]) + rb.bound.SERIES_TAIL * (
        mz["g_phi2_1"] - mz["g_phi2_a"]
    )
    h_asm = 0.5 + (1.0 / (a * delta) + 4.0 * a * a / (1.0 - a) ** 2 * mz["bracket"]) / phi0
    g_terms = (3.0 * mz["g_phi_1"], 3.0 * mz["g_phi_a"], mz["g_phi2_1"], mz["g_phi2_a"])
    if not _close(bracket, mz["bracket"], mz["bracket"], *g_terms):
        errs.append(f"minimizer bracket {mz['bracket']!r} != assembled {bracket!r}")
    if not _close(h, h_asm, h, h_asm):
        errs.append(f"minimizer H {h!r} != assembled {h_asm!r}")
    if not _close(mz["slack_to_6_5"], 6.5 - h, h, mz["slack_to_6_5"]):
        errs.append(f"slack {mz['slack_to_6_5']!r} != 6.5 - H")
    if h > min(r["H"] for r in rows) * (1.0 + 1e-11) or not a_lo - 1e-12 <= a <= a_hi + 1e-12:
        errs.append(f"minimizer a = {a!r}, H = {h!r} is not the scan minimum")

    tol = job["tol"]
    by_a = {r["a"]: r for r in rows}
    if job["pinned"]:
        state.setdefault("refs", {})[tol] = {"rows": by_a, "phi0": phi0}
        if a != PINNED_A:
            errs.append(f"pinned minimizer a = {a!r}, expected {PINNED_A}")
        if tol == "1e-10":
            if h != PINNED_H or mz["slack_to_6_5"] != PINNED_SLACK:
                errs.append(
                    f"pinned H = {h!r}, slack = {mz['slack_to_6_5']!r}; "
                    f"expected {PINNED_H}, {PINNED_SLACK}"
                )
        else:
            # The same function at another quadrature tolerance.
            ref = state["refs"]["1e-10"]["rows"]
            gap = 1e3 * max(float(tol), 1e-10)
            for ra, r in by_a.items():
                if not abs(r["H"] - ref[ra]["H"]) <= gap:
                    errs.append(f"tol {tol}: H({ra}) = {r['H']!r} vs {ref[ra]['H']!r} at 1e-10")
        return errs

    # H(a, d) - H(a, 1/2) = (1/d - 2) / (a phi0_hat0) exactly, because G_psi
    # does not depend on delta.  Both H carry 12 significant digits.
    ref = state["refs"][tol]
    if phi0 != ref["phi0"]:
        errs.append(f"phi0_hat0 {phi0!r} differs from the pinned scan's {ref['phi0']!r}")
    for ra, r in by_a.items():
        p = ref["rows"][ra]
        shift = (1.0 / delta - 2.0) / (ra * ref["phi0"])
        if not _close(r["H"] - p["H"], shift, r["H"], p["H"], shift):
            errs.append(
                f"H({ra}, {delta}) - H({ra}, 1/2) = {r['H'] - p['H']!r}, identity gives {shift!r}"
            )
    return errs


# --------------------------------------------------------------------------
# verify: the traffic of `rankbound verify` and acceptance criteria 6, 7, 9.

_WEIGHTS = {
    "1": lambda x: 1.0,
    "e^x": math.exp,
    "x e^(x/2)": lambda x: x * math.exp(0.5 * x),
}
_VERIFY_BLOCK = 9  # one job per (order, weight) pair of criterion 9


def _verify_block(rng: random.Random) -> list[dict]:
    # Each order of criterion 9 gets one finite-eps eps from each third of
    # its range; the costly order 2 gets the cheap (large-eps) positivity
    # scans and order 0 the costly ones, so job costs stay in a narrow band.
    fe_eps = sorted(_strata(rng, 0.02, 0.1, _VERIFY_BLOCK))
    pos_eps = sorted(_strata(rng, 0.05, 0.15, _VERIFY_BLOCK))
    l1_orders = [i % 3 for i in range(_VERIFY_BLOCK)]
    rng.shuffle(l1_orders)
    block = []
    for order in (0, 1, 2):
        weights = list(_WEIGHTS)
        rng.shuffle(weights)
        for r, weight in enumerate(weights):
            i = len(block)
            a = rng.uniform(0.2, 1.0)
            b = a + rng.uniform(0.3, 4.0)
            x = rng.uniform(0.05, 0.95) * 2.0 / a  # keeps 2/a - x > 0
            block.append(
                {
                    "detector_seed": rng.randrange(2**31),
                    "lemma1": [rng.uniform(0.25, 0.75), l1_orders[i]],
                    "e_triple": [a, b, x],
                    "finite_eps": [order, weight, fe_eps[order + 3 * r]],
                    "positivity_eps": pos_eps[3 * order + r],
                }
            )
    rng.shuffle(block)
    return block


def _verify_execute(job: dict) -> dict:
    det = _run_cli(
        ["verify", "--suite", "detector", "--seed", str(job["detector_seed"]), "--format", "json"]
    )
    a, order = job["lemma1"]
    lemma1 = rb.kernels.verify_lemma1(a, rb.testfn.limit_measure(order))
    e_ident = rb.special.verify_e_identities(*job["e_triple"])
    order, weight, eps = job["finite_eps"]
    h = _WEIGHTS[weight]
    target = rb.quadrature.integrate_measure(h, rb.testfn.limit_measure(order))
    errs = [abs(rb.testfn.finite_eps_functional(e, order, h) - target) for e in (eps, eps / 2)]
    positivity = rb.testfn.check_positivity(job["positivity_eps"])
    return {
        "detector": det,
        "lemma1": lemma1,
        "e_identities": e_ident,
        "finite_eps": errs,
        "positivity": positivity,
    }


def _verify_check(job: dict, out: dict, state: dict) -> list[str]:
    errs = []
    det = out["detector"]
    if det["rc"] != 0 or json.loads(det["stdout"])["failures"] != 0:
        errs.append(f"detector suite failed, exit code {det['rc']}")
    nums = [out["lemma1"], out["e_identities"], out["positivity"], *out["finite_eps"]]
    if not all(math.isfinite(v) for v in nums):
        return errs + ["non-finite number in output"]
    # Bounds as `rankbound verify` and the acceptance tests apply them.
    if not out["lemma1"] <= 1e-6:
        errs.append(f"lemma-1 residual {out['lemma1']:.3e} > 1e-6")
    if not out["e_identities"] <= 1e-8:
        errs.append(f"E identities residual {out['e_identities']:.3e} > 1e-8")
    coarse, fine = out["finite_eps"]
    if not fine <= coarse + 1e-9:
        errs.append(f"finite-eps error rose from {coarse:.3e} to {fine:.3e} as eps halved")
    if not out["positivity"] > 0.0:
        errs.append(f"positivity minimum {out['positivity']!r} <= 0")
    return errs


# --------------------------------------------------------------------------
# mollifier: the arithmetic side, with tables from 0.24 MB to 24 MB.

_M_RANGE = (3e4, 3e6)
_Q_RANGE = (2e3, 2e4)  # M // k for the y_k coefficient
_MOL_BLOCK = 40
_DELTAS = (0.02, 0.05, 0.1)  # 0.02 is the known closed-form misfit; keep it


def _log_strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return [math.exp(v) for v in _strata(rng, math.log(lo), math.log(hi), n)]


def _squarefree_at_least(k: int) -> int:
    while any(k % (p * p) == 0 for p in range(2, math.isqrt(k) + 1)):
        k += 1
    return k


def _mollifier_job(rng: random.Random, m: int, q: float) -> dict:
    k = _squarefree_at_least(math.ceil(m / q))
    # Two deltas, each queried twice: the first query of a delta builds its
    # tables, the second reads them from the table's cache.
    deltas = rng.sample(_DELTAS, 2) * 2
    rng.shuffle(deltas)
    # M' = M // 2 + 0.5 is never an integer; the CLI's M / 2 + 0.5 is one
    # for odd M, which truncated_zeta_check rejects.
    return {
        "M": m,
        "queries": [[rng.uniform(0.3, 0.7), d] for d in deltas],
        "t": rng.uniform(0.0, 1.0),
        "tz": [m // 2 + 0.5, rng.choice(_DELTAS)],
        "k": k,
        "k_nonsquarefree": 4 * rng.randint(1, m // 4),
    }


def _mollifier_pinned() -> list[dict]:
    # The largest table of the range, so every run reaches the same peak.
    m = int(_M_RANGE[1])
    job = _mollifier_job(random.Random(0), m, _Q_RANGE[1])
    job["queries"] = [[0.5, d] for d in _DELTAS] + [[0.5, _DELTAS[0]]]
    return [job]


def _mollifier_block(rng: random.Random) -> list[dict]:
    # One table size from each of _MOL_BLOCK strata.  The largest tables get
    # the shortest y_k sums, which keeps job costs in a narrower band than
    # independent pairing would.
    ms = sorted(_log_strata(rng, *_M_RANGE, _MOL_BLOCK))
    qs = sorted(_log_strata(rng, *_Q_RANGE, _MOL_BLOCK), reverse=True)
    pairs = list(zip(ms, qs))
    rng.shuffle(pairs)
    return [_mollifier_job(rng, int(m), q) for m, q in pairs]


def _mollifier_execute(job: dict) -> dict:
    mol = rb.mollifier
    m = job["M"]
    table = mol.ArithTable(m)
    sums = [mol.s_sums(table, mol.MollifierParams(m, a, d, job["t"])) for a, d in job["queries"]]
    m_prime, tz_delta = job["tz"]
    tz = mol.truncated_zeta_check(table, m_prime, tz_delta)
    p = mol.MollifierParams(m, 0.5, tz_delta, job["t"])
    return {
        "sums": [list(s) for s in sums],
        "tz_ratio": tz / mol.truncated_zeta_error_scale(m_prime, tz_delta),
        "yk": mol.y_k_bruteforce(table, job["k"], p),
        "yk_nonsquarefree": mol.y_k_bruteforce(table, job["k_nonsquarefree"], p),
    }


def _mollifier_check(job: dict, out: dict, state: dict) -> list[str]:
    nums = [v for s in out["sums"] for v in s] + [out["tz_ratio"]]
    nums += [out["yk"].real, out["yk"].imag]
    if not all(math.isfinite(v) for v in nums):
        return ["non-finite number in output"]
    errs = []
    m = job["M"]
    for (a, d), (s, s1, s2, s3, _, _, _, closed) in zip(job["queries"], out["sums"]):
        if not abs(s - (s1 + s2 + s3)) <= 1e-12:
            errs.append(f"|S - (S1 + S2 + S3)| = {abs(s - (s1 + s2 + s3)):.3e} > 1e-12")
        # Not a gate: the closed form's misfit at small delta is mathematics
        # (see the README).  At a = 1/2 this is the acceptance allowance.
        ratio = abs(s - closed) / (10.0 * d * m ** (-2.0 * a * d))
        state["closed_form_worst"] = max(state.get("closed_form_worst", 0.0), ratio)
    if not out["tz_ratio"] <= 10.0:
        errs.append(f"truncated-zeta ratio {out['tz_ratio']:.3f} > 10")
    if out["yk_nonsquarefree"] != 0j:
        k = job["k_nonsquarefree"]
        errs.append(f"y_k({k}) = {out['yk_nonsquarefree']!r} for non-squarefree k")
    if out["yk"] == 0j:
        errs.append(f"y_k({job['k']}) vanishes for squarefree k <= M")
    return errs


# --------------------------------------------------------------------------


class Workload:
    """Job source and gates of one workload.

    ``tail_pct`` is the latency percentile reported as the tail;
    ``min_jobs`` makes at least ten jobs lie beyond it in every run.  The
    traced run runs the first ``trace_jobs`` jobs, so its counts repeat
    exactly for a given seed.
    """

    def __init__(self, name, pinned, block, execute, check, tail_pct, trace_jobs):
        self.name = name
        self.pinned = pinned
        self.block = block
        self.execute = execute
        self.check = check
        self.tail_pct = tail_pct
        self.min_jobs = math.ceil(1000 / (100 - tail_pct))
        self.trace_jobs = trace_jobs

    def blocks(self, seed: int):
        """Pinned jobs, then an endless stream of blocks, all from ``seed``."""
        rng = random.Random(seed)
        yield self.pinned()
        while True:
            yield self.block(rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", _headline_pinned, _headline_block, _headline_execute,
                 _headline_check, tail_pct=90, trace_jobs=39),
        Workload("verify", lambda: [], _verify_block, _verify_execute,
                 _verify_check, tail_pct=90, trace_jobs=27),
        Workload("mollifier", _mollifier_pinned, _mollifier_block, _mollifier_execute,
                 _mollifier_check, tail_pct=75, trace_jobs=21),
    )
}
