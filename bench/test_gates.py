"""The benchmark's own checks: every correctness gate rejects a corrupted output,
and job lists depend on the seed alone.

    python3 -m pytest bench/test_gates.py -q
"""
import copy
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

W = workloads.WORKLOADS


def _jobs(name: str, seed: int, n_blocks: int = 3) -> str:
    blocks = itertools.islice(W[name].blocks(seed), n_blocks + 1)
    return json.dumps([job for block in blocks for job in block], sort_keys=True)


@pytest.mark.parametrize("name", sorted(W))
def test_job_lists_depend_on_the_seed_alone(name):
    assert _jobs(name, 5) == _jobs(name, 5)
    assert _jobs(name, 5) != _jobs(name, 6)


def test_mollifier_jobs_are_safe_inputs():
    jobs = json.loads(_jobs("mollifier", 3, n_blocks=20))
    assert any(j["M"] % 2 for j in jobs)
    for j in jobs:
        m_prime = j["tz"][0]
        assert not float(m_prime).is_integer() and m_prime < j["M"]
        assert 1_000 <= j["M"] // j["k"] <= 20_000
        assert j["k_nonsquarefree"] % 4 == 0 and j["k_nonsquarefree"] <= j["M"]
    assert any(d == 0.02 for j in jobs for _, d in j["queries"])


def _set_json(out: dict, edit) -> dict:
    bad = copy.deepcopy(out)
    obj = json.loads(bad["stdout"])
    edit(obj)
    bad["stdout"] = json.dumps(obj)
    return bad


@pytest.fixture(scope="module")
def headline_runs():
    w = W["headline"]
    pinned = w.pinned()
    job = next(j for j in w.block(random.Random(1)) if j["tol"] == "1e-10")
    state: dict = {}
    outs = []
    for j in pinned + [job]:
        out = w.execute(j)
        assert w.check(j, out, state) == []
        outs.append((j, out))
    return outs, state


def test_headline_gates_reject_corrupted_output(headline_runs):
    outs, state = headline_runs
    check = W["headline"].check
    (pin_job, pin_out), (job, out) = outs[0], outs[-1]
    assert pin_job["tol"] == "1e-10" and not job["pinned"]

    def shift(key, dh):
        def edit(obj):
            obj["minimizer"][key] += dh
        return edit

    def shift_row(obj):
        obj["rows"][len(obj["rows"]) // 2]["H"] += 1e-9

    def nan_row(obj):
        obj["rows"][0]["g_phi_a"] = float("nan")

    # Pinned values: H off by 1e-9 (and the slack with it) must fail.
    def both(obj):
        obj["minimizer"]["H"] += 1e-9
        obj["minimizer"]["slack_to_6_5"] -= 1e-9

    pinned_state = {}
    for bad in (both, shift("a", 0.001), shift("slack_to_6_5", 1e-9)):
        assert check(pin_job, _set_json(pin_out, bad), pinned_state)
    # Delta-shift identity and minimizer assembly on a non-pinned scan.
    for bad in (shift_row, nan_row, shift("H", 1e-9), shift("bracket", 1e-9),
                shift("g_phi_a", 1e-9)):
        assert check(job, _set_json(out, bad), state), bad
    assert check(job, dict(out, rc=1), state)
    assert check(job, out, state) == []


@pytest.fixture(scope="module")
def verify_run():
    w = W["verify"]
    job = next(iter(w.block(random.Random(2))))
    out = w.execute(job)
    assert w.check(job, out, {}) == []
    return job, out


@pytest.mark.parametrize(
    "field, value",
    [
        ("lemma1", 2e-6),
        ("e_identities", 2e-8),
        ("finite_eps", [1e-3, 2e-3]),
        ("positivity", 0.0),
        ("positivity", float("nan")),
        ("detector", {"rc": 1, "stdout": json.dumps({"failures": 1})}),
    ],
)
def test_verify_gates_reject_corrupted_output(verify_run, field, value):
    job, out = verify_run
    assert W["verify"].check(job, dict(out, **{field: value}), {})


@pytest.fixture(scope="module")
def mollifier_run():
    w = W["mollifier"]
    job = workloads._mollifier_job(random.Random(3), 30_001, 5_000.0)
    out = w.execute(job)
    state: dict = {}
    assert w.check(job, out, state) == []
    assert state["closed_form_worst"] > 0.0
    return job, out


def _bad_sum(out):
    sums = copy.deepcopy(out["sums"])
    sums[0][0] += 1e-11
    return sums


@pytest.mark.parametrize(
    "field, value",
    [
        ("sums", _bad_sum),
        ("tz_ratio", 10.5),
        ("yk_nonsquarefree", 1e-20j),
        ("yk", 0j),
        ("yk", complex("nan")),
    ],
)
def test_mollifier_gates_reject_corrupted_output(mollifier_run, field, value):
    job, out = mollifier_run
    value = value(out) if callable(value) else value
    assert W["mollifier"].check(job, dict(out, **{field: value}), {})
