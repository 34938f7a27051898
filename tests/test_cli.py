"""Command line entry point: exit codes, output formats, determinism."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rankbound
from rankbound import bound, cli, detector, kernels, special
from rankbound.cli import main

CONSTANT_KEYS = [
    "phi0_hat_0",
    "phi0_hat_0_err",
    "c",
    "c_err",
    "G_abs_phi_1",
    "G_abs_phi_1_err",
    "G_abs_dphi_1",
    "G_abs_dphi_1_err",
    "G_abs_d2phi_1",
    "G_abs_d2phi_1_err",
]

# tolerance loose enough that every CLI test can run at --tol 1e-8 and stay quick
CONSTANT_VALUES = {
    "phi0_hat_0": 0.928129678568,
    "c": 11.0280277174,
    "G_abs_phi_1": 0.153536030503,
    "G_abs_dphi_1": 0.366667163113,
    "G_abs_d2phi_1": 0.332084416959,
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json", "--tol", "1e-8")
    assert code == 0
    data = json.loads(out)
    assert list(data) == CONSTANT_KEYS
    for key, want in CONSTANT_VALUES.items():
        assert data[key] == pytest.approx(want, abs=1e-6)
        assert data[key + "_err"] >= 0.0


def test_constants_csv_is_plain_lf(capsys):
    code, out, _ = run(capsys, "constants", "--format", "csv", "--tol", "1e-8")
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "name,value,err_estimate"
    assert [l.split(",")[0] for l in lines[1:]] == [
        "phi0_hat_0", "c", "G_abs_phi_1", "G_abs_dphi_1", "G_abs_d2phi_1",
    ]
    for l in lines[1:]:
        name, value, err = l.split(",")
        if name in CONSTANT_VALUES:
            assert float(value) == pytest.approx(CONSTANT_VALUES[name], abs=1e-6)
        assert float(err) >= 0.0


def test_constants_table(capsys):
    code, out, _ = run(capsys, "constants", "--tol", "1e-8")
    assert code == 0
    assert "phi0_hat_0" in out and "0.92813" in out


def test_bound_json(capsys):
    code, out, _ = run(
        capsys, "bound", "--a", "0.48", "--delta", "0.5", "--format", "json",
        "--tol", "1e-8",
    )
    assert code == 0
    data = json.loads(out)
    # a report prints as an object with its fields in order, never as a list
    assert list(data) == list(bound.BoundReport._fields)
    assert data["H"] == pytest.approx(6.49795663, abs=1e-5)
    assert data["a"] == 0.48


def test_scan_csv_rows(capsys):
    code, out, _ = run(
        capsys, "scan", "--a-min", "0.45", "--a-max", "0.55", "--step", "0.05",
        "--format", "csv", "--tol", "1e-8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,H,bracket,g_phi_a,g_phi2_a"
    # three grid rows plus the refined minimizer
    assert len(lines) == 5
    a_vals = [float(l.split(",")[0]) for l in lines[1:]]
    assert a_vals[:3] == pytest.approx([0.45, 0.5, 0.55], abs=1e-12)
    assert 0.45 <= a_vals[3] <= 0.55
    h_vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert h_vals[3] <= min(h_vals[:3]) + 1e-12


def test_scan_builds_coarse_grid_once(capsys, monkeypatch):
    # 41 coarse points and 21 fine ones; minimize reuses the coarse reports
    calls = []
    h_of_a = bound.h_of_a

    def counting(*args):
        calls.append(args)
        return h_of_a(*args)

    monkeypatch.setattr(bound, "h_of_a", counting)
    code, out, _ = run(capsys, "scan", "--format", "json")
    assert code == 0 and json.loads(out)["minimizer"]["a"] == 0.483
    assert len(calls) == 62


def test_scan_computes_f_half_once_per_a(capsys, monkeypatch):
    # 59 distinct a (41 coarse, 21 fine, 3 shared) and the a = 1 row; each
    # a needs F(a, 1/2) once for both measures.  The G caches are emptied
    # so that every G value is computed here.
    calls = []
    big_f = kernels.big_f

    def counting(a, u):
        calls.append((a, u))
        return big_f(a, u)

    bound._g_pair.cache_clear()
    kernels._f_half.cache_clear()
    monkeypatch.setattr(kernels, "big_f", counting)
    code, out, _ = run(capsys, "scan", "--format", "json")
    assert code == 0 and json.loads(out)["minimizer"]["a"] == 0.483
    assert len(calls) == 60 and len(set(calls)) == 60


def test_scan_grid_past_one_fails_before_any_work(capsys, monkeypatch):
    # The last grid point 0.3 + 7 * 0.1 rounds to 1.0: the grid is checked
    # before the first h_of_a, so no point is computed.
    calls = []
    monkeypatch.setattr(bound, "h_of_a", lambda *args: calls.append(args))
    code, out, err = run(
        capsys, "scan", "--a-min", "0.3", "--a-max", "0.9999999999999999", "--step", "0.1"
    )
    assert (code, out, err) == (2, "", "error: a must lie strictly inside (0, 1)\n")
    assert calls == []


def test_scan_refines_up_to_off_grid_a_max(capsys):
    # The coarse grid ends at 0.48 but --a-max is 0.4855: the fine window is
    # clipped to a_max, not to the last coarse row, so 0.483 is reachable.
    code, out, err = run(
        capsys, "scan", "--a-min", "0.40", "--a-max", "0.4855", "--step", "0.01",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rows"][-1]["a"] == 0.48
    assert data["minimizer"]["a"] == 0.483
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "91f0e248ad64aa0a71acdcbe8bd230abd9282abc291267a090f307b08543e015"
    )


def test_scan_table_footer(capsys):
    code, out, _ = run(
        capsys, "scan", "--a-min", "0.45", "--a-max", "0.55", "--step", "0.05",
        "--tol", "1e-8",
    )
    assert code == 0
    assert "slack to 6.5" in out


# `verify --suite all`: every check's name and bound, in print order.
VERIFY_CHECKS = [
    ("e_identities (3 pinned triples)", 1e-08),
    ("e_fast_vs_defining_integral", 1e-09),
    ("e_integration_by_parts (both sides quadrature)", 1e-09),
    ("kernel_transform_identity (4 cases)", 1e-06),
    ("tail_closed_forms (18 cases)", 1e-06),
    ("lemma6_fixed_cases (0..3 planted zeros)", 1e-06),
    ("lemma6_randomized (50 cases)", 1e-06),
    ("lemma6_boundary_zero_rejected", 0.5),
    ("lemma6_unit_h_trivial", 0.5),
    ("detector_weight_corner_at_least_1", 0.5),
    ("s_decomposition (S = S1+S2+S3)", 1e-12),
    ("s_vs_closed_form (ratio to allowance)", 1.0),
    ("truncated_zeta (ratio to 10x scale)", 10.0),
    ("y_k_support (nonsquarefree and k > M vanish)", 0.5),
]


def test_verify_check_list(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json", "--tol", "1e-8")
    assert code == 0
    data = json.loads(out)
    assert [(c["name"], c["bound"]) for c in data["checks"]] == VERIFY_CHECKS
    assert data["failures"] == 0


@pytest.mark.parametrize("suite", ["identities", "detector", "mollifier"])
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(
        capsys, "verify", "--suite", suite, "--format", "json", "--tol", "1e-8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == suite
    assert data["seed"] == 0
    assert data["checks"]
    assert all(c["status"] == "PASS" for c in data["checks"])


def test_verify_fails_on_nan_residual(capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a fold through max() printed PASS and exited 0.
    monkeypatch.setattr(special, "verify_e_identities", lambda *args: math.nan)
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines() if "e_identities" in line] == ["FAIL"]
    n = sum(line.startswith(("PASS", "FAIL")) for line in out.splitlines())
    assert n > 1 and out.splitlines()[-1] == f"suite identities: {n - 1}/{n} passed"

    monkeypatch.setattr(detector, "lemma6_check", lambda h, box, tol=1e-9: (0.0, 0.0, math.nan))
    code, out, _ = run(capsys, "verify", "--suite", "detector", "--format", "json")
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    for name in ("lemma6_fixed_cases (0..3 planted zeros)", "lemma6_randomized (50 cases)"):
        assert rows[name]["status"] == "FAIL" and math.isnan(rows[name]["residual"])


def test_verify_seed_changes_draws_not_outcome(capsys):
    code1, out1, _ = run(
        capsys, "verify", "--suite", "detector", "--seed", "3", "--format",
        "json", "--tol", "1e-8",
    )
    code2, out2, _ = run(
        capsys, "verify", "--suite", "detector", "--seed", "4", "--format",
        "json", "--tol", "1e-8",
    )
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["seed"] == 3 and d2["seed"] == 4
    r1 = {c["name"]: c["residual"] for c in d1["checks"]}
    r2 = {c["name"]: c["residual"] for c in d2["checks"]}
    assert r1 != r2  # different draws
    assert set(r1) == set(r2)


def test_byte_determinism(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "constants", "--format", "json", "--tol", "1e-8")
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "verify", "--suite", "detector", "--seed", "5",
            "--format", "csv", "--tol", "1e-8",
        )
        runs.append(out)
    assert runs[0] == runs[1]


def _child(*args: str, **env: str) -> subprocess.CompletedProcess:
    # a fresh interpreter that imports this checkout's rankbound, with env
    # added to its environment
    src = str(Path(rankbound.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env), timeout=60,
    )


def _module_run(*argv: str) -> subprocess.CompletedProcess:
    return _child("-m", "rankbound.cli", *argv)


_NUMPY_PROBE = """
import contextlib, io, json, sys
mods = ("numpy", "rankbound.testfn", "rankbound.mollifier",
        "dataclasses", "rankbound.detector", "rankbound.checks")
import rankbound
from rankbound import cli
seen = [[None] + [m in sys.modules for m in mods]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--format", "json"])
    seen.append([code] + [m in sys.modules for m in mods])
print(json.dumps(seen))
"""


def test_scalar_commands_skip_numpy():
    # The H pipeline and the detector are scalar: the package and these
    # commands must not load numpy, nor testfn or mollifier, the two modules
    # that import it.  The package holds no dataclass, and the detector and
    # the checks are verify's alone, so the import and the three commands
    # that compute H load neither them nor dataclasses.  One process runs
    # the commands in turn, so a row shows what it and every earlier command
    # loaded: the detector suite must load detector and checks, and the
    # mollifier suite numpy and mollifier, which shows that the probe can
    # tell each pair of cases apart.
    h_commands = [["constants"], ["bound", "--a", "0.48", "--delta", "0.5"], ["scan"]]
    verify = [["verify", "--suite", "detector"], ["verify", "--suite", "identities"]]
    argvs = h_commands + verify + [["verify", "--suite", "mollifier"]]
    proc = _child("-c", _NUMPY_PROBE, json.dumps(argvs))
    assert (proc.returncode, proc.stderr) == (0, "")
    # Each row: exit code (None for the import), then whether numpy, testfn,
    # mollifier, dataclasses, detector and checks are loaded.
    nothing = [False] * 6
    verify_only = [False, False, False, False, True, True]
    want = (
        [[None] + nothing]
        + [[0] + nothing] * len(h_commands)
        + [[0] + verify_only] * len(verify)
        + [[0, True, False, True, False, True, True]]
    )
    assert json.loads(proc.stdout) == want


_TYPING_PROBE = """
import sys
seen = ["typing" in sys.modules]
import contextlib, io
from rankbound import cli
seen.append("typing" in sys.modules)
for argv in (["constants"], ["bound", "--a", "0.48", "--delta", "0.5"], ["scan"]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append((cli.main(argv + ["--format", "json"]), "typing" in sys.modules))
print(seen)
"""


def test_scalar_commands_skip_typing():
    # Every record is a namedtuple, so the package and the commands that
    # compute H need no typing.  -S keeps site from loading it first, as
    # some installs' .pth files do; the first entry shows that the bare
    # interpreter starts without it, so the later ones can tell.
    proc = _child("-S", "-c", _TYPING_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[False, False, (0, False), (0, False), (0, False)]\n"


def _imported_modules(node: ast.AST) -> list[str]:
    # Dotted names an import statement loads, relative ones without dots.
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.module is None:
            return [alias.name for alias in node.names]
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_numpy_imports_only_at_the_top_of_two_modules():
    # The rule behind the probes above, as a module boundary: numpy is
    # imported at module level in testfn and mollifier and nowhere else, no
    # other module imports testfn, and none imports typing or dataclasses.
    numpy_at, testfn_from, record_kits = set(), set(), set()
    for path in sorted(Path(rankbound.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = _imported_modules(node)
            if any(n.split(".")[0] == "numpy" for n in names):
                numpy_at.add((path.stem, node in tree.body))
            if path.stem != "testfn" and any(
                n.removeprefix("rankbound.").split(".")[0] == "testfn" for n in names
            ):
                testfn_from.add(path.stem)
            if any(n.split(".")[0] in ("typing", "dataclasses") for n in names):
                record_kits.add(path.stem)
    assert numpy_at == {("testfn", True), ("mollifier", True)}
    assert testfn_from == set()
    assert record_kits == set()


def test_earlier_calls_do_not_leak(capsys):
    # the kernel caches outlive a command: a scan after scans at another
    # delta and another tol must print what a fresh process prints
    argv = ["scan", "--format", "json", "--delta", "0.3"]
    assert run(capsys, "scan", "--format", "json")[0] == 0
    assert run(capsys, "scan", "--format", "json", "--delta", "0.3", "--tol", "1e-8")[0] == 0
    code, out, _ = run(capsys, *argv)
    proc = _module_run(*argv)
    assert (code, proc.returncode) == (0, 0)
    assert out == proc.stdout


def test_exit_codes(capsys):
    # tolerance outside the supported window
    code, _, err = run(capsys, "constants", "--tol", "1")
    assert code == 2 and "tol" in err
    code, _, err = run(capsys, "constants", "--tol", "1e-15")
    assert code == 2
    # invalid parameter values surface as exit 2, not tracebacks
    code, _, err = run(capsys, "bound", "--a", "2", "--delta", "0.5")
    assert code == 2 and err
    code, _, err = run(capsys, "scan", "--a-min", "0.7", "--a-max", "0.3")
    assert code == 2
    code, _, err = run(capsys, "scan", "--step", "nan")
    assert code == 2 and "step must be positive" in err
    code, _, err = run(capsys, "scan", "--step", "inf")
    assert code == 2 and "step" in err
    # a grid too large to scan is refused before any point is built
    start = time.perf_counter()
    code, _, err = run(capsys, "scan", "--step", "1e-9")
    assert code == 2 and "grid too large" in err
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "scan", "--step", "5e-324")
    assert code == 2 and "grid too large" in err
    # every tol in the window passes the identities: each check caps or
    # floors its tol where its bound and its integrals need it
    start = time.perf_counter()
    for tol in ("1e-14", "1e-4"):
        code, out, err = run(capsys, "verify", "--suite", "identities", "--tol", tol)
        assert code == 0 and "FAIL" not in out and err == ""
    assert time.perf_counter() - start < 5.0
    # a non-finite H is a numerical failure, never a printed result; here
    # 1/(a delta) is finite and H overflows only after the work
    code, out, err = run(capsys, "bound", "--a", "0.5", "--delta", "1.15e-308")
    assert code == 1 and out == "" and "computation failed" in err
    # argparse-level failures keep their conventional exit code
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    # --seed belongs to verify alone
    for argv in (
        ["constants", "--seed", "1"],
        ["bound", "--a", "0.48", "--delta", "0.5", "--seed", "1"],
        ["scan", "--seed", "1"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""
    code, out, _ = run(capsys, "verify", "--suite", "detector", "--seed", "1", "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 1


_EDGE_FLOATS = ("nan", "inf", "-inf", "5e-324", "1e-15", "0.9999999999999999")


def _floats(*ordinary: str):
    return st.sampled_from(_EDGE_FLOATS + ordinary)


def _option(name: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


_A, _DELTA, _TOL = _floats("0.3", "0.45", "0.483", "0.7"), _floats("0.5", "0.25", "0.6"), _floats("1e-8")
_FUZZ_ARGV = st.one_of(
    st.tuples(st.just(["constants"]), _option("--tol", _TOL)),
    st.tuples(
        st.just(["bound"]),
        _A.map(lambda v: ["--a", v]),
        _DELTA.map(lambda v: ["--delta", v]),
        _option("--tol", _TOL),
    ),
    st.tuples(
        st.just(["scan"]),
        _option("--a-min", _A),
        _option("--a-max", _A),
        _floats("0.05", "0.1").map(lambda v: ["--step", v]),
        _option("--delta", _DELTA),
        _option("--tol", _TOL),
    ),
).map(lambda parts: sum(parts, []) + ["--format", "json"])


def _numbers(v):
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        return [x for item in v for x in _numbers(item)]
    return [v] if isinstance(v, float) else []


@given(_FUZZ_ARGV)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_no_input_fails_late_or_prints_nonfinite(argv):
    # Exit 2 (bad parameters) comes before any h_of_a returns, and exit 0
    # prints only finite numbers.  Grids of more than 50 points are skipped
    # to keep the test fast; test_exit_codes covers the refused ones.
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "scan":
        span = float(opts.get("--a-max", "0.7")) - float(opts.get("--a-min", "0.3"))
        assume(not span / float(opts["--step"]) > 50)
    returned = []
    h_of_a = bound.h_of_a

    def counted(*args):
        report = h_of_a(*args)
        returned.append(args)
        return report

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(bound, "h_of_a", counted)
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert all(math.isfinite(x) for x in _numbers(json.loads(out.getvalue())))
    if code == 2:
        assert returned == []
    if argv[0] != "constants" and opts.get("--delta") == "5e-324":
        assert code == 2  # a * delta underflows to 0 whatever a is


@pytest.mark.parametrize("argv", [
    "bound --a 0.483 --delta 5e-324",
    "bound --a 5e-324 --delta 0.5",
    "bound --a 0.5 --delta 1e-320",
    "scan --delta 5e-324",
])
def test_infinite_reciprocal_fails_before_any_work(capsys, monkeypatch, argv):
    # 1/(a delta) is inf, or a * delta is 0: no H can be finite, so the
    # parameters are refused before phi0hat(0) or a G pair is computed
    calls = []
    monkeypatch.setattr(bound, "_g_pair", lambda *args: calls.append(args))
    monkeypatch.setattr(bound, "_phi0_hat0", lambda *args: calls.append(args))
    code, out, err = run(capsys, *argv.split())
    assert (code, out, calls) == (2, "", [])
    assert "1/(a delta) is not finite" in err


def test_output_rounding(capsys):
    # The writer's digits follow one rule whatever the computed values are,
    # so this holds on any libm or numpy build: json floats at 12
    # significant digits however nested, ints and strings as they are; csv
    # number cells at 12 digits and table number cells at 6, strings as
    # they are; only the table prints the footer.
    headers = ["status", "value", "other"]
    rows = [["PASS", 1 / 3, 12345678.901234567], ["FAIL", math.inf, 7]]
    obj = {"x": 0.1 + 0.2, "n": 3, "s": "PASS", "nested": {"ys": [1 / 3, 2.0], "inf": math.inf}}
    want = {
        "json": (
            '{\n  "x": 0.3,\n  "n": 3,\n  "s": "PASS",\n  "nested": {\n'
            '    "ys": [\n      0.333333333333,\n      2.0\n    ],\n'
            '    "inf": Infinity\n  }\n}\n'
        ),
        "csv": "status,value,other\nPASS,0.333333333333,12345678.9012\nFAIL,inf,7\n",
        "table": (
            "status  value     other\n"
            "PASS    0.333333  1.23457e+07\n"
            "FAIL    inf       7\n"
            "done\n"
        ),
    }
    for fmt, text in want.items():
        cli._emit(fmt, headers, rows, obj, footer="done\n")
        assert capsys.readouterr() == (text, "")


def _round12(v):
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, dict):
        return {k: _round12(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_round12(x) for x in v]
    return v


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1.7976931348623157e308]
_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u20ac\U0001f600'))
_JSON_TREES = st.recursive(
    st.floats() | st.sampled_from(_EDGE_FLOATS) | st.integers() | st.booleans() | st.none() | _TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(_TEXT, _JSON_TREES, max_size=5))
@example({"": {}, "[]": [], "deep": [[], {}, [{}], {"e": []}], "edge": _EDGE_FLOATS})
@settings(max_examples=60, deadline=None)
def test_json_writer_matches_json_dumps(obj):
    # the writer gives json.dumps's indent=2 bytes after 12-digit rounding
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit("json", [], [], obj)
    assert buf.getvalue() == json.dumps(_round12(obj), indent=2) + "\n"


_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FLOAT_TEXT_CASES = [
    float(f"{sign}{m}e{x}")
    for x in range(-324, 309)
    for m in ("1", "1.5", "1.23456789012", "9.999999999995")
    for sign in ("", "-")
] + [
    0.0, -0.0, 3.0, 1e11, 1e12, 123456789012.0, 1e15, 1e16, 5e-324,
    1.7976931348623157e308, math.nan, math.inf, -math.inf,
]


def test_float_text_at_every_exponent():
    # The writer skips the second conversion for some floats; it must give
    # the converted text at every decimal exponent, the band from 1e12 to
    # 1e16 where .12g and repr choose different notations included.
    for v in _FLOAT_TEXT_CASES:
        r = repr(float(f"{v:.12g}"))
        assert cli._json(v) == _NONFINITE_TEXT.get(r, r), v


def test_parser_is_built_once(capsys, monkeypatch):
    # one parser serves every main() call in a process, and an earlier
    # call, failed or not, leaves nothing behind in it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = run(capsys, "verify", "--suite", "bogus")
    n_built = len(built)
    assert run(capsys, "scan", "--delta", "0.3", "--format", "json")[0] == 0
    assert run(capsys, "verify", "--suite", "bogus") == first
    code, out, _ = run(capsys, "scan", "--format", "json")
    assert first[0] == 2 and first[2]
    assert code == 0 and json.loads(out)["delta"] == 0.5
    assert len(built) == n_built


def test_module_run_is_quiet(capsys):
    # `python -m rankbound.cli` must not find the module already imported by
    # the package, which makes runpy warn on stderr
    argv = ["bound", "--a", "0.48", "--delta", "0.5"]
    proc = _module_run(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, *argv)[1]


# sha256 of the stdout of the reference commands: constants, one bound, the
# default scan and a short one, and every verify suite at two seeds, each in
# three formats.  Each exits 0 with nothing on stderr.  The digests pin every
# printed digit, so they hold for one platform's libm and numpy build.
REFERENCE_SHA256 = {
    "constants --format table":
        "0f4569807997da466697a2fbb9a2ab259fb8d6cc2362accc5cc6ed64b27a2760",
    "bound --a 0.48 --delta 0.5 --format table":
        "1d7d83b93b45c6bcbc026a28d7585d2e6e586394f0c2c056b42aeddb872c589c",
    "scan --format table":
        "90032cf6d96df52ab85e3d693087cda18b5308f3d452540a04e01af528d73df6",
    "scan --a-min 0.45 --a-max 0.55 --step 0.05 --format table":
        "7b8324035b4303d23a153507b2e7fe9159365e6ada7aeb0c62395aed2d64d103",
    "verify --suite identities --seed 0 --format table":
        "8dd83cf764d1f3db444a6e4b5ae9cfee26ca16365ce1b1984d9ce424ceef77e4",
    "verify --suite identities --seed 5 --format table":
        "c2ef8808b0e6cd966b04b23533248e9e1a8b09108fe4b4151c027f29fa6f33b0",
    "verify --suite detector --seed 0 --format table":
        "68d71141fcf8c9c738f5eb82011263eb6005dfd4bba1474c323a6da130f74ff3",
    "verify --suite detector --seed 5 --format table":
        "7a422885f0f8f07d176e0d924b92649fcd596d000deede008dbad81b016f91e3",
    "verify --suite mollifier --seed 0 --format table":
        "d5b8909ee07491af791f11b8d354f4bed62e9163d2325d384f50a61a3cf04123",
    "verify --suite mollifier --seed 5 --format table":
        "3349b34c585b81b8efae469fc857d3092b8c2689651127ce86cc315577c12d96",
    "verify --suite all --seed 0 --format table":
        "7a87d90de22451432c60ea0d7b61c1a08527ea26537d7ea4af6c5d823b371142",
    "verify --suite all --seed 5 --format table":
        "39aac62883112e848c20974d0e4a662fa95630716a0065f8c354c667f94e33bd",
    "constants --format json":
        "d0ca86caaa36002f6272e9a137e80d8c19f83865df474522bc3888efc8e56b5e",
    "bound --a 0.48 --delta 0.5 --format json":
        "a64a262c05b1898c8c6bdef9a2e1fefe00f8217848f41862ef5d4ba09cc14079",
    "scan --format json":
        "4f2705acd9c451d818e633ccbf5173705ddbf98fbf642b357ed9a7fe0b7ac071",
    "scan --a-min 0.45 --a-max 0.55 --step 0.05 --format json":
        "8a56d83aa4789a42cc886f58f31fec4799b71e6699bfa25742086fcbd018e20e",
    "verify --suite identities --seed 0 --format json":
        "6c94abf4877fc9a007e457ce3feff79158f7acc82490e73754e51d51880f0cfd",
    "verify --suite identities --seed 5 --format json":
        "f0909274797211e91aff1c6761e9474d4a18669ff187f88186ab61d4681337c1",
    "verify --suite detector --seed 0 --format json":
        "78b9b51a95af6e6c8f043eff5775a164e3d153349a16ec22b9586d6202118e8a",
    "verify --suite detector --seed 5 --format json":
        "f158425b3233e5c20a0211d7d5e5bfc77447ef070a55d2e4d8e605fb2d528a04",
    "verify --suite mollifier --seed 0 --format json":
        "40ab2c03f1be76d5c3852c39abea8bfd5b15be2accc24a45244d5249a6e00236",
    "verify --suite mollifier --seed 5 --format json":
        "44592a50f730ba1faf2683639112d8302c0f326af081503d0acc5d00223842a9",
    "verify --suite all --seed 0 --format json":
        "9b5fdbb4c6cee9a4d900add7a219f5a724b1fcbb6c9ff494946cb1a06f464be9",
    "verify --suite all --seed 5 --format json":
        "634e5e03db2268593343d55c3dd5a785621f016c7b0adbeda3fadb5bc633a31b",
    "constants --format csv":
        "241b037e21175db5be3c63690c800277caef5775cb5f305fc734ca2c5f98f918",
    "bound --a 0.48 --delta 0.5 --format csv":
        "21b388aff73e0505a88eec0c13af25c382be7e998e51d10a38c72a321c1bc024",
    "scan --format csv":
        "6cf64f28bf420749952433939d40947e3e61336c77c0a5e8d00f4094eef386fb",
    "scan --a-min 0.45 --a-max 0.55 --step 0.05 --format csv":
        "b10f99aaa78e1af5b3e7f29b177b97e62c3262837fea67af1146db3c90c67e50",
    "verify --suite identities --seed 0 --format csv":
        "fe4c93c6b10aad213d6a1e95e146104c4ecfa34e22dec2364b66169315db7448",
    "verify --suite identities --seed 5 --format csv":
        "16fa9b84faf4b9cedcef122f9824a76fbe850c9e20c18220f140f4ad4721bbc9",
    "verify --suite detector --seed 0 --format csv":
        "e08bad3dcd3f62040955bcfbc3a1dadbcca19f9896c5d96b2634afb4e4c4fa92",
    "verify --suite detector --seed 5 --format csv":
        "7133356933ce50ee688c6b637f60272c9a34e9b446ce0905d7b66379cdf84bb7",
    "verify --suite mollifier --seed 0 --format csv":
        "96e37af9abdd2824268ec7b2a28bcaaa5ffaea0a7f02091be3d04707b73cb6a0",
    "verify --suite mollifier --seed 5 --format csv":
        "99f325c3997fc2a1b252daca3c7c619e016ed1127351364911f547b6a5afc807",
    "verify --suite all --seed 0 --format csv":
        "69e272582d3b0ac7cebdf969283304e99aa2187ad4a984760165de7a78203d46",
    "verify --suite all --seed 5 --format csv":
        "05d74a845e664cd8419e347fb1951124296afea999254d606e2047a374ac7fda",
}


def test_reference_outputs(capsys):
    changed = []
    for argv, want in REFERENCE_SHA256.items():
        code, out, err = run(capsys, *argv.split())
        if (code, err, hashlib.sha256(out.encode()).hexdigest()) != (0, "", want):
            changed.append(argv)
    assert changed == []


_REDUCED_FEATURES = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

_PIN_PROBE = """
import contextlib, hashlib, io, json, sys
from rankbound import cli
digests = {}
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    digests[argv] = [code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()]
sys.path.insert(0, sys.argv[2])
import test_mollifier
test_mollifier.test_s_sums_exact_bits(test_mollifier.ArithTable(100000))
print(json.dumps(digests))
"""


def test_pins_hold_at_reduced_dispatch():
    # numpy picks its SIMD kernels for the host when it loads.  A child with
    # numpy's AVX-512 and AVX2 kernels switched off and OpenBLAS held to its
    # Haswell kernels, in the child's environment only, must reproduce the
    # reference digests and the s_sums bit pins.  check_positivity's minimum
    # does move with the dispatch level, by about 1e-9 relative, so nothing
    # pins its bits.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    missing = [f for f in _REDUCED_FEATURES.split() if not umath.__cpu_features__.get(f)]
    if missing:
        pytest.skip(f"numpy does not dispatch to {' '.join(missing)} here: nothing to switch off")
    proc = _child(
        "-c", _PIN_PROBE, json.dumps(list(REFERENCE_SHA256)), str(Path(__file__).resolve().parent),
        NPY_DISABLE_CPU_FEATURES=_REDUCED_FEATURES, OPENBLAS_CORETYPE="Haswell",
    )
    assert proc.returncode == 0, proc.stderr
    want = {argv: [0, "", digest] for argv, digest in REFERENCE_SHA256.items()}
    assert json.loads(proc.stdout) == want
