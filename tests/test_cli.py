"""Command line entry point: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rankbound
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


def _module_run(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(rankbound.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rankbound.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


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
    # a grid too large to scan is refused before any point is built
    start = time.perf_counter()
    code, _, err = run(capsys, "scan", "--step", "1e-9")
    assert code == 2 and "grid too large" in err
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "scan", "--step", "5e-324")
    assert code == 2 and "grid too large" in err
    # a tolerance the integrator cannot certify fails fast, with its reason
    code, out, err = run(capsys, "verify", "--suite", "identities", "--tol", "1e-13")
    assert code == 1 and out == "" and "computation failed" in err
    assert "all panels at the width floor" not in err
    # a non-finite H is a numerical failure, never a printed result
    code, out, err = run(capsys, "bound", "--a", "0.5", "--delta", "1e-320")
    assert code == 1 and out == "" and "computation failed" in err
    # argparse-level failures keep their conventional exit code
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_module_run_is_quiet(capsys):
    # `python -m rankbound.cli` must not find the module already imported by
    # the package, which makes runpy warn on stderr
    argv = ["bound", "--a", "0.48", "--delta", "0.5"]
    proc = _module_run(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, *argv)[1]
