"""Explicit average analytic rank bound, end to end in doubles.

The pipeline: smoothed test functions and their sharp limits (testfn), the
density kernels F and K with the functional G_psi (kernels), the box zero
detector and its counting identity (detector), brute-force mollifier
arithmetic (mollifier), and the assembled bound H(a, delta) whose minimum at
delta = 1/2 lands just under 6.5 (bound).  All integrals use the
Gauss-Kronrod rule in quadrature; special holds the E function the
closed forms are written in; checks holds the verification checks that
`rankbound verify` and the acceptance tests share.

The H pipeline and the detector (special, quadrature, kernels, bound,
detector and testfn's limit measures) are scalar and start without numpy, so
`rankbound constants`, `bound`, `scan` and `verify --suite identities` or
`detector` never load it.  numpy is imported where an array is built: the
mollifier tables, testfn's smoothing family (the finite-eps functional and
the positivity scan) and quadrature's composite rule behind them.
"""

import importlib

from . import bound, detector, kernels, quadrature, special, testfn

__version__ = "0.1.0"

__all__ = [
    "bound",
    "checks",
    "cli",
    "detector",
    "kernels",
    "mollifier",
    "quadrature",
    "special",
    "testfn",
    "__version__",
]


def __getattr__(name: str):
    # cli, checks and mollifier are imported on first access, not with the
    # package: cli so that `python -m rankbound.cli` runs it once as __main__
    # without a warning, checks and mollifier so that the package starts
    # without numpy (tests/test_cli.py::test_scalar_commands_skip_numpy).
    if name in ("checks", "cli", "mollifier"):
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
