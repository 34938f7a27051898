"""Explicit average analytic rank bound, end to end in doubles.

The pipeline: the sharp limit phi_0 of the test functions, as measures, with
their transforms (limits), the density kernels F and K with the functional
G_psi (kernels), the box zero detector and its counting identity (detector),
brute-force mollifier arithmetic (mollifier), and the assembled bound
H(a, delta) whose minimum at delta = 1/2 lands just under 6.5 (bound).  All
integrals use the Gauss-Kronrod rule in quadrature; special holds the E
function the closed forms are written in; testfn holds the smoothed test
functions phi_eps, whose eps -> 0 convergence and positivity only
verification reads; checks holds the verification checks that
`rankbound verify` and the acceptance tests share.

The H pipeline and the detector (special, quadrature, limits, kernels, bound
and detector) are scalar and start without numpy, so `rankbound constants`,
`bound`, `scan` and `verify --suite identities` or `detector` never load it.
numpy is imported at the top of the two modules that build arrays, testfn
and mollifier, and the package imports both on first access.
"""

import importlib

from . import bound, detector, kernels, limits, quadrature, special

__version__ = "0.1.0"

__all__ = [
    "bound",
    "checks",
    "cli",
    "detector",
    "kernels",
    "limits",
    "mollifier",
    "quadrature",
    "special",
    "testfn",
    "__version__",
]


def __getattr__(name: str):
    # cli, checks, mollifier and testfn are imported on first access, not
    # with the package: cli so that `python -m rankbound.cli` runs it once as
    # __main__ without a warning, the others so that the package starts
    # without numpy (tests/test_cli.py::test_scalar_commands_skip_numpy).
    if name in ("checks", "cli", "mollifier", "testfn"):
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
