"""Explicit average analytic rank bound, end to end in doubles.

The pipeline: smoothed test functions and their sharp limits (testfn), the
density kernels F and K with the functional G_psi (kernels), the box zero
detector and its counting identity (detector), brute-force mollifier
arithmetic (mollifier), and the assembled bound H(a, delta) whose minimum at
delta = 1/2 lands just under 6.5 (bound).  All integrals use the
Gauss-Kronrod rule in quadrature; special holds the E function the
closed forms are written in; checks holds the verification checks that
`rankbound verify` and the acceptance tests share.
"""

from . import bound, checks, cli, detector, kernels, mollifier, quadrature, special, testfn
from .bound import BoundReport, h_of_a, minimize
from .detector import DetectorBox, SyntheticH, lemma6_check
from .kernels import big_f, big_k, c_const, g_psi
from .mollifier import ArithTable, MollifierParams
from .quadrature import IntegrationDomain, Measure, integrate, integrate_measure
from .special import exp_e
from .testfn import SmoothingParam, limit_measure, phi_eps

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
    "BoundReport",
    "h_of_a",
    "minimize",
    "DetectorBox",
    "SyntheticH",
    "lemma6_check",
    "big_f",
    "big_k",
    "c_const",
    "g_psi",
    "ArithTable",
    "MollifierParams",
    "IntegrationDomain",
    "Measure",
    "integrate",
    "integrate_measure",
    "exp_e",
    "SmoothingParam",
    "limit_measure",
    "phi_eps",
    "__version__",
]
