"""Outside-in tracer: counts and times the calls into rankbound's public functions.

Every function a module lists in ``__all__`` is wrapped, and the wrapper is
bound in every module namespace that holds the function, because several
modules import names directly (kernels binds exp_e, exp_e1 and integrate;
testfn and detector bind integrate).  Wrapping only ``quadrature.integrate``
would miss those calls.  The package itself is not modified on disk; the
rebinding lives only in the traced process.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Integrand closures are not public functions, so the time a
caller's integrand spends outside other wrapped calls counts toward
``quadrature.self_s``.  ArithTable's per-exponent table lookups are counted
but not timed, so their work stays in the self time of s_sums and
truncated_zeta_check, the public functions that trigger it.
"""
from __future__ import annotations

import collections
import functools
import time
import types
import weakref

import numpy as np

import rankbound as rb

MODULES = ("quadrature", "special", "testfn", "kernels", "detector", "mollifier", "bound", "cli")

# s_sums allocates, per table entry, about twelve 8-byte vectors (k, idx,
# logs and its two temporaries, then b_hi, lg_hi and the five products of
# the h-sums over the upper range) and six boolean masks.
_S_SUMS_BYTES_PER_ENTRY = 12 * 8 + 6


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _measure_key(m) -> tuple:
    d = m.density
    dens = None if d is None else (d.breakpoints, d.value_continuous)
    return dens, m.atoms


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = collections.defaultdict(Span)
        self.counts: collections.Counter = collections.Counter()
        self._child = [0.0]  # time spent in wrapped callees, per open span

    def wrap(self, label: str, fn, before=None, after=None):
        span = self.spans[label]
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child.append(0.0)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                span.calls += 1
                span.self_s += dt - child.pop()
                child[-1] += dt
                if after is not None:
                    after(args, result, exc)
            return result

        return traced

    def _lookups(self, label: str, method, bytes_per_entry: int):
        """Count calls and repeats of a per-table, per-exponent lookup."""
        seen = weakref.WeakKeyDictionary()
        counts = self.counts

        @functools.wraps(method)
        def counted(table, key):
            keys = seen.setdefault(table, set())
            counts[label + ".calls"] += 1
            if key in keys:
                counts[label + ".hits"] += 1
            else:
                keys.add(key)
                counts["mollifier.bytes"] += bytes_per_entry * (table.limit + 1)
            return method(table, key)

        return counted

    def _hooks(self) -> dict:
        counts = self.counts
        g_seen: set = set()
        h_seen: set = set()

        def integrate_after(args, result, exc):
            if isinstance(exc, rb.quadrature.QuadratureError):
                counts["quadrature.failures"] += 1
                best = getattr(exc, "best", None)
                if best is not None:
                    counts["quadrature.evals"] += best.n_evals
            elif exc is None:
                counts["quadrature.evals"] += result.n_evals

        def g_psi_before(args, kwargs):
            key = (
                _arg(args, kwargs, 0, "a"),
                _arg(args, kwargs, 2, "tol", rb.quadrature.DEFAULT_TOL),
                _measure_key(_arg(args, kwargs, 1, "psi")),
            )
            counts["kernels.g_psi.repeats"] += key in g_seen
            g_seen.add(key)

        def h_of_a_before(args, kwargs):
            key = (
                _arg(args, kwargs, 0, "a"),
                _arg(args, kwargs, 1, "delta"),
                _arg(args, kwargs, 2, "tol", 1e-10),
            )
            counts["bound.h_of_a.repeats"] += key in h_seen
            h_seen.add(key)

        def lemma6_after(args, result, exc):
            counts["detector.lemma6_check.rejected"] += isinstance(exc, ValueError)

        def phi_eps_deriv_before(args, kwargs):
            counts["testfn.phi_eps_deriv.points"] += int(np.size(_arg(args, kwargs, 1, "x")))

        def s_sums_before(args, kwargs):
            m = _arg(args, kwargs, 1, "p").M
            counts["mollifier.bytes"] += _S_SUMS_BYTES_PER_ENTRY * (m + 1)

        return {
            "quadrature.integrate": (None, integrate_after),
            "kernels.g_psi": (g_psi_before, None),
            "bound.h_of_a": (h_of_a_before, None),
            "detector.lemma6_check": (None, lemma6_after),
            "testfn.phi_eps_deriv": (phi_eps_deriv_before, None),
            "mollifier.s_sums": (s_sums_before, None),
        }

    def install(self) -> None:
        modules = [getattr(rb, short) for short in MODULES]
        labels = {}
        for short, mod in zip(MODULES, modules):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    labels[obj] = f"{short}.{name}"
        hooks = self._hooks()
        wrapped = {fn: self.wrap(label, fn, *hooks.get(label, ())) for fn, label in labels.items()}
        for mod in [rb, *modules]:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

        counts = self.counts

        def table_after(args, result, exc):
            if exc is None:
                table = args[0]
                counts["mollifier.ArithTable.entries"] += table.limit + 1
                counts["mollifier.bytes"] += (
                    table.spf.nbytes + table.mu.nbytes + table.primes.nbytes
                )

        cls = rb.mollifier.ArithTable
        cls.__init__ = self.wrap("mollifier.ArithTable", cls.__init__, after=table_after)
        cls.omega_table = self._lookups("mollifier.omega_table", cls.omega_table, 8)
        # base_vector builds k and the vector itself on a miss.
        cls.base_vector = self._lookups("mollifier.base_vector", cls.base_vector, 16)

    def self_times(self) -> list[tuple[str, float]]:
        return sorted(((k, s.self_s) for k, s in self.spans.items()), key=lambda kv: -kv[1])

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        sp, c = self.spans, self.counts

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        integrals = sp["quadrature.integrate"].calls
        quad_self = sum(s.self_s for k, s in sp.items() if k.startswith("quadrature."))
        return {
            "special.exp_e1.calls": (sp["special.exp_e1"].calls, "count"),
            "special.exp_e1.self_s": (sp["special.exp_e1"].self_s, "s"),
            "special.exp_e.calls": (sp["special.exp_e"].calls, "count"),
            "special.exp_e.self_s": (sp["special.exp_e"].self_s, "s"),
            "kernels.big_k.calls": (sp["kernels.big_k"].calls, "count"),
            "kernels.big_k.self_s": (sp["kernels.big_k"].self_s, "s"),
            "kernels.big_f.calls": (sp["kernels.big_f"].calls, "count"),
            "kernels.g_psi.calls": (sp["kernels.g_psi"].calls, "count"),
            "kernels.g_psi.self_s": (sp["kernels.g_psi"].self_s, "s"),
            "kernels.g_psi.repeat_share": (
                share(c["kernels.g_psi.repeats"], sp["kernels.g_psi"].calls), "ratio"),
            "quadrature.integrals": (integrals, "count"),
            "quadrature.evals": (c["quadrature.evals"], "count"),
            "quadrature.evals_per_integral": (share(c["quadrature.evals"], integrals), "count"),
            "quadrature.self_s": (quad_self, "s"),
            "quadrature.failures": (c["quadrature.failures"], "count"),
            "testfn.phi_eps_deriv.calls": (sp["testfn.phi_eps_deriv"].calls, "count"),
            "testfn.phi_eps_deriv.points": (c["testfn.phi_eps_deriv.points"], "count"),
            "testfn.phi_eps_deriv.self_s": (sp["testfn.phi_eps_deriv"].self_s, "s"),
            "testfn.check_positivity.self_s": (sp["testfn.check_positivity"].self_s, "s"),
            "detector.lemma6_check.calls": (sp["detector.lemma6_check"].calls, "count"),
            "detector.lemma6_check.self_s": (sp["detector.lemma6_check"].self_s, "s"),
            "detector.lemma6_check.rejected_share": (
                share(c["detector.lemma6_check.rejected"], sp["detector.lemma6_check"].calls),
                "ratio"),
            "mollifier.ArithTable.builds": (sp["mollifier.ArithTable"].calls, "count"),
            "mollifier.ArithTable.self_s": (sp["mollifier.ArithTable"].self_s, "s"),
            "mollifier.ArithTable.entries": (c["mollifier.ArithTable.entries"], "count"),
            "mollifier.s_sums.calls": (sp["mollifier.s_sums"].calls, "count"),
            "mollifier.s_sums.self_s": (sp["mollifier.s_sums"].self_s, "s"),
            "mollifier.omega_table.hit_ratio": (
                share(c["mollifier.omega_table.hits"], c["mollifier.omega_table.calls"]),
                "ratio"),
            "mollifier.base_vector.hit_ratio": (
                share(c["mollifier.base_vector.hits"], c["mollifier.base_vector.calls"]),
                "ratio"),
            "mollifier.y_k_bruteforce.self_s": (sp["mollifier.y_k_bruteforce"].self_s, "s"),
            "mollifier.arith.calls": (sp["mollifier.arith"].calls, "count"),
            "mollifier.bytes_computed": (c["mollifier.bytes"], "B"),
            "bound.h_of_a.calls": (sp["bound.h_of_a"].calls, "count"),
            "bound.h_of_a.hit_ratio": (
                share(c["bound.h_of_a.repeats"], sp["bound.h_of_a"].calls), "ratio"),
            "bound.h_of_a.self_s": (sp["bound.h_of_a"].self_s, "s"),
            "bound.minimize.calls": (sp["bound.minimize"].calls, "count"),
            "cli.main.calls": (sp["cli.main"].calls, "count"),
            "cli.main.self_s": (sp["cli.main"].self_s, "s"),
        }
