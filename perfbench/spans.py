"""Outside-in span tracing of pnnreg's public functions.

The tracer replaces each listed function by a wrapper in every pnnreg
module namespace that holds it (``pnnreg.width.eig_sym`` and
``pnnreg.core.eig_sym`` are the same object, so both names are patched),
and the method ``ProjectionOperator.apply`` on its class. Spans are kept in
memory as ``(name, start, end, parent)`` tuples; the parent is the index
of the enclosing span, or -1. Counts (iterations, converged flags) are
taken from the wrapped functions' return values only.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "core", "width", "nearest", "estimators", "risk", "bench", "harness")


def _relax_record(res):
    f = res.t_star + res.gap
    return res.iterations, bool(res.converged), (res.gap / f if f > 0 else 0.0)


def _l1_ls_record(sol):
    return sol.iterations, bool(sol.converged)


def _mc_record(rep):
    return rep.trials * len(rep.means)


# (module, attribute, span name, extractor of the counts kept per call)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_matrix_csv", "cli.load_matrix_csv", None),
    ("core", "eig_sym", "core.eig_sym", None),
    ("core", "complement", "core.complement", None),
    ("core", "make_rng", "core.make_rng", None),
    ("width", "width_profile", "width.profile", None),
    ("width", "width_relaxation_solve", "width.relax", _relax_record),
    ("width", "round_projection", "width.round", None),
    ("width", "pca_projection", "width.pca", None),
    ("nearest", "l1_ls", "nearest.l1_ls", _l1_ls_record),
    ("nearest", "project_l1_ball", "nearest.project_l1", None),
    ("nearest", "ellipsoid_nearest", "nearest.ellipsoid", None),
    ("estimators", "pnn_solve", "estimators.pnn_solve", None),
    ("estimators", "nn_estimate", "estimators.nn_estimate", None),
    ("estimators", "pnn_select", "estimators.pnn_select", None),
    ("risk", "mc_risk", "risk.mc_risk", _mc_record),
    ("risk", "candidate_set", "risk.candidate_set", None),
    ("bench", "bench_ellipsoid", "bench.ellipsoid", None),
    ("bench", "bench_product", "bench.product", None),
    ("bench", "bench_identity", "bench.identity", None),
)


class Tracer:
    """Collects spans and per-call counts while installed."""

    def __init__(self):
        self.spans = []
        self.records = {}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        records = self.records.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if extract is not None:
                records.append(extract(result))
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around harness code, such as one pass of a workload."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    @contextmanager
    def installed(self):
        """Patch the targets for the duration of the block."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def _install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "pnnreg" or k.startswith("pnnreg.")]
        for mod, attr, name, extract in TARGETS:
            orig = getattr(sys.modules[f"pnnreg.{mod}"], attr)
            wrapper = self._wrap(name, orig, extract)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        cls = sys.modules["pnnreg.core"].ProjectionOperator
        self._undo.append((cls, "apply", cls.apply))
        cls.apply = self._wrap("core.proj_apply", cls.apply, None)

    def _uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take(self):
        """Return and reset the spans and records gathered so far."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, records = self.spans, self.records
        self.spans, self.records = [], {}
        return spans, records


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _), c in zip(spans, child)]


def summarize(spans, records):
    """Per-layer metrics of one traced phase whose root span is spans[0].

    Returns {metric name: value}. ``*_s`` names are inclusive seconds,
    ``*_self_s`` exclude time spent in traced callees, and ``share.<layer>``
    is the layer's self time as a percentage of the root span.
    """
    selfs = self_times(spans)
    incl, self_s, calls = {}, {}, {}
    for (name, t0, t1, _), s in zip(spans, selfs):
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    root = spans[0][2] - spans[0][1]

    def layer_share(layer):
        tot = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        return 100.0 * tot / root if root > 0 else 0.0

    relax = records.get("width.relax", [])
    fits = records.get("nearest.l1_ls", [])
    iters = [r[0] for r in fits]
    m = {
        "width.relax_s": incl.get("width.relax", 0.0),
        "width.relax_iters": sum(r[0] for r in relax),
        "width.relax_calls": calls.get("width.relax", 0),
        "width.relax_unconverged": sum(not r[1] for r in relax),
        "width.relax_gap_rel_max": max((r[2] for r in relax), default=0.0),
        "width.round_s": incl.get("width.round", 0.0),
        "width.round_calls": calls.get("width.round", 0),
        "width.pca_s": incl.get("width.pca", 0.0),
        "width.profile_self_s": self_s.get("width.profile", 0.0),
        "core.eig_sym_s": incl.get("core.eig_sym", 0.0),
        "core.eig_sym_calls": calls.get("core.eig_sym", 0),
        "core.proj_apply_s": incl.get("core.proj_apply", 0.0),
        "core.proj_apply_calls": calls.get("core.proj_apply", 0),
        "core.complement_s": incl.get("core.complement", 0.0),
        "core.make_rng_s": incl.get("core.make_rng", 0.0),
        "core.make_rng_calls": calls.get("core.make_rng", 0),
        "nearest.l1_ls_self_s": self_s.get("nearest.l1_ls", 0.0),
        "nearest.l1_ls_calls": calls.get("nearest.l1_ls", 0),
        "nearest.l1_ls_iters": sum(iters),
        "nearest.l1_ls_iters_p99": (
            statistics.quantiles(iters, n=100, method="inclusive")[98] if len(iters) > 1 else float(sum(iters))
        ),
        "nearest.l1_ls_unconverged": sum(not r[1] for r in fits),
        "nearest.project_l1_s": incl.get("nearest.project_l1", 0.0),
        "nearest.project_l1_calls": calls.get("nearest.project_l1", 0),
        "nearest.ellipsoid_s": incl.get("nearest.ellipsoid", 0.0),
        "nearest.ellipsoid_calls": calls.get("nearest.ellipsoid", 0),
        "estimators.pnn_solve_self_s": self_s.get("estimators.pnn_solve", 0.0),
        "estimators.nn_estimate_self_s": self_s.get("estimators.nn_estimate", 0.0),
        "estimators.pnn_select_s": incl.get("estimators.pnn_select", 0.0),
        "risk.mc_risk_self_s": self_s.get("risk.mc_risk", 0.0),
        "risk.mc_trials": sum(records.get("risk.mc_risk", [])),
        "risk.candidate_set_s": incl.get("risk.candidate_set", 0.0),
        "bench.ellipsoid_self_s": self_s.get("bench.ellipsoid", 0.0),
        "bench.product_self_s": self_s.get("bench.product", 0.0),
        "bench.identity_self_s": self_s.get("bench.identity", 0.0),
        "cli.main_self_s": self_s.get("cli.main", 0.0),
        "cli.load_matrix_csv_s": incl.get("cli.load_matrix_csv", 0.0),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_share(layer)
    return m
