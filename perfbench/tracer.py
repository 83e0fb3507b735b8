"""Span tracing from outside the package.

``Tracer.install`` rebinds the public functions of each svshrink module (and
a few class methods) to wrappers that record a span per call: name, start,
end and parent span.  Calls made inside the package look these names up on
their module at call time, so they pass through the wrappers too.  Direct
NumPy calls are not wrapped; their time stays in the enclosing span's self
time.  Spans are recorded only while an op is open (``with tracer.op():``);
the spans of one op share its id.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
import zlib
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "risk", "shrinkage", "activeset", "models", "metrics",
           "experiments", "matrixio", "cli", "rmt")

FUNCTIONS = {
    "linalg": ("svd", "compose", "reconstruct", "directional_derivative", "check_distinct"),
    "risk": ("divergence_closed_form", "sure_gaussian", "gsure_gamma", "sukls_gamma",
             "pure_poisson", "pukla_poisson", "mc_divergence", "mc_theta_divergence_gamma",
             "downdated_entries"),
    "shrinkage": ("minimize_bounded", "soft_threshold_fit", "optimize_weights_greedy",
                  "weights_gaussian", "oracle_weights"),
    "activeset": ("aic", "active_set_greedy", "active_set_gaussian"),
    "metrics": ("metric",),
    "experiments": ("run_experiment", "_replication_records", "fit_estimator", "generate_signal"),
    "matrixio": ("read_matrix", "write_matrix_csv"),
    "cli": ("main",),
    "rmt": ("rho", "shrinker_gd"),
}

# (class name in svshrink.models, method): spans named models.<method>.
METHODS = tuple((cls, meth) for cls in ("Gaussian", "Gamma", "Poisson")
                for meth in ("log_likelihood", "sample"))


class Stats:
    __slots__ = ("calls", "self_s", "fail", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fail = 0
        self.extra = defaultdict(float)


class Tracer:
    """Records spans and per-name statistics for the ops it is given."""

    def __init__(self, svshrink_pkg):
        self.pkg = svshrink_pkg
        self.spans = []  # (op id, span id, parent id, name, start, end), in end order
        self.stats = defaultdict(Stats)
        self.op_walls = []  # (op id, harness wall seconds, sum of self times)
        self.svd_seen = set()
        self._stack = []  # per open span: [span id, seconds covered by its children]
        self._op_id = None
        self._op_self = 0.0
        self._next_op = 0
        self._next_span = 0
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, names in FUNCTIONS.items():
            mod = getattr(self.pkg, mod_name)
            for fname in names:
                self._rebind(mod, fname, f"{mod_name}.{fname}")
        for cls_name, meth in METHODS:
            self._rebind(getattr(self.pkg.models, cls_name), meth, f"models.{meth}")
        shrinkage = self.pkg.shrinkage
        original = shrinkage.minimize_scalar
        self._saved.append((shrinkage, "minimize_scalar", original))
        shrinkage.minimize_scalar = self._count_solver(original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    # -- ops and spans ------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Open an op; the spans recorded inside it share one id.  Records
        the harness wall time of the op next to the sum of its self times."""
        self._op_id = self._next_op
        self._next_op += 1
        self._op_self = 0.0
        self.svd_seen = set()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_walls.append((self._op_id, time.perf_counter() - start, self._op_self))
            self._op_id = None
            self._stack.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        extra = _EXTRAS.get(name)

        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_span
            tracer._next_span += 1
            parent_id = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # span id, seconds covered by child spans
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self_s = end - start - frame[1]
                tracer._op_self += self_s
                st = tracer.stats[name]
                st.calls += 1
                st.self_s += self_s
                st.fail += failed
                parent = stack[-1] if stack else None
                tracer.spans.append((tracer._op_id, span_id, parent_id, name, start, end))
                if extra is not None and not failed:
                    extra(tracer, st, args, kwargs, result)
                # Time spent here after the span ended (bookkeeping and the
                # extras above) is tracing cost: it is charged to no span.
                if parent is not None:
                    parent[1] += time.perf_counter() - start

        traced.__wrapped__ = fn
        return traced

    def _count_solver(self, minimize_scalar):
        """Counts iterations, evaluations and convergence of each bounded
        scalar solve; the package itself keeps only ``res.x``."""
        tracer = self

        def counted(*args, **kwargs):
            res = minimize_scalar(*args, **kwargs)
            if tracer._op_id is not None:
                st = tracer.stats["shrinkage.minimize_bounded"]
                st.extra["evals"] += int(res.nfev)
                st.extra["nit"] += int(res.nit)
                st.extra["nonconverged"] += not bool(res.success)
            return res

        counted.__wrapped__ = minimize_scalar
        return counted

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "span", "parent", "name", "start", "end"])
            writer.writerows(self.spans)


# -- per-call extras ----------------------------------------------------------


def _svd_extra(tracer, st, args, kwargs, result):
    n, m = result.n, result.m
    st.extra["gflop"] += 4.0 * n * m * min(n, m) / 1e9
    matrix = args[0] if args else kwargs["matrix"]
    # CRC-32 of the input bytes: cheap next to the SVD itself, and a
    # collision among the few hundred inputs of one op is improbable.
    key = (n, m, zlib.crc32(np.ascontiguousarray(matrix, dtype=float)))
    if key not in tracer.svd_seen:
        tracer.svd_seen.add(key)
        st.extra["distinct"] += 1


def _downdate_extra(tracer, st, args, kwargs, result):
    st.extra["positions"] += len(result)


def _bytes_extra(tracer, st, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    st.extra["bytes"] += os.path.getsize(path)


_EXTRAS = {
    "linalg.svd": _svd_extra,
    "risk.downdated_entries": _downdate_extra,
    "matrixio.read_matrix": _bytes_extra,
    "matrixio.write_matrix_csv": _bytes_extra,
}
