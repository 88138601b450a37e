"""Wrappers that time and count the package's public functions from outside.

``Tracer.install`` replaces each listed function at every place the loaded
``potts_ghs`` modules hold it (several modules import these functions by
name, so patching only the home module would miss calls) and each listed
method on its class.  A span wrapper adds its call's self time (its
duration minus the durations of the spans it encloses) under its name; a
count wrapper only counts calls.  Nothing is installed in untraced runs.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, function or Class.method, metric prefix) timed as spans.
SPANS = (
    ("cli", "main", "cli.main"),
    ("modelfile", "load_model", "modelfile.load_model"),
    ("sampling", "random_weights", "sampling.random_weights"),
    ("sampling", "random_model", "sampling.random_model"),
    ("derivatives", "ghs_sum", "derivatives.ghs_sum"),
    ("derivatives", "second_derivative_analytic", "derivatives.second_derivative_analytic"),
    ("derivatives", "second_derivative_via_sum", "derivatives.second_derivative_via_sum"),
    ("derivatives", "second_derivative_float", "derivatives.second_derivative_float"),
    ("derivatives", "second_derivative_fd", "derivatives.second_derivative_fd"),
    ("constraints", "constrained_sum", "constraints.constrained_sum"),
    ("constraints", "matrix_coefficient", "constraints.matrix_coefficient"),
    ("model", "weighted_sums", "model.weighted_sums"),
    ("partitions", "block_count", "partitions.block_count"),
    ("partitions", "merge_constraints", "partitions.merge_constraints"),
    ("expansion", "expand_full", "expansion.expand_full"),
    ("expansion", "expand_partial", "expansion.expand_partial"),
    ("alpha", "alpha_table", "alpha.alpha_table"),
    ("alpha", "compare_reference", "alpha.compare_reference"),
    ("alpha", "sign_report", "alpha.sign_report"),
    ("separation", "reduced_expansion", "separation.reduced_expansion"),
    ("separation", "assemble_separated", "separation.assemble_separated"),
    ("separation", "evaluate_separated", "separation.evaluate_separated"),
    ("xpoly", "XPoly.__mul__", "xpoly.XPoly.mul"),
    ("xpoly", "xpoly_eval", "xpoly.xpoly_eval"),
    ("xpoly", "xpoly_records", "xpoly.xpoly_records"),
)

# (module, function or Class.method, metric name) whose calls are counted.
COUNTS = (
    ("laurent", "LaurentPoly.__init__", "laurent.LaurentPoly.inits"),
    ("laurent", "LaurentPoly.__mul__", "laurent.LaurentPoly.mul.calls"),
    ("laurent", "LaurentPoly.__add__", "laurent.LaurentPoly.add.calls"),
    ("xpoly", "XPoly.__init__", "xpoly.XPoly.inits"),
    ("modelfile", "rational_str", "modelfile.rational_str.calls"),
)


def _ring(one) -> str:
    if isinstance(one, Fraction):
        return "fraction"
    if isinstance(one, float):
        return "float"
    return "mpf"


class Tracer:
    """Self times and counts, summed over every call while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spanned_s = 0.0  # time inside outermost spans
        self._stack: list[list[float]] = []

    # -- per-function extras ---------------------------------------------------

    def _extras(self, prefix: str, orig):
        """Hook run before a call, returning the span name for that call."""
        counts = self.counts
        if prefix == "model.weighted_sums":
            sig = inspect.signature(orig)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                counts[prefix + ".calls"] += 1
                counts[prefix + ".configs"] += bound["n_states"] ** bound["n_sites"]
                return f"{prefix}.self_s.{_ring(bound['one'])}"

            return hook
        if prefix == "constraints.constrained_sum":
            sig = inspect.signature(orig)
            block_count = self._block_count

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                weights = bound["weights"]
                blocks = block_count(weights.n_sites, tuple(bound["equalities"]))
                counts[prefix + ".calls"] += 1
                counts[prefix + ".assignments"] += weights.n_states**blocks
                return prefix + ".self_s"

            return hook
        name = prefix + ".self_s"

        def hook(args, kwargs):
            counts[prefix + ".calls"] += 1
            return name

        return hook

    # -- wrappers ----------------------------------------------------------------

    def _span(self, prefix: str, orig):
        hook = self._extras(prefix, orig)
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.spanned_s += elapsed

        return wrapper

    def _count(self, name: str, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every listed function and method of the loaded package."""
        self._block_count = sys.modules["potts_ghs.partitions"].block_count
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "potts_ghs"]
        targets = [(m, a, self._span, p) for m, a, p in SPANS]
        targets += [(m, a, self._count, p) for m, a, p in COUNTS]
        for module, attr, make, prefix in targets:
            home = sys.modules[f"potts_ghs.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[method]
                wrapped = make(prefix, orig)
                # Aliases such as __radd__ = __add__ are the same object.
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(home, attr)
            wrapped = make(prefix, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spanned_s": self.spanned_s,
        }
