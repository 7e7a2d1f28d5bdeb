"""Span tracing around the public functions of every crsphere module.

`Tracer.install()` replaces each public function at every crsphere
module that holds it (so `suites.spectrum_fragment`, the name `suites`
calls, is wrapped as well as `spectrum.spectrum_fragment`), four
`Polynomial` methods, and the functions behind `ScalarField`'s cached
properties.  Each call appends one span (name, start, end, parent) to
flat in-memory arrays; counts taken from arguments and return values
go to `Tracer.counts`.  Nothing is written until `save()`.

Spans are grouped into the per-layer metrics of `PER_LAYER`.  A public
function that no group names falls into `<module>.other`, so the self
times of all groups add up to the traced time.
"""

import gc
import sys
import time
import types
from array import array
from collections import Counter
from functools import cached_property, update_wrapper

import numpy as np

MODULES = ("polynomials", "spectrum", "calculus", "sphere", "geodesics", "bounds", "suites")

# Metric group -> the span names it collects.  Span names are
# "<module>.<function>" for functions and "<module>.<Class>.<name>" for
# methods and cached properties.
GROUPS = {
    "polynomials.mul": ("polynomials.Polynomial.__mul__",),
    "polynomials.add": ("polynomials.Polynomial.__add__",),
    "polynomials.partial": ("polynomials.Polynomial.partial",),
    "polynomials.evaluate": ("polynomials.Polynomial.evaluate",),
    "polynomials.null_space": ("polynomials.null_space",),
    "polynomials.rref": ("polynomials.rref",),
    "polynomials.harmonic_basis": ("polynomials.harmonic_basis",),
    "polynomials.sphere_integral": ("polynomials.sphere_integral",),
    "spectrum.fragment": ("spectrum.spectrum_fragment",),
    "spectrum.t0_apply": ("spectrum.t0_apply",),
    "calculus.pointwise": tuple(
        "calculus." + f
        for f in (
            "reeb_derivative", "horizontal_gradient", "sublaplacian_greenleaf",
            "sublaplacian_frame", "divergence", "hessian_form", "tw_hessian",
            "operator_l_parts", "operator_l", "bochner_residual",
            "lemma1_residual", "third_commutation_residual",
        )
    ),
    "calculus.connection": tuple(
        "calculus." + f
        for f in (
            "tanaka_webster_derivative", "covariant_derivative_field",
            "connection_axiom_residuals", "curvature_sphere",
            "curvature_via_connection", "ricci",
        )
    ),
    "calculus.lemma2": ("calculus.lemma2_check",),
    "sphere.frame": ("sphere.horizontal_frame", "sphere.s3_explicit_frame"),
    "sphere.sample": ("sphere.random_point", "sphere.random_horizontal", "sphere.random_tangent"),
    "geodesics.connection": ("geodesics.integrate_connection_geodesic",),
    "geodesics.hj": ("geodesics.integrate_hj_geodesic",),
    "geodesics.cc_distance": ("geodesics.cc_distance",),
    "geodesics.closed_form": ("geodesics.closed_form_geodesic",),
    "bounds.estimate_k": ("bounds.estimate_k", "bounds.estimate_k_samples"),
    "bounds.check_bound": ("bounds.check_bound",),
    "suites": ("suites.run_suite",),
}
SYMBOLIC = "calculus.symbolic"  # every ScalarField cached property
NO_CALLS = {"bounds.estimate_k", "bounds.check_bound", SYMBOLIC}


def _metric_names():
    out = []
    for group in GROUPS:
        if group not in NO_CALLS:
            out.append((group + ".calls", "count"))
        out.append((group + ".self_s", "s"))
    out += [
        (SYMBOLIC + ".builds", "count"),
        (SYMBOLIC + ".self_s", "s"),
        ("polynomials.mul.term_pairs", "count"),
        ("polynomials.evaluate.terms", "count"),
        ("polynomials.null_space.cells", "count"),
        ("geodesics.connection.steps", "count"),
        ("geodesics.hj.steps", "count"),
        ("geodesics.hj.handoffs", "count"),
        ("geodesics.cc_distance.converged_ratio", "ratio"),
    ]
    out += [(m + ".other.self_s", "s") for m in MODULES]
    out += [
        ("process.gc_s", "s"),
        ("process.gc_collections", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = _metric_names()


def _count_mul(counts, args, kwargs, result):
    self, other = args
    k = len(other.terms) if hasattr(other, "terms") else 1
    counts["polynomials.mul.term_pairs"] += len(self.terms) * k


def _count_evaluate(counts, args, kwargs, result):
    counts["polynomials.evaluate.terms"] += len(args[0].terms)


def _count_null_space(counts, args, kwargs, result):
    rows, ncols = args
    counts["polynomials.null_space.cells"] += len(rows) * ncols


def _count_connection(counts, args, kwargs, result):
    counts["geodesics.connection.steps"] += len(result.s) - 1


def _count_hj(counts, args, kwargs, result):
    counts["geodesics.hj.steps"] += len(result.s) - 1
    counts["geodesics.hj.handoffs"] += len(result.events)


def _count_cc(counts, args, kwargs, result):
    counts["geodesics.cc_distance.converged"] += bool(result.converged)


COUNTERS = {
    "polynomials.Polynomial.__mul__": _count_mul,
    "polynomials.Polynomial.evaluate": _count_evaluate,
    "polynomials.null_space": _count_null_space,
    "geodesics.integrate_connection_geodesic": _count_connection,
    "geodesics.integrate_hj_geodesic": _count_hj,
    "geodesics.cc_distance": _count_cc,
}
POLYNOMIAL_METHODS = ("__mul__", "__add__", "partial", "evaluate")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.span_names = []          # name table, indexed by name id
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = None
        self._pass_lo = 0
        self.passes = []              # (lo, hi, counts, gc_s, gc_collections)
        self._restore = []

    # ---- recording --------------------------------------------------

    def wrap(self, fn, span_name):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        nid = self._name_ids[span_name]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(span_name)

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return update_wrapper(traced, fn)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the library's public functions; undo with `uninstall()`."""
        from crsphere import calculus, polynomials

        mods = {k: v for k, v in sys.modules.items() if k == "crsphere" or k.startswith("crsphere.")}
        wrapped = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ not in mods:
                    continue
                if id(fn) not in wrapped:
                    home = fn.__module__.rsplit(".", 1)[-1]
                    wrapped[id(fn)] = self.wrap(fn, "%s.%s" % (home, fn.__name__))
                self._patch(mod, attr, wrapped[id(fn)])
        poly = polynomials.Polynomial
        for attr in POLYNOMIAL_METHODS:
            self._patch(poly, attr, self.wrap(poly.__dict__[attr], "polynomials.Polynomial." + attr))
        field = calculus.ScalarField
        for attr, prop in list(vars(field).items()):
            if isinstance(prop, cached_property):
                new = cached_property(self.wrap(prop.func, "calculus.ScalarField." + attr))
                new.__set_name__(field, attr)
                self._patch(field, attr, new)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ---- reduction --------------------------------------------------

    def begin_pass(self):
        self.counts.clear()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._pass_lo = len(self.name)

    def end_pass(self):
        self.passes.append(
            (self._pass_lo, len(self.name), dict(self.counts), self.gc_s, self.gc_collections)
        )

    def _group_table(self):
        lookup = {s: g for g, names in GROUPS.items() for s in names}
        groups = []
        for s in self.span_names:
            if s.startswith("calculus.ScalarField."):
                groups.append(SYMBOLIC)
            else:
                groups.append(lookup.get(s, s.split(".", 1)[0] + ".other"))
        return groups

    def pass_metrics(self):
        """Per-layer values of every recorded pass, in pass order."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        inner = parent >= 0
        # A span's self time is its duration minus its direct children's.
        self_s = dur - np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        groups = self._group_table()
        return [
            self._layer_metrics(groups, names[lo:hi], self_s[lo:hi], counts, gc_s, gc_n)
            for lo, hi, counts, gc_s, gc_n in self.passes
        ]

    @staticmethod
    def _layer_metrics(groups, names, self_s, counts, gc_s, gc_n):
        per_name_self = np.bincount(names, weights=self_s, minlength=len(groups))
        per_name_calls = np.bincount(names, minlength=len(groups))
        self_by_group = Counter()
        calls_by_group = Counter()
        for i, g in enumerate(groups):
            self_by_group[g] += float(per_name_self[i])
            calls_by_group[g] += int(per_name_calls[i])
        out = {}
        for metric, _unit in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            if tail == "self_s":
                out[metric] = self_by_group[head]
            elif tail in ("calls", "builds"):
                out[metric] = calls_by_group[head]
            else:
                out[metric] = counts.get(metric, 0)
        calls = calls_by_group["geodesics.cc_distance"]
        converged = counts.get("geodesics.cc_distance.converged", 0)
        out["geodesics.cc_distance.converged_ratio"] = converged / calls if calls else 0.0
        out["process.gc_s"] = gc_s
        out["process.gc_collections"] = gc_n
        return out

    def save(self, path, stamp):
        """Write every span, the name table and pass boundaries."""
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            span_names=np.array(self.span_names),
            groups=np.array(self._group_table()),
            passes=np.array([p[:2] for p in self.passes], dtype=np.int64).reshape(-1, 2),
            stamp=np.array(repr(stamp)),
        )
