"""Layer spans for the traced pass, recorded from outside the program.

``install()`` rebinds public functions of the ``repspace`` modules to
timing wrappers.  Every module that imported a wrapped function gets the
wrapper under the same attribute (``repspace.engine.invariant_factors``
as well as ``repspace.abelian.invariant_factors``).  Two methods are
timed on their classes, and ``SimplicialSet.__init__`` counts the cells
built.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, op, label]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the index of the
command in the pass, and ``label`` names the space a catalog span
built.  A span's self time is its duration minus the time covered by
its direct children; spans nest strictly because the pass is one
thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

# Public catalog constructors.  Their calls are "catalog.build" spans, and
# the space they return is labelled for the per-matrix table.
CATALOG_CONSTRUCTORS = (
    "point",
    "circle",
    "circle_conj",
    "torus",
    "minimal_torus",
    "torus_conj_quotient",
    "smash_factor",
    "sym_product",
    "sp_torus",
    "rep_sp",
    "sphere_simplicial",
    "rp_simplicial",
    "sphere_chain",
    "stunted_projective",
    "rp_chain",
    "thom_space_su2_factor",
    "sphere_bundle_quotient",
    "thom_zero_quotient",
    "lens_q8",
)

# module -> {public function: span name}.  Functions of the counting
# module, the verifier's check_* suites and the CLI commands are added by
# name pattern in ``_span_table``.
SPANS = {
    "abelian": {
        "invariant_factors": "abelian.invariant_factors",
        "smith_normal_form": "abelian.smith_normal_form",
    },
    "simplicial": {
        "product_list": "simplicial.product_list",
        "quotient_by_action": "simplicial.quotient_by_action",
        "collapse": "simplicial.collapse",
        "normalized_chains": "simplicial.normalized_chains",
    },
    "engine": {
        "homology": "engine.homology",
        "cached_homology": "engine.cached_homology",
    },
    "catalog": {name: "catalog.build" for name in CATALOG_CONSTRUCTORS},
    "verifier": {
        "poincare_assembly": "verifier.poincare_assembly",
        "verify_splitting": "verifier.verify_splitting",
        "splitting_base": "verifier.other",
        "splitting_factor": "verifier.other",
        "rank_one_catalog": "verifier.other",
        "psi_sweep": "verifier.other",
        "psi_refusals": "verifier.other",
        "so3_invariance": "verifier.other",
        "run_suite": "verifier.other",
    },
    "su2": {
        "psi_construct": "su2.psi_construct",
        "commutator_type": "su2.commutator",
        "max_commutator_defect": "su2.commutator",
        "classify_so3_tuple": "su2.commutator",
    },
    "counting": {},
    "cli": {"main": "cli"},
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("simplicial", "SimplicialAction", "validate"): "simplicial.action_validate",
    ("engine", "ChainComplex", "validate"): "engine.chain_validate",
}

# Self-time metrics: metric name -> the span name whose self time it sums.
SELF_TIME = {
    "abelian.invariant_factors.s": "abelian.invariant_factors",
    "abelian.smith_normal_form.s": "abelian.smith_normal_form",
    "simplicial.product_list.s": "simplicial.product_list",
    "simplicial.quotient_by_action.s": "simplicial.quotient_by_action",
    "simplicial.action_validate.s": "simplicial.action_validate",
    "simplicial.collapse.s": "simplicial.collapse",
    "simplicial.normalized_chains.s": "simplicial.normalized_chains",
    "catalog.build.s": "catalog.build",
    "engine.chain_validate.s": "engine.chain_validate",
    "engine.homology.s": "engine.homology",
    "verifier.poincare_assembly.s": "verifier.poincare_assembly",
    "verifier.verify_splitting.s": "verifier.verify_splitting",
    "verifier.checks.s": "verifier.checks",
    "verifier.other.s": "verifier.other",
    "su2.psi_construct.s": "su2.psi_construct",
    "su2.commutator.s": "su2.commutator",
    "counting.s": "counting",
    "cli.self.s": "cli",
}

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    **{name: "s" for name in SELF_TIME},
    "abelian.invariant_factors.max_s": "s",
    "abelian.invariant_factors.calls": "count",
    "abelian.invariant_factors.nnz_in": "count",
    "simplicial.cells": "count",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.lookups": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache_hit.s": "s",
    "su2.psi_construct.calls": "count",
    "trace.overhead_s": "s",
}


def _span_table(modules) -> dict:
    """(module name, function name) -> span name, patterns included."""
    table = {}
    for mod_name, entries in SPANS.items():
        for fn_name, span in entries.items():
            table[(mod_name, fn_name)] = span
    for mod_name, mod in modules.items():
        for fn_name, value in vars(mod).items():
            if not isinstance(value, FunctionType) or fn_name.startswith("_"):
                continue
            if value.__module__ != mod.__name__:
                continue  # imported from elsewhere; wrapped at its home
            if mod_name == "counting":
                table[(mod_name, fn_name)] = "counting"
            elif mod_name == "verifier" and fn_name.startswith("check_"):
                table[(mod_name, fn_name)] = "verifier.checks"
            elif mod_name == "cli" and fn_name.startswith("cmd_"):
                table[(mod_name, fn_name)] = "cli"
    return table


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.matrices = []
        self.cells = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_hit_s = 0.0
        self._builds = 0
        self._complexes = []
        self._tags = {}  # id(space) -> (space, label); the ref pins the id

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._tags.clear()

    def span(self, name, fn, label=None, after=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``label(args, kwargs)`` names the span; ``after(args, kwargs,
        result, seconds)`` runs once the call has returned.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [
                name,
                0.0,
                0.0,
                tracer.stack[-1] if tracer.stack else -1,
                tracer.op,
                label(args, kwargs) if label else None,
            ]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                rec[1], rec[2] = start, end
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return wrapper

    def _tag(self, obj, label, force=False):
        if force or id(obj) not in self._tags:
            self._tags[id(obj)] = (obj, label)

    def _label_of(self, obj):
        entry = self._tags.get(id(obj))
        return entry[1] if entry and entry[0] is obj else None

    def _call_label(self, fn_name, args, kwargs) -> str:
        """``sp_torus(2,3)``; a space argument shows by its own label."""

        def show(v):
            if isinstance(v, (int, str)):
                return str(v)
            return self._label_of(v) or type(v).__name__

        parts = [show(a) for a in args]
        parts += [f"{k}={show(v)}" for k, v in kwargs.items()]
        return f"{fn_name}({','.join(parts)})"

    def _open_build_label(self):
        for idx in reversed(self.stack):
            rec = self.spans[idx]
            if rec[0] == "catalog.build" and rec[5]:
                return rec[5]
        return None

    # -- wrappers with side effects ----------------------------------------

    def _constructor(self, fn_name, fn):
        """A catalog constructor; the outermost one names the space."""

        def after(args, kwargs, result, _):
            if not isinstance(result, tuple):
                self._tag(result, self._call_label(fn_name, args, kwargs), force=True)

        return self.span(
            "catalog.build",
            fn,
            label=lambda a, kw: self._call_label(fn_name, a, kw),
            after=after,
        )

    def _labelling(self, name, fn_name, fn):
        """verifier.splitting_base / splitting_factor: label if unlabelled."""

        def after(args, kwargs, result, _):
            self._tag(result, self._call_label(fn_name, args, kwargs))

        return self.span(name, fn, after=after)

    def _normalized_chains(self, fn):
        def after(args, kwargs, result, _):
            X = args[0] if args else kwargs.get("X")
            label = self._label_of(X) or self._open_build_label() or "?"
            self._tag(result, label, force=True)

        return self.span("simplicial.normalized_chains", fn, after=after)

    def _resolve(self, fn):
        """catalog.resolve: the returned thunk builds one named space."""
        tracer = self

        @functools.wraps(fn)
        def resolve(*args, **kwargs):
            canonical, thunk = fn(*args, **kwargs)

            def after(a, kw, result, _):
                tracer._tag(result, canonical, force=True)

            spanned = tracer.span(
                "catalog.build", thunk, label=lambda a, kw: canonical, after=after
            )

            def build():
                tracer._builds += 1
                return spanned()

            return canonical, build

        return resolve

    def _homology(self, fn):
        inner = self.span("engine.homology", fn)
        tracer = self

        @functools.wraps(fn)
        def homology(C, *args, **kwargs):
            tracer._complexes.append(C)
            try:
                return inner(C, *args, **kwargs)
            finally:
                tracer._complexes.pop()

        return homology

    def _invariant_factors(self, fn):
        def after(args, kwargs, result, seconds):
            M = args[0] if args else kwargs["M"]
            space, degree = "?", "?"
            if self._complexes:
                C = self._complexes[-1]
                space = self._label_of(C) or "?"
                degree = next(
                    (k for k, d in enumerate(C.diffs, start=1) if d is M), None
                )
                if degree is None:  # the zero maps out of degree 0 / top+1
                    degree = 0 if M.rows == 0 else len(C.diffs) + 1
            self.matrices.append(
                {
                    "op": self.op,
                    "space": space,
                    "degree": degree,
                    "shape": f"{M.rows}x{M.cols}",
                    "nnz_in": len(M.entries),
                    "rank": len(result),
                    "torsion": sum(1 for e in result if e > 1),
                    "seconds": seconds,
                }
            )

        return self.span("abelian.invariant_factors", fn, after=after)

    def _cached_homology(self, fn):
        inner = self.span("engine.cached_homology", fn)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def cached_homology(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            root = bound.get("cache_dir")
            if root is None:
                root = os.environ.get("REPSPACE_CACHE")
            builds = tracer._builds
            start = perf_counter()
            result = inner(*args, **kwargs)
            seconds = perf_counter() - start
            if root:
                if tracer._builds == builds:
                    tracer.cache_hits += 1
                    tracer.cache_hit_s += seconds
                else:
                    tracer.cache_misses += 1
            return result

        return cached_homology

    def _count_cells(self, init):
        tracer = self

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.cells += len(obj.dim_of)

        return __init__

    # -- installation -------------------------------------------------------

    def wrapper_for(self, mod_name, fn_name, fn, span_name):
        if (mod_name, fn_name) == ("abelian", "invariant_factors"):
            return self._invariant_factors(fn)
        if (mod_name, fn_name) == ("engine", "homology"):
            return self._homology(fn)
        if (mod_name, fn_name) == ("engine", "cached_homology"):
            return self._cached_homology(fn)
        if (mod_name, fn_name) == ("simplicial", "normalized_chains"):
            return self._normalized_chains(fn)
        if mod_name == "catalog":
            return self._constructor(fn_name, fn)
        if fn_name in ("splitting_base", "splitting_factor"):
            return self._labelling(span_name, fn_name, fn)
        return self.span(span_name, fn)


MODULES = ("abelian", "engine", "simplicial", "catalog", "counting", "su2", "verifier", "cli")


def install() -> Tracer:
    """Rebind every module's copy of each traced function; return the tracer."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"repspace.{m}") for m in MODULES}
    replacement = {}  # original function -> wrapper
    for (mod_name, fn_name), span_name in _span_table(modules).items():
        fn = getattr(modules[mod_name], fn_name)
        replacement[fn] = tracer.wrapper_for(mod_name, fn_name, fn, span_name)
    resolve = modules["catalog"].resolve
    replacement[resolve] = tracer._resolve(resolve)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if isinstance(value, FunctionType) and value in replacement:
                setattr(mod, attr, replacement[value])
    for (mod_name, cls_name, meth), span_name in METHOD_SPANS.items():
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, tracer.span(span_name, getattr(cls, meth)))
    SimplicialSet = modules["simplicial"].SimplicialSet
    SimplicialSet.__init__ = tracer._count_cells(SimplicialSet.__init__)
    return tracer


def _self_times(spans):
    """Per span name: (summed self time, calls)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_time[name] += end - start - covered[i]
        calls[name] += 1
    return self_time, calls


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (all but trace.overhead_s)."""
    self_time, calls = _self_times(tracer.spans)
    out = {metric: self_time[span] for metric, span in SELF_TIME.items()}
    rows = tracer.matrices
    lookups = tracer.cache_hits + tracer.cache_misses
    out.update(
        {
            "abelian.invariant_factors.max_s": max(
                (r["seconds"] for r in rows), default=0.0
            ),
            "abelian.invariant_factors.calls": len(rows),
            "abelian.invariant_factors.nnz_in": sum(r["nnz_in"] for r in rows),
            "simplicial.cells": tracer.cells,
            "engine.cache.hits": tracer.cache_hits,
            "engine.cache.misses": tracer.cache_misses,
            "engine.cache.lookups": lookups,
            "engine.cache.hit_ratio": tracer.cache_hits / lookups if lookups else 0.0,
            "engine.cache_hit.s": tracer.cache_hit_s,
            "su2.psi_construct.calls": calls["su2.psi_construct"],
        }
    )
    return out


def span_calls(tracer: Tracer) -> dict:
    """Calls recorded per span name."""
    return dict(_self_times(tracer.spans)[1])
