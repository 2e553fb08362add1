"""In-memory span tracer and the per-layer metrics derived from its spans.

``Tracer.install`` replaces public functions of the ``koszul_lift`` modules
with wrappers that record one span per call: name, parent span, instance id,
start and end (``time.perf_counter`` seconds) and counts taken at the call
boundary.  A replaced function is patched under every name that any
``koszul_lift`` module holds for it, because ``cli``, ``resolve`` and the
package import stage functions by name.  The library itself is unchanged.

Time a wrapper spends counting is kept on the span (``trace_s``) and left out
of every self time, so a layer's ``self_s`` is its span time minus its child
spans and minus the tracer's own bookkeeping around them.
"""

from __future__ import annotations

import sys
import time
from functools import reduce
from statistics import median

# GradedRing memo tables whose hit ratio is reported: method -> cache attribute.
CACHES = {
    "monomial_basis": "_basis_cache",
    "basis_index": "_basis_index_cache",
    "sequence_span_columns": "_span_cache",
}


class Span:
    __slots__ = ("id", "name", "parent", "instance", "start", "end", "trace_s", "attrs")

    def __init__(self, sid, name, parent, instance):
        self.id = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = self.trace_s = 0.0
        self.attrs = None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "instance": self.instance,
            "start": self.start,
            "end": self.end,
            "trace_s": self.trace_s,
            "attrs": self.attrs or {},
        }


# -- counts taken at call boundaries; each receives the result, then the
# -- wrapped function's own arguments.


def _nonzeros(rows) -> int:
    return sum(len(r) - r.count(0) for r in rows)


def _count_matrix(result, field, rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {"cells": len(rows) * ncols, "nonzeros": _nonzeros(rows)}


def _count_rref_mod(result, a, p, pivots):
    return {"bytes": 8 * a.size, "rows": a.shape[0], "rank": int(result)}


def _count_rref_qq(result, rows, ncols):
    return {"rows": len(rows), "rank": len(result[1])}


def _count_extend(result, field, base_cols, extra_cols, dim):
    return {"offered": len(extra_cols), "picked": len(result)}


def _count_polymul(result, a, b, ring):
    left = [sum(1 for row in a.rows if row[k].terms) for k in range(a.ncols)]
    right = [sum(1 for p in b.rows[k] if p.terms) for k in range(b.nrows)]
    return {
        "triples": a.nrows * a.ncols * b.ncols,
        "nonzero_triples": sum(x * y for x, y in zip(left, right)),
    }


def _count_generators(result, *args, **kwargs):
    return {"generators": sum(len(tw) for tw in result.twists.values())}


def _count_maps(result, *args, **kwargs):
    return {
        "maps_nonzero": sum(
            not mat.is_zero() for pos in result.maps.values() for mat in pos.values()
        )
    }


def _count_product(result, *args, **kwargs):
    return {"product_rank": sum(len(tw) for tw in result.complex.twists.values())}


# (owner under koszul_lift, attribute, span name, count) for every traced
# function.
PROBES = (
    ("linalg._kernel", "rref_mod", "modp.rref_mod", _count_rref_mod),
    ("linalg", "_rref_qq", "linalg.rref_qq", _count_rref_qq),
    ("linalg", "rank", "linalg.rank", _count_matrix),
    ("linalg", "nullspace", "linalg.nullspace", _count_matrix),
    ("linalg", "extend_pivots", "linalg.extend_pivots", _count_extend),
    ("linalg", "solve_min", "linalg.solve_min", None),
    ("complexes", "homology_dims", "complexes.homology_dims", None),
    ("complexes", "graded_matrix_rows", "complexes.graded_matrix_rows", None),
    ("complexes", "module_span_columns", "complexes.module_span_columns", None),
    ("complexes", "check_complex", "complexes.check_complex", None),
    ("resolve", "resolve_over_R", "resolve.resolve_over_R", _count_generators),
    ("algebra.PolyMatrix", "mul", "algebra.PolyMatrix.mul", _count_polymul),
    ("algebra.GradedRing", "in_sequence_ideal", "algebra.in_sequence_ideal", None),
    ("algebra", "solve_graded_linear", "algebra.solve_graded_linear", None),
    ("homotopy", "solve_homotopies", "homotopy.solve_homotopies", _count_maps),
    ("homotopy", "verify_relation", "homotopy.verify_relation", None),
    ("assembly", "assemble", "assembly.assemble", _count_product),
    ("assembly", "epsilon_C", "assembly.epsilon_C", None),
    ("assembly", "rank_report", "assembly.rank_report", None),
    ("koszul", "check_regular_up_to", "koszul.check_regular_up_to", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; ``instance`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = None
        self._stack: list[Span] = []
        self._undo: list = []

    def install(self, lib) -> None:
        for path, attr, name, count in PROBES:
            owner = reduce(getattr, path.split("."), lib)
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, count))
        ring_cls = lib.algebra.GradedRing
        for method, cache in CACHES.items():
            self._patch(
                ring_cls, method, self._cache_wrapper(getattr(ring_cls, method), cache, method)
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "koszul_lift" or name.startswith("koszul_lift.")):
                    continue
                targets += [
                    (mod, k)
                    for k, v in list(vars(mod).items())
                    if v is original and not (mod is owner and k == attr)
                ]
        for target, key in targets:
            self._undo.append((target, key, original))
            setattr(target, key, replacement)

    def _span_wrapper(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, self.instance)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.attrs = {**(span.attrs or {}), **count(result, *args, **kwargs)}
                span.trace_s = clock() - span.end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_wrapper(self, fn, cache_attr, label):
        """Count hits and misses of a GradedRing memo table on the innermost
        open span.  Negative degrees are empty pieces and are not counted."""
        stack = self._stack
        hit, miss = f"{label}.hits", f"{label}.misses"

        def wrapper(ring, d):
            if stack and d >= 0:
                span = stack[-1]
                if span.attrs is None:
                    span.attrs = {}
                key = hit if d in getattr(ring, cache_attr) else miss
                span.attrs[key] = span.attrs.get(key, 0) + 1
            return fn(ring, d)

        wrapper.__wrapped__ = fn
        return wrapper


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def instance_metrics(spans: list, instance, wall_s: float) -> dict:
    """Per-layer metrics of one traced instance, from its spans alone.
    ``spans`` is the tracer's full list (span ids index into it);
    ``wall_s`` is the instance's wall time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start + s.trace_s
    own = [s for s in spans if s.instance == instance]
    calls: dict = {}
    self_s: dict = {}
    totals: dict = {}
    covered = 0.0
    homology_cells = 0
    for s in own:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        for k, v in (s.attrs or {}).items():
            key = k if k.endswith((".hits", ".misses")) else f"{s.name}.{k}"
            totals[key] = totals.get(key, 0) + v
        if s.parent is None:
            covered += s.end - s.start + s.trace_s
        if s.name == "linalg.rank":
            p = s.parent
            while p is not None and spans[p].name != "complexes.homology_dims":
                p = spans[p].parent
            if p is not None:
                homology_cells += s.attrs["cells"]

    def t(key):
        return totals.get(key, 0)

    out = {}
    for _, _, name, _ in PROBES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["modp.rref_mod.bytes_computed"] = t("modp.rref_mod.bytes")
    for fn in ("rank", "nullspace"):
        cells = t(f"linalg.{fn}.cells")
        out[f"linalg.{fn}.cells"] = cells
        out[f"linalg.{fn}.fill"] = _ratio(t(f"linalg.{fn}.nonzeros"), cells)
    out["linalg.extend_pivots.picked_ratio"] = _ratio(
        t("linalg.extend_pivots.picked"), t("linalg.extend_pivots.offered")
    )
    out["linalg.pivot_ratio"] = _ratio(
        t("modp.rref_mod.rank") + t("linalg.rref_qq.rank"),
        t("modp.rref_mod.rows") + t("linalg.rref_qq.rows"),
    )
    out["complexes.homology_dims.cells"] = homology_cells
    out["resolve.generators"] = t("resolve.resolve_over_R.generators")
    out["algebra.PolyMatrix.mul.triples"] = t("algebra.PolyMatrix.mul.triples")
    out["algebra.PolyMatrix.mul.nonzero_ratio"] = _ratio(
        t("algebra.PolyMatrix.mul.nonzero_triples"), t("algebra.PolyMatrix.mul.triples")
    )
    for c in CACHES:
        hits = t(f"{c}.hits")
        out[f"algebra.cache.{c}.hit_ratio"] = _ratio(hits, hits + t(f"{c}.misses"))
    out["homotopy.maps_nonzero"] = t("homotopy.solve_homotopies.maps_nonzero")
    out["assembly.product_rank"] = t("assembly.assemble.product_rank")
    out["trace.untraced_s"] = wall_s - covered
    return out


def layer_metrics(tracer: Tracer, traced: dict, untraced_walls: list, names) -> dict:
    """The per-layer metrics ``names``: medians over the traced instances
    ({instance id: wall seconds}), with the tracing overhead measured
    against untraced walls."""
    per = [instance_metrics(tracer.spans, i, wall) for i, wall in traced.items()]
    overhead = median(traced.values()) / median(untraced_walls) - 1.0
    return {
        name: overhead if name == "trace.overhead_frac" else median(m[name] for m in per)
        for name in names
    }
