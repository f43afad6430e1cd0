"""In-memory spans around localzeta's public functions, and their totals.

A traced batch patches each function listed in ``layer_targets`` at every
name its callers resolve (module globals, re-exports and class
attributes), records one span per call and restores the originals
afterwards.  Nothing inside ``localzeta`` is changed on disk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
import weakref


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, or None
        self.attrs = attrs

    def as_dict(self):
        return {"name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, **self.attrs}


class Tracer:
    """Records nested spans (name, start, end, parent) in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._open = []
        # tables already returned by table_for / already labelled, held
        # weakly so that clearing the memo releases them
        self.tables_seen = weakref.WeakSet()
        self.tables_labelled = weakref.WeakSet()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else None
        sp = Span(name, self.clock(), parent, attrs)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = self.clock()

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(args, kwargs, result)``
        returns counters stored on the span, computed after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.attrs.update(count(args, kwargs, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict(), sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# patching


def _aliases(owner, attr, original):
    """Every (namespace, name) in loaded localzeta modules bound to
    ``original``, starting with ``(owner, attr)``."""
    sites = [(owner, attr)]
    for modname, module in list(sys.modules.items()):
        if modname != "localzeta" and not modname.startswith("localzeta."):
            continue
        for name, value in list(vars(module).items()):
            if value is original and (module, name) != (owner, attr):
                sites.append((module, name))
    return sites


@contextlib.contextmanager
def patched(tracer, targets):
    """Install traced wrappers for ``targets`` and restore them on exit.

    ``targets`` holds ``(span name, owner, attribute, count or None)``.
    """
    saved = []
    try:
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, count)
            for site, site_attr in _aliases(owner, attr, original):
                saved.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)
        yield tracer
    finally:
        for site, site_attr, original in reversed(saved):
            setattr(site, site_attr, original)


def layer_targets(tracer):
    """The traced public functions of each layer, with their counters."""
    from localzeta import cache, groups, igusa, presburger, rings, zeta

    def products(args, kwargs, result):
        # the product's batch shape is the broadcast of the arguments'
        return {"products": math.prod(result.shape[:-2])}

    def elements(args, kwargs, result):
        return {"elements": int(result.size)}

    def rows(args, kwargs, result):
        return {"rows": int(args[1].shape[0])}

    def classes(args, kwargs, result):
        table = args[0]
        if table in tracer.tables_labelled:
            return {}
        tracer.tables_labelled.add(table)
        return {"classes": int(result.max()) + 1 if result.size else 0}

    def table_seen(args, kwargs, result):
        seen = result in tracer.tables_seen
        tracer.tables_seen.add(result)
        return {"seen": seen}

    def points(args, kwargs, result):
        poly = igusa.parse_poly(args[0])
        ring = args[1] if len(args) > 1 else kwargs["ring"]
        return {"points": ring.size ** len(poly.vars)}

    def sum_result(args, kwargs, result):
        rat = result.rational
        return {
            "cells": int(result.cells),
            "numerator_terms": len(rat.numerator.terms),
            "denominator_factors": sum(m for _, m in rat.factors),
        }

    def oracle_points(args, kwargs, result):
        spec = args[0]
        box = args[3] if len(args) > 3 else kwargs["box"]
        free = (presburger.free_vars(spec.formula.ast)
                | spec.A.vars() | spec.B.vars())
        return {"points": (2 * box + 1) ** len(free)}

    G = groups.GroupTable
    return [
        ("rings.build", rings.Ring, "__init__", None),
        ("rings.mat_mul", rings.Ring, "mat_mul", products),
        ("groups.generate", groups, "generate", elements),
        ("groups.lookup_batch", G, "lookup_batch", rows),
        ("groups.conjugation_labels", G, "conjugation_labels", classes),
        ("groups.subgroup_indices", G, "subgroup_indices", None),
        ("groups.double_coset_data", G, "double_coset_data", None),
        ("groups.hecke_pairs", G, "hecke_pairs", None),
        ("cache.table_for", cache, "table_for", table_seen),
        ("zeta.cc_zeta", zeta, "cc_zeta", None),
        ("zeta.hecke_zeta", zeta, "hecke_zeta", None),
        ("zeta.expand", zeta, "expand", None),
        ("igusa.zero_count", igusa, "zero_count", points),
        ("presburger.sum_rational", presburger, "sum_rational", sum_result),
        ("presburger.eliminate_quantifiers", presburger,
         "eliminate_quantifiers", None),
        ("presburger.oracle", presburger, "brute_force_series",
         oracle_points),
    ]


SPAN_NAMES = (
    "rings.build", "rings.mat_mul", "groups.generate", "groups.lookup_batch",
    "groups.conjugation_labels", "groups.subgroup_indices",
    "groups.double_coset_data", "groups.hecke_pairs", "cache.table_for",
    "zeta.cc_zeta", "zeta.hecke_zeta", "zeta.expand", "igusa.zero_count",
    "presburger.sum_rational", "presburger.eliminate_quantifiers",
    "presburger.oracle",
)
JOB_KINDS = ("cc", "hecke", "igusa", "summation")


# ----------------------------------------------------------------------
# aggregation


def span_totals(spans):
    """name -> [inclusive ns, self ns, calls].

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only the outermost span of a name,
    so a function that reaches itself again is not counted twice.
    """
    child_ns = [0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_ns[sp.parent] += sp.end - sp.start
    totals = {}
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        entry = totals.setdefault(sp.name, [0, 0, 0])
        if not _has_ancestor_named(spans, sp, sp.name):
            entry[0] += dur
        entry[1] += dur - child_ns[i]
        entry[2] += 1
    return totals


def _has_ancestor_named(spans, sp, name):
    parent = sp.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def classify_table_for(seen_before, generated):
    """A ``table_for`` call returning a table it returned before is a memo
    hit; otherwise it enumerated (miss) or loaded from disk (disk hit)."""
    if seen_before:
        return "memo"
    return "miss" if generated else "disk"


def table_for_outcomes(spans):
    """Outcome per table_for span, and the generate time under each."""
    generated_ns = {}
    for sp in spans:
        if sp.name != "groups.generate":
            continue
        parent = sp.parent
        while parent is not None and spans[parent].name != "cache.table_for":
            parent = spans[parent].parent
        if parent is not None:
            generated_ns[parent] = (generated_ns.get(parent, 0)
                                    + sp.end - sp.start)
    outcomes = []
    for i, sp in enumerate(spans):
        if sp.name == "cache.table_for":
            outcomes.append((
                classify_table_for(sp.attrs.get("seen", False),
                                   i in generated_ns),
                sp.end - sp.start - generated_ns.get(i, 0),
            ))
    return outcomes


def layer_metrics(spans, batches):
    """Per-layer metrics per batch, from the spans of ``batches`` batches.

    The spans must include one ``batch`` span per batch, each enclosing
    ``cli.job`` spans that carry a ``kind`` attribute.
    """
    totals = span_totals(spans)
    per = 1e-9 / batches
    out = {}
    for name in SPAN_NAMES:
        incl, self_ns, calls = totals.get(name, (0, 0, 0))
        out[f"{name}_s"] = incl * per
        out[f"{name}_self_s"] = self_ns * per
        out[f"{name}_calls"] = calls / batches

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in spans
                   if sp.name == name) / batches

    out["rings.mat_mul_products"] = attr_sum("rings.mat_mul", "products")
    out["groups.elements"] = attr_sum("groups.generate", "elements")
    out["groups.lookup_batch_rows"] = attr_sum("groups.lookup_batch", "rows")
    out["groups.classes"] = attr_sum("groups.conjugation_labels", "classes")

    outcomes = table_for_outcomes(spans)
    for kind, key in (("memo", "cache.memo_hits"),
                      ("disk", "cache.disk_hits"), ("miss", "cache.misses")):
        out[key] = sum(1 for o, _ in outcomes if o == kind) / batches
    out["cache.self_s"] = sum(ns for _, ns in outcomes) * per
    hits = out["cache.memo_hits"] + out["cache.disk_hits"]
    calls = out["cache.table_for_calls"]
    out["cache.hit_ratio"] = hits / calls if calls else 0.0

    out["zeta.series_self_s"] = (out["zeta.cc_zeta_self_s"]
                                 + out["zeta.hecke_zeta_self_s"])
    out["igusa.points"] = attr_sum("igusa.zero_count", "points")
    zc = out["igusa.zero_count_s"]
    out["igusa.points_per_s"] = out["igusa.points"] / zc if zc else 0.0
    for key in ("cells", "numerator_terms", "denominator_factors"):
        out[f"presburger.{key}"] = attr_sum("presburger.sum_rational", key)
    out["presburger.oracle_points"] = attr_sum("presburger.oracle", "points")

    for kind in JOB_KINDS:
        out[f"cli.job_s.{kind}"] = sum(
            sp.end - sp.start for sp in spans
            if sp.name == "cli.job" and sp.attrs.get("kind") == kind
        ) * per
    # time inside batches and jobs that no layer span covers
    out["unattributed_s"] = sum(
        totals.get(name, (0, 0, 0))[1] for name in ("batch", "cli.job")
    ) * per
    return out
