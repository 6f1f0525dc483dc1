"""In-memory spans around the program's layer entry points, installed from
outside the program by replacing module attributes in the namespace that
makes each call.

`pipeline` imports `construct_9mod24`, `lift_prdf` and friends by name, so
those are replaced as `pipeline.<name>`; `verify_full`, `build_kts` and the
`compose` entry points are looked up at call time and are replaced on their
own modules.  `finring` is deliberately not wrapped: it makes millions of
field operations and wrapping them would distort the run; its time shows
inside the `directcon` and `compose` spans.
"""

from __future__ import annotations

import json as _json
import os
import resource
import time

# (span name, module, attribute): each attribute is replaced by a wrapper
# that records a span under that name.
SPANS = (
    ("catalog.get", "catalog", "get"),
    ("pipeline.route", "pipeline", "construct_case_i"),
    ("pipeline.route", "pipeline", "construct_case_ii"),
    ("pipeline.route", "pipeline", "construct_case_iii"),
    ("pipeline.build_kts", "pipeline", "build_kts"),
    ("directcon.construct", "pipeline", "construct_9mod24"),
    ("directcon.construct", "pipeline", "construct_15mod24"),
    ("directcon.construct", "pipeline", "construct_15mod24bis"),
    ("directcon.construct", "pipeline", "construct_dddf"),
    ("directcon.lift_prdf", "pipeline", "lift_prdf"),
    ("compose.homogeneous_dm", "compose", "homogeneous_dm"),
    ("compose.df_compose_dm", "compose", "df_compose_dm"),
    ("compose.union", "compose", "chain_union"),
    ("compose.union", "compose", "pertinent_union"),
    ("verify.full", "verify", "verify_full"),
    ("verify.sts", "verify", "verify_sts"),
    ("verify.resolution", "verify", "verify_resolution"),
    ("verify.pyramidal", "verify", "verify_3pyramidal"),
    ("verify.base_blocks", "verify", "check_base_blocks"),
    ("cli.encode", "cli", "system_to_json"),
    ("cli.decode", "cli", "system_from_json"),
) + tuple(
    # the per-step witness re-checks, where the route and build_kts call them
    ("designkit.predicate", mod, name)
    for mod, names in (
        ("pipeline", ("is_j_resolvable",)),
        ("compose", ("is_j_resolvable", "is_df", "dm_check",
                     "is_doubly_disjoint")),
        ("directcon", ("is_j_resolvable", "is_df", "is_doubly_disjoint")))
    for name in names)

# (counter name, module, attribute): replaced by a wrapper that only counts.
COUNTERS = (
    ("pipeline.align_calls", "pipeline", "align"),
)

# Spans that also record how far they raised the worker's peak RSS.
RSS_SPANS = ("pipeline.build_kts", "verify.sts", "cli.decode")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records spans (name, start, end, parent, op id, sizes) in memory."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None
        self._saved = []

    # -- recording -------------------------------------------------------

    def open(self, name):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None,
                "op": self.op}
        if name in RSS_SPANS:
            span["rss0"] = _maxrss_mb()
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        if "rss0" in span:
            span["rss_growth_mb"] = _maxrss_mb() - span.pop("rss0")
        self.stack.pop()

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                _annotate(span, out)
                return out
            finally:
                tracer.close(span)
        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr, new):
        if not hasattr(owner, attr):
            raise AttributeError(f"{owner.__name__} has no {attr}: the "
                                 "benchmark's layer map is out of date")
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        m = self.modules
        for name, mod, attr in SPANS:
            self._replace(m[mod], attr,
                          self.span_wrapper(name, getattr(m[mod], attr)))
        for name, mod, attr in COUNTERS:
            self._replace(m[mod], attr,
                          self.count_wrapper(name, getattr(m[mod], attr)))
        gi = m["groups"].GroupIndex
        self._replace(gi, "__init__",
                      self.span_wrapper("groups.group_index", gi.__init__))
        self._replace(gi, "translation",
                      self.count_wrapper("groups.translation_calls",
                                         gi.translation))
        self._replace(m["cli"], "json", _TracedJson(self))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------

    def called(self):
        """Span and counter names that recorded at least one call."""
        return {s["name"] for s in self.spans} | {
            k for k, n in self.counts.items() if n}


def _annotate(span, out):
    """Sizes read off a layer's result."""
    name = span["name"]
    if name == "pipeline.build_kts":
        span["blocks"] = len(out.blocks)
        span["classes_kept"] = len(out.resolution) - 1
    elif name == "compose.df_compose_dm":
        span["blocks"] = len(out.blocks)
    elif name == "compose.homogeneous_dm":
        span["cells"] = out.group.order
    elif name.startswith("verify.") and name != "verify.full":
        span["reject"] = not out["ok"]


class _TracedJson:
    """Stands in for the `json` module inside `cli`: encoding and decoding
    of system files become `cli.encode` and `cli.decode` spans."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(_json, attr)

    def dumps(self, obj, **kwargs):
        span = self._tracer.open("cli.encode")
        try:
            text = _json.dumps(obj, **kwargs)
            span["bytes"] = len(text)
            return text
        finally:
            self._tracer.close(span)

    def load(self, fh, **kwargs):
        span = self._tracer.open("cli.decode")
        try:
            span["bytes"] = os.fstat(fh.fileno()).st_size
            return _json.load(fh, **kwargs)
        finally:
            self._tracer.close(span)


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(tracer, pass_s):
    """The per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]

    def total_of(name):
        return total.get(name, 0.0)

    def field(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    route_self = sum(t for s, t in zip(spans, own)
                     if s["name"] == "pipeline.route")
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    translations = tracer.counts.get("groups.translation_calls", 0)
    kept = field("pipeline.build_kts", "classes_kept")
    metrics = {
        "catalog.get_s": (total_of("catalog.get"), "s"),
        "pipeline.route_s": (total_of("pipeline.route"), "s"),
        "pipeline.route.self_s": (route_self, "s"),
        "pipeline.align_calls": (tracer.counts.get("pipeline.align_calls", 0),
                                 "count"),
        "directcon.construct_s": (total_of("directcon.construct"), "s"),
        "directcon.lift_prdf_s": (total_of("directcon.lift_prdf"), "s"),
        "compose.homogeneous_dm_s": (total_of("compose.homogeneous_dm"), "s"),
        "compose.homogeneous_dm.cells": (
            field("compose.homogeneous_dm", "cells"), "count"),
        "compose.df_compose_dm_s": (total_of("compose.df_compose_dm"), "s"),
        "compose.df_compose_dm.blocks": (
            field("compose.df_compose_dm", "blocks"), "count"),
        "compose.union_s": (total_of("compose.union"), "s"),
        "designkit.predicate_s": (total_of("designkit.predicate"), "s"),
        "designkit.predicate_calls": (
            sum(s["name"] == "designkit.predicate" for s in spans), "count"),
        "groups.group_index_s": (total_of("groups.group_index"), "s"),
        "groups.translation_calls": (translations, "count"),
        "pipeline.build_kts_s": (total_of("pipeline.build_kts"), "s"),
        "pipeline.blocks": (field("pipeline.build_kts", "blocks"), "count"),
        "pipeline.build_kts.rss_growth_mb": (
            field("pipeline.build_kts", "rss_growth_mb"), "MB"),
        "pipeline.build_kts.useful_ratio": (
            kept / translations if translations else 0.0, "ratio"),
        "verify.sts_s": (total_of("verify.sts"), "s"),
        "verify.resolution_s": (total_of("verify.resolution"), "s"),
        "verify.pyramidal_s": (total_of("verify.pyramidal"), "s"),
        "verify.base_blocks_s": (total_of("verify.base_blocks"), "s"),
        "verify.full_calls": (
            sum(s["name"] == "verify.full" for s in spans), "count"),
        "verify.sts.rss_growth_mb": (field("verify.sts", "rss_growth_mb"),
                                     "MB"),
        "verify.rejects": (
            sum(bool(s.get("reject")) for s in spans), "count"),
        "cli.encode_s": (total_of("cli.encode"), "s"),
        "cli.encode_bytes": (field("cli.encode", "bytes"), "bytes"),
        "cli.decode_s": (total_of("cli.decode"), "s"),
        "cli.decode_bytes": (field("cli.decode", "bytes"), "bytes"),
        "cli.decode.rss_growth_mb": (field("cli.decode", "rss_growth_mb"),
                                     "MB"),
        "bench.unattributed_s": (pass_s - top, "s"),
    }
    coverage = {"self_sum_s": sum(own),
                "negative_self": sum(t < -1e-6 for t in own)}
    return metrics, coverage
