"""Per-layer tracing for the benchmark's traced run.

A layer is an infgon module.  `Tracer` wraps the functions named in
LAYERS with spans (name, start, end, parent span, query) and the ones
named in COUNTED with bare call counters; `ZModel.key` runs millions
of times a pass, and timing it would distort everything else.  A
function is replaced at every module binding that holds it, because
modules import each other's functions by name (`infgon.cli.index`,
`infgon.cvector.index_bar`) and a call through a binding left alone
would escape its span.  Methods are replaced on their class.  Spans
stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

LAYERS: dict[str, tuple[str, ...]] = {
    "triangulation": (
        "Triangulation.sup_connected", "Triangulation.inf_connected",
        "Triangulation.third_vertex", "Triangulation.bridge_quadruple",
        "Triangulation.flip", "validate", "Triangulation.window_nodes",
        "Triangulation.dual_quiver"),
    "homindex": ("zigzag", "index", "check_duality"),
    "cvector": ("dimension_vector", "cvector_eval", "cvector_full",
                "image_arc", "realize_dimension_vector"),
    "decomposition": ("crossing_order", "in_X", "root_of_arc",
                      "maximal_pairs", "unique_maximal_iff_acyclic_report"),
    "fzoracle": ("from_triangulation", "mutate"),
    "render": ("render_svg",),
    "cli": ("main",),
}
COUNTED: dict[str, tuple[str, ...]] = {
    "zmodel": ("ZModel.key", "ZModel.crosses", "ZModel.cyclically_between"),
}
# Functions whose distinct (triangulation, arc) arguments are counted:
# distinct / calls is the share of calls a cache could not answer.
DISTINCT = ("homindex.index", "cvector.dimension_vector")
VALIDATE = "triangulation.validate"


def metric_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.rpartition('.')[2]}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in COUNTED.items():
        for q in names:
            units[metric_name(layer, q) + ".calls"] = "count"
    for layer, names in LAYERS.items():
        for q in names:
            units[metric_name(layer, q) + ".calls"] = "count"
            units[metric_name(layer, q) + ".self_s"] = "s"
    units["homindex.zigzag.steps"] = "count"
    for name in DISTINCT:
        units[name + ".distinct_ratio"] = "ratio"
    units[VALIDATE + ".offset_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Installs the wrappers on entry and restores the originals on
    exit.  Self time is a span's duration minus its child spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.self_ns_by_tag: Counter = Counter()
        self.distinct = {name: set() for name in DISTINCT}
        self.zigzag_steps = 0
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []   # [span id, child ns]
        self._query: int | None = None     # id of the running query
        self._queries = 0
        self._tag: int | None = None
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, names in COUNTED.items():
            for q in names:
                self._patch(layer, q, self._counter)
        for layer, names in LAYERS.items():
            for q in names:
                self._patch(layer, q, self._spanner)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def run_query(self, tag: int | None, call):
        """Runs one query under a root span named "query"; queries are
        numbered in the order they run."""
        self._query, self._tag = self._queries, tag
        self._queries += 1
        try:
            return self._timed("query", call, (), {})
        finally:
            self._query = self._tag = None

    # -- wrapping ------------------------------------------------------

    def _patch(self, layer: str, qualname: str, make) -> None:
        module = importlib.import_module(f"infgon.{layer}")
        owner_name, _, attr = qualname.rpartition(".")
        name = metric_name(layer, qualname)
        if owner_name:
            owner = getattr(module, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, make(name, orig))
            self._undo.append((owner, attr, orig))
            return
        orig = getattr(module, attr)
        wrapped = make(name, orig)
        for mod in list(sys.modules.values()):
            for key, value in list(getattr(mod, "__dict__", {}).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name: str, fn):
        distinct = self.distinct.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.calls[name] += 1
            if distinct is not None:
                distinct.add(args[:2])
            result = self._timed(name, fn, args, kwargs)
            if name == "homindex.zigzag":
                self.zigzag_steps += len(result.vertices) - 1
            return result
        return spanned

    def _timed(self, name: str, fn, args, kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            own = end - start - frame[1]
            self.self_ns[name] += own
            self.self_ns_by_tag[name, self._tag] += own
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((span_id, parent, self._query, name, start, end))

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, names in COUNTED.items():
            for q in names:
                name = metric_name(layer, q)
                out[name + ".calls"] = self.calls[name]
        for layer, names in LAYERS.items():
            for q in names:
                name = metric_name(layer, q)
                out[name + ".calls"] = self.calls[name]
                out[name + ".self_s"] = self.self_ns[name] / 1e9
        out["homindex.zigzag.steps"] = self.zigzag_steps
        for name, seen in self.distinct.items():
            calls = self.calls[name]
            out[name + ".distinct_ratio"] = len(seen) / calls if calls else 0.0
        by_offset = sorted((tag, ns) for (name, tag), ns
                           in self.self_ns_by_tag.items()
                           if name == VALIDATE and tag is not None)
        out[VALIDATE + ".offset_ratio"] = (
            by_offset[-1][1] / by_offset[0][1] if len(by_offset) > 1 else 0.0)
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, query, name,
        start and end in ns; "-" for no parent or no query."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tquery\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join("-" if x is None else str(x)
                                   for x in span) + "\n")
