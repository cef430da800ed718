"""Span recorder for the traced run, and the per-layer metrics made from it.

`Recorder.install` wraps every public function of the domgraph modules
(graphs, domination, reconfig, counting, verify, cli) in every domgraph
namespace that holds it, so calls from one module into another are recorded
as well as the benchmark's own calls.  Each call records one span:

    [run id, span id, parent span id, name, start, end, counters]

Span ids are positions in `Recorder.spans`; counters are computed from the
call's arguments and result (sizes such as 2^n subsets are computed, not
measured).  Spans stay in memory until the run ends and are then handed to
`layer_metrics` whole.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = ("graphs", "domination", "reconfig", "counting", "verify", "cli")

RUN, ID, PARENT, NAME, START, END, COUNTERS = range(7)


def _table(g):
    """One coverage table: 2^n subsets of 8 bytes each."""
    return {"subsets": 1 << g.n, "table_bytes": 8 << g.n}


def _dominating(g, count):
    """All dominating sets of g, from a call that counts every one of them."""
    return {**_table(g), "graph": f"{g.n}:{hash(g.edges)}", "dominating": count}


def _enumerate(args, kwargs, result):
    counters = {"sets": len(result), "scan": 0}
    if kwargs.get("method", "prune") == "scan":
        counters.update(_table(args[0]), scan=1)
    return counters


def _cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    return None


COUNTER_HOOKS = {
    "domination.total_count": lambda a, kw, r: _dominating(a[0], r),
    "domination.count_by_cardinality": lambda a, kw, r: _dominating(a[0], sum(r)),
    "domination.domination_number": lambda a, kw, r: _table(a[0]),
    "domination.upper_domination_number": lambda a, kw, r: _table(a[0]),
    "domination.count_maximal_minimal_sets": lambda a, kw, r: _table(a[0]),
    "domination.enumerate_dominating": _enumerate,
    "reconfig.build": lambda a, kw, r: {"nodes": r.order, "edges": r.size},
    "reconfig.to_json": lambda a, kw, r: {"bytes": len(r)},
    "reconfig.to_dot": lambda a, kw, r: {"bytes": len(r)},
    "verify.verify_suite": lambda a, kw, r: {
        "records": len(r), "errata": sum(1 for rec in r if rec.status == "erratum")},
    "cli.main": _cli_main,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.pruned: list[tuple] = []  # (args, kwargs) of prune-route enumerations
        self.run = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("domgraph")
        modules = {layer: importlib.import_module(f"domgraph.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for namespace in [vars(package)] + [vars(m) for m in modules.values()]:
            for name, obj in list(namespace.items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    namespace[name] = wrapper
                    self._patched.append((namespace, name, obj))

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._patched):
            namespace[name] = obj
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.run, len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[COUNTERS] = hook(args, kwargs, result)
                if hook is _enumerate and not span[COUNTERS]["scan"]:
                    self.pruned.append((args, kwargs))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CONSTRUCT = {f"graphs.{f}" for f in ("graph_from_edges", "make_family", "join", "corona",
                                     "cartesian", "ladder", "from_json", "from_json_obj")}
TABLE = {f"domination.{f}" for f in ("total_count", "count_by_cardinality",
                                     "domination_number", "count_minimum_sets")}
MINIMAL = {"domination.upper_domination_number", "domination.count_maximal_minimal_sets"}
STRUCTURE = {f"reconfig.{f}" for f in ("bipartition", "degree_extremes",
                                       "connected_components", "euler_status", "is_regular")}
SERIALIZE = {f"reconfig.{f}" for f in ("edge_list", "to_json_obj", "to_json", "to_dot")}
SEQUENCE = {f"counting.{f}" for f in ("order_sequence", "expand_gf", "closed_form_order",
                                      "ladder_order")}
SUITES = ("complete", "paths", "cycles", "products", "parity")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times (s) and counts from one run's spans.

    A group's time is the time covered by its outermost spans, so nested
    calls inside the group are not counted twice; self time is a span's
    duration minus its direct children's.
    """
    dur = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    foreign = [0.0] * len(spans)  # direct children in another layer
    for s, d in zip(spans, dur):
        if s[PARENT] is not None:
            children[s[PARENT]] += d
            if layer(s) != layer(spans[s[PARENT]]):
                foreign[s[PARENT]] += d

    def selected(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def covered(pred) -> float:
        total = 0.0
        for i in selected(pred):
            p = spans[i][PARENT]
            while p is not None and not pred(spans[p]):
                p = spans[p][PARENT]
            if p is None:
                total += dur[i]
        return total

    def named(names):
        return lambda s: s[NAME] in names

    def counter(key, pred=lambda s: True) -> int:
        return sum((s[COUNTERS] or {}).get(key, 0) for s in spans if pred(s))

    def enum_route(scan):
        return lambda s: s[NAME] == "domination.enumerate_dominating" and s[COUNTERS] \
            and s[COUNTERS]["scan"] == scan

    def outermost_verify(s):
        return s[NAME] == "verify.verify_suite" and (
            s[PARENT] is None or spans[s[PARENT]][NAME] != "verify.verify_suite")

    builds = selected(named({"reconfig.build"}))
    mains = selected(named({"cli.main"}))
    subsets = counter("subsets")
    # dominating sets and subsets of each distinct graph whose dominating
    # sets were all counted
    counted = {s[COUNTERS]["graph"]: (s[COUNTERS]["dominating"], s[COUNTERS]["subsets"])
               for s in spans if s[COUNTERS] and "graph" in s[COUNTERS]}
    counted_subsets = sum(t for _, t in counted.values())
    m = {
        "graphs.construct_s": covered(named(CONSTRUCT)),
        "graphs.calls": len(selected(lambda s: layer(s) == "graphs")),
        "domination.table_s": covered(named(TABLE)),
        "domination.minimal_s": covered(named(MINIMAL)),
        "domination.prune_s": covered(enum_route(0)),
        "domination.enum_scan_s": covered(enum_route(1)),
        "domination.subsets_scanned": subsets,
        "domination.table_bytes": counter("table_bytes"),
        "domination.sets_out": counter("sets"),
        "domination.scan_yield": (sum(d for d, _ in counted.values()) / counted_subsets
                                  if counted_subsets else 0.0),
        "reconfig.build_s": covered(named({"reconfig.build"})),
        "reconfig.adjacency_s": sum(dur[i] - children[i] for i in builds),
        "reconfig.nodes": counter("nodes"),
        "reconfig.edges": counter("edges"),
        "reconfig.distance_s": covered(named({"reconfig.distance"})),
        "reconfig.structure_s": covered(named(STRUCTURE)),
        "reconfig.hamiltonian_s": covered(named({"reconfig.is_hamiltonian"})),
        "reconfig.serialize_s": covered(named(SERIALIZE)),
        "reconfig.bytes_out": counter("bytes", lambda s: s[NAME] in SERIALIZE),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = covered(named({f"verify.suite_{suite}"}))
    m["verify.records"] = counter("records", outermost_verify)
    m["verify.errata"] = counter("errata", outermost_verify)
    m["counting.triangle_s"] = covered(named({"counting.path_triangle", "counting.cycle_triangle"}))
    m["counting.sequence_s"] = covered(named(SEQUENCE))
    m["cli.main_s"] = covered(named({"cli.main"}))
    m["cli.format_s"] = sum(dur[i] - foreign[i] for i in mains)
    m["cli.bytes_out"] = counter("bytes", named({"cli.main"}))
    for name in LAYERS:
        m[f"{name}.self_s"] = sum(d - c for s, d, c in zip(spans, dur, children) if layer(s) == name)
    m["trace.spans"] = len(spans)
    return m


def layer(span) -> str:
    return span[NAME].split(".", 1)[0]
