"""Spans around the calls between gaplab's modules, and the per-layer metrics.

``Tracer.install`` replaces every gaplab function that one gaplab module
imports from another, at the importing module's name, with a wrapper that
records a span; a few calls inside a module that the metrics need are
wrapped too.  Nothing under ``src/`` is edited, and ``uninstall`` puts the
original functions back.  Spans are kept in memory and turned into metrics
after the run.

A span is ``(name, parent, start, end, count, error)``: ``name`` is
"<module>.<function>" of the function called, ``parent`` the index of the
enclosing span (-1 at top level), ``count`` a number read from the return
value (search nodes, orbits, edges checked, ...) and ``error`` the name of
an exception that left the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

MODULES = ("cli", "decide", "families", "graph", "labelling", "strength", "symmetry", "transforms")

# Calls inside one module that the per-layer metrics separate out.
INTERNAL = {
    "strength": ("restricted_lb", "general_lb", "power_law_column"),
    "transforms": ("distinctify", "golomb_relabel"),
}


def _count(name: str, args, result) -> int:
    if name == "decide.decide":
        return result.assignments_tried
    if name == "symmetry.orbit_representatives":
        return len(result)
    if name == "labelling.is_gap_labelling":
        return args[0].edge_count
    if name == "graph.parse_graph":
        return len(args[0])
    if name == "symmetry.are_isomorphic":
        return int(result)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        count, error = 0, None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            count = _count(name, args, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            count = getattr(exc, "tried", 0)  # SearchBudgetExceeded
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end, count, error)

    def _wrap(self, fn):
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module("gaplab." + short)
            for attr, fn in list(vars(module).items()):
                imported = (
                    inspect.isfunction(fn)
                    and fn.__module__.startswith("gaplab.")
                    and fn.__module__ != module.__name__
                )
                if imported or attr in INTERNAL.get(short, ()):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# (name, unit, better, end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", "query_p50_ms", "decide-corpus"),
    ("graph.parse_s", "s", "lower", "wall_s, peak_rss_mb", "strength-verify"),
    ("graph.parse_mb", "MB", "lower", "wall_s, peak_rss_mb", "strength-verify"),
    ("graph.build_s", "s", "lower", "wall_s, peak_rss_mb", "strength-verify"),
    ("labelling.verify_s", "s", "lower", "wall_s", "strength-verify"),
    ("labelling.edges_checked", "count", "lower", "wall_s", "strength-verify"),
    ("labelling.parse_s", "s", "lower", "wall_s", "strength-verify"),
    ("labelling.serialize_s", "s", "lower", "wall_s", "strength-verify"),
    ("transforms.self_s", "s", "lower", "wall_s", "strength-verify"),
    ("transforms.recheck_share", "ratio", "lower", "wall_s", "strength-verify"),
    ("families.construct_s", "s", "lower", "wall_s (expected ~0)", "strength-verify"),
    ("symmetry.orbits_s", "s", "lower", "wall_s, answered_share", "decide-structured"),
    ("symmetry.orbits_calls", "count", "lower", "wall_s, answered_share", "decide-structured"),
    ("symmetry.orbit_count", "count", "lower", "wall_s, answered_share", "decide-structured"),
    ("symmetry.iso_s", "s", "lower", "wall_s (small)", "strength-verify"),
    ("symmetry.iso_tests", "count", "lower", "wall_s (small)", "strength-verify"),
    ("symmetry.dedup_ratio", "ratio", "higher", "wall_s (small)", "strength-verify"),
    ("decide.nodes", "count", "lower", "search_nodes, query_p90_ms, answered_share", "decide-corpus"),
    ("decide.max_nodes", "count", "lower", "search_nodes, query_p90_ms, answered_share", "decide-corpus"),
    ("decide.budget_exhausted", "count", "lower", "search_nodes, query_p90_ms, answered_share", "decide-corpus"),
    ("decide.self_s", "s", "lower", "wall_s; query_p90_ms", "decide-structured; decide-corpus"),
    ("decide.node_rate", "1/s", "higher", "wall_s; query_p90_ms", "decide-structured; decide-corpus"),
    ("decide.chi_s", "s", "lower", "wall_s, answered_share", "decide-structured"),
    ("decide.no_uncertified", "count", "lower", "answered_share", "decide-corpus"),
    ("strength.restricted_lb_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.restricted_lb_calls", "count", "lower", "wall_s", "strength-verify"),
    ("strength.general_lb_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.power_law_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.render_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.ub_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.exact_s", "s", "lower", "wall_s", "strength-verify"),
    ("strength.exact_candidates", "count", "lower", "wall_s", "strength-verify"),
    ("trace.overhead_share", "ratio", "lower", "nothing; qualifies the other numbers", "all"),
)

GRAPH_BUILDERS = ("graph.complete_graph", "graph.path_power", "graph.cycle_power", "graph.remove_edges")
TRANSFORMS = ("transforms.distinctify", "transforms.golomb_relabel")
FAMILY_BUILDERS = (
    "families.build_family",
    "families.construct_complete_labelling",
    "families.construct_path_power_labelling",
    "families.construct_cycle_power_labelling",
)


def pass_totals(spans) -> dict[str, float]:
    """Times and counts of one traced pass (its spans, parents re-based)."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    own_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for i, (name, parent, start, end, count, error) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + end - start
        own_by[name] = own_by.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def under(child: str, parent_prefix: str) -> list[int]:
        return [
            i
            for i, span in enumerate(spans)
            if span[0] == child and span[1] >= 0 and spans[span[1]][0].startswith(parent_prefix)
        ]

    recheck = under("labelling.is_gap_labelling", "transforms.")
    return {
        "cli.self_s": own_by.get("cli.main", 0.0),
        "graph.parse_s": dur.get("graph.parse_graph", 0.0),
        "graph.parse_mb": counts.get("graph.parse_graph", 0) / 1e6,
        "graph.build_s": total(dur, *GRAPH_BUILDERS),
        "labelling.verify_s": dur.get("labelling.is_gap_labelling", 0.0),
        "labelling.edges_checked": counts.get("labelling.is_gap_labelling", 0),
        "labelling.parse_s": dur.get("labelling.parse_labelling", 0.0),
        "labelling.serialize_s": dur.get("labelling.serialize_labelling", 0.0),
        "transforms.total_s": total(dur, *TRANSFORMS),
        "transforms.self_s": total(own_by, *TRANSFORMS),
        "transforms.recheck_s": sum(spans[i][3] - spans[i][2] for i in recheck),
        "families.construct_s": total(own_by, *FAMILY_BUILDERS),
        "symmetry.orbits_s": dur.get("symmetry.orbit_representatives", 0.0),
        "symmetry.orbits_calls": calls.get("symmetry.orbit_representatives", 0),
        "symmetry.orbit_count": counts.get("symmetry.orbit_representatives", 0),
        "symmetry.iso_s": total(dur, "symmetry.are_isomorphic", "symmetry.cheap_invariant"),
        "symmetry.iso_tests": calls.get("symmetry.are_isomorphic", 0),
        "symmetry.iso_found": counts.get("symmetry.are_isomorphic", 0),
        "decide.nodes": counts.get("decide.decide", 0),
        "decide.max_nodes": max((s[4] for s in spans if s[0] == "decide.decide"), default=0),
        "decide.budget_exhausted": sum(
            1 for s in spans if s[5] == "SearchBudgetExceeded" and s[0].startswith("decide.")
        ),
        "decide.self_s": own_by.get("decide.decide", 0.0),
        "decide.chi_s": dur.get("decide.vertex_gap_number", 0.0),
        "strength.restricted_lb_s": dur.get("strength.restricted_lb", 0.0),
        "strength.restricted_lb_calls": calls.get("strength.restricted_lb", 0),
        "strength.general_lb_s": own_by.get("strength.general_lb", 0.0),
        "strength.power_law_s": dur.get("strength.power_law_column", 0.0),
        "strength.render_s": own_by.get("strength.emit_tables", 0.0),
        "strength.ub_s": dur.get("strength.construct_upper", 0.0),
        "strength.exact_s": dur.get("strength.exact_strength", 0.0),
        "strength.exact_candidates": len(under("graph.remove_edges", "strength.exact_strength")),
    }


def layer_metrics(tracer: Tracer, passes, normalised, raw) -> dict[str, float]:
    """Per-layer metrics over the traced passes.

    ``passes`` holds (first, last + 1) span indices; spans never cross a
    pass boundary, so parents are re-based by the pass's first index.  A
    pass's span times are normalised like its query times (``clock.py``),
    by the ratio of its normalised to its raw total.  Each total is the
    median over the passes, and ratios are formed from those medians.
    """
    per_pass = []
    for (lo, hi), norm, seconds in zip(passes, normalised, raw):
        spans = [
            (name, parent - lo if parent >= 0 else -1, start, end, count, error)
            for name, parent, start, end, count, error in tracer.spans[lo:hi]
        ]
        scale = sum(norm) / sum(seconds)
        totals = pass_totals(spans)
        per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in totals.items()})
    m = {key: statistics.median(t[key] for t in per_pass) for key in per_pass[0]}
    transforms_s = m.pop("transforms.total_s")
    recheck_s = m.pop("transforms.recheck_s")
    found = m.pop("symmetry.iso_found")
    m["transforms.recheck_share"] = recheck_s / transforms_s if transforms_s else 0.0
    m["symmetry.dedup_ratio"] = found / m["symmetry.iso_tests"] if m["symmetry.iso_tests"] else 0.0
    m["decide.node_rate"] = m["decide.nodes"] / m["decide.self_s"] if m["decide.self_s"] else 0.0
    return m
