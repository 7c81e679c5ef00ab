"""Spans around calls into hyperball's modules, and the per-layer metrics
computed from them.

Tracing works by rebinding: every public function named in ``TARGETS`` is
replaced, in every ``hyperball`` module that holds it, by a wrapper that
records a span.  Calls between modules (``lab`` calling ``lp.lp_feasible``,
``sets`` calling ``lp.dist_to_polyhedron``) therefore show up as child
spans.  Nothing under ``src/`` changes; ``uninstall`` restores every name.

A span is ``[name, start, end, parent, op_id, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``info`` holds the counts a
few layers report (budget used, iterations, dimension).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

from harness import percentile

# ---------------------------------------------------------------------------
# What is wrapped

_LAB = ("refute_search", "verify_refutation", "external_witness", "check_admissible",
        "helly_order_check", "graph_n_helly_bruteforce")
_LP = ("lp_feasible", "lp_minimize", "dist_to_polyhedron", "polyhedron_coordinate_bounds")
_SETS = ("subset_dist", "subset_nearest", "subset_witness_in_box", "subset_nonempty",
         "subset_window", "pair_witness")
_REFINE = ("almost_to_exact", "triple_intersection", "chain_walk", "verify_trace")

# linf_dist stays unwrapped: it runs millions of times and a wrapper would
# cost more than the call it measures.
TARGETS = (
    [("lab", f) for f in _LAB]
    + [("lp", f) for f in _LP]
    + [("sets", f) for f in _SETS]
    + [("convexity", "distance_convexity_check")]
    + [("linf", "ball_family_intersection"), ("linf", "sigma")]
    + [("metric", f) for f in ("graph_metric", "is_modular", "validate_metric")]
    + [("refine", f) for f in _REFINE]
    + [("barycenter", "barycenter"), ("barycenter", "ip_lift")]
    + [("io", "parse_instance"), ("io", "canonical_dumps")]
    + [("cli", "main")]
)

REFUTE_KINDS = ("box.external", "union.external", "halfspace.external", "box.hyperconvex",
                "box.weakly-external", "union.hyperconvex", "polyhedron.external")
HELLY_DIMS = range(3, 11)
CLI_COMMANDS = ("check", "refute", "helly", "refine", "barycenter", "ip-threshold",
                "ip-lift", "graph-scan")


def _subset_kind(subset) -> str:
    name = type(subset).__name__
    if name == "Box":
        return "box"
    if name == "BoxUnion":
        return "union"
    if name == "HPolyhedron":
        return "halfspace" if len(subset.rows) == 1 else "polyhedron"
    return name.lower()


def _refute_info(args, kwargs, report):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "external")
    return {"kind": f"{_subset_kind(args[0])}.{mode}", "used": report.budget_used,
            "refuted": report.refuted}


def _helly_info(args, kwargs, report):
    return {"dim": args[0][0].dim}


def _graph_info(args, kwargs, report):
    families = report.certificate.get("families") if report.holds else None
    return {"families": families}


def _iterates_info(args, kwargs, result):
    return {"iters": len(result[1].iterates)}


def _rounds_info(args, kwargs, result):
    return {"rounds": len(result[1].steps)}


INFO = {
    "lab.refute_search": _refute_info,
    "lab.helly_order_check": _helly_info,
    "lab.graph_n_helly_bruteforce": _graph_info,
    "refine.almost_to_exact": _iterates_info,
    "barycenter.ip_lift": _rounds_info,
}


# ---------------------------------------------------------------------------
# Recording


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hyperball" or n.startswith("hyperball.")]
        for layer, fname in TARGETS:
            original = getattr(importlib.import_module(f"hyperball.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# Arithmetic on spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units: dict[str, str] = {}

    def calls_self(prefix: str, names) -> None:
        for n in names:
            units[f"{prefix}.{n}.calls"] = "count"
            units[f"{prefix}.{n}.self_s"] = "s"

    calls_self("lab", ("refute_search",))
    for kind in REFUTE_KINDS:
        units[f"lab.refute.cand_per_s.{kind}"] = "1/s"
    units["lab.refute.refuted_ratio"] = "ratio"
    calls_self("lab", ("verify_refutation", "external_witness", "check_admissible",
                       "helly_order_check"))
    for d in HELLY_DIMS:
        units[f"lab.helly_order_check.ms.d{d}"] = "ms"
    units["lab.graph_n_helly_bruteforce.self_s"] = "s"
    units["lab.graph_n_helly_bruteforce.families_per_s"] = "1/s"
    calls_self("lp", ("lp_feasible",))
    units["lp.lp_feasible.p50_us"] = "us"
    units["lp.lp_feasible.max_ms"] = "ms"
    calls_self("lp", ("lp_minimize",))
    units["lp.lp_minimize.max_ms"] = "ms"
    calls_self("lp", ("dist_to_polyhedron",))
    units["lp.dist_to_polyhedron.p50_us"] = "us"
    calls_self("lp", ("polyhedron_coordinate_bounds",))
    calls_self("sets", _SETS)
    calls_self("convexity", ("distance_convexity_check",))
    calls_self("linf", ("ball_family_intersection", "sigma"))
    calls_self("metric", ("graph_metric", "is_modular", "validate_metric"))
    calls_self("refine", _REFINE)
    units["refine.almost_to_exact.iters_per_s"] = "1/s"
    calls_self("barycenter", ("barycenter", "ip_lift"))
    units["barycenter.ip_lift.rounds_per_s"] = "1/s"
    calls_self("io", ("parse_instance", "canonical_dumps"))
    units["cli.start.bare_ms"] = "ms"
    units["cli.start.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.p50_ms"] = "ms"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer values from one workload's traced passes.  Counts and self
    times are per pass; a metric whose layer never ran reads 0."""
    values = dict.fromkeys(layer_metric_units(), 0.0)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(idx)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    for name, idxs in by_name.items():
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = len(idxs) / passes
        if f"{name}.self_s" in values:
            values[f"{name}.self_s"] = sum(selfs[i] for i in idxs) / passes

    refute = [spans[i] for i in by_name.get("lab.refute_search", ())]
    for kind in REFUTE_KINDS:
        mine = [s for s in refute if s[5] and s[5]["kind"] == kind]
        values[f"lab.refute.cand_per_s.{kind}"] = _rate(
            sum(s[5]["used"] for s in mine), sum(s[2] - s[1] for s in mine))
    finished = [s for s in refute if s[5]]
    if finished:
        values["lab.refute.refuted_ratio"] = sum(s[5]["refuted"] for s in finished) / len(finished)

    helly = [spans[i] for i in by_name.get("lab.helly_order_check", ())]
    for d in HELLY_DIMS:
        ms = [(s[2] - s[1]) * 1e3 for s in helly if s[5] and s[5]["dim"] == d]
        values[f"lab.helly_order_check.ms.d{d}"] = statistics.median(ms) if ms else 0.0

    scans = [spans[i] for i in by_name.get("lab.graph_n_helly_bruteforce", ())]
    counted = [s for s in scans if s[5] and s[5]["families"]]
    values["lab.graph_n_helly_bruteforce.families_per_s"] = _rate(
        sum(s[5]["families"] for s in counted), sum(s[2] - s[1] for s in counted))

    feasible = durations("lp.lp_feasible")
    if feasible:
        values["lp.lp_feasible.p50_us"] = percentile(feasible, 0.5) * 1e6
        values["lp.lp_feasible.max_ms"] = max(feasible) * 1e3
    minimize = durations("lp.lp_minimize")
    if minimize:
        values["lp.lp_minimize.max_ms"] = max(minimize) * 1e3
    dist = durations("lp.dist_to_polyhedron")
    if dist:
        values["lp.dist_to_polyhedron.p50_us"] = percentile(dist, 0.5) * 1e6

    for name, key, metric in (("refine.almost_to_exact", "iters", "refine.almost_to_exact.iters_per_s"),
                              ("barycenter.ip_lift", "rounds", "barycenter.ip_lift.rounds_per_s")):
        done = [spans[i] for i in by_name.get(name, ()) if spans[i][5]]
        values[metric] = _rate(sum(s[5][key] for s in done), sum(s[2] - s[1] for s in done))
    return values

