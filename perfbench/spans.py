"""Spans around calls into relugeom's layers, recorded from outside.

The tracer replaces a layer's public function, in every loaded ``relugeom``
module that binds it, with a wrapper that records a span (name, start, end,
parent span, note) in memory.  Module-internal calls look the name up in the
module's globals, so they are caught too.  Nothing under ``src/`` changes;
``uninstall`` restores every binding.

A layer whose function no longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _point_bits(point) -> int:
    if point is None:
        return 0
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in point),
        default=0,
    )


def _rows(system) -> int:
    return len(system.inequalities) + len(system.equalities)


def _note_feasible(args, kwargs, result):
    return {"rows": _rows(args[0]), "hit": result is not None, "bits": _point_bits(result)}


def _note_optimize(args, kwargs, result):
    return {"rows": _rows(args[0]), "hit": result.is_optimal, "bits": _point_bits(result.point)}


def _note_build(args, kwargs, result):
    return dict(Counter(cell.dim for cell in result.cells.values()))


def _note_refine(args, kwargs, result):
    return {"base": len(args[0].cells), "refined": len(result.cells)}


def _note_topology(args, kwargs, result):
    count = len(result.yes) + len(result.boundary) + len(result.no)
    return {"components": count, "refined": len(result.complex.cells)}


# (defining module, function, span name, note on (args, kwargs, result))
LAYERS = (
    ("relugeom.cli", "main", "cli", None),
    ("relugeom.harness", "run_trial", "harness", None),
    ("relugeom.transversality", "analyze_network", "transversality", None),
    ("relugeom.transversality", "nontransversal_thresholds", "transversality", None),
    ("relugeom.network", "classify_layers", "generic", None),
    ("relugeom.complexes", "build_complex", "build", _note_build),
    ("relugeom.complexes", "refine_by_threshold", "refine", _note_refine),
    ("relugeom.complexes", "cell_bounded", "bounded", lambda a, k, r: bool(r)),
    ("relugeom.complexes", "complex_to_json", "export", None),
    ("relugeom.topology", "decision_topology", "components", _note_topology),
    ("relugeom.topology", "oriented_skeleton", "skeleton", lambda a, k, r: len(r.edges)),
    ("relugeom.svg", "render_svg", "svg", lambda a, k, r: len(r)),
    ("relugeom.lp", "feasible_point", "lp", _note_feasible),
    ("relugeom.lp", "lp_optimize", "lp", _note_optimize),
)


class Tracer:
    """Records spans as lists [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "relugeom"]
        for module_name, attr, name, note in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, note]) + "\n")


class SpanStats:
    """Totals, self times and notes per span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(spans):
            self.self_time[name] += end - start - child_time[index]
            if not self._inside(parent, name):
                self.total[name] += end - start

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def notes(self, name: str) -> list:
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def lp_by_caller(self) -> dict[str | None, list]:
        """LP notes grouped by the name of the span that made the call."""
        out: dict[str | None, list] = {}
        for name, _, _, parent, note in self.spans:
            if name == "lp" and note is not None:
                caller = self.spans[parent][0] if parent >= 0 else None
                out.setdefault(caller, []).append(note)
        return out


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    for suffix, unit in (("ms_per_solve", "ms"), ("rows_mean", "rows"), ("bits_max", "bits"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the build.layer<k> and
    trace.overhead_ratio metrics are added by the caller)."""
    st = SpanStats(spans)
    lp_notes = st.notes("lp")
    by_caller = st.lp_by_caller()
    build_lps = by_caller.get("build", [])
    cells_by_dim: Counter = Counter()
    for note in st.notes("build"):
        cells_by_dim.update(note)
    refine = st.notes("refine")
    refine_base = sum(n["base"] for n in refine)
    refine_cuts = sum((n["refined"] - n["base"]) // 2 for n in refine)
    bounded = st.notes("bounded")
    topo = st.notes("components")
    out = {
        "lp.solves": len(lp_notes),
        "lp.self_s": st.self_time["lp"],
        "lp.ms_per_solve": 1000 * _ratio(st.self_time["lp"], len(lp_notes)),
        "lp.rows_mean": _ratio(sum(n["rows"] for n in lp_notes), len(lp_notes)),
        "lp.point_bits_max": max((n["bits"] for n in lp_notes), default=0),
        "build.s": st.total["build"],
        "build.self_s": st.self_time["build"],
        "build.lp_solves": len(build_lps),
        "build.lp_hit_ratio": _ratio(sum(n["hit"] for n in build_lps), len(build_lps)),
    }
    for dim in range(4):
        out[f"build.cells.d{dim}"] = cells_by_dim[dim]
    out.update({
        "refine.s": st.total["refine"],
        "refine.lp_solves": len(by_caller.get("refine", [])),
        "refine.cut_ratio": _ratio(refine_cuts, refine_base),
        "bounded.s": st.total["bounded"],
        "bounded.checks": len(bounded),
        "bounded.lp_solves": len(by_caller.get("bounded", [])),
        "bounded.true_ratio": _ratio(sum(bounded), len(bounded)),
        "components.self_s": st.self_time["components"],
        "components.count": sum(n["components"] for n in topo),
        "refined.cells": sum(n["refined"] for n in topo),
        "skeleton.s": st.total["skeleton"],
        "skeleton.edges": sum(st.notes("skeleton")),
        "transversality.s": st.self_time["transversality"],
        "generic.s": st.total["generic"],
        "export.self_s": st.self_time["export"],
        "svg.self_s": st.self_time["svg"],
        "svg.bytes": sum(st.notes("svg")),
        "harness.self_s": st.self_time["harness"],
        "cli.self_s": st.self_time["cli"],
    })
    return out


# The deepest workload net, johnson-deep's (3,3,1,1), has two hidden layers.
HIDDEN_LAYERS = 2


def hidden_layer_metrics(networks) -> dict[str, float]:
    """Per hidden layer k: the cells of build_complex(net, through_layers=k),
    and the LP solves and seconds that layer k adds over layer k - 1,
    summed over the networks."""
    from relugeom import complexes

    build = complexes.build_complex
    out: dict[str, float] = {}
    for k in range(1, HIDDEN_LAYERS + 1):
        out.update({f"build.layer{k}.cells": 0, f"build.layer{k}.lp_solves": 0, f"build.layer{k}.s": 0.0})
    tracer = Tracer()
    tracer.install()
    try:
        for net in networks:
            prev_lps, prev_s = 0, 0.0
            for k in range(1, min(net.hidden_count, HIDDEN_LAYERS) + 1):
                first = len(tracer.spans)
                start = time.perf_counter()
                cpx = build(net, through_layers=k)
                seconds = time.perf_counter() - start
                lps = sum(1 for span in tracer.spans[first:] if span[0] == "lp")
                out[f"build.layer{k}.cells"] += len(cpx.cells)
                out[f"build.layer{k}.lp_solves"] += lps - prev_lps
                out[f"build.layer{k}.s"] += seconds - prev_s
                prev_lps, prev_s = lps, seconds
    finally:
        tracer.uninstall()
    return out
