"""Span tracing around the public calls of each solver layer.

The tracer replaces a function at every name it is looked up by (a module
global or a class attribute) with a wrapper that records one span per
call: name, start, end, parent span and the solve it belongs to. Spans stay
in memory until the run ends. ``uninstall`` puts the original functions
back, so untraced rounds run the program's own code with no wrapper.

The lookup sites matter: ``scheduling`` binds ``solve_vertex`` at import,
``profiles`` binds ``min_feasible_T`` and ``round_vertex`` at import, and
``lp.solve_vertex`` calls the module-global ``pivot``; patching only the
defining module would miss those calls.
"""
from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable

# span tuple fields
NAME, START, END, PARENT, SOLVE, TAG = range(6)


def _sites():
    """(span name, tag function or None, [(owner, attribute), ...])."""
    from bnbapprox import engine, instances, knapsack, lp, oracle, profiles, scheduling

    def none_result(value):
        return value is None

    def rejected(value):
        return value is False

    return [
        ("instances.generate", None, [(instances, "generate")]),
        ("oracle.exact_opt", None, [(oracle, "exact_opt")]),
        ("engine.run", None, [(engine, "run"), (scheduling, "run"), (profiles, "run")]),
        ("knapsack.bound", None, [(knapsack.KnapsackAdapter, "bound")]),
        ("scheduling.bound", None, [(scheduling.UnrelatedAdapter, "bound")]),
        ("profiles.bound", None, [(profiles.ProfileAdapter, "bound")]),
        ("knapsack.branch", None, [(knapsack.KnapsackAdapter, "branch")]),
        ("scheduling.branch", None, [(scheduling.UnrelatedAdapter, "branch")]),
        ("profiles.branch", None, [(profiles.ProfileAdapter, "branch")]),
        ("profiles.admit", rejected, [(profiles.ProfileAdapter, "admit")]),
        ("knapsack.dantzig_solve", None, [(knapsack, "dantzig_solve")]),
        ("profiles.normalize", None, [(profiles, "normalize")]),
        ("profiles.make_longest_fractional", None, [(profiles, "make_longest_fractional")]),
        ("scheduling.min_feasible_T", None,
         [(scheduling, "min_feasible_T"), (profiles, "min_feasible_T")]),
        ("scheduling.feasible_point", none_result, [(scheduling, "feasible_point")]),
        ("scheduling.build_load_lp", None, [(scheduling, "build_load_lp")]),
        ("scheduling.round_vertex", None,
         [(scheduling, "round_vertex"), (profiles, "round_vertex")]),
        ("lp.solve_vertex", None, [(lp, "solve_vertex"), (scheduling, "solve_vertex")]),
        ("lp.pivot", None, [(lp, "pivot")]),
    ]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.solve: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, tag: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            value = None
            start = clock()
            try:
                value = fn(*args, **kwargs)
                return value
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.solve,
                                tag(value) if tag is not None else None)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, tag, sites in _sites():
            owner, attr = sites[0]
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, tag)
            for owner, attr in sites:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function it wraps")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """One JSON line per span, in call order; times in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": span[NAME], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT], "solve": span[SOLVE],
                    "tag": span[TAG],
                }) + "\n")


def layer_metrics(spans: list[tuple], nodes_explored: int, nodes_processed: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios from a finished run's spans.

    Self time is a span's duration minus the time its direct child spans
    cover; spans are properly nested because a solve is single-threaded.
    A layer that did not run reports 0, and so does a ratio whose base is 0.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    tagged: dict[str, int] = {}
    for sid, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[sid]
        durations.setdefault(name, []).append(dur)
        if s[TAG]:
            tagged[name] = tagged.get(name, 0) + 1

    def n_calls(name):
        return calls.get(name, 0)

    def self_s(name):
        return self_ns.get(name, 0) / 1e9

    def total_s(name):
        return total_ns.get(name, 0) / 1e9

    def us_p50(name):
        d = durations.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    bound_names = ("knapsack.bound", "scheduling.bound", "profiles.bound")
    is_bound = [s[NAME] in bound_names for s in spans]

    def under_bound(name):
        """Calls of `name` made (at any depth) inside an adapter's bound."""
        count = 0
        for s in spans:
            if s[NAME] != name:
                continue
            parent = s[PARENT]
            while parent >= 0 and not is_bound[parent]:
                parent = spans[parent][PARENT]
            count += parent >= 0
        return count

    bound_calls = sum(n_calls(b) for b in bound_names)
    bound_s = sum(total_s(b) for b in bound_names)
    engine_self = self_s("engine.run")
    return {
        "engine.self_s": engine_self,
        "engine.self_us_per_node": ratio(engine_self * 1e6, nodes_explored),
        "engine.nodes_processed": nodes_processed,
        "bound.calls": bound_calls,
        "bound.ms_per_node": ratio(bound_s * 1e3, bound_calls),
        "bound.lp_solves_per_node": ratio(under_bound("lp.solve_vertex"), bound_calls),
        "bound.bisection_steps_per_node": ratio(
            under_bound("scheduling.feasible_point"), bound_calls
        ),
        "scheduling.min_feasible_T.self_s": self_s("scheduling.min_feasible_T"),
        "scheduling.build_load_lp.self_s": self_s("scheduling.build_load_lp"),
        "scheduling.feasible_point.calls": n_calls("scheduling.feasible_point"),
        "scheduling.feasible_point.infeasible_ratio": ratio(
            tagged.get("scheduling.feasible_point", 0), n_calls("scheduling.feasible_point")
        ),
        "scheduling.round_vertex.self_s": self_s("scheduling.round_vertex"),
        "lp.solve_vertex.calls": n_calls("lp.solve_vertex"),
        "lp.solve_vertex.self_s": self_s("lp.solve_vertex"),
        "lp.solve_vertex.us_p50": us_p50("lp.solve_vertex"),
        "lp.pivot.calls": n_calls("lp.pivot"),
        "lp.pivot.self_s": self_s("lp.pivot"),
        "lp.pivots_per_solve": ratio(n_calls("lp.pivot"), n_calls("lp.solve_vertex")),
        "knapsack.dantzig_solve.calls": n_calls("knapsack.dantzig_solve"),
        "knapsack.dantzig_solve.self_s": self_s("knapsack.dantzig_solve"),
        "knapsack.dantzig_solve.us_p50": us_p50("knapsack.dantzig_solve"),
        "knapsack.branch.self_s": self_s("knapsack.branch"),
        "profiles.normalize.self_s": self_s("profiles.normalize"),
        "profiles.make_longest_fractional.calls": n_calls("profiles.make_longest_fractional"),
        "profiles.make_longest_fractional.self_s": self_s("profiles.make_longest_fractional"),
        "profiles.admit.calls": n_calls("profiles.admit"),
        "profiles.admit.rejected_ratio": ratio(
            tagged.get("profiles.admit", 0), n_calls("profiles.admit")
        ),
        "instances.generate.s": total_s("instances.generate"),
        "oracle.exact_opt.s": total_s("oracle.exact_opt"),
    }
