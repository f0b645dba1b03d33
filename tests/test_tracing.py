"""The benchmark's span tracer still finds every knapsack, scheduling and
profile site.

`solverbench/tracing.py` replaces functions at the names they are looked
up by (module globals and adapter methods), so a refactor that renames a
function or changes where a caller looks it up breaks `run.py --trace 1`.
These tests install the tracer, run one tiny unrelated, uniform and
identical solve, or one knapsack instance solved the way the benchmark
runs it (`KnapsackAdapter` under `engine.run`) and through
`algorithms.solve` (which reaches `engine.run` by `knapsack.run_knapsack`),
and check that every wrapped site recorded spans, from each lookup site
where there are several; uninstalling must put the original functions
back.
"""
import sys
from collections import Counter
from pathlib import Path

from bnbapprox import engine
from bnbapprox.algorithms import solve
from bnbapprox.engine import Criterion, Selection, Strategy
from bnbapprox.instances import generate
from bnbapprox.knapsack import KnapsackAdapter
from bnbapprox.profiles import solve_identical, solve_uniform
from bnbapprox.rational import rat
from bnbapprox.scheduling import solve_unrelated

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "solverbench"))

import tracing  # noqa: E402

SCHEDULING_SITES = (
    "engine.run",
    "scheduling.bound",
    "scheduling.branch",
    "profiles.bound",
    "profiles.branch",
    "profiles.admit",
    "profiles.normalize",
    "profiles.make_longest_fractional",
    "scheduling.min_feasible_T",
    "scheduling.feasible_point",
    "scheduling.build_load_lp",
    "scheduling.round_vertex",
    "lp.solve_vertex",
    "lp.pivot",
)


def _traced(solves) -> tuple[Counter, Counter]:
    """Run `solves()` under the tracer; the spans' names and their (name,
    parent's name) pairs, counted."""
    originals = {
        (owner, attr): owner.__dict__[attr]
        for _, _, sites in tracing._sites()
        for owner, attr in sites
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
        solves()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())

    spans = tracer.spans
    calls = Counter(span[tracing.NAME] for span in spans)
    parents = Counter(
        (span[tracing.NAME], spans[span[tracing.PARENT]][tracing.NAME])
        for span in spans
        if span[tracing.PARENT] >= 0
    )
    return calls, parents


def test_tracer_covers_the_scheduling_sites():
    def solves():
        # uniform seed 720004 transforms a vertex (make_longest_fractional)
        solve_unrelated(generate("scheduling-unrelated", 6, 3, 5), rat(1, 100))
        solve_uniform(generate("scheduling-uniform", 8, 3, 720004), rat(1, 10))
        solve_identical(generate("scheduling-identical", 8, 3, 10), rat(1, 10))

    calls, parents = _traced(solves)
    assert all(calls[name] > 0 for name in SCHEDULING_SITES), calls
    # the sites looked up from two modules: the calls through each lookup
    for name, parent in (
        ("scheduling.min_feasible_T", "scheduling.bound"),
        ("scheduling.min_feasible_T", "profiles.bound"),
        ("scheduling.min_feasible_T", "profiles.normalize"),
        ("scheduling.round_vertex", "scheduling.bound"),
        ("scheduling.round_vertex", "profiles.bound"),
        ("scheduling.feasible_point", "scheduling.min_feasible_T"),
        ("scheduling.build_load_lp", "scheduling.feasible_point"),
        ("lp.solve_vertex", "scheduling.feasible_point"),
        ("lp.pivot", "lp.solve_vertex"),
    ):
        assert parents[(name, parent)] > 0, (name, parent)


def test_tracer_covers_the_knapsack_sites():
    # the same instance run the benchmark's way and through algorithms.solve,
    # whose run_knapsack looks engine.run up through the module: both runs
    # record an engine.run span, and every bound lies under one
    def solves():
        inst = generate("knapsack", 20, 2, 700000)
        adapter = KnapsackAdapter(inst, branching="CE")
        engine.run(adapter, Selection.BEST_FIRST, Criterion("ratio-alpha", rat(99, 100)),
                   node_limit=2000)
        solve(inst, "knapsack", rat(99, 100),
              Strategy(Selection.BEST_FIRST, "CE", "Surrogate", "Dantzig"), 2000)

    calls, parents = _traced(solves)
    for name, parent in (
        ("knapsack.bound", "engine.run"),
        ("knapsack.branch", "engine.run"),
        ("knapsack.dantzig_solve", "knapsack.bound"),
    ):
        assert parents[(name, parent)] > 0, (name, parent, calls)
    assert calls["knapsack.bound"] == calls["knapsack.dantzig_solve"] > calls["knapsack.branch"]
    assert calls["engine.run"] == 2, calls
    assert parents[("knapsack.bound", "engine.run")] == calls["knapsack.bound"], parents
