"""The benchmark's span tracer still finds every scheduling and profile site.

`solverbench/tracing.py` replaces functions at the names they are looked
up by (module globals and adapter methods), so a refactor that renames a
function or changes where a caller looks it up breaks `run.py --trace 1`.
This test installs the tracer, runs one tiny unrelated, uniform and
identical solve, and checks that every wrapped site recorded spans, from
each lookup site where there are several; uninstalling must put the
original functions back.
"""
import sys
from collections import Counter
from pathlib import Path

from bnbapprox.instances import generate
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


def test_tracer_covers_the_scheduling_sites():
    originals = {
        (owner, attr): owner.__dict__[attr]
        for _, _, sites in tracing._sites()
        for owner, attr in sites
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in originals.items())
        # uniform seed 720004 transforms a vertex (make_longest_fractional)
        solve_unrelated(generate("scheduling-unrelated", 6, 3, 5), rat(1, 100))
        solve_uniform(generate("scheduling-uniform", 8, 3, 720004), rat(1, 10))
        solve_identical(generate("scheduling-identical", 8, 3, 10), rat(1, 10))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())

    spans = tracer.spans
    calls = Counter(span[tracing.NAME] for span in spans)
    assert all(calls[name] > 0 for name in SCHEDULING_SITES), calls
    # the sites looked up from two modules: the calls through each lookup
    parents = Counter(
        (span[tracing.NAME], spans[span[tracing.PARENT]][tracing.NAME])
        for span in spans
        if span[tracing.PARENT] >= 0
    )
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
