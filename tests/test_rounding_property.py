"""The rounding guarantees against brute force and the exact LP oracle.

Scheduling: BM rounding in `round_vertex` runs a pruned depth-first search
over the placements of the fractional jobs. `reference_best_matching` below
is the exhaustive scan it replaced: every placement in `itertools.product`
order, the first strict minimum kept. The two must agree on assignment,
its key order and makespan on node states recorded from AS and BM runs on
integer, rational and tie-heavy instances. Hypothesis then draws tiny
node states from the instances of test_scheduling_property.py (unrelated,
uniform and identical; rational data, equal times, overheads, coarse node
grids) with some jobs fixed, and checks at the node's minimal guess T:

- LST-match rounding places every job with a makespan of at most 2T;
- BM's makespan is the brute-force best over all placements, and at most
  that of AS and of LST-match.

Knapsack: at every node of a run small enough for vertex enumeration, the
Dantzig rounding's integer profit times m+1 is at least the optimum of the
node's per-knapsack LP relaxation, found by
`lp_oracle.lp_optimum_by_enumeration`, on the tiny adversarial instances of
test_knapsack_property.py. All tests here carry the `guarantee` marker, so
they run again in the one `python -O` pass (test_no_asserts.py), since the
guarantees must not rest on asserts.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox import knapsack, scheduling
from bnbapprox.algorithms import solve
from bnbapprox.engine import Selection, valid_strategies
from bnbapprox.instances import UNRELATED, KnapsackInstance, SchedulingInstance, generate
from bnbapprox.rng import SplitMix64
from bnbapprox.scheduling import (
    ROUNDING_AS,
    ROUNDING_BM,
    ROUNDING_LST,
    SchedGrid,
    min_feasible_T,
    round_vertex,
    solve_unrelated,
)
from guarantees import mask_items
from lp_oracle import knapsack_lp, lp_optimum_by_enumeration
from test_knapsack_property import _instances as knapsack_instances
from test_scheduling_property import _instances as scheduling_instances

pytestmark = pytest.mark.guarantee

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _makespan(P, t, assignment):
    loads = list(t)
    for j, i in assignment.items():
        loads[i] += P[j][i]
    return max(loads)


def reference_best_matching(point, P, t):
    """Exhaustive BM: every placement of the fractional jobs in
    itertools.product order; the first with the least makespan wins."""
    best = None
    for combo in itertools.product(range(len(t)), repeat=len(point.fractional_jobs)):
        cand = dict(point.integral_assignment)
        cand.update(zip(point.fractional_jobs, combo))
        makespan = _makespan(P, t, cand)
        if best is None or makespan < best[1]:
            best = cand, makespan
    return best


def _assert_bm_matches_reference(point, P, t):
    got, makespan = round_vertex(point, P, t, ROUNDING_BM)
    want, want_makespan = reference_best_matching(point, P, t)
    assert list(got.items()) == list(want.items())
    assert makespan == want_makespan == _makespan(P, t, got)
    return makespan


# --- BM against the exhaustive reference on recorded node states -----------

def _rational_instance(rng, n, m):
    rows = tuple(tuple(Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(m))
                 for _ in range(n))
    return SchedulingInstance(UNRELATED, rows, tuple(Fraction(rng.randint(0, 2), 3)
                                                     for _ in range(m)))


def _tie_instance(rng, n, m):
    # times from {2, 3}: many placements share a makespan
    rows = tuple(tuple(Fraction(rng.randint(2, 3)) for _ in range(m)) for _ in range(n))
    return SchedulingInstance(UNRELATED, rows, (Fraction(0),) * m)


def test_bm_matches_the_exhaustive_reference_on_recorded_nodes(monkeypatch):
    recorded = []
    kernel = scheduling.round_vertex

    def recording(point, P, t, mode):
        recorded.append((point, P, t))
        return kernel(point, P, t, mode)

    monkeypatch.setattr(scheduling, "round_vertex", recording)
    rng = SplitMix64(1313)
    instances = []
    for k in range(6):
        n, m = 6 + k % 3, 2 + k % 2
        instances.append(generate(UNRELATED, n, m, 740000 + k))
        instances.append(_rational_instance(rng, n, m))
        instances.append(_tie_instance(rng, n, m))
    for inst in instances:
        for rounding in (ROUNDING_AS, ROUNDING_BM):
            for bounding in ("BS", "LR"):
                solve_unrelated(inst, Fraction(1, 100), Selection.DFS, bounding, rounding,
                                node_limit=60)
    monkeypatch.undo()
    fractional = [r for r in recorded if r[0].fractional_jobs]
    assert len(fractional) > 300
    assert max(len(point.fractional_jobs) for point, _, _ in fractional) >= 3
    floors = 0
    for point, P, t in fractional:
        makespan = _assert_bm_matches_reference(point, P, t)
        floors += makespan == _makespan(P, t, point.integral_assignment)
    assert floors > 10  # the stop at the largest fixed load is exercised


# --- hypothesis: scheduling node states -----------------------------------

@st.composite
def _node_states(draw):
    """(case, grid, node overheads, unfixed jobs, restrict): a tiny instance
    of the value property's cases with a prefix of a job order fixed, each
    job on a drawn machine (the coarse-grid case's fillers then leave node
    steps g > 1)."""
    case, inst = draw(scheduling_instances())
    grid = SchedGrid.build(inst)
    order = draw(st.permutations(range(inst.n)))
    fixed = draw(st.integers(min_value=0, max_value=inst.n - 1))
    t = list(grid.t)
    for j in order[:fixed]:
        i = draw(st.integers(min_value=0, max_value=inst.m - 1))
        t[i] += grid.P[j][i]
    return case, grid, tuple(t), tuple(sorted(order[fixed:])), draw(st.booleans())


@PROPERTY
@given(_node_states())
def test_rounding_bounds_on_node_states(drawn):
    _, grid, t, jobs, restrict = drawn
    point = min_feasible_T(grid, t, jobs, restrict)
    P = grid.P
    bm = _assert_bm_matches_reference(point, P, t)
    as_assignment, as_makespan = round_vertex(point, P, t, ROUNDING_AS)
    assert sorted(as_assignment) == list(jobs)
    assert bm <= as_makespan == _makespan(P, t, as_assignment)
    if restrict:  # the 2T bound rests on the eligibility filter p_ji <= T
        lst, lst_makespan = round_vertex(point, P, t, ROUNDING_LST)
        assert sorted(lst) == list(jobs)
        assert lst_makespan == _makespan(P, t, lst) <= 2 * point.T
        assert bm <= lst_makespan


# --- hypothesis: the knapsack (m+1) rounding inequality -----------------------

# vertex enumeration of a node's LP solves C(cols, rows) square systems; up
# to 6 item-knapsack pairs that is at most 1716
LP_ORACLE_PAIRS = 6


@PROPERTY
@given(knapsack_instances())
def test_knapsack_rounding_against_the_lp_oracle(drawn):
    _, inst = drawn
    nodes = {}  # the strategies share sub-problems: check each once
    kernel = knapsack.dantzig_solve

    def recording(grid, live, caps):
        sol = kernel(grid, live, caps)
        nodes[mask_items(grid, live), tuple(caps)] = grid, sol
        return sol

    knapsack.dantzig_solve = recording
    try:
        for strategy in valid_strategies("knapsack"):
            solve(inst, "knapsack", Fraction(99, 100), strategy)
    finally:
        knapsack.dantzig_solve = kernel
    assert nodes
    for (items, caps), (grid, sol) in nodes.items():
        if not items or len(items) * len(caps) > LP_ORACLE_PAIRS:
            continue
        # the node's sub-problem on the grid: profits in units of 1/p_scale
        sub = KnapsackInstance(tuple(Fraction(grid.weights[j]) for j in items),
                               tuple(Fraction(grid.profits[j]) for j in items),
                               tuple(Fraction(c) for c in caps))
        lp_opt = lp_optimum_by_enumeration(*knapsack_lp(sub))
        assert (len(caps) + 1) * sol.int_profit >= lp_opt


def test_rounding_properties_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the guarantees must hold there too
    assert optimize_pass.not_passed("test_rounding_property.py") == [], optimize_pass.out
