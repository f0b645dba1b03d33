import dataclasses
import math
import random

import pytest

from bnbapprox import knapsack
from bnbapprox.engine import AdapterContractError, Criterion, Selection, chain_solution, run
from bnbapprox.engine import valid_strategies
from bnbapprox.instances import KnapsackInstance, generate
from bnbapprox.knapsack import (
    KnapsackAdapter,
    KnapsackGrid,
    branch_children,
    dantzig_solve,
    pick_pivot,
)
from bnbapprox.oracle import exact_opt
from bnbapprox.profiles import solve_identical, solve_uniform
from bnbapprox.rational import rat
from bnbapprox.scheduling import solve_unrelated
from guarantees import (
    assignment_feasible,
    assignment_value,
    c_alpha_m,
    dantzig_whole,
    int_value,
    sub_value,
)
from lp_oracle import knapsack_lp, lp_optimum_by_enumeration, merged_knapsack_lp_optimum

WORKED = KnapsackInstance(
    weights=(rat(6), rat(5), rat(4)),
    profits=(rat(60), rat(40), rat(20)),
    capacities=(rat(5), rat(5)),
)


def test_dantzig_worked_example():
    """Unit profits 10, 8, 5, so the order is 0, 1, 2 on the line [0, 5)
    [5, 10). Item 0 covers [0, 6): 5/6 in knapsack 0 and 1/6 in knapsack 1.
    Item 1 covers [6, 11): 4/5 in knapsack 1, and the line ends inside it.
    The relaxation is 60 + 40 * 4/5 = 92. Item 0 crosses the first boundary
    and item 1 the second, so both are critical; item 0 is the most
    profitable.

    No item lies wholly inside one segment, so the floor is empty and its
    residual caps are (5, 5). First fit in unit-profit order skips item 0
    (w=6 fits neither), puts item 1 (w=5) into knapsack 0 and item 2 (w=4)
    into knapsack 1: profit 60. The critical candidates are item 0, which
    fits nowhere, and item 1 alone in knapsack 0 (40). The completed floor
    wins with 60; the paper's rounding (the empty floor, or item 1 alone)
    would stop at 40."""
    grid, sol = dantzig_whole(WORKED)
    assert sol.first_split == 0 and pick_pivot(sol, "PPW") == 0
    assert sol.line_profit == 60 and sol.split == (1, 4)
    assert sub_value(grid, sol) == 92
    assert sol.best_critical == 0
    assert sol.int_assignment == {1: 0, 2: 1}
    assert int_value(grid, sol) == 60
    assert (WORKED.m + 1) * int_value(grid, sol) >= sub_value(grid, sol)


def test_dantzig_matches_lp_enumeration_on_worked_instance():
    sub = sub_value(*dantzig_whole(WORKED))
    assert sub == merged_knapsack_lp_optimum(WORKED)
    lp, objective = knapsack_lp(WORKED)
    assert sub == lp_optimum_by_enumeration(lp, objective)


def test_dantzig_single_item_integral():
    inst = KnapsackInstance((rat(3),), (rat(10),), (rat(5),))
    grid, sol = dantzig_whole(inst)
    assert not sol.fractional
    assert sol.best_critical is None
    assert sol.int_assignment == {0: 0}
    assert int_value(grid, sol) == sub_value(grid, sol) == 10


def test_dantzig_item_wider_than_merge():
    # weight exceeds even the merged capacity: partial fractional fill,
    # floor is empty, no candidate fits anywhere -> integer value 0
    inst = KnapsackInstance((rat(12),), (rat(36),), (rat(5), (rat(5))))
    grid, sol = dantzig_whole(inst)
    assert sub_value(grid, sol) == 36 * rat(10, 12)
    assert sol.best_critical == 0
    assert sol.int_assignment == {} and int_value(grid, sol) == 0


ZERO_WEIGHT = KnapsackInstance((rat(0), rat(4)), (rat(7), rat(9)), (rat(4),))


def test_dantzig_zero_weight_items_preassigned():
    # the kernel gets the positive weights; the zero-weight item sits in the
    # root's fixed part, on knapsack 0 with its profit
    grid = KnapsackGrid.build(ZERO_WEIGHT)
    sol = dantzig_solve(grid, grid.mask((1,)), grid.capacities)
    assert int_value(grid, sol) == 9 and sol.int_assignment == {1: 0}
    adapter = KnapsackAdapter(ZERO_WEIGHT)
    root = adapter.root_payload()
    assert root.alive == grid.mask((1,)) and root.fixed_profit == 7
    assert root.chain == (0, 0, None) and chain_solution(root.chain, {}) == {0: 0}
    info = adapter.bound(root)
    assert info.lb == info.ub == 16 * adapter.bound_scale
    assert chain_solution(*info.solution) == {0: 0, 1: 0}


@pytest.mark.guarantee
def test_dantzig_rejects_zero_weight_items():
    # a zero weight sorts first in the order, so the kernel's one test sees it
    grid = KnapsackGrid.build(ZERO_WEIGHT)
    for items in ((0, 1), (1, 0), (0,)):
        with pytest.raises(ValueError, match="zero weight"):
            dantzig_solve(grid, grid.mask(items), grid.capacities)


@pytest.mark.guarantee
def test_dantzig_rejects_a_mask_with_a_zero_weight_bit():
    # zero weights hold the lowest bits: every mask with one of them set
    # raises and names the first, and every mask without them solves
    inst = KnapsackInstance((rat(3), rat(0), rat(5), rat(0), rat(0)),
                            tuple(rat(p) for p in (9, 4, 10, 6, 1)), (rat(6), rat(4)))
    grid = KnapsackGrid.build(inst)
    zeros = (1, 3, 4)
    assert grid.order[:3] == zeros and grid.zero_mask == grid.mask(zeros) == 0b111
    for mask in range(1, 1 << inst.n):
        items = [j for j in range(inst.n) if mask >> grid.rank[j] & 1]
        assert grid.mask(items) == mask
        if mask & grid.zero_mask:
            first = min(j for j in items if j in zeros)
            with pytest.raises(ValueError, match=f"item {first} has zero weight"):
                dantzig_solve(grid, mask, grid.capacities)
        else:
            assert dantzig_solve(grid, mask, grid.capacities).first_live == items[0]


def test_adapter_rejects_an_unknown_branching_rule():
    with pytest.raises(ValueError, match="unknown branching rule 'bogus'"):
        KnapsackAdapter(WORKED, branching="bogus")


def test_unit_profit_order_tie_by_index():
    inst = KnapsackInstance((rat(2), rat(4), rat(2)), (rat(6), rat(12), rat(5)), (rat(3),))
    # ratios 3, 3, 5/2: tie between 0 and 1 by id
    assert KnapsackGrid.build(inst).order == (0, 1, 2)


def test_branch_children_worked_example():
    grid, sol = dantzig_whole(WORKED)
    pivot = pick_pivot(sol, "CE")
    live = grid.mask((0, 1, 2))
    state = knapsack._NodeState(live, grid.capacities, 0, None, pivot=pivot, usable=live)
    children = branch_children(grid, state)
    # pivot j* = item 0 (w=6): both inclusion children infeasible, only the
    # rightmost (exclusion) child survives
    assert pivot == 0
    assert len(children) == 1
    (child,) = children
    assert child.alive == grid.mask((1, 2)) and child.caps == (5, 5)
    assert child.fixed_profit == 0 and child.chain is None


def test_branch_children_fix_the_pivot_where_it_fits():
    # pivot item 1 (w=4) fits knapsack 1 only; item 0 is already fixed in 0
    inst = KnapsackInstance((rat(3), rat(4), rat(2)), (rat(9), rat(10), rat(1)),
                            (rat(3), rat(5)))
    adapter = KnapsackAdapter(inst, branching="CE")
    grid = adapter.grid
    caps = (0, 5)
    root_chain = (0, 0, None)
    state = knapsack._NodeState(grid.mask((1, 2)), caps, 9, root_chain)
    assert not adapter.bound(state).leaf
    assert state.pivot == pick_pivot(dantzig_solve(grid, grid.mask((1, 2)), caps), "CE") == 1
    # the inclusion child, then the exclusion child (the right turn)
    inc, exc = branch_children(grid, state)
    assert inc.alive == exc.alive == grid.mask((2,))
    assert inc.caps == (0, 1) and inc.fixed_profit == 19 and inc.chain == (1, 1, root_chain)
    assert chain_solution(inc.chain, {}) == {0: 0, 1: 1}
    assert exc.caps == (0, 5) and exc.fixed_profit == 9 and exc.chain is root_chain
    assert chain_solution(exc.chain, {}) == {0: 0}


def test_branch_rules_can_disagree():
    # K branches on the best unfixed ratio even when that item is integral
    inst = KnapsackInstance(
        weights=(rat(2), rat(8), rat(8)),
        profits=(rat(20), rat(40), rat(24)),
        capacities=(rat(9),),
    )
    _, sol = dantzig_whole(inst)
    # ratios: 10, 5, 3; item0 packed fully, item1 critical/fractional
    assert pick_pivot(sol, "CE") == 1
    assert pick_pivot(sol, "PPW") == 1
    assert pick_pivot(sol, "K") == 0


def test_ppw_and_ce_differ_on_searched_instance():
    rnd = random.Random(5)
    found = False
    for _ in range(400):
        n, m = rnd.randint(3, 7), rnd.randint(2, 3)
        inst = KnapsackInstance(
            weights=tuple(rat(rnd.randint(1, 30)) for _ in range(n)),
            profits=tuple(rat(rnd.randint(1, 30)) for _ in range(n)),
            capacities=tuple(rat(rnd.randint(5, 40)) for _ in range(m)),
        )
        _, sol = dantzig_whole(inst)
        if not sol.fractional:
            continue
        if pick_pivot(sol, "CE") != pick_pivot(sol, "PPW"):
            found = True
            break
    assert found, "never found CE != PPW; search too narrow"


def test_single_knapsack_child_pivots_straddle_parent_pivot():
    # strict unit-profit order: both children's pivots bracket the parent's
    rnd = random.Random(31)
    checked = 0
    while checked < 100:
        n = rnd.randint(3, 8)
        weights = tuple(rat(rnd.randint(1, 30)) for _ in range(n))
        profits = tuple(rat(rnd.randint(1, 90)) for _ in range(n))
        ratios = [profits[j] / weights[j] for j in range(n)]
        if len(set(ratios)) != n:
            continue
        cap = rat(rnd.randint(5, 60))
        inst = KnapsackInstance(weights, profits, (cap,))
        grid, sol = dantzig_whole(inst)
        pos = {j: k for k, j in enumerate(grid.order)}
        if not sol.fractional:
            continue
        pivot = pick_pivot(sol, "CE")
        (c,) = grid.capacities
        w = grid.weights[pivot]
        if w > c:
            continue  # inclusion child infeasible
        rest = grid.mask(j for j in range(n) if j != pivot)
        inc = dantzig_solve(grid, rest, (c - w,))
        exc = dantzig_solve(grid, rest, (c,))
        if not inc.fractional or not exc.fractional:
            continue
        j1 = pick_pivot(inc, "CE")
        j2 = pick_pivot(exc, "CE")
        assert pos[j1] < pos[pivot] < pos[j2], (weights, profits, cap)
        checked += 1


def test_left_turn_constant():
    assert c_alpha_m(rat(1, 2), 1) == 1 + max(rat(1, 2) / rat(1, 4), rat(2) / rat(1, 2))
    assert c_alpha_m(rat(97, 100), 5) == rat(48509, 9)
    with pytest.raises(ValueError):
        c_alpha_m(rat(1), 2)


def _record_solutions(monkeypatch):
    """Record the grid and DantzigSolution of every bound the adapter computes."""
    kernel = knapsack.dantzig_solve
    solutions = []

    def recording(grid, live, caps):
        sol = kernel(grid, live, caps)
        solutions.append((grid, sol))
        return sol

    monkeypatch.setattr(knapsack, "dantzig_solve", recording)
    return solutions


def test_adapter_guarantee_and_turn_bound(monkeypatch):
    alpha = rat(9, 10)
    solutions = _record_solutions(monkeypatch)
    for seed in range(25):
        inst = generate("knapsack", 9, 2, seed)
        opt = exact_opt(inst).optimum
        solutions.clear()
        adapter = KnapsackAdapter(inst, branching="CE")
        result = run(adapter, Selection.BEST_FIRST, Criterion("ratio-alpha", alpha))
        assert assignment_feasible(inst, result.best_solution)
        assert assignment_value(inst, result.best_solution) == result.best_value
        assert result.best_value <= opt
        if result.termination == "ratio-met":
            assert result.best_value >= alpha * opt
        assert result.left_turn_max is not None
        assert result.left_turn_max <= c_alpha_m(alpha, inst.m)
        # rounding guarantees at every bounded node
        assert len(solutions) == result.nodes_explored
        for grid, sol in solutions:
            sub, rounded = sub_value(grid, sol), int_value(grid, sol)
            assert (inst.m + 1) * rounded >= sub
            if sol.best_critical is not None and sub > 0:
                gap = 1 - rounded / sub
                assert inst.profits[sol.best_critical] / sub >= min(
                    rat(1, inst.m + 1), gap / inst.m
                )


class _InsertRecorder(KnapsackAdapter):
    """The knapsack adapter, keeping every node the run inserts."""

    def __init__(self, inst, branching):
        super().__init__(inst, branching)
        self.inserted = []

    def on_insert(self, node):
        self.inserted.append(node)


@pytest.mark.guarantee
def test_left_turns_count_the_fixed_items():
    # every child but the last fixes the pivot into a knapsack, a left turn;
    # the last excludes it. So a node's left turns are the positive-weight
    # links of its chain: zero weights are fixed at the root, not by a turn
    zero = KnapsackInstance(
        (rat(0), rat(3), rat(4), rat(0), rat(5), rat(6), rat(2), rat(7), rat(4), rat(3)),
        (rat(5), rat(7), rat(9), rat(2), rat(8), rat(11), rat(3), rat(12), rat(6), rat(5)),
        (rat(8), rat(9)),
    )
    sizes = [(12, 2), (15, 3), (20, 2)]
    instances = [generate("knapsack", *sizes[k % 3], 4300 + k) for k in range(18)] + [zero]
    checked, most = 0, 0
    for inst in instances:
        for strategy in valid_strategies("knapsack"):
            adapter = _InsertRecorder(inst, strategy.branching)
            result = run(adapter, strategy.selection, Criterion("ratio-alpha", rat(999, 1000)),
                         node_limit=400)
            assert result.left_turn_max is not None
            for node in adapter.inserted:
                turns, chain = 0, node.payload.chain
                while chain is not None:
                    item, _, chain = chain
                    turns += inst.weights[item] > 0
                assert node.left_turns == turns, (inst, strategy, node.id)
                checked += 1
                most = max(most, turns)
    assert checked > 800 and most >= 3
    sched = generate("scheduling-identical", 5, 2, 4400)
    for out in (solve_unrelated(sched, rat(1, 10)), solve_uniform(sched, rat(1, 2)),
                solve_identical(sched, rat(1, 2))):
        assert out.result.left_turn_max is None


def test_adapter_rational_data_instance():
    # file-loaded instances may carry non-integer data; the whole pipeline
    # stays exact
    inst = KnapsackInstance(
        weights=(rat(3, 2), rat(5, 2), rat(7, 3)),
        profits=(rat(9, 2), rat(5), rat(14, 3)),
        capacities=(rat(4), rat(3, 2)),
    )
    opt = exact_opt(inst).optimum
    result = run(KnapsackAdapter(inst), Selection.BEST_FIRST,
                 Criterion("ratio-alpha", rat(99, 100)))
    assert assignment_feasible(inst, result.best_solution)
    if result.termination == "ratio-met":
        assert result.best_value >= rat(99, 100) * opt


def test_runs_are_deterministic():
    inst = generate("knapsack", 9, 3, 777)
    results = [
        run(KnapsackAdapter(inst), Selection.BEST_FIRST,
            Criterion("ratio-alpha", rat(97, 100)))
        for _ in range(3)
    ]
    assert all(r.to_json_dict() == results[0].to_json_dict() for r in results)
    assert all(r.best_solution == results[0].best_solution for r in results)


def test_adapter_nothing_fits_degenerate_instance():
    inst = KnapsackInstance((rat(10), rat(9)), (rat(5), rat(4)), (rat(2), rat(1)))
    result = run(KnapsackAdapter(inst), Selection.BEST_FIRST,
                 Criterion("ratio-alpha", rat(9, 10)))
    assert result.best_value == 0 and result.best_solution == {}
    assert result.termination == "ratio-met" and result.nodes_explored == 1


def test_adapter_terminates_at_root_on_worked_instance():
    # after dropping the item that fits nowhere the root is integral
    result = run(KnapsackAdapter(WORKED), Selection.BEST_FIRST,
                 Criterion("ratio-alpha", rat(1, 2)))
    assert result.termination == "ratio-met"
    assert result.nodes_explored == 1
    assert result.best_value == 60
    assert result.best_solution == {1: 0, 2: 1}


BROKEN = KnapsackInstance(
    weights=(rat(4), rat(6), rat(5), rat(1)),
    profits=(rat(40), rat(42), rat(30), rat(1)),
    capacities=(rat(7), rat(6)),
)
BROKEN_CRITICAL = 3  # profit 1, far below the relaxation's value / (m+1)


def _break_int_value(grid, sol, m):
    # the rounding loses everything: (m+1) * 0 < the relaxation's value
    return dataclasses.replace(sol, int_profit=0, int_assignment={})


def _break_best_critical(grid, sol, m):
    # the rounding meets (m+1), with the least integer profit that does
    # (BROKEN's profit grid is the integers), but the claimed best critical
    # item is too light for the critical-item bound
    rounded = math.ceil(sub_value(grid, sol) / (m + 1))
    return dataclasses.replace(sol, int_profit=rounded, best_critical=BROKEN_CRITICAL)


@pytest.mark.guarantee
@pytest.mark.parametrize(
    "breaker, message",
    [(_break_int_value, "approximation"), (_break_best_critical, "critical-item")],
)
def test_broken_rounding_raises(breaker, message, monkeypatch):
    kernel = knapsack.dantzig_solve

    def broken(grid, live, caps):
        return breaker(grid, kernel(grid, live, caps), BROKEN.m)

    adapter = KnapsackAdapter(BROKEN)
    adapter.bound(adapter.root_payload())  # the unbroken kernel passes
    monkeypatch.setattr(knapsack, "dantzig_solve", broken)
    with pytest.raises(AdapterContractError, match=message):
        adapter.bound(adapter.root_payload())


def test_broken_rounding_raises_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the rounding checks and the
    # kernel's zero-weight checks must not be asserts, so their tests have to
    # pass there too
    assert optimize_pass.not_passed("test_knapsack.py") == [], optimize_pass.out
