"""The integer Dantzig kernel against a Fraction greedy written by plain scans.

`reference_dantzig_solve` (in `guarantees.py`) is the greedy the integer
kernel replaced, with the same first-fit completion of the floor: it orders
the items on Fraction keys, walks the merged capacity line in exact
Fractions, building the optimal point `x_frac`, scans every knapsack for
every item and finds each critical item by a scan over the cumulative
weights. The integer kernel must return the same solution, field by field,
with the same insertion order in `int_assignment`; its values, rebuilt as
Fractions from its integer sums, must equal the reference's, and its split
item must be the first item of the order with a coordinate of `x_frac`
strictly between 0 and 1. The kernel takes the live items as a mask over the
grid's order, of positive weights only: on a call with zero-weight items it
gets the others, and the reference on all of them must equal its answer
plus each zero-weight item on knapsack 0 with its profit. This holds on
hand-picked edge cases, on seeded rational instances and on every
sub-problem the adapter bounds during real searches. There each node's
usable mask, fixed chain and solution token are also checked against the
same node state kept as plain sets and dicts along its path, and its upper
bound is the relaxation floored to the profit grid.

On every node of those searches the rounding must also keep its
guarantees: it is feasible, worth at least the paper's candidate (the
floor or one critical item alone), and unless one critical item alone won,
it holds the floor and no usable item it leaves out fits a residual cap.
"""
import random
from fractions import Fraction

import pytest

from bnbapprox import knapsack
from bnbapprox.engine import Criterion, Selection, chain_solution, run
from bnbapprox.instances import KnapsackInstance, generate
from bnbapprox.knapsack import (
    DantzigSolution,
    KnapsackAdapter,
    KnapsackGrid,
    dantzig_solve,
    pick_pivot,
)
from bnbapprox.rational import grid_scale, rat
from guarantees import (
    int_value,
    mask_items,
    ReferenceSolution,
    profit_floor,
    reference_dantzig_solve,
    sub_value,
)


def assert_same(
    grid: KnapsackGrid, live: int, got: DantzigSolution, want: ReferenceSolution, zeros=()
) -> None:
    """`live` is the mask the kernel was given and `zeros` the zero-weight
    items, ascending, that the reference was given and the kernel was not."""
    free = Fraction(sum(grid.profits[j] for j in zeros), grid.p_scale)
    assert want.order == tuple(zeros) + mask_items(grid, live)
    assert got.first_live == next(iter(mask_items(grid, live)), None)
    assert pick_pivot(got, "K") == got.first_live
    assert [want.x_frac[j, 0] for j in zeros] == [1] * len(zeros)
    partial = {j for (j, _), v in want.x_frac.items() if 0 < v < 1}
    first_partial = next((j for j in want.order if j in partial), None)
    assert got.first_split == first_partial
    assert pick_pivot(got, "PPW") == first_partial
    assert type(got.line_profit) is int and type(got.int_profit) is int
    assert sub_value(grid, got) + free == want.sub_value
    assert (None if got.split is None else got.split[0]) == want.split_item
    assert got.best_critical == want.best_critical
    assert [(j, 0) for j in zeros] + list(got.int_assignment.items()) == list(
        want.int_assignment.items()
    )
    assert int_value(grid, got) + free == want.int_value >= want.paper_value
    assert got.fractional is want.fractional


def weight_scale(inst) -> int:
    """Dw, the lcm scale that puts the weights and capacities on integers."""
    return grid_scale((*inst.weights, *inst.capacities))


def assert_kernel_matches(inst, items=None, caps=None) -> None:
    """The kernel on the instance's grid against the reference; `caps`, in
    instance units and on the grid, default to the instance's capacities.
    The kernel gets the items of positive weight, the reference all."""
    grid = KnapsackGrid.build(inst)
    if items is None:
        items = range(inst.n)
    if caps is None:
        caps = inst.capacities
    scaled = [c * weight_scale(inst) for c in caps]
    assert all(c.denominator == 1 for c in scaled)
    zeros = tuple(sorted(j for j in items if inst.weights[j] == 0))
    live = grid.mask(j for j in items if inst.weights[j] != 0)
    assert_same(grid, live, dantzig_solve(grid, live, tuple(int(c) for c in scaled)),
                reference_dantzig_solve(inst, items, caps), zeros)


def _value(rnd, den_choices, lo, hi):
    return Fraction(rnd.randint(lo, hi), rnd.choice(den_choices))


def _random_case(rnd):
    """A small instance plus an (items, caps) call on it."""
    n = rnd.choice((0, 1, 1, 2, 3, 5, 7, 9))
    m = rnd.choice((1, 1, 2, 3, 4))
    integral = rnd.random() < 0.3
    w_dens = (1,) if integral else (1, 2, 3, 4, 6)
    p_dens = (1,) if integral else (1, 5, 7)
    c_dens = (1,) if integral else (1, 2, 5, 9)
    weights = []
    profits = []
    for _ in range(n):
        if rnd.random() < 0.15:
            weights.append(Fraction(0))
        else:
            weights.append(_value(rnd, w_dens, 1, 30))
        profits.append(_value(rnd, p_dens, 1, 40))
    if n >= 2 and rnd.random() < 0.4:
        # a profit/weight tie between two items
        i, j = rnd.sample(range(n), 2)
        factor = rnd.choice((Fraction(1), Fraction(2), Fraction(1, 3)))
        weights[j] = weights[i] * factor
        profits[j] = profits[i] * factor
    caps = []
    for _ in range(m):
        if rnd.random() < 0.15:
            caps.append(Fraction(0))
        else:
            caps.append(_value(rnd, c_dens, 1, 45))
    if n and rnd.random() < 0.2:
        # an item that fits in no knapsack
        weights[rnd.randrange(n)] = max(caps) + rnd.randint(1, 5)
    inst = KnapsackInstance(tuple(weights), tuple(profits), tuple(caps))
    items = None
    if rnd.random() < 0.5:
        items = tuple(j for j in range(n) if rnd.random() < 0.7)
    call_caps = None
    if rnd.random() < 0.5:
        # residual capacities, as a node has them: anywhere on the weight grid
        dw = weight_scale(inst)
        call_caps = tuple(
            Fraction(0) if rnd.random() < 0.2 else Fraction(rnd.randint(0, 40 * dw), dw)
            for _ in range(m)
        )
    return inst, items, call_caps


@pytest.mark.parametrize("seed", range(6))
def test_seeded_rational_instances(seed):
    rnd = random.Random(4_040_000 + seed)
    for _ in range(300):
        assert_kernel_matches(*_random_case(rnd))


EDGE_CASES = [
    # empty item set, on an instance with items and on one without
    (KnapsackInstance((rat(3),), (rat(5),), (rat(4),)), (), None),
    (KnapsackInstance((), (), (rat(4), rat(2))), None, None),
    # n = 1, m = 1: fits, splits, fits nowhere, zero weight
    (KnapsackInstance((rat(3),), (rat(10),), (rat(5),)), None, None),
    (KnapsackInstance((rat(7),), (rat(10),), (rat(5),)), None, None),
    (KnapsackInstance((rat(12),), (rat(36),), (rat(5), rat(5))), None, None),
    (KnapsackInstance((rat(0),), (rat(7),), (rat(0),)), None, None),
    # zero capacities first, between and last: boundaries that coincide
    (KnapsackInstance((rat(2), rat(3), rat(4)), (rat(8), rat(9), rat(4)),
                      (rat(0), rat(5), rat(0), rat(3), rat(0))), None, None),
    (KnapsackInstance((rat(5), rat(3)), (rat(10), rat(3)), (rat(5), rat(0))), None, None),
    # an item ending exactly at the end of the capacity line, then one past it
    (KnapsackInstance((rat(4), rat(6), rat(3)), (rat(8), rat(6), rat(2)),
                      (rat(4), rat(6))), None, None),
    # all capacities zero
    (KnapsackInstance((rat(1), rat(0)), (rat(2), rat(3)), (rat(0), rat(0))), None, None),
    # ties in profit/weight, broken by id; equal critical profits
    (KnapsackInstance((rat(2), rat(4), rat(2), rat(6)), (rat(6), rat(12), rat(6), rat(18)),
                      (rat(3), rat(5))), None, None),
    # rational data on three different denominators, capacities overridden
    (KnapsackInstance((rat(3, 2), rat(5, 2), rat(7, 3)), (rat(9, 2), rat(5), rat(14, 3)),
                      (rat(4), rat(3, 2))), (0, 2), (rat(13, 6), rat(2, 3))),
    # the worked example of the module tests
    (KnapsackInstance((rat(6), rat(5), rat(4)), (rat(60), rat(40), rat(20)),
                      (rat(5), rat(5))), None, None),
]


@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
def test_edge_cases(case):
    assert_kernel_matches(*EDGE_CASES[case])


def _rational_instance(rnd, n, m):
    return KnapsackInstance(
        tuple(Fraction(rnd.randint(1, 40), rnd.choice((1, 2, 3))) for _ in range(n)),
        tuple(Fraction(rnd.randint(1, 60), rnd.choice((1, 4, 5))) for _ in range(n)),
        tuple(Fraction(rnd.randint(20, 60), rnd.choice((1, 3))) for _ in range(m)),
    )


def _adapter_instances():
    rnd = random.Random(4_041_000)
    out = [generate("knapsack", n, m, 4_042_000 + k)
           for k, (n, m) in enumerate(((9, 2), (12, 2), (10, 3), (14, 3)))]
    out += [_rational_instance(rnd, n, m) for n, m in ((8, 2), (10, 3))]
    # zero weights, which the root fixes into knapsack 0 in id order
    base = out[1]
    weights = tuple(Fraction(0) if j in (2, 7) else w for j, w in enumerate(base.weights))
    out.append(KnapsackInstance(weights, base.profits, base.capacities))
    return out


@pytest.mark.parametrize("rule", ["CE", "PPW", "K"])
def test_every_subproblem_the_adapter_bounds(rule, monkeypatch):
    recorded = []
    kernel = knapsack.dantzig_solve

    def recording(grid, live, caps):
        sol = kernel(grid, live, caps)
        recorded.append((grid, live, caps, sol))
        return sol

    # Each node's state as plain sets and dicts, kept along its path: the
    # live items and the fixed items (item -> knapsack, in fixing order).
    paths = {}
    root_payload, bound, branch = (
        KnapsackAdapter.root_payload, KnapsackAdapter.bound, KnapsackAdapter.branch
    )

    def recording_root(adapter):
        state = root_payload(adapter)
        inst = adapter.inst
        paths[id(state)] = (state, {j for j in range(inst.n) if inst.weights[j] != 0},
                            {j: 0 for j in range(inst.n) if inst.weights[j] == 0})
        return state

    states = []

    def recording_bound(adapter, state):
        info = bound(adapter, state)
        states.append((adapter, state, info, paths[id(state)][1:]))
        return info

    def recording_branch(adapter, node):
        children = branch(adapter, node)
        parent = node.payload
        _, alive, fixed = paths[id(parent)]
        usable = {j for j in alive if adapter.inst.weights[j] <= max(
            Fraction(c, weight_scale(adapter.inst)) for c in parent.caps)}
        for spec in children:
            child = spec.payload
            child_fixed = dict(fixed)
            if not spec.right_turn:
                (k,) = [k for k, c in enumerate(child.caps) if c != parent.caps[k]]
                child_fixed[parent.pivot] = k
            paths[id(child)] = (child, usable - {parent.pivot}, child_fixed)
        return children

    monkeypatch.setattr(knapsack, "dantzig_solve", recording)
    monkeypatch.setattr(KnapsackAdapter, "root_payload", recording_root)
    monkeypatch.setattr(KnapsackAdapter, "bound", recording_bound)
    monkeypatch.setattr(KnapsackAdapter, "branch", recording_branch)
    for inst in _adapter_instances():
        for selection in Selection:
            run(KnapsackAdapter(inst, branching=rule), selection,
                Criterion("ratio-alpha", rat(99, 100)), node_limit=400)
    assert len(recorded) == len(states) > 100
    scaled = 0
    # the integer node state against the same state kept in Fractions; each
    # bound made one kernel call
    for (adapter, state, info, (alive, path_fixed)), (grid, live, caps, sol) in zip(
        states, recorded
    ):
        inst = adapter.inst
        dw = weight_scale(inst)
        assert grid is adapter.grid and live == state.usable and caps == state.caps
        rat_caps = tuple(Fraction(c, dw) for c in caps)
        # the usable mask holds the path's live items that fit some knapsack
        assert set(mask_items(grid, state.usable)) == {
            j for j in alive if inst.weights[j] <= max(rat_caps)
        }
        # the node keeps the pivot its rule picks, and only a node to branch
        assert state.pivot == (None if info.leaf else pick_pivot(sol, rule))
        assert info.leaf or state.pivot is not None
        # the chain holds the path's fixed items, in fixing order
        fixed_assign = chain_solution(state.chain, {})
        assert list(fixed_assign.items()) == list(path_fixed.items())
        fixed = sum((inst.profits[j] for j in fixed_assign), start=rat(0))
        assert Fraction(state.fixed_profit, grid.p_scale) == fixed
        for k, cap in enumerate(state.caps):
            used = sum((inst.weights[j] for j, kk in fixed_assign.items() if kk == k),
                       start=rat(0))
            assert Fraction(cap, dw) == inst.capacities[k] - used
        # the token stands for the path's fixed items, then the rounding
        assert list(adapter.solution(info.solution).items()) == (
            list(path_fixed.items()) + list(sol.int_assignment.items())
        )
        # bounds are exact ints in units of 1/bound_scale
        assert type(info.lb) is int
        assert Fraction(info.lb, adapter.bound_scale) == fixed + int_value(grid, sol)
        assert type(info.ub) is int
        assert Fraction(info.ub, adapter.bound_scale) == profit_floor(
            inst, fixed + sub_value(grid, sol))
        assert_same(grid, live, sol,
                    reference_dantzig_solve(inst, mask_items(grid, live), rat_caps))
        scaled += dw != 1 or grid.p_scale != 1
    assert scaled > 0


@pytest.mark.guarantee
@pytest.mark.parametrize("rule", ["CE", "PPW", "K"])
def test_every_rounding_the_adapter_bounds_keeps_its_guarantees(rule, monkeypatch):
    recorded = []
    kernel = knapsack.dantzig_solve

    def recording(grid, live, caps):
        sol = kernel(grid, live, caps)
        recorded.append((live, caps, sol))
        return sol

    monkeypatch.setattr(knapsack, "dantzig_solve", recording)
    checked = completed = 0
    for inst in _adapter_instances():
        recorded.clear()
        for selection in Selection:
            run(KnapsackAdapter(inst, branching=rule), selection,
                Criterion("ratio-alpha", rat(99, 100)), node_limit=400)
        grid = KnapsackGrid.build(inst)
        dw = weight_scale(inst)
        for live, caps, sol in recorded:
            items = mask_items(grid, live)
            rat_caps = [Fraction(c, dw) for c in caps]
            ref = reference_dantzig_solve(inst, items, rat_caps)
            assign = sol.int_assignment
            # feasible, and its value is the kernel's profit
            room = list(rat_caps)
            for j, k in assign.items():
                assert j in items
                room[k] -= inst.weights[j]
            assert min(room) >= 0
            value = sum((inst.profits[j] for j in assign), start=rat(0))
            assert value == int_value(grid, sol) >= ref.paper_value
            # a critical item alone wins ties; else the floor was completed
            singles = [s for s in ref.critical_items if inst.weights[s] <= max(rat_caps)]
            best = max((inst.profits[s] for s in singles), default=None)
            if best is not None and value <= best:
                s = next(s for s in singles if inst.profits[s] == best)
                k = next(k for k, c in enumerate(rat_caps) if inst.weights[s] <= c)
                assert assign == {s: k}
            else:
                assert ref.floor.items() <= assign.items()
                assert not [j for j in items if j not in assign
                            and any(inst.weights[j] <= r for r in room)]
                completed += len(assign) > len(ref.floor)
            checked += 1
    assert checked > 100 and completed > 0


def test_grid_scales():
    inst = KnapsackInstance(
        (rat(3, 2), rat(5, 4), rat(2)), (rat(9, 2), rat(5, 3), rat(1)), (rat(4, 3),)
    )
    grid = KnapsackGrid.build(inst)
    assert weight_scale(inst) == 12 and grid.p_scale == 6
    assert grid.weights == (18, 15, 24)
    assert grid.profits == (27, 10, 6)
    assert grid.capacities == (16,)
    # unit profits times Dp * lw: 540, 240 and 90
    assert grid.lw == 360 and grid.factors == (20, 24, 15)
    assert grid.order == (0, 1, 2)
