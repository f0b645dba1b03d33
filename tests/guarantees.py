"""Quantities the tests check the solvers' guarantees against.

Not a test module (pytest collects only test_*.py); the test modules import
it from their own directory.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from bnbapprox.engine import Criterion, RunResult, Selection, run
from bnbapprox.instances import KnapsackInstance, SchedulingInstance
from bnbapprox.knapsack import DantzigSolution, KnapsackGrid, dantzig_solve
from bnbapprox.lp import graph_components
from bnbapprox.profiles import ProfileAdapter, cube_limit
from bnbapprox.rational import Rat, rat


def c_alpha_m(alpha: Rat, m: int) -> Rat:
    """Left-turn budget per root-leaf path: 1 + max{mα/(1-α)², (m+1)/(1-α)}."""
    alpha = rat(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    one_minus = 1 - alpha
    return 1 + max(m * alpha / one_minus**2, (m + 1) / one_minus)


def assignment_value(inst: KnapsackInstance, assignment: Mapping[int, int]) -> Rat:
    return sum((inst.profits[j] for j in assignment), start=rat(0))


def assignment_feasible(inst: KnapsackInstance, assignment: Mapping[int, int]) -> bool:
    loads = [rat(0)] * inst.m
    seen = set()
    for j, k in assignment.items():
        if j in seen or not 0 <= k < inst.m:
            return False
        seen.add(j)
        loads[k] += inst.weights[j]
    return all(load <= cap for load, cap in zip(loads, inst.capacities))


def schedule_makespan(inst: SchedulingInstance, assignment: Mapping[int, int]) -> Rat:
    """Makespan of a complete assignment (validates completeness)."""
    if sorted(assignment) != list(range(inst.n)):
        raise ValueError("assignment must place every job exactly once")
    loads = list(inst.overheads)
    for j, i in assignment.items():
        loads[i] += inst.processing[j][i]
    return max(loads)


def profile_run(
    inst: SchedulingInstance, eps: Rat, mode: str
) -> tuple[ProfileAdapter, RunResult, Rat]:
    """A best-first profile run ("similarity" or "equivalence"): its adapter,
    whose level counts and profile keys the run leaves behind, the run, and
    its makespan in the instance's units."""
    adapter = ProfileAdapter(inst, eps, mode)
    result = run(adapter, Selection.BEST_FIRST, Criterion("ratio-eps", rat(eps)))
    return adapter, result, result.best_value * adapter.scale


def f_bound(eps: Rat) -> float:
    """Count bound on distinct rounded completion times:
    8 * (1/eps)^(log_{1+eps}(2(1+eps)^2/eps)). Exact at eps=1 (=8)."""
    eps = rat(eps)
    if eps == 1:
        return 8.0
    exponent = math.log(float(cube_limit(eps) / eps)) / math.log(float(1 + eps))
    return 8.0 * float(1 / eps) ** exponent


def graph_is_forest(fractional: Mapping[int, Sequence[int]]) -> bool:
    """True iff the bipartite graph of the fractional jobs (job -> its
    machines) has no cycle."""
    return graph_components(fractional) is not None


def reference_fractional_jobs(x: Mapping[tuple[int, int], Rat]) -> dict[int, tuple[int, ...]]:
    """The fractional jobs of a point x, derived from its coordinates alone:
    every job with a coordinate strictly between 0 and 1, ascending, each
    mapped to the machines of such coordinates, ascending."""
    fractional: dict[int, tuple[int, ...]] = {}
    for j, i in sorted(x):
        if 0 < x[j, i] < 1:
            fractional[j] = fractional.get(j, ()) + (i,)
    return fractional


def reference_unit_profit_order(weights: Sequence[Rat], profits: Sequence[Rat]) -> tuple[int, ...]:
    """Item ids by decreasing p/w on Fraction keys; zero weights first, ties by id."""

    def key(j):
        if weights[j] == 0:
            return (0, 0, j)
        return (1, -profits[j] / weights[j], j)

    return tuple(sorted(range(len(weights)), key=key))


def profit_floor(inst: KnapsackInstance, value: Rat) -> Rat:
    """The largest multiple of 1/Dp at most value, Dp the lcm of the profit
    denominators: every solution's profit is such a multiple, so flooring an
    upper bound to it keeps it an upper bound."""
    dp = math.lcm(*(Fraction(p).denominator for p in inst.profits))
    return Fraction(math.floor(value * dp), dp)


@dataclass(frozen=True)
class ReferenceSolution:
    order: tuple[int, ...]
    x_frac: Mapping[tuple[int, int], Rat]
    sub_value: Rat
    split_item: int | None  # the item crossing the end of the capacity line
    critical_items: tuple[int, ...]
    best_critical: int | None
    floor: Mapping[int, int]  # the items wholly inside one segment
    int_assignment: Mapping[int, int]
    int_value: Rat
    paper_value: Rat  # the better of the floor and one critical item alone
    fractional: bool


def _first_of_the_best(candidates):
    """The first (value, assignment) pair of the highest value."""
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate[0] > best[0]:
            best = candidate
    return best


def reference_dantzig_solve(inst: KnapsackInstance, items, caps) -> ReferenceSolution:
    """The Dantzig relaxation of `items` under `caps` and its rounding, in
    Fractions and by plain scans: the items in unit-profit order on Fraction
    keys, the merged capacity line walked into the point `x_frac`, every
    knapsack scanned for every item and each critical item found by a scan
    over the cumulative weights. Zero weights sit on knapsack 0.

    The rounding is the first of the most profitable among each critical
    item alone, in the first knapsack that fits it, and the completed floor:
    the floor's residual caps, then first fit over the items it left out, in
    unit-profit order. paper_value is the same choice with the floor left
    uncompleted."""
    weights, profits = inst.weights, inst.profits
    live = set(items)
    seq = tuple(j for j in reference_unit_profit_order(weights, profits) if j in live)

    m = len(caps)
    boundaries = []
    acc = rat(0)
    for c in caps:
        acc += c
        boundaries.append(acc)
    total = acc

    x_frac = {}
    free_assign = {}
    cursor = rat(0)
    cumulative = []
    weighted = []
    split_item = None
    for j in seq:
        w = weights[j]
        if w == 0:
            x_frac[(j, 0)] = rat(1)
            free_assign[j] = 0
            continue
        start, end = cursor, cursor + w
        if start < total < end:
            split_item = j
        if start < total:
            for k in range(m):
                lo = boundaries[k] - caps[k]
                hi = boundaries[k]
                overlap = min(end, hi) - max(start, lo)
                if overlap > 0:
                    x_frac[(j, k)] = overlap / w
        cursor = end
        cumulative.append(cursor)
        weighted.append(j)

    criticals = []
    for k in range(m):
        s_k = next(
            (j for j, cum in zip(weighted, cumulative) if cum > boundaries[k]), None
        )
        if s_k is not None and s_k not in criticals:
            criticals.append(s_k)

    sub_value = sum((profits[j] * v for (j, _), v in x_frac.items()), start=rat(0))

    best_critical = None
    for s in criticals:
        if best_critical is None or profits[s] > profits[best_critical] or (
            profits[s] == profits[best_critical] and s < best_critical
        ):
            best_critical = s

    floor_assign = dict(free_assign)
    for (j, k), v in x_frac.items():
        if v == 1:
            floor_assign[j] = k
    room = list(caps)
    for j, k in floor_assign.items():
        room[k] -= weights[j]
    completed = dict(floor_assign)
    for j in seq:
        if j not in completed:
            fit = next((k for k in range(m) if weights[j] <= room[k]), None)
            if fit is not None:
                room[fit] -= weights[j]
                completed[j] = fit

    def value(assign):
        return sum((profits[j] for j in assign), start=rat(0))

    singles = []
    for s in criticals:
        fit = next((k for k in range(m) if weights[s] <= caps[k]), None)
        if fit is not None:
            assign = dict(free_assign)
            assign[s] = fit
            singles.append((value(assign), assign))
    paper_value, _ = _first_of_the_best(singles + [(value(floor_assign), floor_assign)])
    int_value, int_assignment = _first_of_the_best(singles + [(value(completed), completed)])

    return ReferenceSolution(
        order=seq,
        x_frac=x_frac,
        sub_value=sub_value,
        split_item=split_item,
        critical_items=tuple(criticals),
        best_critical=best_critical,
        floor=floor_assign,
        int_assignment=int_assignment,
        int_value=int_value,
        paper_value=paper_value,
        fractional=any(0 < v < 1 for v in x_frac.values()),
    )


def dantzig_whole(inst: KnapsackInstance) -> tuple[KnapsackGrid, DantzigSolution]:
    """The instance's grid and the relaxation of all its items, which must
    all have positive weight (the kernel rejects a zero weight)."""
    grid = KnapsackGrid.build(inst)
    return grid, dantzig_solve(grid, grid.mask(range(inst.n)), grid.capacities)


def mask_items(grid: KnapsackGrid, mask: int) -> tuple[int, ...]:
    """The items of a mask, in the grid's unit-profit order."""
    return tuple(j for position, j in enumerate(grid.order) if mask >> position & 1)


def sub_value(grid: KnapsackGrid, sol: DantzigSolution) -> Rat:
    """The relaxation's profit in instance units, from the kernel's integer sums."""
    value = Fraction(sol.line_profit)
    if sol.split is not None:
        j, inside = sol.split
        value += Fraction(grid.profits[j] * inside, grid.weights[j])
    return value / grid.p_scale


def int_value(grid: KnapsackGrid, sol: DantzigSolution) -> Rat:
    """The rounding's profit in instance units."""
    return Fraction(sol.int_profit, grid.p_scale)
