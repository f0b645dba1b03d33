"""Quantities the tests check the solvers' guarantees against.

Not a test module (pytest collects only test_*.py); the test modules import
it from their own directory.
"""
import math
from fractions import Fraction
from typing import Mapping, Sequence

from bnbapprox.instances import KnapsackInstance, SchedulingInstance
from bnbapprox.knapsack import DantzigSolution, KnapsackGrid, dantzig_solve
from bnbapprox.lp import graph_components
from bnbapprox.profiles import cube_limit
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
