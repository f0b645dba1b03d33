"""Independent exact solvers: optimality oracles.

These back every optimality-gap measurement and every derived expected
value in the test suite, so they deliberately share no code with the
solver paths they check: knapsack optima come from a layered dynamic
program over residual-capacity states, scheduling optima from pruned
exhaustive assignment by an explicit-stack depth-first search. Neither
recurses, so an instance's size meets only the budget. All arithmetic is
exact. The LP oracles (vertex enumeration, LP optima) serve only the tests
and live in tests/lp_oracle.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .instances import KnapsackInstance, SchedulingInstance
from .rational import Rat, rat

__all__ = [
    "OracleResult",
    "OracleBudgetExceeded",
    "DEFAULT_BUDGET",
    "exact_opt",
    "optimality_gap",
]

DEFAULT_BUDGET = 5_000_000


class OracleBudgetExceeded(RuntimeError):
    """The instance is too large for the oracle budget; shrink it."""


@dataclass(frozen=True)
class OracleResult:
    optimum: Rat
    witness: Any
    method: str


def exact_opt(inst, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact optimum of a knapsack (max profit) or scheduling (min makespan)
    instance.

    `budget` (an int of at least 1, else ValueError) caps the work: for a
    knapsack instance, the DP's states summed over all its layers; for a
    scheduling instance, the search's visited nodes. Past it the oracle
    raises OracleBudgetExceeded."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"oracle budget must be an int of at least 1, got {budget!r}")
    if isinstance(inst, KnapsackInstance):
        return _knapsack_dp(inst, budget)
    if isinstance(inst, SchedulingInstance):
        return _scheduling_exhaustive(inst, budget)
    raise TypeError(f"no oracle for {type(inst).__name__}")


def _knapsack_dp(inst: KnapsackInstance, budget: int) -> OracleResult:
    """Layered DP over items. Layer j maps each sorted tuple of residual
    capacities that items 0..j-1 can reach to the best profit reaching it.
    Rational data is put on integers first: weights and capacities times the
    lcm of their denominators, profits times the lcm of theirs."""
    size_scale = math.lcm(*(v.denominator for v in (*inst.weights, *inst.capacities)))
    profit_scale = math.lcm(*(p.denominator for p in inst.profits))
    weights = [int(w * size_scale) for w in inst.weights]
    profits = [int(p * profit_scale) for p in inst.profits]
    caps0 = tuple(int(c * size_scale) for c in inst.capacities)

    layers: list[dict[tuple[int, ...], int]] = [{tuple(sorted(caps0)): 0}]
    states = 1
    for w, p in zip(weights, profits):
        layer = dict(layers[-1])
        for caps, value in layers[-1].items():
            for k, cap in enumerate(caps):
                if cap < w or (k and caps[k - 1] == cap):
                    continue
                nxt = tuple(sorted(caps[:k] + (cap - w,) + caps[k + 1 :]))
                if layer.get(nxt, -1) < value + p:
                    layer[nxt] = value + p
            if states + len(layer) > budget:
                raise OracleBudgetExceeded(f"knapsack DP passed {budget} states")
        states += len(layer)
        layers.append(layer)

    # walk back: which item each step from the best final state took
    caps, optimum = max(layers[-1].items(), key=lambda kv: kv[1])
    taken: dict[int, int] = {}
    value = optimum
    for j in range(len(weights) - 1, -1, -1):
        if layers[j].get(caps) == value:
            continue
        for k, cap in enumerate(caps):
            prev = tuple(sorted(caps[:k] + (cap + weights[j],) + caps[k + 1 :]))
            if layers[j].get(prev) == value - profits[j]:
                taken[j] = cap + weights[j]
                caps, value = prev, value - profits[j]
                break
        else:
            raise RuntimeError("witness reconstruction diverged from DP values")
    # replay forward on the unsorted capacities to name each item's knapsack
    residual = list(caps0)
    witness: dict[int, int] = {}
    for j in sorted(taken):
        k = residual.index(taken[j])
        witness[j] = k
        residual[k] -= weights[j]
    return OracleResult(rat(optimum, profit_scale), witness, "dp")


def _scheduling_exhaustive(inst: SchedulingInstance, budget: int) -> OracleResult:
    n, m = inst.n, inst.m
    P, t = inst.processing, inst.overheads
    order = sorted(range(n), key=lambda j: (-min(P[j]), j))
    suffix_min = [rat(0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + min(P[order[k]])
    machine_class: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    for i in range(m):
        key = (tuple(P[j][i] for j in range(n)), t[i])
        machine_class[i] = classes.setdefault(key, len(classes))

    loads = list(t)
    assignment: dict[int, int] = {}
    # greedy seed tightens pruning; any feasible schedule is a valid start
    seed_loads = list(t)
    seed: dict[int, int] = {}
    for j in order:
        i = min(range(m), key=lambda i: (seed_loads[i] + P[j][i], i))
        seed[j] = i
        seed_loads[i] += P[j][i]
    best_value = max(seed_loads)
    best_witness = dict(seed)
    visits = 0

    def worth_expanding(k: int) -> bool:
        """Count the node whose jobs order[:k] are placed; record it when it
        is a better leaf; True when its subtree may still improve."""
        nonlocal best_value, best_witness, visits
        visits += 1
        if visits > budget:
            raise OracleBudgetExceeded(f"scheduling search passed {budget} nodes")
        current = max(loads)
        balance = (sum(loads, start=rat(0)) + suffix_min[k]) / m
        if max(current, balance) >= best_value:
            return False
        if k == n:
            best_value = current
            best_witness = dict(assignment)
            return False
        return True

    # for job order[k] on the search path: the next machine to try, and
    # the (machine class, load) pairs already tried
    nexts: list[int] = []
    tried: list[set[tuple[int, Rat]]] = []
    if worth_expanding(0):
        nexts.append(0)
        tried.append(set())
    while nexts:
        k = len(nexts) - 1
        j = order[k]
        if j in assignment:  # back from a child: undo its placement
            i = assignment.pop(j)
            loads[i] -= P[j][i]
        i = nexts[k]
        while i < m and (machine_class[i], loads[i]) in tried[k]:
            i += 1
        if i == m:
            nexts.pop()
            tried.pop()
            continue
        nexts[k] = i + 1
        tried[k].add((machine_class[i], loads[i]))
        loads[i] += P[j][i]
        assignment[j] = i
        if worth_expanding(k + 1):
            nexts.append(0)
            tried.append(set())
    return OracleResult(best_value, best_witness, "exhaustive")


def optimality_gap(z: Rat, z_star: Rat) -> Rat:
    """|z - z*| / max(z, z*); both-zero yields 0 by convention."""
    z, z_star = rat(z), rat(z_star)
    hi = max(z, z_star)
    if hi == 0:
        if z == z_star == 0:
            return rat(0)
        raise ValueError("gap undefined: max(z, z*) must be positive")
    return abs(z - z_star) / hi

