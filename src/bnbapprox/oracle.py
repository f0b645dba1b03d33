"""Independent exact solvers: optimality oracles.

These back every optimality-gap measurement and every derived expected
value in the test suite, so they deliberately share no code with the
solver paths they check: knapsack optima come from capacity-state dynamic
programming or plain exhaustive search, scheduling optima from pruned
exhaustive assignment. All arithmetic is exact. The LP oracles (vertex
enumeration, LP optima) serve only the tests and live in tests/lp_oracle.py.
"""
from __future__ import annotations

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
    instance. Raises OracleBudgetExceeded when the state count would pass
    the budget."""
    if isinstance(inst, KnapsackInstance):
        integral = all(
            v.denominator == 1
            for v in (*inst.weights, *inst.profits, *inst.capacities)
        )
        if integral:
            return _knapsack_dp(inst, budget)
        return _knapsack_exhaustive(inst, budget)
    if isinstance(inst, SchedulingInstance):
        return _scheduling_exhaustive(inst, budget)
    raise TypeError(f"no oracle for {type(inst).__name__}")


def _knapsack_dp(inst: KnapsackInstance, budget: int) -> OracleResult:
    """Top-down DP over residual-capacity states (canonicalized by sorting)."""
    n, m = inst.n, inst.m
    weights = [int(w) for w in inst.weights]
    profits = [int(p) for p in inst.profits]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def solve(j: int, caps: tuple[int, ...]) -> int:
        if j == n:
            return 0
        key = (j, tuple(sorted(caps)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise OracleBudgetExceeded(f"knapsack DP passed {budget} states")
        best = solve(j + 1, caps)
        w = weights[j]
        seen: set[int] = set()
        for k in range(m):
            if caps[k] >= w and caps[k] not in seen:
                seen.add(caps[k])
                nxt = caps[:k] + (caps[k] - w,) + caps[k + 1 :]
                best = max(best, profits[j] + solve(j + 1, nxt))
        memo[key] = best
        return best

    caps0 = tuple(int(c) for c in inst.capacities)
    optimum = solve(0, caps0)

    witness: dict[int, int] = {}
    caps = caps0
    for j in range(n):
        residual = optimum - sum(profits[i] for i in witness)
        if solve(j + 1, caps) == residual:
            continue
        for k in range(m):
            if caps[k] >= weights[j]:
                nxt = caps[:k] + (caps[k] - weights[j],) + caps[k + 1 :]
                if profits[j] + solve(j + 1, nxt) == residual:
                    witness[j] = k
                    caps = nxt
                    break
        else:
            raise RuntimeError("witness reconstruction diverged from DP values")
    return OracleResult(rat(optimum), witness, "dp")


def _knapsack_exhaustive(inst: KnapsackInstance, budget: int) -> OracleResult:
    n, m = inst.n, inst.m
    suffix = [rat(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + inst.profits[j]
    best_value = rat(0)
    best_witness: dict[int, int] = {}
    assignment: dict[int, int] = {}
    visits = 0

    def rec(j: int, caps: list[Rat], value: Rat) -> None:
        nonlocal best_value, best_witness, visits
        visits += 1
        if visits > budget:
            raise OracleBudgetExceeded(f"knapsack search passed {budget} nodes")
        if value + suffix[j] <= best_value and j < n:
            return
        if j == n:
            if value > best_value:
                best_value = value
                best_witness = dict(assignment)
            return
        w = inst.weights[j]
        for k in range(m):
            if caps[k] >= w:
                caps[k] -= w
                assignment[j] = k
                rec(j + 1, caps, value + inst.profits[j])
                del assignment[j]
                caps[k] += w
        rec(j + 1, caps, value)

    rec(0, list(inst.capacities), rat(0))
    return OracleResult(best_value, best_witness, "exhaustive")


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

    def rec(k: int) -> None:
        nonlocal best_value, best_witness, visits
        visits += 1
        if visits > budget:
            raise OracleBudgetExceeded(f"scheduling search passed {budget} nodes")
        current = max(loads)
        balance = (sum(loads, start=rat(0)) + suffix_min[k]) / m
        if max(current, balance) >= best_value:
            return
        if k == n:
            if current < best_value:
                best_value = current
                best_witness = dict(assignment)
            return
        j = order[k]
        tried: set[tuple[int, Rat]] = set()
        for i in range(m):
            key = (machine_class[i], loads[i])
            if key in tried:
                continue
            tried.add(key)
            loads[i] += P[j][i]
            assignment[j] = i
            rec(k + 1)
            del assignment[j]
            loads[i] -= P[j][i]

    rec(0)
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

