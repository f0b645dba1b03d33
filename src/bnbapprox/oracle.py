"""Independent exact solvers: optimality oracles and LP vertex enumeration.

These back every optimality-gap measurement and every derived expected
value in the test suite, so they deliberately share no code with the
solver paths they check: knapsack optima come from capacity-state dynamic
programming or plain exhaustive search, scheduling optima from pruned
exhaustive assignment, LP optima from enumerating basic solutions.
All arithmetic is exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Sequence

from .instances import KnapsackInstance, SchedulingInstance
from .lp import LinearProgram
from .rational import Rat, rat

__all__ = [
    "OracleResult",
    "OracleBudgetExceeded",
    "DEFAULT_BUDGET",
    "exact_opt",
    "optimality_gap",
    "enumerate_vertices",
    "lp_optimum_by_enumeration",
    "merged_knapsack_lp_optimum",
    "knapsack_lp",
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


# --- exhaustive LP vertex enumeration -------------------------------------

def _standard_form(lp: LinearProgram) -> tuple[list[list[int]], list[int], int]:
    """Integer-scaled rows over structural + slack columns."""
    nv = lp.num_vars
    ncols = nv + len(lp.inequalities)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for coeffs, b in lp.equalities:
        scale = math.lcm(
            *(v.denominator for v in coeffs), b.denominator
        ) if coeffs else b.denominator
        rows.append([int(v * scale) for v in coeffs] + [0] * len(lp.inequalities))
        rhs.append(int(b * scale))
    for k, (coeffs, b) in enumerate(lp.inequalities):
        scale = math.lcm(
            *(v.denominator for v in coeffs), b.denominator
        ) if coeffs else b.denominator
        row = [int(v * scale) for v in coeffs] + [0] * len(lp.inequalities)
        row[nv + k] = scale
        rows.append(row)
        rhs.append(int(b * scale))
    return rows, rhs, ncols


def _solve_square(matrix: list[list[int]], rhs: list[int]) -> list[Rat] | None:
    """Exact solve by fraction-free elimination; None when singular."""
    r = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(r):
        piv_row = next((i for i in range(col, r) if a[i][col] != 0), None)
        if piv_row is None:
            return None
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
        piv = a[col][col]
        for i in range(r):
            if i == col:
                continue
            f = a[i][col]
            if f == 0 and piv == prev:
                continue
            for j in range(r + 1):
                a[i][j] = (piv * a[i][j] - f * a[col][j]) // prev
        prev = piv
    return [Rat(a[i][r], a[i][i]) for i in range(r)]


def _row_reduce(rows: list[list[int]], rhs: list[int]) -> tuple[list[list[int]], list[int]] | None:
    """Drop linearly dependent rows (exact); None when the system is
    inconsistent (a zero row with nonzero right-hand side)."""
    work = [[rat(v) for v in row] + [rat(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    kept: list[list[Rat]] = []
    for row in work:
        for pivot in kept:
            lead = next(i for i, v in enumerate(pivot) if v != 0)
            if row[lead] != 0:
                factor = row[lead] / pivot[lead]
                for i in range(ncols + 1):
                    row[i] -= factor * pivot[i]
        if any(v != 0 for v in row[:ncols]):
            kept.append(row)
        elif row[ncols] != 0:
            return None
    out_rows, out_rhs = [], []
    for row in kept:
        scale = math.lcm(*(v.denominator for v in row))
        out_rows.append([int(v * scale) for v in row[:ncols]])
        out_rhs.append(int(row[ncols] * scale))
    return out_rows, out_rhs


def enumerate_vertices(lp: LinearProgram, budget: int = 2_000_000) -> list[tuple[Rat, ...]]:
    """All vertices (structural coordinates) via exhaustive basis enumeration.

    Independent of the simplex path: every size-R column subset of the
    standard form (reduced to full row rank) is solved exactly and kept
    when feasible. Deduplicated, deterministically ordered.
    """
    rows, rhs, ncols = _standard_form(lp)
    reduced = _row_reduce(rows, rhs)
    if reduced is None:
        return []
    rows, rhs = reduced
    r = len(rows)
    if r == 0:
        return [tuple(rat(0) for _ in range(lp.num_vars))]
    if math.comb(ncols, r) > budget:
        raise OracleBudgetExceeded(
            f"basis enumeration needs C({ncols},{r}) > {budget} solves"
        )
    seen: set[tuple[Rat, ...]] = set()
    out: list[tuple[Rat, ...]] = []
    for basis in itertools.combinations(range(ncols), r):
        matrix = [[rows[i][c] for c in basis] for i in range(r)]
        sol = _solve_square(matrix, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        point = [rat(0)] * ncols
        for c, v in zip(basis, sol):
            point[c] = v
        structural = tuple(point[: lp.num_vars])
        if structural not in seen:
            seen.add(structural)
            out.append(structural)
    return sorted(out)


def lp_optimum_by_enumeration(
    lp: LinearProgram, objective: Sequence[Rat], budget: int = 2_000_000
) -> Rat:
    """max objective . x over all vertices (the LP optimum when bounded)."""
    vertices = enumerate_vertices(lp, budget)
    if not vertices:
        raise ValueError("infeasible program has no vertices")
    return max(sum((c * v for c, v in zip(objective, vert)), start=rat(0)) for vert in vertices)


def knapsack_lp(inst: KnapsackInstance) -> tuple[LinearProgram, list[Rat]]:
    """Per-knapsack LP relaxation (variables x_{j,i} row-major) + objective."""
    n, m = inst.n, inst.m
    nv = n * m
    ineqs = []
    for i in range(m):
        coeffs = [rat(0)] * nv
        for j in range(n):
            coeffs[j * m + i] = inst.weights[j]
        ineqs.append((tuple(coeffs), inst.capacities[i]))
    for j in range(n):
        coeffs = [rat(0)] * nv
        for i in range(m):
            coeffs[j * m + i] = rat(1)
        ineqs.append((tuple(coeffs), rat(1)))
    objective = [inst.profits[j] for j in range(n) for _ in range(m)]
    return LinearProgram(nv, (), tuple(ineqs)), objective


def merged_knapsack_lp_optimum(inst: KnapsackInstance) -> Rat:
    """LP optimum of the merged (single-capacity) relaxation by explicit
    vertex enumeration of the box-plus-one-constraint polytope.

    A vertex has at most one fractional coordinate, and a fractional
    coordinate forces the capacity constraint tight; enumerating all
    integral supports with an optional fractional top-up item is therefore
    exhaustive over vertices.
    """
    total = sum(inst.capacities, start=rat(0))
    n = inst.n
    best = rat(0)
    for mask in range(1 << n):
        weight = rat(0)
        value = rat(0)
        for j in range(n):
            if mask >> j & 1:
                weight += inst.weights[j]
                value += inst.profits[j]
        if weight > total:
            continue
        best = max(best, value)
        room = total - weight
        for f in range(n):
            if not mask >> f & 1 and inst.weights[f] > room > 0:
                best = max(best, value + inst.profits[f] * room / inst.weights[f])
    return best
