"""Exact LP oracles for the tests: vertex enumeration and LP optima.

Independent of the simplex in bnbapprox.lp: a vertex is found by solving
every square column subset of the standard form exactly, and the knapsack
LP optima by enumerating vertices. Not a test module (pytest collects only
test_*.py); the test modules import it from their own directory.
"""
import itertools
import math
from typing import Sequence

from bnbapprox.instances import KnapsackInstance
from bnbapprox.lp import LinearProgram
from bnbapprox.oracle import OracleBudgetExceeded
from bnbapprox.rational import Rat, rat


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
