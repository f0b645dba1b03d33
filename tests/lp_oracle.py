"""Exact LP references for the tests: the general LP solver, vertex
enumeration and LP optima.

`LinearProgram` and `solve_vertex` are the general front end that the
load LP's solver was cut down from: a program of equality and inequality
rows, put on integers at construction, a crash basis that pivots each
equality row on its first nonzero column (dropping a redundant row), then
the zero-cost dual simplex under Bland's rule (`dual_phase`), on one
common denominator. Both pivot with
`reference_pivot`, an indexed Gaussian pivot of their own, so a change to
`bnbapprox.lp.pivot` leaves the reference as it is. `load_program` writes a
load LP as such a program. `bnbapprox.scheduling.build_load_lp` must give
the tableau and basis that `crash` reaches on it, and
`bnbapprox.lp.solve_vertex` the vertex or Farkas row that `solve_vertex`
returns.

The enumeration shares nothing with any simplex: a vertex is found by
solving every square column subset of the standard form exactly, and the
knapsack LP optima by enumerating vertices. Not a test module (pytest collects only test_*.py);
the test modules import it from their own directory.
"""
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from bnbapprox.instances import KnapsackInstance
from bnbapprox.lp import LpError, Vertex
from bnbapprox.oracle import OracleBudgetExceeded
from bnbapprox.rational import Rat, rat
from bnbapprox.scheduling import Eligibility, SchedGrid


def reference_pivot(tableau: list[list[int]], r: int, c: int, den: int) -> int:
    """Integer-preserving Gaussian pivot on (r, c), every entry by index;
    returns the new denominator. The tableau stores den * (real tableau)
    before and piv * (real tableau) after, piv = tableau[r][c]."""
    prow = tableau[r]
    piv = prow[c]
    ncols = len(prow)
    for i in range(len(tableau)):
        if i == r:
            continue
        row = tableau[i]
        f = row[c]
        if f:
            for j in range(ncols):
                row[j] = (piv * row[j] - f * prow[j]) // den
        elif piv != den:
            for j in range(ncols):
                row[j] = piv * row[j] // den
    return piv


@dataclass(frozen=True)
class LinearProgram:
    """num_vars non-negative variables, equality and <=-inequality rows.

    Rows are stored on integers. A program holding a value that is not an
    int is put on them at construction, each row times the lcm of its
    denominators, which changes neither the polyhedron nor any vertex; a
    program of ints, such as every load LP, keeps its rows as given.
    """

    num_vars: int
    equalities: tuple[tuple[tuple[int, ...], int], ...] = ()
    inequalities: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        if self.num_vars < 0:
            raise LpError("negative variable count")
        on_ints = True
        for coeffs, b in self.equalities + self.inequalities:
            if len(coeffs) != self.num_vars:
                raise LpError("row references undeclared variables")
            # a sum of ints is an int, and a Fraction anywhere makes it one
            if on_ints and type(sum(coeffs, b)) is not int:
                on_ints = False
        if not on_ints:
            for name in ("equalities", "inequalities"):
                rows = getattr(self, name)
                object.__setattr__(self, name, tuple([_int_row(*row) for row in rows]))


def _int_row(coeffs: Sequence[Rat | int], rhs: Rat | int) -> tuple[tuple[int, ...], int]:
    """The row times the lcm of its denominators, as plain integers."""
    scale = math.lcm(rhs.denominator, *[v.denominator for v in coeffs])
    row = tuple([v.numerator * (scale // v.denominator) for v in coeffs])
    return row, rhs.numerator * (scale // rhs.denominator)


def crash(
    lp: LinearProgram, farkas: list[int] | None = None
) -> tuple[list[list[int]], list[int], int] | None:
    """The crash basis of a program: (tableau, basis labels, den), or None
    when a row of the crash proves the program empty.

    The tableau starts as the stored integer rows, a unit slack column per
    inequality row and the rhs. Every inequality row's slack starts basic,
    and each equality row in turn takes its first nonzero column into the
    basis. A row left all zero is a combination of the rows before it:
    redundant when its rhs is 0, and dropped, or else the proof that the
    program is empty, which `farkas` (a list) receives as in solve_vertex.
    """
    nv = lp.num_vars
    n_eq = len(lp.equalities)
    n_ineq = len(lp.inequalities)
    rhs = nv + n_ineq  # the rhs column; every column before it is a variable

    slack_zeros = [0] * n_ineq
    tableau = [[*coeffs, *slack_zeros, b] for coeffs, b in lp.equalities]
    basis = [-1] * n_eq  # basic label of each row; -1 until the crash
    for k, (coeffs, b) in enumerate(lp.inequalities):
        row = [*coeffs, *slack_zeros, b]
        row[nv + k] = 1
        tableau.append(row)
        basis.append(nv + k)

    # The tableau stores den * (the real tableau), and den may be negative.
    # A basic column is den on its row and 0 elsewhere, so the first nonzero
    # entry of an equality row lies in a nonbasic column.
    den = 1
    r = 0
    for _ in range(n_eq):
        row = tableau[r]
        enter = -1
        for j in range(rhs):
            if row[j]:
                enter = j
                break
        if enter >= 0:
            den = reference_pivot(tableau, r, enter, den)
            basis[r] = enter
            r += 1
        elif row[rhs] == 0:
            del tableau[r]
            del basis[r]
        else:
            if farkas is not None:
                farkas.extend(row if row[rhs] < 0 else [-v for v in row])
            return None
    return tableau, basis, den


def solve_vertex(lp: LinearProgram, farkas: list[int] | None = None) -> Vertex | None:
    """Return a vertex of the polyhedron, or None when it is empty: the
    crash (see crash), then the dual phase (see dual_phase).

    When the polyhedron is empty and `farkas` is a list, it receives the
    row that proves it, integer and scaled by a positive factor: its
    entries on the structural columns, then on the slack columns (all
    >= 0), then its rhs (< 0). The row is -(y^T A, y_ineq, y^T b) for a
    Farkas ray y of the rows as stored (see LinearProgram), which for an
    integer program are the rows as given.
    """
    crashed = crash(lp, farkas)
    if crashed is None:
        return None
    tableau, basis, den = crashed
    return dual_phase(tableau, basis, den, lp.num_vars, len(lp.inequalities), farkas)


def dual_phase(
    tableau: list[list[int]],
    basis: list[int],
    den: int,
    nv: int,
    n_ineq: int,
    farkas: list[int] | None = None,
) -> Vertex | None:
    """The dual phase from a crashed tableau that stores den * (the real
    tableau), pivoting it and `basis` in place: while a basic variable is
    negative, the row with the lowest basic label among the negative ones
    leaves and the lowest-index column with a negative entry in it enters
    (Bland's rule for the zero-cost dual simplex). Returns the vertex, or
    None with the leaving row in `farkas` (as in solve_vertex)."""
    rhs = nv + n_ineq
    while True:
        sign = 1 if den > 0 else -1
        leave = -1
        for i, row in enumerate(tableau):
            if row[rhs] * sign < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            break
        row = tableau[leave]
        enter = -1
        for j in range(rhs):
            if row[j] * sign < 0:
                enter = j
                break
        if enter < 0:
            if farkas is not None:
                farkas.extend(row if sign > 0 else [-v for v in row])
            return None
        den = reference_pivot(tableau, leave, enter, den)
        basis[leave] = enter

    return Vertex(basis, [row[rhs] for row in tableau], [den] * len(tableau), nv, n_ineq)


def admits(eligibility: Eligibility, p, ti, T) -> bool:
    """Whether the load LP at guess T has a column for a pair of time p on
    a machine with overhead ti: the machine is open (ti < T) and the rule
    holds, p <= T (PAPER), ti + p <= T (RESIDUAL) or nothing (ALL)."""
    if ti >= T:
        return False
    if eligibility is Eligibility.PAPER:
        return p <= T
    if eligibility is Eligibility.RESIDUAL:
        return ti + p <= T
    return eligibility is Eligibility.ALL


def load_program(
    grid: SchedGrid,
    t: Sequence[int],
    jobs: Sequence[int],
    T: int,
    eligibility: Eligibility = Eligibility.PAPER,
) -> tuple[LinearProgram, tuple[tuple[int, int], ...]] | None:
    """The load LP at guess T of the node with overheads t and unfixed
    `jobs` on `grid`, as a LinearProgram, plus its variable order, or None
    when it is trivially infeasible (an overfull machine or a job with no
    eligible pair), exactly when build_load_lp says so.

    Variables are the pairs that `admits`, grouped by job in `jobs` order
    and within a job in the grid's fastest-first order, so the crash puts
    each job wholly on its fastest column. There is one load row per
    machine with columns, in machine order. Every row is integer: 0/1
    assignment rows, and load rows of P's entries with rhs T - t_i.
    """
    if max(t) > T:
        return None
    P = grid.P
    pairs: list[tuple[int, int]] = []
    spans: list[tuple[int, int]] = []
    for j in jobs:
        start = len(pairs)
        pairs += [(j, i) for i in grid.order[j] if admits(eligibility, P[j][i], t[i], T)]
        if len(pairs) == start:
            return None
        spans.append((start, len(pairs)))
    nv = len(pairs)

    equalities = [((0,) * a + (1,) * (b - a) + (0,) * (nv - b), 1) for a, b in spans]
    load_rows: list[list[int] | None] = [None] * len(t)
    for k, (j, i) in enumerate(pairs):
        row = load_rows[i]
        if row is None:
            row = load_rows[i] = [0] * nv
        row[k] = P[j][i]
    inequalities = [(tuple(row), T - ti) for row, ti in zip(load_rows, t) if row is not None]
    return LinearProgram(nv, tuple(equalities), tuple(inequalities)), tuple(pairs)


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
