"""Exact-rational LP feasibility and vertex computation.

The solver answers one question: is the polyhedron
{x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} non-empty, and if so, return a
vertex (basic feasible solution). There is no objective; optimization is
expressed by the callers (the walk up the makespan guesses, Dantzig's
greedy for the knapsack bound), which need some vertex, not a particular
one. When the polyhedron is empty the solver can hand back the tableau row
that proves it, from which the caller reads a Farkas ray y over the rows:
y^T A <= 0 on every column, y_r <= 0 on every inequality row r and
y^T b > 0.

Program and tableau: fraction-free and integer. A LinearProgram that holds
a non-integer puts its rows on integers once, at construction (each times
the lcm of its denominators); integer programs, every load LP among them,
keep their rows as given. solve_vertex copies the stored rows straight
into its tableau, and pivoting keeps entries integral (they are minors of
the input matrix, over one common denominator that may be negative), so
no solve scales a row and the hot loop does no gcd work at all. Columns
are the structural variables, then one slack per inequality row, then the
right-hand side; there are no artificials.

Crash basis: each inequality row's slack starts basic, and each equality
row in turn pivots its first nonzero column into the basis (a basic
column is zero on every other row, so that column is nonbasic). An
equality row with no nonzero column left is a combination of the rows
before it: redundant when its rhs is 0, and dropped, or else itself the
proof that the program is empty. The load LP of scheduling.build_load_lp
lists each job's columns fastest machine first, so the crash puts every
job wholly on its fastest machine, with unit pivots that touch one load
row each; its only infeasibilities are overfull machines.

Dual phase: with a zero objective every basis is dual feasible, so the
dual simplex (Lemke 1954) runs from the crash basis. While some basic
variable is negative, the row with the lowest basic label among the
negative ones leaves, and the lowest-index column with a negative entry in
that row enters. Every ratio of the dual ratio test is 0, so this is
Bland's rule (Bland 1977) for the dual, and the phase ends after finitely
many pivots, in a basis whose basic solution is nonnegative: a vertex.
When the leaving row has no negative entry, the row itself is the Farkas
row: its entries are all >= 0 and its rhs is < 0, so no x >= 0 meets it,
and it is a combination y of the rows.

Read-out: the vertex holds the structural values and the slack of every
inequality row (0 where nonbasic), with a Rat built only for a nonzero
basic value; scheduling.feasible_point reads each machine's completion
time off the slack of its load row.

Thread-safety: solves are pure functions of their input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .rational import Rat, rat

__all__ = [
    "LinearProgram",
    "Vertex",
    "FractionalGraph",
    "LpError",
    "solve_vertex",
    "fractional_graph",
    "job_machine_matching",
    "graph_components",
]


class LpError(Exception):
    """Internal solver failure (malformed program, broken invariant)."""


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


@dataclass(frozen=True)
class Vertex:
    """A basic feasible solution.

    values: the structural variables (exact rationals).
    slacks: the slack of each inequality row, in row order (b minus the
    row's left-hand side); an int 0 where the slack is nonbasic.
    """

    values: tuple[Rat, ...]
    slacks: tuple[Rat | int, ...]


def pivot(tableau: list[list[int]], r: int, c: int, den: int) -> int:
    """Integer-preserving Gaussian pivot on (r, c); returns the new denominator.

    The tableau stores den * (real tableau); after the update it stores
    piv * (real tableau) with piv = tableau[r][c]. The divisions are exact
    (entries stay minors of the original integer matrix). Rows are updated
    in place, skipping entries that stay zero; the pivot row itself is left
    untouched by construction.
    """
    prow = tableau[r]
    piv = prow[c]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            for j, b in enumerate(prow):
                a = row[j]
                if b:
                    row[j] = (piv * a - f * b) // den
                elif a:
                    row[j] = piv * a // den
        elif piv != den:
            for j, a in enumerate(row):
                if a:
                    row[j] = piv * a // den
    return piv


def solve_vertex(lp: LinearProgram, farkas: list[int] | None = None) -> Vertex | None:
    """Return a vertex of the polyhedron, or None when it is empty.

    The tableau starts as the stored integer rows, a unit slack column per
    inequality row and the rhs; no row is rescaled here.
    Crash: every inequality row's slack starts basic, and each equality row
    in turn takes its first nonzero column into the basis. A row left all
    zero is redundant (rhs 0: dropped) or proves the program empty.
    Dual phase: while a basic variable is negative, the row with the lowest
    basic label among the negative ones leaves and the lowest-index column
    with a negative entry in it enters (see the module docstring).

    When the polyhedron is empty and `farkas` is a list, it receives the
    row that proves it, integer and scaled by a positive factor: its
    entries on the structural columns, then on the slack columns (all
    >= 0), then its rhs (< 0). The row is -(y^T A, y_ineq, y^T b) for a
    Farkas ray y of the rows as stored (see LinearProgram), which for an
    integer program are the rows as given.
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
            den = pivot(tableau, r, enter, den)
            basis[r] = enter
            r += 1
        elif row[rhs] == 0:
            del tableau[r]
            del basis[r]
        else:
            if farkas is not None:
                farkas.extend(row if row[rhs] < 0 else [-v for v in row])
            return None

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
        den = pivot(tableau, leave, enter, den)
        basis[leave] = enter

    values = [rat(0)] * nv
    slacks = [0] * n_ineq
    for row, b in zip(tableau, basis):
        v = row[rhs]
        if v:
            if b < nv:
                values[b] = Rat(v, den)
            else:
                slacks[b - nv] = Rat(v, den)
    return Vertex(tuple(values), tuple(slacks))


@dataclass(frozen=True)
class FractionalGraph:
    """Bipartite structure of fractionally assigned jobs.

    Nodes are the machines 0..num_machines-1 plus every fractional job
    (a job with an assignment coordinate strictly between 0 and 1);
    edges join a fractional job to each machine carrying such a coordinate.
    """

    num_machines: int
    jobs: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def fractional_graph(
    x: Mapping[tuple[int, int], Rat], num_machines: int, strict: bool = True
) -> FractionalGraph:
    """Build the fractional-assignment graph of an LP point.

    For vertices of the parametric scheduling polyhedron the job side can
    hold at most num_machines nodes; under strict=True (the default for
    solver output) a violation flags an LP-solver bug and raises LpError.
    strict=False admits arbitrary feasible points.
    """
    jobs: list[int] = []
    edges: list[tuple[int, int]] = []
    by_job: dict[int, list[tuple[int, Rat]]] = {}
    for (j, i), v in x.items():
        by_job.setdefault(j, []).append((i, v))
    for j in sorted(by_job):
        entries = by_job[j]
        if any(0 < v < 1 for _, v in entries):
            jobs.append(j)
            for i, v in sorted(entries):
                if 0 < v < 1:
                    edges.append((j, i))
    if strict and len(jobs) > num_machines:
        raise LpError(
            f"vertex has {len(jobs)} fractional jobs for {num_machines} machines; "
            "lp-vertex bug"
        )
    return FractionalGraph(num_machines, tuple(jobs), tuple(edges))


def job_machine_matching(graph: FractionalGraph) -> dict[int, int] | None:
    """Injection from fractional jobs into machines along graph edges.

    Returns None when no perfect matching on the job side exists
    (for parametric-LP vertices one always does).
    """
    adj: dict[int, list[int]] = {j: [] for j in graph.jobs}
    for j, i in graph.edges:
        adj[j].append(i)
    machine_of_job: dict[int, int] = {}
    job_of_machine: dict[int, int] = {}

    def augment(j: int, seen: set[int]) -> bool:
        for i in adj[j]:
            if i in seen:
                continue
            seen.add(i)
            if i not in job_of_machine or augment(job_of_machine[i], seen):
                job_of_machine[i] = j
                machine_of_job[j] = i
                return True
        return False

    for j in graph.jobs:
        if not augment(j, set()):
            return None
    return machine_of_job


def graph_components(graph: FractionalGraph) -> dict[tuple[str, int], tuple[str, int]] | None:
    """Component root of every node on an edge, by union-find over the
    edges; None when the graph has a cycle. Nodes are ("job", j) and
    ("machine", i)."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, i in graph.edges:
        u, v = ("job", j), ("machine", i)
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
    return {node: find(node) for node in parent}
