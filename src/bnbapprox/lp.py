"""Exact-rational LP feasibility and vertex computation.

The solver answers one question: is the polyhedron
{x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} non-empty, and if so, return a
vertex (basic feasible solution). There is no objective; optimization is
expressed by the callers (the walk up the makespan guesses, Dantzig's
greedy for the knapsack bound). When the polyhedron is empty the solver
can hand back its final phase-1 objective row, from which the caller
reads a Farkas ray y over the rows: y^T A <= 0 on every column, y_r <= 0
on every inequality row r and y^T b > 0. Only phase 1 runs.

Method: phase-1 simplex with Bland's rule on a fraction-free integer
tableau. Every row is scaled to integers once, from the numerators and
denominators of its nonzero entries; pivoting keeps entries integral
(they are minors of the input matrix), so the hot loop does no gcd work
at all.

Each equality row, and each inequality row with a negative right-hand
side, starts with an artificial basic variable. The tableau stores only
the structural columns, the slack columns and the right-hand side: an
artificial never re-enters the basis and a pivot never mixes columns, so
the artificial columns would be dead weight. Artificials keep their
labels (num_vars + len(inequalities) + k, in row order) in the basis,
because the ratio test breaks ties by the lowest basic label. Bland's
rule plus that tie-break makes runs deterministic and cycle-free.

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
    """num_vars non-negative variables, equality and <=-inequality rows."""

    num_vars: int
    equalities: tuple[tuple[tuple[Rat, ...], Rat], ...] = ()
    inequalities: tuple[tuple[tuple[Rat, ...], Rat], ...] = ()

    def __post_init__(self):
        if self.num_vars < 0:
            raise LpError("negative variable count")
        for coeffs, _ in self.equalities + self.inequalities:
            if len(coeffs) != self.num_vars:
                raise LpError("row references undeclared variables")


@dataclass(frozen=True)
class Vertex:
    """A basic feasible solution.

    values: the structural variables (exact rationals).
    basis: basic column indices in the standard form; columns
    0..num_vars-1 are structural, the next len(inequalities) are slacks.
    """

    values: tuple[Rat, ...]
    basis: tuple[int, ...]


def _scaled_int_row(coeffs: Sequence[Rat], rhs: Rat) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as plain integers."""
    scale = 1
    for v in coeffs:
        if v:
            d = v.denominator
            if d != 1:
                scale = math.lcm(scale, d)
    d = rhs.denominator
    if d != 1:
        scale = math.lcm(scale, d)
    if scale == 1:
        return [v.numerator for v in coeffs], rhs.numerator
    row = [v.numerator * (scale // v.denominator) if v else 0 for v in coeffs]
    return row, rhs.numerator * (scale // d)


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

    When the polyhedron is empty and `farkas` is a list, it receives the
    final phase-1 objective row, integer and scaled by the tableau's
    positive denominator: the reduced costs of the structural columns, then
    of the slack columns (all >= 0), then the rhs cell (minus the optimal
    artificial sum, < 0). The row is -(y^T A, y_ineq, y^T b) for a Farkas
    ray y of the rows as scaled to integers, which for an integer program
    are the rows as given.
    """
    nv = lp.num_vars
    n_ineq = len(lp.inequalities)
    n_slack_cols = nv + n_ineq

    # Rows span the structural and slack columns plus the rhs; an artificial
    # basic variable appears only as its label n_slack_cols + k in `basis`.
    tableau: list[list[int]] = []
    basis: list[int] = []
    art_rows: list[int] = []
    for i, (coeffs, b) in enumerate(lp.equalities + lp.inequalities):
        row, bi = _scaled_int_row(coeffs, b)
        row.extend([0] * n_ineq)
        k = i - len(lp.equalities)
        if k >= 0:
            row[nv + k] = 1
        row.append(bi)
        if bi < 0:
            row = [-v for v in row]
        if k < 0 or bi < 0:
            basis.append(n_slack_cols + len(art_rows))
            art_rows.append(i)
        else:
            basis.append(nv + k)
        tableau.append(row)
    nrows = len(tableau)
    in_basis = set(basis)

    # Phase-1 objective: minimize the artificial sum. Its reduced costs on
    # the stored columns are minus the column sums over the artificial rows;
    # the rhs cell holds -objective. (Summing row by row, not via zip(*rows),
    # avoids a k-tuple per column, which the tuple free lists would keep.)
    obj = [0] * (n_slack_cols + 1)
    for i in art_rows:
        obj = [o - v for o, v in zip(obj, tableau[i])]
    tableau.append(obj)
    obj_idx = nrows

    den = 1
    rhs_col = n_slack_cols
    while True:
        enter = -1
        objrow = tableau[obj_idx]
        for j in range(n_slack_cols):
            if objrow[j] < 0 and j not in in_basis:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(nrows):
            row = tableau[i]
            a = row[enter]
            if a > 0:
                bi = row[rhs_col]
                if leave < 0 or bi * best_den < best_num * a or (
                    bi * best_den == best_num * a and basis[i] < basis[leave]
                ):
                    leave, best_num, best_den = i, bi, a
        if leave < 0:  # phase-1 objective is bounded below; cannot happen
            raise LpError("unbounded phase-1 ray")
        den = pivot(tableau, leave, enter, den)
        in_basis.discard(basis[leave])
        in_basis.add(enter)
        basis[leave] = enter

    if tableau[obj_idx][rhs_col] != 0:
        if farkas is not None:
            farkas.extend(tableau[obj_idx])
        return None

    del tableau[obj_idx]

    # Drive zero-valued artificials out of the basis; drop redundant rows.
    live = list(range(nrows))
    for pos in range(nrows - 1, -1, -1):
        i = live[pos]
        if basis[i] < n_slack_cols:
            continue
        row = tableau[pos]
        enter = -1
        for j in range(n_slack_cols):
            if row[j] != 0 and j not in in_basis:
                enter = j
                break
        if enter < 0:
            del tableau[pos]
            del live[pos]
            continue
        if row[enter] < 0:
            # Row negation is safe: the artificial's value is zero here.
            tableau[pos] = [-v for v in row]
        den = pivot(tableau, pos, enter, den)
        in_basis.discard(basis[i])
        in_basis.add(enter)
        basis[i] = enter

    values = [rat(0)] * nv
    out_basis = []
    for pos, i in enumerate(live):
        b = basis[i]
        out_basis.append(b)
        if b < nv:
            values[b] = Rat(tableau[pos][rhs_col], den)
    return Vertex(tuple(values), tuple(sorted(out_basis)))


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
