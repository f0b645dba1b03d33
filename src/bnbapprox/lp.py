"""Exact-rational vertex computation for the load LP.

The solver answers one question: is the polyhedron
{x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} non-empty, and if so, return a
vertex (basic feasible solution). There is no objective; optimization is
expressed by the callers (the walk up the makespan guesses), which need
some vertex, not a particular one. When the polyhedron is empty the solver
can hand back the tableau row that proves it, from which the caller reads
a Farkas ray y over the rows: y^T A <= 0 on every column, y_r <= 0 on
every inequality row r and y^T b > 0.

Tableau: fraction-free and integer. Columns are the structural variables,
then one slack per inequality row, then the right-hand side; there are no
artificials. Each row i has its own denominator at[i], which may be
negative: the Bareiss denominator of the last pivot that changed the row
(Bareiss, Math. Comp. 1968), so the row holds that pivot's integer entries
(minors of the input matrix) and its real entries are row / at[i]. A pivot
skips every row with a 0 in the entering column, whose real entries do not
change, and updates each other row straight to the new denominator with
divisions that are exact. No entry is reduced by a gcd or normalized in
sign, so every value a solve reads (the leave test, the entering column,
the Farkas row, the vertex) is the one a common-denominator tableau holds.

Crash basis: the caller hands over the tableau already crashed, with a
basic label per row and denominator 1. scheduling.build_load_lp writes it
straight from the data: each job's assignment row takes the job's first
column, its fastest open and eligible machine, which is a unit pivot that
only subtracts that column's processing time times the job's 0/1 row from
the machine's load row; every load row's slack is basic. So the crash puts
every job wholly on its fastest machine, and its only infeasibilities are
overfull machines. The general crash of any equality rows, which this one
must equal, is the tests' reference (tests/lp_oracle.py).

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

Fractional graph: scheduling.feasible_point classifies a vertex's jobs
once (scheduling.split_jobs), into a mapping from each fractional job to
its machines in ascending order. job_machine_matching and
graph_components read that mapping as a bipartite graph with an edge from
each fractional job to each of its machines.

Thread-safety: a solve touches nothing but the tableau and basis it is
handed, which it pivots in place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .rational import Rat, rat

__all__ = [
    "Vertex",
    "LpError",
    "solve_vertex",
    "job_machine_matching",
    "graph_components",
]


class LpError(Exception):
    """Internal solver failure (malformed program, broken invariant)."""


@dataclass(frozen=True)
class Vertex:
    """A basic feasible solution.

    values: the structural variables (exact rationals).
    slacks: the slack of each inequality row, in row order (b minus the
    row's left-hand side); an int 0 where the slack is nonbasic.
    """

    values: tuple[Rat, ...]
    slacks: tuple[Rat | int, ...]


def pivot(tableau: list[list[int]], at: list[int], r: int, c: int, den: int) -> int:
    """Fraction-free Gaussian pivot on (r, c) over per-row denominators;
    returns the new denominator piv.

    Row i stores at[i] * (real row i), where at[i] is the Bareiss
    denominator of the last pivot that changed the row and den is that of
    the last pivot of all. Row r is first brought to den (b * den // at[r],
    exact because Bareiss entries are minors of the input matrix), and piv
    is its entry in column c. A row with a 0 in column c keeps its real
    entries, so it is skipped; every other row becomes piv * (its new real
    row), (piv * a - f * b) // at[i] entry by entry, again exact, and takes
    at[i] = piv. Row r keeps its den-scaled entries and takes at[r] = piv.
    The rows and `at` change in place.
    """
    prow = tableau[r]
    d = at[r]
    if d != den:
        for j, b in enumerate(prow):
            if b:
                prow[j] = b * den // d
    piv = prow[c]
    for i, row in enumerate(tableau):
        f = row[c]
        if f and i != r:
            d = at[i]
            for j, b in enumerate(prow):
                a = row[j]
                if b:
                    row[j] = (piv * a - f * b) // d
                elif a:
                    row[j] = piv * a // d
            at[i] = piv
    at[r] = piv
    return piv


def solve_vertex(
    tableau: list[list[int]],
    basis: list[int],
    num_vars: int,
    num_slacks: int,
    farkas: list[int],
) -> Vertex | None:
    """Return a vertex of the polyhedron, or None when it is empty.

    `tableau` is the crashed tableau on integers with denominator 1: one
    row per basic variable, num_vars structural columns, then num_slacks
    slack columns (one per inequality row, in row order), then the rhs;
    `basis` holds each row's basic column, which is 1 on its row and 0 on
    every other. Both are pivoted in place, the tableau on per-row
    denominators that the solve keeps to itself. The dual phase runs while a
    basic variable is negative: the row with the lowest basic label among
    the negative ones leaves and the lowest-index column with a negative
    entry in it enters (see the module docstring).

    When the polyhedron is empty, `farkas` receives the row that proves
    it, integer and scaled by a positive factor: its entries on the
    structural columns, then on the slack columns (all >= 0), then its rhs
    (< 0). The row is -(y^T A, y_ineq, y^T b) for a Farkas ray y of the
    rows of the program the tableau was crashed from.
    """
    rhs = num_vars + num_slacks  # the rhs column; every column before it is a variable
    at = [1] * len(tableau)  # each row's denominator (see pivot)
    den = 1
    while True:
        leave = -1
        for i, row in enumerate(tableau):
            if row[rhs] * at[i] < 0 and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            break
        row = tableau[leave]
        sign = 1 if at[leave] > 0 else -1
        enter = -1
        for j in range(rhs):
            if row[j] * sign < 0:
                enter = j
                break
        if enter < 0:  # farkas gets the row brought to den, times den's sign
            farkas.extend(v * abs(den) // at[leave] for v in row)
            return None
        den = pivot(tableau, at, leave, enter, den)
        basis[leave] = enter

    values = [rat(0)] * num_vars
    slacks = [0] * num_slacks
    for row, b, d in zip(tableau, basis, at):
        v = row[rhs]
        if v:
            if b < num_vars:
                values[b] = Rat(v, d)
            else:
                slacks[b - num_vars] = Rat(v, d)
    return Vertex(tuple(values), tuple(slacks))


def job_machine_matching(fractional: Mapping[int, Sequence[int]]) -> dict[int, int] | None:
    """Injection from the fractional jobs into machines, each job to one
    of its machines; the jobs are tried in mapping order and their
    machines in the order given.

    Returns None when no perfect matching on the job side exists
    (for parametric-LP vertices one always does).
    """
    machine_of_job: dict[int, int] = {}
    job_of_machine: dict[int, int] = {}

    def augment(j: int, seen: set[int]) -> bool:
        for i in fractional[j]:
            if i in seen:
                continue
            seen.add(i)
            if i not in job_of_machine or augment(job_of_machine[i], seen):
                job_of_machine[i] = j
                machine_of_job[j] = i
                return True
        return False

    for j in fractional:
        if not augment(j, set()):
            return None
    return machine_of_job


def graph_components(
    fractional: Mapping[int, Sequence[int]],
) -> dict[tuple[str, int], tuple[str, int]] | None:
    """Component root of every node on an edge (j, i), i a machine of the
    fractional job j, by union-find over the edges; None when the graph
    has a cycle. Nodes are ("job", j) and ("machine", i)."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, machines in fractional.items():
        for i in machines:
            u, v = ("job", j), ("machine", i)
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru == rv:
                return None
            parent[ru] = rv
    return {node: find(node) for node in parent}
