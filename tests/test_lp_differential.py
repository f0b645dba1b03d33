"""Differential test: the LP solvers against a phase-1 simplex and the oracle.

Two solvers are under test. `lp_oracle.solve_vertex` is the general one:
a `LinearProgram` of any rows, a general crash, then the zero-cost dual
simplex. The load LP's own path is `scheduling.build_load_lp`, which
writes the crashed tableau straight from the data, and `lp.solve_vertex`,
the dual phase alone. On every load LP the two must agree entry for
entry: the tableau and basis that `build_load_lp` writes are those that
`lp_oracle.crash` reaches on `lp_oracle.load_program`'s program of the
same node and guess, and `lp.solve_vertex` returns the same `Vertex`, or
the same Farkas row, as `lp_oracle.solve_vertex`.

`reference_solve_vertex` below is a dense fraction-free phase-1 simplex
from an all-artificial basis: it stores an artificial column per artificial
row, tests basis membership on a list, pivots with an indexed loop and
scales rows with Fraction arithmetic. It shares no pivot choice with the
general solver (a crash basis and a zero-cost dual simplex), so the two
reach different vertices; what they must share is the feasibility
decision. On top of that, every answer of the general solver is checked
against what it claims:

- a returned vertex lies in `lp_oracle.enumerate_vertices`, its slacks are
  those of its values, and the columns of its support in the standard form
  (structural and slack) are linearly independent: a basic solution;
- on an empty polyhedron the Farkas row has entries >= 0 and a negative
  rhs, and it is -(y^T A, y_ineq, y^T b) for row weights y of the rows as
  scaled to integers, which the test solves for: so y^T b > 0 while
  y^T A <= 0 and y_ineq <= 0, a proof that no x >= 0 exists.

Hypothesis draws small rational programs around named cases: random rows,
negative right-hand sides on both row types, and degenerate ones (zero
right-hand sides, duplicated and scaled rows, redundant and contradictory
equalities); and it picks among the load LPs that tiny unrelated runs and
the uniform and identical schemes solve. The crash comparison runs on
every one of those load LPs, on tiny nodes drawn with ties in the
fastest-first order, closed machines and jobs eligible on one machine
only, and on rational nodes whose data lie on a coarser grid than the
instance's (node step g > 1). The tests carry the `guarantee` marker, so
they run again in the one `python -O` pass (test_no_asserts.py).
"""
import contextlib
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox import lp, scheduling
from bnbapprox.engine import Selection
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, SchedulingInstance, generate
from bnbapprox.lp import LpError, Vertex
from bnbapprox.profiles import normalize, solve_uniform
from bnbapprox.rational import Rat, rat
from bnbapprox.scheduling import (
    ROUNDING_AS,
    SchedGrid,
    build_load_lp,
    min_feasible_T,
    solve_unrelated,
)
from lp_oracle import (
    LinearProgram,
    crash,
    enumerate_vertices,
    load_program,
    reference_pivot,
    solve_vertex,
)

pytestmark = pytest.mark.guarantee


def _reference_scaled_int_row(coeffs, rhs):
    scale = 1
    for v in coeffs:
        scale = math.lcm(scale, rat(v).denominator)
    scale = math.lcm(scale, rat(rhs).denominator)
    row = [int(v * scale) for v in coeffs]
    return row, int(rhs * scale)


def reference_solve_vertex(lp: LinearProgram) -> Vertex | None:
    nv = lp.num_vars
    n_eq = len(lp.equalities)
    n_ineq = len(lp.inequalities)
    n_slack_cols = nv + n_ineq

    rows, rhss, needs_artificial = [], [], []
    for coeffs, b in lp.equalities:
        row, bi = _reference_scaled_int_row(coeffs, b)
        row.extend([0] * n_ineq)
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        rows.append(row)
        rhss.append(bi)
        needs_artificial.append(True)
    for k, (coeffs, b) in enumerate(lp.inequalities):
        row, bi = _reference_scaled_int_row(coeffs, b)
        row.extend([0] * n_ineq)
        row[nv + k] = 1
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
            rows.append(row)
            rhss.append(bi)
            needs_artificial.append(True)
        else:
            rows.append(row)
            rhss.append(bi)
            needs_artificial.append(False)

    nrows = len(rows)
    n_art = sum(needs_artificial)
    ncols = n_slack_cols + n_art

    basis = []
    art_col = n_slack_cols
    tableau = []
    art_rows = []
    for i, row in enumerate(rows):
        full = row + [0] * n_art
        if needs_artificial[i]:
            full[art_col] = 1
            basis.append(art_col)
            art_rows.append(i)
            art_col += 1
        else:
            basis.append(nv + i - n_eq)
        full.append(rhss[i])
        tableau.append(full)

    obj = [0] * (ncols + 1)
    for j in range(ncols):
        cj = 1 if j >= n_slack_cols else 0
        obj[j] = cj - sum(tableau[i][j] for i in art_rows)
    obj[ncols] = -sum(tableau[i][ncols] for i in art_rows)
    tableau.append(obj)
    obj_idx = nrows

    den = 1
    rhs_col = ncols
    while True:
        enter = -1
        objrow = tableau[obj_idx]
        for j in range(n_slack_cols):
            if objrow[j] < 0 and j not in basis:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                bi = tableau[i][rhs_col]
                if leave < 0 or bi * best_den < best_num * a or (
                    bi * best_den == best_num * a and basis[i] < basis[leave]
                ):
                    leave, best_num, best_den = i, bi, a
        if leave < 0:
            raise LpError("unbounded phase-1 ray")
        den = reference_pivot(tableau, leave, enter, den)
        basis[leave] = enter

    if tableau[obj_idx][rhs_col] != 0:
        return None

    del tableau[obj_idx]

    live = list(range(nrows))
    for pos in range(nrows - 1, -1, -1):
        i = live[pos]
        if basis[i] < n_slack_cols:
            continue
        enter = -1
        for j in range(n_slack_cols):
            if tableau[pos][j] != 0 and j not in basis:
                enter = j
                break
        if enter < 0:
            del tableau[pos]
            del live[pos]
            continue
        if tableau[pos][enter] < 0:
            tableau[pos] = [-v for v in tableau[pos]]
        den = reference_pivot(tableau, pos, enter, den)
        basis[i] = enter

    values = [rat(0)] * nv
    slacks = [0] * n_ineq
    for pos, i in enumerate(live):
        b = basis[i]
        if b < nv:
            values[b] = Rat(tableau[pos][rhs_col], den)
        elif b < n_slack_cols:
            slacks[b - nv] = Rat(tableau[pos][rhs_col], den)
    return Vertex(tuple(values), tuple(slacks))


def _scaled_rows(lp: LinearProgram):
    """The rows over structural and slack columns plus the rhs, each scaled
    to integers as LinearProgram stores them (the slack entry stays 1)."""
    nv, n_ineq = lp.num_vars, len(lp.inequalities)
    rows = []
    for k, (coeffs, b) in enumerate(lp.equalities + lp.inequalities):
        row, bi = _reference_scaled_int_row(coeffs, b)
        slacks = [0] * n_ineq
        if k >= len(lp.equalities):
            slacks[k - len(lp.equalities)] = 1
        rows.append(row + slacks + [bi])
    return rows


def _rank(rows) -> int:
    """Rank of a list of rows, by Fraction elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _solve_left(rows, target):
    """Weights w with sum_k w_k rows[k] == target, or None: Fraction
    elimination on the transposed system."""
    k = len(rows)
    if k == 0:
        return [] if not any(target) else None
    a = [[Fraction(rows[r][c]) for r in range(k)] + [Fraction(target[c])]
         for c in range(len(target))]
    where = []
    rank = 0
    for col in range(k):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        where.append(col)
        rank += 1
    if any(row[k] for row in a[rank:]):
        return None
    w = [Fraction(0)] * k
    for r, col in enumerate(where):
        w[col] = a[r][k]
    return w


def _check_vertex(lp: LinearProgram, vertex: Vertex) -> None:
    nv, n_ineq = lp.num_vars, len(lp.inequalities)
    assert vertex.values in enumerate_vertices(lp)
    rows = _scaled_rows(lp)
    # the full standard-form point: structural values, then each slack
    point = list(vertex.values)
    for row in rows[len(lp.equalities):]:
        point.append(row[-1] - sum(c * v for c, v in zip(row[:nv], vertex.values)))
    assert tuple(point[nv:]) == vertex.slacks
    support = [c for c in range(nv + n_ineq) if point[c] != 0]
    assert _rank([[row[c] for c in support] for row in rows]) == len(support)


def _check_farkas(lp: LinearProgram, farkas: list[int]) -> None:
    nv, n_eq, n_ineq = lp.num_vars, len(lp.equalities), len(lp.inequalities)
    assert len(farkas) == nv + n_ineq + 1
    assert all(type(v) is int for v in farkas)
    assert all(v >= 0 for v in farkas[:-1]) and farkas[-1] < 0
    rows = _scaled_rows(lp)
    # y_ineq is read off the slack entries; y_eq must make up the rest
    y_ineq = [-v for v in farkas[nv:nv + n_ineq]]
    rest = [-v for v in farkas]
    for y, row in zip(y_ineq, rows[n_eq:]):
        rest = [r - y * a for r, a in zip(rest, row)]
    y_eq = _solve_left(rows[:n_eq], rest)
    assert y_eq is not None, "the Farkas row is no combination of the rows"
    y = y_eq + y_ineq
    assert all(v <= 0 for v in y_ineq)
    combined = [sum(w * row[c] for w, row in zip(y, rows)) for c in range(nv + n_ineq + 1)]
    assert all(v <= 0 for v in combined[:nv]) and combined[-1] > 0


def _check(lp: LinearProgram) -> None:
    farkas: list[int] = []
    got = solve_vertex(lp, farkas)
    assert (got is None) == (reference_solve_vertex(lp) is None)
    if got is None:
        _check_farkas(lp, farkas)
    else:
        assert farkas == []
        _check_vertex(lp, got)


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_values = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _programs(draw, cases):
    case = draw(st.sampled_from(cases))
    nv = draw(st.integers(min_value=1, max_value=5))

    def row():
        coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), _values),
                               min_size=nv, max_size=nv))
        rhs = Fraction(0) if case == "zero-rhs" else draw(_values)
        if case == "negative-rhs":
            rhs = -abs(rhs) - Fraction(draw(st.integers(0, 2)))
        return tuple(coeffs), rhs

    eqs = [row() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    ineqs = [row() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    if case == "duplicate-rows":
        rows = draw(st.sampled_from((eqs, ineqs)))
        if rows:
            coeffs, rhs = draw(st.sampled_from(rows))
            f = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3))))
            rows.append((tuple(f * c for c in coeffs), f * rhs))
    if case in ("redundant-equality", "contradictory-equality"):
        # the sum of two equalities (or an all-zero row), with its rhs
        # shifted by one when it is to contradict them
        pair = draw(st.lists(st.sampled_from(eqs), max_size=2)) if eqs else []
        coeffs = tuple(sum((c[k] for c, _ in pair), Fraction(0)) for k in range(nv))
        rhs = sum((b for _, b in pair), Fraction(0))
        if case == "contradictory-equality":
            rhs += 1
        eqs.insert(draw(st.integers(min_value=0, max_value=len(eqs))), (coeffs, rhs))
    return case, LinearProgram(nv, tuple(eqs), tuple(ineqs))


@contextlib.contextmanager
def _recording_builds():
    """Record the arguments of every scheduling.build_load_lp call made
    inside the block, in the list it yields."""
    probes: list = []
    original = scheduling.build_load_lp

    def recording(grid, t, jobs, T, restrict=True):
        probes.append((grid, tuple(t), tuple(jobs), T, restrict))
        return original(grid, t, jobs, T, restrict)

    scheduling.build_load_lp = recording
    try:
        yield probes
    finally:
        scheduling.build_load_lp = original


@functools.cache
def _recorded_load_lps(kind: str) -> tuple[tuple[LinearProgram, tuple], ...]:
    """Every load LP that tiny unrelated runs (integer data) or uniform and
    identical runs (the profile schemes' normalized grid) hand to the
    solver, each once, with the build_load_lp arguments of its first
    probe; for the latter, whose hinted searches seldom probe an empty LP,
    also the root's LPs around its smallest feasible guess."""
    with _recording_builds() as recorded:
        for seed in range(3):
            if kind == UNRELATED:
                inst = generate(UNRELATED, 4, 2 + seed % 2, 9100 + seed)
                for bounding in ("BS", "LR"):
                    for selection in (Selection.BEST_FIRST, Selection.DFS):
                        solve_unrelated(inst, rat(1, 100), selection, bounding, ROUNDING_AS)
                continue
            for profile_kind in (UNIFORM, IDENTICAL):
                inst = generate(profile_kind, 5, 2, 7300 + seed)
                solve_uniform(inst, rat(1, 10))
                grid, _, _, _ = normalize(inst)
                jobs = tuple(range(len(grid.P)))
                k_min = min_feasible_T(grid, grid.t, jobs).T
                for k in range(k_min - 3, k_min + 2):
                    for restrict in (True, False):
                        recorded.append((grid, grid.t, jobs, k, restrict))
    programs: dict[LinearProgram, tuple] = {}
    for args in recorded:
        built = load_program(*args)
        if built is not None:
            programs.setdefault(built[0], args)
    lps = tuple(programs.items())
    infeasible = sum(solve_vertex(program) is None for program, _ in lps)
    assert infeasible > 5 and len(lps) - infeasible > 5, (len(lps), infeasible)
    return lps


@PROPERTY
@given(_programs(("random",)))
def test_random_rational_lps_match_reference(drawn):
    _check(drawn[1])


@PROPERTY
@given(_programs(("negative-rhs",)))
def test_negative_rhs_on_both_row_types_match_reference(drawn):
    _check(drawn[1])


@PROPERTY
@given(_programs(("zero-rhs", "duplicate-rows", "redundant-equality",
                  "contradictory-equality")))
def test_degenerate_rows_match_reference(drawn):
    _check(drawn[1])


def _check_load_lp(drawn) -> None:
    program, args = drawn
    _check(program)
    # no row of a load LP is redundant: its rows have full rank
    rows = _scaled_rows(program)
    assert _rank([row[:-1] for row in rows]) == len(rows)
    _check_crash(args)


def _check_crash(args) -> None:
    """build_load_lp(*args) writes the tableau and basis that the general
    crash reaches on the same program, and lp.solve_vertex then returns
    the general solver's vertex or Farkas row."""
    built = build_load_lp(*args)
    reference = load_program(*args)
    assert (built is None) == (reference is None)
    if built is None:
        return
    tableau, basis, pairs, machines = built
    program, want_pairs = reference
    assert tuple(pairs) == want_pairs
    # the load rows are those of the machines with columns, in machine order
    assert machines == sorted({i for _, i in want_pairs})
    assert len(machines) == len(program.inequalities)
    crashed = crash(program)
    assert crashed is not None
    want_tableau, want_basis, den = crashed
    assert den == 1
    assert tableau == want_tableau and basis == want_basis
    assert all(type(v) is int for row in tableau for v in row)
    farkas: list[int] = []
    want_farkas: list[int] = []
    got = lp.solve_vertex(tableau, basis, len(pairs), len(machines), farkas)
    assert got == solve_vertex(program, want_farkas)
    assert farkas == want_farkas


@PROPERTY
@given(st.data())
def test_unrelated_load_lps_match_reference(data):
    _check_load_lp(data.draw(st.sampled_from(_recorded_load_lps(UNRELATED))))


@PROPERTY
@given(st.data())
def test_normalized_uniform_load_lps_match_reference(data):
    _check_load_lp(data.draw(st.sampled_from(_recorded_load_lps(UNIFORM))))


def test_recorded_load_lp_crashes_match_reference():
    for kind in (UNRELATED, UNIFORM):
        for _, args in _recorded_load_lps(kind):
            _check_crash(args)


@st.composite
def _tiny_nodes(draw):
    """build_load_lp arguments of a tiny node around named cases: ties in
    the fastest-first order (times 1 to 3), a closed machine (T = t_i), and
    a job eligible on one machine only."""
    case = draw(st.sampled_from(("ties", "closed", "single-eligible")))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = 3 if case == "ties" else 6
    P = [[draw(st.integers(1, top)) for _ in range(m)] for _ in range(n)]
    t = [draw(st.integers(0, 3)) for _ in range(m)]
    T = draw(st.integers(max(t) + 1, max(t) + 6))
    restrict = draw(st.booleans())
    i = draw(st.integers(0, m - 1))
    if case == "closed":
        t[i] = T
    if case == "single-eligible":
        restrict = True
        P[0] = [draw(st.integers(1, T)) if k == i else T + draw(st.integers(1, 3))
                for k in range(m)]
    jobs = tuple(draw(st.permutations(range(n))))
    return SchedGrid(1, tuple(map(tuple, P)), tuple(t)), tuple(t), jobs, T, restrict


@PROPERTY
@given(_tiny_nodes())
def test_tiny_node_load_lp_crashes_match_reference(args):
    _check_crash(args)


@st.composite
def _coarse_nodes(draw):
    """A rational unrelated instance whose unfixed jobs take halves and
    whose last job, which the node has fixed, takes sixths: the grid has
    R = 6 and the node step is 3 or 6."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [tuple(Fraction(draw(st.integers(1, 8)), 2) for _ in range(m)) for _ in range(n)]
    fixed = tuple(Fraction(draw(st.sampled_from((1, 5, 7))), 6) for _ in range(m))
    t = tuple(Fraction(draw(st.integers(0, 3))) for _ in range(m))
    grid = SchedGrid.build(SchedulingInstance(UNRELATED, (*rows, fixed), t))
    return grid, tuple(range(n)), draw(st.booleans())


@PROPERTY
@given(_coarse_nodes())
def test_coarse_grid_load_lp_crashes_match_reference(node):
    grid, jobs, restrict = node
    g = math.gcd(grid.R, *grid.t, *itertools.chain(*[grid.P[j] for j in jobs]))
    assert grid.R == 6 and g > 1
    with _recording_builds() as probes:
        min_feasible_T(grid, grid.t, jobs, restrict)
    assert probes and all(T % g == 0 for *_, T, _ in probes)
    for args in probes:
        _check_crash(args)


def test_lp_checks_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the solver must not rest on them
    assert optimize_pass.not_passed("test_lp_differential.py") == [], optimize_pass.out
