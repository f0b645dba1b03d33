"""Differential test: solve_vertex against a phase-1 simplex and the oracle.

`reference_solve_vertex` below is a dense fraction-free phase-1 simplex
from an all-artificial basis: it stores an artificial column per artificial
row, tests basis membership on a list, pivots with an indexed loop and
scales rows with Fraction arithmetic. It shares no pivot choice with the
production solver (a crash basis and a zero-cost dual simplex), so the two
reach different vertices; what they must share is the feasibility
decision. On top of that, every answer of the production solver is checked
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
the uniform and identical schemes solve. The same tests run again in a
`python -O` subprocess.
"""
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox import scheduling
from bnbapprox.engine import Selection
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, generate
from bnbapprox.lp import LinearProgram, LpError, Vertex, solve_vertex
from bnbapprox.profiles import normalize, solve_uniform
from bnbapprox.rational import Rat, rat
from bnbapprox.scheduling import ROUNDING_AS, build_load_lp, min_feasible_T, solve_unrelated
from lp_oracle import enumerate_vertices


def _reference_pivot(tableau, r, c, den):
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
        den = _reference_pivot(tableau, leave, enter, den)
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
        den = _reference_pivot(tableau, pos, enter, den)
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


@functools.cache
def _recorded_load_lps(kind: str) -> tuple[LinearProgram, ...]:
    """Every load LP that tiny unrelated runs (integer data) or uniform and
    identical runs (the profile schemes' normalized grid) hand to the
    solver, each once; for the latter, whose hinted searches seldom probe
    an empty LP, also the root's LPs around its smallest feasible guess."""
    recorded = []
    kernel = scheduling.solve_vertex

    def recording(lp, farkas=None):
        recorded.append(lp)
        return kernel(lp, farkas)

    scheduling.solve_vertex = recording
    try:
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
                grid, _, _ = normalize(inst)
                jobs = range(len(grid.P))
                k_min = min_feasible_T(grid, grid.t, jobs).T
                for k in range(k_min - 3, k_min + 2):
                    for restrict in (True, False):
                        built = build_load_lp(grid, grid.t, jobs, k, restrict)
                        if built is not None:
                            recorded.append(built[0])
    finally:
        scheduling.solve_vertex = kernel
    lps = tuple(dict.fromkeys(recorded))
    infeasible = sum(solve_vertex(lp) is None for lp in lps)
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


def _check_load_lp(lp: LinearProgram) -> None:
    _check(lp)
    # no row of a load LP is redundant: its rows have full rank
    rows = _scaled_rows(lp)
    assert _rank([row[:-1] for row in rows]) == len(rows)


@PROPERTY
@given(st.data())
def test_unrelated_load_lps_match_reference(data):
    _check_load_lp(data.draw(st.sampled_from(_recorded_load_lps(UNRELATED))))


@PROPERTY
@given(st.data())
def test_normalized_uniform_load_lps_match_reference(data):
    _check_load_lp(data.draw(st.sampled_from(_recorded_load_lps(UNIFORM))))


def test_lp_checks_under_optimize_flag():
    # `python -O` strips assert statements; the solver must not rest on them
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.abspath(__file__), "-k", "match_reference"],
        capture_output=True, text=True, env=env, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "5 passed" in proc.stdout
