"""Differential test: solve_vertex must pivot exactly like the dense solver.

`reference_solve_vertex` below is the dense fraction-free phase-1 simplex
that `bnbapprox.lp.solve_vertex` replaced: it stores an artificial column
per artificial row, tests basis membership on a list, pivots with an
indexed loop and scales rows with Fraction arithmetic. The production
solver drops the artificial columns and works on plain integers; Bland's
rule and the label tie-break must still choose the same pivots, so both
return the same `Vertex` (values and basis) or both None.
"""
import math
import random

from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, generate
from bnbapprox.lp import LinearProgram, LpError, Vertex, solve_vertex
from bnbapprox.profiles import normalize
from bnbapprox.rational import Rat, rat
from bnbapprox.scheduling import SchedGrid, build_load_lp, min_feasible_T


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
    out_basis = []
    for pos, i in enumerate(live):
        b = basis[i]
        out_basis.append(b)
        if b < nv:
            values[b] = Rat(tableau[pos][rhs_col], den)
    return Vertex(tuple(values), tuple(sorted(out_basis)))


def _assert_same(lp: LinearProgram) -> Vertex | None:
    got = solve_vertex(lp)
    assert got == reference_solve_vertex(lp)
    return got


def _random_rat(rnd: random.Random, lo: int, hi: int) -> Rat:
    return rat(rnd.randint(lo, hi), rnd.choice((1, 1, 2, 3, 4, 6, 7)))


def _random_row(rnd: random.Random, nv: int, density: float) -> tuple[Rat, ...]:
    return tuple(
        _random_rat(rnd, -5, 5) if rnd.random() < density else rat(0) for _ in range(nv)
    )


def test_random_rational_lps_match_reference():
    rnd = random.Random(20250415)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        nv = rnd.randint(1, 7)
        density = rnd.choice((0.4, 0.7, 1.0))
        eqs = tuple(
            (_random_row(rnd, nv, density), _random_rat(rnd, -3, 6))
            for _ in range(rnd.randint(0, 3))
        )
        ineqs = tuple(
            (_random_row(rnd, nv, density), _random_rat(rnd, -3, 8))
            for _ in range(rnd.randint(0, 4))
        )
        outcomes[_assert_same(LinearProgram(nv, eqs, ineqs)) is not None] += 1
    assert outcomes[True] > 50 and outcomes[False] > 20


def test_negative_rhs_on_both_row_types_match_reference():
    rnd = random.Random(77)
    feasible = 0
    for _ in range(200):
        nv = rnd.randint(2, 6)
        eqs = tuple(
            (_random_row(rnd, nv, 0.8), -_random_rat(rnd, 1, 6))
            for _ in range(rnd.randint(1, 2))
        )
        ineqs = tuple(
            (_random_row(rnd, nv, 0.8), -_random_rat(rnd, 0, 4))
            for _ in range(rnd.randint(1, 3))
        )
        feasible += _assert_same(LinearProgram(nv, eqs, ineqs)) is not None
    assert feasible > 20


def test_degenerate_rows_match_reference():
    rnd = random.Random(5)
    redundant = 0
    for _ in range(200):
        nv = rnd.randint(2, 6)
        base = [
            (_random_row(rnd, nv, 0.7), _random_rat(rnd, 0, 4))
            for _ in range(rnd.randint(1, 3))
        ]
        eqs = list(base)
        # duplicated and scaled copies make redundant equality rows
        for coeffs, b in base:
            if rnd.random() < 0.6:
                f = _random_rat(rnd, 1, 3)
                eqs.append((tuple(f * c for c in coeffs), f * b))
        if rnd.random() < 0.5:
            eqs.append(((rat(0),) * nv, rat(0)))  # all-zero row
        rnd.shuffle(eqs)
        ineqs = [
            (_random_row(rnd, nv, 0.7), rat(0) if rnd.random() < 0.5 else _random_rat(rnd, 0, 4))
            for _ in range(rnd.randint(0, 3))
        ]
        if rnd.random() < 0.3:
            ineqs.append(((rat(0),) * nv, rat(0)))
        lp = LinearProgram(nv, tuple(eqs), tuple(ineqs))
        vertex = _assert_same(lp)
        if vertex is not None and len(vertex.basis) < len(eqs) + len(ineqs):
            redundant += 1
    assert redundant > 20


def _load_lps_around_optimum(grid, t, jobs):
    """build_load_lp output at guesses below, at and above the smallest
    feasible guess on the grid, with and without the eligibility filter."""
    k_min = min_feasible_T(grid, t, jobs).T
    guesses = [k_min + k for k in (-3, -1, 0, 1, 4)] + [rat(3 * k_min, 2)]
    for T in guesses:
        for restrict in (True, False):
            built = build_load_lp(grid.P, t, jobs, T, restrict)
            if built is not None:
                yield built[0]


def test_unrelated_load_lps_match_reference():
    solved = 0
    for seed in range(8):
        inst = generate(UNRELATED, 6 + seed % 3, 2 + seed % 3, 9100 + seed)
        grid, m = SchedGrid.build(inst), inst.m
        jobs = list(range(inst.n))
        # a root node and a node with two jobs fixed onto machines
        fixed = {jobs[0]: 0, jobs[1]: m - 1}
        t = [0] * m
        for j, i in fixed.items():
            t[i] += grid.P[j][i]
        for overheads, free in ((grid.t, jobs), (tuple(t), jobs[2:])):
            for lp in _load_lps_around_optimum(grid, overheads, free):
                solved += _assert_same(lp) is not None
    assert solved > 50


def test_normalized_uniform_load_lps_match_reference():
    solved = 0
    for seed in range(6):
        kind = UNIFORM if seed % 2 else IDENTICAL
        grid, _, _ = normalize(generate(kind, 6, 3, 7300 + seed))
        jobs = list(range(len(grid.P)))
        for lp in _load_lps_around_optimum(grid, grid.t, jobs):
            solved += _assert_same(lp) is not None
    assert solved > 20
