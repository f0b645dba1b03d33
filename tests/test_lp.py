import random
from fractions import Fraction

import pytest

from bnbapprox import lp, scheduling
from bnbapprox.lp import LpError, job_machine_matching, pivot
from bnbapprox.rational import rat
from bnbapprox.scheduling import SchedGrid, build_load_lp, feasible_point, split_jobs
from guarantees import graph_is_forest
from lp_oracle import LinearProgram, enumerate_vertices, load_program, solve_vertex


def satisfies(lp, values):
    """Exact re-substitution check of every constraint (incl. x >= 0)."""
    if len(values) != lp.num_vars or any(v < 0 for v in values):
        return False
    for coeffs, b in lp.equalities:
        if sum(c * v for c, v in zip(coeffs, values)) != b:
            return False
    for coeffs, b in lp.inequalities:
        if sum(c * v for c, v in zip(coeffs, values)) > b:
            return False
    return True


def test_solve_trivial_equality():
    # {x >= 0, x <= 1, x = 1} -> vertex x = 1
    lp = LinearProgram(1, (((rat(1),), rat(1)),), (((rat(1),), rat(1)),))
    vertex = solve_vertex(lp)
    assert vertex is not None and vertex.values == (rat(1),)


def test_solve_infeasible_pair():
    # x1 + x2 = 1, x1 <= 1/2, x2 <= 1/3 -> infeasible
    lp = LinearProgram(
        2,
        (((rat(1), rat(1)), rat(1)),),
        (((rat(1), rat(0)), rat(1, 2)), ((rat(0), rat(1)), rat(1, 3))),
    )
    assert solve_vertex(lp) is None


G332 = SchedGrid(1, ((3, 3), (3, 3), (2, 2)), (0, 0))


def test_rational_rows_are_stored_on_integers():
    # a program with a non-integer puts each row on integers once, at
    # construction, times the lcm of its denominators; a program of ints
    # keeps its rows as given
    ints = ((1, 0, 2), 3)
    lp = LinearProgram(3, (ints,), (((rat(1, 2), rat(0), rat(2, 3)), rat(5, 6)), ints))
    assert lp.equalities == (ints,)
    assert lp.inequalities == (((3, 0, 4), 5), ints)
    assert all(type(v) is int for coeffs, b in lp.inequalities for v in (*coeffs, b))
    assert LinearProgram(1, (), (((rat(2),), rat(4)),)).inequalities == (((2,), 4),)
    program = LinearProgram(3, (ints,), (ints,))
    assert program.equalities[0] is ints and program.inequalities[0] is ints


def test_vertex_slacks_are_the_rows_slack():
    # x1 + x2 = 1, x1 <= 1/2 (stored as 2 x1 <= 1), x2 <= 3: the crash puts
    # x1 = 1, the dual step moves half of it to x2
    lp = LinearProgram(2, (((1, 1), 1),), (((rat(1), rat(0)), rat(1, 2)), ((0, 1), 3)))
    vertex = solve_vertex(lp)
    assert vertex is not None and vertex.values == (rat(1, 2), rat(1, 2))
    assert vertex.slacks == (0, rat(5, 2))
    for (coeffs, b), slack in zip(lp.inequalities, vertex.slacks):
        assert b - sum(c * v for c, v in zip(coeffs, vertex.values)) == slack


def test_parametric_lp_332_all_basic_solutions():
    # m=2 identical machines, jobs (3,3,2), T=4: feasible, and every vertex
    # has at most 2 fractional jobs (checked by full enumeration)
    built = load_program(G332, G332.t, range(3), 4)
    assert built is not None
    program, pairs = built
    vertices = enumerate_vertices(program)
    assert vertices  # feasible
    for values in vertices:
        frac_jobs = {
            pairs[k][0] for k, v in enumerate(values) if 0 < v < 1
        }
        assert len(frac_jobs) <= 2
    point = feasible_point(G332, G332.t, range(3), 4)
    assert point is not None
    assert point.loads == (4, 4)  # T minus each load row's slack
    assert tuple(point.x[p] for p in pairs if p in point.x)  # solver agrees it is feasible
    assert len(point.fractional_jobs) <= 2


def test_build_load_lp_writes_the_crashed_tableau():
    # jobs (3,3,2) on two identical machines at T=4: every job crashes onto
    # machine 0 (ties go to the lowest machine), whose load row loses
    # 3 + 3 + 2 from its rhs and -p on each job's machine-1 column
    tableau, basis, pairs, machines = build_load_lp(G332, G332.t, range(3), 4)
    assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert machines == [0, 1]
    assert tableau == [
        [1, 1, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 1, 1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 1, 0, 0, 1],
        [0, -3, 0, -3, 0, -2, 1, 0, -4],
        [0, 3, 0, 3, 0, 2, 0, 1, 4],
    ]
    assert basis == [0, 2, 4, 6, 7]
    # the dual phase moves job 0 to machine 1 and a third of job 1 after it
    vertex = lp.solve_vertex(tableau, basis, 6, 2)
    assert vertex == lp.Vertex((0, 1, rat(2, 3), rat(1, 3), 1, 0), (0, 0))


def test_a_node_without_unfixed_jobs_has_loads_t():
    # no job rows and no load rows: the width comes from the counts, not
    # from a first row
    assert build_load_lp(G332, (1, 3), (), 3) == ([], [], [], [])
    assert lp.solve_vertex([], [], 0, 0) == lp.Vertex((), ())
    point = feasible_point(G332, (1, 3), (), 3)
    assert point is not None
    assert point.loads == (1, 3) and point.x == {} and point.fractional_jobs == {}


def test_a_machine_without_a_load_row_completes_at_its_overhead():
    # at T=3 machine 1 is closed (t_1 = 3), and under restrict no job is
    # eligible on machine 2 (p = 4 > 3): neither takes a load row, so both
    # complete at their overheads, and both jobs go to machine 0
    grid = SchedGrid(1, ((2, 2, 4), (1, 1, 4)), (0, 3, 1))
    tableau, basis, pairs, machines = build_load_lp(grid, grid.t, range(2), 3)
    assert pairs == [(0, 0), (1, 0)] and machines == [0]
    point = feasible_point(grid, grid.t, range(2), 3)
    assert point is not None
    assert point.loads == (3, 3, 1) and point.integral_assignment == {0: 0, 1: 0}
    # without restrict machine 2 takes columns and a load row
    _, _, pairs, machines = build_load_lp(grid, grid.t, range(2), 3, restrict=False)
    assert machines == [0, 2] and (0, 2) in pairs


def test_vertex_resubstitution_and_enumeration_agreement():
    rnd = random.Random(424242)
    feasible_count = 0
    for _ in range(400):
        nv = rnd.randint(1, 6)
        eqs = tuple(
            (tuple(rat(rnd.randint(-3, 3)) for _ in range(nv)), rat(rnd.randint(-2, 4)))
            for _ in range(rnd.randint(0, 2))
        )
        ineqs = tuple(
            (tuple(rat(rnd.randint(-3, 3)) for _ in range(nv)), rat(rnd.randint(-2, 6)))
            for _ in range(rnd.randint(0, 3))
        )
        lp = LinearProgram(nv, eqs, ineqs)
        vertex = solve_vertex(lp)
        vertices = enumerate_vertices(lp)
        if vertex is None:
            assert not vertices
        else:
            feasible_count += 1
            assert satisfies(lp, vertex.values)
            assert vertex.values in vertices
    assert feasible_count > 100


def test_solver_deterministic():
    lp = LinearProgram(
        3,
        (((rat(1), rat(1), rat(1)), rat(2)),),
        (((rat(2), rat(0), rat(1)), rat(3)), ((rat(0), rat(1), rat(1)), rat(2))),
    )
    first = solve_vertex(lp)
    for _ in range(5):
        assert solve_vertex(lp) == first


def test_fractional_graph_shapes():
    # fully integral point: no fractional job
    assert split_jobs({(0, 1): rat(1), (1, 0): rat(1)}, range(2)) == ({}, {0: 1, 1: 0})
    # one split job over both machines (from the (3,3,2)/T=4 system)
    point = feasible_point(G332, G332.t, range(3), 4)
    assert point is not None
    fractional = point.fractional_jobs
    assert list(fractional.values()) == [(0, 1)]
    assert graph_is_forest(fractional)
    matching = job_machine_matching(fractional)
    assert matching is not None and set(matching) == set(fractional)


@pytest.mark.guarantee
def test_feasible_point_flags_too_many_fractional_jobs(monkeypatch):
    # a forged vertex that splits all three jobs of G332 over both machines
    forged = lp.Vertex((rat(1, 2),) * 6, (0, 0))
    monkeypatch.setattr(scheduling, "solve_vertex", lambda *args: forged)
    with pytest.raises(LpError, match="3 fractional jobs for 2 machines"):
        feasible_point(G332, G332.t, range(3), 4)


def test_graph_cycle_detection():
    x = {(0, 0): rat(1, 2), (0, 1): rat(1, 2), (1, 0): rat(1, 2), (1, 1): rat(1, 2)}
    fractional, _ = split_jobs(x, range(2))
    assert fractional == {0: (0, 1), 1: (0, 1)}
    assert not graph_is_forest(fractional)


def test_pivot_matches_fraction_gaussian_pivot():
    # The tableau holds den * (real tableau); after pivoting on (r, c) it
    # must hold piv * (the exact Gauss-Jordan pivot of the real tableau),
    # over a chain of pivots on the same tableau.
    rnd = random.Random(9)
    for _ in range(200):
        rows = rnd.randint(2, 5)
        cols = rnd.randint(2, 6)
        tab = [[rnd.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        r = rnd.randrange(rows)
        c = rnd.randrange(cols)
        if tab[r][c] == 0:
            tab[r][c] = 3
        den = 1
        for _ in range(rnd.randint(1, 3)):
            real = [[Fraction(v, den) for v in row] for row in tab]
            expected = [
                [v / real[r][c] for v in row]
                if i == r
                else [v - row[c] / real[r][c] * p for v, p in zip(row, real[r])]
                for i, row in enumerate(real)
            ]
            den = pivot(tab, r, c, den)
            assert den == tab[r][c]
            assert [[Fraction(v, den) for v in row] for row in tab] == expected
            candidates = [
                (i, j) for i in range(rows) for j in range(cols) if i != r and tab[i][j]
            ]
            if not candidates:
                break
            r, c = rnd.choice(candidates)
