"""Farkas rays of the T-search: every guess a ray skips is infeasible.

`min_feasible_T` walks up its grid: an infeasible probe at k hands back a
Farkas ray (the tableau row that proved it empty), `ray_reach` checks it and
returns the last guess k2 it still proves infeasible, and the next probe is
the first step above k2 (k2 + 1 at a root, whose data need the whole
instance grid). The property below solves every skipped guess with
`feasible_point` and re-checks the ray at k2 in `Fraction`s on the
program `lp_oracle.load_program` writes there (the program whose crash
`build_load_lp` writes, see test_lp_differential), and checks that the search's upper bracket
(the largest overhead plus every job's shortest time) is a feasible guess.
The contract tests forge rays that prove nothing and expect `LpError`, also
under `python -O`.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox import scheduling
from bnbapprox.instances import UNRELATED, SchedulingInstance
from bnbapprox.lp import LpError
from bnbapprox.scheduling import (
    FarkasRay,
    SchedGrid,
    feasible_point,
    min_feasible_T,
    ray_reach,
)
from lp_oracle import load_program

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

_size = st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3)))
_overhead = st.builds(Fraction, st.integers(0, 6), st.sampled_from((1, 2)))


@st.composite
def tiny_instances(draw):
    """Processing times P[j][i] and overheads t of an unrelated, uniform or
    identical instance with n, m <= 3; sometimes all jobs are equal."""
    kind = draw(st.sampled_from(("unrelated", "uniform", "identical")))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    equal = draw(st.booleans())
    if kind == "unrelated":
        rows = [tuple(draw(_size) for _ in range(m)) for _ in range(1 if equal else n)]
    else:
        sizes = [draw(_size) for _ in range(1 if equal else n)]
        speeds = [draw(st.integers(1, 3)) if kind == "uniform" else 1 for _ in range(m)]
        rows = [tuple(p / s for s in speeds) for p in sizes]
    P = tuple(rows * n if equal else rows)
    t = tuple(draw(_overhead) for _ in range(m))
    return P, t


def _certifies(ray: FarkasRay, lp, pairs) -> bool:
    """z = -y proves the program empty: z^T A >= 0 on every column, the
    slacks included, and z^T b < 0. Rows are matched to jobs and machines
    through their first nonzero column."""
    z = []
    for coeffs, _ in lp.equalities:
        j = pairs[next(c for c, v in enumerate(coeffs) if v)][0]
        z.append(-Fraction(ray.y_jobs[j]))
    for coeffs, _ in lp.inequalities:
        i = pairs[next(c for c, v in enumerate(coeffs) if v)][1]
        z.append(-Fraction(ray.y_machines[i]))
    rows = lp.equalities + lp.inequalities
    for c in range(lp.num_vars):
        if sum(zr * Fraction(coeffs[c]) for zr, (coeffs, _) in zip(z, rows)) < 0:
            return False
    if any(zr < 0 for zr in z[len(lp.equalities):]):
        return False
    return sum(zr * Fraction(b) for zr, (_, b) in zip(z, rows)) < 0


@PROPERTY
@given(tiny_instances())
def test_every_guess_a_ray_skips_is_infeasible(instance):
    grid = SchedGrid.build(SchedulingInstance(UNRELATED, *instance))
    PD, tD = grid.P, grid.t
    jobs = tuple(range(len(PD)))
    for restrict in (True, False):
        # start below the search's own lower bracket, where rays are longest
        k = max(tD)
        if restrict:
            k = max(k, max(min(row) for row in PD))
        # the search's upper bracket: every job on its fastest machine
        k_hi = max(max(tD) + sum(min(row) for row in PD), k)
        assert feasible_point(grid, tD, jobs, k_hi, restrict) is not None
        while True:
            rays = []
            if feasible_point(grid, tD, jobs, k, restrict, rays) is not None:
                break
            if not rays:  # build_load_lp ruled k out without a solve
                k += 1
                continue
            k2 = ray_reach(rays[0], PD, tD, jobs, k, k_hi, restrict)
            assert k <= k2 <= k_hi
            for guess in range(k, k2 + 1):
                assert feasible_point(grid, tD, jobs, guess, restrict) is None
            built = load_program(grid, tD, jobs, k2, restrict)
            assert built is not None
            assert _certifies(rays[0], *built)
            k = k2 + 1
        assert min_feasible_T(grid, tD, jobs, restrict).T == k


# --- forged rays ---------------------------------------------------------

PD55 = ((5, 9), (5, 9))  # infeasible from 5 to 8 under restrict
T00 = (0, 0)
G55 = SchedGrid(1, PD55, T00)


def test_the_lp_ray_reaches_the_next_column():
    rays = []
    assert feasible_point(G55, T00, (0, 1), 5, True, rays) is None
    # machine 1 takes columns at 9, where the LP becomes feasible
    assert ray_reach(rays[0], PD55, T00, (0, 1), 5, 20, True) == 8
    # without eligibility the ray breaks where its infeasibility runs out
    rays = []
    assert feasible_point(G55, (0, 6), (0, 1), 7, False, rays) is None
    reach = ray_reach(rays[0], PD55, (0, 6), (0, 1), 7, 20, False)
    assert feasible_point(G55, (0, 6), (0, 1), reach + 1, False) is not None


def _zero_infeasibility(monkeypatch):
    # a job row against a load row: 1 + (-1/5) * 5 = 0 at guess 5
    ray = FarkasRay({0: 1, 1: 0}, (Fraction(-1, 5), 0))
    ray_reach(ray, PD55, T00, (0, 1), 5, 20, True)


def _positive_column(monkeypatch):
    # infeasibility 2 at guess 5, but column (0, 0) weighs 1 - 0 * 5 > 0
    ray = FarkasRay({0: 1, 1: 1}, (0, 0))
    ray_reach(ray, PD55, T00, (0, 1), 5, 20, True)


def _positive_slack(monkeypatch):
    ray = FarkasRay({0: -5, 1: -5}, (1, 0))
    ray_reach(ray, PD55, T00, (0, 1), 5, 20, True)


def _forged_lp_row(monkeypatch):
    # a solver that reports an all-zero Farkas row: the search must not
    # skip a single guess on it
    kernel = scheduling.solve_vertex

    def forging(tableau, basis, num_vars, num_slacks, farkas=None):
        vertex = kernel(tableau, basis, num_vars, num_slacks, farkas)
        if vertex is None and farkas is not None:
            farkas[:] = [0] * len(farkas)
        return vertex

    monkeypatch.setattr(scheduling, "solve_vertex", forging)
    min_feasible_T(G55, T00, range(2))


@pytest.mark.guarantee
@pytest.mark.parametrize(
    "forger, message",
    [
        (_zero_infeasibility, "infeasibility 0 <= 0"),
        (_positive_column, r"positive on column \(0, 0\)"),
        (_positive_slack, "positive on the slack of machine 0"),
        (_forged_lp_row, "infeasibility 0 <= 0"),
    ],
)
def test_forged_ray_raises(forger, message, monkeypatch):
    with pytest.raises(LpError, match=message):
        forger(monkeypatch)


def test_forged_ray_raises_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the ray checks must not be
    # asserts, so their tests have to pass there too
    assert optimize_pass.not_passed("test_tsearch_rays.py") == [], optimize_pass.out
