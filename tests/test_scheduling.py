import dataclasses
import random

import pytest

from bnbapprox import profiles, scheduling
from bnbapprox.engine import AdapterContractError, Criterion, Node, Selection, run
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, SchedulingInstance, generate
from bnbapprox.lp import LpError, job_machine_matching
from bnbapprox.oracle import exact_opt
from bnbapprox.profiles import ProfileAdapter
from bnbapprox.rational import rat
from bnbapprox.rng import SplitMix64
from bnbapprox.scheduling import (
    ROUNDING_AS,
    ROUNDING_BM,
    ROUNDING_LST,
    Eligibility,
    SchedGrid,
    UnrelatedAdapter,
    min_feasible_T,
    mmp_pivot,
    round_vertex,
    solve_unrelated,
    scheme_depth_cap,
)
from guarantees import reference_fractional_jobs, schedule_makespan

P332 = ((rat(3), rat(3)), (rat(3), rat(3)), (rat(2), rat(2)))
T00 = (rat(0), rat(0))
# the same data on its grid (R = 1)
G332 = SchedGrid(1, ((3, 3), (3, 3), (2, 2)), (0, 0))
G7 = SchedGrid(1, ((7,),), (0,))


def _grid(P, t=T00):
    """Integer data as a SchedGrid on R = 1."""
    return SchedGrid(1, tuple(tuple(int(v) for v in row) for row in P), tuple(int(v) for v in t))


def test_min_feasible_T_332():
    res = min_feasible_T(G332, G332.t, range(3))
    assert res.T == 4
    assert res.loads == (4, 4)
    assert len(res.fractional_jobs) == 1
    # T=3 infeasible, certified by the bracket/walk-up invariant
    from bnbapprox.scheduling import feasible_point

    assert feasible_point(G332, G332.t, range(3), 3, Eligibility.PAPER, []) is None


def test_min_feasible_T_single_job():
    res = min_feasible_T(G7, G7.t, range(1))
    assert res.T == 7
    assert res.fractional_jobs == {}


def test_min_feasible_T_with_overheads():
    res = min_feasible_T(SchedGrid(1, ((10, 10),), (5, 0)), (5, 0), range(1))
    assert res.T == 10


def test_sched_grid_rational_data():
    inst = SchedulingInstance(
        UNRELATED, ((rat(3, 2), rat(3)), (rat(2), rat(4))), (rat(0), rat(1, 3))
    )
    grid = SchedGrid.build(inst)
    assert grid.R == 6
    assert grid.P == ((9, 18), (12, 24)) and grid.t == (0, 2)
    res = min_feasible_T(grid, grid.t, range(2))
    assert res.T == 18  # 3, on the grid 1/6
    assert UnrelatedAdapter(inst).bound_scale == 6


def test_adapter_rejects_an_unknown_rounding():
    # the root of this 2x2 instance is integral, so a run would never round
    inst = SchedulingInstance(UNRELATED, ((rat(1), rat(5)), (rat(5), rat(1))), T00)
    assert run(UnrelatedAdapter(inst), Selection.BEST_FIRST,
               Criterion("ratio-eps", rat(1, 10))).nodes_explored == 1
    with pytest.raises(ValueError, match="unknown rounding 'bogus'"):
        UnrelatedAdapter(inst, rounding="bogus")


def test_search_steps_on_the_node_grid():
    # fixing job 2 on machine 1 (1/3 + 2/3) leaves integer data: the node
    # step is 3 (the integers on R = 3), and the answer is the guess 2, not
    # the guess 5/3 of the instance's finer grid, which is feasible too
    inst = SchedulingInstance(
        UNRELATED, ((rat(1), rat(1)), (rat(1), rat(1)), (rat(1, 3), rat(2, 3))), (rat(0), rat(1, 3))
    )
    grid = SchedGrid.build(inst)
    assert grid.R == 3
    t = (0, grid.t[1] + grid.P[2][1])
    assert min_feasible_T(grid, t, (0, 1)).T == 6
    assert scheduling.feasible_point(grid, t, (0, 1), 5, Eligibility.PAPER, []) is not None


def test_round_vertex_modes_on_332():
    point = min_feasible_T(G332, G332.t, range(3))
    for mode in (ROUNDING_AS, ROUNDING_BM, ROUNDING_LST):
        assignment, makespan = round_vertex(point, G332.P, G332.t, mode)
        assert sorted(assignment) == [0, 1, 2]
        assert makespan == 5
        assert makespan <= 2 * point.T


def test_round_vertex_integral_passthrough():
    point = min_feasible_T(G7, G7.t, range(1))
    assignment, makespan = round_vertex(point, G7.P, G7.t, ROUNDING_LST)
    assert assignment == {0: 0} and makespan == 7


def test_lst_rounding_bound_random():
    rng = SplitMix64(2024)
    for trial in range(60):
        grid = SchedGrid.build(generate("scheduling-unrelated", 7, 3, 5000 + trial))
        t = list(grid.t)
        jobs = list(range(len(grid.P)))
        for _ in range(rng.randint(0, 2)):
            j = jobs.pop(rng.randint(0, len(jobs) - 1))
            i = rng.randint(0, len(t) - 1)
            t[i] += grid.P[j][i]
        res = min_feasible_T(grid, tuple(t), jobs)
        _, makespan = round_vertex(res, grid.P, tuple(t), ROUNDING_LST)
        assert makespan <= 2 * res.T


def test_bm_rounding_guards_against_blowup():
    from bnbapprox.scheduling import LpPoint

    m = 40
    P = tuple(tuple(1 for _ in range(m)) for _ in range(m))
    x = {(j, i): rat(1, 2) for j in range(6) for i in (0, 1)}
    point = LpPoint(10, x, (0,) * m, dict.fromkeys(range(6), (0, 1)), {})
    with pytest.raises(ValueError):
        round_vertex(point, P, (0,) * m, ROUNDING_BM)


def test_mmp_pivot_rules():
    from bnbapprox.scheduling import LpPoint

    P = ((rat(9), rat(5)), (rat(8), rat(5)), (rat(9), rat(9)))
    split = (0, 1)  # each fractional job's machines
    point = LpPoint(rat(10), {}, (rat(0), rat(0)), dict.fromkeys((0, 1, 2), split), {})
    assert mmp_pivot(point, P) == 2  # min times 5, 5, 9
    point2 = LpPoint(rat(10), {}, (rat(0), rat(0)), dict.fromkeys((0, 1), split), {})
    assert mmp_pivot(point2, P) == 0  # tie on 5 -> lowest id
    single = LpPoint(rat(10), {}, (rat(0), rat(0)), {1: split}, {})
    assert mmp_pivot(single, P) == 1
    with pytest.raises(ValueError):
        mmp_pivot(LpPoint(rat(1), {}, (rat(0),), {}, {}), P)


def test_bs_dominates_lr():
    rng = SplitMix64(77)
    for trial in range(40):
        grid = SchedGrid.build(generate("scheduling-unrelated", 6, 3, 900 + trial))
        t = list(grid.t)
        jobs = list(range(len(grid.P)))
        for _ in range(rng.randint(0, 3)):
            j = jobs.pop(rng.randint(0, len(jobs) - 1))
            i = rng.randint(0, len(t) - 1)
            t[i] += grid.P[j][i]
        bs = min_feasible_T(grid, tuple(t), jobs, Eligibility.RESIDUAL)
        paper = min_feasible_T(grid, tuple(t), jobs, Eligibility.PAPER)
        lr = min_feasible_T(grid, tuple(t), jobs, Eligibility.ALL)
        assert bs.T >= paper.T >= lr.T


def test_unrelated_guarantee_small():
    eps = rat(1, 2)
    for seed in range(10):
        inst = generate("scheduling-unrelated", 6, 2, seed)
        opt = exact_opt(inst).optimum
        out = solve_unrelated(inst, eps)
        assert schedule_makespan(inst, out.assignment) == out.makespan
        assert out.makespan <= (1 + eps) * opt
        assert out.makespan >= opt


def test_unrelated_eps1_m2_size_bounds():
    eps = rat(1)
    for seed in range(10):
        inst = generate("scheduling-unrelated", 8, 2, 40 + seed)
        out = solve_unrelated(inst, eps)
        assert out.result.max_depth <= scheme_depth_cap(2, eps) == 4
        assert out.result.nodes_processed <= 2**4


def test_bfs_variant_with_depth_cap():
    eps = rat(1, 2)
    for seed in range(8):
        inst = generate("scheduling-unrelated", 7, 2, 70 + seed)
        opt = exact_opt(inst).optimum
        cap = scheme_depth_cap(inst.m, eps)
        out = solve_unrelated(inst, eps, selection=Selection.BFS, depth_cap=cap)
        assert out.result.max_depth <= cap
        assert out.makespan <= (1 + eps) * opt


def test_lr_bounding_and_bm_rounding_run():
    eps = rat(1, 2)
    inst = generate("scheduling-unrelated", 6, 3, 123)
    opt = exact_opt(inst).optimum
    for bounding in ("BS", "LR"):
        for rounding in (ROUNDING_AS, ROUNDING_BM):
            for sel in (Selection.BEST_FIRST, Selection.DFS, Selection.BFS):
                adapter = UnrelatedAdapter(inst, bounding=bounding, rounding=rounding)
                result = run(adapter, sel, Criterion("ratio-eps", eps), node_limit=2000)
                assert schedule_makespan(inst, result.best_solution) == result.best_value
                assert result.best_value >= opt


def test_vertex_structure_on_random_instances():
    # <= m fractional jobs and a saturating machine matching (Hall check)
    for seed in range(40):
        inst = generate("scheduling-unrelated", 8, 3, 300 + seed)
        grid = SchedGrid.build(inst)
        res = min_feasible_T(grid, grid.t, range(inst.n))
        assert len(res.fractional_jobs) <= inst.m
        fractional = reference_fractional_jobs(res.x)
        matching = job_machine_matching(fractional)
        assert matching is not None
        assert sorted(matching) == sorted(fractional)


def test_identical_instance_through_unrelated_adapter():
    inst = SchedulingInstance(
        IDENTICAL, P332, T00, (rat(3), rat(3), rat(2)), (rat(1), rat(1))
    )
    out = solve_unrelated(inst, rat(1))
    assert out.makespan == 5  # reaches the optimum here
    assert out.result.termination == "ratio-met"


# --- search edges --------------------------------------------------------


def _count_lp_solves(monkeypatch):
    calls = []
    kernel = scheduling.solve_vertex

    def counting(lp, *args, **kwargs):
        calls.append(lp)
        return kernel(lp, *args, **kwargs)

    monkeypatch.setattr(scheduling, "solve_vertex", counting)
    return calls


def test_lower_bracket_answer_takes_one_lp_solve(monkeypatch):
    calls = _count_lp_solves(monkeypatch)
    # t_min is the largest minimal processing time
    assert min_feasible_T(G7, G7.t, range(1)).T == 7
    assert len(calls) == 1
    # t_min is the averaged load bound (3 + 3 + 2) / 2
    calls.clear()
    assert min_feasible_T(G332, G332.t, range(3)).T == 4
    assert len(calls) == 1
    # t_min is the averaged load bound 9 / 2 rounded up onto the grid
    calls.clear()
    assert min_feasible_T(_grid(((3, 3),) * 3), (0, 0), range(3)).T == 5
    assert len(calls) == 1
    # t_min is the lower hint
    grid = _grid(((3, 5), (4, 2), (6, 6)), (2, 0))
    t_min = min_feasible_T(grid, grid.t, range(3)).T
    assert t_min == 7
    calls.clear()
    assert min_feasible_T(grid, grid.t, range(3), lo_hint=t_min).T == t_min
    assert len(calls) == 1


def test_lower_bracket_infeasible_walks_up_past_the_ray(monkeypatch):
    calls = _count_lp_solves(monkeypatch)
    # lower bracket max(5, (5 + 5) / 2) = 5, but at 5 both jobs need machine 0
    grid = _grid(((5, 9), (5, 9)))
    res = min_feasible_T(grid, grid.t, range(2))
    assert res.T > 5 and len(calls) > 1
    # the lower end is probed first: at T = 5 both jobs crash onto machine 0,
    # whose load row (the last row) keeps the rhs T - 5 - 5
    assert calls[0][-1][-1] == 5 - 5 - 5
    assert res.T == min_feasible_T(grid, grid.t, range(2), lo_hint=res.T - 1).T


def test_a_ray_reaching_the_upper_bracket_raises(monkeypatch):
    # a ray that claims every guess up to k_hi infeasible empties the bracket
    monkeypatch.setattr(scheduling, "ray_reach", lambda ray, P, t, jobs, k, k_hi, r: k_hi)
    grid = _grid(((5, 9), (5, 9)))  # the lower bracket 5 is infeasible
    for rule in Eligibility:
        with pytest.raises(LpError, match="upper bracket infeasible"):
            min_feasible_T(grid, grid.t, range(2), rule)
    # a search whose lower bracket is feasible reads no ray
    assert min_feasible_T(G332, G332.t, range(3)).T == 4


def test_children_fix_the_node_pivot():
    for seed in range(10):
        inst = generate(UNRELATED, 7, 3, 9800 + seed)
        for bounding in ("BS", "LR"):
            adapter = UnrelatedAdapter(inst, bounding=bounding)
            state = adapter.root_payload()
            info = adapter.bound(state)
            if info.leaf:
                continue
            point = min_feasible_T(adapter.grid, state.t, state.jobs, adapter.eligibility)
            assert state.pivot == mmp_pivot(point, adapter.P)
            node = Node(0, None, 0, info.lb, info.ub, 0, False, state)
            children = adapter.branch(node)
            assert [child.fixed for child in children] == [
                (state.pivot, i, None) for i in range(inst.m)
            ]
            assert all(child.lo_hint == info.lb for child in children)


# --- guarantee checks ----------------------------------------------------

UNRELATED332 = SchedulingInstance(UNRELATED, P332, T00)


def _break_lst_matching(monkeypatch):
    # every fractional job goes to a machine no vertex uses: 100 > 2 * 4
    grid = SchedGrid(1, tuple(row + (100,) for row in G332.P), (0,) * 3)
    P, t = grid.P, grid.t
    point = min_feasible_T(grid, t, range(3))
    monkeypatch.setattr(
        scheduling, "job_machine_matching", lambda fractional: dict.fromkeys(fractional, 2)
    )
    round_vertex(point, P, t, ROUNDING_LST)


def _break_integral_guess(monkeypatch):
    search = scheduling.min_feasible_T

    def lowered(*args, **kwargs):
        point = search(*args, **kwargs)
        return dataclasses.replace(point, T=point.T - 1)

    monkeypatch.setattr(scheduling, "min_feasible_T", lowered)
    inst = SchedulingInstance(UNRELATED, ((rat(7), rat(9)),), T00)
    adapter = UnrelatedAdapter(inst)  # one job: the root vertex is integral
    adapter.bound(adapter.root_payload())


def _break_profile_integral_guess(monkeypatch):
    inst = SchedulingInstance(UNIFORM, ((rat(7), rat(7)),), T00, (rat(7),), (rat(1), rat(1)))
    search = profiles.min_feasible_T

    def lowered(*args, **kwargs):
        point = search(*args, **kwargs)
        return dataclasses.replace(point, T=point.T - 1)

    # the root is bounded with the vertex normalize found, so the search
    # is lowered before the adapter normalizes the instance
    monkeypatch.setattr(profiles, "min_feasible_T", lowered)
    adapter = ProfileAdapter(inst, rat(1, 10), "similarity")  # one job: integral
    adapter.bound(adapter.root_payload())


def _break_pivot_bound(monkeypatch):
    monkeypatch.setattr(
        scheduling, "round_vertex",
        lambda point, P, t, mode: (dict(point.integral_assignment), rat(10**6)),
    )
    adapter = UnrelatedAdapter(UNRELATED332)
    adapter.bound(adapter.root_payload())


def _break_depth_cap(monkeypatch):
    monkeypatch.setattr(scheduling, "scheme_depth_cap", lambda m, eps: 0)
    solve_unrelated(UNRELATED332, rat(1, 100))  # the root (4, 5) must branch


@pytest.mark.guarantee
@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_lst_matching, "twice the guess"),
        (_break_integral_guess, "minimal guess"),
        (_break_profile_integral_guess, "minimal guess"),
        (_break_pivot_bound, "pivot-controlled bound"),
        (_break_depth_cap, "best-first tree reached depth"),
    ],
)
def test_broken_guarantee_raises(breaker, message, monkeypatch):
    with pytest.raises(AdapterContractError, match=message):
        breaker(monkeypatch)


def test_unbroken_guarantees_pass():
    grid = SchedGrid(1, tuple(row + (100,) for row in G332.P), (0,) * 3)
    round_vertex(min_feasible_T(grid, grid.t, range(3)), grid.P, grid.t, ROUNDING_LST)
    inst = SchedulingInstance(UNRELATED, ((rat(7), rat(9)),), T00)
    UnrelatedAdapter(inst).bound(UnrelatedAdapter(inst).root_payload())
    UnrelatedAdapter(UNRELATED332).bound(UnrelatedAdapter(UNRELATED332).root_payload())
    assert solve_unrelated(UNRELATED332, rat(1, 100)).result.max_depth >= 1


def test_broken_guarantee_raises_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the guarantee checks must not be
    # asserts, so their tests have to pass there too
    assert optimize_pass.not_passed("test_scheduling.py") == [], optimize_pass.out
