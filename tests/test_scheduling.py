import dataclasses
import os
import random
import subprocess
import sys

import pytest

from bnbapprox import scheduling
from bnbapprox.engine import AdapterContractError, Criterion, Node, Selection, run
from bnbapprox.instances import IDENTICAL, UNRELATED, SchedulingInstance, generate
from bnbapprox.lp import LpError, fractional_graph, job_machine_matching
from bnbapprox.oracle import exact_opt
from bnbapprox.rational import rat
from bnbapprox.rng import SplitMix64
from bnbapprox.scheduling import (
    ROUNDING_AS,
    ROUNDING_BM,
    ROUNDING_LST,
    UnrelatedAdapter,
    grid_denominator,
    list_schedule,
    min_feasible_T,
    mmp_pivot,
    round_vertex,
    solve_unrelated,
    scheme_depth_cap,
)
from guarantees import schedule_makespan

P332 = ((rat(3), rat(3)), (rat(3), rat(3)), (rat(2), rat(2)))
T00 = (rat(0), rat(0))


def test_min_feasible_T_332():
    res = min_feasible_T(P332, T00, range(3))
    assert res.T == 4
    assert res.loads == (rat(4), rat(4))
    assert len(res.fractional_jobs) == 1
    # T=3 infeasible, certified by the bracket/walk-up invariant
    from bnbapprox.scheduling import feasible_point

    assert feasible_point(P332, T00, range(3), rat(3)) is None


def test_min_feasible_T_single_job():
    res = min_feasible_T(((rat(7),),), (rat(0),), range(1))
    assert res.T == 7
    assert res.fractional_jobs == ()


def test_min_feasible_T_with_overheads():
    res = min_feasible_T(((rat(10), rat(10)),), (rat(5), rat(0)), range(1))
    assert res.T == 10


def test_grid_denominator_rational_data():
    P = ((rat(3, 2), rat(3)), (rat(2), rat(4)))
    assert grid_denominator(P, (rat(0), rat(1, 3)), range(2)) == 6
    res = min_feasible_T(P, (rat(0), rat(0)), range(2))
    assert res.T.denominator in (1, 2)  # grid multiple of 1/2


def test_round_vertex_modes_on_332():
    point = min_feasible_T(P332, T00, range(3))
    for mode in (ROUNDING_AS, ROUNDING_BM, ROUNDING_LST):
        assignment, makespan = round_vertex(point, P332, T00, mode)
        assert sorted(assignment) == [0, 1, 2]
        assert makespan == 5
        assert makespan <= 2 * point.T


def test_round_vertex_integral_passthrough():
    point = min_feasible_T(((rat(7),),), (rat(0),), range(1))
    assignment, makespan = round_vertex(point, ((rat(7),),), (rat(0),), ROUNDING_LST)
    assert assignment == {0: 0} and makespan == 7


def test_lst_rounding_bound_random():
    rng = SplitMix64(2024)
    for trial in range(60):
        inst = generate("scheduling-unrelated", 7, 3, 5000 + trial)
        t = list(inst.overheads)
        jobs = list(range(inst.n))
        for _ in range(rng.randint(0, 2)):
            j = jobs.pop(rng.randint(0, len(jobs) - 1))
            i = rng.randint(0, inst.m - 1)
            t[i] += inst.processing[j][i]
        res = min_feasible_T(inst.processing, tuple(t), jobs)
        _, makespan = round_vertex(res, inst.processing, tuple(t), ROUNDING_LST)
        assert makespan <= 2 * res.T


def test_bm_rounding_guards_against_blowup():
    from bnbapprox.scheduling import LpPoint

    m = 40
    P = tuple(tuple(rat(1) for _ in range(m)) for _ in range(m))
    x = {(j, i): rat(1, 2) for j in range(6) for i in (0, 1)}
    point = LpPoint(rat(10), x, tuple(rat(0) for _ in range(m)), tuple(range(6)), {})
    with pytest.raises(ValueError):
        round_vertex(point, P, tuple(rat(0) for _ in range(m)), ROUNDING_BM)


def test_mmp_pivot_rules():
    from bnbapprox.scheduling import LpPoint

    P = ((rat(9), rat(5)), (rat(8), rat(5)), (rat(9), rat(9)))
    point = LpPoint(rat(10), {}, (rat(0), rat(0)), (0, 1, 2), {})
    assert mmp_pivot(point, P) == 2  # min times 5, 5, 9
    point2 = LpPoint(rat(10), {}, (rat(0), rat(0)), (0, 1), {})
    assert mmp_pivot(point2, P) == 0  # tie on 5 -> lowest id
    single = LpPoint(rat(10), {}, (rat(0), rat(0)), (1,), {})
    assert mmp_pivot(single, P) == 1
    with pytest.raises(ValueError):
        mmp_pivot(LpPoint(rat(1), {}, (rat(0),), (), {}), P)


def test_list_schedule_upper_bracket():
    assignment, makespan = list_schedule(P332, T00, range(3))
    assert sorted(assignment) == [0, 1, 2]
    assert makespan >= 4


def test_bs_dominates_lr():
    rng = SplitMix64(77)
    for trial in range(40):
        inst = generate("scheduling-unrelated", 6, 3, 900 + trial)
        t = list(inst.overheads)
        jobs = list(range(inst.n))
        for _ in range(rng.randint(0, 3)):
            j = jobs.pop(rng.randint(0, len(jobs) - 1))
            i = rng.randint(0, inst.m - 1)
            t[i] += inst.processing[j][i]
        bs = min_feasible_T(inst.processing, tuple(t), jobs, restrict=True)
        lr = min_feasible_T(inst.processing, tuple(t), jobs, restrict=False)
        assert bs.T >= lr.T


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
        res = min_feasible_T(inst.processing, inst.overheads, range(inst.n))
        assert len(res.fractional_jobs) <= inst.m
        graph = fractional_graph(res.x, inst.m)
        matching = job_machine_matching(graph)
        assert matching is not None
        assert sorted(matching) == sorted(graph.jobs)


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
    assert min_feasible_T(((rat(7),),), (rat(0),), range(1)).T == 7
    assert len(calls) == 1
    # t_min is the averaged load bound (3 + 3 + 2) / 2
    calls.clear()
    assert min_feasible_T(P332, T00, range(3)).T == 4
    assert len(calls) == 1
    # t_min is the averaged load bound 9 / 2 rounded up onto the grid
    calls.clear()
    P333 = ((rat(3), rat(3)),) * 3
    assert min_feasible_T(P333, T00, range(3)).T == 5
    assert len(calls) == 1
    # t_min is the lower hint, with or without an upper hint
    P = ((rat(3), rat(5)), (rat(4), rat(2)), (rat(6), rat(6)))
    t = (rat(2), rat(0))
    t_min = min_feasible_T(P, t, range(3)).T
    assert t_min == 7
    for hi_hint in (None, t_min, t_min + 3):
        calls.clear()
        res = min_feasible_T(P, t, range(3), lo_hint=t_min, hi_hint=hi_hint)
        assert res.T == t_min and len(calls) == 1


def test_lower_bracket_infeasible_walks_up_past_the_ray(monkeypatch):
    calls = _count_lp_solves(monkeypatch)
    # lower bracket max(5, (5 + 5) / 2) = 5, but at 5 both jobs need machine 0
    P = ((rat(5), rat(9)), (rat(5), rat(9)))
    res = min_feasible_T(P, T00, range(2))
    assert res.T > 5 and len(calls) > 1
    assert calls[0].inequalities[0][1] == 5  # the lower end is probed first
    assert res.T == min_feasible_T(P, T00, range(2), lo_hint=res.T - 1).T


def test_hi_hint_below_the_minimum_raises():
    # the LP is infeasible at 3 (total load 8 on two machines)
    for hi_hint in (rat(3), rat(1)):
        with pytest.raises(LpError, match="upper bracket infeasible"):
            min_feasible_T(P332, T00, range(3), hi_hint=hi_hint)
    # a one-point bracket just below the minimum, above the lower bracket
    P = ((rat(5), rat(9)), (rat(5), rat(9)))
    t_min = min_feasible_T(P, T00, range(2)).T
    assert t_min > 6
    with pytest.raises(LpError, match="upper bracket infeasible"):
        min_feasible_T(P, T00, range(2), lo_hint=t_min - 1, hi_hint=t_min - 1)
    # a hint is rounded up onto the grid: 7/2 -> 4, which is feasible
    assert min_feasible_T(P332, T00, range(3), hi_hint=rat(7, 2)).T == 4
    for seed in range(10):
        inst = generate(UNRELATED, 6, 3, 9700 + seed)
        P, t, jobs = inst.processing, inst.overheads, tuple(range(inst.n))
        t_min = min_feasible_T(P, t, jobs).T
        D = grid_denominator(P, t, jobs)
        for below in (t_min - rat(1, D), t_min / 2):
            with pytest.raises(LpError, match="upper bracket infeasible"):
                min_feasible_T(P, t, jobs, hi_hint=below)
            # a one-point bracket below the minimum
            with pytest.raises(LpError, match="upper bracket infeasible"):
                min_feasible_T(P, t, jobs, lo_hint=below, hi_hint=below)
        assert min_feasible_T(P, t, jobs, hi_hint=t_min).T == t_min


def test_children_get_a_feasible_upper_hint():
    for seed in range(10):
        inst = generate(UNRELATED, 7, 3, 9800 + seed)
        for bounding in ("BS", "LR"):
            adapter = UnrelatedAdapter(inst, bounding=bounding)
            state = adapter.root_payload()
            info = adapter.bound(state)
            if info.leaf:
                continue
            node = Node(0, None, 0, info.lb, info.ub, False, 0, False, state)
            for spec in adapter.branch(node):
                child = spec.payload
                assert child.hi_hint >= info.lb
                assert scheduling.feasible_point(
                    inst.processing, child.t, child.jobs, child.hi_hint, bounding == "BS"
                ) is not None
                # the answer is at most the hint rounded up onto the child's grid
                D = grid_denominator(inst.processing, child.t, child.jobs)
                assert adapter.bound(child).lb < child.hi_hint + rat(1, D)


# --- guarantee checks ----------------------------------------------------

UNRELATED332 = SchedulingInstance(UNRELATED, P332, T00)


def _break_lst_matching(monkeypatch):
    # every fractional job goes to a machine no vertex uses: 100 > 2 * 4
    P = tuple(row + (rat(100),) for row in P332)
    t = (rat(0),) * 3
    point = min_feasible_T(P, t, range(3))
    monkeypatch.setattr(
        scheduling, "job_machine_matching", lambda graph: {j: 2 for j in graph.jobs}
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


@pytest.mark.parametrize(
    "breaker, message",
    [
        (_break_lst_matching, "twice the guess"),
        (_break_integral_guess, "minimal guess"),
        (_break_pivot_bound, "pivot-controlled bound"),
        (_break_depth_cap, "best-first tree reached depth"),
    ],
)
def test_broken_guarantee_raises(breaker, message, monkeypatch):
    with pytest.raises(AdapterContractError, match=message):
        breaker(monkeypatch)


def test_unbroken_guarantees_pass():
    P = tuple(row + (rat(100),) for row in P332)
    t = (rat(0),) * 3
    round_vertex(min_feasible_T(P, t, range(3)), P, t, ROUNDING_LST)
    inst = SchedulingInstance(UNRELATED, ((rat(7), rat(9)),), T00)
    UnrelatedAdapter(inst).bound(UnrelatedAdapter(inst).root_payload())
    UnrelatedAdapter(UNRELATED332).bound(UnrelatedAdapter(UNRELATED332).root_payload())
    assert solve_unrelated(UNRELATED332, rat(1, 100)).result.max_depth >= 1


def test_broken_guarantee_raises_under_optimize_flag():
    # `python -O` strips assert statements; the guarantee checks must not be
    # asserts, so the test above has to pass there too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_broken_guarantee_raises"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout
