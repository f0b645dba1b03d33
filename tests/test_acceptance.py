"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is exact rational comparison
unless a criterion states otherwise.
"""
import math
import time

import pytest

from bnbapprox import knapsack
from bnbapprox.engine import Criterion, Selection, run
from bnbapprox.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    hub_direction_warnings,
    read_rows,
    run_experiment,
    summarize,
)
from bnbapprox.instances import SchedulingInstance, UNRELATED, generate
from bnbapprox.knapsack import KnapsackAdapter, dantzig_solve, pick_pivot
from bnbapprox.lp import job_machine_matching
from bnbapprox.oracle import exact_opt
from bnbapprox.profiles import (
    similarity_level_bound,
    solve_identical,
    solve_uniform,
    uniform_vertex_check,
)
from bnbapprox.rational import rat
from bnbapprox.rng import SplitMix64
from bnbapprox.scheduling import (
    ROUNDING_LST,
    SchedGrid,
    min_feasible_T,
    mmp_pivot,
    round_vertex,
    solve_unrelated,
    scheme_depth_cap,
)
from guarantees import (
    assignment_feasible,
    assignment_value,
    c_alpha_m,
    dantzig_whole,
    f_bound,
    int_value,
    reference_fractional_jobs,
    schedule_makespan,
    sub_value,
)
from lp_oracle import (
    enumerate_vertices,
    knapsack_lp,
    load_program,
    lp_optimum_by_enumeration,
    merged_knapsack_lp_optimum,
)


class _report:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.num}: {status} - {self.desc}")
        return False


ALPHAS = (rat(4, 5), rat(9, 10), rat(97, 100))


@pytest.fixture(scope="module")
def knapsack_runs():
    """200 seeded instances (n <= 12, m in {2,3}), each run at all alphas."""
    records = []
    for i in range(200):
        n = 4 + i % 9  # 4..12
        m = 2 + i % 2
        inst = generate("knapsack", n, m, 10_000 + i)
        opt = exact_opt(inst).optimum
        for alpha in ALPHAS:
            adapter = KnapsackAdapter(inst, branching="CE")
            result = run(
                adapter,
                Selection.BEST_FIRST,
                Criterion("ratio-alpha", alpha),
                node_limit=10_000,
            )
            records.append((inst, alpha, opt, result))
    return records


@pytest.mark.guarantee
def test_criterion_01_knapsack_scheme_guarantee(knapsack_runs):
    with _report(1, "knapsack scheme: profit >= alpha * OPT on ratio-met runs"):
        ratio_met = 0
        for inst, alpha, opt, result in knapsack_runs:
            assert assignment_feasible(inst, result.best_solution)
            assert assignment_value(inst, result.best_solution) == result.best_value
            assert result.best_value <= opt
            if result.termination == "ratio-met":
                ratio_met += 1
                assert result.best_value >= alpha * opt
        assert ratio_met >= 500  # the cap should almost never bite at this scale


@pytest.mark.guarantee
def test_criterion_02_left_turn_bound(knapsack_runs):
    with _report(2, "left turns per root-leaf path <= 1 + max{m a/(1-a)^2, (m+1)/(1-a)}"):
        for inst, alpha, _, result in knapsack_runs:
            assert result.left_turn_max is not None
            assert result.left_turn_max <= c_alpha_m(alpha, inst.m)


def test_criterion_03_dantzig_lp_optimality():
    with _report(3, "greedy bound equals the LP optimum (exhaustive vertex enumeration)"):
        per_knapsack_checked = 0
        for i in range(100):
            n = 3 + i % 6  # 3..8
            m = 2 + i % 2
            inst = generate("knapsack", n, m, 20_000 + i)
            sub = sub_value(*dantzig_whole(inst))
            assert sub == merged_knapsack_lp_optimum(inst)
            if n <= 5 and m == 2:
                lp, objective = knapsack_lp(inst)
                assert sub == lp_optimum_by_enumeration(lp, objective)
                per_knapsack_checked += 1
        assert per_knapsack_checked >= 20


@pytest.mark.guarantee
def test_criterion_04_rounding_guarantees(monkeypatch):
    with _report(4, "(m+1)-approximation and critical-item inequalities at every node"):
        kernel = knapsack.dantzig_solve
        solutions = []

        def recording(grid, live, caps):
            solutions.append((grid, kernel(grid, live, caps)))
            return solutions[-1][1]

        monkeypatch.setattr(knapsack, "dantzig_solve", recording)
        checked = 0
        for i in range(60):
            inst = generate("knapsack", 4 + i % 9, 2 + i % 2, 30_000 + i)
            solutions.clear()
            adapter = KnapsackAdapter(inst, branching="CE")
            run(
                adapter,
                Selection.BEST_FIRST,
                Criterion("ratio-alpha", rat(97, 100)),
                node_limit=10_000,
            )
            m = inst.m
            for grid, sol in solutions:
                checked += 1
                sub, rounded = sub_value(grid, sol), int_value(grid, sol)
                assert (m + 1) * rounded >= sub
                if sol.best_critical is not None and sub > 0:
                    lhs = inst.profits[sol.best_critical] / sub
                    gap = 1 - rounded / sub
                    assert lhs >= min(rat(1, m + 1), gap / m)
        assert checked >= 100


EPSILONS = (rat(1), rat(1, 2), rat(1, 10))


@pytest.fixture(scope="module")
def scheduling_instances():
    out = []
    for i in range(100):
        n = 4 + i % 7  # 4..10
        m = 2 + i % 2
        inst = generate("scheduling-unrelated", n, m, 40_000 + i)
        out.append((inst, exact_opt(inst).optimum))
    return out


@pytest.mark.guarantee
def test_criterion_05_unrelated_scheme_guarantee(scheduling_instances):
    with _report(5, "scheduling scheme: makespan <= (1+eps) OPT, depth <= floor(m^2/eps), m=2 eps=1 nodes <= 16"):
        for inst, opt in scheduling_instances:
            for eps in EPSILONS:
                out = solve_unrelated(inst, eps)
                assert schedule_makespan(inst, out.assignment) == out.makespan
                assert out.makespan <= (1 + eps) * opt
                assert out.result.max_depth <= scheme_depth_cap(inst.m, eps)
                if inst.m == 2 and eps == 1:
                    assert out.result.nodes_processed <= 16


@pytest.mark.guarantee
def test_criterion_06_bfs_variant(scheduling_instances):
    with _report(6, "BFS selection under depth cap floor(m^2/eps) keeps the guarantee"):
        for inst, opt in scheduling_instances:
            for eps in EPSILONS:
                cap = scheme_depth_cap(inst.m, eps)
                out = solve_unrelated(inst, eps, selection=Selection.BFS, depth_cap=cap)
                assert out.makespan <= (1 + eps) * opt
                assert out.result.max_depth <= cap


@pytest.mark.guarantee
def test_criterion_07_vertex_structure():
    with _report(7, "vertices: <= m fractional jobs, machine injection, uniform predicate"):
        for i in range(100):
            inst = generate("scheduling-uniform", 4 + i % 6, 2 + i % 2, 50_000 + i)
            grid = SchedGrid.build(inst)
            res = min_feasible_T(grid, grid.t, range(inst.n))
            assert len(res.fractional_jobs) <= inst.m
            fractional = reference_fractional_jobs(res.x)
            matching = job_machine_matching(fractional)
            assert matching is not None
            assert sorted(matching) == sorted(fractional)
            assert uniform_vertex_check(res)


@pytest.mark.guarantee
def test_criterion_08_lst_rounding_bound():
    with _report(8, "matching-based rounding stays within twice the bound"):
        rng = SplitMix64(60_000)
        for i in range(100):
            inst = generate("scheduling-unrelated", 4 + i % 7, 2 + i % 2, 60_000 + i)
            grid = SchedGrid.build(inst)
            t = list(grid.t)
            jobs = list(range(inst.n))
            for _ in range(rng.randint(0, 2)):
                j = jobs.pop(rng.randint(0, len(jobs) - 1))
                k = rng.randint(0, inst.m - 1)
                t[k] += grid.P[j][k]
            res = min_feasible_T(grid, tuple(t), jobs)
            _, makespan = round_vertex(res, grid.P, tuple(t), ROUNDING_LST)
            assert makespan <= 2 * res.T  # also asserted inside round_vertex


@pytest.mark.guarantee
def test_criterion_09_uniform_scheme_guarantee():
    with _report(9, "uniform scheme: makespan <= (1+eps)^2 OPT, level widths bounded"):
        for i in range(50):
            inst = generate("scheduling-uniform", 4 + i % 5, 2, 70_000 + i)
            opt = exact_opt(inst).optimum
            for eps in (rat(1, 2), rat(1, 4)):
                out = solve_uniform(inst, eps)
                assert schedule_makespan(inst, out.assignment) == out.makespan
                assert out.makespan <= (1 + eps) ** 2 * opt
                bound = similarity_level_bound(inst.n, eps, inst.m)
                for count in out.result.extras["level_inserted"].values():
                    assert count <= bound
                assert out.result.nodes_processed <= inst.n * bound


@pytest.mark.guarantee
def test_criterion_10_identical_scheme_guarantee():
    with _report(10, "identical scheme: (1+eps)^2 OPT, depth <= big jobs <= 2m/eps, values <= f(eps)"):
        for i in range(50):
            m = (2, 3, 5)[i % 3]
            inst = generate("scheduling-identical", 4 + i % 5, m, 80_000 + i)
            opt = exact_opt(inst).optimum
            for eps in (rat(1, 2), rat(1)):
                out = solve_identical(inst, eps)
                assert schedule_makespan(inst, out.assignment) == out.makespan
                assert out.makespan <= (1 + eps) ** 2 * opt
                ex = out.result.extras
                assert out.result.max_depth <= ex["big_jobs"]
                assert ex["big_jobs"] <= 2 * m / eps
                assert ex["distinct_rounded_values"] <= f_bound(eps)
                # level width <= m^f(eps) and node count <= 2 m^(f+1)/eps,
                # compared in logs (the bounds are astronomically large)
                f_eps = f_bound(eps)
                for count in ex["level_inserted"].values():
                    assert math.log(count) <= f_eps * math.log(m) + 1e-9
                assert math.log(out.result.nodes_processed or 1) <= (
                    math.log(2) + (f_eps + 1) * math.log(m) - math.log(float(eps))
                ) + 1e-9


@pytest.mark.guarantee
def test_criterion_11_bound_dominance():
    with _report(11, "parametric bound dominates the plain LP-relaxation bound"):
        rng = SplitMix64(90_000)
        for i in range(100):
            inst = generate("scheduling-unrelated", 4 + i % 6, 2 + i % 3, 90_000 + i)
            grid = SchedGrid.build(inst)
            t = list(grid.t)
            jobs = list(range(inst.n))
            for _ in range(rng.randint(0, 3)):
                j = jobs.pop(rng.randint(0, len(jobs) - 1))
                k = rng.randint(0, inst.m - 1)
                t[k] += grid.P[j][k]
            bs = min_feasible_T(grid, tuple(t), jobs, restrict=True)
            lr = min_feasible_T(grid, tuple(t), jobs, restrict=False)
            assert bs.T >= lr.T


def test_criterion_12_protocol_reproduction(tmp_path):
    with _report(12, "scaled experiment protocol: full matrices, CSV schema, 30 min budget"):
        start = time.perf_counter()
        pairs = [(5, 2), (10, 2), (10, 5)]
        knap_cfg = ExperimentConfig(
            kind="knapsack",
            pairs=pairs,
            ratios=[rat(97, 100)],
            instances_per_pair=30,
            base_seed=120_000,
        )
        knap_rows = run_experiment(knap_cfg, str(tmp_path / "knapsack.csv"))
        sched_cfg = ExperimentConfig(
            kind="scheduling-unrelated",
            pairs=pairs,
            ratios=[rat(1, 100)],
            instances_per_pair=30,
            base_seed=121_000,
        )
        sched_rows = run_experiment(sched_cfg, str(tmp_path / "scheduling.csv"))
        elapsed = time.perf_counter() - start
        assert elapsed < 1800, f"sweep took {elapsed:.0f}s"
        assert len(knap_rows) == 3 * 30 * 9
        assert len(sched_rows) == 3 * 30 * 12
        for path in ("knapsack.csv", "scheduling.csv"):
            loaded = read_rows(str(tmp_path / path))
            assert list(loaded[0].keys()) == CSV_COLUMNS
        # certified guarantee respected whenever the ratio was met
        for row in knap_rows:
            if row["termination"] == "ratio-met" and row["gap"] != "":
                from bnbapprox.rational import parse_rat

                assert parse_rat(str(row["gap"])) <= 1 - rat(97, 100)
        # direction-of-effect check is warning-level by design
        for warning in hub_direction_warnings(summarize(knap_rows)):
            print(f"[acceptance] criterion 12 (non-binding) {warning}")
        print(f"[acceptance] criterion 12 runtime: {elapsed:.1f}s")


def _counterexample_instance():
    # m=3, n=2k+2 with k=3: one long job everywhere, 3-jobs and a 2-job on
    # the two fast machines (listed first), slow-machine times at the
    # allowed maximum. With the slow machine first, the LP solver's crash
    # basis puts the long job alone there (its tie goes to the lowest
    # machine) and the root vertex comes out integral, leaving no second
    # iteration; with the fast machines first the root splits the long job.
    k = 3
    rows = [(rat(3 * k + 2),) * 3]
    for _ in range(2 * k):
        rows.append((rat(3), rat(3), rat(3 * k + 1)))
    rows.append((rat(2), rat(2), rat(3 * k + 1)))
    return SchedulingInstance(UNRELATED, tuple(rows), (rat(0),) * 3)


def _second_iteration_node(inst):
    grid = SchedGrid.build(inst)  # integer data: R = 1
    P, t = grid.P, grid.t
    root = min_feasible_T(grid, t, range(inst.n))
    pivot = mmp_pivot(root, P)
    children = []
    for i in range(inst.m):
        t_child = tuple(
            v + P[pivot][i] if idx == i else v for idx, v in enumerate(t)
        )
        rest = tuple(j for j in range(inst.n) if j != pivot)
        res = min_feasible_T(grid, t_child, rest)
        children.append((res.T, i, t_child, rest, res))
    children.sort(key=lambda c: (c[0], c[1]))
    return children[0]


@pytest.mark.xfail(
    strict=True,
    reason="claim is false as stated: enumeration finds vertices with the "
    "maximal-min-time job fractional at the second iteration "
    "(see the decisions ledger)",
)
def test_criterion_13a_counterexample_no_mmp_fractional_vertex():
    with _report("13a", "counterexample family: no second-iteration vertex has the MMP job fractional"):
        inst = _counterexample_instance()
        t_min, _, t_child, rest, _ = _second_iteration_node(inst)
        mmp_job = max(rest, key=lambda j: (min(inst.processing[j]), -j))
        built = load_program(SchedGrid.build(inst), t_child, rest, t_min)
        assert built is not None
        lp, pairs = built
        for values in enumerate_vertices(lp, budget=200_000):
            frac_jobs = {pairs[q][0] for q, v in enumerate(values) if 0 < v < 1}
            assert mmp_job not in frac_jobs


def test_criterion_13a_documented_regression():
    # what the instance does demonstrate: the solver's found vertex at the
    # second iteration has no fractional MMP job (here: none at all), so
    # the natural pivot rule cannot promise a level-uniform fractional job
    with _report("13a*", "counterexample family: found second-iteration vertex lacks an MMP fractional job"):
        inst = _counterexample_instance()
        _, _, _, rest, res = _second_iteration_node(inst)
        mmp_job = max(rest, key=lambda j: (min(inst.processing[j]), -j))
        assert mmp_job not in res.fractional_jobs


def test_criterion_13b_single_knapsack_pivot_order():
    with _report("13b", "single knapsack: child pivots straddle the parent pivot"):
        rng = SplitMix64(130_000)
        checked = 0
        while checked < 100:
            n = 3 + rng.randint(0, 5)
            weights = tuple(rat(rng.randint(1, 40)) for _ in range(n))
            profits = tuple(rat(rng.randint(1, 95)) for _ in range(n))
            if len({profits[j] / weights[j] for j in range(n)}) != n:
                continue
            cap = rat(rng.randint(5, 80))
            from bnbapprox.instances import KnapsackInstance

            inst = KnapsackInstance(weights, profits, (cap,))
            grid, sol = dantzig_whole(inst)
            if not sol.fractional:
                continue
            pivot = pick_pivot(sol, "CE")
            (c,) = grid.capacities
            w = grid.weights[pivot]
            if w > c:
                continue
            rest = grid.mask(j for j in range(n) if j != pivot)
            inc = dantzig_solve(grid, rest, (c - w,))
            exc = dantzig_solve(grid, rest, (c,))
            if not inc.fractional or not exc.fractional:
                continue
            pos = {j: q for q, j in enumerate(grid.order)}
            assert pos[pick_pivot(inc, "CE")] < pos[pivot] < pos[pick_pivot(exc, "CE")]
            checked += 1
