import pytest

from bnbapprox.instances import IDENTICAL, KnapsackInstance, SchedulingInstance, generate
from bnbapprox.oracle import OracleBudgetExceeded, exact_opt, optimality_gap
from bnbapprox.rational import rat
from lp_oracle import (
    LinearProgram,
    enumerate_vertices,
    knapsack_lp,
    lp_optimum_by_enumeration,
    merged_knapsack_lp_optimum,
)


def test_worked_knapsack_optimum():
    inst = KnapsackInstance(
        (rat(6), rat(5), rat(4)), (rat(60), rat(40), rat(20)), (rat(5), rat(5))
    )
    res = exact_opt(inst)
    assert res.optimum == 60
    # either witness is fine: {item0} is infeasible, so it must be {1, 2}
    value = sum(inst.profits[j] for j in res.witness)
    assert value == 60
    loads = [rat(0), rat(0)]
    for j, k in res.witness.items():
        loads[k] += inst.weights[j]
    assert all(load <= cap for load, cap in zip(loads, inst.capacities))


def test_worked_scheduling_optimum():
    inst = SchedulingInstance(
        IDENTICAL,
        ((rat(3), rat(3)), (rat(3), rat(3)), (rat(2), rat(2))),
        (rat(0), rat(0)),
        (rat(3), rat(3), rat(2)),
        (rat(1), rat(1)),
    )
    res = exact_opt(inst)
    assert res.optimum == 5
    assert sorted(res.witness) == [0, 1, 2]


def test_empty_knapsack():
    inst = KnapsackInstance((), (), (rat(5),))
    res = exact_opt(inst)
    assert res.optimum == 0 and res.witness == {}


def test_dp_and_exhaustive_agree():
    from bnbapprox.oracle import _knapsack_dp, _knapsack_exhaustive

    for seed in range(30):
        inst = generate("knapsack", 7, 2, seed)
        dp = _knapsack_dp(inst, 5_000_000)
        ex = _knapsack_exhaustive(inst, 5_000_000)
        assert dp.optimum == ex.optimum, seed
        assert dp.method == "dp" and ex.method == "exhaustive"


def test_rational_knapsack_uses_exhaustive():
    inst = KnapsackInstance((rat(3, 2), rat(1)), (rat(2), rat(1)), (rat(2),))
    res = exact_opt(inst)
    assert res.method == "exhaustive"
    assert res.optimum == 2


def test_budget_exceeded():
    inst = generate("scheduling-unrelated", 9, 3, 1)
    with pytest.raises(OracleBudgetExceeded):
        exact_opt(inst, budget=10)


def test_gap_examples():
    assert optimality_gap(rat(90), rat(100)) == rat(1, 10)
    assert optimality_gap(rat(7), rat(7)) == 0
    assert optimality_gap(rat(60), rat(60)) == 0
    assert optimality_gap(rat(0), rat(0)) == 0  # flagged convention
    with pytest.raises(ValueError):
        optimality_gap(rat(-1), rat(0))


def test_oracle_bounds_algorithm_values():
    from bnbapprox.engine import Criterion, Selection, run
    from bnbapprox.knapsack import KnapsackAdapter
    from bnbapprox.scheduling import solve_unrelated

    for seed in range(8):
        ki = generate("knapsack", 7, 2, seed)
        opt = exact_opt(ki).optimum
        res = run(KnapsackAdapter(ki), Selection.BEST_FIRST, Criterion("ratio-alpha", rat(4, 5)))
        assert res.best_value <= opt
        si = generate("scheduling-unrelated", 6, 2, seed)
        sopt = exact_opt(si).optimum
        sres = solve_unrelated(si, rat(1, 2))
        assert sres.makespan >= sopt


def test_enumerate_vertices_toy():
    # unit square: 4 vertices
    lp = LinearProgram(
        2,
        (),
        (((rat(1), rat(0)), rat(1)), ((rat(0), rat(1)), rat(1))),
    )
    vertices = enumerate_vertices(lp)
    assert set(vertices) == {
        (rat(0), rat(0)),
        (rat(0), rat(1)),
        (rat(1), rat(0)),
        (rat(1), rat(1)),
    }
    with pytest.raises(OracleBudgetExceeded):
        enumerate_vertices(LinearProgram(30, (), tuple(
            ((tuple(rat(int(i == j)) for i in range(30))), rat(1)) for j in range(15)
        )), budget=10)


def test_merged_lp_matches_generic_enumeration():
    for seed in range(10):
        inst = generate("knapsack", 4, 2, 50 + seed)
        merged = merged_knapsack_lp_optimum(inst)
        lp, obj = knapsack_lp(inst)
        assert merged == lp_optimum_by_enumeration(lp, obj)
