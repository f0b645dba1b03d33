import itertools
import random

import pytest

from bnbapprox.instances import IDENTICAL, KnapsackInstance, SchedulingInstance, generate
from bnbapprox.oracle import DEFAULT_BUDGET, OracleBudgetExceeded, exact_opt, optimality_gap
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


def _fits(inst, witness):
    loads = [rat(0)] * inst.m
    for j, k in witness.items():
        loads[k] += inst.weights[j]
    return all(load <= cap for load, cap in zip(loads, inst.capacities))


def _value(inst, witness):
    """The witness's profit or makespan, checking that it is feasible."""
    if isinstance(inst, KnapsackInstance):
        assert _fits(inst, witness)
        return sum((inst.profits[j] for j in witness), rat(0))
    assert sorted(witness) == list(range(inst.n))
    loads = list(inst.overheads)
    for j, i in witness.items():
        loads[i] += inst.processing[j][i]
    return max(loads)


def _enumerated_optimum(inst):
    """Best value over every assignment listed by itertools.product; a
    knapsack item's choice -1 leaves it out."""
    if isinstance(inst, KnapsackInstance):
        witnesses = (
            {j: k for j, k in enumerate(choice) if k >= 0}
            for choice in itertools.product(range(-1, inst.m), repeat=inst.n)
        )
        return max(_value(inst, w) for w in witnesses if _fits(inst, w))
    return min(
        _value(inst, dict(enumerate(choice)))
        for choice in itertools.product(range(inst.m), repeat=inst.n)
    )


def _rational_knapsack(seed):
    rng = random.Random(seed)
    n, m = rng.randint(0, 6), rng.randint(1, 3)

    def draw():
        return rat(rng.randint(1, 200), rng.randint(1, 97))

    return KnapsackInstance(
        tuple(draw() for _ in range(n)), tuple(draw() for _ in range(n)),
        tuple(draw() for _ in range(m)),
    )


def test_oracles_match_plain_enumeration():
    instances = [
        generate(kind, n, m, seed)
        for seed in range(6)
        for kind, n, m in (
            ("knapsack", 7, 2), ("knapsack", 5, 3),
            ("scheduling-unrelated", 6, 3), ("scheduling-uniform", 6, 3),
            ("scheduling-identical", 7, 2),
        )
    ]
    instances += [_rational_knapsack(seed) for seed in range(30)]
    for inst in instances:
        res = exact_opt(inst)
        assert res.optimum == _enumerated_optimum(inst), inst
        assert _value(inst, res.witness) == res.optimum, inst


def test_rational_knapsack_uses_the_dp():
    inst = KnapsackInstance((rat(3, 2), rat(1)), (rat(2), rat(1)), (rat(2),))
    res = exact_opt(inst)
    assert res.method == "dp"
    assert res.optimum == 2
    assert _value(inst, res.witness) == 2


def test_budget_exceeded():
    inst = generate("scheduling-unrelated", 9, 3, 1)
    with pytest.raises(OracleBudgetExceeded):
        exact_opt(inst, budget=10)


def test_knapsack_dp_budget_counts_states_over_all_layers():
    # layers {5}, {5, 4}, {5, 4, 3, 2}: 7 states in all
    inst = KnapsackInstance((rat(1), rat(2)), (rat(1), rat(1)), (rat(5),))
    assert exact_opt(inst, budget=7).optimum == 2
    with pytest.raises(OracleBudgetExceeded, match="knapsack DP passed 6 states"):
        exact_opt(inst, budget=6)
    big = generate("knapsack", 12, 3, 1)
    with pytest.raises(OracleBudgetExceeded):
        exact_opt(big, budget=50)
    res = exact_opt(big, budget=DEFAULT_BUDGET)
    assert _value(big, res.witness) == res.optimum > 0


def test_budget_must_be_an_int_of_at_least_1():
    inst = KnapsackInstance((rat(1),), (rat(1),), (rat(1),))
    for budget in (-1, 0, 1.5, True, "5"):
        with pytest.raises(ValueError, match="budget"):
            exact_opt(inst, budget=budget)
    assert exact_opt(inst, budget=3).optimum == 1  # layers {1}, {1, 0}


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
