"""The benchmark's answer checks reject deliberately broken answers.

Run with ``python3 -m pytest solverbench/test_checks.py`` from the root of
the repository (the solver sources must be on ``PYTHONPATH``, as in
``PYTHONPATH=src``), or as ``python3 solverbench/test_checks.py``.
"""
from __future__ import annotations

import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from bnbapprox.instances import KnapsackInstance, SchedulingInstance  # noqa: E402

KNAP = KnapsackInstance(
    weights=(F(4), F(3), F(5)), profits=(F(8), F(5), F(9)), capacities=(F(7), F(5))
)
SCHED = SchedulingInstance(
    "scheduling-unrelated",
    processing=((F(3), F(5)), (F(4), F(2)), (F(6), F(6))),
    overheads=(F(1), F(0)),
)


def _record(value, bound, assignment, termination="ratio-met", max_depth=1):
    return workloads.SolveRecord(F(value), F(bound), assignment, 5, 3, max_depth, termination)


def _op(family, ratio, best_first=False):
    return workloads.Operation(0, "test", family, ratio, best_first, lambda: None)


def test_knapsack_answer_passes():
    # items 0+1 in knapsack 0 (weight 7), item 2 in knapsack 1 (weight 5): OPT 22
    rec = _record(22, 22, {0: 0, 1: 0, 2: 1})
    assert checks.solve_problems(_op("knapsack", F(99, 100)), KNAP, rec, F(22)) == []


def test_overfull_knapsack_rejected():
    rec = _record(17, 22, {0: 0, 2: 0})  # weight 9 in capacity 7
    found = checks.solve_problems(_op("knapsack", F(1, 2)), KNAP, rec, F(22))
    assert any("capacity" in p for p in found)


def test_knapsack_profit_mismatch_and_bad_item_rejected():
    assert checks.knapsack_problems(KNAP, {0: 0}, F(9))
    assert checks.knapsack_problems(KNAP, {7: 0}, F(0))
    assert checks.knapsack_problems(KNAP, {0: 2}, F(8))


def test_knapsack_ratio_just_past_guarantee_rejected():
    alpha = F(99, 100)
    # profit 17 meets alpha exactly against OPT = 17/alpha, and misses it
    # against an optimum a millionth larger
    assert checks.certificate_problems("knapsack", alpha, F(17), F(22), F(17) / alpha, 1, 2, True) == []
    assert checks.certificate_problems(
        "knapsack", alpha, F(17), F(22), F(17) / alpha + F(1, 10**6), 1, 2, True
    )


def test_knapsack_bound_below_optimum_rejected():
    # profit 21.8 meets alpha against OPT 22, but the bound 21.85 is no bound
    alpha, opt = F(99, 100), F(22)
    assert checks.certificate_problems("knapsack", alpha, F(218, 10), F(22), opt, 1, 2, True) == []
    assert checks.certificate_problems("knapsack", alpha, F(218, 10), F(2185, 100), opt, 1, 2, True)


def test_knapsack_node_limit_skips_certificate():
    rec = _record(8, 100, {0: 0}, termination="node-limit")
    assert checks.solve_problems(_op("knapsack", F(99, 100)), KNAP, rec, F(22)) == []


def test_schedule_answer_passes():
    # machine 0: 1 + 6 = 7, machine 1: 5 + 2 = 7, the optimum
    rec = _record(7, 7, {0: 1, 1: 1, 2: 0})
    assert checks.solve_problems(_op("unrelated", F(1, 100), True), SCHED, rec, F(7)) == []


def test_missing_job_rejected():
    rec = _record(7, 7, {0: 1, 2: 0})
    found = checks.solve_problems(_op("unrelated", F(1, 100)), SCHED, rec, F(7))
    assert any("missing [1]" in p for p in found)


def test_makespan_off_by_one_rejected():
    rec = _record(6, 6, {0: 1, 1: 1, 2: 0})
    found = checks.solve_problems(_op("unrelated", F(1, 100)), SCHED, rec, F(7))
    assert any("schedule ends at 7" in p for p in found)


def test_overheads_are_counted():
    # machine 0 starts at its overhead 1: 1 + 3 + 4 + 6 = 14, not 13
    assert checks.schedule_problems(SCHED, {0: 0, 1: 0, 2: 0}, F(14)) == []
    assert checks.schedule_problems(SCHED, {0: 0, 1: 0, 2: 0}, F(13))


def test_unrelated_ratio_just_past_guarantee_rejected():
    eps = F(1, 100)
    opt = F(100)
    assert checks.certificate_problems("unrelated", eps, F(101), F(100), opt, 3, 2, True) == []
    assert checks.certificate_problems("unrelated", eps, F(101) + F(1, 10**6), F(100), opt, 3, 2, True)
    assert checks.certificate_problems("unrelated", eps, opt - 1, F(99), opt, 3, 2, True)


def test_unrelated_bound_above_optimum_rejected():
    assert checks.certificate_problems("unrelated", F(1, 100), F(101), F(101), F(100), 3, 2, False)


def test_best_first_depth_cap():
    eps, m = F(1, 2), 2  # cap floor(4 / (1/2)) = 8
    assert checks.certificate_problems("unrelated", eps, F(10), F(10), F(10), 8, m, True) == []
    assert checks.certificate_problems("unrelated", eps, F(10), F(10), F(10), 9, m, True)
    assert checks.certificate_problems("unrelated", eps, F(10), F(10), F(10), 9, m, False) == []


def test_profile_ratio_just_past_guarantee_rejected():
    eps = F(1, 10)
    opt = F(100)
    assert checks.certificate_problems("profile", eps, F(121), F(1), opt, 3, 2, False) == []
    assert checks.certificate_problems("profile", eps, F(121) + F(1, 10**6), F(1), opt, 3, 2, False)


def test_unknown_termination_rejected():
    rec = _record(7, 7, {0: 1, 1: 1, 2: 0}, termination="gave-up")
    assert checks.solve_problems(_op("unrelated", F(1, 100)), SCHED, rec, F(7))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
