"""Answer checks for the benchmark, in exact Fraction arithmetic.

These share no code with the solver paths: they read only the instance's
data fields and the answer a solve returned, and recompute everything they
compare. Each check returns a list of problems; an empty list means the
answer passed.

What is checked depends on how the solve ended. Every answer must be a
complete, feasible assignment whose objective, recomputed from the
instance, equals the reported value. Only solves that ended ``ratio-met``
or ``frontier-empty`` certify a ratio, so only they are compared with the
exact optimum; a solve stopped by ``node-limit`` certifies nothing.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

CERTIFIED = ("ratio-met", "frontier-empty")
TERMINATIONS = CERTIFIED + ("node-limit",)


def knapsack_problems(inst, assignment: Mapping[int, int], value: Fraction) -> list[str]:
    """Capacities hold, each item is used at most once, the profit matches."""
    problems = []
    loads = [Fraction(0)] * len(inst.capacities)
    profit = Fraction(0)
    for item, sack in assignment.items():
        if not (isinstance(item, int) and 0 <= item < len(inst.weights)):
            problems.append(f"unknown item {item!r}")
            continue
        if not (isinstance(sack, int) and 0 <= sack < len(inst.capacities)):
            problems.append(f"item {item} in unknown knapsack {sack!r}")
            continue
        loads[sack] += Fraction(inst.weights[item])
        profit += Fraction(inst.profits[item])
    for sack, (load, cap) in enumerate(zip(loads, inst.capacities)):
        if load > cap:
            problems.append(f"knapsack {sack} holds {load} > capacity {cap}")
    if profit != value:
        problems.append(f"reported profit {value} but the items sum to {profit}")
    return problems


def schedule_problems(inst, assignment: Mapping[int, int], value: Fraction) -> list[str]:
    """Every job runs exactly once, overheads count, the makespan matches."""
    problems = []
    n, m = len(inst.processing), len(inst.overheads)
    jobs = sorted(assignment)
    if jobs != list(range(n)):
        missing = sorted(set(range(n)) - set(jobs))
        extra = sorted(set(jobs) - set(range(n)), key=repr)
        problems.append(f"jobs missing {missing}, unknown {extra}")
    loads = [Fraction(t) for t in inst.overheads]
    for job, machine in assignment.items():
        if not (isinstance(machine, int) and 0 <= machine < m):
            problems.append(f"job {job} on unknown machine {machine!r}")
            continue
        if isinstance(job, int) and 0 <= job < n:
            loads[machine] += Fraction(inst.processing[job][machine])
    makespan = max(loads)
    if makespan != value:
        problems.append(f"reported makespan {value} but the schedule ends at {makespan}")
    return problems


def certificate_problems(
    family: str,
    ratio: Fraction,
    value: Fraction,
    bound: Fraction,
    optimum: Fraction,
    max_depth: int,
    m: int,
    best_first: bool,
) -> list[str]:
    """The scheme's guarantee against the exact optimum.

    knapsack:  alpha*OPT <= value <= OPT and OPT <= max(value, bound);
    unrelated: OPT <= makespan <= (1+eps)*OPT and OPT >= min(makespan, bound),
               best-first also max_depth <= floor(m^2/eps);
    profile:   OPT <= makespan <= (1+eps)^2*OPT. Level pruning discards nodes
               without bounding them, so the bound is not a valid one there.
    """
    problems = []
    if family == "knapsack":
        if not ratio * optimum <= value <= optimum:
            problems.append(f"profit {value} outside [{ratio}*OPT, OPT] with OPT={optimum}")
        if optimum > max(value, bound):
            problems.append(f"bound {bound} below OPT={optimum}")
    elif family == "unrelated":
        if not optimum <= value <= (1 + ratio) * optimum:
            problems.append(f"makespan {value} outside [OPT, (1+{ratio})*OPT] with OPT={optimum}")
        if optimum < min(value, bound):
            problems.append(f"bound {bound} above OPT={optimum}")
        if best_first:
            cap = (m * m) // ratio
            if max_depth > cap:
                problems.append(f"best-first depth {max_depth} > floor(m^2/eps) = {cap}")
    elif family == "profile":
        if not optimum <= value <= (1 + ratio) ** 2 * optimum:
            problems.append(
                f"makespan {value} outside [OPT, (1+{ratio})^2*OPT] with OPT={optimum}"
            )
    else:
        problems.append(f"unknown family {family!r}")
    return problems


def solve_problems(op, inst, record, optimum: Fraction) -> list[str]:
    """All checks that apply to one solve's answer."""
    if record.termination not in TERMINATIONS:
        return [f"unknown termination {record.termination!r}"]
    if op.family == "knapsack":
        problems = knapsack_problems(inst, record.assignment, record.value)
    else:
        problems = schedule_problems(inst, record.assignment, record.value)
    if record.termination in CERTIFIED:
        problems += certificate_problems(
            op.family,
            op.ratio,
            record.value,
            record.bound,
            optimum,
            record.max_depth,
            len(inst.capacities) if op.family == "knapsack" else len(inst.overheads),
            op.best_first,
        )
    return problems
