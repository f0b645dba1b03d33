"""The benchmark's three workloads: instance pools and the solves run on them.

A workload is a fixed pool of generated instances (fixed generator seeds at
stated sizes) that the workload seed relabels: it permutes the items of a
knapsack instance, the jobs and machines of an unrelated instance, and the
jobs of a uniform or identical one. A relabelled instance has the same
optimum and nearly the same difficulty, but the solver meets its data, and
breaks its ties, in another order.

Why not draw fresh random instances per seed: at these sizes the tree size
of one instance is heavy-tailed, and the summed work of a fresh draw of 30
to 80 instances moved by 30-60% between seeds (interquartile range over
median, measured on 10-seed samples), far wider than any bound on a
regression could be. Relabelling keeps the seed a real input, one the
program cannot recognise, while the work stays comparable across seeds.

Uniform machines keep their generated order because their tree size is not
stable under machine relabelling: the simplex then returns another vertex,
and one 8-job, 3-machine instance took from 4 to 322 nodes under six
relabellings. The workload's summed nodes ranged from 1363 to 2077 over
seven seeds. Both profile
schemes sort the jobs by length before they search, so on that workload
the seed reorders the input and the ties between equal lengths, and the
search is otherwise the same on every seed.

One operation is one solve: one instance under one strategy, run to
``ratio-met``, ``frontier-empty`` or ``node-limit``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from bnbapprox import engine, instances, knapsack, profiles, scheduling
from bnbapprox.engine import Criterion, Selection, valid_strategies

KNAPSACK_ALPHA = Fraction(99, 100)
UNRELATED_EPS = Fraction(1, 100)
PROFILE_EPS = Fraction(1, 10)

KNAPSACK_NODE_CAP = 2000
UNRELATED_NODE_CAP = 200
PROFILE_NODE_CAP = 2000


@dataclass(frozen=True)
class Operation:
    """One solve: an instance, a strategy label and the call that runs it."""

    instance: int
    strategy: str
    family: str  # "knapsack" | "unrelated" | "profile"
    ratio: Fraction
    best_first: bool
    call: Callable[[], "SolveRecord"]


@dataclass(frozen=True)
class SolveRecord:
    """What a solve returned, in the instance's own units."""

    value: Fraction
    bound: Fraction
    assignment: dict[int, int]
    nodes_explored: int
    nodes_processed: int
    max_depth: int
    termination: str

    def deterministic(self) -> list[Any]:
        """The outputs that must repeat exactly across runs of one code."""
        return [
            str(self.value),
            str(self.bound),
            self.nodes_explored,
            self.nodes_processed,
            self.max_depth,
            self.termination,
            sorted(self.assignment.items()),
        ]


@dataclass
class Workload:
    instances: list[Any]
    operations: list[Operation]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _permutation(rng: random.Random, size: int) -> list[int]:
    perm = list(range(size))
    rng.shuffle(perm)
    return perm


def _relabel_knapsack(inst, rng: random.Random):
    items = _permutation(rng, inst.n)
    return instances.KnapsackInstance(
        weights=tuple(inst.weights[j] for j in items),
        profits=tuple(inst.profits[j] for j in items),
        capacities=inst.capacities,
        meta=inst.meta,
    )


def _relabel_scheduling(inst, rng: random.Random):
    jobs = _permutation(rng, inst.n)
    machines = _permutation(rng, inst.m) if inst.kind == instances.UNRELATED else range(inst.m)
    return instances.SchedulingInstance(
        kind=inst.kind,
        processing=tuple(
            tuple(inst.processing[j][i] for i in machines) for j in jobs
        ),
        overheads=tuple(inst.overheads[i] for i in machines),
        base_times=None
        if inst.base_times is None
        else tuple(inst.base_times[j] for j in jobs),
        speeds=None if inst.speeds is None else tuple(inst.speeds[i] for i in machines),
        meta=inst.meta,
    )


def _pool(kind: str, sizes: list[tuple[int, int]], count: int, base: int, rng: random.Random):
    relabel = _relabel_knapsack if kind == instances.KNAPSACK else _relabel_scheduling
    return [
        relabel(instances.generate(kind, *sizes[k % len(sizes)], base + k), rng)
        for k in range(count)
    ]


def _knapsack_call(inst, strategy) -> Callable[[], SolveRecord]:
    def call() -> SolveRecord:
        adapter = knapsack.KnapsackAdapter(inst, branching=strategy.branching)
        result = engine.run(
            adapter,
            strategy.selection,
            Criterion("ratio-alpha", KNAPSACK_ALPHA),
            node_limit=KNAPSACK_NODE_CAP,
        )
        return _record(result, result.best_value, result.global_bound, result.best_solution)

    return call


def _unrelated_call(inst, strategy) -> Callable[[], SolveRecord]:
    def call() -> SolveRecord:
        out = scheduling.solve_unrelated(
            inst,
            UNRELATED_EPS,
            selection=strategy.selection,
            bounding=strategy.bounding,
            rounding=strategy.rounding,
            node_limit=UNRELATED_NODE_CAP,
        )
        r = out.result
        return _record(r, out.makespan, r.global_bound, out.assignment)

    return call


def _profile_call(inst, solver, selection: Selection) -> Callable[[], SolveRecord]:
    def call() -> SolveRecord:
        out = solver(inst, PROFILE_EPS, selection=selection, node_limit=PROFILE_NODE_CAP)
        r = out.result
        return _record(r, out.makespan, r.global_bound * out.scale, out.assignment)

    return call


def _record(result, value, bound, assignment) -> SolveRecord:
    return SolveRecord(
        value=Fraction(value),
        bound=Fraction(bound),
        assignment=dict(assignment),
        nodes_explored=result.nodes_explored,
        nodes_processed=result.nodes_processed,
        max_depth=result.max_depth,
        termination=result.termination,
    )


def _label(strategy, sense_max: bool) -> str:
    sel = strategy.label(engine.Sense.MAX if sense_max else engine.Sense.MIN)
    if sense_max:
        return f"{sel}/{strategy.branching}"
    return f"{sel}/{strategy.bounding}/{strategy.rounding}"


def knapsack_matrix(seed: int) -> Workload:
    """Multi-knapsack at alpha = 99/100 under all 9 strategies."""
    sizes = [(20, 2), (25, 2), (30, 2), (20, 3), (25, 3), (30, 3)]
    pool = _pool(instances.KNAPSACK, sizes, 48, 700_000, _rng("knapsack-matrix", seed))
    ops = [
        Operation(k, _label(st, True), "knapsack", KNAPSACK_ALPHA,
                  st.selection is Selection.BEST_FIRST,
                  _knapsack_call(inst, st))
        for k, inst in enumerate(pool)
        for st in valid_strategies(instances.KNAPSACK)
    ]
    return Workload(pool, ops)


def unrelated_sweep(seed: int) -> Workload:
    """The 12-strategy unrelated-machines matrix at eps = 1/100."""
    sizes = [(6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (8, 3)]
    pool = _pool(instances.UNRELATED, sizes, 36, 710_000, _rng("unrelated-sweep", seed))
    ops = [
        Operation(k, _label(st, False), "unrelated", UNRELATED_EPS,
                  st.selection is Selection.BEST_FIRST,
                  _unrelated_call(inst, st))
        for k, inst in enumerate(pool)
        for st in valid_strategies(instances.UNRELATED)
    ]
    return Workload(pool, ops)


_SELECTIONS = (Selection.BEST_FIRST, Selection.DFS, Selection.BFS)


def profile_schemes(seed: int) -> Workload:
    """solve_uniform and solve_identical at eps = 1/10, three selections each."""
    rng = _rng("profile-schemes", seed)
    sizes = [(8, 2), (8, 3), (10, 2), (10, 3)]
    uniform = _pool(instances.UNIFORM, sizes, 18, 720_000, rng)
    identical = _pool(instances.IDENTICAL, sizes, 18, 730_000, rng)
    pool, ops = [], []
    for kind_pool, solver, tag in (
        (uniform, profiles.solve_uniform, "uniform"),
        (identical, profiles.solve_identical, "identical"),
    ):
        for inst in kind_pool:
            k = len(pool)
            pool.append(inst)
            for sel in _SELECTIONS:
                ops.append(
                    Operation(k, f"{tag}/{sel.value}", "profile", PROFILE_EPS, False,
                              _profile_call(inst, solver, sel))
                )
    return Workload(pool, ops)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "knapsack-matrix": knapsack_matrix,
    "unrelated-sweep": unrelated_sweep,
    "profile-schemes": profile_schemes,
}
