"""Profile-pruned search for uniform and identical machines.

Both schemes normalize the instance by the root's parametric-search
optimum (optimal makespans then lie in [1, 2]), sort jobs by decreasing
processing time and fix the longest unfixed job at every node, so that all
nodes of a tree level share the same fixed job set. Any partial schedule
whose completion-time vector (its *profile*, the node's overhead vector)
leaves the cube [0, 2(1+eps)^2]^m can be discarded outright.

Uniform machines prune by epsilon-similarity: the cube is cut into cells
of side eps/n (coordinate-wise floor of profile * n/eps); two profiles in
one cell differ by at most eps/n per coordinate, and a level keeps at most
one node per cell. Identical machines prune by epsilon-equivalence: fixed
jobs' processing times are rounded down to the geometric grid
eps*(1+eps)^k, and the multiset of rounded completion times (machine
order is immaterial) is the node's key; a level keeps one node per key.
Jobs shorter than eps are *small*: they are never branched on (rounding a
vertex whose fractional jobs are all small costs at most eps extra, which
the stopping rule absorbs), so branching stops at the number of big jobs.

The longest-unfixed-job pivot is justified by a vertex transform: when a
vertex assigns the longest unfixed job integrally, fractional mass can be
swapped (uniform machines only) so that this job becomes fractional while
every machine completion time stays exactly the same. The swap must keep
eligibility p_{L,i} <= T on the receiving machine; when no fractional
partner machine satisfies that, the vertex is kept untransformed (the
pivot stays the longest unfixed job either way).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .engine import (
    BaseAdapter,
    BoundInfo,
    ChildSpec,
    Criterion,
    Node,
    RunResult,
    Selection,
    Sense,
    run,
)
from .instances import IDENTICAL, UNIFORM, InstanceError, SchedulingInstance
from .lp import LpError, fractional_graph, graph_is_forest
from .rational import Rat, floor_div, rat
from .scheduling import (
    ROUNDING_LST,
    LpPoint,
    child_hi_hint,
    min_feasible_T,
    round_vertex,
)

__all__ = [
    "normalize",
    "similarity_cell",
    "round_geometric",
    "max_geometric_exponent",
    "f_bound",
    "SMALL_JOB",
    "equivalence_key",
    "uniform_vertex_check",
    "make_longest_fractional",
    "ProfileAdapter",
    "ProfileOutcome",
    "solve_uniform",
    "solve_identical",
    "similarity_level_bound",
]

SMALL_JOB = "small-job"


def normalize(inst: SchedulingInstance) -> tuple[SchedulingInstance, Rat]:
    """Divide all processing data by the root parametric optimum.

    Returns the scaled instance and the scale; reported makespans multiply
    back by the scale. Only uniform/identical instances are accepted.
    """
    if inst.kind not in (UNIFORM, IDENTICAL):
        raise InstanceError("normalization applies to uniform or identical instances")
    res = min_feasible_T(inst.processing, inst.overheads, range(inst.n))
    scale = res.t_min
    if scale <= 0:
        raise InstanceError("degenerate instance: zero root bound")
    scaled = SchedulingInstance(
        kind=inst.kind,
        processing=tuple(tuple(v / scale for v in row) for row in inst.processing),
        overheads=tuple(v / scale for v in inst.overheads),
        base_times=tuple(v / scale for v in inst.base_times),
        speeds=inst.speeds,
        meta={**dict(inst.meta), "scale": str(scale)},
    )
    return scaled, scale


def cube_limit(eps: Rat) -> Rat:
    return 2 * (1 + rat(eps)) ** 2


def similarity_cell(profile: Sequence[Rat], eps: Rat, n: int) -> tuple[int, ...] | None:
    """Cell of the eps/n grid, or None when the profile leaves the cube."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    limit = cube_limit(eps)
    if any(c > limit for c in profile):
        return None
    return tuple(floor_div(c * n, eps) for c in profile)


def similarity_level_bound(n: int, eps: Rat, m: int) -> Rat:
    """Cap on pairwise non-similar profiles per level: (3n(1+eps)^2/eps)^m."""
    eps = rat(eps)
    return (3 * n * (1 + eps) ** 2 / eps) ** m


def round_geometric(x: Rat, eps: Rat) -> Rat:
    """Largest eps*(1+eps)^k (integer k >= 0) not exceeding x."""
    x, eps = rat(x), rat(eps)
    if x < eps:
        raise ValueError("geometric rounding is defined for x >= eps")
    value = eps
    step = 1 + eps
    while value * step <= x:
        value *= step
    return value


def max_geometric_exponent(eps: Rat) -> int:
    """Largest k with eps*(1+eps)^k inside the profile cube."""
    eps = rat(eps)
    limit = cube_limit(eps)
    k = 0
    value = eps
    while value * (1 + eps) <= limit:
        value *= 1 + eps
        k += 1
    return k


def f_bound(eps: Rat) -> float:
    """Count bound on distinct rounded completion times:
    8 * (1/eps)^(log_{1+eps}(2(1+eps)^2/eps)). Exact at eps=1 (=8)."""
    eps = rat(eps)
    if eps == 1:
        return 8.0
    exponent = math.log(float(cube_limit(eps) / eps)) / math.log(float(1 + eps))
    return 8.0 * float(1 / eps) ** exponent


def equivalence_key(
    fixed: Mapping[int, int], base_times: Sequence[Rat], eps: Rat, m: int
):
    """Order-free multiset of geometrically rounded completion times.

    fixed maps job -> machine. A fixed job shorter than eps returns the
    SMALL_JOB sentinel instead (the caller must stop branching there).
    """
    eps = rat(eps)
    loads = [rat(0)] * m
    for j, i in fixed.items():
        if base_times[j] < eps:
            return SMALL_JOB
        loads[i] += round_geometric(base_times[j], eps)
    return tuple(sorted(Counter(loads).items()))


def uniform_vertex_check(point: LpPoint, T: Rat | None = None) -> bool:
    """Vertex predicate: fractional graph is a forest and every component
    holds at most one machine finishing strictly before the guess."""
    if T is None:
        T = point.T
    m = len(point.loads)
    graph = fractional_graph(point.x, m, strict=False)
    if len(graph.jobs) > m:
        return False
    if not graph_is_forest(graph):
        return False
    parent: dict[object, object] = {}

    def find(a):
        while parent[a] is not a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, i in graph.edges:
        for node in (("job", j), ("machine", i)):
            parent.setdefault(node, node)
        ru, rv = find(("job", j)), find(("machine", i))
        if ru is not rv:
            parent[ru] = rv
    slack_count: Counter = Counter()
    for i in range(m):
        key = ("machine", i)
        if key in parent and point.loads[i] < T:
            slack_count[find(key)] += 1
    return all(v <= 1 for v in slack_count.values())


def make_longest_fractional(
    point: LpPoint,
    base_times: Sequence[Rat],
    speeds: Sequence[Rat],
    longest_job: int,
) -> tuple[LpPoint, bool]:
    """Swap fractional mass so the longest unfixed job becomes fractional.

    Machine completion times are preserved exactly. Returns (point, False)
    unchanged when the job is already fractional or when no eligible swap
    partner exists (every candidate machine would receive the long job's
    mass while p_L on it exceeds the guess). The transformed point is
    checked against the vertex predicate.
    """
    L = longest_job
    if L in point.fractional_jobs:
        return point, False
    if not point.fractional_jobs:
        raise ValueError("transform needs a fractional vertex")
    m1 = point.integral_assignment.get(L)
    if m1 is None:
        raise ValueError("longest job must be assigned in the vertex")
    T = point.T
    m = len(point.loads)

    def eligible(i: int) -> bool:
        return base_times[L] / speeds[i] <= T

    choice: tuple[int, int] | None = None
    on_m1 = [
        j for j in point.fractional_jobs if 0 < point.x.get((j, m1), rat(0)) < 1
    ]
    if on_m1:
        for j in on_m1:
            for i in range(m):
                if i != m1 and point.x.get((j, i), rat(0)) > 0 and eligible(i):
                    choice = (j, i)
                    break
            if choice:
                break
    else:
        for j in point.fractional_jobs:
            for i in range(m):
                if i != m1 and point.x.get((j, i), rat(0)) > 0 and eligible(i):
                    choice = (j, i)
                    break
            if choice:
                break
    if choice is None:
        return point, False

    j, m2 = choice
    eps2 = point.x[(j, m2)]
    eps1 = eps2 * base_times[j] / base_times[L]
    x = dict(point.x)
    x[(L, m1)] = 1 - eps1
    x[(L, m2)] = eps1
    new_j1 = x.get((j, m1), rat(0)) + eps2
    del x[(j, m2)]
    if new_j1 != 0:
        x[(j, m1)] = new_j1

    loads = list(point.loads)
    jobs = sorted({jj for jj, _ in x})
    by_job: dict[int, list[tuple[int, Rat]]] = {}
    for (jj, i), v in x.items():
        by_job.setdefault(jj, []).append((i, v))
    fractional = []
    integral: dict[int, int] = {}
    for jj in jobs:
        entries = by_job[jj]
        if len(entries) == 1 and entries[0][1] == 1:
            integral[jj] = entries[0][0]
        else:
            fractional.append(jj)
    recomputed = list(loads)
    # completion times must be untouched: the swapped masses cancel exactly
    delta1 = -eps1 * base_times[L] / speeds[m1] + eps2 * base_times[j] / speeds[m1]
    delta2 = eps1 * base_times[L] / speeds[m2] - eps2 * base_times[j] / speeds[m2]
    assert delta1 == 0 and delta2 == 0, "mass swap changed completion times"
    new_point = LpPoint(T, x, tuple(recomputed), tuple(fractional), integral)
    if not uniform_vertex_check(new_point):
        raise LpError("fractional-mass swap broke the vertex predicate")
    return new_point, True


@dataclass
class _ProfileState:
    depth: int
    t: tuple[Rat, ...]
    fixed: dict[int, int]
    rounded_loads: tuple[Rat, ...] | None = None
    lo_hint: Rat | None = None
    hi_hint: Rat | None = None
    point: LpPoint | None = None


class ProfileAdapter(BaseAdapter):
    """Shared skeleton; mode "similarity" (uniform) or "equivalence" (identical)."""

    sense = Sense.MIN

    def __init__(self, inst: SchedulingInstance, eps: Rat, mode: str):
        if mode not in ("similarity", "equivalence"):
            raise ValueError(f"unknown profile mode {mode!r}")
        eps = rat(eps)
        if mode == "similarity" and not 0 < eps < 1:
            raise ValueError("similarity pruning needs 0 < eps < 1")
        if mode == "equivalence" and not 0 < eps <= 1:
            raise ValueError("equivalence pruning needs 0 < eps <= 1")
        base = inst.base_times
        assert base is not None and inst.speeds is not None
        if any(base[k] < base[k + 1] for k in range(inst.n - 1)):
            raise ValueError("jobs must be sorted by decreasing processing time")
        self.inst = inst
        self.eps = eps
        self.mode = mode
        self.P = inst.processing
        self.base = base
        self.speeds = inst.speeds
        self.n = inst.n
        self.m = inst.m
        self.limit = cube_limit(eps)
        self.seen: dict[tuple[int, Any], int] = {}
        self.level_inserted: Counter = Counter()
        self.level_bound = similarity_level_bound(self.n, eps, self.m)
        self.big_count = sum(1 for p in base if p >= eps)
        self.rounded_values: set[Rat] = set()
        self.transforms = 0
        self.transforms_skipped = 0
        self.rejected_cube = 0
        self.rejected_profile = 0

    def root_payload(self) -> _ProfileState:
        state = _ProfileState(0, self.inst.overheads, {})
        if self.mode == "equivalence":
            state.rounded_loads = tuple(rat(0) for _ in range(self.m))
        return state

    def bound(self, state: _ProfileState) -> BoundInfo:
        jobs = tuple(range(state.depth, self.n))
        res = min_feasible_T(
            self.P, state.t, jobs, lo_hint=state.lo_hint, hi_hint=state.hi_hint
        )
        point = res.point
        if point.fractional_jobs and state.depth < self.n:
            longest = state.depth
            if longest not in point.fractional_jobs:
                point, changed = make_longest_fractional(
                    point, self.base, self.speeds, longest
                )
                if changed:
                    self.transforms += 1
                else:
                    self.transforms_skipped += 1
        state.point = point
        lb = res.t_min
        if not point.fractional_jobs:
            solution = dict(state.fixed)
            solution.update(point.integral_assignment)
            return BoundInfo(lb, lb, solution, leaf=True)
        assignment, ub = round_vertex(point, self.P, state.t, ROUNDING_LST)
        solution = dict(state.fixed)
        solution.update(assignment)
        return BoundInfo(lb, ub, solution, leaf=False)

    def branch(self, node: Node) -> list[ChildSpec]:
        state: _ProfileState = node.payload
        d = state.depth
        if d >= self.n:
            return []
        if self.mode == "equivalence" and d >= self.big_count:
            # the next pivot would be a small job: stop this branch; the
            # node's own rounding is at most eps above its bound already
            return []
        pivot = d  # jobs are sorted: the longest unfixed job at depth d
        # the children's upper brackets come from the node's point, which the
        # mass swap rewrote: rely on it only while every pair it uses is
        # eligible at its guess, since otherwise it is no point of the load LP
        point = state.point
        feasible = all(self.P[j][i] <= point.T for j, i in point.x)
        out = []
        for i in range(self.m):
            t_new = tuple(
                v + self.P[pivot][i] if k == i else v for k, v in enumerate(state.t)
            )
            fixed = dict(state.fixed)
            fixed[pivot] = i
            child = _ProfileState(
                d + 1,
                t_new,
                fixed,
                lo_hint=node.lb,
                hi_hint=child_hi_hint(point, self.P, pivot, i) if feasible else None,
            )
            if self.mode == "equivalence":
                assert state.rounded_loads is not None
                rounded = round_geometric(self.base[pivot], self.eps)
                child.rounded_loads = tuple(
                    v + rounded if k == i else v
                    for k, v in enumerate(state.rounded_loads)
                )
            out.append(ChildSpec(decision=(pivot, i), right_turn=False, payload=child))
        return out

    def _profile_key(self, state: _ProfileState):
        if self.mode == "similarity":
            return similarity_cell(state.t, self.eps, self.n)
        assert state.rounded_loads is not None
        return tuple(sorted(Counter(state.rounded_loads).items()))

    def admit(self, node: Node) -> bool:
        state: _ProfileState = node.payload
        if any(c > self.limit for c in state.t):
            self.rejected_cube += 1
            return False
        key = (state.depth, self._profile_key(state))
        if key in self.seen:
            self.rejected_profile += 1
            return False
        return True

    def on_insert(self, node: Node) -> None:
        state: _ProfileState = node.payload
        self.seen[(state.depth, self._profile_key(state))] = node.id
        self.level_inserted[state.depth] += 1
        if self.mode == "similarity":
            assert self.level_inserted[state.depth] <= self.level_bound, (
                "level width exceeded the similarity-cell bound"
            )
        else:
            assert state.rounded_loads is not None
            for v in state.rounded_loads:
                if v != 0:
                    self.rounded_values.add(v)

    def extras(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "level_inserted": dict(self.level_inserted),
            "transforms": self.transforms,
            "transforms_skipped": self.transforms_skipped,
            "rejected_out_of_cube": self.rejected_cube,
            "rejected_profile": self.rejected_profile,
        }
        if self.mode == "equivalence":
            out["distinct_rounded_values"] = len(self.rounded_values)
            out["big_jobs"] = self.big_count
        return out


@dataclass
class ProfileOutcome:
    assignment: dict[int, int]
    makespan: Rat
    scale: Rat
    result: RunResult


def _sorted_normalized(inst: SchedulingInstance) -> tuple[SchedulingInstance, Rat, list[int]]:
    normalized, scale = normalize(inst)
    assert normalized.base_times is not None
    order = sorted(range(inst.n), key=lambda j: (-normalized.base_times[j], j))
    arranged = SchedulingInstance(
        kind=normalized.kind,
        processing=tuple(normalized.processing[j] for j in order),
        overheads=normalized.overheads,
        base_times=tuple(normalized.base_times[j] for j in order),
        speeds=normalized.speeds,
        meta=dict(normalized.meta),
    )
    return arranged, scale, order


def _profile_solve(
    inst: SchedulingInstance,
    eps: Rat,
    mode: str,
    selection: Selection,
    node_limit: int | None,
) -> ProfileOutcome:
    arranged, scale, order = _sorted_normalized(inst)
    adapter = ProfileAdapter(arranged, eps, mode)
    result = run(adapter, selection, Criterion("ratio-eps", rat(eps)), node_limit=node_limit)
    assignment = {order[k]: machine for k, machine in result.best_solution.items()}
    return ProfileOutcome(assignment, result.best_value * scale, scale, result)


def solve_uniform(
    inst: SchedulingInstance,
    eps: Rat,
    selection: Selection = Selection.BEST_FIRST,
    node_limit: int | None = None,
) -> ProfileOutcome:
    """Similarity-pruned scheme for uniform machines ((1+eps)^2 guarantee)."""
    return _profile_solve(inst, rat(eps), "similarity", selection, node_limit)


def solve_identical(
    inst: SchedulingInstance,
    eps: Rat,
    selection: Selection = Selection.BEST_FIRST,
    node_limit: int | None = None,
) -> ProfileOutcome:
    """Equivalence-pruned scheme for identical machines ((1+eps)^2 guarantee).

    For eps > 1 the root rounding alone is already a 2 <= (1+eps)
    approximation and is returned directly.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > 1:
        res = min_feasible_T(inst.processing, inst.overheads, range(inst.n))
        assignment, makespan = round_vertex(
            res.point, inst.processing, inst.overheads, ROUNDING_LST
        )
        result = RunResult(
            best_value=makespan,
            best_solution=dict(assignment),
            global_bound=res.t_min,
            nodes_explored=1,
            nodes_processed=0,
            max_depth=0,
            left_turn_max=None,
            nodes_after_optimum=0,
            termination="ratio-met",
            extras={"root_rounding_only": True},
        )
        return ProfileOutcome(dict(assignment), makespan, rat(1), result)
    return _profile_solve(inst, eps, "equivalence", selection, node_limit)
