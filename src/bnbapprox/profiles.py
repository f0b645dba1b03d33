"""Profile-pruned search for uniform and identical machines.

Both schemes measure the instance in units of the root's parametric-search
optimum (optimal makespans then lie in [1, 2]), sort jobs by decreasing
processing time and fix the longest unfixed job at every node, so that all
nodes of a tree level share the same fixed job set. Any partial schedule
whose completion-time vector (its *profile*, the node's overhead vector)
leaves the cube [0, 2(1+eps)^2]^m can be discarded outright.

normalize sorts the job labels, runs the one root search on the instance's
grid (see scheduling.SchedGrid) and returns that grid with the root optimum
as its unit R: the same integers P and t, with the root's guess R standing
for the normalized 1, and the search's own vertex. The adapter's bounds
are ints in units of 1/R; its thresholds (cube limit, cell side, big-job
cut, geometric ladder) go on R once, and the root, bounded at the one
guess R, takes normalize's vertex: it makes no LP solve. A run's value and
bound stay in these units; its jobs and its solution are in the instance's
labels.

Nodes and children are the unrelated scheme's (scheduling._SchedState,
scheduling.fix_job); ProfileAdapter adds only the pivot (the first of the
node's sorted unfixed jobs), the mass swap below, the stop at the last big
job and the profile filter.

Uniform machines prune by epsilon-similarity: the cube is cut into cells
of side eps/n (coordinate-wise floor of profile * n/eps); two profiles in
one cell differ by at most eps/n per coordinate, and a level keeps at most
one node per cell. Identical machines prune by epsilon-equivalence: fixed
jobs' processing times are rounded down to the geometric grid
eps*(1+eps)^k, and the multiset of (overhead, rounded load) pairs, one per
machine, is the node's key; a level keeps one node per key. The
equivalence argument swaps machines, so it may swap only machines with
equal overheads: keyed on rounded loads alone, a node whose long job sits
on a machine that starts later would stand for one where it sits on a
machine that starts earlier.
Jobs shorter than eps are *small*: they are never branched on (rounding a
vertex whose fractional jobs are all small costs at most eps extra, which
the stopping rule absorbs), so branching stops at the number of big jobs.
The ladder and the keys are ints: with eps = a/b, rung k is
a(a+b)^k / b^(k+1) (geometric_rungs), which the adapter keeps as
a(a+b)^k b^(K-k), over the top rung K's denominator; a key is the sorted
tuple of the machines' (overhead, integer sum) pairs, equal to another
exactly when their rational multisets are.

The longest-unfixed-job pivot is justified by a vertex transform: when a
vertex assigns the longest unfixed job integrally, fractional mass can be
swapped (uniform machines only) so that this job becomes fractional while
every machine completion time stays exactly the same. The swap must keep
eligibility p_{L,i} <= T on the receiving machine; when no fractional
partner machine satisfies that, the vertex is kept untransformed (the
pivot stays the longest unfixed job either way).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .engine import (
    AdapterContractError,
    BaseAdapter,
    BoundInfo,
    Criterion,
    Node,
    RunResult,
    Selection,
    Sense,
    Strategy,
    run,
)
from .instances import IDENTICAL, UNIFORM, InstanceError, SchedulingInstance
from .lp import LpError, graph_components
from .rational import Rat, floor_div, rat
from .scheduling import (
    ROUNDING_LST,
    LpPoint,
    SchedGrid,
    _integral_leaf,
    _SchedState,
    fix_job,
    min_feasible_T,
    round_vertex,
    split_jobs,
)

if TYPE_CHECKING:
    from .algorithms import Outcome

__all__ = [
    "normalize",
    "similarity_cell",
    "geometric_rungs",
    "uniform_vertex_check",
    "make_longest_fractional",
    "ProfileAdapter",
    "PROFILE_TAGS",
    "run_profile",
    "solve_uniform",
    "solve_identical",
    "similarity_level_bound",
]

# branching on the longest unfixed job, the BS bound, LST-match rounding
PROFILE_TAGS = ("LJ", "BS", ROUNDING_LST)


def normalize(inst: SchedulingInstance) -> tuple[SchedGrid, Rat, tuple[int, ...], LpPoint]:
    """The instance in units of its root parametric optimum K/R.

    Returns the instance's grid with K as its unit (SchedGrid(K, P, t)),
    so that the root's load LP is feasible at the guess R = K, the
    normalized 1; the scale K/R, by which reported makespans multiply
    back; the job labels sorted by decreasing processing time (ties by
    id); and the root's vertex, found by the one root search on the
    instance's grid. Only uniform/identical instances are accepted.
    """
    if inst.kind not in (UNIFORM, IDENTICAL):
        raise InstanceError("normalization applies to uniform or identical instances")
    grid = SchedGrid.build(inst)
    order = tuple(sorted(range(inst.n), key=lambda j: (-grid.P[j][0], j)))
    point = min_feasible_T(grid, grid.t, order)
    return SchedGrid(point.T, grid.P, grid.t), Fraction(point.T, grid.R), order, point


def cube_limit(eps: Rat) -> Rat:
    return 2 * (1 + rat(eps)) ** 2


def similarity_cell(profile: Sequence[int | Rat], side: Rat) -> tuple[int, ...]:
    """The cell of a profile in the grid of cubes of side `side`: the
    coordinate-wise floor of profile / side."""
    return tuple([c * side.denominator // side.numerator for c in profile])


def similarity_level_bound(n: int, eps: Rat, m: int) -> Rat:
    """Cap on pairwise non-similar profiles per level: (3n(1+eps)^2/eps)^m."""
    eps = rat(eps)
    return (3 * n * (1 + eps) ** 2 / eps) ** m


def geometric_rungs(eps: Rat, top: int, R: int) -> list[tuple[int, int]]:
    """The rungs eps*(1+eps)^k (k = 0, 1, ...) up to top/R, each as
    (a*(a+b)^k, b^(k+1)) for eps = a/b in lowest terms: rung k lies at or
    below p/R exactly when a*(a+b)^k * R <= p * b^(k+1)."""
    if eps <= 0:
        raise ValueError("geometric rounding needs eps > 0")
    a, b = eps.numerator, eps.denominator
    num, den = a, b
    rungs = []
    while num * R <= top * den:
        rungs.append((num, den))
        num *= a + b
        den *= b
    return rungs


def uniform_vertex_check(point: LpPoint) -> bool:
    """Vertex predicate on the point's fractional jobs: at most one per
    machine, their graph (an edge from each to each of its machines) is a
    forest, and every component holds at most one machine finishing
    strictly before the guess."""
    T = point.T
    m = len(point.loads)
    if len(point.fractional_jobs) > m:
        return False
    roots = graph_components(point.fractional_jobs)
    if roots is None:
        return False
    slack_count = Counter(
        roots[("machine", i)]
        for i in range(m)
        if ("machine", i) in roots and point.loads[i] < T
    )
    return all(v <= 1 for v in slack_count.values())


def make_longest_fractional(
    point: LpPoint, P: Sequence[Sequence[int]], jobs: Sequence[int]
) -> LpPoint:
    """Swap fractional mass so the longest unfixed job, jobs[0], becomes
    fractional.

    `jobs` are the node's unfixed jobs, longest first, and P holds uniform
    machines' times (p_ji / p_Li is the same on every i) on the point's
    grid. Completion times are preserved exactly. Returns the same point
    object when the job is already fractional or when no eligible swap
    partner exists (every candidate machine would receive the long job's
    mass while p_L on it exceeds the guess). The transformed point
    classifies its jobs in `jobs` order and is checked against the vertex
    predicate.
    """
    L = jobs[0]
    frac = point.fractional_jobs
    if L in frac:
        return point
    if not frac:
        raise ValueError("transform needs a fractional vertex")
    m1 = point.integral_assignment.get(L)
    if m1 is None:
        raise ValueError("longest job must be assigned in the vertex")
    T = point.T

    # partners: the fractional jobs on m1 if there are any, else all of them
    on_m1 = [j for j, machines in frac.items() if m1 in machines]
    choice = next(
        ((j, i) for j in on_m1 or frac for i in frac[j] if i != m1 and P[L][i] <= T),
        None,
    )
    if choice is None:
        return point

    j, m2 = choice
    x = _swap_mass(point.x, L, j, m1, m2, P)
    # completion times must be untouched: on each machine the loads the
    # changed coordinates gain and lose cancel exactly
    for i in (m1, m2):
        shift = sum((x.get((jj, i), 0) - point.x.get((jj, i), 0)) * P[jj][i] for jj in (L, j))
        if shift != 0:
            raise AdapterContractError(
                f"mass swap moved the completion time of machine {i} by {shift}"
            )

    new_point = LpPoint(T, x, point.loads, *split_jobs(x, jobs))
    if not uniform_vertex_check(new_point):
        raise LpError("fractional-mass swap broke the vertex predicate")
    return new_point


def _swap_mass(
    x: Mapping[tuple[int, int], Rat],
    L: int,
    j: int,
    m1: int,
    m2: int,
    P: Sequence[Sequence[int]],
) -> dict[tuple[int, int], Rat]:
    """Move job j's mass x[j, m2] onto m1 and the same work of job L from
    m1 onto m2; L sits wholly on m1."""
    eps2 = x[(j, m2)]
    eps1 = eps2 * P[j][m2] / P[L][m2]
    x = dict(x)
    x[(L, m1)] = 1 - eps1
    x[(L, m2)] = eps1
    new_j1 = x.get((j, m1), rat(0)) + eps2
    del x[(j, m2)]
    if new_j1 != 0:
        x[(j, m1)] = new_j1
    return x


class ProfileAdapter(BaseAdapter):
    """Shared skeleton; mode "similarity" (uniform) or "equivalence" (identical).
    Runs on normalize(inst): the instance's grid and job labels in units of
    the root optimum, so values times scale are in the instance's units.
    A node's jobs keep normalize's order, longest first. The payload of the
    latest root_payload call is bounded with normalize's vertex; every
    other payload runs min_feasible_T from its parent's bound. Keys (cells,
    or sorted (overhead, sum of rungs) pairs) and the level width bound are
    ints."""

    sense = Sense.MIN

    def __init__(self, inst: SchedulingInstance, eps: Rat, mode: str):
        if mode not in ("similarity", "equivalence"):
            raise ValueError(f"unknown profile mode {mode!r}")
        if mode == "equivalence" and inst.kind != IDENTICAL:
            raise InstanceError("equivalence pruning applies to identical instances")
        eps = rat(eps)
        if mode == "similarity" and not 0 < eps < 1:
            raise ValueError("similarity pruning needs 0 < eps < 1")
        if mode == "equivalence" and not 0 < eps <= 1:
            raise ValueError("equivalence pruning needs 0 < eps <= 1")
        self.grid, self.scale, self.order, self._root_point = normalize(inst)
        R = self.bound_scale = self.grid.R
        self.mode = mode
        self.P = self.grid.P
        self.n = inst.n
        self.m = inst.m
        # the thresholds on the grid: a profile coordinate c leaves the cube
        # when c > limit, and its cell is floor(c / cell_side)
        self.limit = floor_div(cube_limit(eps) * R, 1)
        self.cell_side = eps * R / self.n
        self.seen: set[tuple[int, Any]] = set()
        self.level_inserted: Counter = Counter()
        # a level's int count exceeds the bound exactly when it exceeds its floor
        self.level_bound = floor_div(similarity_level_bound(self.n, eps, self.m), 1)
        self.big_count = self.n  # similarity branches on every job
        if mode == "equivalence":
            # identical machines: column 0 holds every job's time; walk the
            # jobs longest first and the ladder down to each job's rung (see
            # the module docstring). Branching stops before the first small job.
            rungs = geometric_rungs(eps, self.P[self.order[0]][0], R)
            common = rungs[-1][1] if rungs else 1
            self.rounded: dict[int, int] = {}
            k = len(rungs) - 1
            for j in self.order:
                while k >= 0 and rungs[k][0] * R > self.P[j][0] * rungs[k][1]:
                    k -= 1
                if k < 0:
                    break
                self.rounded[j] = rungs[k][0] * (common // rungs[k][1])
            self.big_count = len(self.rounded)
        self._root: _SchedState | None = None

    def root_payload(self) -> _SchedState:
        R = self.grid.R  # the root optimum
        self._root = _SchedState(self.order, self.grid.t, None, lo_hint=R)
        return self._root

    def bound(self, state: _SchedState) -> BoundInfo:
        if state is self._root:
            point = self._root_point  # min_feasible_T's answer here, found by normalize
        else:
            point = min_feasible_T(self.grid, state.t, state.jobs, lo_hint=state.lo_hint)
        if not point.fractional_jobs:
            return _integral_leaf(self.grid, state, point)
        lb = point.T
        if state.jobs[0] not in point.fractional_jobs:  # the longest unfixed job
            point = make_longest_fractional(point, self.P, state.jobs)
        assignment, ub = round_vertex(point, self.P, state.t, ROUNDING_LST)
        return BoundInfo(lb, ub, (state.fixed, assignment), leaf=False)

    def branch(self, node: Node) -> list[_SchedState]:
        if node.depth >= self.big_count:
            # no job left, or the next pivot would be a small job: stop this
            # branch; the node's own rounding is at most eps above its bound
            return []
        return fix_job(node, self.P, node.payload.jobs[0])

    def _profile_key(self, state: _SchedState):
        if self.mode == "similarity":
            return similarity_cell(state.t, self.cell_side)
        loads = [0] * self.m
        chain = state.fixed
        while chain is not None:
            j, i, chain = chain
            loads[i] += self.rounded[j]
        return tuple(sorted(zip(self.grid.t, loads)))

    def admit(self, node: Node) -> bool:
        state: _SchedState = node.payload
        if any(c > self.limit for c in state.t):
            return False
        return (node.depth, self._profile_key(state)) not in self.seen

    def on_insert(self, node: Node) -> None:
        self.seen.add((node.depth, self._profile_key(node.payload)))
        self.level_inserted[node.depth] += 1
        if self.mode == "similarity" and self.level_inserted[node.depth] > self.level_bound:
            raise AdapterContractError(
                f"level {node.depth} width exceeded the similarity-cell bound"
            )


def run_profile(
    inst: SchedulingInstance, eps: Rat, strategy: Strategy, node_limit: int | None, mode: str
) -> tuple[RunResult, Rat]:
    """Run the similarity (uniform) or equivalence (identical) scheme, each
    with a (1+eps)^2 guarantee. Returns the run, its values in normalized
    units and its solution in the instance's job labels, and its scale.

    For eps > 1 the equivalence scheme's root rounding alone is already a
    2 <= (1+eps) approximation and is returned directly, at scale 1.
    """
    if mode == "equivalence" and eps > 1:
        grid = SchedGrid.build(inst)
        point = min_feasible_T(grid, grid.t, range(inst.n))
        assignment, makespan = round_vertex(point, grid.P, grid.t, ROUNDING_LST)
        result = RunResult(
            Fraction(makespan, grid.R), assignment, Fraction(point.T, grid.R),
            nodes_explored=1, nodes_processed=0, max_depth=0, left_turn_max=None,
            nodes_after_optimum=0, termination="ratio-met",
        )
        return result, rat(1)
    adapter = ProfileAdapter(inst, eps, mode)
    result = run(adapter, strategy.selection, Criterion("ratio-eps", eps), node_limit=node_limit)
    return result, adapter.scale


def solve_uniform(
    inst: SchedulingInstance,
    eps: Rat,
    selection: Selection = Selection.BEST_FIRST,
    node_limit: int | None = None,
) -> Outcome:
    """The uniform-machines scheme through algorithms.solve.

    Its answer is certified to (1+eps)^2, also when the run ends
    `ratio-met`: the stopping test reads the incumbent and the frontier
    only, not the subtrees that `admit` rejected, which the dominance
    argument covers within another factor 1+eps. The outcome's bound
    counts those subtrees, so value/bound can exceed 1+eps."""
    from .algorithms import solve  # algorithms imports this module

    return solve(inst, "uniform", eps, Strategy(selection, *PROFILE_TAGS), node_limit)


def solve_identical(
    inst: SchedulingInstance,
    eps: Rat,
    selection: Selection = Selection.BEST_FIRST,
    node_limit: int | None = None,
) -> Outcome:
    """The identical-machines scheme through algorithms.solve; what a
    `ratio-met` run certifies is (1+eps)^2, as for solve_uniform."""
    from .algorithms import solve  # algorithms imports this module

    return solve(inst, "identical", eps, Strategy(selection, *PROFILE_TAGS), node_limit)
