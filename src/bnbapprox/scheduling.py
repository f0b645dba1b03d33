"""Makespan bounds and branch-and-bound adapter for machine scheduling.

A node fixes some jobs onto machines; the residual problem is the same
problem class again with per-machine overheads t_i (the earliest time a
machine can start). BS bounds a node by searching for the smallest grid
value T such that the parametric load LP is feasible, where machine i may
carry load at most T - t_i and only eligible pairs take variables. Which
pairs are eligible is the `Eligibility` rule: the unrelated scheme's BS
admits (j, i) when t_i + p_{j,i} <= T, the eligibility rule of Lenstra,
Shmoys and Tardos applied to the node's residual problem (no completion
of the node puts j on i otherwise, and at the root, where t = 0, it is
their p_{j,i} <= T); the profile schemes keep that paper rule p_{j,i} <=
T at every node. The LR baseline bound drops the filter (the plain
makespan LP relaxation) and searches the same grid, so BS dominates LR by
construction.

Everything runs on one integer view of the instance (`SchedGrid`), built
once per run: P and t times R, the lcm of their denominators, and each
job's machines fastest first. Overheads, guesses, makespans, the
adapter's bounds (bound_scale = R) and every load LP are integers on it,
and so is the vertex a solve returns. The LP point's coordinates and the
completion times read off its slacks are Fractions, built only when a
caller reads them (see LpPoint), which the unrelated scheme never does.
A node's data can lie on a coarser grid than the instance's (fixed times
1/3 + 2/3 sum to 1), so min_feasible_T probes only multiples of the node
step g = gcd(R, t, the unfixed jobs' rows), the node's own grid: the LP
at k = g*k' is the LP at k' on that grid with every load row multiplied
by g, which changes neither the pivots nor the vertex.
Feasibility is monotone in T, and the search:

    brackets   k_lo from the overheads, the processing times and the
               parent's bound, k_hi from the node's own data: the largest
               overhead plus every job's shortest time, where each job on
               its fastest machine is feasible;
    probes     k_lo first (often the parent's bound is the child's
               answer, one LP solve), then walks up: an infeasible probe
               at k hands back a Farkas ray, the tableau row that proved
               it empty, which also proves every guess up to the last one
               where it breaks infeasible (its infeasibility reaches zero,
               or a column that opens has a positive weight), so the next
               probe is the step after that. Rays are checked against
               the node's data before they are used (LpError otherwise).
               The first feasible probe is the smallest feasible guess,
               and its vertex is the one that guess's LP always gives.

Vertices of the parametric LP have at most m fractional jobs, which
feasible_point checks on every vertex it returns (LpError otherwise);
rounding modes:

    AS        each fractional job to its fastest machine;
    LST-match each fractional job to a distinct supporting machine along
              a bipartite matching (makespan at most 2T);
    BM        best placement of the fractional jobs (a pruned search).

Branching fixes the fractional job with maximal shortest processing time
(MMP) onto each machine in turn. A node is a _SchedState and fix_job
builds its children, one per machine; the uniform and identical schemes
(profiles) share both and differ only in the pivot and the pruning. The
guarantees the scheme rests on (the 2T rounding bound, an integral vertex
at its minimal guess, the pivot-controlled upper bound and the best-first
depth cap) are checked on every call and raise AdapterContractError, also
under python -O.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .engine import (
    AdapterContractError,
    BaseAdapter,
    BoundInfo,
    Chain,
    Criterion,
    Node,
    RunResult,
    Selection,
    Sense,
    Strategy,
    chain_solution,
    run,
)
from .instances import SchedulingInstance
from .lp import LpError, job_machine_matching, solve_vertex
from .rational import Rat, floor_div, grid_scale, on_grid

if TYPE_CHECKING:
    from .algorithms import Outcome

__all__ = [
    "Eligibility",
    "SchedGrid",
    "LpPoint",
    "FarkasRay",
    "build_load_lp",
    "min_feasible_T",
    "feasible_point",
    "ray_reach",
    "split_jobs",
    "round_vertex",
    "mmp_pivot",
    "fix_job",
    "UnrelatedAdapter",
    "run_unrelated",
    "solve_unrelated",
    "scheme_depth_cap",
]

ROUNDING_AS = "AS"
ROUNDING_BM = "BM"
ROUNDING_LST = "LST-match"


class Eligibility(Enum):
    """Which pairs (j, i) the load LP at guess T of a node with overheads t
    admits, besides needing an open machine (t_i < T): a pair is a column
    from the guess max(t_i + 1, its threshold) on."""

    ALL = "all"  # LR: no filter
    PAPER = "paper"  # p_ji <= T
    RESIDUAL = "residual"  # t_i + p_ji <= T


@dataclass(frozen=True)
class SchedGrid:
    """An instance on integers: P (jobs x machines) and the overheads t
    in units of 1/R. R is the grid's unit: the lcm of the data's
    denominators from `build` (1 on generated data), or the root optimum
    in the profile schemes (profiles.normalize). `order` holds each job's
    machines fastest first (ties: lowest machine), derived from P once per
    grid; each load LP filters it by the open and eligible machines."""

    R: int
    P: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]
    order: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple([tuple(sorted(range(len(row)), key=row.__getitem__)) for row in self.P])
        object.__setattr__(self, "order", order)

    @classmethod
    def build(cls, inst: SchedulingInstance) -> SchedGrid:
        R = grid_scale([*itertools.chain(*inst.processing), *inst.overheads])
        P = tuple([on_grid(row, R) for row in inst.processing])
        return cls(R, P, on_grid(inst.overheads, R))


@dataclass(slots=True)
class LpPoint:
    """A basic feasible solution of the parametric load LP at guess T.

    fractional_jobs maps each fractional job to its machines (those of
    its nonzero coordinates, ascending), in the order of the node's jobs;
    integral_assignment maps every other job to its machine. Both come
    from split_jobs, the one place that classifies a point's jobs.

    A point that feasible_point reads off a vertex starts without x and
    loads, which most callers never read: the first read of either lands
    in __getattr__ and builds both from the vertex, exact and typed as
    below."""

    T: int  # on the grid of the data the point was built from
    x: Mapping[tuple[int, int], Rat]  # nonzero coordinates
    loads: tuple[int | Rat, ...]  # completion times t_i + assigned load
    fractional_jobs: Mapping[int, tuple[int, ...]]
    integral_assignment: Mapping[int, int]
    # (vertex, pairs, machines, t) of a point that feasible_point read off
    _source: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # reached only when a slot is unset: x and loads of feasible_point's point
        if name not in ("x", "loads"):
            raise AttributeError(name)
        vertex, pairs, machines, t = self._source
        self.x = {pair: v for pair, v in zip(pairs, vertex.values) if v}
        loads: list[int | Rat] = list(t)
        for i, slack in zip(machines, vertex.slacks):
            loads[i] = self.T - slack
        self.loads = tuple(loads)
        return getattr(self, name)


@dataclass(slots=True)
class FarkasRay:
    """Row weights proving a load LP empty: y_jobs[j] for job j's
    assignment row and y_machines[i] for machine i's load row (0 for a
    machine the program gives no row). See ray_reach for what they must
    satisfy."""

    y_jobs: Mapping[int, int]
    y_machines: tuple[int, ...]


def build_load_lp(
    grid: SchedGrid,
    t: Sequence[int],
    jobs: Sequence[int],
    T: int,
    eligibility: Eligibility = Eligibility.PAPER,
) -> tuple[list[list[int]], list[int], list[tuple[int, int]], list[int]] | None:
    """The crashed tableau of the load LP at guess T of the node with
    overheads t and unfixed `jobs` on `grid`, or None when the LP is
    trivially infeasible (an overfull machine or a job with no eligible
    pair). Returns (tableau, basis, pairs, machines) for lp.solve_vertex.

    The LP: variables are the pairs that `eligibility` admits (`pairs`),
    grouped by job in `jobs` order and within a job in the grid's
    fastest-first order; machines without residual capacity take no
    variables under any rule. Each job has a 0/1 assignment row with rhs 1,
    and each machine with columns (`machines`, in machine order) a load row
    of P's entries with rhs T - t_i and a slack.

    The crash: job j's row pivots on its first column, its fastest open
    and eligible machine m_j. That unit pivot leaves every other row alone
    except m_j's load row, from which it subtracts P[j][m_j] times job j's
    row: -P[j][m_j] on j's other columns and on the rhs, 0 on (j, m_j). So
    the tableau holds the job rows as given, with basic label their first
    column, then the load rows so reduced, with basic label their slack.
    """
    if max(t) > T:
        return None
    P = grid.P
    # cap[i]: the longest time machine i admits (-1 when it is closed); no
    # machine admits a time above `top`
    if eligibility is Eligibility.RESIDUAL:
        cap = [T - ti if T > ti else -1 for ti in t]
        top = T - min(t)
    else:
        top = T if eligibility is Eligibility.PAPER else math.inf
        cap = [top if T > ti else -1 for ti in t]
    pairs: list[tuple[int, int]] = []
    spans: list[tuple[int, int]] = []
    used = [False] * len(t)  # the machines with columns
    for j in jobs:
        Pj = P[j]
        start = len(pairs)
        for i in grid.order[j]:
            p = Pj[i]
            if p > top:
                break  # every later machine is slower still
            if p <= cap[i]:
                pairs.append((j, i))
                used[i] = True
        if len(pairs) == start:
            return None
        spans.append((start, len(pairs)))
    nv = len(pairs)

    machines = [i for i, u in enumerate(used) if u]
    width = nv + len(machines) + 1
    load_rows: list = [None] * len(t)  # by machine; a row for each machine with columns
    for r, i in enumerate(machines):
        row = load_rows[i] = [0] * width
        row[nv + r] = 1
        row[-1] = T - t[i]
    tableau: list[list[int]] = []
    for a, b in spans:
        row = [0] * width
        row[a] = row[-1] = 1
        tableau.append(row)
        j, fastest = pairs[a]
        Pj = P[j]
        p = Pj[fastest]
        crashed = load_rows[fastest]
        crashed[-1] -= p
        for k in range(a + 1, b):
            i = pairs[k][1]
            row[k] = 1
            crashed[k] = -p
            load_rows[i][k] = Pj[i]
    tableau += [load_rows[i] for i in machines]
    basis = [a for a, _ in spans] + list(range(nv, width - 1))
    return tableau, basis, pairs, machines


def feasible_point(
    grid: SchedGrid,
    t: Sequence[int],
    jobs: Sequence[int],
    T: int,
    eligibility: Eligibility,
    rays: list[FarkasRay],
) -> LpPoint | None:
    """Vertex of the load LP at guess T (see build_load_lp), or None when
    infeasible.

    `eligibility` filters the pairs; machines with no residual capacity
    (T - t_i <= 0) take no variables under any rule. build_load_lp writes
    the crashed tableau and lp.solve_vertex runs the dual phase on it. A
    machine's completion time is T minus the slack of its load row, and
    t_i when it has none (so a node without unfixed jobs gets loads t).
    When the LP is empty, the Farkas ray read off the tableau row that
    proved it empty (see lp) is appended to `rays`; a program that
    build_load_lp already rules out appends nothing.
    A vertex with more fractional jobs than machines raises LpError.
    """
    built = build_load_lp(grid, t, jobs, T, eligibility)
    if built is None:
        return None
    tableau, basis, pairs, machines = built
    nv = len(pairs)
    farkas: list[int] = []
    vertex = solve_vertex(tableau, basis, nv, len(machines), farkas)
    if vertex is None:
        # the Farkas row holds -y_i on the slack of machine i's load row
        # and -(y_jobs[j] + y_i * p_ji) on a column (j, i), so one column
        # per job gives y_jobs; ray_reach checks the ray whatever its source
        y = [0] * len(t)
        for r, i in enumerate(machines):
            y[i] = -farkas[nv + r]
        y_jobs: dict[int, int] = {}
        for (j, i), d in zip(pairs, farkas):
            if j not in y_jobs:
                y_jobs[j] = -d - y[i] * grid.P[j][i]
        rays.append(FarkasRay(y_jobs, tuple(y)))
        return None

    # the nonzero coordinates are the basic ones with a nonzero rhs
    support = [pairs[b] for b, v in zip(vertex.basis, vertex.rhs) if v and b < nv]
    fractional, integral = split_jobs(support, jobs)
    if len(fractional) > len(t):
        raise LpError(
            f"vertex has {len(fractional)} fractional jobs for {len(t)} machines; "
            "lp-vertex bug"
        )
    point = LpPoint.__new__(LpPoint)  # x and loads wait for their first read
    point.T, point.fractional_jobs, point.integral_assignment = T, fractional, integral
    point._source = (vertex, pairs, machines, t)
    return point


def split_jobs(
    support: Iterable[tuple[int, int]], jobs: Iterable[int]
) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
    """The fractional jobs of a point with their machines, ascending, and
    the machine of every other job, both in `jobs` order. `support` holds
    the pairs (j, i) of the point's nonzero coordinates (a mapping of
    them, such as LpPoint.x, will do). A job's coordinates sum to 1, so
    a job with one nonzero coordinate is integral, and otherwise every
    one of them lies strictly between 0 and 1."""
    by_job: dict[int, list[int]] = {}
    for j, i in support:
        by_job.setdefault(j, []).append(i)
    fractional: dict[int, tuple[int, ...]] = {}
    integral: dict[int, int] = {}
    for j in jobs:
        machines = by_job.get(j, [])
        if len(machines) == 1:
            integral[j] = machines[0]
        else:
            fractional[j] = tuple(sorted(machines))
    return fractional, integral


def _ceil_to(v: int | Rat, g: int) -> int:
    """The smallest multiple of g that is >= v."""
    return -(-v // g) * g


def ray_reach(
    ray: FarkasRay,
    P: Sequence[Sequence[int]],
    t: Sequence[int],
    jobs: Sequence[int],
    k: int,
    k_hi: int,
    eligibility: Eligibility = Eligibility.PAPER,
) -> int:
    """The largest guess k2 in [k, k_hi] such that `ray` proves the load LP
    empty at every integer guess from k to k2; k_hi when it proves them
    all. The data, the guesses and the ray are integers on one grid (that
    of min_feasible_T), and k is at least every overhead.

    The ray proves LP(k') empty when, with y = ray.y_machines:
    - y_i <= 0 for every machine (the slack column of its load row),
    - y_jobs[j] + y_i * p_ji <= 0 on every column (j, i) of LP(k'),
    - the infeasibility sum(y_jobs) + sum_i y_i * (k' - t_i) is positive.
    A machine that LP(k') gives no load row counts too: its empty load
    meets k' - t_i >= 0.
    Raises LpError when the ray proves nothing at k: a positive slack or
    column, or an infeasibility that is not positive. Above k the
    infeasibility falls by -sum(y) per grid step, and a pair (j, i)
    becomes a column at t_i + 1 under Eligibility.ALL, at max(t_i + 1,
    p_ji) under PAPER and at t_i + p_ji under RESIDUAL: the reach ends
    just before the first guess where either breaks the ray.
    """
    y = ray.y_machines
    infeasibility = sum(ray.y_jobs.values())
    for i, yi in enumerate(y):
        if yi > 0:
            raise LpError(f"Farkas ray is positive on the slack of machine {i}")
        infeasibility += yi * (k - t[i])
    if infeasibility <= 0:
        raise LpError(f"Farkas ray has infeasibility {infeasibility} <= 0 at guess {k}")
    reach = k_hi
    slope = -sum(y)
    if slope > 0:
        reach = min(reach, k + (infeasibility - 1) // slope)
    for j in jobs:
        yj = ray.y_jobs[j]
        for i, p in enumerate(P[j]):
            if yj + y[i] * p > 0:
                opens = t[i] + 1
                if eligibility is Eligibility.PAPER:
                    opens = max(opens, p)
                elif eligibility is Eligibility.RESIDUAL:
                    opens = max(opens, t[i] + p)
                if opens <= k:
                    raise LpError(f"Farkas ray is positive on column ({j}, {i}) at guess {k}")
                reach = min(reach, opens - 1)
    return reach


def min_feasible_T(
    grid: SchedGrid,
    t: Sequence[int],
    jobs: Sequence[int],
    eligibility: Eligibility = Eligibility.PAPER,
    lo_hint: int | Rat | None = None,
) -> LpPoint:
    """A vertex of the load LP at the smallest feasible guess of the node
    with overheads t and unfixed `jobs`, all on `grid`: guesses k stand for
    T = k/R, and only multiples of the node step g are probed (see the
    module docstring). The bracket is [k_lo, k_hi], both multiples of g:

    - k_lo: max(max overhead, averaged load bound, lo_hint, and the
      largest over the jobs of the first guess where a job has a column:
      its shortest time under Eligibility.PAPER, its smallest t_i + p_ji
      under RESIDUAL), rounded up to a step; lo_hint is a known lower
      bound such as the parent node's optimum;
    - k_hi: the largest overhead plus every job's shortest time (at least
      k_lo), a feasible guess under every rule: with every job on its
      fastest machine each machine is open (processing times are
      positive), no load exceeds it and so each used pair has t_i + p_ji
      <= k_hi.

    k_lo is probed first and, when feasible, is the answer after one LP
    solve. Otherwise the search walks up: an infeasible probe at k hands
    back its Farkas ray, ray_reach checks it and finds the last guess k2
    it proves infeasible, and the next probe is the first step above k2
    (k + g when build_load_lp rules k out without a solve). So the first
    feasible probe is the smallest feasible step, and the vertex returned
    is the one its LP always gives. Every probe is one feasible_point call.
    Raises LpError when a ray fails its check, or when no step of the
    bracket turns out feasible, which a correct ray never allows; a wrong
    T is never returned.
    """
    P = grid.P
    g = math.gcd(grid.R, *t)
    if g > 1:  # the jobs' rows can only lower it further
        g = math.gcd(g, *itertools.chain(*[P[j] for j in jobs]))
    shortest = [min(P[j]) for j in jobs]
    work = sum(shortest)
    k_lo = max(t, default=0)
    k_hi = k_lo + work  # a multiple of g, as t and P[jobs] are
    if jobs:
        if eligibility is Eligibility.PAPER:
            k_lo = max(k_lo, max(shortest))
        elif eligibility is Eligibility.RESIDUAL:
            k_lo = max(k_lo, max([min(map(operator.add, t, P[j])) for j in jobs]))
        k_lo = max(k_lo, _ceil_to(work + sum(t), len(t) * g) // len(t))
    if lo_hint is not None:
        k_lo = max(k_lo, _ceil_to(lo_hint, g))
    k_hi = max(k_hi, k_lo)

    # the lower end first: a child's answer is often its parent's bound
    k = k_lo
    while k <= k_hi:
        rays: list[FarkasRay] = []
        point = feasible_point(grid, t, jobs, k, eligibility, rays)
        if point is not None:
            return point
        k = _ceil_to((ray_reach(rays[0], P, t, jobs, k, k_hi, eligibility) if rays else k) + 1, g)
    raise LpError("upper bracket infeasible; bracket construction is broken")


def _loads(
    P: Sequence[Sequence[int]], t: Sequence[int], assignment: Mapping[int, int]
) -> list[int]:
    loads = list(t)
    for j, i in assignment.items():
        loads[i] += P[j][i]
    return loads


def _best_placement(
    P: Sequence[Sequence[int]], loads: list[int], frac: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """The first placement of the jobs `frac`, in itertools.product order,
    that minimizes the makespan over the fixed `loads`, and that makespan.

    A depth-first search in that order: a prefix whose partial makespan is
    not below the best cannot improve it and is pruned, and the search
    stops once the best equals the largest fixed load, which nothing beats.
    Only a strictly smaller makespan replaces the best, so the first
    minimum wins, as in an exhaustive scan. `loads` is restored on return.
    """
    m = len(loads)
    floor = max(loads)
    combo = [0] * len(frac)
    best_combo: tuple[int, ...] = ()
    best: int | None = None

    def place(d: int, partial: int) -> None:
        """Try every machine for frac[d] after the prefix combo[:d]."""
        nonlocal best_combo, best
        Pj = P[frac[d]]
        last = d + 1 == len(frac)
        for i in range(m):
            loads[i] += Pj[i]
            mk = max(partial, loads[i])
            if best is None or mk < best:
                combo[d] = i
                if last:
                    best_combo, best = tuple(combo), mk
                else:
                    place(d + 1, mk)
            loads[i] -= Pj[i]
            if best == floor:
                return

    place(0, floor)
    return best_combo, best


def round_vertex(
    point: LpPoint,
    P: Sequence[Sequence[int]],
    t: Sequence[int],
    mode: str,
) -> tuple[dict[int, int], int]:
    """Integral schedule from a vertex and its makespan, on the grid of P
    and t: integral jobs stay, fractional ones move.

    LST-match reassigns along an injection into supporting machines and is
    guaranteed a makespan of at most twice the vertex's T (checked on
    every call, AdapterContractError otherwise); AS uses each job's
    fastest machine; BM finds the best placement of the (at most m)
    fractional jobs, the first in itertools.product order.
    """
    m = len(t)
    assignment = dict(point.integral_assignment)
    frac = point.fractional_jobs
    if not frac:
        return assignment, max(_loads(P, t, assignment))
    if mode == ROUNDING_AS:
        for j in frac:
            assignment[j] = min(range(m), key=P[j].__getitem__)  # the first fastest
        return assignment, max(_loads(P, t, assignment))
    if mode == ROUNDING_LST:
        matching = job_machine_matching(frac)
        if matching is None:
            raise LpError("no fractional-job matching: vertex structure bug")
        assignment.update(matching)
        makespan = max(_loads(P, t, assignment))
        if makespan > 2 * point.T:
            raise AdapterContractError(
                f"matching rounding makespan {makespan} exceeded twice the guess {point.T}"
            )
        return assignment, makespan
    if mode == ROUNDING_BM:
        if m ** len(frac) > 2_000_000:
            raise ValueError(
                f"best-matching rounding would scan {m}^{len(frac)} placements; "
                "use AS or LST-match on this many machines"
            )
        best_combo, best_makespan = _best_placement(P, _loads(P, t, assignment), tuple(frac))
        assignment.update(zip(frac, best_combo))
        return assignment, best_makespan
    raise ValueError(f"unknown rounding mode {mode!r}")


def mmp_pivot(point: LpPoint, P: Sequence[Sequence[int]]) -> int:
    """Fractional job with maximal shortest processing time; ties lowest id."""
    if not point.fractional_jobs:
        raise ValueError("no fractional job to pivot on")
    return max(point.fractional_jobs, key=lambda j: (min(P[j]), -j))


def scheme_depth_cap(m: int, eps: Rat) -> int:
    if eps <= 0:
        raise ValueError("eps must be positive")
    return floor_div(m * m, eps)


@dataclass
class _SchedState:
    """A scheduling node, also the profile schemes': unfixed jobs, completion
    times t, fixed jobs as a chain (job, machine, parent), the parent's bound
    (where the node's T-search starts) and, once the unrelated scheme has
    bounded it, the job it branches on; all on the adapter's grid."""

    jobs: tuple[int, ...]
    t: tuple[int, ...]
    fixed: Chain
    lo_hint: int | None = None
    pivot: int | None = None


def fix_job(node: Node, P: Sequence[Sequence[int]], pivot: int) -> list[_SchedState]:
    """One child per machine: `pivot` fixed there and that machine's
    completion time raised. Each child's T-search starts at the node's
    bound."""
    state: _SchedState = node.payload
    rest = tuple(j for j in state.jobs if j != pivot)
    out = []
    for i, p in enumerate(P[pivot]):
        t = list(state.t)
        t[i] += p
        out.append(_SchedState(rest, tuple(t), (pivot, i, state.fixed), lo_hint=node.lb))
    return out


def _integral_leaf(grid: SchedGrid, state: _SchedState, point: LpPoint) -> BoundInfo:
    """The leaf of a node whose vertex is integral: the fixed jobs plus the
    vertex's assignment, whose makespan on the instance must be the minimal
    guess point.T (AdapterContractError otherwise). The check builds the
    whole solution, so the token carries it with an empty chain."""
    solution = chain_solution(state.fixed, point.integral_assignment)
    makespan = max(_loads(grid.P, grid.t, solution))
    if makespan != point.T:
        raise AdapterContractError(
            f"integral vertex makespan {makespan} off its minimal guess {point.T}"
        )
    return BoundInfo(point.T, makespan, (None, solution), leaf=True)


class UnrelatedAdapter(BaseAdapter):
    """Engine adapter: BS (under Eligibility.RESIDUAL) or LR bounding, AS
    or BM rounding, MMP branching. Bounds are ints on the instance's grid,
    in units of 1/bound_scale = 1/R."""

    sense = Sense.MIN

    def __init__(
        self,
        inst: SchedulingInstance,
        bounding: str = "BS",
        rounding: str = ROUNDING_AS,
        depth_cap: int | None = None,
    ):
        if bounding not in ("BS", "LR"):
            raise ValueError(f"unknown bounding {bounding!r}")
        if rounding not in (ROUNDING_AS, ROUNDING_BM):
            raise ValueError(f"unknown rounding {rounding!r}")
        self.grid = SchedGrid.build(inst)
        self.bound_scale = self.grid.R
        self.P = self.grid.P
        self.m = inst.m
        self.eligibility = Eligibility.RESIDUAL if bounding == "BS" else Eligibility.ALL
        self.rounding = rounding
        self.depth_cap = depth_cap

    def root_payload(self) -> _SchedState:
        return _SchedState(tuple(range(len(self.P))), self.grid.t, None)

    def bound(self, state: _SchedState) -> BoundInfo:
        point = min_feasible_T(
            self.grid, state.t, state.jobs, self.eligibility, lo_hint=state.lo_hint
        )
        if not point.fractional_jobs:
            return _integral_leaf(self.grid, state, point)
        lb = point.T
        assignment, ub = round_vertex(point, self.P, state.t, self.rounding)
        pivot = state.pivot = mmp_pivot(point, self.P)
        if ub > lb + self.m * min(self.P[pivot]):
            raise AdapterContractError(
                f"rounded makespan {ub} exceeded the pivot-controlled bound "
                f"{lb} + {self.m} * {min(self.P[pivot])}"
            )
        return BoundInfo(lb, ub, (state.fixed, assignment), leaf=False)

    def branch(self, node: Node) -> list[_SchedState]:
        if self.depth_cap is not None and node.depth >= self.depth_cap:
            return []
        return fix_job(node, self.P, node.payload.pivot)


def run_unrelated(
    inst: SchedulingInstance,
    eps: Rat,
    strategy: Strategy,
    node_limit: int | None,
    depth_cap: int | None = None,
) -> tuple[RunResult, None]:
    """Run the (1+eps)-scheme on an unrelated/uniform/identical instance.

    depth_cap limits branching depth (used by the BFS variant, which keeps
    the guarantee under the cap floor(m^2/eps)). Uncapped best-first runs
    check the tree-depth bound of the scheme after the fact and raise
    AdapterContractError when it is exceeded. Returns the run, its solution
    in the instance's job labels, and no scale (the scheme runs on the
    instance as given).
    """
    adapter = UnrelatedAdapter(
        inst, bounding=strategy.bounding, rounding=strategy.rounding, depth_cap=depth_cap
    )
    selection = strategy.selection
    result = run(adapter, selection, Criterion("ratio-eps", eps), node_limit=node_limit)
    if selection is Selection.BEST_FIRST and depth_cap is None and node_limit is None:
        cap = scheme_depth_cap(inst.m, eps)
        if result.max_depth > cap:
            raise AdapterContractError(
                f"best-first tree reached depth {result.max_depth} > {cap}"
            )
    return result, None


def solve_unrelated(
    inst: SchedulingInstance,
    eps: Rat,
    selection: Selection = Selection.BEST_FIRST,
    bounding: str = "BS",
    rounding: str = ROUNDING_AS,
    node_limit: int | None = None,
    depth_cap: int | None = None,
) -> Outcome:
    """The unrelated-machines scheme through algorithms.solve."""
    from .algorithms import solve  # algorithms imports this module

    strategy = Strategy(selection, "MMP", bounding, rounding)
    return solve(inst, "unrelated", eps, strategy, node_limit, depth_cap)
