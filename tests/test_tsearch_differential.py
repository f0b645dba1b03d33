"""Differential test: min_feasible_T must find the guess that bisection finds.

`reference_min_feasible_T` below is the search that the Farkas walk-up of
`bnbapprox.scheduling.min_feasible_T` replaced: it works in the instance's
units on the node's own grid (`grid_denominator`, the lcm of the node's
denominators), probes the lower end of the bracket first and bisects the
rest, building every probe's load LP from `Fraction` rows and deciding it
with the phase-1 simplex `reference_solve_vertex` (test_lp_differential).
The production search runs on the instance's integer grid (`SchedGrid`),
probes only the multiples of the node step, and after an infeasible probe
skips every guess the probe's Farkas ray proves infeasible. The smallest
feasible value of the node's grid belongs to the LP family, not to a
solver, so both must return the same T, and the walk-up must need fewer LP
solves in total. Which vertex of that LP comes back is the solver's choice:
the production point must be one: a point of the LP at T with its loads
and split read off x correctly (its fractional jobs and their machines
equal to `guarantees.reference_fractional_jobs` of x), at most m
fractional jobs, and a fractional graph with a job-machine matching whose every component has no
more edges than nodes (one cycle at most). On unrelated data such a cycle
is a genuine vertex: two jobs split over the same two machines with
p_a0 * p_b1 != p_a1 * p_b0 have independent columns. On uniform data that
determinant is 0, so there the graph must be a forest and the point must
also pass `uniform_vertex_check`. Node states whose data lie on a coarser grid than
the instance's are among the inputs, and so are the uniform scheme's
vertices whose mass it swaps, which build x and loads on that first read.
Both searches take the same `Eligibility` rule (the reference through
`lp_oracle.admits`). The residual rule of the unrelated BS bound is also held, at every node of
small runs on rational data with overheads, between the paper rule's
guess and the optimum of the node's residual instance.
"""
import math
import random
import sys

import pytest

from bnbapprox import profiles, scheduling
from bnbapprox.engine import Selection
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, SchedulingInstance, generate
from bnbapprox.lp import job_machine_matching
from bnbapprox.oracle import exact_opt
from bnbapprox.profiles import solve_identical, solve_uniform, uniform_vertex_check
from bnbapprox.rational import Rat, floor_div, on_grid, rat
from bnbapprox.scheduling import (
    ROUNDING_AS,
    ROUNDING_BM,
    Eligibility,
    LpPoint,
    SchedGrid,
    min_feasible_T,
    solve_unrelated,
)
from guarantees import graph_is_forest, reference_fractional_jobs
from lp_oracle import LinearProgram, admits
from test_lp_differential import reference_solve_vertex


def grid_denominator(P, t, jobs) -> int:
    """The lcm of the denominators of a node's data: its own grid."""
    d = 1
    for j in jobs:
        for v in P[j]:
            d = math.lcm(d, v.denominator)
    for v in t:
        d = math.lcm(d, v.denominator)
    return d


def _reference_build_load_lp(P, t, jobs, T, eligibility=Eligibility.PAPER):
    m = len(t)
    if any(T < ti for ti in t):
        return None
    open_machines = [i for i in range(m) if T - t[i] > 0]
    pairs = []
    for j in jobs:
        row = [(j, i) for i in open_machines if admits(eligibility, P[j][i], t[i], T)]
        if not row:
            return None
        pairs.extend(row)
    index = {pair: k for k, pair in enumerate(pairs)}
    nv = len(pairs)
    equalities = []
    for j in jobs:
        coeffs = [rat(0)] * nv
        for i in open_machines:
            k = index.get((j, i))
            if k is not None:
                coeffs[k] = rat(1)
        equalities.append((tuple(coeffs), rat(1)))
    inequalities = []
    for i in open_machines:
        coeffs = [rat(0)] * nv
        hit = False
        for j in jobs:
            k = index.get((j, i))
            if k is not None:
                coeffs[k] = P[j][i]
                hit = True
        if hit:
            inequalities.append((tuple(coeffs), T - t[i]))
    return LinearProgram(nv, tuple(equalities), tuple(inequalities)), tuple(pairs)


def _reference_feasible_point(P, t, jobs, T, eligibility=Eligibility.PAPER):
    built = _reference_build_load_lp(P, t, jobs, T, eligibility)
    if built is None:
        return None
    lp, pairs = built
    vertex = reference_solve_vertex(lp)
    if vertex is None:
        return None
    x = {pair: v for pair, v in zip(pairs, vertex.values) if v != 0}
    loads = list(t)
    for (j, i), v in x.items():
        loads[i] += P[j][i] * v
    integral = {j: i for (j, i), v in x.items() if v == 1}
    return LpPoint(T, x, tuple(loads), reference_fractional_jobs(x), integral)


def _reference_list_schedule(P, t, jobs):
    loads = [rat(v) for v in t]
    for j in jobs:
        best = min(range(len(t)), key=lambda i: (loads[i] + P[j][i], i))
        loads[best] += P[j][best]
    return max(loads) if loads else rat(0)


def reference_min_feasible_T(P, t, jobs, eligibility=Eligibility.PAPER, lo_hint=None):
    m = len(t)
    D = grid_denominator(P, t, jobs)
    lo = max(t) if t else rat(0)
    if jobs:
        if eligibility is not Eligibility.ALL:  # no job has a column below this
            lo = max(lo, max(min(P[j]) for j in jobs))
        total = sum((min(P[j]) for j in jobs), start=rat(0)) + sum(t, start=rat(0))
        lo = max(lo, total / m)
    if lo_hint is not None:
        lo = max(lo, lo_hint)
    upper = max(_reference_list_schedule(P, t, jobs), lo)
    k_lo = -floor_div(-lo * D, 1)
    k_hi = max(int(upper * D), k_lo)
    # the lower end first, then bisection of the rest of the bracket
    cached = _reference_feasible_point(P, t, jobs, Rat(k_lo, D), eligibility)
    if cached is None:
        k_lo += 1
        while k_lo < k_hi:
            mid = (k_lo + k_hi) // 2
            point = _reference_feasible_point(P, t, jobs, Rat(mid, D), eligibility)
            if point is None:
                k_lo = mid + 1
            else:
                k_hi = mid
                cached = point
    t_min = Rat(k_lo, D)
    if cached is None or cached.T != t_min:
        cached = _reference_feasible_point(P, t, jobs, t_min, eligibility)
        assert cached is not None
    return cached


def _count_solves(monkeypatch):
    """Count the LP solves of the production search ("walk-up") and of the
    reference ("bisection") apart."""
    counts = {"walk-up": 0, "bisection": 0}
    for owner, name, side in (
        (scheduling, "solve_vertex", "walk-up"),
        (sys.modules[__name__], "reference_solve_vertex", "bisection"),
    ):
        kernel = getattr(owner, name)

        def counting(lp, *args, _kernel=kernel, _side=side, **kwargs):
            counts[_side] += 1
            return _kernel(lp, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def _assert_vertex(got: LpPoint, want: LpPoint, R: int, P, t, jobs, eligibility) -> None:
    """got, P and t are on the grid R, want is in the instance's units:
    the same T, and got a vertex of the load LP at that T."""
    assert type(got.T) is int and got.T == want.T * R
    T, m, x = got.T, len(t), got.x
    assert all(type(v) is Rat and 0 < v <= 1 for v in x.values())
    assert all(j in jobs and admits(eligibility, P[j][i], t[i], T) for j, i in x)
    by_job = {j: [v for (jj, _), v in x.items() if jj == j] for j in jobs}
    assert all(sum(values) == 1 for values in by_job.values())
    loads = list(t)
    for (j, i), v in x.items():
        loads[i] += P[j][i] * v
    assert list(got.loads) == loads and max(loads) <= T
    fractional = [j for j in jobs if any(v < 1 for v in by_job[j])]
    assert list(got.fractional_jobs) == fractional and len(fractional) <= m
    # the one classification, against the one derived from x alone, in
    # the order of the node's jobs
    derived = reference_fractional_jobs(x)
    want_fractional = {j: derived[j] for j in jobs if j in derived}
    assert list(got.fractional_jobs.items()) == list(want_fractional.items())
    assert got.integral_assignment == {j: i for (j, i), v in x.items() if v == 1}
    assert job_machine_matching(want_fractional) is not None
    nodes: dict = {}
    for j, machines in want_fractional.items():
        for i in machines:
            nodes.setdefault(("job", j), set()).add(("machine", i))
            nodes.setdefault(("machine", i), set()).add(("job", j))
    seen: set = set()
    for start in nodes:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for nxt in nodes[stack.pop()] - component:
                component.add(nxt)
                stack.append(nxt)
        seen |= component
        edges = sum(len(nodes[v]) for v in component) // 2
        assert edges <= len(component)


def _units(v, R):
    return None if v is None else Rat(v, R)


def _rationalize(inst: SchedulingInstance, rnd: random.Random) -> SchedulingInstance:
    """Unrelated instance with processing times and overheads on mixed grids."""
    processing = tuple(
        tuple(v / rnd.choice((1, 2, 3, 4, 6)) + rat(rnd.randint(0, 5), 7) for v in row)
        for row in inst.processing
    )
    overheads = tuple(rat(rnd.randint(0, 9), rnd.choice((1, 2, 5))) for _ in range(inst.m))
    return SchedulingInstance(UNRELATED, processing, overheads)


def _node_states(inst: SchedulingInstance, rnd: random.Random):
    """The root and two nodes with some jobs fixed onto machines."""
    P, m = inst.processing, inst.m
    yield inst.overheads, tuple(range(inst.n))
    for fixed_count in (1, 3):
        jobs = list(range(inst.n))
        rnd.shuffle(jobs)
        t = list(inst.overheads)
        for j in jobs[:fixed_count]:
            i = rnd.randrange(m)
            t[i] += P[j][i]
        yield tuple(t), tuple(sorted(jobs[fixed_count:]))


def _coarsen(inst: SchedulingInstance, rnd: random.Random) -> SchedulingInstance:
    """Unrelated instance on the grid 1/6 whose node states can lie on 1/2:
    the jobs' times halved, overheads c + 1/3 and, after the n jobs, one
    filler job per machine with times d + 2/3 (see _coarse_node_states)."""
    m = inst.m
    rows = [tuple(v / 2 for v in row) for row in inst.processing]
    fillers = [tuple(rat(rnd.randint(0, 4)) + rat(2, 3) for _ in range(m)) for _ in range(m)]
    overheads = tuple(rat(rnd.randint(0, 4)) + rat(1, 3) for _ in range(m))
    return SchedulingInstance(UNRELATED, tuple(rows + fillers), overheads)


def _coarse_node_states(inst: SchedulingInstance, rnd: random.Random):
    """Filler i fixed on machine i (1/3 + 2/3), and then one more job: the
    overheads and the free jobs' rows lie on the grid 1/2."""
    m = inst.m
    n = inst.n - m
    t = tuple(inst.overheads[i] + inst.processing[n + i][i] for i in range(m))
    yield t, tuple(range(n))
    j, i = rnd.randrange(n), rnd.randrange(m)
    raised = tuple(v + inst.processing[j][i] if k == i else v for k, v in enumerate(t))
    yield raised, tuple(k for k in range(n) if k != j)


@pytest.mark.parametrize("data", ["integer", "rational", "coarse"])
def test_seeded_instances_match_reference(data, monkeypatch):
    solves = _count_solves(monkeypatch)
    rnd = random.Random(f"tsearch/{data}")
    compared = coarse = 0
    for seed in range(30):
        inst = generate(UNRELATED, 5 + seed % 4, 2 + seed % 3, 9400 + seed)
        states = _node_states
        if data == "rational":
            inst = _rationalize(inst, rnd)
        elif data == "coarse":
            inst, states = _coarsen(inst, rnd), _coarse_node_states
        elif seed % 2:
            inst = SchedulingInstance(
                UNRELATED, inst.processing, tuple(rat(rnd.randint(0, 12)) for _ in range(inst.m))
            )
        grid = SchedGrid.build(inst)
        R = grid.R
        for t, jobs in states(inst, rnd):
            coarse += grid_denominator(inst.processing, t, jobs) < R
            tR = on_grid(t, R)
            for rule in Eligibility:
                want = reference_min_feasible_T(inst.processing, t, jobs, rule)
                got = min_feasible_T(grid, tR, jobs, rule)
                _assert_vertex(got, want, R, grid.P, tR, jobs, rule)
                hint = want.T - rat(1, 2)
                _assert_vertex(
                    min_feasible_T(grid, tR, jobs, rule, lo_hint=hint * R),
                    reference_min_feasible_T(inst.processing, t, jobs, rule, lo_hint=hint),
                    R, grid.P, tR, jobs, rule,
                )
                compared += 1
    assert compared == 30 * (2 if data == "coarse" else 3) * len(Eligibility)
    if data == "coarse":
        assert coarse == 60  # every state: its grid 1/2, the instance's 1/6
    assert solves["walk-up"] < solves["bisection"]


def _record_bound_searches(monkeypatch):
    """Wrap min_feasible_T where both adapters look it up; keep every call
    and count the LP solves of both searches."""
    calls = []
    search = scheduling.min_feasible_T
    solves = _count_solves(monkeypatch)

    def recording(grid, t, jobs, eligibility=Eligibility.PAPER, lo_hint=None):
        res = search(grid, t, jobs, eligibility, lo_hint=lo_hint)
        calls.append((grid, tuple(t), tuple(jobs), eligibility, lo_hint, res))
        return res

    monkeypatch.setattr(scheduling, "min_feasible_T", recording)
    monkeypatch.setattr(profiles, "min_feasible_T", recording)
    return calls, solves


def _check_recorded(calls, solves, uniform: bool = False) -> None:
    """Compare every recorded search with the reference under the same
    lower hint; the walk-up made fewer LP solves than the bisection."""
    walk_up = solves["walk-up"]
    for grid, t, jobs, eligibility, lo_hint, res in calls:
        R = grid.R
        P = [[Rat(p, R) for p in row] for row in grid.P]
        want = reference_min_feasible_T(
            P, [Rat(v, R) for v in t], jobs, eligibility, _units(lo_hint, R)
        )
        _assert_vertex(res, want, R, grid.P, t, jobs, eligibility)
        if uniform:
            assert graph_is_forest(res.fractional_jobs)
            assert uniform_vertex_check(res)
    assert walk_up < solves["bisection"]


SELECTIONS = (Selection.BEST_FIRST, Selection.DFS, Selection.BFS)


def test_unrelated_adapter_node_states_match_reference(monkeypatch):
    calls, solves = _record_bound_searches(monkeypatch)
    rnd = random.Random("tsearch/unrelated-adapter")
    for seed in range(8):
        inst = generate(UNRELATED, 6 + seed % 2, 2 + seed % 2, 9500 + seed)
        if seed % 2:
            inst = _rationalize(inst, rnd)
        for bounding in ("BS", "LR"):
            for rounding in (ROUNDING_AS, ROUNDING_BM):
                for selection in SELECTIONS:
                    solve_unrelated(inst, rat(1, 100), selection, bounding, rounding,
                                    node_limit=60)
    _check_recorded(calls, solves)
    assert len(calls) > 1000
    assert {call[3] for call in calls} == {Eligibility.RESIDUAL, Eligibility.ALL}


def test_profile_adapter_node_states_match_reference(monkeypatch):
    calls, solves = _record_bound_searches(monkeypatch)
    for seed in range(6):
        for kind, solver in ((UNIFORM, solve_uniform), (IDENTICAL, solve_identical)):
            inst = generate(kind, 10, 2 + seed % 2, 9600 + seed)
            for selection in SELECTIONS:
                solver(inst, rat(1, 10), selection, node_limit=200)
    _check_recorded(calls, solves, uniform=True)
    assert len(calls) > 400


def test_swapped_profile_vertices_match_reference(monkeypatch):
    # the mass swap reads x and loads of a vertex mid-run, the first read
    # that builds them; those points too must be the reference's vertices
    calls, solves = _record_bound_searches(monkeypatch)
    swapped = []
    swap = profiles.make_longest_fractional

    def recording(point, P, jobs):
        new_point = swap(point, P, jobs)
        if new_point is not point:
            swapped.append(point)
        return new_point

    monkeypatch.setattr(profiles, "make_longest_fractional", recording)
    for seed in (720004, 720009):
        for selection in SELECTIONS:
            solve_uniform(generate(UNIFORM, 8, 3, seed), rat(1, 10), selection, node_limit=200)
    assert len(swapped) > 20, len(swapped)
    recorded = {id(call[-1]) for call in calls}
    assert all(id(point) in recorded for point in swapped)
    _check_recorded(calls, solves, uniform=True)


def _off_grid_instance(rnd: random.Random) -> SchedulingInstance:
    """A small unrelated instance off the integer grid: times and overheads
    on halves (the overheads not all 0), and one long job whose time on one
    machine is on thirds. A node that fixed that job on another machine
    lies on halves, a coarser grid than the instance's sixths (node step
    g = 3)."""
    n, m = rnd.randint(4, 6), rnd.randint(2, 3)
    processing = [tuple(Rat(rnd.randint(2, 18), 2) for _ in range(m)) for _ in range(n - 1)]
    third = rnd.randrange(m)
    processing.append(tuple(rnd.randint(6, 12) + Rat(int(i == third), 3) for i in range(m)))
    overheads = [Rat(rnd.randint(0, 6), 2) for _ in range(m)]
    overheads[rnd.randrange(m)] += Rat(1, 2)
    return SchedulingInstance(UNRELATED, tuple(processing), tuple(overheads))


@pytest.mark.guarantee
def test_residual_bound_off_the_integer_grid(monkeypatch):
    # every node the BS bound searches, under the residual rule t_i + p_ji
    # <= T: the dense reference's smallest feasible guess under that rule,
    # at least the paper rule's (same hint), at most the optimum of the
    # node's residual instance (its unfixed jobs on machines starting at t)
    calls, _ = _record_bound_searches(monkeypatch)
    rnd = random.Random("tsearch/residual-off-grid")
    for _ in range(60):
        inst = _off_grid_instance(rnd)
        for selection in SELECTIONS:
            solve_unrelated(inst, rat(1, 100), selection, "BS", ROUNDING_AS, node_limit=40)
    coarse = tighter = 0
    for grid, t, jobs, eligibility, lo_hint, res in calls:
        assert eligibility is Eligibility.RESIDUAL
        R = grid.R
        P = [[Rat(p, R) for p in row] for row in grid.P]
        t_units = [Rat(v, R) for v in t]
        coarse += grid_denominator(P, t_units, jobs) < R
        want = reference_min_feasible_T(P, t_units, jobs, eligibility, _units(lo_hint, R))
        _assert_vertex(res, want, R, grid.P, t, jobs, eligibility)
        paper = min_feasible_T(grid, t, jobs, Eligibility.PAPER, lo_hint=lo_hint)
        assert res.T >= paper.T
        tighter += res.T > paper.T
        if jobs:
            residual = SchedulingInstance(UNRELATED, tuple([tuple(P[j]) for j in jobs]),
                                          tuple(t_units))
            assert Rat(res.T, R) <= exact_opt(residual).optimum
        else:
            assert Rat(res.T, R) == max(t_units)
    assert len(calls) > 600 and coarse > 60 and tighter > 300, (len(calls), coarse, tighter)
