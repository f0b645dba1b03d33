import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnbapprox import profiles
from bnbapprox.engine import AdapterContractError, Criterion, Node, Selection, chain_solution, run
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, InstanceError
from bnbapprox.instances import SchedulingInstance, generate
from bnbapprox.oracle import exact_opt
from bnbapprox.scheduling import _SchedState
from bnbapprox.profiles import (
    ProfileAdapter,
    cube_limit,
    geometric_rungs,
    make_longest_fractional,
    normalize,
    similarity_cell,
    similarity_level_bound,
    solve_identical,
    solve_uniform,
    uniform_vertex_check,
)
from bnbapprox.rational import rat
from bnbapprox.scheduling import (
    ROUNDING_LST,
    LpPoint,
    SchedGrid,
    min_feasible_T,
    round_vertex,
)
from guarantees import f_bound, profile_run, reference_fractional_jobs, schedule_makespan

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

SMALL_JOB = "small-job"


def reference_ladder(x, eps):
    """Every rung eps*(1+eps)^k (integer k >= 0) up to x, by Fraction steps."""
    rungs, value = [], eps
    while value <= x:
        rungs.append(value)
        value *= 1 + eps
    return rungs


def equivalence_key(fixed, base_times, eps, overheads):
    """Reference key of the equivalence pruning: the order-free multiset of
    (overhead, geometrically rounded load of the fixed jobs) pairs, one per
    machine, for fixed jobs (job -> machine), or SMALL_JOB when a fixed job
    is shorter than eps."""
    loads = [rat(0)] * len(overheads)
    for j, i in fixed.items():
        if base_times[j] < eps:
            return SMALL_JOB
        loads[i] += reference_ladder(base_times[j], eps)[-1]
    return tuple(sorted(Counter(zip(overheads, loads)).items()))


def round_geometric(x, eps):
    """x rounded down to the geometric grid: the last rung of the ladder
    up to x."""
    rungs = geometric_rungs(eps, x.numerator, x.denominator)
    if not rungs:
        raise ValueError("geometric rounding is defined for x >= eps")
    return Fraction(*rungs[-1])


def key_scale(base, eps):
    """The positive scale of the adapter's integer keys: b^(K+1) for
    eps = a/b and K the rung of the longest job (1 with no big job)."""
    return eps.denominator ** len(reference_ladder(base[0], eps)) if base[0] >= eps else 1


P332 = ((rat(3), rat(3)), (rat(3), rat(3)), (rat(2), rat(2)))
IDENT332 = SchedulingInstance(
    IDENTICAL, P332, (rat(0), rat(0)), (rat(3), rat(3), rat(2)), (rat(1), rat(1))
)


def _normalized_base(grid, order):
    """An identical or uniform instance's normalized time on machine 0 (its
    base time when that machine has speed 1) of each job in `order`."""
    return tuple(Fraction(grid.P[j][0], grid.R) for j in order)


def test_normalize_worked_example():
    grid, scale, order, root = normalize(IDENT332)
    assert scale == 4 and order == (0, 1, 2)
    assert grid.R == 4 and grid.P == ((3, 3), (3, 3), (2, 2)) and grid.t == (0, 0)
    assert _normalized_base(grid, order) == (rat(3, 4), rat(3, 4), rat(1, 2))
    res = min_feasible_T(grid, grid.t, range(3))
    assert res.T == root.T == grid.R  # normalized root bound 1


def test_normalize_identity_when_scaled():
    # the normalized data as an instance of its own: a second
    # normalization keeps it, at scale 1
    grid, _, order, _ = normalize(IDENT332)
    base = _normalized_base(grid, order)
    norm = SchedulingInstance(
        IDENTICAL, tuple((b, b) for b in base), (rat(0), rat(0)), base, (rat(1), rat(1))
    )
    again, scale2, order, _ = normalize(norm)
    assert scale2 == 1 and again == grid and order == (0, 1, 2)


def test_normalize_sorts_the_labels_and_takes_the_root_optimum_as_unit():
    # one machine: root optimum 15 (30 on the instance's grid 1/2); the
    # labels sort longest first, and the data stay the instance's integers
    # (every one a multiple of 3) on the unit R = 30
    base = (rat(3, 2), rat(6), rat(15, 2))
    inst = SchedulingInstance(
        IDENTICAL, tuple((b,) for b in base), (rat(0),), base, (rat(1),)
    )
    grid, scale, order, _ = normalize(inst)
    assert scale == 15 and order == (2, 1, 0)
    assert grid == SchedGrid(30, ((3,), (12,), (15,)), (0,))


def test_normalize_rejects_unrelated():
    inst = generate("scheduling-unrelated", 3, 2, 0)
    with pytest.raises(Exception):
        normalize(inst)


def test_similarity_cell_examples():
    # cells of side eps/n = 1/8, in normalized units and on the grid R = 40
    assert similarity_cell((rat(1), rat(11, 10)), rat(1, 8)) == (8, 8)
    assert similarity_cell((40, 44), rat(1, 8) * 40) == (8, 8)
    eps = rat(1, 2)
    # same cell => coordinates differ by less than eps/n
    a = (rat(3, 10), rat(1, 2))
    b = (rat(32, 100), rat(51, 100))
    n = 4
    ca, cb = similarity_cell(a, eps / n), similarity_cell(b, eps / n)
    assert ca == cb
    assert all(abs(x - y) <= eps / n for x, y in zip(a, b))


def test_cube_limit_on_the_normalized_grid():
    # R = 4: the cube limit 2(1+eps)^2 = 9/2 is the grid value 18
    adapter = ProfileAdapter(IDENT332, rat(1, 2), "similarity")
    assert adapter.grid.R == 4 and adapter.limit == 18
    for t, inside in (((18, 0), True), ((19, 0), False), ((0, 19), False)):
        node = Node(1, 0, 1, 16, 18, 0, False, _SchedState((1, 2), t, (0, 0, None)))
        assert adapter.admit(node) is inside


def test_round_geometric():
    eps = rat(1, 2)
    assert round_geometric(rat(1), eps) == rat(3, 4)  # 1/2 * (3/2)^1
    assert round_geometric(eps, eps) == eps
    with pytest.raises(ValueError):
        round_geometric(rat(1, 4), eps)
    rnd = random.Random(6)
    for _ in range(300):
        x = eps + rat(rnd.randint(0, 400), 100)
        if x > cube_limit(eps):
            continue
        r = round_geometric(x, eps)
        assert r <= x < (1 + eps) * r


def test_max_geometric_exponent_and_f_bound():
    assert f_bound(rat(1)) == 8.0
    assert f_bound(rat(1, 2)) > 100


def test_equivalence_key_symmetry_and_small_jobs():
    eps = rat(1, 2)
    base = (rat(1), rat(3, 4), rat(1, 4))
    k1 = equivalence_key({0: 0, 1: 1}, base, eps, (0, 0))
    k2 = equivalence_key({0: 1, 1: 0}, base, eps, (0, 0))
    assert k1 == k2  # machine order immaterial
    assert equivalence_key({2: 0}, base, eps, (0, 0)) == SMALL_JOB
    # but machines that start at different times are not interchangeable
    k1 = equivalence_key({0: 0, 1: 1}, (rat(1), rat(1, 2)), eps, (1, 0))
    assert k1 != equivalence_key({0: 1, 1: 0}, (rat(1), rat(1, 2)), eps, (1, 0))


def test_adapter_key_matches_reference_equivalence_key():
    # every node the identical-machines search admits carries the reference
    # key of its fixed jobs and the machines' overheads, on the adapter's
    # integer scales, and no two nodes of one level share a key; odd seeds
    # give the machines overheads on thirds
    checked = 0
    eps = rat(1, 20)
    rnd = random.Random(13)
    for seed, selection in itertools.product(range(4), (Selection.BEST_FIRST, Selection.BFS)):
        inst = generate("scheduling-identical", 10, 3, 300 + seed)
        if seed % 2:
            overheads = tuple(rat(rnd.randint(0, 90), 3) for _ in range(inst.m))
            inst = SchedulingInstance(IDENTICAL, inst.processing, overheads, inst.base_times,
                                      inst.speeds)
        adapter = ProfileAdapter(inst, eps, "equivalence")
        R = adapter.grid.R
        base = _normalized_base(adapter.grid, adapter.order)
        times = dict(zip(adapter.order, base))  # by job label
        overheads = tuple(Fraction(v, R) for v in adapter.grid.t)
        scale = key_scale(base, eps)
        keys = set()
        insert = adapter.on_insert

        def on_insert(node):
            nonlocal checked
            state = node.payload
            key = equivalence_key(chain_solution(state.fixed, {}), times, eps, overheads)
            assert key != SMALL_JOB
            scaled = sorted((o * R, v * scale) for (o, v), count in key for _ in range(count))
            got = adapter._profile_key(state)
            assert all(type(v) is int for pair in got for v in pair) and list(got) == scaled
            assert (node.depth, key) not in keys
            keys.add((node.depth, key))
            checked += 1
            insert(node)

        adapter.on_insert = on_insert
        run(adapter, selection, Criterion("ratio-eps", eps))
    assert checked >= 100


_EPS = st.sampled_from((rat(1), rat(1, 2), rat(1, 3), rat(2, 3), rat(3, 4), rat(1, 20)))


@st.composite
def _on_or_near_rungs(draw):
    """eps and an x >= eps: a rung eps*(1+eps)^k itself, a hair below or
    above it, or any rational in a range of rungs."""
    eps = draw(_EPS)
    rung = eps * (1 + eps) ** draw(st.integers(min_value=0, max_value=12))
    shift = draw(st.sampled_from((0, 0, -1, 1)))
    x = rung + shift * rat(1, draw(st.integers(min_value=10**3, max_value=10**9)))
    if x < eps or draw(st.booleans()):
        x = eps + rat(draw(st.integers(0, 10**4)), draw(st.integers(1, 500)))
    return eps, x


@PROPERTY
@given(_on_or_near_rungs())
@example((rat(1), rat(1)))
@example((rat(1), rat(4)))
@example((rat(1, 2), rat(27, 16)))
def test_geometric_rungs_match_fraction_reference(drawn):
    eps, x = drawn
    rungs = geometric_rungs(eps, x.numerator, x.denominator)
    assert [Fraction(num, den) for num, den in rungs] == reference_ladder(x, eps)


@st.composite
def _identical_instances(draw):
    """Identical machines with integer base times, often several on one
    rung after normalization (equal and doubled times)."""
    m = draw(st.integers(min_value=1, max_value=3))
    base = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 16, 27)), min_size=1, max_size=9))
    base = tuple(rat(b) for b in base)
    return SchedulingInstance(
        IDENTICAL, tuple((b,) * m for b in base), (rat(0),) * m, base, (rat(1),) * m
    )


@PROPERTY
@given(_identical_instances(), _EPS)
@example(SchedulingInstance(IDENTICAL, ((rat(1),), (rat(1),)), (rat(0),),
                            (rat(1), rat(1)), (rat(1),)), rat(1, 2))
@example(SchedulingInstance(IDENTICAL, ((rat(2),) * 2, (rat(1),) * 2, (rat(1),) * 2),
                            (rat(0),) * 2, (rat(2), rat(1), rat(1)), (rat(1),) * 2), rat(1))
def test_adapter_ladder_matches_fraction_reference(inst, eps):
    # each big job's rung, as an int over the adapter's one denominator,
    # is the Fraction reference's rung of its normalized time
    adapter = ProfileAdapter(inst, eps, "equivalence")
    base = _normalized_base(adapter.grid, adapter.order)
    big = [x for x in base if x >= eps]
    assert adapter.big_count == len(big) and base[: len(big)] == tuple(big)
    assert tuple(adapter.rounded) == adapter.order[: len(big)]  # keyed by label
    assert all(type(v) is int for v in adapter.rounded.values())
    scale = key_scale(base, eps)
    assert [Fraction(v, scale) for v in adapter.rounded.values()] == [
        reference_ladder(x, eps)[-1] for x in big
    ]


def _pool():
    """Generated uniform and identical instances, each also with every time
    multiplied by 6, so that every datum on the grid has a factor 6."""
    for kind, n, m in ((UNIFORM, 6, 2), (UNIFORM, 8, 3), (IDENTICAL, 6, 2), (IDENTICAL, 9, 3)):
        for seed in range(12):
            inst = generate(kind, n, m, 5100 + seed)
            yield inst
            yield SchedulingInstance(
                kind, tuple(tuple(6 * p for p in row) for row in inst.processing),
                inst.overheads, tuple(6 * b for b in inst.base_times), inst.speeds,
            )


def test_normalize_hands_the_root_its_vertex():
    # the point normalize returns is the root LP's on the normalized grid,
    # at the guess R, exactly: loads are ints and Fractions, never floats
    for inst in _pool():
        grid, _, order, root = normalize(inst)
        want = min_feasible_T(grid, grid.t, order, lo_hint=grid.R)
        assert root.T == want.T == grid.R
        assert root.x == want.x
        assert root.loads == want.loads
        assert all(isinstance(v, (int, Fraction)) for v in root.loads)
        assert list(root.fractional_jobs.items()) == list(want.fractional_jobs.items())
        assert list(root.integral_assignment.items()) == list(want.integral_assignment.items())


def test_root_bound_reuses_the_normalized_vertex(monkeypatch):
    # the root payload is bounded with no LP search, and a payload with the
    # same data that is not the root by one, to the same bound
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return min_feasible_T(*args, **kwargs)

    monkeypatch.setattr(profiles, "min_feasible_T", counting)
    for inst in itertools.islice(_pool(), 0, None, 4):
        adapter = ProfileAdapter(inst, rat(1, 2), "similarity")
        root = adapter.root_payload()
        other = _SchedState(root.jobs, root.t, None, lo_hint=root.lo_hint)
        searches.clear()
        want = adapter.bound(other)
        assert len(searches) == 1
        assert adapter.bound(root) == want and len(searches) == 1


def test_uniform_vertex_check_integral_and_cycle():
    point = LpPoint(rat(4), {(0, 0): rat(1)}, (rat(4), rat(4)), {}, {0: 0})
    assert uniform_vertex_check(point)
    # averaging two distinct vertices yields a non-vertex (cycle / two
    # slack machines in one component)
    cycle_x = {
        (0, 0): rat(1, 2),
        (0, 1): rat(1, 2),
        (1, 0): rat(1, 2),
        (1, 1): rat(1, 2),
        (2, 0): rat(1, 2),
        (2, 1): rat(1, 2),
    }
    loads = (rat(4), rat(4))
    avg = LpPoint(rat(4), cycle_x, loads, dict.fromkeys(range(3), (0, 1)), {})
    assert not uniform_vertex_check(avg)


def test_uniform_vertex_check_accepts_solver_output():
    for seed in range(30):
        grid, _, _, _ = normalize(generate("scheduling-uniform", 6, 2, 400 + seed))
        res = min_feasible_T(grid, grid.t, range(len(grid.P)))
        assert uniform_vertex_check(res)


def test_make_longest_fractional_noop_when_already_fractional():
    grid, _, order, _ = normalize(IDENT332)
    res = min_feasible_T(grid, grid.t, order)
    if order[0] in res.fractional_jobs:
        assert make_longest_fractional(res, grid.P, order) is res


def test_make_longest_fractional_randomized_search():
    transformed = 0
    for seed in range(200):
        grid, _, order, _ = normalize(generate("scheduling-uniform", 5, 2, 800 + seed))
        point = min_feasible_T(grid, grid.t, order)
        if not point.fractional_jobs or order[0] in point.fractional_jobs:
            continue
        new_point = make_longest_fractional(point, grid.P, order)
        if new_point is point:
            continue
        transformed += 1
        assert order[0] in new_point.fractional_jobs
        # the swapped point's classification, checked from x alone, in the
        # order of the node's jobs
        derived = reference_fractional_jobs(new_point.x)
        want = {j: derived[j] for j in order if j in derived}
        assert list(new_point.fractional_jobs.items()) == list(want.items())
        assert new_point.loads == point.loads  # completion times preserved
        assert uniform_vertex_check(new_point)
        if transformed >= 5:
            break
    assert transformed >= 1, "search never hit the transformable precondition"


def test_profile_drift_bounds_on_sibling_pairs():
    # same fixed-job set, profiles within i*eps/n per coordinate:
    # the parametric bounds differ by at most i*eps/n, and so do the
    # best-completion makespans (the rounding the bound transplants)
    eps = rat(1, 2)
    d = 3
    checked = 0
    for seed in range(12):
        inst = generate("scheduling-uniform", 6, 2, seed)
        grid, _, order, _ = normalize(inst)
        P, R = grid.P, grid.R
        n, m = inst.n, inst.m
        jobs_left = order[d:]
        delta = d * eps / n
        nodes = []
        for combo in itertools.product(range(m), repeat=d):
            t = [0] * m
            for j, i in zip(order, combo):
                t[i] += P[j][i]
            res = min_feasible_T(grid, tuple(t), jobs_left)
            # the node's residual problem in normalized units
            sub = SchedulingInstance(
                kind=UNRELATED,
                processing=tuple(tuple(Fraction(p, R) for p in P[j]) for j in jobs_left),
                overheads=tuple(Fraction(v, R) for v in t),
            )
            best = exact_opt(sub).optimum
            nodes.append((tuple(Fraction(v, R) for v in t), Fraction(res.T, R), best))
        for (t1, lb1, ub1), (t2, lb2, ub2) in itertools.combinations(nodes, 2):
            if all(abs(a - b) <= delta for a, b in zip(t1, t2)):
                checked += 1
                assert abs(lb1 - lb2) <= delta
                assert abs(ub1 - ub2) <= delta
    assert checked >= 20


def test_equivalence_key_ratio_bounds():
    # equal keys at equal depth: bounds within a (1+eps) factor both ways
    eps = rat(1, 2)
    d = 3
    checked = 0
    for seed in range(12):
        inst = generate("scheduling-identical", 6, 3, seed)
        grid, _, order, _ = normalize(inst)
        P, base = grid.P, _normalized_base(grid, order)
        m = inst.m
        if any(base[k] < eps for k in range(d)):
            continue
        jobs_left = order[d:]
        buckets: dict = {}
        for combo in itertools.product(range(m), repeat=d):
            t = [0] * m
            fixed = {}
            for j, i in zip(order, combo):
                t[i] += P[j][i]
                fixed[j] = i
            key = equivalence_key(fixed, dict(zip(order, base)), eps, (0,) * m)
            res = min_feasible_T(grid, tuple(t), jobs_left)
            if res.fractional_jobs:
                _, ub = round_vertex(res, P, tuple(t), ROUNDING_LST)
            else:
                ub = res.T
            buckets.setdefault(key, []).append((res.T, ub))
        for vals in buckets.values():
            for (lb1, ub1), (lb2, ub2) in itertools.combinations(vals, 2):
                checked += 1
                assert 1 / (1 + eps) <= lb1 / lb2 <= 1 + eps
                assert 1 / (1 + eps) <= ub1 / ub2 <= 1 + eps
    assert checked >= 100


def test_same_profile_different_levels_never_merged():
    # identical machines, p = (N, N, 1, ..., 1): a node made of one N-job
    # and N 1-jobs shares the profile (N, N) with a node made of two
    # N-jobs, but lives at another depth; both must be admitted
    N = 4
    base = (rat(N), rat(N)) + (rat(1),) * N
    P = tuple((b, b) for b in base)
    inst = SchedulingInstance(IDENTICAL, P, (rat(0), rat(0)), base, (rat(1), rat(1)))
    eps = rat(1, 2)
    adapter = ProfileAdapter(inst, eps, "similarity")
    profile = (adapter.P[0][0],) * 2  # an N-job on each machine
    shallow = _SchedState(tuple(range(2, inst.n)), profile, None)
    deep = _SchedState(tuple(range(3, inst.n)), profile, None)
    node_a = Node(10, None, 2, rat(1), rat(2), 0, False, shallow)
    node_b = Node(11, None, 3, rat(1), rat(2), 0, False, deep)
    assert adapter.admit(node_a)
    adapter.on_insert(node_a)
    assert adapter.admit(node_b)  # same profile, different depth: kept
    node_c = Node(12, None, 2, rat(1), rat(2), 0, False, shallow)
    assert not adapter.admit(node_c)  # same profile, same depth: discarded


def test_solve_uniform_guarantee_and_level_widths():
    eps = rat(1, 2)
    for seed in range(8):
        inst = generate("scheduling-uniform", 6, 2, 60 + seed)
        opt = exact_opt(inst).optimum
        adapter, result, makespan = profile_run(inst, eps, "similarity")
        assert schedule_makespan(inst, result.best_solution) == makespan
        assert makespan <= (1 + eps) ** 2 * opt
        bound = similarity_level_bound(inst.n, eps, inst.m)
        for level, count in adapter.level_inserted.items():
            assert count <= bound, (seed, level, count)


def test_adapter_rejects_unrelated_instances():
    # the profile schemes need a common job order on every machine, which
    # only uniform and identical instances have; equivalence pruning reads
    # every job's time from one machine, which needs identical machines
    inst = generate("scheduling-unrelated", 4, 2, 0)
    with pytest.raises(InstanceError):
        ProfileAdapter(inst, rat(1, 2), "similarity")
    with pytest.raises(InstanceError):
        ProfileAdapter(generate("scheduling-uniform", 4, 2, 0), rat(1, 2), "equivalence")


def test_solve_uniform_rejects_bad_eps():
    inst = generate("scheduling-uniform", 4, 2, 0)
    with pytest.raises(ValueError):
        solve_uniform(inst, rat(1))
    with pytest.raises(ValueError):
        solve_uniform(inst, rat(0))


def test_solve_identical_guarantee_and_rounded_values():
    for eps in (rat(1, 2), rat(1)):
        for seed in range(6):
            inst = generate("scheduling-identical", 6, 3, 200 + seed)
            opt = exact_opt(inst).optimum
            adapter, result, makespan = profile_run(inst, eps, "equivalence")
            assert schedule_makespan(inst, result.best_solution) == makespan
            assert makespan <= (1 + eps) ** 2 * opt
            # the nonzero rounded completion times of the inserted nodes
            values = {v for _, key in adapter.seen for _, v in key} - {0}
            assert len(values) <= f_bound(eps)
            assert result.max_depth <= adapter.big_count <= 2 * inst.m / eps


def test_solve_identical_all_small_jobs_stops_at_root():
    # after normalization every job is small: the root rounding is already
    # within (1+eps) of the bound and the run stops there
    base = (rat(1),) * 12
    P = tuple((rat(1), rat(1)) for _ in base)
    inst = SchedulingInstance(IDENTICAL, P, (rat(0), rat(0)), base, (rat(1), rat(1)))
    out = solve_identical(inst, rat(1, 2))
    assert out.result.nodes_explored == 1
    assert out.result.termination == "ratio-met"
    opt = exact_opt(inst).optimum
    assert out.makespan <= (1 + rat(1, 2)) ** 2 * opt


def test_solve_identical_large_eps_root_rounding():
    inst = generate("scheduling-identical", 5, 2, 9)
    opt = exact_opt(inst).optimum
    out = solve_identical(inst, rat(3))
    # the root rounding alone, on the instance as given
    assert out.result.nodes_processed == 0 and out.scale == 1
    assert out.makespan <= 2 * opt


# --- guarantee checks ----------------------------------------------------


@pytest.mark.guarantee
def test_identical_machines_that_start_apart_are_not_equivalent():
    # machine 0 starts one unit after machines 1 and 2. The root's children
    # fix the longest job on machine 0, 1 or 2; keyed on rounded loads
    # alone, the last two took the first one's key and were rejected, and
    # the run ended ratio-met at 13/3 > (1+eps)^2 * 10/3
    sizes = (rat(1), rat(2), rat(3), rat(2, 3))
    inst = SchedulingInstance(IDENTICAL, tuple((s,) * 3 for s in sizes),
                              (rat(4, 3), rat(1, 3), rat(1, 3)), sizes, (rat(1),) * 3)
    eps = rat(1, 10)
    opt = exact_opt(inst).optimum
    assert opt == rat(10, 3)
    out = solve_identical(inst, eps)
    assert schedule_makespan(inst, out.assignment) == out.makespan
    assert out.bound <= opt and out.makespan <= (1 + eps) ** 2 * opt


def _overhead_instance(rnd: random.Random, kind: str):
    """An identical or uniform instance of 3 to 6 jobs with sizes on thirds
    up to 3, on 2 or 3 machines (uniform speeds 1 to 3) with overheads in
    {0, 1/3, ..., 2}, and an eps of 1/10, 1/5 or 1/2."""
    n, m = rnd.randint(3, 6), rnd.randint(2, 3)
    sizes = tuple(rat(rnd.randint(1, 9), 3) for _ in range(n))
    speeds = tuple(rat(1 if kind == IDENTICAL else rnd.randint(1, 3)) for _ in range(m))
    overheads = tuple(rat(rnd.randint(0, 6), 3) for _ in range(m))
    processing = tuple(tuple(p / s for s in speeds) for p in sizes)
    eps = rnd.choice((rat(1, 10), rat(1, 5), rat(1, 2)))
    return SchedulingInstance(kind, processing, overheads, sizes, speeds), eps


@pytest.mark.guarantee
def test_profile_schemes_keep_their_guarantee_on_overhead_instances():
    # 600 seeded instances with unequal machine start times, half identical
    # and half uniform: every answer within (1+eps)^2 of the optimum and
    # every bound at most the optimum (3 identical ones failed when the
    # equivalence key ignored the overheads)
    rnd = random.Random("profiles/overheads")
    for k in range(600):
        kind = (IDENTICAL, UNIFORM)[k % 2]
        inst, eps = _overhead_instance(rnd, kind)
        out = (solve_identical if kind == IDENTICAL else solve_uniform)(inst, eps)
        opt = exact_opt(inst).optimum
        assert schedule_makespan(inst, out.assignment) == out.makespan, k
        assert out.bound <= opt and out.makespan <= (1 + eps) ** 2 * opt, k


def _relabeled(inst: SchedulingInstance, perm) -> SchedulingInstance:
    """The instance whose job k is job perm[k] of `inst`."""
    return SchedulingInstance(inst.kind, tuple([inst.processing[j] for j in perm]),
                              inst.overheads, tuple([inst.base_times[j] for j in perm]),
                              inst.speeds)


def test_profile_schemes_do_not_depend_on_job_labels():
    # renumbering the jobs leaves each run's value, bound, node counts,
    # depth and termination as they were; with distinct base times the
    # assignment is the renumbered one, and tied jobs (equal rows) may
    # trade machines, so there only its makespan must match
    rnd = random.Random("profiles/relabel")
    cases = [(generate(kind, 8, 2 + seed % 2, 5300 + seed), rat(1, 5))
             for kind in (UNIFORM, IDENTICAL) for seed in range(6)]
    cases += [_overhead_instance(rnd, (IDENTICAL, UNIFORM)[k % 2]) for k in range(24)]
    distinct = tied = 0
    for inst, eps in cases:
        perm = list(range(inst.n))
        rnd.shuffle(perm)
        other = _relabeled(inst, perm)
        solvers = (solve_uniform, solve_identical) if inst.kind == IDENTICAL else (solve_uniform,)
        for solver, selection in itertools.product(solvers, Selection):
            want, got = solver(inst, eps, selection), solver(other, eps, selection)
            assert got.result.to_json_dict() == want.result.to_json_dict()
            assert (got.value, got.bound, got.scale) == (want.value, want.bound, want.scale)
            assert schedule_makespan(other, got.assignment) == got.makespan
            if len(set(inst.base_times)) == inst.n:
                distinct += 1
                assert got.assignment == {k: want.assignment[j] for k, j in enumerate(perm)}
            else:
                tied += 1
    assert distinct >= 30 and tied >= 30, (distinct, tied)


_swap_mass = profiles._swap_mass


def _swapped_with_drift(x, L, j, m1, m2, P):
    # the right swap, plus a sliver more of L on m2 than its work allows
    x = _swap_mass(x, L, j, m1, m2, P)
    x[(L, m2)] += rat(1, 1000)
    x[(L, m1)] -= rat(1, 1000)
    return x


@pytest.mark.guarantee
def test_broken_mass_swap_raises(monkeypatch):
    for seed in range(200):
        grid, _, order, _ = normalize(generate("scheduling-uniform", 5, 2, 800 + seed))
        point = min_feasible_T(grid, grid.t, order)
        if not point.fractional_jobs or order[0] in point.fractional_jobs:
            continue
        args = (point, grid.P, order)
        if make_longest_fractional(*args) is not point:  # the real swap passes
            break
    else:
        pytest.fail("no transformable vertex found")
    monkeypatch.setattr(profiles, "_swap_mass", _swapped_with_drift)
    with pytest.raises(AdapterContractError, match="mass swap moved"):
        make_longest_fractional(*args)


@pytest.mark.guarantee
def test_broken_level_width_raises():
    adapter = ProfileAdapter(generate("scheduling-uniform", 6, 2, 1), rat(1, 2), "similarity")
    adapter.level_bound = 0  # no node fits under a zero width bound
    root = Node(0, None, 0, rat(1), rat(2), 0, False, adapter.root_payload())
    with pytest.raises(AdapterContractError, match="similarity-cell bound"):
        adapter.on_insert(root)


def test_guarantee_checks_raise_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the fractional-job, mass-swap
    # and level-width checks must not be asserts, so their tests have to pass
    # there too
    assert optimize_pass.not_passed("test_lp.py", "test_profiles.py") == [], optimize_pass.out
