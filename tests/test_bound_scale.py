"""Integer bound keys: the engine on scaled bounds against exact Fractions.

`KnapsackAdapter` returns its bounds as ints in units of 1/bound_scale. The
reference below is the same adapter at bound_scale 1, ordering the items on
`Fraction` keys and bounding each node with the Fraction greedy of
`guarantees.reference_dantzig_solve`: its lower bound is the node's fixed
profit plus the rounding's value, its upper bound the fixed profit plus the
relaxation's value, floored to a multiple of 1/Dp. Every run of the two must agree in every `RunResult`
field, counter and solution. The stopping test and the item order are
checked against their division definitions, and the engine's contract
errors against a stub adapter whose bounds are scaled.
"""
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox.engine import (
    AdapterContractError,
    BaseAdapter,
    BoundInfo,
    Criterion,
    DegenerateBoundError,
    Selection,
    Sense,
    run,
    should_stop,
    valid_strategies,
)
from bnbapprox.instances import KnapsackInstance, generate
from bnbapprox.knapsack import KnapsackAdapter, KnapsackGrid
from bnbapprox.rational import rat
from guarantees import (
    mask_items,
    profit_floor,
    reference_dantzig_solve,
    reference_unit_profit_order,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)


class FractionBoundAdapter(KnapsackAdapter):
    """The knapsack adapter with exact Fraction bounds at bound_scale 1."""

    def __init__(self, inst, branching="CE"):
        super().__init__(inst, branching)
        order = reference_unit_profit_order(inst.weights, inst.profits)
        # the masks follow the order: bit rank[j] is item j
        rank = tuple(order.index(j) for j in range(inst.n))
        W = self.grid.weights

        def mask(fits):
            return sum(1 << rank[j] for j in range(inst.n) if fits(W[j]))

        self.grid = dataclasses.replace(
            self.grid, order=order, rank=rank, zero_mask=mask(lambda w: w == 0),
            fits=(0,) + tuple(mask(lambda w, c=c: w <= c) for c in self.grid.light),
        )
        self.bound_scale = 1

    def bound(self, state):
        super().bound(state)  # sets the node's usable mask and pivot
        inst = self.inst
        dw = math.lcm(*(Fraction(v).denominator for v in (*inst.weights, *inst.capacities)))
        ref = reference_dantzig_solve(inst, mask_items(self.grid, state.usable),
                                      [Fraction(c, dw) for c in state.caps])
        fixed = Fraction(state.fixed_profit, self.grid.p_scale)
        return BoundInfo(
            lb=fixed + ref.int_value,
            ub=profit_floor(inst, fixed + ref.sub_value),
            solution=(state.chain, ref.int_assignment),
            leaf=not ref.fractional,
        )


def reference_should_stop(best_value, global_bound, criterion, sense):
    if best_value == global_bound:
        return True
    if global_bound == 0:
        raise DegenerateBoundError("zero global bound on a degenerate instance")
    ratio = Fraction(best_value) / Fraction(global_bound)
    if criterion.kind == "ratio-alpha":
        return ratio >= criterion.value
    return ratio <= 1 + criterion.value


# -- the scaled adapter against its Fraction reference ----------------------


def _coprime_instance(rnd, n, m):
    # weights over 7, 11 and 13 and profits over 3 and 5: Lw and Dp are
    # products of these, so bound_scale is large and no value is integral
    return KnapsackInstance(
        tuple(Fraction(rnd.randint(1, 60), rnd.choice((7, 11, 13))) for _ in range(n)),
        tuple(Fraction(rnd.randint(1, 50), rnd.choice((1, 3, 5))) for _ in range(n)),
        tuple(Fraction(rnd.randint(15, 40), rnd.choice((1, 2))) for _ in range(m)),
    )


def _with_zero_weights(inst, rnd):
    weights = list(inst.weights)
    for j in rnd.sample(range(inst.n), 2):
        weights[j] = Fraction(0)
    return KnapsackInstance(tuple(weights), inst.profits, inst.capacities)


def _with_items_fitting_nowhere(inst, rnd):
    weights = list(inst.weights)
    for j in rnd.sample(range(inst.n), 2):
        weights[j] = max(inst.capacities) + rnd.randint(1, 9)
    return KnapsackInstance(tuple(weights), inst.profits, inst.capacities)


def _differential_instances():
    rnd = random.Random(8_080_000)
    generated = [generate("knapsack", n, m, 8_081_000 + k)
                 for k, (n, m) in enumerate(((8, 2), (10, 2), (10, 3), (12, 3), (16, 2)))]
    coprime = [_coprime_instance(rnd, n, m) for n, m in ((7, 2), (9, 2), (9, 3))]
    return (
        [("generated", inst) for inst in generated]
        + [("coprime", inst) for inst in coprime]
        + [("zero-weight", _with_zero_weights(inst, rnd)) for inst in generated[:2] + coprime[:1]]
        + [("fits-nowhere", _with_items_fitting_nowhere(inst, rnd))
           for inst in generated[2:] + coprime[1:2]]
    )


DIFFERENTIAL = _differential_instances()


@pytest.mark.parametrize("case", range(len(DIFFERENTIAL)),
                         ids=[f"{k}-{name}" for k, (name, _) in enumerate(DIFFERENTIAL)])
@pytest.mark.parametrize("node_limit", [None, 9])
def test_scaled_runs_equal_fraction_runs(case, node_limit):
    _, inst = DIFFERENTIAL[case]
    scaled = 0
    for strategy in valid_strategies("knapsack"):
        for alpha in (rat(9, 10), rat(99, 100), rat(999, 1000)):
            criterion = Criterion("ratio-alpha", alpha)
            adapter = KnapsackAdapter(inst, branching=strategy.branching)
            reference = FractionBoundAdapter(inst, branching=strategy.branching)
            assert adapter.grid == reference.grid
            got = run(adapter, strategy.selection, criterion, node_limit=node_limit)
            want = run(reference, strategy.selection, criterion, node_limit=node_limit)
            assert got == want
            assert got.to_json_dict() == want.to_json_dict()
            assert list(got.best_solution.items()) == list(want.best_solution.items())
            assert type(got.best_value) is Fraction and type(got.global_bound) is Fraction
            scaled += adapter.bound_scale > 1
    assert scaled > 0


def test_differential_instances_cover_their_cases():
    names = {name for name, _ in DIFFERENTIAL}
    assert names == {"generated", "coprime", "zero-weight", "fits-nowhere"}
    for name, inst in DIFFERENTIAL:
        if name == "coprime":
            assert KnapsackAdapter(inst).bound_scale > 10**6
        if name == "zero-weight":
            assert any(w == 0 for w in inst.weights)
        if name == "fits-nowhere":
            assert any(w > max(inst.capacities) for w in inst.weights)


# -- should_stop: cross-multiplied against the division definition ----------

_ints = st.integers(min_value=-10**6, max_value=10**6)
_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
_values = st.one_of(_ints, _fractions)
_alpha = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda a: 0 < a < 1)
_eps = st.fractions(min_value=0, max_value=5, max_denominator=1000).filter(lambda e: e > 0)


def _criterion_and_sense(draw):
    if draw(st.booleans()):
        return Criterion("ratio-alpha", draw(_alpha)), Sense.MAX
    return Criterion("ratio-eps", draw(_eps)), Sense.MIN


def _outcome(test, *args):
    try:
        return test(*args)
    except DegenerateBoundError:
        return DegenerateBoundError


@st.composite
def _stop_cases(draw):
    criterion, sense = _criterion_and_sense(draw)
    return draw(_values), draw(_values), criterion, sense


@PROPERTY
@given(_stop_cases())
def test_should_stop_equals_the_division_definition(case):
    best, bound, criterion, sense = case
    assert _outcome(should_stop, *case) == _outcome(reference_should_stop, *case)


@st.composite
def _boundary_cases(draw):
    # best/bound exactly on the limit, and one grid step to either side
    criterion, sense = _criterion_and_sense(draw)
    limit = criterion.value if sense is Sense.MAX else 1 + criterion.value
    bound = draw(_values.filter(lambda v: v != 0))
    step = draw(st.fractions(min_value=0, max_value=1, max_denominator=100).filter(bool))
    return limit * bound, bound, step, criterion, sense


@PROPERTY
@given(_boundary_cases())
def test_should_stop_boundary_is_inclusive(case):
    best, bound, step, criterion, sense = case
    assert should_stop(best, bound, criterion, sense)
    # on an integer scale shared by both values, as plain ints
    scale = math.lcm(Fraction(best).denominator, Fraction(bound).denominator)
    assert should_stop(int(best * scale), int(bound * scale), criterion, sense)
    for moved in (best - step, best + step):
        assert should_stop(moved, bound, criterion, sense) == reference_should_stop(
            moved, bound, criterion, sense
        )


@PROPERTY
@given(_values.filter(lambda v: v != 0), st.booleans())
def test_should_stop_zero_bound_raises_unless_best_equals_it(best, maximize):
    if maximize:
        criterion, sense = Criterion("ratio-alpha", rat(1, 2)), Sense.MAX
    else:
        criterion, sense = Criterion("ratio-eps", rat(1, 2)), Sense.MIN
    with pytest.raises(DegenerateBoundError):
        should_stop(best, 0, criterion, sense)
    assert should_stop(0, 0, criterion, sense)
    assert should_stop(Fraction(0), 0, criterion, sense)


# -- the grid's unit-profit order: integer keys against Fraction keys --------

_weights = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                            Fraction(3, 2), Fraction(2, 3), Fraction(4, 7), Fraction(6, 5)])
# profits of a KnapsackInstance are positive
_profits = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(6), Fraction(1, 3),
                            Fraction(4, 3), Fraction(6, 7), Fraction(5, 2), Fraction(9, 5)])


@PROPERTY
@given(st.lists(st.tuples(_weights, _profits), max_size=14))
def test_unit_profit_order_equals_fraction_key_sort(items):
    weights = tuple(w for w, _ in items)
    profits = tuple(p for _, p in items)
    grid = KnapsackGrid.build(KnapsackInstance(weights, profits, (Fraction(1),)))
    assert grid.order == reference_unit_profit_order(weights, profits)


# -- contract errors print bounds in instance units --------------------------


class _ScaledStub(BaseAdapter):
    """Root bounds, then one child's, as ints in units of 1/4; a node's
    solution is {0: its payload}."""

    bound_scale = 4

    def __init__(self, sense, root, child):
        self.sense = sense
        self.bounds = {"root": root, "child": child}

    def root_payload(self):
        return "root"

    def bound(self, payload):
        lb, ub = self.bounds[payload]
        return BoundInfo(lb, ub, (None, {0: payload}), leaf=payload == "child")

    def branch(self, node):
        return ["child"]


@pytest.mark.guarantee
@pytest.mark.parametrize(
    "sense, root, child, message",
    [
        (Sense.MAX, (10, 6), (0, 0), "root has lb > ub (lb 5/2, ub 3/2)"),
        (Sense.MAX, (1, 8), (7, 5), "node 1: lb > ub (lb 7/4, ub 5/4)"),
        (Sense.MAX, (1, 8), (1, 10), "node 1: child ub 5/2 above parent ub 2"),
        (Sense.MIN, (8, 20), (6, 20), "node 1: child lb 3/2 below parent lb 2"),
    ],
)
def test_contract_errors_print_unscaled_bounds(sense, root, child, message):
    criterion = (Criterion("ratio-alpha", rat(999, 1000)) if sense is Sense.MAX
                 else Criterion("ratio-eps", rat(1, 1000)))
    with pytest.raises(AdapterContractError) as info:
        run(_ScaledStub(sense, root, child), Selection.BEST_FIRST, criterion)
    assert str(info.value) == message


def test_run_result_is_in_instance_units():
    # root 1/4..8/4, child exact at 6/4: the run returns 3/2 and bound 3/2
    stub = _ScaledStub(Sense.MAX, (1, 8), (6, 6))
    result = run(stub, Selection.BEST_FIRST, Criterion("ratio-alpha", rat(999, 1000)))
    assert result.best_value == rat(3, 2) and type(result.best_value) is Fraction
    assert result.global_bound == rat(3, 2) and type(result.global_bound) is Fraction
    assert result.best_solution == {0: "child"}
