"""The side of every run's bound against the exact oracle, as a property.

A run reports the better of its incumbent, its frontier and the best key
over the subtrees it left unresolved: a parent whose expansion the node
limit cut short, a child `admit` rejected, a non-leaf whose `branch`
returned no children (a depth cap, the identical scheme's stop at its last
big job). So whatever stopped it, the optimum lies between the value and
the bound. Hypothesis draws the tiny adversarial instances of the knapsack
and scheduling property tests, a node limit of 1 to 8 (or none) and, for
the unrelated scheme, a depth cap below floor(m^2/eps); every strategy of
every algorithm the instance admits runs under them. The tests carry the
`guarantee` marker, so they run again in the one `python -O` pass
(test_no_asserts.py), since the bound must not rest on asserts.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox.algorithms import ALGORITHMS, solve
from bnbapprox.engine import valid_strategies
from bnbapprox.instances import IDENTICAL, KNAPSACK, UNRELATED, generate
from bnbapprox.oracle import exact_opt
from bnbapprox.scheduling import scheme_depth_cap
from test_knapsack_property import _instances as _knapsacks
from test_scheduling_property import _instances as _schedules

pytestmark = pytest.mark.guarantee

PROPERTY = settings(derandomize=True, database=None, max_examples=250, deadline=None)

NODE_LIMITS = (None, *range(1, 9))
# tiny instances resolve in a few nodes; generated 8x2 ones leave a cut
# expansion's subtree holding the optimum more often
_generated = st.integers(min_value=0, max_value=59).map(
    lambda seed: ("generated", generate(KNAPSACK, 8, 2, seed))
)


@PROPERTY
@given(st.one_of(_knapsacks(), _generated), st.sampled_from((Fraction(1, 2), Fraction(99, 100))))
def test_knapsack_bound_lies_above_the_optimum(drawn, alpha):
    _, inst = drawn
    opt = exact_opt(inst).optimum
    for strategy in valid_strategies(KNAPSACK):
        for node_limit in NODE_LIMITS:
            out = solve(inst, "knapsack", alpha, strategy, node_limit)
            assert out.value <= opt <= out.bound, (strategy, node_limit, out.result.termination)


@PROPERTY
@given(_schedules(), st.sampled_from((Fraction(1, 10), Fraction(1, 2), Fraction(1))), st.data())
def test_scheduling_bound_lies_below_the_optimum(drawn, eps, data):
    _, inst = drawn
    opt = exact_opt(inst).optimum
    cap = data.draw(st.integers(min_value=0, max_value=scheme_depth_cap(inst.m, eps) - 1))
    runs = [("unrelated", eps, strategy, limit, None)
            for strategy in valid_strategies(UNRELATED) for limit in NODE_LIMITS]
    runs += [("unrelated", eps, strategy, None, cap) for strategy in valid_strategies(UNRELATED)]
    profile = ALGORITHMS["uniform"].strategies
    if inst.kind != UNRELATED and eps < 1:
        runs += [("uniform", eps, strategy, limit, None)
                 for strategy in profile for limit in NODE_LIMITS]
    if inst.kind == IDENTICAL:
        runs += [("identical", ratio, strategy, limit, None)
                 for ratio in (eps, Fraction(3, 2)) for strategy in profile
                 for limit in NODE_LIMITS]
    for algorithm, ratio, strategy, limit, depth_cap in runs:
        out = solve(inst, algorithm, ratio, strategy, limit, depth_cap)
        assert out.bound <= opt <= out.value, (
            algorithm, ratio, strategy, limit, depth_cap, out.result.termination
        )


def test_bounds_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the bounds must hold there too
    assert optimize_pass.not_passed("test_bound_property.py") == [], optimize_pass.out
