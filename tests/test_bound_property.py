"""The side of every run's bound against the exact oracle, as a property.

A run reports the better of its incumbent, its frontier and the best key
over the subtrees it left unresolved: a parent whose expansion the node
limit cut short, a child `admit` rejected, a non-leaf whose `branch`
returned no children (a depth cap, the identical scheme's stop at its last
big job). So whatever stopped it, the optimum lies between the value and
the bound. Hypothesis draws the tiny adversarial instances of the knapsack
and scheduling property tests, a node limit of 1 to 8 (or none) and, for
the unrelated scheme, a depth cap below floor(m^2/eps); every strategy of
every algorithm the instance admits runs under them. The same tests run
again in a `python -O` subprocess, since the bound must not rest on asserts.
"""
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox.algorithms import ALGORITHMS, solve
from bnbapprox.engine import valid_strategies
from bnbapprox.instances import IDENTICAL, KNAPSACK, UNRELATED, generate
from bnbapprox.oracle import exact_opt
from bnbapprox.scheduling import scheme_depth_cap
from test_knapsack_property import _instances as _knapsacks
from test_scheduling_property import _instances as _schedules

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


def test_bounds_under_optimize_flag():
    # `python -O` strips assert statements; the bounds must hold there too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    here = os.path.abspath(__file__)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_knapsack_bound_lies_above_the_optimum",
         f"{here}::test_scheduling_bound_lies_below_the_optimum"],
        capture_output=True, text=True, env=env, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout
