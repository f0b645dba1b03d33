"""The knapsack alpha certificate against the exact oracle, as a property.

Hypothesis draws tiny adversarial instances, each built around one named
case: zero weights, ties in profit per weight, rational data, one item or
one knapsack, zero capacities and items that fit in no knapsack. Every one
of the 9 strategies must return a feasible assignment worth its value, a
bound no smaller than the optimum, and, when it stops on the ratio, a value
of at least alpha times the bound and so times the optimum. A run that
empties its frontier must have found the optimum. The same test runs again
in a `python -O` subprocess, since the certificate must not rest on asserts.
"""
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox.algorithms import solve
from bnbapprox.engine import FRONTIER_EMPTY, RATIO_MET, valid_strategies
from bnbapprox.instances import KnapsackInstance
from bnbapprox.oracle import exact_opt
from guarantees import assignment_feasible, assignment_value

PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)

CASES = ("zero-weight", "ratio-tie", "rational", "one-item", "one-knapsack",
         "zero-capacity", "fits-nowhere")

_integers = st.integers(min_value=1, max_value=9).map(Fraction)
_rationals = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=6)


@st.composite
def _instances(draw):
    case = draw(st.sampled_from(CASES))
    values = _rationals if case == "rational" else _integers
    n = 1 if case == "one-item" else draw(st.integers(min_value=1, max_value=5))
    m = 1 if case == "one-knapsack" else draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(values, min_size=n, max_size=n))
    profits = draw(st.lists(values, min_size=n, max_size=n))
    caps = draw(st.lists(values, min_size=m, max_size=m))
    if case == "zero-weight":
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = Fraction(0)
    if case == "ratio-tie" and n >= 2:
        # item j becomes item i scaled: the same profit per weight
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2))))
        weights[j], profits[j] = weights[i] * factor, profits[i] * factor
    if case == "zero-capacity":
        caps[draw(st.integers(min_value=0, max_value=m - 1))] = Fraction(0)
    if case == "fits-nowhere":
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = max(caps) + draw(values)
    # the case's name rides along so that a falsifying example shows it
    return case, KnapsackInstance(tuple(weights), tuple(profits), tuple(caps))


_alphas = st.sampled_from((Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)))


@PROPERTY
@given(_instances(), _alphas)
def test_alpha_certificate_against_the_oracle(drawn, alpha):
    _, inst = drawn
    opt = exact_opt(inst).optimum
    for strategy in valid_strategies("knapsack"):
        out = solve(inst, "knapsack", alpha, strategy)
        assert assignment_feasible(inst, out.assignment)
        assert assignment_value(inst, out.assignment) == out.value
        assert out.value <= opt <= out.bound
        termination = out.result.termination
        assert termination in (RATIO_MET, FRONTIER_EMPTY)
        if termination == RATIO_MET:
            assert out.value >= alpha * out.bound
            assert out.value >= alpha * opt
        else:
            assert out.value == opt


def test_alpha_certificate_under_optimize_flag():
    # `python -O` strips assert statements; the certificate must hold there too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_alpha_certificate_against_the_oracle"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
