"""The scheduling schemes' value guarantees against the exact oracle.

Hypothesis draws tiny unrelated, uniform and identical instances, each built
around one named case: equal processing times, nonzero overheads, rational
data, one job, one machine, and rational data whose node grids go coarser
than the instance's (overheads c + 1/3 and filler jobs d + 2/3: fixing a
filler on a machine leaves that machine on the integers). On every instance
all 12 strategies of the unrelated scheme must return a complete schedule
worth their value with OPT <= value <= (1+eps) OPT, and on uniform and
identical instances the profile schemes must stay within (1+eps)^2 OPT;
the identical scheme also runs at eps = 3/2, where its root rounding alone
is returned and must stay within 2 OPT. The same test runs again in a
`python -O` subprocess, since the guarantees must not rest on asserts.

Only the value is checked here; test_bound_property.py checks which side
of the optimum each run's bound lies on, under node limits and depth caps.
"""
import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bnbapprox.algorithms import ALGORITHMS, solve
from bnbapprox.engine import valid_strategies
from bnbapprox.instances import IDENTICAL, UNIFORM, UNRELATED, SchedulingInstance
from bnbapprox.oracle import exact_opt
from guarantees import schedule_makespan

PROPERTY = settings(derandomize=True, database=None, max_examples=600, deadline=None)

CASES = ("equal-times", "overheads", "rational", "coarse-grid", "one-job", "one-machine")

_integers = st.integers(min_value=1, max_value=9).map(Fraction)
_rationals = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=6)


@st.composite
def _instances(draw):
    case = draw(st.sampled_from(CASES))
    kind = draw(st.sampled_from((UNRELATED, UNIFORM, IDENTICAL)))
    values = _rationals if case == "rational" else _integers
    n = 1 if case == "one-job" else draw(st.integers(min_value=1, max_value=4))
    m = 1 if case == "one-machine" else draw(st.integers(min_value=1, max_value=3))
    speeds = [Fraction(1)] * m
    if kind == UNIFORM and case != "coarse-grid":
        speeds = draw(st.lists(st.sampled_from((Fraction(1), Fraction(2), Fraction(3, 2))),
                               min_size=m, max_size=m))
    if kind == UNRELATED:
        rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    else:
        rows = [[b / s for s in speeds] for b in draw(st.lists(values, min_size=n, max_size=n))]
    overheads = [Fraction(0)] * m
    if case == "equal-times":
        rows = [rows[0]] * n
    if case == "overheads":
        overheads = draw(st.lists(_rationals, min_size=m, max_size=m))
    if case == "coarse-grid":
        # filler k has time d + 2/3 on every machine (machine speeds are 1
        # here), and every machine starts at c + 1/3
        overheads = [draw(st.integers(0, 3)) + Fraction(1, 3) for _ in range(m)]
        fillers = draw(st.lists(st.integers(0, 3), min_size=1, max_size=m))
        if kind == UNRELATED:
            rows += [[d + draw(st.integers(0, 2)) + Fraction(2, 3) for _ in range(m)]
                     for d in fillers]
        else:
            rows += [[d + Fraction(2, 3)] * m for d in fillers]
    processing = tuple(tuple(row) for row in rows)
    if kind == UNRELATED:
        inst = SchedulingInstance(UNRELATED, processing, tuple(overheads))
    else:
        base = tuple(row[0] * speeds[0] for row in rows)
        inst = SchedulingInstance(kind, processing, tuple(overheads), base, tuple(speeds))
    # the case's name rides along so that a falsifying example shows it
    return case, inst


_epsilons = st.sampled_from((Fraction(1, 10), Fraction(1, 2), Fraction(1)))


def _check(inst, algorithm, eps, strategies, opt, factor):
    for strategy in strategies:
        out = solve(inst, algorithm, eps, strategy)
        assert schedule_makespan(inst, out.assignment) == out.value
        assert opt <= out.value <= factor * opt, (algorithm, strategy, eps)


@PROPERTY
@given(_instances(), _epsilons)
def test_value_guarantees_against_the_oracle(drawn, eps):
    _, inst = drawn
    opt = exact_opt(inst).optimum
    _check(inst, "unrelated", eps, valid_strategies(UNRELATED), opt, 1 + eps)
    profile = ALGORITHMS["uniform"].strategies
    if inst.kind != UNRELATED and eps < 1:
        _check(inst, "uniform", eps, profile, opt, (1 + eps) ** 2)
    if inst.kind == IDENTICAL:
        _check(inst, "identical", eps, profile, opt, (1 + eps) ** 2)
        _check(inst, "identical", Fraction(3, 2), profile, opt, 2)


def test_value_guarantees_under_optimize_flag():
    # `python -O` strips assert statements; the guarantees must hold there too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_value_guarantees_against_the_oracle"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
