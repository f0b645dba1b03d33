"""No solve keeps memory alive after it returns.

For each family, one solve warms up imports and first-call state; then,
under tracemalloc, one more solve sets the level and 20 more solves on
fresh instances must leave the traced memory where that one left it, up
to less than a kilobyte. A module-level cache keyed by instance data (a
grid per P, say) would keep every solve's data alive and fail here (one
such cache left about 40 KB); a benchmark sees it as a rising peak RSS.
"""
import gc
import tracemalloc
from fractions import Fraction

import pytest

from bnbapprox.algorithms import ALGORITHMS, solve
from bnbapprox.instances import generate

FAMILIES = {
    "unrelated": ("scheduling-unrelated", Fraction(1, 10)),
    "uniform": ("scheduling-uniform", Fraction(1, 2)),
    "identical": ("scheduling-identical", Fraction(1, 2)),
    "knapsack": ("knapsack", Fraction(9, 10)),
}


@pytest.mark.parametrize("algorithm", sorted(FAMILIES))
def test_solves_retain_no_memory(algorithm):
    kind, ratio = FAMILIES[algorithm]

    def solve_all_strategies(k):
        inst = generate(kind, 6, 2, 990_000 + k)
        for strategy in ALGORITHMS[algorithm].strategies:
            solve(inst, algorithm, ratio, strategy)

    solve_all_strategies(0)
    gc.collect()
    tracemalloc.start()
    try:
        solve_all_strategies(1)
        gc.collect()
        after_one = tracemalloc.get_traced_memory()[0]
        for k in range(2, 22):
            solve_all_strategies(k)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - after_one
    finally:
        tracemalloc.stop()
    # a few bytes of interpreter state may settle late (24-48 seen when the
    # whole suite runs first); a cache keeping one grid per solve leaves tens
    # of kilobytes after 20 solves
    assert growth < 1024, f"{algorithm}: 20 solves left {growth} more bytes traced"
