"""One solver entry point for the command line, the sweeps and the library.

`solve` checks an instance, a ratio, a strategy and a depth cap against the
algorithm's row of ALGORITHMS, runs it and returns an `Outcome`. The
profile schemes search in units of the root bound (profiles.normalize);
their value and bound come back in the instance's own units here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .engine import SELECTIONS, Criterion, RunResult, Sense, Strategy, StrategyError
from .engine import valid_strategies
from .instances import IDENTICAL, KNAPSACK, UNIFORM, UNRELATED, Instance, InstanceError
from .knapsack import run_knapsack
from .profiles import PROFILE_TAGS, run_profile
from .rational import Rat, format_rat, rat
from .scheduling import run_unrelated

__all__ = ["Algorithm", "ALGORITHMS", "Outcome", "solve"]


@dataclass(frozen=True)
class Algorithm:
    """A row of the solver table. `run(inst, ratio, strategy, node_limit[,
    depth_cap])` returns the RunResult, whose best_solution is in the
    instance's labels, and the scale the search divided the instance by
    (None: none)."""

    name: str
    kinds: tuple[str, ...]
    criterion: str
    strategies: tuple[Strategy, ...]
    takes_depth_cap: bool
    run: Callable[..., tuple[RunResult, Rat | None]]
    ratio_below: Rat | None = None  # beyond the criterion's own range

    @property
    def sense(self) -> Sense:
        return Sense.MAX if self.criterion == "ratio-alpha" else Sense.MIN

    def check_ratio(self, ratio: Rat) -> None:
        """Raise ValueError for a ratio this algorithm cannot take."""
        Criterion(self.criterion, ratio)
        if self.ratio_below is not None and ratio >= self.ratio_below:
            raise ValueError(f"{self.name} needs a ratio below {format_rat(self.ratio_below)}")


_PROFILE = tuple(Strategy(sel, *PROFILE_TAGS) for sel in SELECTIONS)

ALGORITHMS: dict[str, Algorithm] = {
    algo.name: algo
    for algo in (
        Algorithm("knapsack", (KNAPSACK,), "ratio-alpha",
                  tuple(valid_strategies(KNAPSACK)), False, run_knapsack),
        Algorithm("unrelated", (UNRELATED, UNIFORM, IDENTICAL), "ratio-eps",
                  tuple(valid_strategies(UNRELATED)), True, run_unrelated),
        # similarity cells of side eps/n need eps < 1
        Algorithm("uniform", (UNIFORM, IDENTICAL), "ratio-eps", _PROFILE, False,
                  partial(run_profile, mode="similarity"), ratio_below=rat(1)),
        Algorithm("identical", (IDENTICAL,), "ratio-eps", _PROFILE, False,
                  partial(run_profile, mode="equivalence")),
    )
}


@dataclass
class Outcome:
    """The assignment, its value and the run's global bound in the
    instance's units, the scale (None: none) and the raw RunResult."""

    assignment: dict[int, int]
    value: Rat
    bound: Rat
    scale: Rat | None
    result: RunResult

    @property
    def makespan(self) -> Rat:
        return self.value


def solve(
    inst: Instance,
    algorithm: str,
    ratio: Rat,
    strategy: Strategy,
    node_limit: int | None = None,
    depth_cap: int | None = None,
) -> Outcome:
    """Run one algorithm of ALGORITHMS on one instance. Raises
    InstanceError, StrategyError or ValueError for what its row rejects."""
    algo = ALGORITHMS.get(algorithm)
    if algo is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if inst.kind not in algo.kinds:
        raise InstanceError(f"{algorithm} solver needs a {' or '.join(algo.kinds)} instance")
    ratio = rat(ratio)
    algo.check_ratio(ratio)
    if strategy not in algo.strategies:
        tags = f"{strategy.branching}/{strategy.bounding}/{strategy.rounding}"
        raise StrategyError(f"{tags} is no {algorithm} strategy")
    if depth_cap is not None and not algo.takes_depth_cap:
        raise ValueError(f"{algorithm} takes no depth cap")
    if node_limit is not None and node_limit < 1:
        raise ValueError("node_limit must be at least 1")
    extra = () if depth_cap is None else (depth_cap,)
    result, scale = algo.run(inst, ratio, strategy, node_limit, *extra)
    unit = 1 if scale is None else scale
    return Outcome(
        result.best_solution, result.best_value * unit, result.global_bound * unit, scale, result
    )
