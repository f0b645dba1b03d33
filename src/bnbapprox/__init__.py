"""Branch-and-bound solvers with approximation-scheme guarantees.

Four solver families over exact rational arithmetic:

* multi-knapsack with a surrogate-relaxation bound and Dantzig rounding,
  stopping at a target ratio alpha (``knapsack``);
* unrelated parallel machines with a parametric LP bound, the smallest
  feasible guess found by a Farkas-ray walk up from a lower bound,
  stopping at ratio 1+eps (``scheduling``);
* uniform machines with similarity-pruned profiles (``profiles``);
* identical machines with equivalence-pruned profiles (``profiles``).

``solve(inst, algorithm, ratio, strategy)`` runs any of them through the
table ``ALGORITHMS`` (``algorithms``) and returns an ``Outcome``; the CLI,
the sweeps and the ``solve_*`` functions all go through it.

Plus instance generation and file I/O (``instances``), exact oracles
(``oracle``), the generic search engine (``engine``), the exact dual
simplex of the load LP (``lp``) and the experiment harness
(``experiments``/``cli``).
"""
from .algorithms import ALGORITHMS, Outcome, solve
from .engine import Criterion, RunResult, Selection, Strategy, run
from .instances import (
    IDENTICAL,
    KNAPSACK,
    UNIFORM,
    UNRELATED,
    KnapsackInstance,
    SchedulingInstance,
    generate,
    load_instance,
    save_instance,
)
from .knapsack import KnapsackAdapter
from .oracle import exact_opt, optimality_gap
from .profiles import solve_identical, solve_uniform
from .rational import Rat, rat
from .scheduling import SchedGrid, UnrelatedAdapter, min_feasible_T, solve_unrelated

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Outcome",
    "solve",
    "Criterion",
    "RunResult",
    "Selection",
    "Strategy",
    "run",
    "KNAPSACK",
    "UNRELATED",
    "UNIFORM",
    "IDENTICAL",
    "KnapsackInstance",
    "SchedulingInstance",
    "generate",
    "load_instance",
    "save_instance",
    "KnapsackAdapter",
    "exact_opt",
    "optimality_gap",
    "solve_identical",
    "solve_uniform",
    "Rat",
    "rat",
    "SchedGrid",
    "UnrelatedAdapter",
    "min_feasible_T",
    "solve_unrelated",
    "__version__",
]
