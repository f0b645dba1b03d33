import pytest

from bnbapprox.algorithms import solve
from bnbapprox.engine import (
    AdapterContractError,
    BaseAdapter,
    BoundInfo,
    ChildSpec,
    Criterion,
    DegenerateBoundError,
    Node,
    Selection,
    Sense,
    Strategy,
    StrategyError,
    _selection_key,
    run,
    should_stop,
    valid_strategies,
)
from bnbapprox.experiments import ExperimentConfig, run_experiment
from bnbapprox.instances import generate
from bnbapprox.rational import parse_rat, rat


def _node(nid, depth, lb, ub):
    return Node(nid, None, depth, rat(lb), rat(ub), False, 0, False, None)


def _select_next(frontier, selection, sense):
    # the node the engine's selection heap pops first
    return min(frontier, key=lambda n: _selection_key(n, selection, sense))


def test_select_best_first_max_picks_highest_ub():
    frontier = [_node(1, 1, 0, 10), _node(2, 1, 0, 12)]
    picked = _select_next(frontier, Selection.BEST_FIRST, Sense.MAX)
    assert picked.id == 2


def test_select_best_first_min_tie_lowest_id():
    frontier = [_node(5, 1, 4, 9), _node(3, 1, 4, 9)]
    picked = _select_next(frontier, Selection.BEST_FIRST, Sense.MIN)
    assert picked.id == 3


def test_select_dfs_last_inserted_first():
    c1, c2, c3 = (_node(i, 1, 0, 5) for i in (1, 2, 3))
    picked = _select_next([c1, c2, c3], Selection.DFS, Sense.MAX)
    assert picked.id == 3


def test_select_bfs_shallowest_earliest():
    nodes = [_node(4, 2, 0, 5), _node(6, 1, 0, 5), _node(7, 1, 0, 5)]
    picked = _select_next(nodes, Selection.BFS, Sense.MAX)
    assert picked.id == 6


def test_should_stop_boundaries():
    alpha = Criterion("ratio-alpha", rat(97, 100))
    assert should_stop(rat(97), rat(100), alpha, Sense.MAX)  # inclusive
    assert not should_stop(rat(60), rat(92), alpha, Sense.MAX)
    eps = Criterion("ratio-eps", rat(1, 10))
    assert should_stop(rat(11), rat(10), eps, Sense.MIN)  # 11/10 <= 11/10
    assert not should_stop(rat(23), rat(20), eps, Sense.MIN)


def test_should_stop_degenerate():
    alpha = Criterion("ratio-alpha", rat(1, 2))
    assert should_stop(rat(0), rat(0), alpha, Sense.MAX)  # flagged convention
    with pytest.raises(DegenerateBoundError):
        should_stop(rat(1), rat(0), alpha, Sense.MAX)


def test_strategy_validation():
    knap = generate("knapsack", 4, 2, 1)
    sched = generate("scheduling-unrelated", 3, 2, 1)
    solve(knap, "knapsack", rat(1, 2), Strategy(Selection.DFS, "CE", "Surrogate", "Dantzig"))
    with pytest.raises(StrategyError):
        solve(knap, "knapsack", rat(1, 2), Strategy(Selection.DFS, "MMP", "Surrogate", "Dantzig"))
    with pytest.raises(StrategyError):
        solve(sched, "unrelated", rat(1, 2), Strategy(Selection.DFS, "MMP", "Surrogate", "AS"))
    assert len(valid_strategies("knapsack")) == 9
    assert len(valid_strategies("scheduling-unrelated")) == 12


class _TreeAdapter(BaseAdapter):
    """Fixed test tree over payload dicts: {"lb","ub","children",...}."""

    sense = Sense.MAX
    tracks_turns = True

    def __init__(self, tree):
        self.tree = tree

    def root_payload(self):
        return self.tree

    def bound(self, payload):
        return BoundInfo(rat(payload["lb"]), rat(payload["ub"]), payload.get("sol"),
                         leaf=not payload.get("children"))

    def branch(self, node):
        return [
            ChildSpec(bool(child.get("right")), child)
            for child in node.payload.get("children", [])
        ]


def test_run_integral_root_counts_one_node():
    adapter = _TreeAdapter({"lb": 5, "ub": 5, "sol": "root"})
    result = run(adapter, Selection.BEST_FIRST, Criterion("ratio-alpha", rat(1, 2)))
    assert result.termination == "ratio-met"
    assert result.nodes_explored == 1
    assert result.best_value == 5 and result.best_solution == "root"


def test_run_node_limit():
    # an endless chain of improving children, capped by the node limit
    def chain(depth):
        return {
            "lb": 1,
            "ub": 100 - depth,
            "sol": depth,
            "children": [chain(depth + 1)] if depth < 50 else [],
        }

    adapter = _TreeAdapter(chain(0))
    result = run(adapter, Selection.BEST_FIRST, Criterion("ratio-alpha", rat(99, 100)),
                 node_limit=10)
    assert result.termination == "node-limit"
    assert result.nodes_explored <= 10


def test_run_frontier_empty_returns_best():
    tree = {
        "lb": 1, "ub": 10, "sol": "r",
        "children": [
            {"lb": 4, "ub": 4, "sol": "a"},
            {"lb": 6, "ub": 6, "sol": "b", "right": True},
        ],
    }
    adapter = _TreeAdapter(tree)
    result = run(adapter, Selection.BEST_FIRST, Criterion("ratio-alpha", rat(999, 1000)))
    assert result.best_value == 6 and result.best_solution == "b"
    assert result.termination in ("ratio-met", "frontier-empty")
    assert result.left_turn_max == 1  # child a is a left turn
    assert result.nodes_after_optimum == 0


def test_run_monotonicity_audit():
    tree = {"lb": 1, "ub": 10, "children": [{"lb": 1, "ub": 11}]}
    with pytest.raises(AdapterContractError):
        run(_TreeAdapter(tree), Selection.BEST_FIRST, Criterion("ratio-alpha", rat(1, 2)))


def test_run_prunes_equal_bound_children():
    # child with ub == incumbent cannot improve and is discarded
    tree = {
        "lb": 5, "ub": 10, "sol": "r",
        "children": [{"lb": 5, "ub": 5, "sol": "dead", "children": [{"lb": 5, "ub": 5}]}],
    }
    result = run(_TreeAdapter(tree), Selection.BEST_FIRST, Criterion("ratio-alpha", rat(99, 100)))
    assert result.nodes_explored == 2  # root + the pruned child, grandchild never bounded
    assert result.best_value == 5


def test_global_bound_is_certified_after_the_incumbent_passes_the_frontier():
    # the children of an expansion are admitted against the incumbent it
    # started with; once a sibling improves it, the frontier's best key can
    # lie below the incumbent, and the run stops on the ratio right there
    inst = generate("knapsack", 12, 2, 7)
    strategy = Strategy(Selection.BEST_FIRST, "CE", "Surrogate", "Dantzig")
    out = solve(inst, "knapsack", rat(97, 100), strategy)
    assert out.value == 268
    assert out.bound == 268
    assert out.result.termination == "ratio-met"


@pytest.mark.parametrize(
    "kind, pairs, ratio",
    [
        ("knapsack", [(8, 2), (12, 2)], rat(97, 100)),
        ("scheduling-unrelated", [(5, 2), (5, 3)], rat(1, 100)),
    ],
)
def test_sweep_bounds_lie_on_the_certified_side(kind, pairs, ratio):
    # a maximizing run's bound is at least its value, a minimizing run's at
    # most, whatever the strategy and however the run terminated
    cfg = ExperimentConfig(kind=kind, pairs=pairs, ratios=[ratio], instances_per_pair=4,
                           base_seed=1)
    rows = run_experiment(cfg)
    assert rows
    for row in rows:
        value, bound = parse_rat(row["best_value"]), parse_rat(row["global_bound"])
        assert (bound >= value if kind == "knapsack" else bound <= value), row
