import random

import pytest

from bnbapprox.algorithms import solve
from bnbapprox.engine import (
    AdapterContractError,
    BaseAdapter,
    BoundInfo,
    ChildSpec,
    Criterion,
    DegenerateBoundError,
    Selection,
    Sense,
    Strategy,
    StrategyError,
    run,
    should_stop,
    valid_strategies,
)
from bnbapprox.experiments import ExperimentConfig, run_experiment
from bnbapprox.instances import generate
from bnbapprox.rational import parse_rat, rat


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


@pytest.mark.guarantee
def test_run_monotonicity_audit():
    tree = {"lb": 1, "ub": 10, "children": [{"lb": 1, "ub": 11}]}
    with pytest.raises(AdapterContractError):
        run(_TreeAdapter(tree), Selection.BEST_FIRST, Criterion("ratio-alpha", rat(1, 2)))


# the order each selection documents, minimized over the open nodes
ORDERS = {
    (Selection.BEST_FIRST, Sense.MAX): lambda node: (-node.ub, node.id),
    (Selection.BEST_FIRST, Sense.MIN): lambda node: (node.lb, node.id),
    (Selection.DFS, Sense.MAX): lambda node: (-node.depth, -node.id),
    (Selection.DFS, Sense.MIN): lambda node: (-node.depth, -node.id),
    (Selection.BFS, Sense.MAX): lambda node: (node.depth, node.id),
    (Selection.BFS, Sense.MIN): lambda node: (node.depth, node.id),
}


class _RandomTreeAdapter(BaseAdapter):
    """A random tree grown as the run branches: no leaves, fan-out 0 to 3,
    and bounds that tighten monotonically and tie often. It keeps the open
    nodes from `on_insert` and checks at every `branch` that the run took
    their minimum under `order`."""

    def __init__(self, sense, order, rnd):
        self.sense = sense
        self.order = order
        self.rnd = rnd
        self.open = {}
        self.branched = 0

    def root_payload(self):
        return (10, 50)

    def bound(self, payload):
        return BoundInfo(*payload, payload, leaf=False)

    def on_insert(self, node):
        self.open[node.id] = node

    def branch(self, node):
        assert min(self.open.values(), key=self.order) is node
        del self.open[node.id]
        self.branched += 1
        lb, ub = node.payload
        children = []
        for _ in range(self.rnd.randint(0, 3)):
            # the bound side moves by 0 to 2, the solution side by 0 to 5
            if self.sense is Sense.MAX:
                child_ub = ub - self.rnd.randint(0, 2)
                bounds = (min(lb + self.rnd.randint(0, 5), child_ub), child_ub)
            else:
                child_lb = lb + self.rnd.randint(0, 2)
                bounds = (child_lb, max(ub - self.rnd.randint(0, 5), child_lb))
            children.append(ChildSpec(self.rnd.random() < 0.5, bounds))
        return children


@pytest.mark.guarantee
def test_run_takes_nodes_in_the_documented_order():
    # best-first: highest ub (max) or lowest lb (min), ties to the lowest
    # id; DFS: deepest, newest first; BFS: shallowest, oldest first
    branched = 0
    for (selection, sense), order in ORDERS.items():
        criterion = (Criterion("ratio-alpha", rat(999, 1000)) if sense is Sense.MAX
                     else Criterion("ratio-eps", rat(1, 1000)))
        for seed in range(40):
            rnd = random.Random(seed)
            adapter = _RandomTreeAdapter(sense, order, rnd)
            run(adapter, selection, criterion, node_limit=rnd.randint(5, 80))
            branched += adapter.branched
    assert branched >= 1000


class _OrderAdapter(_TreeAdapter):
    """`_TreeAdapter` in either sense that records the `name` of each node
    it branches."""

    def __init__(self, tree, sense):
        super().__init__(tree)
        self.sense = sense
        self.branched = []

    def branch(self, node):
        self.branched.append(node.payload["name"])
        return super().branch(node)


def _branch_order(tree, selection, sense=Sense.MAX):
    criterion = (Criterion("ratio-alpha", rat(999, 1000)) if sense is Sense.MAX
                 else Criterion("ratio-eps", rat(1, 1000)))
    adapter = _OrderAdapter(tree, sense)
    run(adapter, selection, criterion)
    return adapter.branched


def _inner(name, lb, ub, dead_lb, dead_ub, children=()):
    # a node that is branched; without children of its own it gets one
    # leaf that the incumbent prunes
    return {"name": name, "lb": lb, "ub": ub,
            "children": list(children) or [{"lb": dead_lb, "ub": dead_ub}]}


def test_select_best_first_max_picks_highest_ub():
    tree = _inner("r", 0, 20, 0, 0, [_inner("a", 0, 10, 0, 0), _inner("b", 0, 12, 0, 0)])
    assert _branch_order(tree, Selection.BEST_FIRST) == ["r", "b", "a"]


def test_select_best_first_min_tie_lowest_id():
    # equal bounds: the child inserted first (lower id) is branched first
    tree = _inner("r", 1, 20, 9, 9, [_inner("a", 4, 9, 9, 9), _inner("b", 4, 9, 9, 9)])
    assert _branch_order(tree, Selection.BEST_FIRST, Sense.MIN) == ["r", "a", "b"]


def test_select_dfs_last_inserted_first():
    tree = _inner("r", 0, 20, 0, 0, [_inner(name, 0, 5, 0, 0) for name in "abc"])
    assert _branch_order(tree, Selection.DFS) == ["r", "c", "b", "a"]


def test_select_bfs_shallowest_earliest():
    # after a, the open nodes are b (depth 1) and a's child (depth 2)
    tree = _inner("r", 0, 20, 0, 0, [
        _inner("a", 0, 5, 0, 0, [_inner("a1", 0, 5, 0, 0)]),
        _inner("b", 0, 5, 0, 0),
    ])
    assert _branch_order(tree, Selection.BFS) == ["r", "a", "b", "a1"]


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
    # (here the run stops with the frontier's best bound at 121, under the
    # incumbent 164)
    inst = generate("knapsack", 12, 2, 6)
    strategy = Strategy(Selection.BEST_FIRST, "CE", "Surrogate", "Dantzig")
    out = solve(inst, "knapsack", rat(97, 100), strategy)
    assert out.value == 164
    assert out.bound == 164
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


def test_engine_contract_checks_under_optimize_flag(optimize_pass):
    # `python -O` strips assert statements; the engine's contract errors and
    # its selection order must not depend on them
    assert optimize_pass.not_passed("test_engine.py", "test_bound_scale.py") == [], optimize_pass.out
