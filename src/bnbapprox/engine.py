"""Generic branch-and-bound loop shared by all four solvers.

The engine owns frontier management, node selection (DFS / BFS /
best-first), the multiplicative stopping rule, the node cap and metric
collection. Problem specifics live behind a small adapter contract:

    root_payload() -> payload
    bound(payload) -> BoundInfo(lb, ub, solution, leaf)
    branch(node)   -> [payload, ...]  (the children; the last is the right turn)
    admit(node)    -> bool   (optional extra pruning, e.g. profile filters)
    on_insert(node)          (bookkeeping for admitted nodes)

Bound conventions: for maximization `lb` is the value of the feasible
solution that BoundInfo.solution stands for and `ub` the relaxation bound;
for minimization the roles swap. Both are exact numbers in units of
1/`bound_scale`, an integer the adapter declares once per run (default 1):
an adapter whose bounds all lie on one grid returns them as plain ints.

BoundInfo.solution is a (chain, rest) token in the instance's labels: the
node's fixed decisions as a parent-linked `Chain` and the rest of the
assignment. The run keeps the incumbent's token and reads it with
chain_solution once, on return, so a bound need not build a solution that
the run may never keep.

A child's position is its turn: every child but the last that `branch`
returns is a left turn, the last one the right turn, and a node's
left_turns counts the left turns on its path from the root. Only an
adapter that sets `tracks_turns` reports their maximum.

`run` minimizes whatever the adapter's sense. With sign = +1 for
minimization and -1 for maximization, a node's key is its relaxation bound
times sign (`lb`, or `-ub`) and the incumbent is the best solution value
times sign (`ub`, or `-lb`). The run orders its bound heap, prunes, checks
monotonicity (a child's key is never below its parent's) and keeps the
global bound on those keys; it multiplies a value back by sign only for
the stopping test and for the `RunResult`. The result is in instance units:
best_value and global_bound are divided by the scale once, on return.
Children are bounded once, at creation, and the values reused when the
node is later selected.

A single run is strictly single-threaded (selection order is semantics
bearing); independent runs may execute concurrently.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence, Union

from .rational import Rat, format_rat

__all__ = [
    "Sense",
    "Selection",
    "Strategy",
    "Criterion",
    "Node",
    "BoundInfo",
    "BaseAdapter",
    "Chain",
    "chain_solution",
    "RunResult",
    "DegenerateBoundError",
    "AdapterContractError",
    "StrategyError",
    "should_stop",
    "SELECTIONS",
    "valid_strategies",
    "run",
    "RATIO_MET",
    "NODE_LIMIT",
    "FRONTIER_EMPTY",
]

RATIO_MET = "ratio-met"
NODE_LIMIT = "node-limit"
FRONTIER_EMPTY = "frontier-empty"


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class Selection(Enum):
    DFS = "DFS"
    BFS = "BFS"
    BEST_FIRST = "BestFirst"


class StrategyError(ValueError):
    """Invalid strategy combination for the problem kind."""


class DegenerateBoundError(ArithmeticError):
    """Stopping ratio undefined: the global bound is zero."""


class AdapterContractError(RuntimeError):
    """An adapter violated a bound contract (non-monotone child, lb > ub)."""


@dataclass(frozen=True)
class Strategy:
    """Node selection + branching + bounding + rounding tags.

    Each algorithm accepts the strategies of its row in
    algorithms.ALGORITHMS. Best-first is called HUB on maximization runs and
    LLB on minimization runs in reports.
    """

    selection: Selection
    branching: str
    bounding: str
    rounding: str

    def label(self, sense: Sense) -> str:
        if self.selection is Selection.BEST_FIRST:
            return "HUB" if sense is Sense.MAX else "LLB"
        return self.selection.value


SELECTIONS = (Selection.BEST_FIRST, Selection.DFS, Selection.BFS)

_TAGS = {
    "knapsack": (("CE", "K", "PPW"), ("Surrogate",), ("Dantzig",)),
    "scheduling": (("MMP",), ("BS", "LR"), ("AS", "BM")),
}


def valid_strategies(kind: str) -> list[Strategy]:
    """The strategy matrix for a problem kind, in a fixed order: the knapsack
    matrix, or for every scheduling kind the MMP matrix."""
    branchings, boundings, roundings = _TAGS["knapsack" if kind == "knapsack" else "scheduling"]
    return [
        Strategy(sel, br, bo, ro)
        for sel in SELECTIONS
        for br in branchings
        for bo in boundings
        for ro in roundings
    ]


@dataclass(frozen=True)
class Criterion:
    """Multiplicative stopping rule: ratio-alpha (max) or ratio-eps (min)."""

    kind: str  # "ratio-alpha" | "ratio-eps"
    value: Rat

    def __post_init__(self):
        if self.kind not in ("ratio-alpha", "ratio-eps"):
            raise ValueError(f"unknown criterion {self.kind!r}")
        if self.kind == "ratio-alpha" and not 0 < self.value < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.kind == "ratio-eps" and self.value <= 0:
            raise ValueError("epsilon must be positive")


# A bound as an adapter returns it: an int or a Fraction, in units of
# 1/bound_scale.
Bound = Union[int, Rat]


def should_stop(
    best_value: Bound, global_bound: Bound, criterion: Criterion, sense: Sense
) -> bool:
    """Exact stopping test; boundary values stop (the ratio is inclusive).

    best == bound always stops (covers the degenerate all-zero instance,
    which is flagged by convention rather than raised); a zero bound with a
    different best value raises DegenerateBoundError. The ratio best/bound
    does not depend on the scale both values share, and it is compared
    without dividing: with best = p/q, bound = r/s and the limit c = a/b,
    best/bound >= c is p*s*b >= a*q*r when r > 0, and the reverse when r < 0.
    """
    if best_value == global_bound:
        return True
    if global_bound == 0:
        raise DegenerateBoundError("zero global bound on a degenerate instance")
    if criterion.kind == "ratio-alpha":
        if sense is not Sense.MAX:
            raise ValueError("ratio-alpha applies to maximization")
        a = criterion.value.numerator
    else:
        if sense is not Sense.MIN:
            raise ValueError("ratio-eps applies to minimization")
        a = criterion.value.numerator + criterion.value.denominator  # 1 + eps
    r = global_bound.numerator
    lhs = best_value.numerator * global_bound.denominator * criterion.value.denominator
    rhs = a * best_value.denominator * r
    if r < 0:
        lhs, rhs = rhs, lhs
    return lhs >= rhs if sense is Sense.MAX else lhs <= rhs


@dataclass(slots=True)
class Node:
    id: int
    parent: int | None
    depth: int
    lb: Bound
    ub: Bound
    left_turns: int
    leaf: bool
    payload: Any


@dataclass(slots=True)
class BoundInfo:
    lb: Bound
    ub: Bound
    solution: tuple[Chain, Mapping[int, int]]
    leaf: bool = False


# Fixed decisions as a parent-linked chain: None at the root, else (item,
# place, parent's chain). A child extends its parent's chain in O(1), and
# siblings share it.
Chain = Optional[tuple[int, int, "Chain"]]


def chain_solution(chain: Chain, rest: Mapping[int, int]) -> dict[int, int]:
    """The chain's decisions, root first, then `rest`'s."""
    links = []
    while chain is not None:
        item, place, chain = chain
        links.append((item, place))
    solution = dict(reversed(links))
    solution.update(rest)
    return solution


class BaseAdapter:
    """Default adapter hooks; problem adapters override what they need.

    `branch` returns the children's payloads, the right turn last."""

    sense: Sense = Sense.MAX
    tracks_turns: bool = False
    # every lb and ub the adapter returns is in units of 1/bound_scale
    bound_scale: int = 1

    def root_payload(self) -> Any:
        raise NotImplementedError

    def bound(self, payload: Any) -> BoundInfo:
        raise NotImplementedError

    def branch(self, node: Node) -> Sequence[Any]:
        raise NotImplementedError

    def admit(self, node: Node) -> bool:
        return True

    def on_insert(self, node: Node) -> None:
        pass


@dataclass
class RunResult:
    best_value: Rat
    best_solution: Any
    global_bound: Rat
    nodes_explored: int
    nodes_processed: int
    max_depth: int
    left_turn_max: int | None
    nodes_after_optimum: int
    termination: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "best_value": format_rat(self.best_value),
            "global_bound": format_rat(self.global_bound),
            "nodes_explored": self.nodes_explored,
            "nodes_processed": self.nodes_processed,
            "max_depth": self.max_depth,
            "left_turn_max": self.left_turn_max,
            "nodes_after_optimum": self.nodes_after_optimum,
            "termination": self.termination,
        }


def run(
    adapter: BaseAdapter,
    selection: Selection,
    criterion: Criterion,
    node_limit: int | None = None,
) -> RunResult:
    """Run the branch-and-bound loop to termination.

    The loop minimizes one key per node (see the module docstring): it
    prunes a child whose key is not below the incumbent, and best-first
    takes the lowest key, ties to the lowest id. DFS takes the newest open
    node and BFS the oldest.

    nodes_explored counts bounded nodes (one relaxation solve each, the
    unit the node cap applies to); nodes_processed counts nodes actually
    selected and expanded, the quantity the tree-size guarantees speak
    about. A run returns when the stopping ratio is met, the node cap is
    reached (best solution so far is returned), or the frontier empties.
    A subtree can also be left unresolved: a parent whose expansion the
    node cap cuts short, a child `admit` rejects, a non-leaf whose `branch`
    returns no children. The run keeps the lowest key over those, and
    global_bound is the lowest of the incumbent, the frontier's keys and
    that key: it never lies on the wrong side of best_value or of the
    optimum. The stopping test reads the incumbent and the frontier only.
    """
    sense = adapter.sense
    sign, side, past = (1, "lb", "below") if sense is Sense.MIN else (-1, "ub", "above")
    scale = adapter.bound_scale

    def unscaled(value: Bound) -> Rat:
        return Fraction(value, scale)

    def minimized(info: BoundInfo, node_id: int) -> tuple[Bound, Bound]:
        """A bounded node's key and incumbent candidate: (lb, ub) when
        minimizing, (-ub, -lb) when maximizing."""
        if info.lb > info.ub:
            where = f"node {node_id}:" if node_id else "root has"
            raise AdapterContractError(
                f"{where} lb > ub (lb {unscaled(info.lb)}, ub {unscaled(info.ub)})"
            )
        return (info.lb, info.ub) if sign == 1 else (-info.ub, -info.lb)

    root_payload = adapter.root_payload()
    rootb = adapter.bound(root_payload)
    root_key, incumbent = minimized(rootb, 0)
    root = Node(
        id=0,
        parent=None,
        depth=0,
        lb=rootb.lb,
        ub=rootb.ub,
        left_turns=0,
        leaf=rootb.leaf,
        payload=root_payload,
    )
    explored = 1
    processed = 0
    incumbent_token = rootb.solution
    explored_at_improve = explored
    max_depth = 0
    left_turn_max = 0
    next_id = 1

    # The frontier maps each open id to its node and key, and the bound
    # heap holds (key, id) of every open node: best-first pops its top.
    # DFS and BFS take ids from a deque in insertion order, and the bound
    # heap drops the entries of nodes they have taken when those reach its
    # top. The node taken is the deepest (DFS) or the shallowest (BFS) open
    # node, so its children are at least as deep as every open node and
    # newer than all of them: the deque stays sorted by (depth, id), its
    # newest end is the (-depth, -id) minimum and its oldest end the
    # (depth, id) minimum.
    frontier: dict[int, tuple[Node, Bound]] = {0: (root, root_key)}
    bound_heap: list[tuple[Bound, int]] = [(root_key, 0)]
    queue: deque[int] | None = None
    if selection is not Selection.BEST_FIRST:
        queue = deque([0])
        take = queue.pop if selection is Selection.DFS else queue.popleft
    adapter.on_insert(root)

    def frontier_bound() -> Bound | None:
        while bound_heap and bound_heap[0][1] not in frontier:
            heapq.heappop(bound_heap)
        return bound_heap[0][0] if bound_heap else None

    def best_of(*keys: Bound | None) -> Bound:
        # a pruned node is no better than the incumbent, and the frontier's
        # keys date from when their nodes were bounded: the incumbent can
        # have moved past them since
        return min(key for key in keys if key is not None)

    unresolved: Bound | None = None  # lowest key over subtrees left unresolved

    termination = None
    while termination is None:
        gb = frontier_bound()
        if gb is None:
            termination = FRONTIER_EMPTY
            break
        if should_stop(sign * incumbent, sign * best_of(gb, incumbent), criterion, sense):
            termination = RATIO_MET
            break
        if node_limit is not None and explored >= node_limit:
            termination = NODE_LIMIT
            break

        v, v_key = frontier.pop(heapq.heappop(bound_heap)[1] if queue is None else take())
        processed += 1
        if v.leaf:
            continue
        incumbent_start = incumbent
        updates: list[tuple[Bound, Any]] = []
        children = adapter.branch(v)
        if not children:
            unresolved = best_of(unresolved, v_key)
        last = len(children) - 1
        for index, payload in enumerate(children):
            if node_limit is not None and explored >= node_limit:
                # the children not bounded yet lie in v's subtree
                unresolved = best_of(unresolved, v_key)
                termination = NODE_LIMIT
                break
            cb = adapter.bound(payload)
            explored += 1
            child = Node(
                id=next_id,
                parent=v.id,
                depth=v.depth + 1,
                lb=cb.lb,
                ub=cb.ub,
                left_turns=v.left_turns + (index < last),
                leaf=cb.leaf,
                payload=payload,
            )
            next_id += 1
            key, candidate = minimized(cb, child.id)
            if key < v_key:
                raise AdapterContractError(
                    f"node {child.id}: child {side} {unscaled(getattr(child, side))} {past} "
                    f"parent {side} {unscaled(getattr(v, side))}"
                )
            max_depth = max(max_depth, child.depth)
            left_turn_max = max(left_turn_max, child.left_turns)
            if candidate < incumbent_start:
                updates.append((candidate, cb.solution))
            if key >= incumbent_start:
                continue
            if not adapter.admit(child):
                unresolved = best_of(unresolved, key)
                continue
            frontier[child.id] = (child, key)
            heapq.heappush(bound_heap, (key, child.id))
            if queue is not None:
                queue.append(child.id)
            adapter.on_insert(child)
        for candidate, token in updates:
            if candidate < incumbent:
                incumbent = candidate
                incumbent_token = token
                explored_at_improve = explored

    return RunResult(
        best_value=unscaled(sign * incumbent),
        best_solution=chain_solution(*incumbent_token),
        global_bound=unscaled(sign * best_of(frontier_bound(), unresolved, incumbent)),
        nodes_explored=explored,
        nodes_processed=processed,
        max_depth=max_depth,
        left_turn_max=left_turn_max if adapter.tracks_turns else None,
        nodes_after_optimum=explored - explored_at_improve,
        termination=termination,
    )
