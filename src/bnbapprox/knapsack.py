"""Multi-knapsack bound, rounding and branch-and-bound adapter.

Bounding merges the knapsacks into one (capacity sum), solves that single
fractional knapsack by Dantzig's greedy in unit-profit order and reads the
result back as an optimal point of the per-knapsack LP relaxation: walking
the merged capacity line [0, C_1) [C_1, C_1+C_2) ... assigns every item's
overlap with segment k to knapsack k. The value equals the LP-relaxation
optimum of the original program.

The critical item of knapsack k is the first item in unit-profit order
whose cumulative weight passes the k-th capacity boundary. The paper's
integer rounding is the best *feasible* candidate among: each critical
item placed alone in the first knapsack that fits it, and the floor of the
fractional solution (items lying inside a single segment). When every item
fits in some knapsack the best candidate is an (m+1)-approximation of the
fractional optimum; the B&B adapter guarantees that precondition by
dropping items that fit in no residual knapsack before bounding a node.
The kernel completes the floor by first fit before it compares: the live
items the floor left out, in unit-profit order, each go into the first
knapsack with room left (the standard multi-knapsack greedy, Martello and
Toth, *Knapsack Problems*, 1990, ch. 6). The completed floor is worth at
least the floor, so the rounding x' (the better of the completed floor and
one critical item alone) keeps both guarantees.

Branching fixes a pivot item into each knapsack it fits (left turns) or
excludes it from all (the rightmost child, a right turn). Pivot rules:
CE (most profitable critical item), PPW (largest unit profit among
fractionally assigned items), K (largest unit profit among unfixed items).

Everything runs on one integer view of the instance (`KnapsackGrid`):
weights and capacities are scaled by Dw, the lcm of their denominators, and
profits by Dp, the lcm of theirs (both are 1 on generated data). Residual
capacities are differences of grid values, so they stay on the grid; every
comparison of weights, capacities and profits, every fit test and every
value is an integer operation. The kernel builds no `Rat`, and zero-weight
items never reach it: the adapter's root fixes them into knapsack 0.

A node is four things: the mask of its live items (an int, bit p for the
item at position p of the grid's unit-profit order), its residual caps, its
fixed profit and its fixed items as a parent-linked chain (item, knapsack,
parent). A node's usable items are one `&` of its mask with the grid's mask
of the items light enough for its largest cap, and a child's mask is its
parent's usable mask with the pivot's bit cleared. A bound returns the
token (chain, rounding), and the engine builds the solution from the
incumbent's token once, when the run returns.

Lw, the lcm of the positive grid weights, puts unit profits on integers:
p/w times Dp * Lw is P_j * (Lw // W_j), the key of the grid's unit-profit
order. The adapter's bounds are integers in units of 1/bound_scale with
bound_scale = Dp * Lw. A node's rounded value and fixed profit are integers
over Dp. Its relaxation value is the integer profit P_line of the items
inside the capacity line plus a part (C - start)/W_j of the one item j
crossing its end, so over Dp its only other denominator is W_j, which
divides Lw:

    lb = (fixed + int profit) * Lw
    ub = (fixed + P_line) * Lw + P_j * (C - start) * (Lw // W_j)

Every solution's profit is an integer over Dp, a multiple of Lw on this
scale, so the adapter floors ub to a multiple of Lw; the floor keeps it an
upper bound, and keeps a child's ub at most its parent's. The rounding
checks read the unfloored value. The engine compares, prunes and tests its
stopping ratio on these ints.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import engine
from .engine import AdapterContractError, BaseAdapter, BoundInfo, Chain, Criterion, Node
from .engine import RunResult, Sense, Strategy
from .instances import KnapsackInstance
from .rational import Rat, grid_scale, on_grid

__all__ = [
    "DantzigSolution",
    "KnapsackGrid",
    "dantzig_solve",
    "branch_children",
    "pick_pivot",
    "KnapsackAdapter",
    "run_knapsack",
]


@dataclass(frozen=True)
class KnapsackGrid:
    """An instance on integers: w*Dw, c*Dw and p*Dp for the lcm scales Dw, Dp.

    p_scale is Dp; Dw is rational.grid_scale of the weights and capacities.
    lw is the lcm of the positive grid weights and factors[j] = lw // W_j (0
    for a zero weight), so p_j/w_j times Dp * lw is P_j * factors[j]. order
    is the unit-profit order on that key: zero weights first, then by
    decreasing key, ties by id.

    A set of items is an int mask over positions in order: item j is bit
    rank[j], so the set bits, lowest first, list the items in unit-profit
    order. light holds the distinct weights, ascending, and fits[k] the mask
    of the items whose weight is among the k lightest, so the items of
    weight at most c are fits[bisect_right(light, c)]. zero_mask is the mask
    of the zero weights, the lowest bits.
    """

    p_scale: int
    weights: tuple[int, ...]
    profits: tuple[int, ...]
    capacities: tuple[int, ...]
    lw: int
    factors: tuple[int, ...]
    order: tuple[int, ...]
    rank: tuple[int, ...]
    light: tuple[int, ...]
    fits: tuple[int, ...]
    zero_mask: int

    @classmethod
    def build(cls, inst: KnapsackInstance) -> "KnapsackGrid":
        dw = grid_scale((*inst.weights, *inst.capacities))
        dp = grid_scale(inst.profits)
        W = on_grid(inst.weights, dw)
        P = on_grid(inst.profits, dp)
        n = len(W)
        lw = math.lcm(*[w for w in W if w])
        factors = tuple([lw // w if w else 0 for w in W])
        zero = [j for j in range(n) if W[j] == 0]
        rest = sorted([j for j in range(n) if W[j] != 0], key=lambda j: -P[j] * factors[j])
        order = tuple(zero + rest)
        rank = [0] * n
        for position, j in enumerate(order):
            rank[j] = position
        light = tuple(sorted(set(W)))
        fits = [0] * (len(light) + 1)
        for j in range(n):  # fits[k] first gets the items of the k-th lightest weight
            fits[bisect_right(light, W[j])] |= 1 << rank[j]
        for k in range(1, len(fits)):
            fits[k] |= fits[k - 1]
        return cls(
            dp, W, P, on_grid(inst.capacities, dw), lw, factors, order, tuple(rank), light,
            tuple(fits), (1 << len(zero)) - 1,
        )

    def mask(self, items: Iterable[int]) -> int:
        """The mask of a set of item ids."""
        rank = self.rank
        mask = 0
        for j in items:
            mask |= 1 << rank[j]
        return mask


@dataclass(frozen=True)
class DantzigSolution:
    """Fractional optimum of the relaxation plus its integer rounding.

    Values are integer sums on the grid the kernel ran on (profits over Dp,
    weights over Dw). first_live is the first live item in unit-profit
    order (the mask's lowest set bit), None when none is live. The optimal
    point is not built: first_split is the first live item with a
    coordinate strictly between 0 and 1 (an overlap with one knapsack
    strictly between 0 and its weight), None when the point is integral.
    The point's profit is (line_profit + P_j * inside / W_j) / Dp:
    line_profit is the profit of the items inside the capacity line, and
    split = (j, inside) is the item crossing the end of the line with its
    weight inside it (None: no item crosses it). best_critical is the most
    profitable critical item (ties to the lowest item id). int_assignment
    is the rounded integer solution x' and int_profit its profit: the floor
    completed by first fit, unless a critical item alone is worth at least
    as much (then that item, in the first knapsack that fits it).
    """

    first_live: int | None
    first_split: int | None
    line_profit: int
    split: tuple[int, int] | None
    best_critical: int | None
    int_assignment: Mapping[int, int]
    int_profit: int

    @property
    def fractional(self) -> bool:
        """Whether the optimal point has a coordinate strictly between 0 and 1."""
        return self.first_split is not None


def dantzig_solve(grid: KnapsackGrid, live: int, caps: Sequence[int]) -> DantzigSolution:
    """Solve the fractional relaxation of a sub-problem on `grid`.

    `live` is the mask (`KnapsackGrid.mask`) of the live items, which must
    have positive weight (else ValueError), and `caps` the capacities,
    integers on the grid's weight scale (`grid.capacities` for the whole
    instance). The kernel walks the set bits lowest first, which is
    unit-profit order, and stops at the end of the capacity line.
    """
    W, P, order = grid.weights, grid.profits, grid.order
    zero = live & grid.zero_mask
    if zero:
        j = order[(zero & -zero).bit_length() - 1]
        raise ValueError(f"item {j} has zero weight: fix it before bounding")

    # Segment k of the merged capacity line is [lows[k], highs[k]).
    m = len(caps)
    lows: list[int] = []
    highs: list[int] = []
    total = 0
    for c in caps:
        lows.append(total)
        total += c
        highs.append(total)

    floor: list[tuple[int, int]] = []  # items inside one segment, then first fit's
    placed = 0  # the mask of the items inside one segment
    room = list(caps)  # the floor's residual caps
    criticals: list[int] = []
    floor_profit = line_profit = 0
    split = None  # (item, weight inside the line) of the item across its end
    first_split = None
    first_live = order[(live & -live).bit_length() - 1] if live else None
    cursor = seg = crossed = 0  # crossed: boundaries the cursor has passed
    rest = live
    # past the end of the line (crossed == m) are only later items
    while rest and crossed < m:
        low = rest & -rest
        rest ^= low
        j = order[low.bit_length() - 1]
        w = W[j]
        start = cursor
        end = cursor = start + w
        k = seg
        while k < m:
            lo = lows[k]
            if lo >= end:
                break
            hi = highs[k]
            overlap = (end if end < hi else hi) - (start if start > lo else lo)
            if overlap == w:
                floor.append((j, k))
                placed |= low
                room[k] -= w
                floor_profit += P[j]
            elif overlap > 0 and first_split is None:
                first_split = j
            if hi > end:
                break
            k += 1
        seg = k
        if end <= total:
            line_profit += P[j]
        elif start < total:
            split = (j, total - start)
        while crossed < m and highs[crossed] < end:
            # The critical item of knapsack k is the first item ending past
            # its boundary.
            if not criticals or criticals[-1] != j:
                criticals.append(j)
            crossed += 1

    best_critical = None
    for s in criticals:
        if best_critical is None or P[s] > P[best_critical] or (
            P[s] == P[best_critical] and s < best_critical
        ):
            best_critical = s

    # Complete the floor by first fit: the live items it left out, in
    # unit-profit order, each into the first knapsack with room. Only items
    # as light as the largest residual cap can still fit.
    light, fits = grid.light, grid.fits
    rest = live & ~placed & fits[bisect_right(light, max(room, default=0))]
    while rest:
        low = rest & -rest
        rest ^= low
        j = order[low.bit_length() - 1]
        w = W[j]
        for k in range(m):
            if w <= room[k]:
                room[k] -= w
                floor.append((j, k))
                floor_profit += P[j]
                rest &= fits[bisect_right(light, max(room))]
                break

    # Candidates: each critical item alone in the first knapsack that fits
    # it, then the completed floor; the first of the most profitable wins.
    chosen = None
    for s in criticals:
        if chosen is None or P[s] > P[chosen[0]]:
            w = W[s]
            for k in range(m):
                if w <= caps[k]:
                    chosen = (s, k)
                    break
    if chosen is None or floor_profit > P[chosen[0]]:
        int_assignment = dict(floor)
        int_profit = floor_profit
    else:
        int_assignment = {chosen[0]: chosen[1]}
        int_profit = P[chosen[0]]

    return DantzigSolution(
        first_live, first_split, line_profit, split, best_critical, int_assignment, int_profit
    )


def pick_pivot(sol: DantzigSolution, rule: str) -> int | None:
    """Select the branching item under CE, PPW or K; None when none exists."""
    if rule == "CE":
        return sol.best_critical
    if rule == "PPW":
        return sol.first_split
    if rule == "K":
        return sol.first_live
    raise ValueError(f"unknown branching rule {rule!r}")


def branch_children(grid: KnapsackGrid, state: _NodeState) -> list[_NodeState]:
    """The children of a bounded node: its pivot fixed into each knapsack
    it fits, then excluded.

    state's pivot is its `pick_pivot` choice (None raises ValueError); every
    child's live mask is state's usable mask with the pivot's bit cleared.
    Inclusion children that would overfill their knapsack are dropped here,
    so every child's caps stay non-negative; the exclusion child, the last
    one and the right turn, always survives. An inclusion child's chain
    links (pivot, knapsack) to state's.
    """
    pivot, caps, fixed_profit, chain = state.pivot, state.caps, state.fixed_profit, state.chain
    if pivot is None:
        raise ValueError("no eligible pivot: node is integral, caller should have stopped")
    w = grid.weights[pivot]
    included_profit = fixed_profit + grid.profits[pivot]
    rest = state.usable & ~(1 << grid.rank[pivot])
    children = [
        _NodeState(rest, caps[:k] + (c - w,) + caps[k + 1:], included_profit, (pivot, k, chain))
        for k, c in enumerate(caps)
        if w <= c
    ]
    children.append(_NodeState(rest, caps, fixed_profit, chain))
    return children


@dataclass(slots=True)
class _NodeState:
    """A node's sub-problem: the mask of its live items, its caps and
    fixed_profit on the adapter's grid, and its fixed items as a chain
    (item, knapsack, parent), zero weights first. `bound` sets usable (the
    live items that fit some knapsack) and, unless the node is a leaf, the
    pivot to branch on."""

    alive: int
    caps: tuple[int, ...]
    fixed_profit: int
    chain: Chain
    pivot: int | None = None
    usable: int = 0


class KnapsackAdapter(BaseAdapter):
    """Engine adapter: surrogate/Dantzig bounds, CE/PPW/K branching.

    Bounds are ints in units of 1/bound_scale, bound_scale = Dp * Lw (see
    the module docstring).
    """

    sense = Sense.MAX
    tracks_turns = True

    def __init__(self, inst: KnapsackInstance, branching: str = "CE"):
        if branching not in ("CE", "PPW", "K"):
            raise ValueError(f"unknown branching rule {branching!r}")
        self.inst = inst
        self.branching = branching
        self.grid = KnapsackGrid.build(inst)
        self.bound_scale = self.grid.p_scale * self.grid.lw

    def root_payload(self) -> _NodeState:
        grid = self.grid
        W = grid.weights
        free = [j for j in range(self.inst.n) if W[j] == 0]
        chain = None
        for j in free:
            chain = (j, 0, chain)
        alive = grid.mask([j for j in range(self.inst.n) if W[j] != 0])
        return _NodeState(alive, grid.capacities, sum(grid.profits[j] for j in free), chain)

    def bound(self, state: _NodeState) -> BoundInfo:
        grid = self.grid
        usable = state.usable = state.alive & grid.fits[bisect_right(grid.light, max(state.caps))]
        sol = dantzig_solve(grid, usable, state.caps)
        if sol.fractional:
            state.pivot = pick_pivot(sol, self.branching)
        lw = grid.lw
        rounded = sol.int_profit * lw
        sub = sol.line_profit * lw
        if sol.split is not None:
            j, inside = sol.split
            sub += grid.profits[j] * inside * grid.factors[j]
        self._check_rounding_guarantees(sol, sub, rounded)
        fixed = state.fixed_profit * lw
        # every solution's profit is a multiple of lw: floor the bound to it
        return BoundInfo(
            fixed + rounded, fixed + sub - sub % lw, (state.chain, sol.int_assignment),
            not sol.fractional,
        )

    def _check_rounding_guarantees(self, sol: DantzigSolution, sub: int, rounded: int) -> None:
        # Every usable item fits somewhere, which makes both inequalities
        # guaranteed; a violation is a solver bug. sub and rounded are the
        # relaxation's and the rounding's profit on the bound scale.
        m = self.inst.m
        if (m + 1) * rounded < sub:
            raise AdapterContractError(
                f"(m+1)-approximation violated: {m + 1} * {self._in_units(rounded)} "
                f"< {self._in_units(sub)}"
            )
        if sol.best_critical is not None and sub > 0:
            p_star = self.grid.profits[sol.best_critical] * self.grid.lw
            # neither (m+1) p* >= sub nor m p* + int >= sub
            if (m + 1) * p_star < sub and m * p_star + rounded < sub:
                raise AdapterContractError(
                    f"critical-item profit bound violated: p* = {self._in_units(p_star)}, "
                    f"sub = {self._in_units(sub)}, int = {self._in_units(rounded)}"
                )

    def _in_units(self, value: int) -> Rat:
        return Fraction(value, self.bound_scale)

    def branch(self, node: Node) -> list[_NodeState]:
        return branch_children(self.grid, node.payload)


def run_knapsack(
    inst: KnapsackInstance, alpha: Rat, strategy: Strategy, node_limit: int | None
) -> tuple[RunResult, None]:
    """Run the alpha-scheme; returns the run, its solution in the instance's
    item labels, and no scale."""
    adapter = KnapsackAdapter(inst, branching=strategy.branching)
    criterion = Criterion("ratio-alpha", alpha)
    # through the module, so a wrapper installed on engine.run sees the call
    return engine.run(adapter, strategy.selection, criterion, node_limit=node_limit), None
