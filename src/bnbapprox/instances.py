"""Problem instances: types, random generation, JSON file I/O.

Generation follows the experimental protocol: weights/profits/processing
times are uniform integers in [1, 100]; knapsack capacities are uniform
integers in [c_min, c_max] with c_min = min_j w_j and
c_max = ceil(sum(w)/n) - c_min (c_max clamped up to c_min when the range
would be empty); uniform-machine speeds are uniform integers in [1, 5]
(the speed range is a repo choice, recorded in instance metadata).

Capacities are redrawn up to 100 times until the largest capacity covers the
largest weight. When that is unattainable (typical for spread-out weights)
the final draw is kept and the never-fitting items are recorded in
meta["unusable_items"]; solvers drop such items, an exact oracle can never
pack them anyway.

File format: JSON with an explicit kind tag and all rationals in the
canonical "num/den" text form (see README for the schema).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .rational import Rat, format_rat, parse_rat, rat
from .rng import SplitMix64

FORMAT_TAG = "bnbapprox-instance-v1"

KNAPSACK = "knapsack"
UNRELATED = "scheduling-unrelated"
UNIFORM = "scheduling-uniform"
IDENTICAL = "scheduling-identical"

SCHEDULING_KINDS = (UNRELATED, UNIFORM, IDENTICAL)
ALL_KINDS = (KNAPSACK,) + SCHEDULING_KINDS


class InstanceError(ValueError):
    """Malformed instance data or violated type invariant."""


@dataclass(frozen=True)
class KnapsackInstance:
    weights: tuple[Rat, ...]
    profits: tuple[Rat, ...]
    capacities: tuple[Rat, ...]
    meta: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.profits):
            raise InstanceError("weights and profits must have equal length")
        if not self.capacities:
            raise InstanceError("need at least one knapsack")
        for w in self.weights:
            if w < 0:
                raise InstanceError("weights must be non-negative")
        for p in self.profits:
            if p <= 0:
                raise InstanceError("profits must be positive")
        for c in self.capacities:
            if c < 0:
                raise InstanceError("capacities must be non-negative")

    @property
    def kind(self) -> str:
        return KNAPSACK

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.capacities)


@dataclass(frozen=True)
class SchedulingInstance:
    kind: str
    processing: tuple[tuple[Rat, ...], ...]  # n rows (jobs) x m columns (machines)
    overheads: tuple[Rat, ...]
    base_times: tuple[Rat, ...] | None = None
    speeds: tuple[Rat, ...] | None = None
    meta: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in SCHEDULING_KINDS:
            raise InstanceError(f"unknown scheduling kind {self.kind!r}")
        if not self.processing:
            raise InstanceError("need at least one job")
        m = len(self.overheads)
        if m == 0:
            raise InstanceError("need at least one machine")
        for row in self.processing:
            if len(row) != m:
                raise InstanceError("processing matrix width must match machine count")
            for v in row:
                if v <= 0:
                    raise InstanceError("processing times must be positive")
        for t in self.overheads:
            if t < 0:
                raise InstanceError("overheads must be non-negative")
        if self.kind in (UNIFORM, IDENTICAL):
            if self.base_times is None or self.speeds is None:
                raise InstanceError(f"{self.kind} instances need base_times and speeds")
            if len(self.base_times) != len(self.processing):
                raise InstanceError("base_times length must match job count")
            if len(self.speeds) != m:
                raise InstanceError("speeds length must match machine count")
            if self.kind == IDENTICAL and any(s != 1 for s in self.speeds):
                raise InstanceError("identical machines require unit speeds")
            for j, row in enumerate(self.processing):
                for i, v in enumerate(row):
                    if v != self.base_times[j] / self.speeds[i]:
                        raise InstanceError(
                            f"processing[{j}][{i}] inconsistent with base time / speed"
                        )
        elif self.base_times is not None or self.speeds is not None:
            raise InstanceError("unrelated instances carry no base_times/speeds")

    @property
    def n(self) -> int:
        return len(self.processing)

    @property
    def m(self) -> int:
        return len(self.overheads)


Instance = KnapsackInstance | SchedulingInstance


def generate(kind: str, n: int, m: int, seed: int) -> Instance:
    """Generate a random instance; a pure function of (kind, n, m, seed)."""
    if kind not in ALL_KINDS:
        raise InstanceError(f"unknown kind {kind!r}")
    if n < 1 or m < 1:
        raise InstanceError("n and m must be at least 1")
    rng = SplitMix64(seed)
    if kind == KNAPSACK:
        return _generate_knapsack(n, m, seed, rng)
    return _generate_scheduling(kind, n, m, seed, rng)


def capacity_range(weights: Sequence[int]) -> tuple[int, int]:
    """Capacity sampling range: [min w, ceil(sum w / n) - min w], the upper
    end clamped up to the lower when the formula would empty the range."""
    c_min = min(weights)
    c_max = -(-sum(weights) // len(weights)) - c_min
    if c_max < c_min:
        c_max = c_min
    return c_min, c_max


def _generate_knapsack(n: int, m: int, seed: int, rng: SplitMix64) -> KnapsackInstance:
    weights = [rng.randint(1, 100) for _ in range(n)]
    profits = [rng.randint(1, 100) for _ in range(n)]
    c_min, c_max = capacity_range(weights)
    max_w = max(weights)
    caps = [rng.randint(c_min, c_max) for _ in range(m)]
    retries = 0
    while max(caps) < max_w and retries < 100:
        caps = [rng.randint(c_min, c_max) for _ in range(m)]
        retries += 1
    unusable = [j for j, w in enumerate(weights) if w > max(caps)]
    meta = {
        "seed": seed,
        "kind": KNAPSACK,
        "generator": "splitmix64-v1",
        "capacity_range": [c_min, c_max],
        "unusable_items": unusable,
    }
    return KnapsackInstance(
        weights=tuple(rat(w) for w in weights),
        profits=tuple(rat(p) for p in profits),
        capacities=tuple(rat(c) for c in caps),
        meta=meta,
    )


def _generate_scheduling(kind: str, n: int, m: int, seed: int, rng: SplitMix64) -> SchedulingInstance:
    meta: dict[str, Any] = {"seed": seed, "kind": kind, "generator": "splitmix64-v1"}
    zeros = tuple(rat(0) for _ in range(m))
    if kind == UNRELATED:
        processing = tuple(
            tuple(rat(rng.randint(1, 100)) for _ in range(m)) for _ in range(n)
        )
        return SchedulingInstance(kind, processing, zeros, meta=meta)
    base = tuple(rat(rng.randint(1, 100)) for _ in range(n))
    if kind == UNIFORM:
        speeds = tuple(rat(rng.randint(1, 5)) for _ in range(m))
        meta["speed_range"] = [1, 5]
    else:
        speeds = tuple(rat(1) for _ in range(m))
    processing = tuple(tuple(p / s for s in speeds) for p in base)
    return SchedulingInstance(kind, processing, zeros, base, speeds, meta=meta)


def to_json_dict(inst: Instance) -> dict:
    if isinstance(inst, KnapsackInstance):
        return {
            "format": FORMAT_TAG,
            "kind": KNAPSACK,
            "n": inst.n,
            "m": inst.m,
            "weights": [format_rat(w) for w in inst.weights],
            "profits": [format_rat(p) for p in inst.profits],
            "capacities": [format_rat(c) for c in inst.capacities],
            "meta": dict(inst.meta),
        }
    return {
        "format": FORMAT_TAG,
        "kind": inst.kind,
        "n": inst.n,
        "m": inst.m,
        "processing": [[format_rat(v) for v in row] for row in inst.processing],
        "overheads": [format_rat(t) for t in inst.overheads],
        "base_times": None
        if inst.base_times is None
        else [format_rat(p) for p in inst.base_times],
        "speeds": None if inst.speeds is None else [format_rat(s) for s in inst.speeds],
        "meta": dict(inst.meta),
    }


def _rats(values: Any, key: str) -> tuple[Rat, ...]:
    """A JSON array of "num/den" strings as rationals."""
    if not isinstance(values, list):
        raise InstanceError(f"{key} must be an array, not {values!r}")
    return tuple([parse_rat(v) for v in values])


def from_json_dict(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    kind = data.get("kind")
    try:
        if kind == KNAPSACK:
            inst: Instance = KnapsackInstance(
                weights=_rats(data["weights"], "weights"),
                profits=_rats(data["profits"], "profits"),
                capacities=_rats(data["capacities"], "capacities"),
                meta=data.get("meta", {}),
            )
        elif kind in SCHEDULING_KINDS:
            base = data.get("base_times")
            speeds = data.get("speeds")
            inst = SchedulingInstance(
                kind=kind,
                processing=tuple(_rats(row, "processing row") for row in data["processing"]),
                overheads=_rats(data["overheads"], "overheads"),
                base_times=None if base is None else _rats(base, "base_times"),
                speeds=None if speeds is None else _rats(speeds, "speeds"),
                meta=data.get("meta", {}),
            )
        else:
            raise InstanceError(f"unknown kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"malformed instance data: {exc}") from exc
    for dim, key in ((inst.n, "n"), (inst.m, "m")):
        if key in data and data[key] != dim:
            raise InstanceError(f"declared {key}={data[key]} but arrays imply {dim}")
    return inst


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    return from_json_dict(data)
