"""Experiment harness: strategy sweeps, CSV emission, geometric-mean summaries.

One CSV row per (instance, ratio, strategy) run. A sweep over instances
of one kind runs the algorithms of SWEEPS for that kind, one after the
other: uniform and identical instances get the unrelated-machines matrix
and then their own profile scheme. All non-time columns are deterministic
for a fixed config. Values, bounds and gaps are in the instance's own
units. The optimality gap is filled when the oracle answers within its
budget, blank otherwise; gap geometric means add a documented 1e-9 offset
so zero gaps do not collapse the mean.

A sweep is one ExperimentConfig: its fields, their defaults and their
checks live there alone, and its JSON form (the CLI's --config file) is
an object keyed by the same field names.
"""
from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from . import oracle as oracle_mod
from .algorithms import ALGORITHMS, Algorithm, Outcome, solve
from .engine import Selection, Strategy
from .instances import ALL_KINDS, IDENTICAL, KNAPSACK, UNIFORM, UNRELATED, Instance, generate
from .rational import Rat, format_rat, parse_rat

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "CSV_COLUMNS",
    "GAP_OFFSET",
    "SWEEPS",
    "run_experiment",
    "summarize",
    "write_rows",
    "read_rows",
    "write_summary",
    "format_summary_table",
    "hub_direction_warnings",
]

CSV_COLUMNS = [
    "kind",
    "n",
    "m",
    "seed",
    "instance_index",
    "ratio",
    "selection",
    "branching",
    "bounding",
    "rounding",
    "best_value",
    "global_bound",
    "nodes_explored",
    "nodes_processed",
    "max_depth",
    "left_turns",
    "nodes_after_optimum",
    "gap",
    "termination",
    "wall_time_s",
]

GAP_OFFSET = 1e-9

# the algorithms a sweep over instances of each kind runs, in row order
SWEEPS = {
    KNAPSACK: ("knapsack",),
    UNRELATED: ("unrelated",),
    UNIFORM: ("unrelated", "uniform"),
    IDENTICAL: ("unrelated", "identical"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """One sweep; each field is a key of its JSON form (see from_json_dict)."""

    kind: str
    pairs: list[tuple[int, int]]
    ratios: list[Rat]
    instances_per_pair: int = 30
    base_seed: int = 20240101
    strategies: list[Strategy] | None = None
    node_limit: int = 10_000
    oracle_budget: int = oracle_mod.DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}")
        if not self.pairs:
            raise ConfigError("no (n, m) pairs configured")
        for pair in self.pairs:
            if len(pair) != 2 or not all(_is_int(v) and v >= 1 for v in pair):
                raise ConfigError(f"bad pair {pair!r} in pairs: need two ints of at least 1")
        for name in ("instances_per_pair", "node_limit", "oracle_budget", "jobs"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an int of at least 1, not {value!r}")
        if not _is_int(self.base_seed):
            raise ConfigError(f"base_seed must be an int, not {self.base_seed!r}")
        if not self.ratios:
            raise ConfigError("no alpha/epsilon values configured")
        if self.strategies is None:
            self.strategies = [
                s for name in SWEEPS[self.kind] for s in ALGORITHMS[name].strategies
            ]
        if not self.strategies:
            raise ConfigError("empty strategy matrix")
        for strat in self.strategies:
            algo = sweep_algorithm(self.kind, strat)
            for r in self.ratios:
                try:
                    algo.check_ratio(r)
                except ValueError as exc:
                    raise ConfigError(f"ratio {format_rat(r)}: {exc}") from exc

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """The config of a JSON object keyed by field name.

        kind, pairs and ratios are required; an omitted key takes the
        field's default, and an unknown key is a ConfigError. pairs holds
        [n, m] lists, ratios "num/den" strings, and strategies (null for
        the kind's whole matrix) [selection, branching, bounding, rounding]
        lists.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"experiment config must be a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown experiment config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"experiment config lacks {', '.join(missing)}")
        values = dict(data)
        try:
            values["pairs"] = [tuple(p) for p in data["pairs"]]
            values["ratios"] = [parse_rat(str(r)) for r in data["ratios"]]
            if data.get("strategies") is not None:
                values["strategies"] = [
                    Strategy(Selection(sel), br, bo, ro) for sel, br, bo, ro in data["strategies"]
                ]
            return cls(**values)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed experiment config: {exc}") from exc


def _oracle_value(inst: Instance, budget: int) -> Rat | None:
    """Exact optimum when the oracle answers within `budget`, else None
    (gap left blank)."""
    try:
        return oracle_mod.exact_opt(inst, budget).optimum
    except oracle_mod.OracleBudgetExceeded:
        return None


def sweep_algorithm(kind: str, strategy: Strategy) -> Algorithm:
    """The algorithm of a `kind` sweep whose row holds `strategy`."""
    for name in SWEEPS[kind]:
        if strategy in ALGORITHMS[name].strategies:
            return ALGORITHMS[name]
    tags = f"{strategy.branching}/{strategy.bounding}/{strategy.rounding}"
    raise ConfigError(f"strategy {tags} invalid for {kind}")


def _run_one(
    inst: Instance, kind: str, ratio: Rat, strategy: Strategy, node_limit: int
) -> tuple[Algorithm, Outcome, float]:
    algo = sweep_algorithm(kind, strategy)
    start = time.perf_counter()
    outcome = solve(inst, algo.name, ratio, strategy, node_limit)
    return algo, outcome, time.perf_counter() - start


def _instance_rows(cfg: ExperimentConfig, pair_index: int, instance_index: int) -> list[dict[str, Any]]:
    n, m = cfg.pairs[pair_index]
    seed = cfg.base_seed + pair_index * cfg.instances_per_pair + instance_index
    inst = generate(cfg.kind, n, m, seed)
    opt = _oracle_value(inst, cfg.oracle_budget)
    rows = []
    for ratio in cfg.ratios:
        for strategy in cfg.strategies:
            algo, outcome, elapsed = _run_one(inst, cfg.kind, ratio, strategy, cfg.node_limit)
            result = outcome.result
            gap = ""
            if opt is not None:
                gap = format_rat(oracle_mod.optimality_gap(outcome.value, opt))
            rows.append(
                {
                    "kind": cfg.kind,
                    "n": n,
                    "m": m,
                    "seed": seed,
                    "instance_index": instance_index,
                    "ratio": format_rat(ratio),
                    "selection": strategy.label(algo.sense),
                    "branching": strategy.branching,
                    "bounding": strategy.bounding,
                    "rounding": strategy.rounding,
                    "best_value": format_rat(outcome.value),
                    "global_bound": format_rat(outcome.bound),
                    "nodes_explored": result.nodes_explored,
                    "nodes_processed": result.nodes_processed,
                    "max_depth": result.max_depth,
                    "left_turns": "" if result.left_turn_max is None else result.left_turn_max,
                    "nodes_after_optimum": result.nodes_after_optimum,
                    "gap": gap,
                    "termination": result.termination,
                    "wall_time_s": f"{elapsed:.6f}",
                }
            )
    return rows


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> list[dict[str, Any]]:
    """Run the full sweep; rows come back in deterministic (pair, seed,
    ratio, strategy) order regardless of worker count."""
    pair_indices, instance_indices = zip(
        *[(p, i) for p in range(len(cfg.pairs)) for i in range(cfg.instances_per_pair)]
    )
    work = partial(_instance_rows, cfg)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(work, pair_indices, instance_indices))
    else:
        chunks = map(work, pair_indices, instance_indices)
    rows = [row for chunk in chunks for row in chunk]
    if out_path is not None:
        write_rows(rows, out_path)
    return rows


def write_rows(rows: Iterable[Mapping[str, Any]], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


_GROUP_KEY = ("kind", "n", "m", "ratio", "selection", "branching", "bounding", "rounding")

SUMMARY_COLUMNS = [
    *_GROUP_KEY,
    "runs",
    "geomean_nodes",
    "geomean_gap_offset",
    "ratio_met",
    "node_limited",
]


def summarize(rows: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Per-group geometric means (nodes; gap with +1e-9 offset) and counts."""
    if not rows:
        raise ValueError("no result rows to summarize")
    missing = [k for k in (*_GROUP_KEY, "nodes_explored", "gap", "termination") if k not in rows[0]]
    if missing:
        raise ConfigError(f"result rows lack the columns {', '.join(missing)}")
    groups: dict[tuple, list[Mapping[str, Any]]] = {}
    for row in rows:
        key = tuple(str(row[k]) for k in _GROUP_KEY)
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups):
        bucket = groups[key]
        logs = [math.log(int(r["nodes_explored"])) for r in bucket]
        geo_nodes = math.exp(sum(logs) / len(logs))
        gaps = [
            float(parse_rat(str(r["gap"]))) for r in bucket if str(r["gap"]) != ""
        ]
        geo_gap = ""
        if gaps:
            geo_gap = f"{math.exp(sum(math.log(g + GAP_OFFSET) for g in gaps) / len(gaps)):.9g}"
        summary = dict(zip(_GROUP_KEY, key))
        summary.update(
            {
                "runs": len(bucket),
                "geomean_nodes": f"{geo_nodes:.6g}",
                "geomean_gap_offset": geo_gap,
                "ratio_met": sum(1 for r in bucket if r["termination"] == "ratio-met"),
                "node_limited": sum(1 for r in bucket if r["termination"] == "node-limit"),
            }
        )
        out.append(summary)
    return out


def write_summary(summary: Sequence[Mapping[str, Any]], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# geomean_gap_offset adds {GAP_OFFSET} to every gap before averaging\n")
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary:
            writer.writerow(row)


def format_summary_table(summary: Sequence[Mapping[str, Any]]) -> str:
    widths = {c: max(len(c), *(len(str(r[c])) for r in summary)) for c in SUMMARY_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in SUMMARY_COLUMNS)]
    for row in summary:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in SUMMARY_COLUMNS))
    return "\n".join(lines)


def hub_direction_warnings(summary: Sequence[Mapping[str, Any]]) -> list[str]:
    """Expected-direction check: best-first should not explore more nodes
    (geometric mean) than DFS or BFS in otherwise identical knapsack groups.
    Violations are reported as warnings, never as failures."""
    warnings = []
    by_rest: dict[tuple, dict[str, float]] = {}
    for row in summary:
        if row["kind"] != KNAPSACK:
            continue
        rest = (row["n"], row["m"], row["ratio"], row["branching"], row["bounding"], row["rounding"])
        by_rest.setdefault(rest, {})[str(row["selection"])] = float(row["geomean_nodes"])
    for rest, sels in sorted(by_rest.items()):
        hub = sels.get("HUB")
        if hub is None:
            continue
        for other in ("DFS", "BFS"):
            val = sels.get(other)
            if val is not None and hub > val:
                warnings.append(
                    f"direction check: HUB geomean nodes {hub:.4g} > {other} {val:.4g} "
                    f"on knapsack group {rest}"
                )
    return warnings
