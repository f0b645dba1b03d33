#!/usr/bin/env python3
"""Solver benchmark: time to a certified answer, end to end and per layer.

    python3 solverbench/run.py --workload knapsack-matrix --seed 1 --seconds 20 --trace 0
    python3 solverbench/run.py --workload all

Each workload runs in its own single-threaded worker process (see
worker.py), started from the checkout's ``src`` tree. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-solve outputs
and spans are written under ``solverbench/out/``; a run whose per-solve
outputs differ from an earlier run of the same code and seed is incorrect.

See README.md in this directory for the workloads and what each metric
should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("knapsack-matrix", "unrelated-sweep", "profile-schemes")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 160

END_TO_END_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "nodes_explored": "count",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.self_us_per_node": "us",
    "engine.nodes_processed": "count",
    "bound.calls": "count",
    "bound.ms_per_node": "ms",
    "bound.lp_solves_per_node": "count",
    "bound.bisection_steps_per_node": "count",
    "scheduling.min_feasible_T.self_s": "s",
    "scheduling.build_load_lp.self_s": "s",
    "scheduling.feasible_point.calls": "count",
    "scheduling.feasible_point.infeasible_ratio": "ratio",
    "scheduling.round_vertex.self_s": "s",
    "lp.solve_vertex.calls": "count",
    "lp.solve_vertex.self_s": "s",
    "lp.solve_vertex.us_p50": "us",
    "lp.pivot.calls": "count",
    "lp.pivot.self_s": "s",
    "lp.pivots_per_solve": "count",
    "knapsack.dantzig_solve.calls": "count",
    "knapsack.dantzig_solve.self_s": "s",
    "knapsack.dantzig_solve.us_p50": "us",
    "knapsack.branch.self_s": "s",
    "profiles.normalize.self_s": "s",
    "profiles.make_longest_fractional.calls": "count",
    "profiles.make_longest_fractional.self_s": "s",
    "profiles.admit.calls": "count",
    "profiles.admit.rejected_ratio": "ratio",
    "instances.generate.s": "s",
    "oracle.exact_opt.s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def _worker(workload: str, seed: int, mode: str, seconds: float = 0.0, spans: str | None = None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker passed {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _code_digest() -> str:
    """Hash of the solver and benchmark sources: runs of one code share it."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "bnbapprox").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _compare_with_earlier(workload: str, seed: int, solves: list, problems: list[str]) -> None:
    """Per-solve outputs must be identical across runs of the same code."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-{_code_digest()}.solves.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != solves:
            diff = sum(a != b for a, b in zip(earlier, solves)) + abs(len(earlier) - len(solves))
            problems.append(f"{diff} per-solve outputs differ from {path.name}")
        return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(solves))
    os.replace(tmp, path)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
        res = _worker(workload, seed, "trace", spans=str(spans))
        metrics = {name: _metric(res["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    else:
        res = _worker(workload, seed, "run", seconds=seconds)
        probes = [_worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        ms = [t * 1e3 for t in res["solve_s"]]
        values = {
            "setup_s": statistics.median(probes),
            "solves_per_s": len(ms) / (sum(ms) / 1e3),
            "solve_ms_p50": statistics.median(ms),
            "solve_ms_p90": statistics.quantiles(ms, n=10)[-1],
            "nodes_explored": res["nodes_explored"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    problems = list(res["problems"]) + list(res["errors"])
    _compare_with_earlier(workload, seed, res["solves"], problems)
    for line in problems:
        print(f"[{workload}] {line}", file=sys.stderr)
    return {
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "rounds": res["rounds"],
    }


def _print_table(workload: str, seed: int, result: dict) -> None:
    print(f"{workload} (seed {seed}): {result['attempted']} solves in {result['rounds']} "
          f"rounds, {result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bnbapprox" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC / 'bnbapprox'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_table(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
