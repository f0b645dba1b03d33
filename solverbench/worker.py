"""One workload in one process: set up, time the solves, check the answers.

Run by ``run.py``; prints one JSON object as its last line. Modes:

  setup  import bnbapprox and generate the instances, report the time;
  run    repeat whole rounds of the workload's solves until --seconds have
         passed, timing each solve from outside the program;
  trace  the round untraced, under the span tracer, and untraced again;
         the oracle that backs the checks is traced too.

The loop is closed: each solve starts when the previous one returns.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import time

_T0 = time.perf_counter()


def _setup(name: str, seed: int, tracer=None):
    """Import the solver and build the workload; returns (workload, seconds)."""
    import workloads  # imports bnbapprox

    if tracer is not None:
        tracer.install()
    try:
        work = workloads.WORKLOADS[name](seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return work, time.perf_counter() - _T0


def _round(work, tracer=None):
    """Run every operation once; returns (records, errors, seconds per solve)."""
    records, errors, times = [], [], []
    clock = time.perf_counter
    for k, op in enumerate(work.operations):
        if tracer is not None:
            tracer.solve = k
        start = clock()
        try:
            record = op.call()
        except Exception as exc:  # a solver fault fails this solve, not the run
            record = None
            errors.append(f"solve {k} ({op.strategy}): {type(exc).__name__}: {exc}")
        times.append(clock() - start)
        records.append(record)
    return records, errors, times


def _optima(work, problems: list[str]):
    """Exact optimum of every instance, computed outside the timed solves."""
    from bnbapprox import oracle

    optima = []
    for k, inst in enumerate(work.instances):
        try:
            optima.append(oracle.exact_opt(inst).optimum)
        except oracle.OracleBudgetExceeded as exc:
            problems.append(f"instance {k}: oracle could not answer ({exc})")
            optima.append(None)
    return optima


def _check(work, rounds, optima, problems: list[str]) -> tuple[int, int]:
    """Check every solve of every round; returns (attempted, failed).

    Later rounds must repeat the first round's deterministic outputs.
    """
    import checks

    attempted = failed = 0
    first = [None if r is None else r.deterministic() for r in rounds[0]]
    for index, records in enumerate(rounds):
        for k, (op, record) in enumerate(zip(work.operations, records)):
            attempted += 1
            if record is None:
                failed += 1
                continue
            optimum = optima[op.instance]
            found = checks.solve_problems(op, work.instances[op.instance], record, optimum) \
                if optimum is not None else ["no optimum to compare with"]
            if found:
                failed += 1
                if index == 0:
                    problems.extend(f"solve {k} ({op.strategy}): {p}" for p in found)
            if index and record.deterministic() != first[k]:
                problems.append(f"round {index} solve {k} ({op.strategy}) differs from round 0")
    return attempted, failed


def _summary(work, rounds, errors, times, setup_s):
    problems: list[str] = []
    optima = _optima(work, problems)
    attempted, failed = _check(work, rounds, optima, problems)
    return {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "problems": problems[:20],
        "solve_s": times,
        "solves": [None if r is None else r.deterministic() for r in rounds[0]],
        "nodes_explored": sum(r.nodes_explored for r in rounds[0] if r is not None),
        "nodes_processed": sum(r.nodes_processed for r in rounds[0] if r is not None),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace mode: write the spans here")
    args = parser.parse_args()

    if args.mode == "setup":
        _, setup_s = _setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return

    if args.mode == "run":
        work, setup_s = _setup(args.workload, args.seed)
        gc.collect()
        rounds, errors, times = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            records, errs, ts = _round(work)
            rounds.append(records)
            errors += errs
            times += [t for t, r in zip(ts, records) if r is not None]
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = _summary(work, rounds, errors, times, setup_s)
        out["peak_rss_mb"] = peak_rss_kb / 1024
        print(json.dumps(out))
        return

    import tracing

    tracer = tracing.Tracer()
    work, setup_s = _setup(args.workload, args.seed, tracer)

    def timed_round(traced: bool):
        gc.collect()
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            records, errors, times = _round(work, tracer if traced else None)
            return records, errors, times, time.perf_counter() - start
        finally:
            tracer.uninstall()

    # untraced rounds before and after the traced one, so that warm-up and
    # drift fall on both sides of the overhead ratio
    before, errors, _, before_s = timed_round(False)
    traced, traced_errors, times, traced_s = timed_round(True)
    after, after_errors, _, after_s = timed_round(False)
    tracer.solve = None
    tracer.install()
    try:
        out = _summary(work, [before, traced, after], errors + traced_errors + after_errors,
                       times, setup_s)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, out["nodes_explored"], out["nodes_processed"])
    layers["trace.overhead_ratio"] = traced_s / ((before_s + after_s) / 2)
    out["layers"] = layers
    if args.spans:
        tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
