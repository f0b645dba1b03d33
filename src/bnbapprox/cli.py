"""Command-line interface.

Subcommands: generate (write a random instance file), solve (run one
solver on one instance), oracle (exact optimum), experiment (strategy
sweep to CSV), summarize (geometric-mean summary of a sweep CSV).

Exit codes: 0 success, 2 validation error, 3 oracle budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .algorithms import ALGORITHMS, Algorithm, solve
from .engine import Selection, Strategy, StrategyError
from .experiments import (
    ConfigError,
    ExperimentConfig,
    format_summary_table,
    hub_direction_warnings,
    read_rows,
    run_experiment,
    summarize,
    write_summary,
)
from .instances import ALL_KINDS, InstanceError, generate, load_instance, save_instance
from .oracle import DEFAULT_BUDGET, OracleBudgetExceeded, exact_opt
from .rational import format_rat, parse_rat
from .scheduling import scheme_depth_cap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE_BUDGET = 3

_RATIO_DEFAULTS = {"alpha": "9/10", "eps": "1/10"}

_SELECTIONS = {
    "HUB": Selection.BEST_FIRST,
    "LLB": Selection.BEST_FIRST,
    "BestFirst": Selection.BEST_FIRST,
    "DFS": Selection.DFS,
    "BFS": Selection.BFS,
}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _strategy(algo: Algorithm, args: argparse.Namespace) -> Strategy:
    """The first strategy of the algorithm's row that has the selection and
    every tag given on the command line."""
    wanted = (_SELECTIONS[args.selection], args.branching, args.bounding, args.rounding)
    for s in algo.strategies:
        have = (s.selection, s.branching, s.bounding, s.rounding)
        if all(w is None or w == h for w, h in zip(wanted, have)):
            return s
    given = "/".join(w for w in wanted[1:] if w is not None)
    raise StrategyError(f"{algo.name} takes no strategy {given}")


def _ratio_flag(algo: Algorithm, args: argparse.Namespace) -> str:
    """The ratio flag the algorithm reads (--alpha for knapsack, --eps for
    the scheduling schemes) or its default; the other flag is rejected."""
    used, unused = ("alpha", "eps") if algo.criterion == "ratio-alpha" else ("eps", "alpha")
    if getattr(args, unused) is not None:
        raise ValueError(f"{algo.name} takes no --{unused}")
    value = getattr(args, used)
    return _RATIO_DEFAULTS[used] if value is None else value


def cmd_generate(args: argparse.Namespace) -> int:
    inst = generate(args.kind, args.n, args.m, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.kind} instance (n={args.n}, m={args.m}, seed={args.seed}) to {args.out}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    algo = ALGORITHMS[args.algorithm]
    ratio = parse_rat(_ratio_flag(algo, args))
    depth_cap = scheme_depth_cap(inst.m, ratio) if args.bfs_depth_cap else None
    outcome = solve(inst, algo.name, ratio, _strategy(algo, args), args.node_limit, depth_cap)
    payload = outcome.result.to_json_dict()
    payload["algorithm"] = algo.name
    payload["assignment"] = {str(j): i for j, i in sorted(outcome.assignment.items())}
    if outcome.scale is not None:
        payload["makespan"] = format_rat(outcome.value)
        payload["bound"] = format_rat(outcome.bound)
        payload["scale"] = format_rat(outcome.scale)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    res = exact_opt(inst, budget=args.budget)
    payload = {
        "optimum": format_rat(res.optimum),
        "method": res.method,
        "witness": {str(k): v for k, v in sorted(res.witness.items())},
    }
    _emit(payload, args.out)
    return EXIT_OK


def _parse_pairs(text: str) -> list[tuple[int, ...]]:
    """"5x2,10x2" as [(5, 2), (10, 2)]."""
    try:
        return [tuple(int(v) for v in part.split("x")) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad pairs {text!r}, want e.g. 5x2,10x2") from None


def cmd_experiment(args: argparse.Namespace) -> int:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if isinstance(data, dict):  # from_json_dict rejects anything else
        # each flag that is given overrides the config key of its name
        data.update((f.name, getattr(args, f.name)) for f in fields(ExperimentConfig)
                    if getattr(args, f.name, None) is not None)
    cfg = ExperimentConfig.from_json_dict(data)
    rows = run_experiment(cfg, args.out)
    print(f"wrote {len(rows)} result rows to {args.out}")
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    rows = read_rows(args.results)
    if not rows:
        raise ConfigError(f"no rows in {args.results}")
    summary = summarize(rows)
    if args.out:
        write_summary(summary, args.out)
    print(format_summary_table(summary))
    for warning in hub_direction_warnings(summary):
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnbapprox",
        description="Branch-and-bound solvers with approximation guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.add_argument("--kind", required=True, choices=ALL_KINDS)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--m", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    solve.add_argument("--alpha", default=None, help="knapsack target ratio; default 9/10")
    solve.add_argument("--eps", default=None, help="scheduling tolerance; default 1/10")
    solve.add_argument("--selection", default="BestFirst", choices=sorted(_SELECTIONS))
    solve.add_argument(
        "--branching", default=None, choices=["CE", "PPW", "K"], help="knapsack; default CE"
    )
    solve.add_argument(
        "--bounding", default=None, choices=["BS", "LR"], help="unrelated; default BS"
    )
    solve.add_argument(
        "--rounding", default=None, choices=["AS", "BM"], help="unrelated; default AS"
    )
    solve.add_argument("--node-limit", type=int, default=None)
    solve.add_argument(
        "--bfs-depth-cap",
        action="store_true",
        help="unrelated: cap branching depth at floor(m^2/eps) (BFS variant)",
    )
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=cmd_solve)

    orc = sub.add_parser("oracle", help="exact optimum of an instance")
    orc.add_argument("--instance", required=True)
    orc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    orc.add_argument("--out", default=None)
    orc.set_defaults(func=cmd_oracle)

    exp = sub.add_parser(
        "experiment", help="run a strategy sweep to CSV",
        description="Run a strategy sweep to CSV. The --config keys are the fields of "
        "ExperimentConfig; a flag that is given overrides the key of its name. An unknown "
        "key or a count that is not an int of at least 1 exits 2.",
    )
    exp.add_argument("--config", help="JSON config object")
    exp.add_argument("--kind", choices=ALL_KINDS)
    exp.add_argument("--pairs", type=_parse_pairs, help="e.g. 5x2,10x2,10x5")
    exp.add_argument("--ratios", type=lambda text: text.split(","), help="e.g. 1/10,1/2")
    for key in ("instances_per_pair", "base_seed", "node_limit", "jobs"):
        default = getattr(ExperimentConfig, key)
        exp.add_argument("--" + key.replace("_", "-"), type=int, help=f"default {default}")
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_experiment)

    summ = sub.add_parser("summarize", help="summarize a sweep CSV")
    summ.add_argument("--results", required=True)
    summ.add_argument("--out", default=None)
    summ.set_defaults(func=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_BUDGET
    except (InstanceError, ConfigError, StrategyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
