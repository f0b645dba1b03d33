import json

import pytest

from bnbapprox.cli import build_parser, main
from bnbapprox.engine import Selection, Strategy
from bnbapprox.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _oracle_value,
    format_summary_table,
    hub_direction_warnings,
    read_rows,
    run_experiment,
    summarize,
)
from bnbapprox.instances import load_instance
from bnbapprox.oracle import DEFAULT_BUDGET
from bnbapprox.rational import format_rat, rat


def _small_knapsack_cfg(**kwargs):
    defaults = dict(
        kind="knapsack",
        pairs=[(5, 2)],
        ratios=[rat(9, 10)],
        instances_per_pair=3,
        base_seed=77,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope", pairs=[(3, 2)], ratios=[rat(1, 2)])
    with pytest.raises(ConfigError):
        _small_knapsack_cfg(pairs=[])
    with pytest.raises(ConfigError):
        _small_knapsack_cfg(ratios=[rat(3, 2)])  # alpha must be < 1
    with pytest.raises(ConfigError):
        _small_knapsack_cfg(strategies=[])
    with pytest.raises(ConfigError):
        _small_knapsack_cfg(strategies=[Strategy(Selection.DFS, "MMP", "BS", "AS")])
    # every count is an int of at least 1, base_seed an int, a pair two such
    # ints, and a bool is no int; the message names the key
    base = {"kind": "knapsack", "pairs": [[5, 2]], "ratios": ["9/10"]}
    for key, value in (
        ("jobs", "x"), ("jobs", -3), ("jobs", 0), ("jobs", True), ("node_limit", 2.5),
        ("node_limit", 0), ("instances_per_pair", False), ("instances_per_pair", "3"),
        ("oracle_budget", "a"), ("oracle_budget", 1.0), ("base_seed", 1.5),
        ("base_seed", "7"), ("base_seed", None), ("pairs", [[5, 2.0]]), ("pairs", [[5, 0]]),
        ("pairs", [[5, 2, 1]]), ("pairs", [[True, 2]]), ("node_limt", 10),
    ):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json_dict({**base, key: value})
    with pytest.raises(ConfigError, match="malformed"):
        ExperimentConfig.from_json_dict({**base, "pairs": [5]})
    with pytest.raises(ConfigError, match="lacks kind, pairs, ratios"):
        ExperimentConfig.from_json_dict({})
    ExperimentConfig.from_json_dict({**base, "base_seed": -4, "jobs": 2})


def test_config_json_roundtrip():
    # the JSON form names the fields; omitted keys take the dataclass defaults
    cfg = ExperimentConfig.from_json_dict(json.loads(
        '{"kind": "knapsack", "pairs": [[5, 2]], "ratios": ["9/10"],'
        ' "instances_per_pair": 3, "base_seed": 77}'
    ))
    assert cfg == _small_knapsack_cfg()
    cfg = ExperimentConfig.from_json_dict(json.loads(
        '{"kind": "scheduling-unrelated", "pairs": [[4, 2], [6, 3]], "ratios": ["1/4", "1"],'
        ' "instances_per_pair": 2, "base_seed": 5, "node_limit": 50, "oracle_budget": 9,'
        ' "jobs": 2, "strategies": [["DFS", "MMP", "LR", "BM"], ["BestFirst", "MMP", "BS", "AS"]]}'
    ))
    assert cfg == ExperimentConfig(
        kind="scheduling-unrelated", pairs=[(4, 2), (6, 3)], ratios=[rat(1, 4), rat(1)],
        instances_per_pair=2, base_seed=5, node_limit=50, oracle_budget=9, jobs=2,
        strategies=[Strategy(Selection.DFS, "MMP", "LR", "BM"),
                    Strategy(Selection.BEST_FIRST, "MMP", "BS", "AS")],
    )


def test_run_experiment_schema_and_counts(tmp_path):
    cfg = _small_knapsack_cfg()
    out = tmp_path / "rows.csv"
    rows = run_experiment(cfg, str(out))
    assert len(rows) == 3 * 1 * 9  # instances x ratios x strategies
    assert all(list(r.keys()) == CSV_COLUMNS for r in rows)
    loaded = read_rows(str(out))
    assert len(loaded) == len(rows)
    assert list(loaded[0].keys()) == CSV_COLUMNS


def test_run_experiment_deterministic_modulo_time():
    cfg = _small_knapsack_cfg()
    rows_a = run_experiment(cfg)
    rows_b = run_experiment(cfg)

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert strip(rows_a) == strip(rows_b)


def test_gap_fills_when_oracle_affordable():
    cfg = _small_knapsack_cfg()
    rows = run_experiment(cfg)
    assert all(r["gap"] != "" for r in rows)
    # ratio-met runs respect the certified guarantee
    for r in rows:
        if r["termination"] == "ratio-met":
            from bnbapprox.rational import parse_rat

            assert parse_rat(str(r["gap"])) <= 1 - rat(9, 10) + rat(0)


def test_summarize_examples():
    base = {
        "kind": "knapsack", "n": 5, "m": 2, "ratio": "9/10",
        "selection": "HUB", "branching": "CE", "bounding": "Surrogate",
        "rounding": "Dantzig", "gap": "0", "termination": "ratio-met",
    }
    single = [dict(base, nodes_explored=16)]
    out = summarize(single)
    assert float(out[0]["geomean_nodes"]) == pytest.approx(16.0)
    two = [dict(base, nodes_explored=4), dict(base, nodes_explored=16)]
    out = summarize(two)
    assert float(out[0]["geomean_nodes"]) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        summarize([])


def test_direction_warnings_shape():
    rows = []
    for sel, nodes in (("HUB", 4), ("DFS", 2), ("BFS", 8)):
        rows.append({
            "kind": "knapsack", "n": 5, "m": 2, "ratio": "9/10",
            "selection": sel, "branching": "CE", "bounding": "Surrogate",
            "rounding": "Dantzig", "nodes_explored": nodes, "gap": "",
            "termination": "ratio-met",
        })
    warnings = hub_direction_warnings(summarize(rows))
    assert len(warnings) == 1 and "DFS" in warnings[0]
    table = format_summary_table(summarize(rows))
    assert "geomean_nodes" in table


def test_scheduling_experiment_small():
    cfg = ExperimentConfig(
        kind="scheduling-unrelated",
        pairs=[(4, 2)],
        ratios=[rat(1, 4)],
        instances_per_pair=2,
        base_seed=5,
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 12
    assert all(r["left_turns"] == "" for r in rows)
    assert all(r["bounding"] in ("BS", "LR") for r in rows)


def test_scheduling_small_instances_reach_near_optimum():
    # at (5, 2) with a tight tolerance, every strategy's gap stays within it
    from bnbapprox.rational import parse_rat

    eps = rat(1, 100)
    cfg = ExperimentConfig(
        kind="scheduling-unrelated",
        pairs=[(5, 2)],
        ratios=[eps],
        instances_per_pair=5,
        base_seed=31,
    )
    rows = run_experiment(cfg)
    for row in rows:
        assert row["gap"] != ""
        assert parse_rat(str(row["gap"])) <= eps


def test_parallel_matches_serial():
    cfg = _small_knapsack_cfg()
    serial = run_experiment(cfg)
    cfg_par = _small_knapsack_cfg(jobs=2)
    parallel = run_experiment(cfg_par)

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert strip(serial) == strip(parallel)


# --- CLI ---------------------------------------------------------------


def test_cli_generate_solve_oracle_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--kind", "knapsack", "--n", "6", "--m", "2",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    out_path = tmp_path / "res.json"
    assert main(["solve", "--instance", str(inst_path), "--algorithm", "knapsack",
                 "--alpha", "9/10", "--selection", "HUB", "--out", str(out_path)]) == 0
    res = json.loads(out_path.read_text())
    assert res["termination"] in ("ratio-met", "frontier-empty")
    orc_path = tmp_path / "orc.json"
    assert main(["oracle", "--instance", str(inst_path), "--out", str(orc_path)]) == 0
    orc = json.loads(orc_path.read_text())
    from bnbapprox.rational import parse_rat

    assert parse_rat(res["best_value"]) >= rat(9, 10) * parse_rat(orc["optimum"]) or \
        res["termination"] != "ratio-met"


def test_cli_scheduling_algorithms(tmp_path):
    for kind, algo in [
        ("scheduling-unrelated", "unrelated"),
        ("scheduling-uniform", "uniform"),
        ("scheduling-identical", "identical"),
    ]:
        inst_path = tmp_path / f"{kind}.json"
        assert main(["generate", "--kind", kind, "--n", "5", "--m", "2",
                     "--seed", "8", "--out", str(inst_path)]) == 0
        out_path = tmp_path / f"{algo}.json"
        assert main(["solve", "--instance", str(inst_path), "--algorithm", algo,
                     "--eps", "1/2", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["termination"] in ("ratio-met", "frontier-empty", "node-limit")


def test_cli_experiment_and_summarize(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main([
        "experiment", "--kind", "knapsack", "--pairs", "5x2",
        "--ratios", "9/10", "--instances-per-pair", "2", "--base-seed", "4",
        "--out", str(csv_path),
    ])
    assert code == 0
    assert main(["summarize", "--results", str(csv_path),
                 "--out", str(tmp_path / "summary.csv")]) == 0
    captured = capsys.readouterr()
    assert "geomean_nodes" in captured.out


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"kind": "knapsack", "pairs": [[5, 2]], "ratios": ["9/10"],'
                        ' "instances_per_pair": 1, "base_seed": 77}')
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert len(rows) == 9 and {r["kind"] for r in rows} == {"knapsack"}
    # a flag that is given overrides the key of its name
    assert main(["experiment", "--config", str(cfg_path), "--kind", "scheduling-unrelated",
                 "--pairs", "4x2", "--base-seed", "5", "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert len(rows) == 12
    assert {(r["kind"], r["n"], r["seed"]) for r in rows} == {("scheduling-unrelated", "4", "5")}


def test_cli_bfs_depth_cap_and_lr_bounding(tmp_path):
    inst_path = tmp_path / "sched.json"
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "6", "--m", "2",
                 "--seed", "12", "--out", str(inst_path)]) == 0
    out_path = tmp_path / "res.json"
    assert main(["solve", "--instance", str(inst_path), "--algorithm", "unrelated",
                 "--eps", "1", "--selection", "BFS", "--bfs-depth-cap",
                 "--bounding", "LR", "--rounding", "BM", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["max_depth"] <= 4  # floor(m^2/eps)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", "--instance", str(bad), "--algorithm", "knapsack"]) == 2
    # oracle budget exceeded -> exit 3
    inst_path = tmp_path / "big.json"
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "9", "--m", "3",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    assert main(["oracle", "--instance", str(inst_path), "--budget", "10"]) == 3
    # wrong algorithm for the instance kind -> validation error
    assert main(["solve", "--instance", str(inst_path), "--algorithm", "knapsack"]) == 2
    # a number where an instance file needs a "num/den" string
    bad.write_text('{"kind": "knapsack", "weights": [1], "profits": ["1"], "capacities": ["2"]}')
    assert main(["solve", "--instance", str(bad), "--algorithm", "knapsack"]) == 2
    # a sweep config that is a JSON array, not an object
    config = tmp_path / "config.json"
    config.write_text("[]")
    capsys.readouterr()
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    # a key with a value of the wrong type or range, or an unknown key
    for key, value in (("jobs", '"x"'), ("node_limit", "2.5"), ("base_seed", "1.5"),
                       ("oracle_budget", '"a"'), ("node_limt", "10")):
        config.write_text('{"kind": "knapsack", "pairs": [[5, 2]], "ratios": ["9/10"],'
                          f' "instances_per_pair": 1, "{key}": {value}}}')
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert key in capsys.readouterr().err
    assert main(["experiment", "--kind", "knapsack", "--pairs", "5x2", "--ratios", "9/10",
                 "--jobs", "-3", "--out", str(tmp_path / "o.csv")]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    # a results CSV without the columns summarize reads
    results = tmp_path / "results.csv"
    results.write_text("kind,n,m\nknapsack,5,2\n")
    assert main(["summarize", "--results", str(results)]) == 2
    assert "lack the columns ratio, selection" in capsys.readouterr().err


def test_oracle_answers_instances_of_any_depth(tmp_path, capsys):
    # neither search recurses, so depth meets no limit: only the budget
    for n, optimum in ((1000, 416), (1500, 703)):
        inst_path = tmp_path / f"knap{n}.json"
        assert main(["generate", "--kind", "knapsack", "--n", str(n), "--m", "1",
                     "--seed", "1", "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert main(["oracle", "--instance", str(inst_path)]) == 0
        assert json.loads(capsys.readouterr().out)["optimum"] == str(optimum)
    assert _oracle_value(load_instance(str(inst_path)), ExperimentConfig.oracle_budget) == 703
    inst_path = tmp_path / "sched.json"
    assert main(["generate", "--kind", "scheduling-identical", "--n", "1200", "--m", "2",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--instance", str(inst_path), "--budget", "2000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: scheduling search passed 2000 nodes") and "Traceback" not in err


def test_cli_oracle_budget_default_and_range(tmp_path, capsys):
    assert build_parser().parse_args(["oracle", "--instance", "x"]).budget == DEFAULT_BUDGET
    inst_path = tmp_path / "knap.json"
    assert main(["generate", "--kind", "knapsack", "--n", "5", "--m", "2",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    for budget in ("-1", "0"):
        assert main(["oracle", "--instance", str(inst_path), f"--budget={budget}"]) == 2
        assert "budget must be an int of at least 1" in capsys.readouterr().err


def test_cli_rejects_eps_out_of_range(tmp_path):
    inst_path = tmp_path / "sched.json"
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "5", "--m", "2",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    for eps in ("-1", "0"):
        for extra in ([], ["--selection", "BFS", "--bfs-depth-cap"]):
            assert main(["solve", "--instance", str(inst_path), "--algorithm", "unrelated",
                         f"--eps={eps}", *extra]) == 2


def test_cli_rejects_alpha_out_of_range(tmp_path):
    inst_path = tmp_path / "knap.json"
    assert main(["generate", "--kind", "knapsack", "--n", "6", "--m", "2",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    for alpha in ("3/2", "1", "0", "-1/2"):
        assert main(["solve", "--instance", str(inst_path), "--algorithm", "knapsack",
                     f"--alpha={alpha}"]) == 2


def test_cli_rejects_the_ratio_flag_the_algorithm_does_not_read(tmp_path, capsys):
    knap, sched = tmp_path / "knap.json", tmp_path / "sched.json"
    assert main(["generate", "--kind", "knapsack", "--n", "6", "--m", "2",
                 "--seed", "3", "--out", str(knap)]) == 0
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "5", "--m", "2",
                 "--seed", "3", "--out", str(sched)]) == 0
    capsys.readouterr()
    assert main(["solve", "--instance", str(knap), "--algorithm", "knapsack",
                 "--eps", "1/2"]) == 2
    assert "knapsack takes no --eps" in capsys.readouterr().err
    assert main(["solve", "--instance", str(sched), "--algorithm", "unrelated",
                 "--alpha", "2"]) == 2
    assert "unrelated takes no --alpha" in capsys.readouterr().err
    # each family still falls back to its own default when its flag is absent
    for path, algorithm, ratio in ((knap, "knapsack", "9/10"), (sched, "unrelated", "1/10")):
        out = tmp_path / f"{algorithm}.json"
        assert main(["solve", "--instance", str(path), "--algorithm", algorithm,
                     "--out", str(out)]) == 0
        flag = "--alpha" if algorithm == "knapsack" else "--eps"
        explicit = tmp_path / f"{algorithm}-explicit.json"
        assert main(["solve", "--instance", str(path), "--algorithm", algorithm,
                     flag, ratio, "--out", str(explicit)]) == 0
        assert out.read_text() == explicit.read_text()


def _library_payload(algorithm, result, assignment, outcome=None):
    # the CLI's JSON keys: the run's counters, the algorithm and the
    # assignment, plus makespan, bound and scale for the normalizing profile
    # schemes (the run's own value and bound are in normalized units)
    expected = result.to_json_dict()
    expected["algorithm"] = algorithm
    expected["assignment"] = {str(j): i for j, i in sorted(assignment.items())}
    if outcome is not None:
        expected["makespan"] = format_rat(outcome.makespan)
        expected["bound"] = format_rat(outcome.bound)
        expected["scale"] = format_rat(outcome.scale)
        assert outcome.bound == result.global_bound * outcome.scale <= outcome.makespan
    return expected


@pytest.mark.parametrize("selection", ["BestFirst", "DFS", "BFS"])
def test_cli_unrelated_solve_matches_library(tmp_path, selection):
    # one CLI solve per algorithm equals its library entry point, key for key
    from bnbapprox.engine import Criterion, run
    from bnbapprox.instances import load_instance
    from bnbapprox.knapsack import KnapsackAdapter
    from bnbapprox.profiles import solve_identical, solve_uniform
    from bnbapprox.scheduling import scheme_depth_cap, solve_unrelated

    sel = Selection(selection)
    eps = rat(1, 100)

    def knapsack(inst):
        adapter = KnapsackAdapter(inst, branching="PPW")
        result = run(adapter, sel, Criterion("ratio-alpha", rat(99, 100)), node_limit=300)
        return _library_payload("knapsack", result, result.best_solution)

    def unrelated(bounding, rounding, depth_cap):
        def call(inst):
            cap = scheme_depth_cap(inst.m, eps) if depth_cap else None
            out = solve_unrelated(inst, eps, sel, bounding, rounding, node_limit=300,
                                  depth_cap=cap)
            assert out.makespan == out.result.best_value
            return _library_payload("unrelated", out.result, out.assignment)
        return call

    def profile(algorithm, solver, ratio):
        def call(inst):
            out = solver(inst, ratio, sel, node_limit=300)
            return _library_payload(algorithm, out.result, out.assignment, out)
        return call

    cases = [
        ("knapsack", 14, 3, "knapsack", ["--alpha", "99/100", "--branching", "PPW"], knapsack),
        ("scheduling-unrelated", 8, 3, "unrelated",
         ["--eps", "1/100", "--bounding", "BS", "--rounding", "AS"], unrelated("BS", "AS", False)),
        ("scheduling-unrelated", 7, 3, "unrelated",
         ["--eps", "1/100", "--bounding", "LR", "--rounding", "BM", "--bfs-depth-cap"],
         unrelated("LR", "BM", True)),
        ("scheduling-uniform", 9, 3, "uniform", ["--eps", "1/20"],
         profile("uniform", solve_uniform, rat(1, 20))),
        ("scheduling-identical", 9, 3, "identical", ["--eps", "1/20"],
         profile("identical", solve_identical, rat(1, 20))),
        ("scheduling-identical", 9, 3, "identical", ["--eps", "3/2"],
         profile("identical", solve_identical, rat(3, 2))),
    ]
    for k, (kind, n, m, algorithm, flags, library) in enumerate(cases):
        inst_path = tmp_path / f"{kind}.json"
        assert main(["generate", "--kind", kind, "--n", str(n), "--m", str(m),
                     "--seed", "24", "--out", str(inst_path)]) == 0
        out_path = tmp_path / f"{k}.json"
        assert main(["solve", "--instance", str(inst_path), "--algorithm", algorithm,
                     "--selection", selection, "--node-limit", "300", *flags,
                     "--out", str(out_path)]) == 0
        expected = library(load_instance(str(inst_path)))
        if "3/2" not in flags:
            assert expected["nodes_explored"] > 10, (algorithm, flags)
        assert json.loads(out_path.read_text()) == expected


@pytest.mark.parametrize("kind", ["scheduling-uniform", "scheduling-identical"])
def test_profile_sweep_runs_the_kinds_own_scheme(kind):
    from bnbapprox.rational import parse_rat

    eps = rat(1, 10)
    cfg = ExperimentConfig(kind=kind, pairs=[(6, 2)], ratios=[eps], instances_per_pair=2,
                           base_seed=9)
    rows = run_experiment(cfg)
    # the 12 unrelated-scheme rows of each instance, then the profile scheme
    # under the three selections
    assert len(rows) == 2 * (12 + 3)
    for k in range(2):
        block = rows[15 * k: 15 * (k + 1)]
        assert [r["branching"] for r in block] == ["MMP"] * 12 + ["LJ"] * 3
        assert [r["selection"] for r in block[12:]] == ["LLB", "DFS", "BFS"]
        assert {(r["bounding"], r["rounding"]) for r in block[12:]} == {("BS", "LST-match")}
    certified = [r for r in rows if r["termination"] in ("ratio-met", "frontier-empty")]
    assert len([r for r in certified if r["branching"] == "LJ"]) == 6
    # the gap is taken against the oracle's optimum in instance units, so a
    # value left in normalized units (makespans near 1) would fail it
    for r in certified:
        assert r["gap"] != ""
        assert parse_rat(str(r["gap"])) <= (1 + eps) ** 2 - 1


def test_config_rejects_ratios_an_algorithm_cannot_take(tmp_path):
    # similarity pruning needs eps < 1; the unrelated scheme alone takes eps = 1
    with pytest.raises(ConfigError, match="below 1"):
        ExperimentConfig(kind="scheduling-uniform", pairs=[(4, 2)], ratios=[rat(1)])
    ExperimentConfig(kind="scheduling-uniform", pairs=[(4, 2)], ratios=[rat(1)],
                     strategies=[Strategy(Selection.DFS, "MMP", "BS", "AS")])
    ExperimentConfig(kind="scheduling-identical", pairs=[(4, 2)], ratios=[rat(1)])
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scheduling-unrelated", pairs=[(4, 2)], ratios=[rat(1, 2)],
                         strategies=[Strategy(Selection.DFS, "LJ", "BS", "LST-match")])
    assert main(["experiment", "--kind", "scheduling-uniform", "--pairs", "4x2",
                 "--ratios", "1/2,1", "--instances-per-pair", "1",
                 "--out", str(tmp_path / "rows.csv")]) == 2
    assert not (tmp_path / "rows.csv").exists()


def test_cli_rejects_node_limit_below_one(tmp_path):
    inst_path = tmp_path / "unrelated.json"
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "5", "--m", "2",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    args = ["solve", "--instance", str(inst_path), "--algorithm", "unrelated"]
    assert main(args + ["--node-limit", "1"]) == 0
    for limit in ("0", "-1"):
        assert main(args + ["--node-limit", limit]) == 2


def test_cli_rejects_depth_cap_where_unused(tmp_path):
    for kind, algorithm in (("knapsack", "knapsack"), ("scheduling-uniform", "uniform"),
                            ("scheduling-identical", "identical")):
        inst_path = tmp_path / f"{kind}.json"
        assert main(["generate", "--kind", kind, "--n", "5", "--m", "2",
                     "--seed", "3", "--out", str(inst_path)]) == 0
        ratio = "--alpha" if algorithm == "knapsack" else "--eps"
        args = ["solve", "--instance", str(inst_path), "--algorithm", algorithm, ratio, "1/2"]
        assert main(args) == 0
        assert main(args + ["--bfs-depth-cap"]) == 2
