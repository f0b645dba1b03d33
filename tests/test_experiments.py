import json

import pytest

from bnbapprox.cli import main
from bnbapprox.engine import Selection, Strategy
from bnbapprox.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    format_summary_table,
    hub_direction_warnings,
    read_rows,
    run_experiment,
    summarize,
)
from bnbapprox.rational import rat


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


def test_config_json_roundtrip():
    cfg = _small_knapsack_cfg()
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again.to_json_dict() == cfg.to_json_dict()


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
    cfg = _small_knapsack_cfg(instances_per_pair=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_json_dict()))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(read_rows(str(out))) == 9


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


def test_cli_exit_codes(tmp_path):
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


@pytest.mark.parametrize("selection", ["BestFirst", "DFS", "BFS"])
def test_cli_unrelated_solve_matches_library(tmp_path, selection):
    from bnbapprox.instances import load_instance
    from bnbapprox.scheduling import scheme_depth_cap, solve_unrelated

    inst_path = tmp_path / "sched.json"
    assert main(["generate", "--kind", "scheduling-unrelated", "--n", "7", "--m", "3",
                 "--seed", "24", "--out", str(inst_path)]) == 0
    inst = load_instance(str(inst_path))
    for bounding, rounding, depth_cap in (("BS", "AS", False), ("LR", "BM", True)):
        out_path = tmp_path / f"{bounding}.json"
        args = ["solve", "--instance", str(inst_path), "--algorithm", "unrelated",
                "--eps", "1/100", "--selection", selection, "--bounding", bounding,
                "--rounding", rounding, "--node-limit", "300", "--out", str(out_path)]
        assert main(args + (["--bfs-depth-cap"] if depth_cap else [])) == 0
        result = solve_unrelated(
            inst, rat(1, 100), Selection(selection), bounding, rounding, node_limit=300,
            depth_cap=scheme_depth_cap(inst.m, rat(1, 100)) if depth_cap else None,
        ).result
        assert result.nodes_explored > 10
        expected = result.to_json_dict()
        expected["algorithm"] = "unrelated"
        expected["assignment"] = {str(j): i for j, i in sorted(result.best_solution.items())}
        assert json.loads(out_path.read_text()) == expected
