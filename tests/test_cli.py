"""Tests for the command line entry points and exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from gosman import cli
from gosman.cli import main

from test_config import minimal_config


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def small_raw():
    raw = minimal_config()
    raw["duration"] = 10
    raw["mc_runs"] = 2
    raw["policies"] = [{"name": "ns"}, {"name": "gd"}]
    return raw


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "resolved_config.json").exists()
    assert "rms gospa" in capsys.readouterr().out


def test_resolved_config_echo_round_trips(tmp_path):
    from gosman.config import load_config, parse_config
    cfg_path = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    echoed = json.loads((out / "resolved_config.json").read_text())
    assert parse_config(echoed) == load_config(cfg_path)


def test_run_missing_section_exits_1(tmp_path, capsys):
    raw = small_raw()
    del raw["motion"]
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "motion" in capsys.readouterr().err


def test_run_missing_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_run_seed_override_changes_resolved(tmp_path):
    cfg = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out), "--seed", "99"])
    doc = json.loads((out / "resolved_config.json").read_text())
    assert doc["seed"] == 99


def test_run_policy_override_by_name(tmp_path):
    cfg = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--policy", "ns", "--runs", "1"]) == 0
    doc = json.loads((out / "resolved_config.json").read_text())
    assert doc["policy"]["name"] == "ns"
    assert doc["mc_runs"] == 1


def test_run_unknown_policy_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--policy", "bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_policy_override_rejects_an_ambiguous_name(tmp_path, capsys):
    raw = small_raw()
    raw["policies"] = [{"name": "mcts", "budget": 3, "horizon": 2},
                       {"name": "mcts", "budget": 4, "horizon": 2}]
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--policy", "mcts", "--runs", "1"]) == 1
    assert capsys.readouterr().err == \
        "--policy: 'mcts' names 2 policies, give one label of mcts-3, mcts-4\n"
    assert not out.exists()
    # an exact label picks one
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--policy", "mcts-4", "--runs", "1"]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["policy"]["budget"] == 4


def test_policy_override_counts_a_repeated_block_once(tmp_path):
    raw = small_raw()
    raw["policy"] = {"name": "mcts", "budget": 3, "horizon": 2}
    raw["policies"] = [{"name": "ns"}, dict(raw["policy"])]
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--policy", "mcts", "--runs", "1"]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["policy"]["label"] == \
        "mcts-3"


def test_budget_and_lambda_overrides_apply_to_mcts(tmp_path):
    raw = small_raw()
    raw["policy"] = {"name": "mcts", "budget": 4, "horizon": 2}
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--budget", "2", "--lambda", "0.5", "--runs", "1"]) == 0
    doc = json.loads((out / "resolved_config.json").read_text())
    assert doc["policy"]["budget"] == 2
    assert doc["policy"]["discount"] == 0.5


def test_budget_override_relabels_default_mcts_label(tmp_path):
    raw = small_raw()
    raw["policy"] = {"name": "mcts", "label": "mcts-4", "budget": 4, "horizon": 2}
    raw["duration"] = 3
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--runs", "1",
                 "--budget", "3"]) == 0
    assert list(json.loads((out / "summary.json").read_text())["policies"]) == ["mcts-3"]
    rows = (out / "metrics.csv").read_text().splitlines()
    policy = rows[0].split(",").index("policy")
    assert {row.split(",")[policy] for row in rows[1:]} == {"mcts-3"}

    raw["policy"]["label"] = "deep"
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--out", str(out), "--runs", "1",
                 "--budget", "3"]) == 0
    assert list(json.loads((out / "summary.json").read_text())["policies"]) == ["deep"]


@pytest.mark.parametrize("override, message", [
    (["--runs", "0"], "config.mc_runs: must be >= 1, got 0"),
    (["--seed", "-1"], "config.seed: must be >= 0, got -1"),
    (["--budget", "0"], "config.policy.budget: must be >= 1, got 0"),
    (["--lambda", "1.5"], "config.policy.discount: must be <= 1.0, got 1.5"),
    (["--policy", "gd", "--budget", "3"], "config.policy: unknown keys: ['budget']"),
])
def test_overrides_are_validated(tmp_path, capsys, override, message):
    raw = small_raw()
    raw["policy"] = {"name": "mcts", "budget": 4, "horizon": 2}
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)] + override) == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_parallel_exits_1(tmp_path, capsys, command):
    cfg = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--parallel", "-5"]) == 1
    assert capsys.readouterr().err == "--parallel: must be >= 0, got -5\n"
    assert not out.exists()


def test_runtime_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing_batch(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "run_batch", failing_batch)
    cfg = write_config(tmp_path, small_raw())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "LinAlgError: singular matrix\n"


def test_compare_writes_combined_metrics(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "metrics.csv").read_text()
    assert ",ns," in text and ",gd," in text
    assert capsys.readouterr().out.count("rms gospa") == 2


TIMING_FIELDS = ("mean_plan_seconds_per_step", "total_plan_seconds", "wall_seconds")


def test_compare_summary_records_command_and_repeats(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    argv = ["compare", "--config", cfg, "--out", str(tmp_path / "out"), "--parallel", "2"]
    docs = []
    for _ in range(2):
        assert main(argv) == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        for entry in doc["policies"].values():
            for key in TIMING_FIELDS:
                assert entry.pop(key) >= 0.0
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
    provenance = json.loads(docs[0])["provenance"]
    assert provenance["argv"] == ["gosman", *argv]
    assert provenance["nproc"] == os.cpu_count()


def test_compare_requires_two_policies(tmp_path, capsys):
    raw = small_raw()
    raw["policies"] = [{"name": "ns"}]
    cfg = write_config(tmp_path, raw)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_validate_echoes_resolved_config(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    assert main(["validate", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1


def test_validate_applies_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    assert main(["validate", "--config", cfg, "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    # the override goes through the same validation as the file
    assert main(["validate", "--config", cfg, "--seed", "-1"]) == 1
    assert "config.seed" in capsys.readouterr().err


def test_validate_bad_config_exits_1(tmp_path, capsys):
    raw = small_raw()
    raw["gospa"]["c"] = -1.0
    cfg = write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 1
    assert "config.gospa.c" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["--horizon", "0"], "--horizon: must be between 1 and 7, got 0"),
    (["--horizon", "8"], "--horizon: must be between 1 and 7, got 8"),
], ids=["negative-seed", "zero-horizon", "horizon-over-guard"])
def test_oracle_rejects_invalid_flags(capsys, flags, message):
    assert main(["oracle"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


REMOVED_KEYS = [
    ("policy", "pd_samples", 3000),        # planning no longer samples its PD
    ("policy", "rollout", "exhaustive"),   # the tree search has one rollout
    ("policy", "rollout_depth", 10),       # the tree depth is the horizon
    ("gospa", "trace_block", "full"),      # the cost traces positions only
    ("sensor", "noise_classes", ["low", "high"]),  # the class follows the action id
    # the filter's sample count, mixture cap and pruning weight are constants
    (None, "filter", {"prune": 1e-4, "max_components": 10, "pd_samples": 1000}),
]


@pytest.mark.parametrize("block, key, value", REMOVED_KEYS,
                         ids=[key if block is None else f"{block}.{key}"
                              for block, key, _ in REMOVED_KEYS])
def test_removed_keys_are_rejected(tmp_path, capsys, block, key, value):
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                      "obstacle.json").read_text())
    (raw if block is None else raw[block])[key] = value
    where = "config" if block is None else f"config.{block}"
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    for argv in (["validate", "--config", cfg],
                 ["run", "--config", cfg, "--out", str(out), "--runs", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"{where}: unknown keys: ['{key}']\n"
    assert not out.exists()


def test_oracle_takes_no_config(tmp_path, capsys):
    # the oracle runs built-in scenarios; a --config is a rejected command
    # line, which exits 1 like any invalid input
    assert main(["oracle", "--config", str(tmp_path / "missing.json")]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_rejected_command_line_exits_1_and_help_0(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 1
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["run", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_oracle_small_horizon_passes(capsys):
    assert main(["oracle", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checked scenarios agree" in out


def test_oracle_has_no_budget_flag(capsys):
    # the check expands the whole tree, so it sizes the budget itself
    assert main(["oracle", "--budget", "200"]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --budget 200" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("parallel", ["0", "2"])
def test_episode_failure_names_seed_run_step_and_policy(tmp_path, capsys, monkeypatch,
                                                         parallel):
    from gosman import simulate
    real_make_policy = simulate.make_policy

    def failing_make_policy(spec, env):
        policy = real_make_policy(spec, env)
        plan = policy.plan

        def failing_plan(predicted, sensor_position, step_key):
            if step_key[1:] == (1, 4):
                raise np.linalg.LinAlgError("singular matrix")
            return plan(predicted, sensor_position, step_key)

        policy.plan = failing_plan
        return policy

    # pool workers are forked, so they inherit the patched module
    monkeypatch.setattr(simulate, "make_policy", failing_make_policy)
    raw = small_raw()
    cfg = write_config(tmp_path, raw)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--parallel", parallel]) == 2
    assert capsys.readouterr().err == (
        f"RuntimeError: policy {raw['policy']['name']}, seed {raw['seed']}, run 1, "
        f"step 4: LinAlgError: singular matrix\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("block, key, value, message", [
    ("sensor", "fov_radius", float("inf"), "config.sensor.fov_radius: must be finite, got inf"),
    ("motion", "birth_mean", [float("nan"), 0.0, 50.0, 0.0],
     "config.motion.birth_mean[0]: must be finite, got nan"),
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, block, key, value, message):
    raw = small_raw()
    raw[block][key] = value
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "o"
    args = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert not out.exists()


def test_compare_matches_golden_metrics(tmp_path):
    # the file holds this command's output from before the planning kernel
    # moved to plain arrays; a change meant to leave results alone keeps it
    root = Path(__file__).resolve().parent
    raw = json.loads((root.parent / "configs" / "obstacle.json").read_text())
    raw["duration"] = 40
    raw["mc_runs"] = 1
    mcts = [p for p in raw["policies"] if p["name"] == "mcts"][0]
    raw["policies"] = [{"name": "gd"}, {"name": "kl"}, mcts]
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    golden = root / "data" / "golden_obstacle_metrics.csv"
    assert (out / "metrics.csv").read_bytes() == golden.read_bytes()


def test_compare_matches_golden_open_metrics(tmp_path):
    # model truth (motion and birth draws) and dense clutter, pinned byte for
    # byte from before the filter moved to per-axis blocks
    root = Path(__file__).resolve().parent
    raw = json.loads((root.parent / "configs" / "open.json").read_text())
    raw.update(duration=100, mc_runs=2, clutter_rate=1.0,
               policies=[{"name": "ns"}, {"name": "gd"}])
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    golden = root / "data" / "golden_open_metrics.csv"
    assert (out / "metrics.csv").read_bytes() == golden.read_bytes()
