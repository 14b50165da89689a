"""Tests for the command line entry points and exit codes."""

import json

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
    assert doc["gospa"]["trace_block"] == "position"


def test_validate_bad_config_exits_1(tmp_path, capsys):
    raw = small_raw()
    raw["gospa"]["c"] = -1.0
    cfg = write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 1
    assert "config.gospa.c" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["--horizon", "0"], "--horizon: must be between 1 and 7, got 0"),
    (["--horizon", "8", "--budget", "10000"],
     "--horizon: must be between 1 and 7, got 8"),
    (["--budget", "0"], "--budget: must be >= 39, the tree size at horizon 3, got 0"),
    (["--budget", "11", "--horizon", "2"],
     "--budget: must be >= 12, the tree size at horizon 2, got 11"),
], ids=["negative-seed", "zero-horizon", "horizon-over-guard", "budget-below-tree",
        "budget-one-short"])
def test_oracle_rejects_invalid_flags(capsys, flags, message):
    assert main(["oracle"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def test_policy_pd_samples_is_rejected(tmp_path, capsys):
    # planning no longer samples its PD; only filter.pd_samples remains
    raw = small_raw()
    raw["policy"] = {"name": "mcts", "pd_samples": 3000}
    assert main(["validate", "--config", write_config(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == "config.policy: unknown keys: ['pd_samples']\n"


def test_oracle_small_horizon_passes(capsys):
    assert main(["oracle", "--budget", "15", "--horizon", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checked scenarios agree" in out
