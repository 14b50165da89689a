"""Unit tests for configuration parsing and validation."""

import copy
import json

import pytest

from gosman.config import ConfigError, load_config, parse_config


def minimal_config():
    return {
        "schema_version": 1,
        "bounds": {"xmin": 0.0, "xmax": 100.0, "ymin": 0.0, "ymax": 100.0},
        "duration": 20,
        "motion": {"tau": 1.0, "q": 1.0, "p_survival": 0.99, "p_birth": 0.02,
                   "birth_mean": [50.0, 0.0, 50.0, 0.0],
                   "birth_cov_diag": [100.0, 25.0, 100.0, 25.0]},
        "sensor": {"fov_radius": 12.0, "step_size": 6.0, "num_actions": 4,
                   "p_detect": 0.9, "r_low": 10.0, "r_high": 50.0,
                   "initial_position": [50.0, 50.0]},
        "gospa": {"c": 20.0},
        "policy": {"name": "gd"},
        "mc_runs": 2,
        "seed": 7,
    }


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.clutter_rate == 1.0
    assert cfg.truth_mode == "model"
    assert cfg.obstacles == ()
    assert cfg.policy.label == "gd"


def test_clutter_intensity_is_rate_over_fov_area():
    cfg = parse_config(minimal_config())
    import numpy as np
    assert cfg.clutter_intensity == pytest.approx(1.0 / (np.pi * 144.0))


def test_resolved_round_trip():
    raw = minimal_config()
    raw["obstacles"] = [[[10.0, 10.0], [20.0, 10.0], [20.0, 20.0]]]
    raw["policies"] = [{"name": "ns"}, {"name": "mcts", "budget": 5}]
    raw["truth"] = {"mode": "scripted",
                    "episodes": [{"start": 2, "end": 12,
                                  "waypoints": [[10.0, 10.0], [30.0, 30.0]]}]}
    cfg = parse_config(raw)
    echo = cfg.resolved_dict()
    again = parse_config(copy.deepcopy(echo))
    assert again == cfg
    assert again.resolved_dict() == echo


def test_unknown_top_level_key_rejected():
    raw = minimal_config()
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys.*extra"):
        parse_config(raw)


def test_missing_section_names_field_path():
    raw = minimal_config()
    del raw["motion"]
    with pytest.raises(ConfigError, match="config.*motion"):
        parse_config(raw)


def test_bad_probability_names_field_path():
    raw = minimal_config()
    raw["motion"]["p_survival"] = 1.5
    with pytest.raises(ConfigError, match="config.motion.p_survival"):
        parse_config(raw)


def test_wrong_schema_version():
    raw = minimal_config()
    raw["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(raw)


def test_bool_is_not_a_number():
    raw = minimal_config()
    raw["motion"]["q"] = True
    with pytest.raises(ConfigError, match="config.motion.q"):
        parse_config(raw)


def test_unknown_policy_name():
    raw = minimal_config()
    raw["policy"] = {"name": "random"}
    with pytest.raises(ConfigError, match="unknown policy name"):
        parse_config(raw)


def test_policy_param_scoping():
    raw = minimal_config()
    raw["policy"] = {"name": "gd", "budget": 10}
    with pytest.raises(ConfigError, match="unknown keys.*budget"):
        parse_config(raw)


def test_mcts_default_label_includes_budget():
    raw = minimal_config()
    raw["policy"] = {"name": "mcts", "budget": 50}
    cfg = parse_config(raw)
    assert cfg.policy.label == "mcts-50"


def test_mcts_defaults_are_echoed():
    raw = minimal_config()
    raw["policy"] = {"name": "mcts", "horizon": 3}
    cfg = parse_config(raw)
    assert cfg.resolved_dict()["policy"] == {
        "name": "mcts", "label": "mcts-10", "horizon": 3, "discount": 0.7,
        "exploration": 0.05, "budget": 10}


def test_mcts_param_validation():
    raw = minimal_config()
    raw["policy"] = {"name": "mcts", "discount": 1.5}
    with pytest.raises(ConfigError, match="config.policy.discount"):
        parse_config(raw)


def test_obstacle_needs_three_vertices():
    raw = minimal_config()
    raw["obstacles"] = [[[0.0, 0.0], [1.0, 1.0]]]
    with pytest.raises(ConfigError, match=r"config.obstacles\[0\]"):
        parse_config(raw)


def test_scripted_episodes_must_not_overlap():
    raw = minimal_config()
    raw["truth"] = {"mode": "scripted", "episodes": [
        {"start": 0, "end": 10, "waypoints": [[1.0, 1.0]]},
        {"start": 5, "end": 15, "waypoints": [[2.0, 2.0]]},
    ]}
    with pytest.raises(ConfigError, match="overlap"):
        parse_config(raw)


def test_bad_truth_mode():
    raw = minimal_config()
    raw["truth"] = {"mode": "replay"}
    with pytest.raises(ConfigError, match="config.truth.mode"):
        parse_config(raw)


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_config()))
    cfg = load_config(path)
    assert cfg.duration == 20


def test_shipped_configs_parse():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    for name in ("configs/open.json", "configs/obstacle.json"):
        cfg = load_config(root / name)
        assert cfg.duration == 300
        assert cfg.mc_runs == 20
