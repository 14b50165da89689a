"""Unit tests for the closed-loop simulator and its output artifacts."""

import csv
import json

import numpy as np
import pytest

from gosman import simulate
from gosman.config import TruthEpisode, parse_config
from gosman.simulate import (generate_truth, run_batch, run_comparison,
                             run_episode, summarise, write_metrics_csv,
                             write_summary_json, _scripted_states)

from test_config import minimal_config


def small_config(**overrides):
    raw = minimal_config()
    raw["duration"] = 15
    raw["mc_runs"] = 2
    raw["policies"] = [{"name": "ns"}, {"name": "gd"}]
    raw.update(overrides)
    return parse_config(raw)


def test_scripted_states_equal_time_per_segment():
    ep = TruthEpisode(0, 11, ((0.0, 0.0), (10.0, 0.0), (10.0, 20.0)))
    states = _scripted_states(ep, tau=1.0)
    assert len(states) == 11
    assert states[0][[0, 2]] == pytest.approx([0.0, 0.0])
    assert states[5][[0, 2]] == pytest.approx([10.0, 0.0])
    assert states[-1][[0, 2]] == pytest.approx([10.0, 20.0])
    # second leg is twice as long, so twice as fast
    assert abs(states[1][1]) * 2 == pytest.approx(abs(states[6][3]), rel=1e-9)


def test_scripted_states_single_waypoint_is_stationary():
    ep = TruthEpisode(0, 5, ((3.0, 4.0),))
    states = _scripted_states(ep, tau=1.0)
    assert all(s[[0, 2]] == pytest.approx([3.0, 4.0]) for s in states)
    assert all(s[[1, 3]] == pytest.approx([0.0, 0.0]) for s in states)


def test_generate_truth_scripted_windows():
    cfg = small_config(truth={"mode": "scripted", "episodes": [
        {"start": 3, "end": 8, "waypoints": [[10.0, 10.0], [20.0, 20.0]]}]})
    truth = generate_truth(cfg, run=0)
    assert all(len(truth[t]) == 0 for t in range(3))
    assert all(len(truth[t]) == 1 for t in range(3, 8))
    assert all(len(truth[t]) == 0 for t in range(8, cfg.duration))


def test_generate_truth_model_reproducible():
    raw = minimal_config()
    raw["duration"] = 15
    raw["motion"]["p_birth"] = 0.5
    cfg = parse_config(raw)
    a = generate_truth(cfg, run=1)
    b = generate_truth(cfg, run=1)
    c = generate_truth(cfg, run=2)
    assert all(len(x) == len(y) for x, y in zip(a, b))
    for x, y in zip(a, b):
        if x:
            assert x[0] == pytest.approx(y[0])
    assert any(len(x) != len(y) or (x and not np.allclose(x[0], y[0]))
               for x, y in zip(a, c))


def test_run_episode_shape_and_determinism():
    cfg = small_config()
    m1 = run_episode(cfg, cfg.policy, run=0)
    m2 = run_episode(cfg, cfg.policy, run=0)
    assert len(m1.steps) == cfg.duration
    for s1, s2 in zip(m1.steps, m2.steps):
        assert s1.gospa.total_sq == s2.gospa.total_sq
        assert s1.action_id == s2.action_id
        assert s1.sensor_position == s2.sensor_position
    assert all(0.0 <= s.existence <= 1.0 for s in m1.steps)


def test_run_episode_plans_through_policy_attribute(monkeypatch):
    # callers may wrap the ``plan`` of the policy make_policy returns
    cfg = small_config()
    calls = []
    real_make_policy = simulate.make_policy

    def wrapping_make_policy(spec, env):
        policy = real_make_policy(spec, env)
        plan = policy.plan

        def recorded(belief, sensor_position, step_key):
            calls.append((step_key, belief))
            return plan(belief, sensor_position, step_key)

        policy.plan = recorded
        return policy

    monkeypatch.setattr(simulate, "make_policy", wrapping_make_policy)
    m = run_episode(cfg, cfg.policy, run=1)
    assert len(m.steps) == cfg.duration
    assert [k for k, _ in calls] == [(cfg.seed, 1, t) for t in range(cfg.duration)]
    # the loop hands planners the (r, mean, cov) arrays of one Gaussian
    for _, (r, mean, cov) in calls:
        assert 0.0 < r <= 1.0 and mean.shape == (4,) and cov.shape == (4, 4)


def test_sensor_moves_at_most_one_step():
    cfg = small_config()
    m = run_episode(cfg, cfg.policy, run=0)
    prev = np.asarray(cfg.initial_position)
    for s in m.steps:
        pos = np.asarray(s.sensor_position)
        assert np.linalg.norm(pos - prev) <= cfg.step_size + 1e-9
        assert cfg.bounds.contains(pos)
        prev = pos


def test_run_batch_parallel_matches_serial():
    cfg = small_config()
    serial = run_batch(cfg, parallel=0)
    para = run_batch(cfg, parallel=2)
    assert serial.rms.overall == pytest.approx(para.rms.overall, abs=1e-12)


def test_run_comparison_is_paired():
    cfg = small_config()
    batches = run_comparison(cfg)
    assert [b.label for b in batches] == ["ns", "gd"]
    # paired runs see identical ground truth, hence identical step counts
    assert all(len(b.runs) == cfg.mc_runs for b in batches)


def test_metrics_csv_layout(tmp_path):
    cfg = small_config()
    batches = run_comparison(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, batches)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["run", "step", "policy", "gospa_sq",
                                    "loc_sq", "missed_sq", "false_sq", "r",
                                    "sensor_x", "sensor_y", "truth_present",
                                    "est_present"]
    assert len(rows) == 2 * cfg.mc_runs * cfg.duration
    assert {r["policy"] for r in rows} == {"ns", "gd"}
    for r in rows[:40]:
        total = float(r["gospa_sq"])
        parts = sum(float(r[k]) for k in ("loc_sq", "missed_sq", "false_sq"))
        assert total == pytest.approx(parts, rel=1e-6, abs=1e-9)
        assert r["truth_present"] in ("0", "1")


def test_summary_json_contents(tmp_path):
    cfg = small_config()
    batches = run_comparison(cfg)
    path = tmp_path / "summary.json"
    write_summary_json(path, cfg, batches)
    doc = json.loads(path.read_text())
    assert set(doc["policies"]) == {"ns", "gd"}
    for entry in doc["policies"].values():
        assert entry["rms_gospa"] >= 0.0
        assert entry["mean_plan_seconds_per_step"] >= 0.0
        decomposed = (entry["rms_gospa_loc"] ** 2 + entry["rms_gospa_missed"] ** 2
                      + entry["rms_gospa_false"] ** 2)
        assert entry["rms_gospa"] ** 2 == pytest.approx(decomposed, rel=1e-6)
    assert doc["config"]["seed"] == cfg.seed


def test_summarise_matches_batch_rms():
    cfg = small_config()
    batch = run_batch(cfg)
    doc = summarise(cfg, [batch])
    assert doc["policies"][batch.label]["rms_gospa"] == pytest.approx(
        batch.rms.overall, rel=1e-9)


def test_run_episode_failure_is_chained(monkeypatch):
    cfg = small_config()

    def failing_update(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(simulate, "update", failing_update)
    with pytest.raises(RuntimeError, match=r"^policy gd, seed 7, run 0, step 0: "
                                           r"ValueError: boom$") as info:
        run_episode(cfg, cfg.policy, run=0)
    assert isinstance(info.value.__cause__, ValueError)
