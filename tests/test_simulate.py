"""Unit tests for the closed-loop simulator and its output artifacts."""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gosman
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


# truth states as float.hex of run 1 below: a birth at step 1, then four survivals
PINNED_TRUTH = (
    ("0x1.b612bab8bedb0p+4", "0x1.1b97c4c1c7a81p+1", "0x1.641c8ddeb60f4p+5", "-0x1.68b242bea32d0p+2"),
    ("0x1.cc60497a8f204p+4", "0x1.1424599adf6e0p+1", "0x1.4ce568cc65e04p+5", "-0x1.85c44c02898dbp+2"),
    ("0x1.df880c7ff7802p+4", "0x1.03564cd4c3c4ep+1", "0x1.34fd3277f4a0ap+5", "-0x1.8525f1e6ee318p+2"),
    ("0x1.f105c7b6aff7bp+4", "0x1.4b50ca1ce0508p+1", "0x1.1fa5a2ca338aap+5", "-0x1.353f462852294p+2"),
)


def test_generate_truth_model_pinned_bits():
    raw = minimal_config()
    raw["duration"] = 5
    raw["motion"]["tau"] = 0.5   # F and Q away from tau = 1
    raw["motion"]["p_birth"] = 0.5
    truth = generate_truth(parse_config(raw), run=1)
    assert [len(x) for x in truth] == [0, 1, 1, 1, 1]
    assert tuple(tuple(v.hex() for v in x[0].tolist()) for x in truth[1:]) == PINNED_TRUTH


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
    # the loop hands planners the (r, mean, bx, by) floats of one Gaussian
    for _, (r, mean, bx, by) in calls:
        assert 0.0 < r <= 1.0 and len(mean) == 4 and len(bx) == len(by) == 3
        assert all(type(v) is float for v in (r, *mean, *bx, *by))


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
    assert doc["provenance"] == {"gosman": gosman.__version__, "numpy": np.__version__,
                                 "python": platform.python_version()}


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


_DECIDE_ONCE = """
import sys
import numpy as np
from gosman.bernoulli import BernoulliDensity
from gosman.config import load_config
from gosman.planners import make_policy, planning_belief

cfg = load_config(sys.argv[1])
env = cfg.planning_env()
belief = planning_belief(BernoulliDensity(0.6, np.array([1.0]), (env.motion.birth,)))
position = np.asarray(cfg.initial_position)
for spec in cfg.policies:
    make_policy({"name": spec.name, **spec.params}, env).plan(belief, position, (0, 0, 0))
print(sorted({cfg.policy.name} | {p.name for p in cfg.policies}))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_decisions_do_not_import_scipy():
    # the benchmark's setup_s and peak_rss_mb count every module a run
    # imports; scipy serves only the GOSPA assignment of sets larger than one
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _DECIDE_ONCE, str(root / "configs" / "obstacle.json")],
        env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["['gd', 'kl', 'mcts', 'ns']", "[]"]
