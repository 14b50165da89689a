"""Unit tests for the planning policies and the tree search."""

import numpy as np
import pytest

from gosman import planners
from gosman.bernoulli import BernoulliDensity, Gaussian, ncv_motion_model
from gosman.planners import (PlannerConfig, PlanningEnv, TreeNode, backpropagate,
                             evaluate_action, exhaustive_bellman,
                             kl_bernoulli_gaussian, kl_plan, make_policy,
                             mcts_search, myopic_plan, nearest_sensor_plan,
                             planning_belief, uct_select)
from gosman.sensors import Bounds, ObstacleMap

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def _env(num_actions=4):
    motion = ncv_motion_model(1.0, 2.0, 0.99, 0.05,
                              np.array([25.0, 0.0, 25.0, 0.0]),
                              np.diag([200.0, 25.0, 200.0, 25.0]))
    return PlanningEnv(motion=motion, obstacles=ObstacleMap(),
                       bounds=Bounds(0.0, 100.0, 0.0, 100.0),
                       fov_radius=12.0, step_size=6.0, num_actions=num_actions,
                       p_detect=0.9, H=H2, r_low=10.0, r_high=50.0, c=20.0)


def _belief(r=0.7, mean=(30.0, 0.5, 30.0, -0.5)):
    return r, np.array(mean), np.diag([80.0, 16.0, 80.0, 16.0])


def test_evaluate_action_cost_matches_components():
    env = _env()
    pred = _belief()
    action = env.actions_from(np.array([30.0, 30.0]))[0]
    detect_covs = {}
    cost, (r, mean, cov) = evaluate_action(env, pred, action, detect_covs)
    assert cost >= 0.0
    assert 0.0 <= r <= 1.0 and mean.shape == (4,) and cov.shape == (4, 4)
    assert list(detect_covs) == [action.noise_class]
    # a pure function of belief and action, with or without the memo
    again, merged_again = evaluate_action(env, pred, action, {})
    assert again == cost and merged_again[0] == r
    assert np.array_equal(merged_again[2], cov)


def test_planning_belief_requires_single_component():
    g = Gaussian(np.zeros(4), np.eye(4))
    mixture = BernoulliDensity(0.5, np.array([0.5, 0.5]), (g, g))
    with pytest.raises(ValueError):
        planning_belief(mixture)
    r, mean, cov = planning_belief(BernoulliDensity(0.5, np.array([1.0]), (g,)))
    assert r == 0.5 and mean is g.mean and cov is g.cov


def test_exhaustive_bellman_prefers_covering_action():
    env = _env()
    pred = _belief(r=0.8)
    # sensor east of the target: moving west (action id 2) points at it
    action, value = exhaustive_bellman(pred, np.array([40.0, 30.0]), env,
                                       horizon=2, discount=0.7)
    assert action.id == 2
    assert value > 0.0


def test_actions_enumerated_once_per_position_per_decision(monkeypatch):
    from gosman import planners
    seen = []
    real = planners.enumerate_actions

    def counting(sensor, *args):
        seen.append(tuple(sensor.position))
        return real(sensor, *args)

    monkeypatch.setattr(planners, "enumerate_actions", counting)
    env = _env()
    pred = _belief()
    pos = np.array([35.0, 30.0])
    cfg = PlannerConfig(horizon=4, discount=0.7, budget=15)
    for decide in (lambda: mcts_search(pred, pos, env, cfg, base_key=(3,)),
                   lambda: exhaustive_bellman(pred, pos, env, 3, 0.7)):
        seen.clear()
        decide()
        first = len(seen)
        assert first > 1 and first == len(set(seen))
        # nothing is kept from one decision to the next
        decide()
        assert len(seen) == 2 * first


def test_exhaustive_bellman_guard():
    env = _env(num_actions=6)
    with pytest.raises(ValueError):
        exhaustive_bellman(_belief(), np.array([50.0, 50.0]), env,
                           horizon=12, discount=0.7)


@pytest.mark.parametrize("horizon", [6, 10])
def test_mcts_exhaustive_rollout_guard(monkeypatch, horizon):
    # six actions allow an exhaustive horizon of 5; the search refuses a
    # longer one before it evaluates a single action
    env = _env(num_actions=6)
    monkeypatch.setattr(planners, "evaluate_action", None)
    cfg = PlannerConfig(horizon=horizon, rollout="exhaustive")
    with pytest.raises(ValueError, match="too large to enumerate"):
        mcts_search(_belief(), np.array([50.0, 50.0]), env, cfg)


def test_myopic_is_horizon_one_bellman():
    env = _env()
    pred = _belief()
    pos = np.array([40.0, 30.0])
    a = myopic_plan(pred, pos, env)
    b, _ = exhaustive_bellman(pred, pos, env, horizon=1, discount=0.0)
    assert a.id == b.id


def test_mcts_matches_oracle_with_exhausting_budget():
    env = _env(num_actions=3)
    pred = _belief()
    pos = np.array([30.0, 30.0])
    horizon = 2
    oracle_action, oracle_value = exhaustive_bellman(pred, pos, env, horizon, 0.7)
    n = len(env.actions_from(pos))
    budget = sum(n ** d for d in range(1, horizon + 1))
    cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget,
                        rollout="exhaustive")
    result = mcts_search(pred, pos, env, cfg, base_key=(11,))
    assert result.action.id == oracle_action.id
    assert -result.value == pytest.approx(oracle_value, abs=1e-9)


def test_mcts_matches_oracle_on_a_nonzero_optimum():
    # sensor north of the target: the optimum moves south, action id 3, so a
    # search that fell back to the lowest id would fail here
    env = _env()
    pred = _belief(r=0.8)
    pos = np.array([30.0, 40.0])
    horizon = 3
    oracle_action, oracle_value = exhaustive_bellman(pred, pos, env, horizon, 0.7)
    assert oracle_action.id == 3
    n = len(env.actions_from(pos))
    budget = sum(n ** d for d in range(1, horizon + 1))
    cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget,
                        rollout="exhaustive")
    for key in ((17,), (18,), (19,)):
        result = mcts_search(pred, pos, env, cfg, base_key=key)
        assert result.action.id == oracle_action.id
        assert -result.value == pytest.approx(oracle_value, abs=1e-9)


def test_mcts_zero_discount_matches_myopic():
    env = _env()
    pred = _belief()
    pos = np.array([40.0, 30.0])
    cfg = PlannerConfig(horizon=5, discount=0.0, budget=10)
    a = mcts_search(pred, pos, env, cfg, base_key=(13,)).action
    b = myopic_plan(pred, pos, env)
    assert a.id == b.id


def test_mcts_deterministic_for_fixed_key():
    env = _env()
    pred = _belief()
    pos = np.array([35.0, 30.0])
    cfg = PlannerConfig(horizon=4, discount=0.7, budget=15)
    r1 = mcts_search(pred, pos, env, cfg, base_key=(21, 0, 7))
    r2 = mcts_search(pred, pos, env, cfg, base_key=(21, 0, 7))
    assert r1.action.id == r2.action.id
    assert r1.value == r2.value


def test_mcts_budget_counts_expansions():
    env = _env()
    pred = _belief()
    cfg = PlannerConfig(horizon=4, discount=0.7, budget=7)
    result = mcts_search(pred, np.array([35.0, 30.0]), env, cfg, base_key=(3,))

    def count(node):
        return 1 + sum(count(ch) for ch in node.children)

    assert count(result.root) == 1 + 7
    assert result.root.visits == 7


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(horizon=0)
    with pytest.raises(ValueError):
        PlannerConfig(discount=1.5)
    with pytest.raises(ValueError):
        PlannerConfig(exploration=-0.1)
    with pytest.raises(ValueError, match="rollout"):
        PlannerConfig(rollout="exhastive")


def test_backpropagate_rules():
    root = TreeNode(None, None, 0, np.zeros(2), None, 0.0, [])
    child = TreeNode(None, root, 1, np.zeros(2), None, 1.0, [])
    root.children.append(child)
    backpropagate(child, -2.0)
    backpropagate(child, -4.0)
    assert child.mean_reward == pytest.approx(-3.0)
    assert child.visits == 2 and root.visits == 2

    other = TreeNode(None, None, 1, np.zeros(2), None, 1.0, [])
    backpropagate(other, -5.0, rule="max")
    backpropagate(other, -1.0, rule="max")
    backpropagate(other, -9.0, rule="max")
    assert other.mean_reward == pytest.approx(-1.0)


def test_uct_prefers_unvisited_balance():
    root = TreeNode(None, None, 0, np.zeros(2), None, 0.0, [])
    for i, (reward, visits) in enumerate([(-1.0, 10), (-1.0, 1)]):
        ch = TreeNode(type("A", (), {"id": i})(), root, 1, np.zeros(2), None,
                      0.0, [])
        ch.mean_reward = reward
        ch.visits = visits
        root.children.append(ch)
    root.visits = 11
    # equal means: the exploration term favours the rarely visited child
    assert uct_select(root, exploration=1.0).action.id == 1
    # zero exploration with equal means: tie broken by lowest id
    assert uct_select(root, exploration=0.0).action.id == 0


def test_nearest_sensor_moves_towards_mean():
    env = _env()
    pred = _belief(mean=(10.0, 0.0, 30.0, 0.0))
    action = nearest_sensor_plan(pred, np.array([40.0, 30.0]), env)
    assert action.id == 2  # west


def test_kl_zero_for_identical():
    g = Gaussian(np.zeros(4), np.diag([4.0, 1.0, 4.0, 1.0]))
    assert kl_bernoulli_gaussian(0.6, g, 0.6, g) == pytest.approx(0.0, abs=1e-12)


def test_kl_positive_and_grows_with_separation():
    g0 = Gaussian(np.zeros(4), np.diag([4.0, 1.0, 4.0, 1.0]))
    g1 = Gaussian(np.array([1.0, 0.0, 0.0, 0.0]), np.diag([4.0, 1.0, 4.0, 1.0]))
    g2 = Gaussian(np.array([3.0, 0.0, 0.0, 0.0]), np.diag([4.0, 1.0, 4.0, 1.0]))
    k1 = kl_bernoulli_gaussian(0.5, g1, 0.5, g0)
    k2 = kl_bernoulli_gaussian(0.5, g2, 0.5, g0)
    assert 0.0 < k1 < k2


def test_kl_degenerate_branch():
    g0 = Gaussian(np.zeros(4), np.diag([4.0, 1.0, 4.0, 1.0]))
    g1 = Gaussian(np.ones(4), np.diag([2.0, 1.0, 2.0, 1.0]))
    got = kl_bernoulli_gaussian(1.0, g1, 1.0, g0)
    # only the Gaussian term survives when existence is certain
    full = kl_bernoulli_gaussian(1.0 - 1e-6, g1, 1.0 - 1e-6, g0)
    assert got == pytest.approx(full, rel=1e-3)


def test_kl_plan_returns_feasible_action():
    env = _env()
    pred = _belief()
    pos = np.array([35.0, 30.0])
    ids = {a.id for a in env.actions_from(pos)}
    assert kl_plan(pred, pos, env).id in ids


def test_make_policy_dispatch():
    env = _env()
    pred = _belief()
    pos = np.array([35.0, 30.0])
    key = (2,)
    expected = {"ns": nearest_sensor_plan(pred, pos, env),
                "gd": myopic_plan(pred, pos, env),
                "kl": kl_plan(pred, pos, env),
                "mcts": mcts_search(pred, pos, env, PlannerConfig(budget=3), key).action}
    spec = {"mcts": {"label": "mcts-3", "budget": 3}}
    for name, action in expected.items():
        pol = make_policy({"name": name, **spec.get(name, {})}, env)
        assert pol.name == name
        assert pol.plan(pred, pos, key).id == action.id
    with pytest.raises(ValueError):
        make_policy({"name": "nope"}, env)
