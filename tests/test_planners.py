"""Unit tests for the planning policies and the tree search."""

from pathlib import Path

import numpy as np
import pytest

from gosman import planners, sensors
from gosman.bernoulli import (AxisGaussian, BernoulliDensity, empty_density,
                              ncv_motion_model, predict, reduce)
from gosman.cli import _tree_size, oracle_scenarios
from gosman.config import load_config
from gosman.costs import merge_hypotheses, node_cost, pseudo_update
from gosman.planners import (ACTION_MEMO_SIZE, PlannerConfig, PlanningEnv, TreeNode,
                             backpropagate, bernoulli_kl, evaluate_action,
                             exhaustive_bellman, gaussian_kl, kl_plan, make_policy,
                             mcts_search, myopic_plan, nearest_sensor_plan,
                             planning_belief, uct_select)
from gosman.sensors import Bounds, ObstacleMap, enumerate_actions, noise_variance


def _env(num_actions=4):
    motion = ncv_motion_model(1.0, 2.0, 0.99, 0.05,
                              np.array([25.0, 0.0, 25.0, 0.0]), [200.0, 25.0, 200.0, 25.0])
    return PlanningEnv(motion=motion, obstacles=ObstacleMap(),
                       bounds=Bounds(0.0, 100.0, 0.0, 100.0),
                       fov_radius=12.0, step_size=6.0, num_actions=num_actions,
                       p_detect=0.9, r_low=10.0, r_high=50.0, c=20.0)


def _belief(r=0.7, mean=(30.0, 0.5, 30.0, -0.5)):
    return r, tuple(mean), (80.0, 0.0, 16.0), (80.0, 0.0, 16.0)


def test_evaluate_action_cost_matches_components():
    env = _env()
    pred = _belief()
    action = env.actions_from(np.array([30.0, 30.0]))[0]
    cost, merged = evaluate_action(env, pred, action)
    r, mean, bx, by = merged
    assert cost >= 0.0
    assert 0.0 <= r <= 1.0 and len(mean) == 4 and len(bx) == len(by) == 3
    # the cost and merge of the action's own detection branch
    _, mean, bx, by = pred
    pd_bar = planners.expected_pd(mean[0], mean[2], bx[0], by[0], *action.target_position,
                                  env.fov_radius, env.p_detect)
    blocks = pseudo_update(pred, noise_variance(action.noise_class, env.r_low, env.r_high))
    assert cost == node_cost(pred, blocks, pd_bar, env.c)
    assert merged == merge_hypotheses(pred, blocks, pd_bar)
    # a pure function of belief and action
    assert evaluate_action(env, pred, action) == (cost, merged)


def test_planning_belief_requires_single_component():
    g = AxisGaussian(np.zeros(4), (1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    mixture = BernoulliDensity(0.5, np.array([0.5, 0.5]), (g, g))
    with pytest.raises(ValueError):
        planning_belief(mixture)
    r, mean, bx, by = planning_belief(BernoulliDensity(0.5, np.array([1.0]), (g,)))
    assert r == 0.5 and mean == (0.0, 0.0, 0.0, 0.0)
    assert bx == by == (1.0, 0.0, 1.0)


def test_exhaustive_bellman_prefers_covering_action():
    env = _env()
    pred = _belief(r=0.8)
    # sensor east of the target: moving west (action id 2) points at it
    action, value = exhaustive_bellman(pred, np.array([40.0, 30.0]), env,
                                       horizon=2, discount=0.7)
    assert action.id == 2
    assert value > 0.0


def test_actions_enumerated_once_per_position_per_decision(monkeypatch):
    seen = []
    real = planners.enumerate_actions

    def counting(sensor, *args):
        seen.append(tuple(sensor.position))
        return real(sensor, *args)

    monkeypatch.setattr(planners, "enumerate_actions", counting)
    pred = _belief()
    pos = np.array([35.0, 30.0])
    cfg = PlannerConfig(horizon=4, discount=0.7, budget=15)
    for decide in (lambda env: mcts_search(pred, pos, env, cfg, base_key=(3,)),
                   lambda env: exhaustive_bellman(pred, pos, env, 3, 0.7)):
        env = _env()
        seen.clear()
        decide(env)
        first = len(seen)
        assert first > 1 and first == len(set(seen))
        # the env keeps its actions from one decision to the next
        decide(env)
        assert len(seen) == first


def test_action_memo_stays_bounded_off_the_lattice():
    # seven directions: a walk almost never returns to a position it has visited
    env = _env(num_actions=7)
    rng = np.random.default_rng(7)
    pos, visited = np.array([50.0, 50.0]), set()
    while len(visited) <= ACTION_MEMO_SIZE + 50:
        visited.add(tuple(pos))
        actions = env.actions_from(pos)
        assert len(env._actions) <= ACTION_MEMO_SIZE
        want = enumerate_actions(env.sensor_at(pos), env.obstacles, env.bounds)
        assert [(a.id, a.noise_class) for a in actions] == \
            [(a.id, a.noise_class) for a in want]
        assert all(np.array_equal(a.target_position, b.target_position)
                   for a, b in zip(actions, want))
        pos = actions[int(rng.integers(len(actions)))].target_position
    assert 0 < len(env._actions) < len(visited)


def test_exhaustive_bellman_guard():
    env = _env(num_actions=6)
    with pytest.raises(ValueError):
        exhaustive_bellman(_belief(), np.array([50.0, 50.0]), env,
                           horizon=12, discount=0.7)


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
    cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget)
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
    cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget)
    for key in ((17,), (18,), (19,)):
        result = mcts_search(pred, pos, env, cfg, base_key=key)
        assert result.action.id == oracle_action.id
        assert -result.value == pytest.approx(oracle_value, abs=1e-9)


def test_mcts_matches_oracle_on_isotropic_beliefs(monkeypatch):
    # the oracle scenarios with by = bx, so every planning PD takes the exact
    # series (criterion 6 draws unequal variances, which take the ray rule)
    counts = {"series": 0, "ray": 0}
    for name, key in (("_disc_mass_series", "series"), ("_ray_pd", "ray")):
        def counted(*args, _f=getattr(sensors, name), _key=key):
            counts[_key] += 1
            return _f(*args)
        monkeypatch.setattr(sensors, name, counted)
    horizon = 3
    for i, belief, pos, env in oracle_scenarios(0):
        r, mean, bx, _ = belief
        iso = (r, mean, bx, bx)
        budget = _tree_size(env, pos, horizon)
        oracle_action, oracle_value = exhaustive_bellman(iso, pos, env, horizon, 0.7)
        cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget)
        result = mcts_search(iso, pos, env, cfg, base_key=(19, i))
        assert result.root.solved
        assert result.action.id == oracle_action.id
        assert abs(-result.value - oracle_value) <= 1e-9
    assert counts["series"] > 0 and counts["ray"] == 0


# per oracle scenario (seed 0): the tree search's value as float.hex and its
# action, and the actions of gd and kl; first as drawn (unequal variances,
# the ray rule), then with by = bx (the series)
PINNED_DECISIONS = {
    False: (("-0x1.2c7e1c7819026p+8", 0, 0, 0), ("-0x1.3c958d591ed0ap+8", 0, 0, 0),
            ("-0x1.89be7f929bedbp+8", 0, 0, 0), ("-0x1.fa1018e5acc59p+7", 0, 0, 0),
            ("-0x1.fb6b6e24ef36cp+7", 0, 0, 0), ("-0x1.64a8604897ae4p+7", 0, 0, 0),
            ("-0x1.3c2d9d947300cp+7", 0, 0, 0), ("-0x1.6033cc02bc39ep+8", 0, 0, 0),
            ("-0x1.4ee0a03a8cdf4p+8", 0, 0, 0), ("-0x1.4bf361b5278d1p+8", 0, 0, 0)),
    True: (("-0x1.2dd984480e500p+8", 0, 0, 0), ("-0x1.3bd8586ced5e0p+8", 0, 0, 0),
           ("-0x1.8b0f6e4531787p+8", 0, 0, 0), ("-0x1.f32f4cad9b9fep+7", 0, 0, 0),
           ("-0x1.fad00fa058fe0p+7", 0, 0, 0), ("-0x1.6f980a491dbcdp+7", 0, 0, 0),
           ("-0x1.2d48b13e50019p+7", 0, 0, 0), ("-0x1.7c84e9c5fdf4ap+8", 0, 0, 0),
           ("-0x1.48ed271d46596p+8", 0, 0, 0), ("-0x1.4a962651b2258p+8", 0, 0, 0)),
}


@pytest.mark.parametrize("isotropic", [False, True])
def test_decisions_pinned_bits(isotropic):
    cfg = PlannerConfig(horizon=4, discount=0.7, exploration=0.05, budget=20)
    got = []
    for i, belief, pos, env in oracle_scenarios(0):
        if isotropic:
            r, mean, bx, _ = belief
            belief = (r, mean, bx, bx)
        result = mcts_search(belief, pos, env, cfg, (7, i))
        got.append((result.value.hex(), result.action.id,
                    myopic_plan(belief, pos, env).id, kl_plan(belief, pos, env).id))
    assert tuple(got) == PINNED_DECISIONS[isotropic]


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


def _count(node):
    return 1 + sum(_count(ch) for ch in node.children)


def test_mcts_budget_counts_expansions():
    env = _env()
    pred = _belief()
    cfg = PlannerConfig(horizon=4, discount=0.7, budget=7)
    result = mcts_search(pred, np.array([35.0, 30.0]), env, cfg, base_key=(3,))
    assert _count(result.root) == 1 + 7
    assert result.root.visits == 7


def _solved_nodes(node):
    return int(node.solved) + sum(_solved_nodes(ch) for ch in node.children)


@pytest.mark.parametrize("budget", [50, 150])
def test_mcts_budget_counts_nodes_on_the_obstacle_scenario(budget):
    # at budget 150 the search reaches the depth limit; selection skips the
    # solved subtrees there, so every iteration still adds a node
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "obstacle.json")
    env = cfg.planning_env()
    mcts = next(p for p in cfg.policies if p.name == "mcts")
    assert mcts.params["horizon"] == 10
    pos = np.asarray(cfg.initial_position, dtype=float)
    birth = planning_belief(reduce(predict(empty_density(), env.motion), max_components=1))
    localised = (0.9, (pos[0] + 5.0, 1.0, pos[1], 0.0), (4.0, 0.0, 1.0), (4.0, 0.0, 1.0))
    search = PlannerConfig(**{**mcts.params, "budget": budget})
    solved = 0
    for belief in (birth, localised):
        for key in ((0,), (1, 2, 3)):
            root = mcts_search(belief, pos, env, search, key).root
            assert _count(root) == budget + 1
            assert root.visits == budget and not root.solved
            solved += _solved_nodes(root)
    if budget == 150:
        assert solved > 0   # the search did reach the depth limit


def test_mcts_stops_once_the_root_is_solved():
    horizon = 3
    for i, belief, pos, env in list(oracle_scenarios(5))[:3]:
        size = _tree_size(env, pos, horizon)
        assert size == 48
        cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=20 * size)
        result = mcts_search(belief, pos, env, cfg, base_key=(31, i))
        assert result.root.solved
        assert result.root.visits == size and _count(result.root) == size + 1
        _, oracle_value = exhaustive_bellman(belief, pos, env, horizon, 0.7)
        assert -result.value == pytest.approx(oracle_value, abs=1e-9)
        assert result.root.mean_reward == result.value


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(horizon=0)
    with pytest.raises(ValueError):
        PlannerConfig(discount=1.5)
    with pytest.raises(ValueError):
        PlannerConfig(exploration=-0.1)


def test_backpropagate_rules():
    root = TreeNode(None, None, 0, np.zeros(2), None, 0.0, [])
    child = TreeNode(None, root, 1, np.zeros(2), None, 1.0, [])
    root.children.append(child)
    backpropagate(child, -2.0)
    backpropagate(child, -4.0)
    assert child.mean_reward == pytest.approx(-3.0)
    assert child.visits == 2 and root.visits == 2
    assert not root.solved and not child.solved


def _hand_tree(rewards, solved):
    root = TreeNode(None, None, 0, np.zeros(2), None, 0.0, [])
    for i, (reward, done) in enumerate(zip(rewards, solved)):
        ch = TreeNode(type("A", (), {"id": i})(), root, 1, np.zeros(2), None, 0.0, [])
        ch.mean_reward, ch.visits, ch.solved = reward, 1, done
        root.children.append(ch)
    root.visits = len(rewards)
    return root


def test_node_with_all_children_solved_takes_the_best_reward():
    root = _hand_tree([-3.0, -1.0, -2.0], [True, True, False])
    backpropagate(root.children[0], -3.0)
    assert not root.solved   # one child is still open
    root.children[2].solved = True
    backpropagate(root.children[2], -2.0)
    assert root.solved and root.mean_reward == -1.0
    # an untried action keeps the node open however its children stand
    root = _hand_tree([-3.0, -1.0], [True, True])
    root.untried = ["an untried action"]
    backpropagate(root.children[0], -3.0)
    assert not root.solved


def test_uct_skips_a_solved_child():
    # the solved child has the better mean and the fewer visits
    root = _hand_tree([-1.0, -5.0], [True, False])
    root.children[1].visits = 5
    root.visits = 6
    for exploration in (0.0, 1.0):
        assert uct_select(root, exploration).action.id == 1


def test_uct_prefers_unvisited_balance():
    root = _hand_tree([-1.0, -1.0], [False, False])
    root.children[0].visits = 10
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


@pytest.mark.parametrize("mean, want", [((30.0, 30.0), 0), ((10.0, 10.0), 2),
                                        ((10.0, 30.0), 1), ((30.0, 10.0), 0)])
def test_nearest_sensor_tie_picks_lower_id(mean, want):
    # from (20, 20) the moves reach (26, 20), (20, 26), (14, 20) and (20, 14)
    # exactly; each mean is as far from two of them, to the bit
    env = _env()
    pred = _belief(mean=(mean[0], 0.0, mean[1], 0.0))
    targets = {a.id: a.target_position for a in env.actions_from((20.0, 20.0))}
    assert targets == {0: (26.0, 20.0), 1: (20.0, 26.0), 2: (14.0, 20.0), 3: (20.0, 14.0)}
    assert nearest_sensor_plan(pred, (20.0, 20.0), env).id == want


def test_kl_zero_for_identical():
    block = (4.0, 1.0, 2.0)
    assert bernoulli_kl(0.6, 0.6, gaussian_kl(block, block)) == pytest.approx(0.0, abs=1e-12)


def test_kl_positive_and_grows_with_separation():
    block = (4.0, 0.0, 1.0)
    k0, k1, k2 = (bernoulli_kl(0.5, 0.5, gaussian_kl(block, block, (d, 0.0)))
                  for d in (0.0, 1.0, 3.0))
    assert 0.0 < k1 < k2
    # a shift d along an axis of variance s2 adds d^2 / (2 s2), weighted by r
    assert k1 - k0 == pytest.approx(0.5 * 0.5 / 4.0)


def test_kl_degenerate_branch():
    gauss = gaussian_kl((2.0, 0.0, 1.0), (4.0, 0.0, 1.0), (1.0, 1.0))
    got = bernoulli_kl(1.0, 1.0, gauss)
    # only the Gaussian term survives when existence is certain
    full = bernoulli_kl(1.0 - 1e-6, 1.0 - 1e-6, gauss)
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
