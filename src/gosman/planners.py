"""Action-selection policies.

Four policies are provided:

* ``ns``   -- nearest sensor: move towards the predicted mean.
* ``gd``   -- myopic minimisation of the one-step MSGOSPA bound.
* ``kl``   -- myopic maximisation of the expected information gain.
* ``mcts`` -- non-myopic Monte Carlo tree search over the discounted
  MSGOSPA bound, guided by the UCT rule.

An exhaustive finite-horizon Bellman solver over the same merged
belief dynamics serves as the correctness oracle for the MCTS: with an
exhausting budget and exhaustive continuation rollouts the tree search
recovers the exact optimum.

Planning is a pure function of belief and action: the detection
probability of each action comes from a deterministic rule
(``sensors.gaussian_disc_pd``), so every planner that evaluates the same
action from the same belief sees the same number. Only the tree search
draws random numbers, from its own stream.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import streams
from .bernoulli import (BernoulliDensity, Gaussian, LinearSensor, MotionModel,
                        predict, reduce)
from .costs import merge_hypotheses, node_cost, pseudo_update
from .gospa import POSITION_INDICES
from .sensors import (Action, Bounds, ObstacleMap, SensorState, enumerate_actions,
                      noise_matrix)
# planning looks its PD up under this module-level name, which the layer
# tracer (perfbench/tracer.py) wraps as the planning PD
from .sensors import gaussian_disc_pd as expected_pd


@dataclass(frozen=True)
class PlanningEnv:
    """Everything a planner needs to know about the world."""

    motion: MotionModel
    obstacles: ObstacleMap
    bounds: Bounds
    fov_radius: float
    step_size: float
    num_actions: int
    p_detect: float
    H: np.ndarray
    r_low: float
    r_high: float
    c: float
    noise_classes: Optional[tuple] = None
    trace_indices: Sequence[int] = POSITION_INDICES   # covariance block the costs trace

    def sensor_at(self, position) -> SensorState:
        return SensorState(position, self.fov_radius, self.step_size,
                           self.num_actions, self.p_detect)

    def actions_from(self, position) -> list:
        return enumerate_actions(self.sensor_at(position), self.obstacles,
                                 self.bounds, self.noise_classes)

    def sensor_model(self, action: Action) -> LinearSensor:
        return LinearSensor(self.H, noise_matrix(action.noise_class,
                                                 self.r_low, self.r_high))


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 5
    discount: float = 0.7
    exploration: float = 0.05
    budget: int = 10
    rollout_depth: int = 10
    rollout: str = "random"          # or "exhaustive" (oracle mode)

    def __post_init__(self):
        if self.horizon < 1 or self.budget < 1:
            raise ValueError("horizon and budget must be >= 1")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount out of [0, 1]: {self.discount}")
        if self.exploration < 0.0:
            raise ValueError("exploration must be non-negative")


def evaluate_action(env: PlanningEnv, pred: BernoulliDensity,
                    action: Action) -> Tuple[float, BernoulliDensity]:
    """Cost and merged posterior of taking one action from a predicted density."""
    pd_bar = expected_pd(pred.components[0], env.sensor_at(action.target_position))
    pair = pseudo_update(pred, env.sensor_model(action), pd_bar)
    return node_cost(pair, env.c, env.trace_indices), merge_hypotheses(pair)


def _predict_reduced(bel: BernoulliDensity, motion: MotionModel) -> BernoulliDensity:
    """Single-step prediction keeping only the highest-weighted component."""
    return reduce(predict(bel, motion), max_components=1)


# ---------------------------------------------------------------------------
# exhaustive Bellman oracle and the myopic special case


def exhaustive_max_horizon(n_actions: int) -> int:
    """Longest horizon whose (action, detection) tree has at most a million leaves."""
    horizon = 0
    while (2 * max(n_actions, 1)) ** (horizon + 1) <= 1_000_000:
        horizon += 1
    return horizon


def exhaustive_bellman(root_density: BernoulliDensity, sensor_position, env: PlanningEnv,
                       horizon: int, discount: float) -> Tuple[Action, float]:
    """Exact finite-horizon minimisation over all action sequences.

    Both observation hypotheses are weighted into each step's expected
    cost and merge; the belief recursion is therefore deterministic and
    the optimum is found by plain enumeration. Guarded against horizons
    whose full expansion exceeds a million leaves.
    """
    if horizon > exhaustive_max_horizon(len(env.actions_from(sensor_position))):
        raise ValueError("exhaustive horizon too large to enumerate")
    value, action = _bellman_value(env, root_density, sensor_position, horizon,
                                   discount, predicted=True)
    return action, value


def _bellman_value(env, bel, position, steps_left, discount, predicted):
    if steps_left == 0:
        return 0.0, None
    pred = bel if predicted else _predict_reduced(bel, env.motion)
    best_value, best_action = math.inf, None
    for action in sorted(env.actions_from(position), key=lambda a: a.id):
        cost, merged = evaluate_action(env, pred, action)
        tail, _ = _bellman_value(env, merged, action.target_position,
                                 steps_left - 1, discount, predicted=False)
        value = cost + discount * tail
        if value < best_value - 1e-15:
            best_value = value
            best_action = action
    return best_value, best_action


def myopic_plan(root_density: BernoulliDensity, sensor_position,
                env: PlanningEnv) -> Action:
    """Minimise the one-step expected MSGOSPA bound."""
    action, _ = exhaustive_bellman(root_density, sensor_position, env,
                                   horizon=1, discount=0.0)
    return action


# ---------------------------------------------------------------------------
# Monte Carlo tree search


class TreeNode:
    """One tree node: an action taken at a specific depth."""

    __slots__ = ("action", "parent", "children", "untried", "depth",
                 "sensor_position", "density", "immediate_cost",
                 "visits", "mean_reward")

    def __init__(self, action, parent, depth, sensor_position, density,
                 immediate_cost, untried):
        self.action = action
        self.parent = parent
        self.children = []
        self.untried = list(untried)
        self.depth = depth
        self.sensor_position = sensor_position
        self.density = density          # merged posterior (root: predicted)
        self.immediate_cost = immediate_cost
        self.visits = 0
        self.mean_reward = 0.0


def uct_select(node: TreeNode, exploration: float) -> TreeNode:
    """UCT child choice; ties broken by lowest action id."""
    best, best_score = None, -math.inf
    for child in sorted(node.children, key=lambda ch: ch.action.id):
        score = child.mean_reward + 2.0 * exploration * math.sqrt(
            math.log(node.visits) / child.visits)
        if score > best_score + 1e-15:
            best_score = score
            best = child
    return best


def backpropagate(leaf: TreeNode, delta: float, rule: str = "mean") -> None:
    """Fold a simulation reward into every node on the root path.

    The reward update precedes the visit-count increment. ``rule="max"``
    keeps the best reward instead of the running mean (used by the
    exhaustive-continuation oracle mode).
    """
    node = leaf
    while node is not None:
        if rule == "max":
            node.mean_reward = delta if node.visits == 0 else max(node.mean_reward, delta)
        else:
            node.mean_reward = (node.mean_reward * node.visits + delta) / (node.visits + 1)
        node.visits += 1
        node = node.parent


@dataclass(frozen=True)
class MctsResult:
    action: Action
    value: float
    root: TreeNode


def mcts_search(root_density: BernoulliDensity, sensor_position, env: PlanningEnv,
                cfg: PlannerConfig, base_key: tuple = (0,)) -> MctsResult:
    """Grow a search tree within the node budget and pick the best root child."""
    sensor_position = np.asarray(sensor_position, dtype=float)
    depth_limit = min(cfg.horizon, cfg.rollout_depth)
    root = TreeNode(action=None, parent=None, depth=0,
                    sensor_position=sensor_position, density=root_density,
                    immediate_cost=0.0, untried=env.actions_from(sensor_position))
    tree_rng = streams.stream(*base_key, streams.PLAN_TREE)
    backup = "max" if cfg.rollout == "exhaustive" else "mean"

    for _ in range(cfg.budget):
        node = root
        while not node.untried and node.children:
            node = uct_select(node, cfg.exploration)
        if node.untried:
            node = _expand(env, node, tree_rng, depth_limit)
        delta = -_path_cost(node, cfg.discount)
        if node.depth < depth_limit:
            if cfg.rollout == "exhaustive":
                tail, _ = _bellman_value(env, node.density, node.sensor_position,
                                         depth_limit - node.depth, cfg.discount,
                                         predicted=False)
                delta -= cfg.discount ** node.depth * tail
            else:
                delta -= _random_rollout(env, node, depth_limit, cfg.discount,
                                         tree_rng)
        backpropagate(node, delta, backup)

    best = max(root.children, key=lambda ch: (ch.mean_reward, -ch.action.id))
    return MctsResult(best.action, best.mean_reward, root)


def _expand(env, node, tree_rng, depth_limit):
    idx = int(tree_rng.integers(len(node.untried)))
    action = node.untried.pop(idx)
    pred = node.density if node.depth == 0 else _predict_reduced(node.density,
                                                                env.motion)
    cost, merged = evaluate_action(env, pred, action)
    depth = node.depth + 1
    untried = env.actions_from(action.target_position) if depth < depth_limit else []
    child = TreeNode(action=action, parent=node, depth=depth,
                     sensor_position=action.target_position, density=merged,
                     immediate_cost=cost, untried=untried)
    node.children.append(child)
    return child


def _path_cost(node: TreeNode, discount: float) -> float:
    """Discounted cost of the root path; the first action is undiscounted."""
    total = 0.0
    while node is not None and node.depth > 0:
        total += discount ** (node.depth - 1) * node.immediate_cost
        node = node.parent
    return total


def _random_rollout(env, node, depth_limit, discount, tree_rng) -> float:
    """Discounted cost of a random action continuation (nodes not kept)."""
    density, position = node.density, node.sensor_position
    total = 0.0
    for depth in range(node.depth, depth_limit):
        pred = _predict_reduced(density, env.motion)
        actions = env.actions_from(position)
        action = actions[int(tree_rng.integers(len(actions)))]
        cost, density = evaluate_action(env, pred, action)
        total += discount ** depth * cost
        position = action.target_position
    return total


# ---------------------------------------------------------------------------
# baselines


def nearest_sensor_plan(root_density: BernoulliDensity, sensor_position,
                        env: PlanningEnv) -> Action:
    """Move to the feasible action closest to the predicted positional mean."""
    idx = list(POSITION_INDICES)
    mean = root_density.top_component.mean[idx] if root_density.components else \
        np.asarray(sensor_position, dtype=float)
    best, best_d = None, math.inf
    for action in sorted(env.actions_from(sensor_position), key=lambda a: a.id):
        d = float(np.linalg.norm(action.target_position - mean))
        if d < best_d - 1e-12:
            best_d = d
            best = action
    return best


def kl_bernoulli_gaussian(posterior_r: float, posterior: Gaussian,
                          predicted_r: float, predicted: Gaussian) -> float:
    """Divergence between Bernoulli-Gaussian posterior and predicted densities.

    The closed form weights the existence terms by the predicted
    probability of existence; when either existence probability is
    degenerate (0 or 1) only the Gaussian term remains.
    """
    post_cov_inv = np.linalg.inv(posterior.cov)
    dm = posterior.mean - predicted.mean
    sign_pred, logdet_pred = np.linalg.slogdet(predicted.cov)
    sign_post, logdet_post = np.linalg.slogdet(posterior.cov)
    if sign_pred <= 0 or sign_post <= 0:
        raise np.linalg.LinAlgError("singular covariance in KL computation")
    gauss = 0.5 * (float(np.trace(post_cov_inv @ predicted.cov))
                   - (logdet_pred - logdet_post)
                   - len(dm)
                   + float(dm @ post_cov_inv @ dm))

    eps = 1e-12
    degenerate = (min(posterior_r, predicted_r) < eps
                  or max(posterior_r, predicted_r) > 1.0 - eps)
    if degenerate:
        return predicted_r * gauss
    existence = ((1.0 - predicted_r) * math.log((1.0 - predicted_r) / (1.0 - posterior_r))
                 + predicted_r * math.log(predicted_r / posterior_r))
    return existence + predicted_r * gauss


def kl_plan(root_density: BernoulliDensity, sensor_position,
            env: PlanningEnv) -> Action:
    """Maximise the expected information gain over the two observation branches."""
    g_pred = root_density.components[0]
    best, best_score = None, -math.inf
    for action in sorted(env.actions_from(sensor_position), key=lambda a: a.id):
        pd_bar = expected_pd(g_pred, env.sensor_at(action.target_position))
        pair = pseudo_update(root_density, env.sensor_model(action), pd_bar)
        kl_detect = kl_bernoulli_gaussian(pair.detect_r, pair.detect,
                                          root_density.r, g_pred)
        kl_miss = kl_bernoulli_gaussian(pair.miss_r, pair.miss,
                                        root_density.r, g_pred)
        p1 = pair.p_detect_event
        score = (1.0 - p1) * kl_miss + p1 * kl_detect
        if score > best_score + 1e-15:
            best_score = score
            best = action
    return best


# ---------------------------------------------------------------------------
# policies used by the simulator


@dataclass
class Policy:
    """A named ``plan(predicted, sensor_position, step_key) -> Action``.

    ``plan`` is a plain attribute so callers may wrap it.
    """

    name: str
    plan: Callable


def make_policy(spec: dict, env: PlanningEnv) -> Policy:
    """Build a policy from a config mapping with a ``name`` field."""
    name = spec["name"]
    if name == "ns":
        plan = lambda pred, pos, key: nearest_sensor_plan(pred, pos, env)
    elif name == "gd":
        plan = lambda pred, pos, key: myopic_plan(pred, pos, env)
    elif name == "kl":
        plan = lambda pred, pos, key: kl_plan(pred, pos, env)
    elif name == "mcts":
        cfg = PlannerConfig(**{k: v for k, v in spec.items()
                               if k not in ("name", "label")})
        plan = lambda pred, pos, key: mcts_search(pred, pos, env, cfg, key).action
    else:
        raise ValueError(f"unknown policy name: {name!r}")
    return Policy(name, plan)
