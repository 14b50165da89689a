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

The closed loop hands every planner the predicted belief as a plain
``(r, mean, cov)`` tuple: ``planning_belief`` of the density reduced to
one component. The inner loop works on such arrays only (see
``costs``). Within one decision the feasible actions from a sensor
position are enumerated once, and the detection-branch covariance of a
predicted belief is computed once per noise class. Nothing is cached
across decisions.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import streams
from .bernoulli import BernoulliDensity, Gaussian, LinearSensor, MotionModel
from .costs import branch_weights, merge_hypotheses, node_cost, pseudo_update
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

    def sensor_at(self, position) -> SensorState:
        return SensorState(position, self.fov_radius, self.step_size,
                           self.num_actions, self.p_detect)

    def actions_from(self, position) -> list:
        return enumerate_actions(self.sensor_at(position), self.obstacles, self.bounds)

    def sensor_model(self, action: Action) -> LinearSensor:
        return LinearSensor(self.H, noise_matrix(action.noise_class,
                                                 self.r_low, self.r_high))


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 5
    discount: float = 0.7
    exploration: float = 0.05
    budget: int = 10
    rollout: str = "random"          # or "exhaustive" (oracle mode)

    def __post_init__(self):
        if self.horizon < 1 or self.budget < 1:
            raise ValueError("horizon and budget must be >= 1")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount out of [0, 1]: {self.discount}")
        if self.exploration < 0.0:
            raise ValueError("exploration must be non-negative")
        if self.rollout not in ("random", "exhaustive"):
            raise ValueError(
                f"rollout must be 'random' or 'exhaustive', got {self.rollout!r}")


def planning_belief(density: BernoulliDensity) -> tuple:
    """The ``(r, mean, cov)`` arrays of a single-component density."""
    if len(density.components) != 1:
        raise ValueError("planning requires a single-component density")
    g = density.components[0]
    return density.r, g.mean, g.cov


def _action_table(env: PlanningEnv) -> Callable:
    """``actions_from`` that enumerates each sensor position once.

    Meant to live for one decision, so the table never outgrows it.
    """
    table = {}

    def actions_from(position) -> list:
        key = tuple(position)
        actions = table.get(key)
        if actions is None:
            actions = table[key] = env.actions_from(position)
        return actions
    return actions_from


def _detect_cov(env: PlanningEnv, cov: np.ndarray, noise_class: str) -> np.ndarray:
    """Detection-branch covariance of ``cov`` under one noise class."""
    return pseudo_update(cov, env.H, noise_matrix(noise_class, env.r_low, env.r_high))


def evaluate_action(env: PlanningEnv, pred: tuple, action: Action,
                    detect_covs: dict) -> Tuple[float, tuple]:
    """Cost and merged posterior of taking one action from a predicted belief.

    ``pred`` is ``(r, mean, cov)``; ``detect_covs`` holds its
    detection-branch covariances by noise class and is filled on demand.
    """
    _, mean, cov = pred
    pd_bar = expected_pd(mean, cov, action.target_position, env.fov_radius,
                         env.p_detect)
    P1 = detect_covs.get(action.noise_class)
    if P1 is None:
        P1 = detect_covs[action.noise_class] = _detect_cov(env, cov, action.noise_class)
    return (node_cost(pred, P1, pd_bar, env.c),
            merge_hypotheses(pred, P1, pd_bar))


def _predict_reduced(bel: tuple, motion: MotionModel) -> tuple:
    """Single-step prediction keeping only the higher-weighted component.

    The predicted mixture has a birth component of weight
    p_B (1 - r) / r' and a survivor of weight p_S r / r'; the survivor
    wins ties.
    """
    r, mean, cov = bel
    r_birth = motion.p_birth * (1.0 - r)
    r_surv = motion.p_survival * r
    r_pred = min(r_birth + r_surv, 1.0)
    if r_surv < r_birth:
        return r_pred, motion.birth.mean, motion.birth.cov
    F = motion.F
    cov = F @ cov @ F.T + motion.Q
    return r_pred, F @ mean, 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# exhaustive Bellman oracle and the myopic special case


def exhaustive_max_horizon(n_actions: int) -> int:
    """Longest horizon whose (action, detection) tree has at most a million leaves."""
    horizon = 0
    while (2 * max(n_actions, 1)) ** (horizon + 1) <= 1_000_000:
        horizon += 1
    return horizon


def exhaustive_bellman(belief: tuple, sensor_position, env: PlanningEnv,
                       horizon: int, discount: float) -> Tuple[Action, float]:
    """Exact finite-horizon minimisation over all action sequences.

    Both observation hypotheses are weighted into each step's expected
    cost and merge; the belief recursion is therefore deterministic and
    the optimum is found by plain enumeration. Guarded against horizons
    whose full expansion exceeds a million leaves.
    """
    actions = _action_table(env)
    if not 1 <= horizon <= exhaustive_max_horizon(len(actions(sensor_position))):
        raise ValueError("exhaustive horizon below 1 or too large to enumerate")
    value, action = _bellman_value(env, actions, belief, sensor_position, horizon,
                                   discount)
    return action, value


def _bellman_value(env, actions, pred, position, steps_left, discount):
    """Least discounted cost of ``steps_left >= 1`` actions from a predicted belief."""
    best_value, best_action = math.inf, None
    detect_covs = {}
    for action in actions(position):
        value, merged = evaluate_action(env, pred, action, detect_covs)
        if steps_left > 1:
            tail, _ = _bellman_value(env, actions, _predict_reduced(merged, env.motion),
                                     action.target_position, steps_left - 1, discount)
            value += discount * tail
        if value < best_value - 1e-15:
            best_value = value
            best_action = action
    return best_value, best_action


def myopic_plan(belief: tuple, sensor_position, env: PlanningEnv) -> Action:
    """Minimise the one-step expected MSGOSPA bound."""
    action, _ = exhaustive_bellman(belief, sensor_position, env, horizon=1, discount=0.0)
    return action


# ---------------------------------------------------------------------------
# Monte Carlo tree search


class TreeNode:
    """One tree node: an action taken at a specific depth."""

    __slots__ = ("action", "parent", "children", "untried", "depth",
                 "sensor_position", "pred", "detect_covs", "immediate_cost",
                 "visits", "mean_reward")

    def __init__(self, action, parent, depth, sensor_position, pred,
                 immediate_cost, untried):
        self.action = action
        self.parent = parent
        self.children = []
        self.untried = list(untried)
        self.depth = depth
        self.sensor_position = sensor_position
        # predicted (r, mean, cov) the children start from; None at the depth limit
        self.pred = pred
        self.detect_covs = {}
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


def mcts_search(belief: tuple, sensor_position, env: PlanningEnv,
                cfg: PlannerConfig, base_key: tuple = (0,)) -> MctsResult:
    """Grow a search tree within the node budget and pick the best root child.

    The tree, and every rollout below it, reaches ``cfg.horizon`` actions deep.
    Exhaustive continuations carry the same horizon guard as
    ``exhaustive_bellman``.
    """
    sensor_position = np.asarray(sensor_position, dtype=float)
    actions = _action_table(env)
    root = TreeNode(action=None, parent=None, depth=0,
                    sensor_position=sensor_position,
                    pred=belief,
                    immediate_cost=0.0, untried=actions(sensor_position))
    if cfg.rollout == "exhaustive" and \
            cfg.horizon > exhaustive_max_horizon(len(root.untried)):
        raise ValueError("exhaustive horizon too large to enumerate")
    tree_rng = streams.stream(*base_key, streams.PLAN_TREE)
    backup = "max" if cfg.rollout == "exhaustive" else "mean"

    for _ in range(cfg.budget):
        node = root
        while not node.untried and node.children:
            node = uct_select(node, cfg.exploration)
        if node.untried:
            node = _expand(env, actions, node, tree_rng, cfg.horizon)
        delta = -_path_cost(node, cfg.discount)
        if node.depth < cfg.horizon:
            if cfg.rollout == "exhaustive":
                tail, _ = _bellman_value(env, actions, node.pred, node.sensor_position,
                                         cfg.horizon - node.depth, cfg.discount)
                delta -= cfg.discount ** node.depth * tail
            else:
                delta -= _random_rollout(env, actions, node, cfg.horizon,
                                         cfg.discount, tree_rng)
        backpropagate(node, delta, backup)

    best = max(root.children, key=lambda ch: (ch.mean_reward, -ch.action.id))
    return MctsResult(best.action, best.mean_reward, root)


def _expand(env, actions, node, tree_rng, depth_limit):
    idx = int(tree_rng.integers(len(node.untried)))
    action = node.untried.pop(idx)
    cost, merged = evaluate_action(env, node.pred, action, node.detect_covs)
    depth = node.depth + 1
    if depth < depth_limit:
        pred = _predict_reduced(merged, env.motion)
        untried = actions(action.target_position)
    else:
        pred, untried = None, []
    child = TreeNode(action=action, parent=node, depth=depth,
                     sensor_position=action.target_position, pred=pred,
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


def _random_rollout(env, actions, node, depth_limit, discount, tree_rng) -> float:
    """Discounted cost of a random action continuation (nodes not kept)."""
    pred, detect_covs, position = node.pred, node.detect_covs, node.sensor_position
    total = 0.0
    for depth in range(node.depth, depth_limit):
        choices = actions(position)
        action = choices[int(tree_rng.integers(len(choices)))]
        cost, merged = evaluate_action(env, pred, action, detect_covs)
        total += discount ** depth * cost
        position = action.target_position
        if depth + 1 < depth_limit:
            pred, detect_covs = _predict_reduced(merged, env.motion), {}
    return total


# ---------------------------------------------------------------------------
# baselines


def nearest_sensor_plan(belief: tuple, sensor_position, env: PlanningEnv) -> Action:
    """Move to the feasible action closest to the predicted positional mean."""
    _, mean, _ = belief
    mean = mean[list(POSITION_INDICES)]
    best, best_d = None, math.inf
    for action in env.actions_from(sensor_position):
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
    gauss = _gaussian_kl(posterior.mean, posterior.cov, predicted.mean, predicted.cov)
    return _bernoulli_kl(posterior_r, predicted_r, gauss)


def _gaussian_kl(post_mean, post_cov, pred_mean, pred_cov) -> float:
    """KL(predicted || posterior) of two Gaussians."""
    post_cov_inv = np.linalg.inv(post_cov)
    dm = post_mean - pred_mean
    sign_pred, logdet_pred = np.linalg.slogdet(pred_cov)
    sign_post, logdet_post = np.linalg.slogdet(post_cov)
    if sign_pred <= 0 or sign_post <= 0:
        raise np.linalg.LinAlgError("singular covariance in KL computation")
    return 0.5 * (float(np.trace(post_cov_inv @ pred_cov))
                  - (logdet_pred - logdet_post)
                  - len(dm)
                  + float(dm @ post_cov_inv @ dm))


def _bernoulli_kl(posterior_r: float, predicted_r: float, gauss: float) -> float:
    """Bernoulli-Gaussian divergence from its Gaussian term ``gauss``."""
    eps = 1e-12
    degenerate = (min(posterior_r, predicted_r) < eps
                  or max(posterior_r, predicted_r) > 1.0 - eps)
    if degenerate:
        return predicted_r * gauss
    existence = ((1.0 - predicted_r) * math.log((1.0 - predicted_r) / (1.0 - posterior_r))
                 + predicted_r * math.log(predicted_r / posterior_r))
    return existence + predicted_r * gauss


def kl_plan(belief: tuple, sensor_position, env: PlanningEnv) -> Action:
    """Maximise the expected information gain over the two observation branches.

    Both branches keep the predicted mean, and the misdetection branch its
    covariance, so the Gaussian terms depend on the noise class only: they
    are computed once per class, not once per action.
    """
    r, mean, cov = belief
    gauss_miss = _gaussian_kl(mean, cov, mean, cov)
    gauss_detect = {}
    best, best_score = None, -math.inf
    for action in env.actions_from(sensor_position):
        nc = action.noise_class
        if nc not in gauss_detect:
            gauss_detect[nc] = _gaussian_kl(mean, _detect_cov(env, cov, nc), mean, cov)
        pd_bar = expected_pd(mean, cov, action.target_position, env.fov_radius,
                             env.p_detect)
        r_miss, p1 = branch_weights(r, pd_bar)
        kl_detect = _bernoulli_kl(1.0, r, gauss_detect[nc])
        kl_miss = _bernoulli_kl(r_miss, r, gauss_miss)
        score = (1.0 - p1) * kl_miss + p1 * kl_detect
        if score > best_score + 1e-15:
            best_score = score
            best = action
    return best


# ---------------------------------------------------------------------------
# policies used by the simulator


@dataclass
class Policy:
    """A named ``plan(belief, sensor_position, step_key) -> Action``.

    ``belief`` is the predicted ``(r, mean, cov)`` tuple. ``plan`` is a
    plain attribute so callers may wrap it.
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
