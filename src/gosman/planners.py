"""Action-selection policies.

Four policies are provided:

* ``ns``   -- nearest sensor: move towards the predicted mean.
* ``gd``   -- myopic minimisation of the one-step MSGOSPA bound.
* ``kl``   -- myopic maximisation of the expected information gain.
* ``mcts`` -- non-myopic Monte Carlo tree search over the discounted
  MSGOSPA bound, guided by the UCT rule. Its budget counts added nodes;
  a subtree expanded to the horizon is solved, holds its exact optimum and
  is not entered again (MCTS-Solver, Winands, Björnsson & Saito 2008).

An exhaustive finite-horizon Bellman solver over the same merged
belief dynamics serves as the correctness oracle for the MCTS: a budget
that covers the whole tree solves the root, and the tree search then
recovers the exact optimum.

Planning is a pure function of belief and action: the detection
probability of each action comes from ``sensors.gaussian_disc_pd``, which
is deterministic, so every planner that evaluates the same action from the
same belief sees the same number. For an isotropic belief, which is every
belief of the shipped configs, it is exact (a Poisson series, within about
1e-13); for an anisotropic one, or one too thin for the series' cost cap,
it is the 1024-ray rule (error at most about p_D / 1024). The filter keeps
its importance-sampling estimate. Only the tree search draws random
numbers, from its own stream.

The closed loop hands every planner the predicted belief as a plain
``(r, mean, bx, by)`` tuple (``planning_belief``, see ``costs``), and
the inner loop is float arithmetic on such tuples, in the filter's own
per-axis kernels. The env enumerates the actions from a sensor position
once per episode, the greedy policies get all their detection
probabilities from one call, and ``kl`` computes its Gaussian divergence
once per noise class.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import streams
from .bernoulli import AxisGaussian, BernoulliDensity, MotionModel, predict_axes
from .costs import branch_weights, merge_hypotheses, node_cost, pseudo_update
from .sensors import (Action, Bounds, ObstacleMap, SensorState, enumerate_actions,
                      noise_variance)
# planning looks its PD up under this module-level name, which the layer
# tracer (perfbench/tracer.py) wraps as the planning PD
from .sensors import gaussian_disc_pd as expected_pd

# positions a ``PlanningEnv`` memoises before clearing them; only off-lattice walks get here
ACTION_MEMO_SIZE = 4096


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
    r_low: float
    r_high: float
    c: float
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sensor_at(self, position) -> SensorState:
        return SensorState(position, self.fov_radius, self.step_size,
                           self.num_actions, self.p_detect)

    def actions_from(self, position) -> tuple:
        """Feasible actions from ``position``, enumerated once per exact position.

        The env lives for one episode, and every planner shares its memo.
        """
        key = tuple(position)
        actions = self._actions.get(key)
        if actions is None:
            if len(self._actions) >= ACTION_MEMO_SIZE:
                self._actions.clear()
            actions = self._actions[key] = tuple(
                enumerate_actions(self.sensor_at(position), self.obstacles, self.bounds))
        return actions


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = 5
    discount: float = 0.7
    exploration: float = 0.05
    budget: int = 10

    def __post_init__(self):
        if self.horizon < 1 or self.budget < 1:
            raise ValueError("horizon and budget must be >= 1")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount out of [0, 1]: {self.discount}")
        if self.exploration < 0.0:
            raise ValueError("exploration must be non-negative")


def _belief(r: float, g: AxisGaussian) -> tuple:
    return float(r), tuple(g.mean.tolist()), g.bx, g.by


def planning_belief(density: BernoulliDensity) -> tuple:
    """The ``(r, mean, bx, by)`` belief of a single-component density."""
    if len(density.components) != 1:
        raise ValueError("planning requires a single-component density")
    return _belief(density.r, density.components[0])


def _plan_pd(env: PlanningEnv, pred: tuple, actions: list) -> list:
    """Detection probabilities of ``pred`` for each action, from one call."""
    _, mean, bx, by = pred
    return expected_pd(mean[0], mean[2], bx[0], by[0],
                       np.array([a.target_position for a in actions]),
                       env.fov_radius, env.p_detect).tolist()


def evaluate_action(env: PlanningEnv, pred: tuple, action: Action,
                    pd_bar: Optional[float] = None) -> Tuple[float, tuple]:
    """Cost and merged posterior of taking one action from a predicted belief.

    ``pd_bar`` is computed if the caller has not batched it.
    """
    if pd_bar is None:
        pd_bar = _plan_pd(env, pred, [action])[0]
    blocks = pseudo_update(pred, noise_variance(action.noise_class, env.r_low, env.r_high))
    return (node_cost(pred, blocks, pd_bar, env.c),
            merge_hypotheses(pred, blocks, pd_bar))


def _predict_reduced(bel: tuple, env: PlanningEnv) -> tuple:
    """Single-step prediction keeping only the higher-weighted component.

    The predicted mixture has a birth component of weight
    p_B (1 - r) / r' and a survivor of weight p_S r / r'; the survivor
    wins ties.
    """
    r, mean, bx, by = bel
    motion = env.motion
    r_birth = motion.p_birth * (1.0 - r)
    r_surv = motion.p_survival * r
    r_pred = min(r_birth + r_surv, 1.0)
    if r_surv < r_birth:
        return _belief(r_pred, motion.birth)
    return (r_pred,) + predict_axes(mean, bx, by, motion.tau, motion.q)


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
    if not 1 <= horizon <= exhaustive_max_horizon(len(env.actions_from(sensor_position))):
        raise ValueError("exhaustive horizon below 1 or too large to enumerate")
    value, action = _bellman_value(env, belief, sensor_position, horizon, discount)
    return action, value


def _bellman_value(env, pred, position, steps_left, discount):
    """Least discounted cost of ``steps_left >= 1`` actions from a predicted belief."""
    best_value, best_action = math.inf, None
    choices = env.actions_from(position)
    for action, pd_bar in zip(choices, _plan_pd(env, pred, choices)):
        value, merged = evaluate_action(env, pred, action, pd_bar)
        if steps_left > 1:
            tail, _ = _bellman_value(env, _predict_reduced(merged, env),
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
                 "sensor_position", "pred", "immediate_cost",
                 "visits", "mean_reward", "solved")

    def __init__(self, action, parent, depth, sensor_position, pred,
                 immediate_cost, untried):
        self.action = action
        self.parent = parent
        self.children = []
        self.untried = list(untried)
        self.depth = depth
        self.sensor_position = sensor_position
        # predicted (r, mean, bx, by) the children start from; None at the depth limit
        self.pred = pred
        self.immediate_cost = immediate_cost
        self.visits = 0
        self.mean_reward = 0.0
        # every action sequence below reaches the depth limit: the reward is exact
        self.solved = False


def uct_select(node: TreeNode, exploration: float) -> TreeNode:
    """UCT choice among the unsolved children; ties broken by lowest action id."""
    best, best_score = None, -math.inf
    for child in sorted(node.children, key=lambda ch: ch.action.id):
        if child.solved:
            continue
        score = child.mean_reward + 2.0 * exploration * math.sqrt(
            math.log(node.visits) / child.visits)
        if score > best_score + 1e-15:
            best_score = score
            best = child
    return best


def backpropagate(leaf: TreeNode, delta: float) -> None:
    """Fold a simulation reward into every node on the root path.

    The reward update precedes the visit-count increment. A node with no
    untried action whose children are all solved becomes solved and takes
    its best child's reward: rewards are whole-path returns, so that is
    the exact optimum below it.
    """
    node = leaf
    while node is not None:
        node.mean_reward = (node.mean_reward * node.visits + delta) / (node.visits + 1)
        node.visits += 1
        if not node.untried and node.children and all(ch.solved for ch in node.children):
            node.solved = True
            node.mean_reward = max(ch.mean_reward for ch in node.children)
        node = node.parent


@dataclass(frozen=True)
class MctsResult:
    action: Action
    value: float
    root: TreeNode


def mcts_search(belief: tuple, sensor_position, env: PlanningEnv,
                cfg: PlannerConfig, base_key: tuple = (0,)) -> MctsResult:
    """Grow a search tree by one node per iteration and pick the best root child.

    The tree, and every rollout below it, reaches ``cfg.horizon`` actions deep.
    The search stops before ``cfg.budget`` iterations once the root is solved.
    """
    sensor_position = np.asarray(sensor_position, dtype=float)
    root = TreeNode(action=None, parent=None, depth=0,
                    sensor_position=sensor_position,
                    pred=belief,
                    immediate_cost=0.0, untried=env.actions_from(sensor_position))
    tree_rng = streams.stream(*base_key, streams.PLAN_TREE)

    for _ in range(cfg.budget):
        if root.solved:
            break
        node = root
        while not node.untried:
            node = uct_select(node, cfg.exploration)
        node = _expand(env, node, tree_rng, cfg.horizon)
        delta = -_path_cost(node, cfg.discount)
        if not node.solved:
            delta -= _random_rollout(env, node, cfg.horizon, cfg.discount, tree_rng)
        backpropagate(node, delta)

    best = max(root.children, key=lambda ch: (ch.mean_reward, -ch.action.id))
    return MctsResult(best.action, best.mean_reward, root)


def _expand(env, node, tree_rng, depth_limit):
    idx = int(tree_rng.integers(len(node.untried)))
    action = node.untried.pop(idx)
    cost, merged = evaluate_action(env, node.pred, action)
    depth = node.depth + 1
    if depth < depth_limit:
        pred = _predict_reduced(merged, env)
        untried = env.actions_from(action.target_position)
    else:
        pred, untried = None, []
    child = TreeNode(action=action, parent=node, depth=depth,
                     sensor_position=action.target_position, pred=pred,
                     immediate_cost=cost, untried=untried)
    child.solved = depth == depth_limit
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
    pred, position = node.pred, node.sensor_position
    total = 0.0
    for depth in range(node.depth, depth_limit):
        choices = env.actions_from(position)
        action = choices[int(tree_rng.integers(len(choices)))]
        cost, merged = evaluate_action(env, pred, action)
        total += discount ** depth * cost
        position = action.target_position
        if depth + 1 < depth_limit:
            pred = _predict_reduced(merged, env)
    return total


# ---------------------------------------------------------------------------
# baselines


def nearest_sensor_plan(belief: tuple, sensor_position, env: PlanningEnv) -> Action:
    """Move to the feasible action closest to the predicted positional mean."""
    mean = np.array(belief[1][::2])
    best, best_d = None, math.inf
    for action in env.actions_from(sensor_position):
        d = float(np.linalg.norm(action.target_position - mean))
        if d < best_d - 1e-12:
            best_d = d
            best = action
    return best


def gaussian_kl(post: tuple, pred: tuple, dm=(0.0, 0.0)) -> float:
    """KL(predicted || posterior) of 2-D Gaussians: (p, c, v) covariances, mean gap dm."""
    (p1, c1, v1), (p0, c0, v0) = post, pred
    det1 = p1 * v1 - c1 * c1
    det0 = p0 * v0 - c0 * c0
    if det1 <= 0.0 or det0 <= 0.0:
        raise np.linalg.LinAlgError("singular covariance in KL computation")
    d0, d1 = dm
    # trace of post^-1 (pred + dm dm^T): the trace and mean terms together
    quad = v1 * (p0 + d0 * d0) - 2.0 * c1 * (c0 + d0 * d1) + p1 * (v0 + d1 * d1)
    return 0.5 * (quad / det1 - 2.0 + math.log(det1 / det0))


def bernoulli_kl(posterior_r: float, predicted_r: float, gauss: float) -> float:
    """KL(predicted || posterior) of Bernoulli-Gaussians whose ``gaussian_kl`` is ``gauss``.

    When either existence probability is degenerate (0 or 1) only the Gaussian term remains.
    """
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
    covariance, so its Gaussian term is zero and the detection branch's, a
    sum over the two axes, depends on the noise class only.
    """
    r, _, bx, by = belief
    actions = env.actions_from(sensor_position)
    gauss_detect = {}
    best, best_score = None, -math.inf
    for action, pd_bar in zip(actions, _plan_pd(env, belief, actions)):
        nc = action.noise_class
        if nc not in gauss_detect:
            dx, dy = pseudo_update(belief, noise_variance(nc, env.r_low, env.r_high))
            gauss_detect[nc] = gaussian_kl(dx, bx) + gaussian_kl(dy, by)
        r_miss, p1 = branch_weights(r, pd_bar)
        score = ((1.0 - p1) * bernoulli_kl(r_miss, r, 0.0)
                 + p1 * bernoulli_kl(1.0, r, gauss_detect[nc]))
        if score > best_score + 1e-15:
            best_score = score
            best = action
    return best


# ---------------------------------------------------------------------------
# policies used by the simulator


@dataclass
class Policy:
    """A named ``plan(belief, sensor_position, step_key) -> Action``.

    ``belief`` is the predicted ``(r, mean, bx, by)`` tuple. ``plan`` is a
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
