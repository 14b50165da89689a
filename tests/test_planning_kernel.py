"""Property tests of the planning kernel at the extremes.

The planners work on plain ``(r, mean, cov)`` beliefs, without the
filter's validating constructors, so the invariants those constructors
would enforce are checked here instead: r in [0, 1], symmetric
covariances with no eigenvalue below -1e-9 of their scale, finite
non-negative costs, and a feasible action from every planner. The
extremes: a detection probability of 0 or 1, existence of 0 or 1, and
covariances from 1e-6 to 1e8.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gosman.bernoulli import (BernoulliDensity, Gaussian, ncv_motion_model, predict,
                              reduce)
from gosman.config import OBSERVATION_MATRIX
from gosman.costs import branch_weights, merge_hypotheses, node_cost, pseudo_update
from gosman.planners import (PlannerConfig, PlanningEnv, _predict_reduced, kl_plan,
                             mcts_search, myopic_plan, nearest_sensor_plan,
                             planning_belief)
from gosman.sensors import Bounds, ObstacleMap

SETTINGS = settings(max_examples=60, deadline=None)
SCALES = (1e-6, 1.0, 1e8)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def beliefs(draw):
    """A planning belief whose covariance has one of the extreme scales."""
    scale = draw(st.sampled_from(SCALES))
    a = draw(arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)))
    cov = scale * (a @ a.T + 1e-3 * np.eye(4))
    cov = 0.5 * (cov + cov.T)
    mean = draw(arrays(float, 4, elements=st.floats(0.0, 100.0)))
    return draw(probabilities), mean, cov


def _assert_covariance(cov):
    assert np.all(np.isfinite(cov))
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov)[0] >= -1e-9 * np.abs(cov).max()


def _motion(p_survival, p_birth):
    return ncv_motion_model(1.0, 2.0, p_survival, p_birth,
                            np.array([50.0, 0.0, 50.0, 0.0]),
                            np.diag([200.0, 25.0, 200.0, 25.0]))


@SETTINGS
@given(beliefs(), probabilities, probabilities)
def test_predict_reduced_invariants(bel, p_survival, p_birth):
    motion = _motion(p_survival, p_birth)
    r, mean, cov = _predict_reduced(bel, motion)
    assert 0.0 <= r <= 1.0
    assert mean.shape == (4,)
    _assert_covariance(cov)

    # the filter's predict-then-reduce keeps the same component
    r0 = bel[0]
    r_birth, r_surv = p_birth * (1.0 - r0), p_survival * r0
    assume(r_birth + r_surv > 0.0)
    assume(abs(r_surv - r_birth) > 1e-9 * max(r_surv, r_birth))
    density = BernoulliDensity(r0, np.array([1.0]), (Gaussian(bel[1], bel[2]),))
    want = planning_belief(reduce(predict(density, motion), max_components=1))
    assert r == want[0]
    assert np.array_equal(mean, want[1])
    assert np.allclose(cov, want[2], rtol=1e-12, atol=1e-12 * np.abs(want[2]).max())


def test_predict_reduced_tie_keeps_survivor():
    motion = _motion(0.3, 0.3)
    mean = np.array([10.0, 1.0, 20.0, -1.0])
    density = BernoulliDensity(0.5, np.array([1.0]), (Gaussian(mean, np.eye(4)),))
    want = planning_belief(reduce(predict(density, motion), max_components=1))
    r, got_mean, _ = _predict_reduced(planning_belief(density), motion)
    assert r == want[0]
    assert np.array_equal(got_mean, want[1])
    assert np.array_equal(got_mean, motion.F @ mean)


@SETTINGS
@given(beliefs(), st.sampled_from([10.0, 50.0]))
def test_pseudo_update_invariants(bel, noise):
    _, _, cov = bel
    P1 = pseudo_update(cov, OBSERVATION_MATRIX, np.diag([noise, noise]))
    _assert_covariance(P1)
    # a detection never adds uncertainty
    shrink = cov - P1
    assert np.linalg.eigvalsh(0.5 * (shrink + shrink.T))[0] >= -1e-9 * np.abs(cov).max()


@SETTINGS
@given(beliefs(), probabilities, st.sampled_from([10.0, 50.0]),
       st.sampled_from([1.0, 80.0]))
def test_merge_and_cost_invariants(bel, pd_bar, noise, c):
    P1 = pseudo_update(bel[2], OBSERVATION_MATRIX, np.diag([noise, noise]))
    r_miss, p = branch_weights(bel[0], pd_bar)
    assert 0.0 <= r_miss <= 1.0 and 0.0 <= p <= 1.0
    r, mean, cov = merge_hypotheses(bel, P1, pd_bar)
    assert 0.0 <= r <= 1.0
    assert np.allclose(mean, bel[1], rtol=1e-15, atol=0.0)
    _assert_covariance(cov)
    cost = node_cost(bel, P1, pd_bar, c)
    assert np.isfinite(cost) and cost >= 0.0


BOUNDS = Bounds(0.0, 100.0, 0.0, 100.0)
OBSTACLES = ObstacleMap(((np.array([[40.0, 40.0], [60.0, 40.0], [60.0, 60.0],
                                    [40.0, 60.0]])),))


def _env(p_detect):
    return PlanningEnv(motion=_motion(0.99, 0.05), obstacles=OBSTACLES, bounds=BOUNDS,
                       fov_radius=12.0, step_size=6.0, num_actions=6,
                       p_detect=p_detect, H=OBSERVATION_MATRIX,
                       r_low=10.0, r_high=50.0, c=20.0)


positions = arrays(float, 2, elements=st.floats(0.0, 100.0)).filter(
    lambda p: not OBSTACLES.blocks(p))


@SETTINGS
@given(beliefs(), st.sampled_from([0.0, 0.9, 1.0]), positions)
def test_every_planner_returns_a_feasible_action(bel, p_detect, position):
    env = _env(p_detect)
    feasible = {a.id: a.target_position for a in env.actions_from(position)}
    cfg = PlannerConfig(horizon=3, discount=0.7, budget=6)
    actions = [nearest_sensor_plan(bel, position, env),
               myopic_plan(bel, position, env),
               kl_plan(bel, position, env),
               mcts_search(bel, position, env, cfg).action]
    for action in actions:
        assert action.id in feasible
        assert np.array_equal(action.target_position, feasible[action.id])
        assert BOUNDS.contains(action.target_position)
        assert not OBSTACLES.blocks(action.target_position)
