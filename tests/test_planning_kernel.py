"""Tests of the per-axis planning kernel.

The planners work on plain ``(r, mean, bx, by)`` beliefs, whose
covariance is two per-axis [position, velocity] blocks ``(p, c, v)``,
without the filter's validating constructors. Two kinds of check:

* Against a 4 x 4 reference: the matrix formulas the kernel replaces
  (Kalman pseudo-update, prediction, moment-matched merge, bound and
  Gaussian divergence), kept here as a test-only oracle. At a unit time
  step the kernel gives the reference's bits, since the cross-axis zeros
  and the unit entries of F make every product exact; at other time
  steps BLAS may fuse multiply-adds, so the tolerance is 1e-12. The
  divergence is a closed form against LU and log-determinants, equal to
  rounding only.
* Invariants the constructors would enforce: r in [0, 1], symmetric
  positive semi-definite covariances, finite non-negative costs, and a
  feasible action from every planner. The extremes: a detection
  probability of 0 or 1, existence of 0 or 1, and covariances from 1e-6
  to 1e8.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gosman.bernoulli import (AxisGaussian, BernoulliDensity, ncv_motion_model,
                              predict, reduce, threshold_for_trace)
from gosman.costs import branch_weights, merge_hypotheses, node_cost, pseudo_update
from gosman.planners import (PlannerConfig, PlanningEnv, _predict_reduced, gaussian_kl,
                             kl_plan, mcts_search, myopic_plan,
                             nearest_sensor_plan, planning_belief)
from gosman.sensors import Bounds, ObstacleMap

SETTINGS = settings(max_examples=60, deadline=None)
SCALES = (1e-6, 1.0, 1e8)
NOISES = (10.0, 50.0)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def blocks(draw, scale):
    """One axis's (p, c, v) block of a positive definite covariance."""
    a = draw(arrays(float, (2, 2), elements=st.floats(-1.0, 1.0)))
    m = scale * (a @ a.T + 1e-3 * np.eye(2))
    return float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1])


@st.composite
def beliefs(draw):
    """A planning belief whose blocks share one of the extreme scales."""
    scale = draw(st.sampled_from(SCALES))
    mean = tuple(draw(arrays(float, 4, elements=st.floats(0.0, 100.0))).tolist())
    return draw(probabilities), mean, draw(blocks(scale)), draw(blocks(scale))


def _cov(bx, by):
    """The [px, vx, py, vy] covariance of two per-axis blocks."""
    cov = np.zeros((4, 4))
    for i, (p, c, v) in ((0, bx), (2, by)):
        cov[i:i + 2, i:i + 2] = [[p, c], [c, v]]
    return cov


def _assert_close(got, want, rel):
    assert np.all(np.abs(np.asarray(got) - want) <= rel * np.abs(want).max())


def _assert_psd(bx, by):
    cov = _cov(bx, by)
    assert np.all(np.isfinite(cov))
    assert np.linalg.eigvalsh(cov)[0] >= -1e-9 * np.abs(cov).max()


def _motion(p_survival, p_birth, tau=1.0):
    return ncv_motion_model(tau, 2.0, p_survival, p_birth,
                            np.array([50.0, 0.0, 50.0, 0.0]), [200.0, 25.0, 200.0, 25.0])


BOUNDS = Bounds(0.0, 100.0, 0.0, 100.0)
OBSTACLES = ObstacleMap(((np.array([[40.0, 40.0], [60.0, 40.0], [60.0, 60.0],
                                    [40.0, 60.0]])),))


def _env(p_detect=0.9, p_survival=0.99, p_birth=0.05, tau=1.0):
    return PlanningEnv(motion=_motion(p_survival, p_birth, tau), obstacles=OBSTACLES,
                       bounds=BOUNDS, fov_radius=12.0, step_size=6.0, num_actions=6,
                       p_detect=p_detect, r_low=10.0, r_high=50.0, c=20.0)


# ---------------------------------------------------------------------------
# the 4 x 4 reference


def _ref_pseudo_update(cov, noise):
    H, R = np.eye(4)[[0, 2]], noise * np.eye(2)
    S = H @ cov @ H.T + R
    P1 = cov - cov @ H.T @ np.linalg.inv(S) @ H @ cov
    return 0.5 * (P1 + P1.T)


def _ref_predict(mean, cov, motion):
    F = motion.F
    cov = F @ cov @ F.T + motion.Q
    return F @ np.asarray(mean), 0.5 * (cov + cov.T)


def _ref_bound(r, cov, c):
    tr = float(cov[[0, 2], [0, 2]].sum())
    if r <= threshold_for_trace(tr, c):
        return 0.5 * c * c * r
    return 0.5 * c * c * (1.0 - r) + r * min(tr, c * c)


def _ref_gaussian_kl(post_cov, pred_cov):
    """KL(predicted || posterior) of two Gaussians with the same mean."""
    return 0.5 * (float(np.trace(np.linalg.inv(post_cov) @ pred_cov))
                  - (np.linalg.slogdet(pred_cov)[1] - np.linalg.slogdet(post_cov)[1])
                  - len(pred_cov))


@SETTINGS
@given(beliefs(), probabilities, st.sampled_from(NOISES), st.sampled_from([1.0, 80.0]))
def test_kernel_matches_4x4_reference(bel, pd_bar, noise, c):
    r, mean, bx, by = bel
    cov = _cov(bx, by)
    detect = pseudo_update(bel, noise)
    P1 = _ref_pseudo_update(cov, noise)
    assert np.array_equal(_cov(*detect), P1)

    r_miss, p = branch_weights(r, pd_bar)
    want = (1.0 - p) * _ref_bound(r_miss, cov, c) + p * _ref_bound(1.0, P1, c)
    assert node_cost(bel, detect, pd_bar, c) == want

    r_m, mean_m, bx_m, by_m = merge_hypotheses(bel, detect, pd_bar)
    assert r_m == min((1.0 - p) * r_miss + p, 1.0)
    assert mean_m == tuple(mean)
    assert np.array_equal(_cov(bx_m, by_m), (1.0 - p) * cov + p * P1)

    gauss = gaussian_kl(detect[0], bx) + gaussian_kl(detect[1], by)
    want = _ref_gaussian_kl(P1, cov)
    assert abs(gauss - want) <= 1e-12 * max(abs(want), 1.0)


@SETTINGS
@given(beliefs(), st.sampled_from([1.0, 0.1, 2.5]))
def test_predict_reduced_matches_4x4_reference(bel, tau):
    env = _env(p_survival=1.0, p_birth=0.0, tau=tau)
    assume(bel[0] > 0.0)
    r, mean, bx, by = _predict_reduced(bel, env)
    want_mean, want_cov = _ref_predict(bel[1], _cov(bel[2], bel[3]), env.motion)
    rel = 0.0 if tau == 1.0 else 1e-12
    assert r == bel[0]
    _assert_close(mean, want_mean, rel)
    _assert_close(_cov(bx, by), want_cov, rel)


# ---------------------------------------------------------------------------
# invariants at the extremes


@SETTINGS
@given(beliefs(), probabilities, probabilities)
def test_predict_reduced_invariants(bel, p_survival, p_birth):
    env = _env(p_survival=p_survival, p_birth=p_birth)
    r, mean, bx, by = _predict_reduced(bel, env)
    assert 0.0 <= r <= 1.0
    assert len(mean) == 4
    _assert_psd(bx, by)

    # the filter's predict-then-reduce keeps the same component
    r0 = bel[0]
    r_birth, r_surv = p_birth * (1.0 - r0), p_survival * r0
    assume(r_birth + r_surv > 0.0)
    assume(abs(r_surv - r_birth) > 1e-9 * max(r_surv, r_birth))
    density = BernoulliDensity(r0, np.array([1.0]),
                               (AxisGaussian(np.array(bel[1]), bel[2], bel[3]),))
    want = planning_belief(reduce(predict(density, env.motion), max_components=1))
    assert r == want[0]
    assert mean == want[1]
    _assert_close(_cov(bx, by), _cov(want[2], want[3]), 1e-12)


def test_predict_reduced_tie_keeps_survivor():
    env = _env(p_survival=0.3, p_birth=0.3)
    mean = np.array([10.0, 1.0, 20.0, -1.0])
    unit = (1.0, 0.0, 1.0)
    density = BernoulliDensity(0.5, np.array([1.0]), (AxisGaussian(mean, unit, unit),))
    want = planning_belief(reduce(predict(density, env.motion), max_components=1))
    r, got_mean, _, _ = _predict_reduced(planning_belief(density), env)
    assert r == want[0]
    assert got_mean == want[1]
    assert got_mean == tuple(env.motion.F @ mean)


@SETTINGS
@given(beliefs(), st.sampled_from(NOISES))
def test_pseudo_update_invariants(bel, noise):
    dx, dy = pseudo_update(bel, noise)
    _assert_psd(dx, dy)
    # a detection never adds uncertainty
    cov = _cov(bel[2], bel[3])
    shrink = cov - _cov(dx, dy)
    assert np.linalg.eigvalsh(shrink)[0] >= -1e-9 * np.abs(cov).max()


@SETTINGS
@given(beliefs(), probabilities, st.sampled_from(NOISES), st.sampled_from([1.0, 80.0]))
def test_merge_and_cost_invariants(bel, pd_bar, noise, c):
    detect = pseudo_update(bel, noise)
    r_miss, p = branch_weights(bel[0], pd_bar)
    assert 0.0 <= r_miss <= 1.0 and 0.0 <= p <= 1.0
    r, mean, bx, by = merge_hypotheses(bel, detect, pd_bar)
    assert 0.0 <= r <= 1.0
    assert np.allclose(mean, bel[1], rtol=1e-15, atol=0.0)
    _assert_psd(bx, by)
    cost = node_cost(bel, detect, pd_bar, c)
    assert np.isfinite(cost) and cost >= 0.0


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


def test_axis_belief_round_trip():
    # a filter component's blocks reach the planner as they are, as plain floats
    g = AxisGaussian(np.arange(4.0), (4.0, 1.0, 2.0), (9.0, -3.0, 5.0))
    belief = planning_belief(BernoulliDensity(np.float64(0.5), np.array([1.0]), (g,)))
    assert belief == (0.5, (0.0, 1.0, 2.0, 3.0), (4.0, 1.0, 2.0), (9.0, -3.0, 5.0))
    assert all(type(x) is float for x in (belief[0], *belief[1]))
    assert np.array_equal(_cov(belief[2], belief[3]), g.cov)
