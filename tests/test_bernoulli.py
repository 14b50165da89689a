"""Unit tests for the Bernoulli filter recursion."""

import numpy as np
import pytest

from gosman.bernoulli import (BernoulliDensity, Gaussian, LinearSensor,
                              empty_density, extract_estimate, make_psd,
                              ncv_motion_model, optimal_threshold,
                              position_trace, predict, reduce, update)

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def _model(p_survival=0.99, p_birth=0.01, q=1.0):
    return ncv_motion_model(1.0, q, p_survival, p_birth,
                            np.zeros(4), np.diag([100.0, 25.0, 100.0, 25.0]))


def _single(r, mean=None, cov=None):
    mean = np.zeros(4) if mean is None else mean
    cov = np.diag([50.0, 10.0, 50.0, 10.0]) if cov is None else cov
    return BernoulliDensity(r, np.array([1.0]), (Gaussian(mean, cov),))


def test_make_psd_repairs_tiny_negatives():
    cov = np.diag([1.0, -1e-12])
    out = make_psd(cov)
    assert np.all(np.linalg.eigvalsh(out) >= 0.0)


def test_make_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        make_psd(np.diag([1.0, -0.5]))


def test_density_weight_normalisation():
    d = BernoulliDensity(0.5, np.array([2.0, 6.0]),
                         (Gaussian(np.zeros(2), np.eye(2)),
                          Gaussian(np.ones(2), np.eye(2))))
    assert d.weights == pytest.approx([0.25, 0.75])
    assert np.array_equal(d.top_component.mean, np.ones(2))


def test_density_validation():
    g = Gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        BernoulliDensity(1.5, np.array([1.0]), (g,))
    with pytest.raises(ValueError):
        BernoulliDensity(0.5, np.array([1.0, 1.0]), (g,))
    with pytest.raises(ValueError):
        BernoulliDensity(0.5)  # nonzero r with empty mixture
    with pytest.raises(ValueError):
        BernoulliDensity(0.5, np.array([1.0, -0.5]), (g, g))


def test_predict_existence_recursion():
    model = _model(p_survival=0.95, p_birth=0.02)
    prior = _single(0.6)
    pred = predict(prior, model)
    assert pred.r == pytest.approx(0.02 * 0.4 + 0.95 * 0.6)
    # birth component plus one survivor
    assert len(pred.components) == 2
    assert pred.weights[0] == pytest.approx(0.02 * 0.4 / pred.r)


def test_predict_from_empty_gives_birth_only():
    model = _model(p_birth=0.03)
    pred = predict(empty_density(), model)
    assert pred.r == pytest.approx(0.03)
    assert len(pred.components) == 1
    assert np.array_equal(pred.components[0].mean, model.birth.mean)


def test_predict_kalman_moments():
    model = _model(p_birth=0.0)
    prior = _single(1.0, mean=np.array([1.0, 2.0, 3.0, 4.0]))
    pred = predict(prior, model)
    g = pred.components[0]
    assert g.mean == pytest.approx(model.F @ prior.components[0].mean)
    expected_cov = model.F @ prior.components[0].cov @ model.F.T + model.Q
    assert g.cov == pytest.approx(expected_cov)


def test_update_no_measurement_deflates_existence():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    pred = _single(0.8)
    post = update(pred, [], sensor, pd_bar=0.9, clutter_intensity=1e-4)
    expected = 0.8 * (1.0 - 0.9) / (1.0 - 0.8 * 0.9)
    assert post.r == pytest.approx(expected)
    # misdetection keeps the spatial density unchanged
    assert post.components[0].mean == pytest.approx(pred.components[0].mean)


def test_update_zero_pd_is_identity():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    pred = _single(0.8)
    post = update(pred, [], sensor, pd_bar=0.0, clutter_intensity=1e-4)
    assert post.r == pytest.approx(0.8)


def test_update_close_measurement_raises_existence():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    pred = _single(0.5)
    post = update(pred, [np.array([1.0, -1.0])], sensor,
                  pd_bar=0.9, clutter_intensity=1e-4)
    assert post.r > 0.95


def test_update_single_component_matches_kalman():
    R = np.diag([10.0, 10.0])
    sensor = LinearSensor(H2, R)
    pred = _single(0.5)
    z = np.array([2.0, -3.0])
    post = update(pred, [z], sensor, pd_bar=0.9, clutter_intensity=1e-4)
    # detection hypothesis dominates; compare with the Kalman update
    g0 = pred.components[0]
    S = H2 @ g0.cov @ H2.T + R
    K = g0.cov @ H2.T @ np.linalg.inv(S)
    det = [g for g in post.components if not np.allclose(g.mean, g0.mean)]
    assert det[0].mean == pytest.approx(g0.mean + K @ z)
    assert det[0].cov == pytest.approx(g0.cov - K @ H2 @ g0.cov, abs=1e-9)


def test_update_zero_clutter_detection_is_certain():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    pred = _single(0.3)
    post = update(pred, [np.array([0.5, 0.5])], sensor,
                  pd_bar=0.9, clutter_intensity=0.0)
    assert post.r == 1.0
    assert len(post.components) == 1


def test_update_zero_clutter_rejects_two_measurements():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    with pytest.raises(ValueError):
        update(_single(0.3), [np.zeros(2), np.ones(2)], sensor, 0.9, 0.0)


def test_update_far_measurement_acts_like_clutter():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    pred = _single(0.5)
    post = update(pred, [np.array([1e6, 1e6])], sensor,
                  pd_bar=0.9, clutter_intensity=1e-4)
    expected = 0.5 * (1.0 - 0.9) / (1.0 - 0.5 * 0.9)
    assert post.r == pytest.approx(expected, rel=1e-6)


def test_update_empty_prior_stays_empty():
    sensor = LinearSensor(H2, np.diag([10.0, 10.0]))
    post = update(empty_density(), [np.zeros(2)], sensor, 0.9, 1e-4)
    assert post.r == 0.0


def test_reduce_prunes_and_caps():
    comps = tuple(Gaussian(np.full(2, float(i)), np.eye(2)) for i in range(4))
    d = BernoulliDensity(0.7, np.array([0.4, 0.3, 0.2, 0.1]), comps)
    out = reduce(d, max_components=2, prune_threshold=0.15)
    assert len(out.components) == 2
    assert out.weights == pytest.approx([0.4 / 0.7, 0.3 / 0.7])
    assert out.r == pytest.approx(0.7)


def test_reduce_keeps_best_when_all_pruned():
    comps = (Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.ones(2), np.eye(2)))
    d = BernoulliDensity(0.5, np.array([0.5, 0.5]), comps)
    out = reduce(d, max_components=1, prune_threshold=0.9)
    assert len(out.components) == 1
    assert out.weights == pytest.approx([1.0])


def test_position_trace_block():
    cov = np.diag([1.0, 2.0, 3.0, 4.0])
    assert position_trace(cov) == pytest.approx(4.0)
    assert position_trace(np.diag([5.0, 6.0])) == pytest.approx(11.0)


def test_optimal_threshold_limits():
    # vanishing uncertainty: report whenever existence is better than even
    assert optimal_threshold(np.zeros((2, 2)), c=10.0) == pytest.approx(0.5)
    # huge uncertainty: threshold grows to 1
    assert optimal_threshold(np.diag([1e6, 1e6]), c=10.0) == pytest.approx(1.0)


def test_extract_estimate_threshold_behaviour():
    cov = np.diag([1.0, 0.0, 1.0, 0.0])
    d = _single(0.9, mean=np.array([5.0, 0.0, 6.0, 0.0]), cov=cov)
    est = extract_estimate(d, c=10.0)
    assert len(est) == 1
    assert est[0] == pytest.approx([5.0, 0.0, 6.0, 0.0])
    low = _single(0.4, cov=cov)
    assert extract_estimate(low, c=10.0) == []
    assert extract_estimate(empty_density(), c=10.0) == []
