"""Unit tests for the Bernoulli filter recursion."""

import numpy as np
import pytest

from gosman.bernoulli import (AxisGaussian, BernoulliDensity, Gaussian,
                              empty_density, extract_estimate, make_psd,
                              ncv_motion_model, predict, reduce, threshold_for_trace,
                              update)

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def _model(p_survival=0.99, p_birth=0.01, q=1.0):
    return ncv_motion_model(1.0, q, p_survival, p_birth,
                            np.zeros(4), [100.0, 25.0, 100.0, 25.0])


def _single(r, mean=None, bx=(50.0, 0.0, 10.0), by=(50.0, 0.0, 10.0)):
    mean = np.zeros(4) if mean is None else np.asarray(mean, dtype=float)
    return BernoulliDensity(r, np.array([1.0]), (AxisGaussian(mean, bx, by),))


def test_make_psd_repairs_tiny_negatives():
    cov = np.diag([1.0, -1e-12])
    out = make_psd(cov)
    assert np.all(np.linalg.eigvalsh(out) >= 0.0)


def test_make_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        make_psd(np.diag([1.0, -0.5]))


def test_make_psd_tolerance_follows_the_scale():
    # rounding error of a covariance grows with its largest eigenvalue
    out = make_psd(np.diag([1e10, -1e-5]))
    assert np.array_equal(out, np.diag([1e10, 0.0]))
    with pytest.raises(ValueError):
        make_psd(np.diag([1e10, -100.0]))


def test_update_at_covariance_scale_1e10():
    # a detection at the predicted position cancels most of a huge
    # covariance; the rounding left over must not make a block indefinite
    for seed in range(20):
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(2):
            a = rng.standard_normal((2, 2))
            m = 1e10 * (a @ a.T + 1e-3 * np.eye(2))
            blocks.append((m[0, 0], m[0, 1], m[1, 1]))
        pred = _single(0.5, rng.standard_normal(4), *blocks)
        z = H2 @ pred.components[0].mean
        post = update(pred, [z], 1e-6, pd_bar=0.9, clutter_intensity=1e-4)
        assert 0.0 < post.r <= 1.0 and len(post.components) == 2
        for g in post.components:
            w = np.linalg.eigvalsh(g.cov)
            assert w[0] >= -1e-9 * w[-1]


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
    assert pred.components[0] is model.birth


def test_predict_kalman_moments():
    model = _model(p_birth=0.0)
    prior = _single(1.0, mean=np.array([1.0, 2.0, 3.0, 4.0]))
    pred = predict(prior, model)
    g = pred.components[0]
    assert g.mean == pytest.approx(model.F @ prior.components[0].mean)
    expected_cov = model.F @ prior.components[0].cov @ model.F.T + model.Q
    assert g.cov == pytest.approx(expected_cov)


def test_update_no_measurement_deflates_existence():
    pred = _single(0.8)
    post = update(pred, [], 10.0, pd_bar=0.9, clutter_intensity=1e-4)
    expected = 0.8 * (1.0 - 0.9) / (1.0 - 0.8 * 0.9)
    assert post.r == pytest.approx(expected)
    # misdetection keeps the spatial density unchanged
    assert post.components[0].mean == pytest.approx(pred.components[0].mean)


def test_update_zero_pd_is_identity():
    pred = _single(0.8)
    post = update(pred, [], 10.0, pd_bar=0.0, clutter_intensity=1e-4)
    assert post.r == pytest.approx(0.8)


def test_update_close_measurement_raises_existence():
    pred = _single(0.5)
    post = update(pred, [np.array([1.0, -1.0])], 10.0,
                  pd_bar=0.9, clutter_intensity=1e-4)
    assert post.r > 0.95


def test_update_single_component_matches_kalman():
    R = np.diag([10.0, 10.0])
    pred = _single(0.5)
    z = np.array([2.0, -3.0])
    post = update(pred, [z], 10.0, pd_bar=0.9, clutter_intensity=1e-4)
    # detection hypothesis dominates; compare with the Kalman update
    g0 = pred.components[0]
    S = H2 @ g0.cov @ H2.T + R
    K = g0.cov @ H2.T @ np.linalg.inv(S)
    det = [g for g in post.components if not np.allclose(g.mean, g0.mean)]
    assert det[0].mean == pytest.approx(g0.mean + K @ z)
    assert det[0].cov == pytest.approx(g0.cov - K @ H2 @ g0.cov, abs=1e-9)


def test_update_zero_clutter_detection_is_certain():
    pred = _single(0.3)
    post = update(pred, [np.array([0.5, 0.5])], 10.0,
                  pd_bar=0.9, clutter_intensity=0.0)
    assert post.r == 1.0
    assert len(post.components) == 1


def test_update_zero_clutter_rejects_two_measurements():
    with pytest.raises(ValueError):
        update(_single(0.3), [np.zeros(2), np.ones(2)], 10.0, 0.9, 0.0)


def test_update_far_measurement_acts_like_clutter():
    pred = _single(0.5)
    post = update(pred, [np.array([1e6, 1e6])], 10.0,
                  pd_bar=0.9, clutter_intensity=1e-4)
    expected = 0.5 * (1.0 - 0.9) / (1.0 - 0.5 * 0.9)
    assert post.r == pytest.approx(expected, rel=1e-6)


def _mvn_pdf(z, mean, cov):
    d = z - mean
    return float(np.exp(-0.5 * d @ np.linalg.solve(cov, d))
                 / (2.0 * np.pi * np.sqrt(np.linalg.det(cov))))


def test_update_mixture_in_clutter_matches_hand_enumeration():
    R = np.diag([2.0, 2.0])
    r, pd_bar, lam = 0.6, 0.8, 2e-3
    w = np.array([0.3, 0.7])
    comps = (AxisGaussian(np.array([0.0, 1.0, 0.0, -1.0]), (4.0, 0.5, 1.0), (4.0, 0.0, 1.0)),
             AxisGaussian(np.array([5.0, 0.0, 3.0, 0.5]), (9.0, 0.0, 2.0), (2.0, -0.3, 1.0)))
    pred = BernoulliDensity(r, w, comps)
    Z = [np.array([1.0, 0.5]), np.array([4.0, 2.5])]
    post = update(pred, Z, 2.0, pd_bar, lam)

    # misdetection of each component, then one detection per (measurement, component)
    want_w = [wi * (1.0 - pd_bar) for wi in w]
    want_g = [(g.mean, g.cov) for g in comps]
    like_total = 0.0
    for z in Z:
        for wi, g in zip(w, comps):
            S = H2 @ g.cov @ H2.T + R
            K = g.cov @ H2.T @ np.linalg.inv(S)
            like = wi * _mvn_pdf(z, H2 @ g.mean, S)
            like_total += like
            want_w.append(pd_bar * like / lam)
            want_g.append((g.mean + K @ (z - H2 @ g.mean), g.cov - K @ S @ K.T))
    delta = pd_bar * (1.0 - like_total / lam)
    assert post.r == pytest.approx(r * (1.0 - delta) / (1.0 - r * delta), rel=1e-12)
    assert post.weights == pytest.approx(np.array(want_w) / sum(want_w), rel=1e-12)
    assert len(post.components) == 6
    for got, (mean, cov) in zip(post.components, want_g):
        assert got.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert got.cov == pytest.approx(cov, rel=1e-12, abs=1e-12)


def test_update_empty_prior_stays_empty():
    post = update(empty_density(), [np.zeros(2)], 10.0, 0.9, 1e-4)
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


def test_optimal_threshold_limits():
    # vanishing uncertainty: report whenever existence is better than even
    assert threshold_for_trace(0.0, c=10.0) == pytest.approx(0.5)
    # huge uncertainty: threshold grows to 1
    assert threshold_for_trace(2e6, c=10.0) == pytest.approx(1.0)


def test_extract_estimate_threshold_behaviour():
    # the threshold follows the trace of the position variances; the
    # velocity variances would raise it to 1
    block = (1.0, 0.0, 1e3)
    d = _single(threshold_for_trace(2.0, c=10.0), np.array([5.0, 0.0, 6.0, 0.0]), block, block)
    est = extract_estimate(d, c=10.0)
    assert len(est) == 1
    assert est[0] == pytest.approx([5.0, 0.0, 6.0, 0.0])
    low = _single(0.4, None, block, block)
    assert extract_estimate(low, c=10.0) == []
    assert extract_estimate(empty_density(), c=10.0) == []
