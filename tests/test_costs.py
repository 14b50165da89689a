"""Unit tests for the closed-form planning costs."""

import numpy as np
import pytest

from gosman.bernoulli import BernoulliDensity, Gaussian, LinearSensor
from gosman.costs import (merge_hypotheses, msgospa_bound,
                          msgospa_cost_at_threshold, node_cost, pseudo_update)

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def _single(r=0.6, mean=None, cov=None):
    mean = np.array([1.0, 0.5, -2.0, 0.1]) if mean is None else mean
    cov = np.diag([40.0, 9.0, 30.0, 9.0]) if cov is None else cov
    return BernoulliDensity(r, np.array([1.0]), (Gaussian(mean, cov),))


def _sensor(r_val=10.0):
    return LinearSensor(H2, np.diag([r_val, r_val]))


def test_pseudo_update_branches():
    pred = _single(0.6)
    pair = pseudo_update(pred, _sensor(), pd_bar=0.8)
    # misdetection branch deflates existence, keeps moments
    expected_miss = 0.2 * 0.6 / (0.4 + 0.2 * 0.6)
    assert pair.miss_r == pytest.approx(expected_miss)
    assert pair.miss.cov == pytest.approx(pred.components[0].cov)
    # detection branch is certain and applies the Kalman covariance update
    assert pair.detect_r == 1.0
    assert pair.detect.mean == pytest.approx(pred.components[0].mean)
    g = pred.components[0]
    S = H2 @ g.cov @ H2.T + np.diag([10.0, 10.0])
    P1 = g.cov - g.cov @ H2.T @ np.linalg.inv(S) @ H2 @ g.cov
    assert pair.detect.cov == pytest.approx(P1)
    assert pair.p_detect_event == pytest.approx(0.48)


def test_pseudo_update_requires_single_component():
    g = Gaussian(np.zeros(4), np.eye(4))
    mixture = BernoulliDensity(0.5, np.array([0.5, 0.5]), (g, g))
    with pytest.raises(ValueError):
        pseudo_update(mixture, _sensor(), 0.5)


def test_pseudo_update_zero_pd_keeps_existence():
    pred = _single(0.6)
    pair = pseudo_update(pred, _sensor(), pd_bar=0.0)
    assert pair.miss_r == pytest.approx(0.6)
    assert pair.p_detect_event == 0.0


def test_cost_below_threshold():
    cov = np.diag([10.0, 0.0, 10.0, 0.0])
    c = 20.0
    assert msgospa_cost_at_threshold(0.5, 0.3, cov, c) == pytest.approx(
        0.5 * c * c * 0.3)


def test_cost_above_threshold():
    cov = np.diag([10.0, 0.0, 10.0, 0.0])
    c = 20.0
    got = msgospa_cost_at_threshold(0.5, 0.9, cov, c)
    assert got == pytest.approx(0.5 * c * c * 0.1 + 0.9 * 20.0)


def test_cost_trace_saturates_at_cutoff():
    cov = np.diag([1e6, 0.0, 1e6, 0.0])
    c = 20.0
    got = msgospa_cost_at_threshold(0.0, 1.0, cov, c)
    assert got == pytest.approx(c * c)


def test_bound_threshold_matches_closed_form():
    cov = np.diag([30.0, 0.0, 40.0, 0.0])
    c = 20.0
    res = msgospa_bound(0.7, cov, c)
    tr = 70.0
    assert res.threshold == pytest.approx(1.0 / (2.0 - 2.0 * tr / (c * c)))


def test_bound_is_continuous_at_threshold():
    cov = np.diag([30.0, 0.0, 40.0, 0.0])
    c = 20.0
    thr = msgospa_bound(0.5, cov, c).threshold
    below = msgospa_cost_at_threshold(thr, thr - 1e-9, cov, c)
    above = msgospa_cost_at_threshold(thr, thr + 1e-9, cov, c)
    assert below == pytest.approx(above, abs=1e-5)


def test_node_cost_mixes_branches():
    pred = _single(0.6)
    pair = pseudo_update(pred, _sensor(), pd_bar=0.8)
    c = 20.0
    miss = msgospa_bound(pair.miss_r, pair.miss.cov, c).cost
    det = msgospa_bound(1.0, pair.detect.cov, c).cost
    expected = (1.0 - 0.48) * miss + 0.48 * det
    assert node_cost(pair, c) == pytest.approx(expected)


def test_merge_linear():
    pred = _single(0.6)
    pair = pseudo_update(pred, _sensor(), pd_bar=0.8)
    merged = merge_hypotheses(pair)
    w1 = pair.p_detect_event
    assert merged.r == pytest.approx((1 - w1) * pair.miss_r + w1 * 1.0)
    assert len(merged.components) == 1
    g = merged.components[0]
    assert g.mean == pytest.approx(pred.components[0].mean)
    assert g.cov == pytest.approx((1 - w1) * pair.miss.cov + w1 * pair.detect.cov)

