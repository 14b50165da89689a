"""Unit tests for the closed-form planning costs."""

import numpy as np
import pytest

from gosman.bernoulli import threshold_for_trace
from gosman.costs import (branch_weights, merge_hypotheses, msgospa_bound,
                          msgospa_cost_at_threshold, node_cost, pseudo_update)

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
R10 = np.diag([10.0, 10.0])


def _single(r=0.6):
    """A planning belief ``(r, mean, bx, by)``: x block (40, 3, 9), y block (30, -2, 9)."""
    return r, (1.0, 0.5, -2.0, 0.1), (40.0, 3.0, 9.0), (30.0, -2.0, 9.0)


def _cov(bx, by):
    """The [px, vx, py, vy] covariance of two per-axis blocks."""
    cov = np.zeros((4, 4))
    for i, (p, c, v) in ((0, bx), (2, by)):
        cov[i:i + 2, i:i + 2] = [[p, c], [c, v]]
    return cov


def test_pseudo_update_branches():
    pred = _single()
    cov = _cov(pred[2], pred[3])
    # misdetection branch deflates existence and keeps the moments
    r_miss, p = branch_weights(0.6, 0.8)
    assert r_miss == pytest.approx(0.2 * 0.6 / (0.4 + 0.2 * 0.6))
    # detection branch is certain and applies the Kalman covariance update
    S = H2 @ cov @ H2.T + R10
    P1 = cov - cov @ H2.T @ np.linalg.inv(S) @ H2 @ cov
    got = _cov(*pseudo_update(pred, 10.0))
    assert got == pytest.approx(P1)
    assert p == pytest.approx(0.48)


def test_pseudo_update_zero_pd_keeps_existence():
    r_miss, p = branch_weights(0.6, 0.0)
    assert r_miss == pytest.approx(0.6)
    assert p == 0.0


def test_cost_below_threshold():
    c = 20.0
    assert msgospa_cost_at_threshold(0.5, 0.3, 20.0, c) == pytest.approx(
        0.5 * c * c * 0.3)


def test_cost_above_threshold():
    c = 20.0
    got = msgospa_cost_at_threshold(0.5, 0.9, 20.0, c)
    assert got == pytest.approx(0.5 * c * c * 0.1 + 0.9 * 20.0)


def test_cost_trace_saturates_at_cutoff():
    c = 20.0
    got = msgospa_cost_at_threshold(0.0, 1.0, 2e6, c)
    assert got == pytest.approx(c * c)


def test_bound_threshold_matches_closed_form():
    c, tr = 20.0, 70.0
    thr = 1.0 / (2.0 - 2.0 * tr / (c * c))
    assert threshold_for_trace(tr, c) == pytest.approx(thr)
    assert msgospa_bound(0.7, tr, c) == msgospa_cost_at_threshold(thr, 0.7, tr, c)


def test_bound_is_continuous_at_threshold():
    c, tr = 20.0, 70.0
    thr = threshold_for_trace(tr, c)
    below = msgospa_cost_at_threshold(thr, thr - 1e-9, tr, c)
    above = msgospa_cost_at_threshold(thr, thr + 1e-9, tr, c)
    assert below == pytest.approx(above, abs=1e-5)


def test_node_cost_mixes_branches():
    pred = _single(0.6)
    detect = pseudo_update(pred, 10.0)
    r_miss, _ = branch_weights(0.6, 0.8)
    c = 20.0
    # the bound takes the trace of each branch's position covariance
    miss = msgospa_bound(r_miss, 40.0 + 30.0, c)
    det = msgospa_bound(1.0, float(np.trace(_cov(*detect)[::2, ::2])), c)
    expected = (1.0 - 0.48) * miss + 0.48 * det
    assert node_cost(pred, detect, 0.8, c) == pytest.approx(expected)


def test_merge_linear():
    pred = _single(0.6)
    detect = pseudo_update(pred, 10.0)
    r_miss, w1 = branch_weights(0.6, 0.8)
    r, mean, bx, by = merge_hypotheses(pred, detect, 0.8)
    assert r == pytest.approx((1 - w1) * r_miss + w1 * 1.0)
    assert mean == pytest.approx(pred[1])
    assert _cov(bx, by) == pytest.approx(
        (1 - w1) * _cov(pred[2], pred[3]) + w1 * _cov(*detect))

