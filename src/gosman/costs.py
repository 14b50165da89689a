"""Closed-form planning arithmetic.

Planning works under simplifying assumptions: no clutter, a single
Gaussian component, either no measurement or one ideal measurement at
the predicted mean, and a constant expected probability of detection.
Under these the one-step-ahead posterior has exactly two branches
(misdetection / detection) and the mean square GOSPA error of the
optimal-threshold set estimator admits a cheap closed-form upper bound,
which is the planning cost.

A planning belief is a plain ``(r, mean, cov)`` tuple: these functions
take and return arrays, and the validated ``BernoulliDensity`` exists
only at the filter boundary. Covariances are symmetrised where the
filter's constructors would do it, without their eigenvalue check;
``tests/test_planning_kernel.py`` checks at the extremes that r stays
in [0, 1] and covariances stay positive semi-definite.
"""

from typing import NamedTuple, Tuple

import numpy as np

from .bernoulli import position_trace, threshold_for_trace


def pseudo_update(cov: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Detection-branch covariance of the two-branch pseudo-update.

    The ideal measurement sits at the predicted mean, so both branches
    keep the predicted mean and the misdetection branch keeps the
    predicted covariance; detection applies the Kalman covariance
    update. It depends on the noise class only, not on the detection
    probability, so callers reuse it across actions of the same class.
    """
    S = H @ cov @ H.T + R
    S_inv = np.linalg.inv(S)
    P1 = cov - cov @ H.T @ S_inv @ H @ cov
    return 0.5 * (P1 + P1.T)


def branch_weights(r: float, pd_bar: float) -> Tuple[float, float]:
    """Misdetection-branch existence and probability of the detection event.

    Detection makes existence certain (r = 1).
    """
    denom = 1.0 - r + (1.0 - pd_bar) * r
    r_miss = (1.0 - pd_bar) * r / denom if denom > 0.0 else 0.0
    return r_miss, pd_bar * r


class BoundResult(NamedTuple):
    cost: float
    threshold: float


def _cost_at_threshold(threshold: float, r: float, tr: float, c: float) -> float:
    if r <= threshold:
        return 0.5 * c * c * r
    return 0.5 * c * c * (1.0 - r) + r * min(tr, c * c)


def msgospa_cost_at_threshold(threshold: float, r: float, cov: np.ndarray,
                              c: float) -> float:
    """MSGOSPA upper bound of the set estimator with a given threshold."""
    return _cost_at_threshold(threshold, r, position_trace(cov), c)


def msgospa_bound(r: float, cov: np.ndarray, c: float) -> BoundResult:
    """Upper bound on the MSGOSPA error at the optimal detection threshold."""
    tr = position_trace(cov)
    threshold = threshold_for_trace(tr, c)
    return BoundResult(_cost_at_threshold(threshold, r, tr, c), threshold)


def node_cost(pred: tuple, detect_cov: np.ndarray, pd_bar: float, c: float) -> float:
    """Expected planning cost over the two observation hypotheses."""
    r, _, cov = pred
    r_miss, p = branch_weights(r, pd_bar)
    miss = msgospa_bound(r_miss, cov, c).cost
    detect = msgospa_bound(1.0, detect_cov, c).cost
    return (1.0 - p) * miss + p * detect


def merge_hypotheses(pred: tuple, detect_cov: np.ndarray, pd_bar: float) -> tuple:
    """Moment-match the two branches into one ``(r, mean, cov)`` belief.

    r, mean and covariance combine linearly with the detection-event
    weights. The mean-spread term of a full moment match is zero because
    both branches share the predicted mean. Both covariances are
    symmetric, so their weighted sum is too, bit for bit.
    """
    r, mean, cov = pred
    r_miss, w1 = branch_weights(r, pd_bar)
    w0 = 1.0 - w1
    return (min(w0 * r_miss + w1, 1.0), w0 * mean + w1 * mean,
            w0 * cov + w1 * detect_cov)
