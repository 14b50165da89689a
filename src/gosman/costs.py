"""Closed-form planning arithmetic.

Planning works under simplifying assumptions: no clutter, a single
Gaussian component, either no measurement or one ideal measurement at
the predicted mean, and a constant expected probability of detection.
Under these the one-step-ahead posterior has exactly two branches
(misdetection / detection) and the mean square GOSPA error of the
optimal-threshold set estimator admits a cheap closed-form upper bound,
which is the planning cost.

A planning belief is a plain ``(r, mean, bx, by)`` tuple of floats:
``mean`` is [px, vx, py, vy], and ``bx``, ``by`` hold the ``(p, c, v)``
entries of the x- and y-axis [position, velocity] covariance blocks,
as in the filter's ``AxisGaussian``. The detection branch is the
filter's per-axis Kalman block update; the rest is scalar arithmetic,
which at a unit time step equals the 4 x 4 matrix products bit for bit.
``tests/test_planning_kernel.py`` checks that, and the invariants
(r in [0, 1], PSD blocks) at the extremes.
"""

from typing import Tuple

from .bernoulli import kalman_block, threshold_for_trace


def pseudo_update(pred: tuple, noise: float) -> tuple:
    """Detection-branch blocks ``(bx, by)`` of the two-branch pseudo-update.

    The ideal measurement sits at the predicted mean, so both branches
    keep it and the misdetection branch keeps the predicted covariance;
    detection applies the Kalman update of a position measurement with
    variance ``noise`` per axis. Callers reuse it across the actions of a
    noise class, as it does not depend on the detection probability.
    """
    return kalman_block(pred[2], noise)[1], kalman_block(pred[3], noise)[1]


def branch_weights(r: float, pd_bar: float) -> Tuple[float, float]:
    """Misdetection-branch existence and probability of the detection event.

    Detection makes existence certain (r = 1).
    """
    denom = 1.0 - r + (1.0 - pd_bar) * r
    r_miss = (1.0 - pd_bar) * r / denom if denom > 0.0 else 0.0
    return r_miss, pd_bar * r


def msgospa_cost_at_threshold(threshold: float, r: float, tr: float, c: float) -> float:
    """MSGOSPA upper bound of the set estimator with a given threshold and position trace."""
    if r <= threshold:
        return 0.5 * c * c * r
    return 0.5 * c * c * (1.0 - r) + r * min(tr, c * c)


def msgospa_bound(r: float, tr: float, c: float) -> float:
    """Upper bound on the MSGOSPA error at the optimal detection threshold."""
    return msgospa_cost_at_threshold(threshold_for_trace(tr, c), r, tr, c)


def node_cost(pred: tuple, detect: tuple, pd_bar: float, c: float) -> float:
    """Expected planning cost over the two observations; ``detect`` is ``(bx, by)``."""
    r, _, bx, by = pred
    r_miss, p = branch_weights(r, pd_bar)
    miss = msgospa_bound(r_miss, bx[0] + by[0], c)
    hit = msgospa_bound(1.0, detect[0][0] + detect[1][0], c)
    return (1.0 - p) * miss + p * hit


def merge_hypotheses(pred: tuple, detect: tuple, pd_bar: float) -> tuple:
    """Moment-match the two branches into one ``(r, mean, bx, by)`` belief.

    Both branches share the predicted mean, so the merge keeps it as it is
    and the mean-spread term is zero; existence and covariance combine
    element by element with the detection-event weights. (Weighting the
    shared mean as well would round it, and flush a subnormal to zero.)
    """
    r, mean, (p, c, v), (P, C, V) = pred
    (p1, c1, v1), (P1, C1, V1) = detect
    r_miss, w1 = branch_weights(r, pd_bar)
    w0 = 1.0 - w1
    return (min(w0 * r_miss + w1, 1.0), tuple(mean),
            (w0 * p + w1 * p1, w0 * c + w1 * c1, w0 * v + w1 * v1),
            (w0 * P + w1 * P1, w0 * C + w1 * C1, w0 * V + w1 * V1))
