"""Closed-form planning arithmetic.

Planning works under simplifying assumptions: no clutter, a single
Gaussian component, either no measurement or one ideal measurement at
the predicted mean, and a constant expected probability of detection.
Under these the one-step-ahead posterior has exactly two branches
(misdetection / detection) and the mean square GOSPA error of the
optimal-threshold set estimator admits a cheap closed-form upper bound,
which is the planning cost.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bernoulli import (BernoulliDensity, Gaussian, LinearSensor, optimal_threshold,
                        position_trace)
from .gospa import POSITION_INDICES


@dataclass(frozen=True)
class HypothesisPair:
    """Misdetection / detection pseudo-posteriors for one action.

    Both branches share the predicted mean: the ideal measurement is
    placed exactly at the predicted measurement.
    """

    miss_r: float
    miss: Gaussian
    detect_r: float
    detect: Gaussian
    p_detect_event: float


def pseudo_update(pred: BernoulliDensity, sensor: LinearSensor,
                  pd_bar: float) -> HypothesisPair:
    """Two-branch pseudo-update for planning.

    Misdetection keeps mean and covariance and deflates r; detection
    keeps the mean, applies the Kalman covariance update and sets r = 1.
    """
    _require_single(pred)
    g = pred.components[0]
    H = sensor.H
    S = H @ g.cov @ H.T + sensor.R
    S_inv = np.linalg.inv(S)
    P1 = g.cov - g.cov @ H.T @ S_inv @ H @ g.cov

    denom = 1.0 - pred.r + (1.0 - pd_bar) * pred.r
    r_miss = (1.0 - pd_bar) * pred.r / denom if denom > 0.0 else 0.0
    return HypothesisPair(
        miss_r=r_miss,
        miss=g,
        detect_r=1.0,
        detect=Gaussian(g.mean, P1),
        p_detect_event=pd_bar * pred.r,
    )


class BoundResult(NamedTuple):
    cost: float
    threshold: float


def msgospa_cost_at_threshold(threshold: float, r: float, cov: np.ndarray, c: float,
                              pos_indices: Sequence[int] = POSITION_INDICES) -> float:
    """MSGOSPA upper bound of the set estimator with a given threshold."""
    if r <= threshold:
        return 0.5 * c * c * r
    tr = position_trace(cov, pos_indices)
    return 0.5 * c * c * (1.0 - r) + r * min(tr, c * c)


def msgospa_bound(r: float, cov: np.ndarray, c: float,
                  pos_indices: Sequence[int] = POSITION_INDICES) -> BoundResult:
    """Upper bound on the MSGOSPA error at the optimal detection threshold."""
    threshold = optimal_threshold(cov, c, pos_indices)
    return BoundResult(msgospa_cost_at_threshold(threshold, r, cov, c, pos_indices),
                       threshold)


def node_cost(pair: HypothesisPair, c: float,
              pos_indices: Sequence[int] = POSITION_INDICES) -> float:
    """Expected planning cost over the two observation hypotheses."""
    miss = msgospa_bound(pair.miss_r, pair.miss.cov, c, pos_indices).cost
    detect = msgospa_bound(pair.detect_r, pair.detect.cov, c, pos_indices).cost
    p = pair.p_detect_event
    return (1.0 - p) * miss + p * detect


def merge_hypotheses(pair: HypothesisPair) -> BernoulliDensity:
    """Moment-match the two branches into one Bernoulli-Gaussian.

    r, mean and covariance combine linearly with the detection-event
    weights. The mean-spread term of a full moment match is zero because
    both branches share the predicted mean.
    """
    w1 = pair.p_detect_event
    w0 = 1.0 - w1
    r = w0 * pair.miss_r + w1 * pair.detect_r
    mean = w0 * pair.miss.mean + w1 * pair.detect.mean
    cov = w0 * pair.miss.cov + w1 * pair.detect.cov
    return BernoulliDensity(min(r, 1.0), np.array([1.0]), (Gaussian(mean, cov),))


def _require_single(density: BernoulliDensity) -> None:
    if len(density.components) != 1:
        raise ValueError("planning requires a single-component density")
