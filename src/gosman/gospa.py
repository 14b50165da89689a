"""GOSPA metric (alpha=2, p=2, Euclidean base) with error decomposition.

For two finite sets of target states X and Y the squared metric is the
minimum over assignment sets gamma of

    sum_{(i,j) in gamma} d^2(x_i, y_j) + (c^2 / 2) (|X| + |Y| - 2 |gamma|)

which splits exactly into localisation, missed-target and false-target
parts. States may be 2-D positions or 4-D [px, vx, py, vy] vectors; for
4-D states the distance is computed on the positional components.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

# default positional components of a [px, vx, py, vy] state
POSITION_INDICES = (0, 2)


@dataclass(frozen=True)
class GospaResult:
    """Squared GOSPA value and its decomposition."""

    total_sq: float
    loc_sq: float
    missed_sq: float
    false_sq: float
    num_assigned: int

    @property
    def total(self) -> float:
        return float(np.sqrt(self.total_sq))


def _positions(elements: Sequence[np.ndarray], pos_indices) -> np.ndarray:
    if len(elements) == 0:
        return np.zeros((0, 2))
    arr = np.atleast_2d(np.asarray(elements, dtype=float))
    if arr.shape[1] == len(pos_indices):
        return arr
    return arr[:, list(pos_indices)]


def gospa(X, Y, c: float,
          pos_indices: Sequence[int] = POSITION_INDICES) -> GospaResult:
    """GOSPA distance between target sets X and Y with decomposition."""
    if c <= 0:
        raise ValueError(f"cutoff c must be positive, got {c}")
    xs = _positions(X, pos_indices)
    ys = _positions(Y, pos_indices)
    if len(xs) and len(ys) and xs.shape[1] != ys.shape[1]:
        raise ValueError("dimension mismatch between the two sets")

    n, m = len(xs), len(ys)
    half_c2 = 0.5 * c * c
    if n == 0 or m == 0:
        miss = n * half_c2
        false = m * half_c2
        return GospaResult(miss + false, 0.0, miss, false, 0)

    d2 = np.sum((xs[:, None, :] - ys[None, :, :]) ** 2, axis=2)
    # optimal rectangular assignment with the cutoff folded into the cost;
    # pairs at distance >= c are cheaper left unassigned
    c2 = c * c
    rows, cols = linear_sum_assignment(np.minimum(d2, c2))
    pairs = [(i, j) for i, j in zip(rows, cols) if d2[i, j] < c2]

    loc = float(sum(d2[i, j] for i, j in pairs))
    k = len(pairs)
    missed = (n - k) * half_c2
    false = (m - k) * half_c2
    return GospaResult(loc + missed + false, loc, missed, false, k)


@dataclass(frozen=True)
class RmsGospaSeries:
    """RMS-GOSPA aggregated over a (runs x steps) grid of results.

    ``overall``, ``loc``, ``missed`` and ``false`` pool every run and step.
    """

    overall: float
    loc: float
    missed: float
    false: float
    per_step: np.ndarray


def rms_gospa(per_run_results: Sequence[Sequence[GospaResult]]) -> RmsGospaSeries:
    """Root mean square GOSPA over Monte Carlo runs.

    ``per_run_results`` is rectangular: one row per run, one column per
    time-step, all computed with identical c.
    """
    if len(per_run_results) == 0 or len(per_run_results[0]) == 0:
        raise ValueError("empty result grid")
    steps = len(per_run_results[0])
    if any(len(row) != steps for row in per_run_results):
        raise ValueError("result grid is not rectangular")

    total = np.array([[g.total_sq for g in row] for row in per_run_results])
    loc = np.array([[g.loc_sq for g in row] for row in per_run_results])
    missed = np.array([[g.missed_sq for g in row] for row in per_run_results])
    false = np.array([[g.false_sq for g in row] for row in per_run_results])
    return RmsGospaSeries(
        overall=float(np.sqrt(total.mean())),
        loc=float(np.sqrt(loc.mean())),
        missed=float(np.sqrt(missed.mean())),
        false=float(np.sqrt(false.mean())),
        per_step=np.sqrt(total.mean(axis=0)),
    )
