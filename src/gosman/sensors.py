"""Sensor geometry and physics.

A mobile sensor with a circular field of view moves a fixed step each
time-step, choosing between actions evenly distributed on a circle.
Obstacles (convex polygons) block sensor movement but not targets or
measurements. The expected probability of detection of a Gaussian
predicted density has two estimators: the filter's ``expected_pd``
samples uniformly inside the FOV disc (importance sampling), and the
planners' ``gaussian_disc_pd`` is a deterministic rule along rays from
the Gaussian mean.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import Gaussian
from .gospa import POSITION_INDICES

LOW_NOISE = "low"
HIGH_NOISE = "high"


@dataclass(frozen=True)
class Bounds:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, p) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax


@dataclass(frozen=True)
class SensorState:
    """Sensor position plus the movement/FOV parameters."""

    position: np.ndarray
    fov_radius: float
    step_size: float
    num_actions: int
    p_detect: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.fov_radius <= 0 or self.step_size <= 0 or self.num_actions < 1:
            raise ValueError("invalid sensor parameters")
        if not 0.0 <= self.p_detect <= 1.0:
            raise ValueError(f"p_detect out of [0, 1]: {self.p_detect}")

    @property
    def fov_area(self) -> float:
        return float(np.pi * self.fov_radius ** 2)


@dataclass(frozen=True)
class Action:
    """One sensor move: destination and measurement-noise class."""

    id: int
    target_position: np.ndarray
    noise_class: str = LOW_NOISE

    def __post_init__(self):
        object.__setattr__(self, "target_position",
                           np.asarray(self.target_position, dtype=float))


def _point_in_convex_polygon(point, vertices: np.ndarray) -> bool:
    """Strict interior test; boundary points count as outside."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    sign = 0
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross == 0.0:
            return False
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


@dataclass(frozen=True)
class ObstacleMap:
    """Convex polygonal no-go regions for the sensor."""

    polygons: tuple = ()

    def __post_init__(self):
        polys = tuple(np.asarray(p, dtype=float) for p in self.polygons)
        for p in polys:
            if len(p) < 3:
                raise ValueError("polygons need at least 3 vertices")
        object.__setattr__(self, "polygons", polys)

    def blocks(self, point) -> bool:
        return any(_point_in_convex_polygon(point, poly) for poly in self.polygons)


def enumerate_actions(sensor: SensorState, obstacles: ObstacleMap,
                      bounds: Bounds) -> list:
    """Feasible moves from the current position.

    Targets sit at angles 2 pi i / num_actions on the step circle; moves
    into an obstacle or out of bounds are removed. Noise classes
    alternate low/high by index parity. If every move is blocked the
    sensor stays in place (zero-displacement fallback) so planners never
    face an empty action set. Actions come in ascending id order.
    """
    n = sensor.num_actions
    actions = []
    for i in range(n):
        angle = 2.0 * np.pi * i / n
        target = sensor.position + sensor.step_size * np.array(
            [np.cos(angle), np.sin(angle)])
        if not bounds.contains(target) or obstacles.blocks(target):
            continue
        actions.append(Action(i, target, LOW_NOISE if i % 2 == 0 else HIGH_NOISE))
    if not actions:
        actions = [Action(0, sensor.position.copy(), LOW_NOISE)]
    return actions


def detection_probability(x, sensor: SensorState) -> float:
    """p_detect inside the FOV disc (boundary inclusive), zero outside."""
    x = np.asarray(x, dtype=float)
    pos = x if len(x) == 2 else x[list(POSITION_INDICES)]
    if np.linalg.norm(pos - sensor.position) <= sensor.fov_radius:
        return sensor.p_detect
    return 0.0


def _uniform_disc(centre, radius, num, rng) -> np.ndarray:
    u = rng.random(num)
    theta = rng.random(num) * 2.0 * np.pi
    rr = radius * np.sqrt(u)
    return np.asarray(centre) + np.stack(
        [rr * np.cos(theta), rr * np.sin(theta)], axis=1)


def _gaussian_pdf_many(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = points - mean
    cinv = np.linalg.inv(cov)
    quad = np.einsum("ni,ij,nj->n", d, cinv, d)
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
    return norm * np.exp(-0.5 * quad)


def expected_pd(pred: Gaussian, sensor: SensorState, num_samples: int,
                rng: np.random.Generator) -> float:
    """Importance-sampling estimate of the expected detection probability.

    Equals p_detect times the Gaussian positional mass inside the FOV
    disc, estimated with uniform samples in the disc; the raw estimate
    is clamped to [0, p_detect]. Error decays as O(num_samples^-1/2).
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    idx = list(POSITION_INDICES) if pred.dim > 2 else [0, 1]
    mean = pred.mean[idx]
    cov = pred.cov[np.ix_(idx, idx)]
    pts = _uniform_disc(sensor.position, sensor.fov_radius, num_samples, rng)
    dens = _gaussian_pdf_many(pts, mean, cov)
    est = sensor.p_detect * sensor.fov_area * float(dens.mean())
    return float(np.clip(est, 0.0, sensor.p_detect))


_RAY_ANGLES = 2.0 * np.pi * (np.arange(1024) + 0.5) / 1024
_RAY_COS, _RAY_SIN = np.cos(_RAY_ANGLES), np.sin(_RAY_ANGLES)


def gaussian_disc_pd(mean: np.ndarray, cov: np.ndarray, centre: np.ndarray,
                     fov_radius: float, p_detect: float) -> float:
    """Deterministic expected detection probability of a Gaussian.

    p_detect times the mass of N(mean, cov), positional block, inside
    the FOV disc of radius ``fov_radius`` around ``centre`` (DiDonato &
    Jarnagin 1961). With the position whitened, x = m + L u, a ray
    u = t (cos a, sin a) meets the disc on an interval [t1, t2] given by
    a quadratic, over which the standard normal's radial mass is exactly
    exp(-t1^2/2) - exp(-t2^2/2); the mass is the mean of that over 1024
    evenly spaced angles. Its error is at most about p_detect / 1024,
    reached when a thin Gaussian sits on the FOV edge.
    """
    i, j = POSITION_INDICES if len(mean) > 2 else (0, 1)
    l11 = math.sqrt(cov[i, i])
    l21 = cov[i, j] / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(cov[j, j] - l21 * l21, 0.0))
    dx = centre[0] - mean[i]
    dy = centre[1] - mean[j]
    ex = l11 * _RAY_COS
    ey = l21 * _RAY_COS + l22 * _RAY_SIN
    # |t e - d|^2 <= R^2  <=>  a t^2 - 2 b t + c <= 0; flooring a makes a
    # degenerate direction, which maps onto the mean, hit all or nothing
    a = np.maximum(ex * ex + ey * ey, 1e-300)
    b = ex * dx + ey * dy
    c = dx * dx + dy * dy - fov_radius ** 2
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    t1 = np.maximum((b - root) / a, 0.0)
    t2 = np.maximum((b + root) / a, 0.0)
    mass = np.exp(-0.5 * t1 * t1) * -np.expm1(-0.5 * (t2 - t1) * (t2 + t1))
    return float(min(p_detect * max(mass.mean(), 0.0), p_detect))


def noise_matrix(noise_class: str, r_low: float, r_high: float) -> np.ndarray:
    value = r_low if noise_class == LOW_NOISE else r_high
    return np.diag([value, value])


def generate_measurements(truth, sensor: SensorState, H: np.ndarray, R: np.ndarray,
                          clutter_rate: float, rng: np.random.Generator) -> list:
    """Target detection (within FOV) plus Poisson clutter uniform in the FOV."""
    measurements = []
    for x in truth:
        pd = detection_probability(x, sensor)
        if pd > 0.0 and rng.random() < pd:
            noise = rng.multivariate_normal(np.zeros(H.shape[0]), R)
            measurements.append(H @ np.asarray(x, dtype=float) + noise)
    n_clutter = rng.poisson(clutter_rate)
    if n_clutter > 0:
        for pt in _uniform_disc(sensor.position, sensor.fov_radius, n_clutter, rng):
            measurements.append(pt)
    return measurements
