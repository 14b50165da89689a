"""Sensor geometry and physics.

A mobile sensor with a circular field of view moves a fixed step each
time-step, choosing between actions evenly distributed on a circle.
Obstacles (strictly convex polygons) block sensor movement but not targets
or measurements; the move geometry is float arithmetic on one ``(x, y)``
point at a time. The expected probability of detection of a Gaussian
predicted density has two estimators. The filter's ``expected_pd``
samples uniformly inside the FOV disc (importance sampling, error
O(n^-1/2) and a low bias near p_D). The planners' ``gaussian_disc_pd`` is
deterministic and takes one FOV centre, as plain floats, per call: for an
isotropic position it is exact, by a Poisson series (within about 1e-13)
or a 9-sigma shortcut, and for an anisotropic one, or an isotropic one too
thin for the series' cost cap, it is a rule along 1024 rays from the
Gaussian mean (error at most about p_D / 1024).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bernoulli import AxisGaussian, Gaussian
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
        """Whether the point ``(x, y)`` lies in the box, its edges included."""
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


@dataclass(frozen=True)
class Action:
    """One sensor move: destination and measurement-noise class."""

    id: int
    target_position: tuple   # (x, y) as Python floats
    noise_class: str = LOW_NOISE


@dataclass(frozen=True)
class ObstacleMap:
    """Strictly convex polygonal no-go regions for the sensor, in either orientation."""

    polygons: tuple = ()

    def __post_init__(self):
        polys = tuple(tuple((float(x), float(y)) for x, y in p) for p in self.polygons)
        if any(len(p) < 3 for p in polys):
            raise ValueError("polygons need at least 3 vertices")
        object.__setattr__(self, "polygons", polys)
        object.__setattr__(self, "_edges", tuple(
            tuple((ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(v, v[1:] + v[:1]))
            for v in polys))

    def blocks(self, p) -> bool:
        """Whether the point ``(x, y)`` lies strictly inside a polygon (half-plane tests)."""
        x, y = p
        for edges in self._edges:
            cross = [dx * (y - ay) - dy * (x - ax) for ax, ay, dx, dy in edges]
            if min(cross) > 0.0 or max(cross) < 0.0:
                return True
        return False


@functools.lru_cache(maxsize=None)
def _unit_moves(n: int) -> tuple:
    """``(cos, sin)`` float pairs at angles 2 pi i / n, from numpy's scalar cos and sin."""
    return tuple((float(np.cos(a)), float(np.sin(a))) for a in 2.0 * np.pi * np.arange(n) / n)


def enumerate_actions(sensor: SensorState, obstacles: ObstacleMap,
                      bounds: Bounds) -> list:
    """Feasible moves from the current position.

    Targets sit at angles 2 pi i / num_actions on the step circle; moves
    into an obstacle or out of bounds are removed. Noise classes
    alternate low/high by index parity. If every move is blocked the
    sensor stays in place (zero-displacement fallback) so planners never
    face an empty action set. Actions come in ascending id order.
    """
    (px, py), step = sensor.position.tolist(), sensor.step_size
    actions = []
    for i, (ux, uy) in enumerate(_unit_moves(sensor.num_actions)):
        target = (px + step * ux, py + step * uy)   # numpy's order, bit for bit
        if bounds.contains(target) and not obstacles.blocks(target):
            actions.append(Action(i, target, LOW_NOISE if i % 2 == 0 else HIGH_NOISE))
    return actions or [Action(0, (px, py), LOW_NOISE)]


def detection_probability(x, sensor: SensorState) -> float:
    """p_detect inside the FOV disc (boundary inclusive), zero outside."""
    x = np.asarray(x, dtype=float)
    d = (x if len(x) == 2 else x[list(POSITION_INDICES)]) - sensor.position
    if math.sqrt(d.dot(d)) <= sensor.fov_radius:   # np.linalg.norm(d), bit for bit
        return sensor.p_detect
    return 0.0


def _uniform_disc(centre, radius, num, rng) -> np.ndarray:
    """``(2, num)`` x and y rows of points uniform in a disc; draws radii, then angles."""
    u = rng.random((2, num))
    u[1] *= 2.0 * np.pi   # equals (u * 2) * pi: doubling is exact
    pts = np.array([np.cos(u[1]), np.sin(u[1])])
    pts *= radius * np.sqrt(u[0])
    return pts + centre[:, None]


def expected_pd(pred: Gaussian, sensor: SensorState, num_samples: int,
                rng: np.random.Generator) -> float:
    """Importance-sampling estimate of the expected detection probability.

    p_detect times the Gaussian positional mass inside the FOV disc, from uniform
    samples in it, clamped to [0, p_detect]; the error decays as O(n^-1/2). The
    clamp biases it low for a well-localised target: at a position sigma of 3.5
    and the mean 10 from the FOV centre, 300 estimates of 1000 samples averaged
    0.827 for a true 0.900. Values and draws match the einsum/det form bit for bit:
    a per-axis density takes the inverse and determinant of its diagonal block
    as scalars, 1 / p and the exp of log p + log P as LAPACK's ``det`` computes
    it; a correlated ``Gaussian`` still calls ``np.linalg``.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    i, j = POSITION_INDICES if len(pred.mean) > 2 else (0, 1)
    if isinstance(pred, AxisGaussian):
        # the diagonal block's inverse, and its determinant as LAPACK's det
        # computes it, the exp of the log-determinant
        p, P = pred.bx[0], pred.by[0]
        inv, inv_block = np.array([1.0 / p, 1.0 / P]), None
        try:
            det = math.exp(math.log(p) + math.log(P))
        except OverflowError:   # where det returns inf
            det = math.inf
    else:
        block = pred.cov[[[i], [j]], [i, j]]
        inv_block = np.linalg.inv(block)
        inv, det = inv_block.diagonal(), np.linalg.det(block)
    d = _uniform_disc(sensor.position, sensor.fov_radius, num_samples, rng)
    d -= np.array([[pred.mean[i]], [pred.mean[j]]])
    # quad = d' inv d in the einsum form's order of sums, which depends on the
    # (n, 2) layout; without cross terms those sums are (dx i00) dx + (dy i11) dy
    if inv_block is not None and (inv_block[0, 1] or inv_block[1, 0]):
        quad = np.einsum("ni,ij,nj->n", d.T.copy(), inv_block, d.T.copy())
    else:
        quad, sq_y = d * inv[:, None] * d
        quad += sq_y
    quad *= -0.5
    dens = np.exp(quad, out=quad) * (1.0 / (2.0 * np.pi * np.sqrt(det)))
    mean = np.add.reduce(dens) / num_samples   # dens.mean() without its dispatch
    est = sensor.p_detect * (np.pi * sensor.fov_radius ** 2) * float(mean)
    return min(max(est, 0.0), sensor.p_detect)


_RAY_ANGLES = 2.0 * np.pi * (np.arange(1024) + 0.5) / 1024
_RAY_COS, _RAY_SIN = np.cos(_RAY_ANGLES), np.sin(_RAY_ANGLES)
# x + lambda above which the isotropic series hands a centre to the ray rule:
# on the FOV edge, the series' slowest case, one centre cost 41 us by the series
# and 43 us by the ray rule at 1000, and 46 against 44 us at 1200 (2-core x86_64 VM)
SERIES_CAP = 1000.0


def gaussian_disc_pd(mx: float, my: float, varx: float, vary: float, cx: float,
                     cy: float, fov_radius: float, p_detect: float) -> float:
    """Deterministic expected detection probability of a Gaussian position.

    p_detect times the mass of the uncorrelated N((mx, my), diag(varx, vary))
    inside the FOV disc of radius ``fov_radius`` around (cx, cy). For an
    isotropic Gaussian (``varx == vary``, standard deviation s): 0 or
    p_detect when the centre lies more than 9 s outside or inside the FOV
    edge (neglected mass below exp(-81/2) < 3e-18); a point mass for a zero
    or subnormal variance (p_detect when |d| <= R, boundary inclusive like
    ``detection_probability``, else 0); otherwise the exact series of
    ``_disc_mass_series``, within about 1e-13, while x + lambda =
    (R^2 + |d|^2) / s^2 is at most ``SERIES_CAP``. Anisotropic Gaussians,
    and isotropic ones above the cap, take the ray rule of ``_ray_pd``,
    error at most about p_detect / 1024.
    """
    if varx == vary:
        pd = _isotropic_pd(cx - mx, cy - my, varx, fov_radius, p_detect)
        if pd is not None:
            return pd
    return _ray_pd(mx, my, varx, vary, cx, cy, fov_radius, p_detect)


def _isotropic_pd(dx: float, dy: float, var: float, fov_radius: float,
                  p_detect: float):
    """PD of N(0, var I) in the disc of radius R around (dx, dy); None above the cap."""
    d2 = dx * dx + dy * dy
    gap = math.sqrt(d2) - fov_radius   # how far the centre lies outside the FOV edge
    if var < sys.float_info.min:       # zero or subnormal: a point mass
        return p_detect if gap <= 0.0 else 0.0
    if abs(gap) > 9.0 * math.sqrt(var):
        return 0.0 if gap > 0.0 else p_detect
    x, lam = fov_radius * fov_radius / var, d2 / var
    if x + lam > SERIES_CAP:
        return None
    return p_detect * _disc_mass_series(x, lam)   # the mass lies in [0, 1]


def _poisson_pmf(n: int, mu: float) -> float:
    """P(N = n) for N ~ Poisson(mu), from logs so that a large mu does not underflow."""
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) if n else math.exp(-mu)


def _disc_mass_series(x: float, lam: float) -> float:
    """Noncentral chi-square(2, lam) cdf at x, as P(N1 > N2) for independent
    N1 ~ Poisson(x / 2) and N2 ~ Poisson(lam / 2) (Ding 1992, AS 275).

    A sum of positive terms, walked over the Poisson index of the smaller
    mean u with the larger mean v's cdf carried along. It starts at
    v - 9 sqrt(v), below which v's cdf, a factor of every skipped term, is
    under exp(-40.5) (Chernoff), and stops where u's upper tail is below
    1e-18 (Bernstein), so it takes O(sqrt(x + lam)) terms once the centre
    is within 9 standard deviations of the FOV edge. Both probabilities
    start from logs, so large means do not underflow.
    """
    a, b = 0.5 * x, 0.5 * lam
    flip = a > b
    u, v = (b, a) if flip else (a, b)
    n0 = max(0, int(v - 9.0 * math.sqrt(v)))
    # u + t with exp(-t^2 / (2 (u + t / 3))) = 1e-18: t = L / 3 + sqrt(L^2 / 9 + 2 L u), L = ln 1e18
    n1 = int(u + 13.8 + math.sqrt(191.0 + 82.9 * u)) + 1
    pu, pv = _poisson_pmf(n0, u), _poisson_pmf(n0, v)
    if flip:   # 1 - P(N2 >= N1) = 1 - sum_n P(N2 = n) P(N1 <= n)
        cdf = pv
        total = pu * cdf
        for n in range(n0 + 1, n1):
            pu *= u / n
            pv *= v / n
            cdf += pv
            total += pu * cdf
        return 1.0 - total
    cdf = total = 0.0   # sum_n P(N1 = n) P(N2 < n)
    for n in range(n0 + 1, n1):
        cdf += pv
        pu *= u / n
        pv *= v / n
        total += pu * cdf
    return total


def _ray_pd(mx: float, my: float, varx: float, vary: float, cx: float, cy: float,
            fov_radius: float, p_detect: float) -> float:
    """The disc mass times p_detect along 1024 rays (DiDonato & Jarnagin 1961).

    With the position whitened, a ray u = t (cos a, sin a) meets the disc
    on an interval [t1, t2] given by a quadratic, over which the standard
    normal's radial mass is exactly exp(-t1^2/2) - exp(-t2^2/2); the mass
    is the mean of that over 1024 evenly spaced angles. Its error is at
    most about p_detect / 1024, reached when a thin Gaussian sits on the
    FOV edge.
    """
    dx, dy = cx - mx, cy - my
    ex = math.sqrt(varx) * _RAY_COS
    ey = math.sqrt(vary) * _RAY_SIN
    # |t e - d|^2 <= R^2  <=>  a t^2 - 2 b t + c <= 0; flooring a makes a
    # degenerate direction, which maps onto the mean, hit all or nothing
    a = np.maximum(ex * ex + ey * ey, 1e-300)
    b = ex * dx + ey * dy
    c = dx * dx + dy * dy - fov_radius ** 2
    root = np.sqrt(np.maximum(b * b - a * c, 0.0))
    t1 = np.maximum((b - root) / a, 0.0)
    t2 = np.maximum((b + root) / a, 0.0)
    # the mean over rays of the mass; a sum of negated terms is the negated sum
    mass = -float((np.exp(-0.5 * t1 * t1) * np.expm1(-0.5 * (t2 - t1) * (t2 + t1))).sum())
    # max(0.0, m) and min(p_detect, m) settle ties, -0.0 too, as np.maximum and np.minimum do
    return min(p_detect, p_detect * max(0.0, mass / len(_RAY_COS)))


def noise_variance(noise_class: str, r_low: float, r_high: float) -> float:
    """Per-axis measurement noise variance of a noise class."""
    return r_low if noise_class == LOW_NOISE else r_high


def generate_measurements(truth, sensor: SensorState, noise: float,
                          clutter_rate: float, rng: np.random.Generator) -> list:
    """Detections (within FOV, ``noise`` variance per axis) plus uniform clutter.

    A detection's noise is ``sqrt(noise)`` times two standard normals: the
    values and draws of ``multivariate_normal(0, noise I)``, without its SVD.
    """
    measurements = []
    for x in truth:
        pd = detection_probability(x, sensor)
        if pd > 0.0 and rng.random() < pd:
            draw = rng.standard_normal(2) * math.sqrt(noise)
            measurements.append(np.asarray(x, dtype=float)[list(POSITION_INDICES)] + draw)
    n_clutter = rng.poisson(clutter_rate)
    measurements.extend(_uniform_disc(sensor.position, sensor.fov_radius, n_clutter, rng).T)
    return measurements
