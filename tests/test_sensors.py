"""Unit tests for sensor geometry, detection and measurement generation."""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ncx2

from gosman import streams
from gosman.bernoulli import AxisGaussian, Gaussian
from gosman.sensors import (SERIES_CAP, Action, Bounds, HIGH_NOISE, LOW_NOISE,
                            ObstacleMap, SensorState, _ray_pd, detection_probability,
                            enumerate_actions, expected_pd, gaussian_disc_pd,
                            generate_measurements)


def _sensor(position=(0.0, 0.0), fov=10.0, step=5.0, n=4, pd=0.9):
    return SensorState(np.asarray(position, float), fov, step, n, pd)


def _disc_pd(g, s):
    """Planning PD of a 2-D Gaussian with a diagonal covariance, one centre."""
    return gaussian_disc_pd(g.mean[0], g.mean[1], g.cov[0, 0], g.cov[1, 1],
                            *s.position, s.fov_radius, s.p_detect)


def test_bounds_contains():
    b = Bounds(0.0, 10.0, 0.0, 20.0)
    assert b.contains((0.0, 0.0)) and b.contains((10.0, 20.0))
    assert not b.contains((-0.1, 5.0))


def test_sensor_validation():
    with pytest.raises(ValueError):
        _sensor(fov=0.0)
    with pytest.raises(ValueError):
        _sensor(pd=1.2)


def test_obstacle_strict_interior():
    square = [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]
    m = ObstacleMap((square,))
    assert m.blocks((2.0, 2.0))
    # boundary points are allowed
    assert not m.blocks((0.0, 2.0))
    assert not m.blocks((4.0, 4.0))
    assert not m.blocks((5.0, 2.0))


def test_obstacle_rejects_degenerate_polygon():
    with pytest.raises(ValueError):
        ObstacleMap(([[0.0, 0.0], [1.0, 1.0]],))


def test_enumerate_actions_geometry():
    bounds = Bounds(-100.0, 100.0, -100.0, 100.0)
    actions = enumerate_actions(_sensor(n=4, step=5.0), ObstacleMap(), bounds)
    assert [a.id for a in actions] == [0, 1, 2, 3]
    assert actions[0].target_position == pytest.approx([5.0, 0.0])
    assert actions[1].target_position == pytest.approx([0.0, 5.0], abs=1e-12)
    # noise classes alternate with action index
    assert actions[0].noise_class == LOW_NOISE
    assert actions[1].noise_class == HIGH_NOISE


def test_enumerate_actions_respects_bounds_and_obstacles():
    bounds = Bounds(0.0, 100.0, 0.0, 100.0)
    wall = [[3.0, -10.0], [9.0, -10.0], [9.0, 110.0], [3.0, 110.0]]
    sensor = _sensor(position=(1.0, 50.0), n=4, step=5.0)
    actions = enumerate_actions(sensor, ObstacleMap((wall,)), bounds)
    # east blocked by the wall, west out of bounds
    assert [a.id for a in actions] == [1, 3]


def _reference_actions(sensor, polygons, bounds):
    """One target at a time, as a scalar loop: ids of the feasible moves."""
    def inside(p, v):
        sign = 0
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross == 0.0:
                return False
            s = 1 if cross > 0 else -1
            if sign not in (0, s):
                return False
            sign = s
        return True

    ids = []
    for i in range(sensor.num_actions):
        angle = 2.0 * np.pi * i / sensor.num_actions
        t = sensor.position + sensor.step_size * np.array([np.cos(angle), np.sin(angle)])
        in_box = bounds.xmin <= t[0] <= bounds.xmax and bounds.ymin <= t[1] <= bounds.ymax
        if in_box and not any(inside(t, np.asarray(v, float)) for v in polygons):
            ids.append((i, tuple(t)))
    return ids


def test_enumerate_actions_matches_scalar_reference():
    bounds = Bounds(0.0, 100.0, 0.0, 100.0)
    square = [[40.0, 40.0], [60.0, 40.0], [60.0, 60.0], [40.0, 60.0]]
    triangle = [[70.0, 10.0], [90.0, 15.0], [75.0, 30.0]]
    polygons = (square, triangle)
    obstacles = ObstacleMap(polygons)

    def check(position, n=4, step=5.0):
        sensor = _sensor(position=position, n=n, step=step)
        got = [(a.id, tuple(a.target_position))
               for a in enumerate_actions(sensor, obstacles, bounds)]
        want = _reference_actions(sensor, polygons, bounds) or \
            [(0, tuple(sensor.position))]
        assert got == want
        return [i for i, _ in got]

    # a target exactly on an edge or a vertex is outside the polygon
    assert 0 in check((35.0, 50.0)) and 0 in check((35.0, 40.0))
    assert 2 in check((65.0, 60.0))
    # targets inside are blocked, those on the edges not
    assert check((45.0, 55.0)) == [1, 2]
    # a target exactly on the bounds is inside them
    assert check((95.0, 50.0)) == [0, 1, 2, 3]
    assert check((50.0, 95.0)) == [0, 1, 2, 3]
    assert check((5.0, 5.0), step=5.0) == [0, 1, 2, 3]
    rng = np.random.default_rng(8)
    for _ in range(300):
        check(rng.uniform(-5.0, 105.0, size=2), n=int(rng.integers(1, 9)),
              step=float(rng.choice([5.0, 25.0])))


def test_enumerate_actions_fallback_stay():
    bounds = Bounds(0.0, 100.0, 0.0, 100.0)
    box = [[40.0, 40.0], [60.0, 40.0], [60.0, 60.0], [40.0, 60.0]]
    sensor = _sensor(position=(50.0, 50.0), n=4, step=5.0)
    actions = enumerate_actions(sensor, ObstacleMap((box,)), bounds)
    assert len(actions) == 1
    assert actions[0].target_position == pytest.approx([50.0, 50.0])


def test_detection_probability_disc():
    s = _sensor(fov=10.0, pd=0.9)
    assert detection_probability(np.array([3.0, 0.0, 4.0, 0.0]), s) == 0.9
    assert detection_probability(np.array([10.0, 0.0]), s) == 0.9  # boundary
    assert detection_probability(np.array([10.1, 0.0]), s) == 0.0


def test_expected_pd_extremes():
    rng = np.random.default_rng(0)
    s = _sensor(fov=10.0, pd=0.9)
    inside = Gaussian(np.zeros(2), np.diag([0.01, 0.01]))
    far = Gaussian(np.array([1000.0, 0.0]), np.diag([1.0, 1.0]))
    assert expected_pd(inside, s, 2000, rng) == pytest.approx(0.9, abs=0.02)
    assert expected_pd(far, s, 2000, rng) == pytest.approx(0.0, abs=1e-12)


def test_expected_pd_four_dim_state():
    rng = np.random.default_rng(1)
    s = _sensor(fov=10.0, pd=0.9)
    g = Gaussian(np.array([0.0, 5.0, 0.0, -5.0]),
                 np.diag([0.01, 1.0, 0.01, 1.0]))
    assert expected_pd(g, s, 2000, rng) == pytest.approx(0.9, abs=0.02)


def test_expected_pd_clamped_to_p_detect():
    rng = np.random.default_rng(2)
    s = _sensor(fov=10.0, pd=0.9)
    tight = Gaussian(np.zeros(2), np.diag([1e-6, 1e-6]))
    assert expected_pd(tight, s, 50, rng) <= 0.9
    with pytest.raises(ValueError):
        expected_pd(tight, s, 0, rng)


# (stream key, predicted density, result as float.hex) of the filter PD at
# 1000 samples, sensor at (50, 50) with R = 10 and p_D = 0.9
PINNED_PD = (
    # per-axis density near the FOV edge
    ((7, 0, 3), AxisGaussian(np.array([59.5, 1.0, 51.0, -0.5]), (4.0, 0.5, 1.0),
                             (2.25, 0.2, 1.0)), "0x1.8f1a6b9d9bdf9p-2"),
    # correlated 2-D density shaped like criterion 4's
    ((7, 1, 12), Gaussian(np.array([57.0, 55.5]), np.array([[36.0, 19.2], [19.2, 64.0]])),
     "0x1.84d5af3bef9abp-2"),
    # far away: a tiny mass that is not zero
    ((7, 2, 199), Gaussian(np.array([95.0, 50.0, 48.0, 0.0]), np.diag([25.0, 1.0, 25.0, 1.0])),
     "0x1.2268baa44bf9bp-41"),
    # per-axis variance 1e-6, the mean 5e-3 from one of the key's disc samples
    ((7, 3, 5), AxisGaussian(np.array([47.714, 0.5, 55.52, -0.5]), (1e-6, 0.0, 1e-4),
                             (1e-6, 0.0, 1e-4)), "0x1.32b88a938bb30p-3"),
    # per-axis variance 1e8: an almost flat density over the disc
    ((7, 4, 8), AxisGaussian(np.array([30.0, 2.0, 65.0, -1.0]), (1e8, 1e3, 1e4),
                             (1e8, -1e3, 1e4)), "0x1.e32ea4359f93cp-22"),
)


@pytest.mark.parametrize("key, g, want", PINNED_PD)
def test_expected_pd_pinned_bits_and_draws(key, g, want):
    s = _sensor(position=(50.0, 50.0), fov=10.0, pd=0.9)
    rng = streams.stream(*key, streams.FILTER_PD)
    assert expected_pd(g, s, 1000, rng).hex() == want
    # it draws exactly 2n uniforms: paired seeds rely on the next draw
    fresh = streams.stream(*key, streams.FILTER_PD)
    assert rng.random() == fresh.random(2 * 1000 + 1)[-1]


_variances = st.floats(-6.0, 8.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(_variances, _variances, st.one_of(st.none(), st.floats(-0.89, 0.89)),
       st.sampled_from([0.0, 0.9, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 1.5, 100.0]),
       st.floats(0.0, 2.0 * np.pi), st.integers(1, 300), st.integers(0, 2 ** 32))
def test_expected_pd_range_at_the_extremes(vx, vy, rho, pd, dist, angle, n, seed):
    """Finite and in [0, p_D] from tiny to huge variances, inside, on and off the FOV."""
    s = _sensor(position=(50.0, 50.0), fov=10.0, pd=pd)
    mx, my = 50.0 + 10.0 * dist * np.cos(angle), 50.0 + 10.0 * dist * np.sin(angle)
    if rho is None:
        g = AxisGaussian(np.array([mx, 0.0, my, 0.0]), (vx, 0.0, 1.0), (vy, 0.0, 1.0))
    else:
        c = rho * np.sqrt(vx * vy)
        g = Gaussian(np.array([mx, my]), np.array([[vx, c], [c, vy]]))
    got = expected_pd(g, s, n, np.random.default_rng(seed))
    assert np.isfinite(got) and 0.0 <= got <= pd
    if pd == 0.0:
        assert got == 0.0
    for bad in (0, -1):
        with pytest.raises(ValueError):
            expected_pd(g, s, bad, np.random.default_rng(seed))


def _takes_series(dist, sigma, R):
    """Whether an isotropic PD is exact: the 9-sigma shortcut or the series below the cap."""
    return abs(dist - R) > 9.0 * sigma or (R * R + dist * dist) / sigma ** 2 <= SERIES_CAP


def _cap_placement(R, g, total):
    """(sigma, dist) with the centre g sigma outside the FOV edge and x + lambda = total."""
    r = (-g + np.sqrt(2.0 * total - g * g)) / 2.0   # sqrt(x), from x + (sqrt(x) + g)^2
    return R / r, R + g * R / r


def test_gaussian_disc_pd_matches_noncentral_chi2():
    # isotropic: the mass of the disc is a noncentral chi-square cdf; the
    # series and the 9-sigma shortcut are exact, the ray fallback above the
    # cap keeps the ray rule's bound
    R = 10.0
    s = _sensor(position=(50.0, -20.0), fov=R, pd=0.9)
    placements = []
    for sigma in R * np.logspace(-3, 2, 16):
        offsets = np.concatenate([np.linspace(0.0, 4.0 * R, 17),
                                  R + sigma * np.array([-9.0, -2.0, -0.5, 0.0, 0.5, 2.0, 9.0])])
        placements += [(sigma, dist) for dist in offsets]
    # x + lambda just below and just above the cap, inside, on and outside the edge
    for g in (-9.0, -3.0, 0.0, 3.0, 9.0):
        for total in SERIES_CAP * np.array([0.999, 1.0, 1.001, 1.5]):
            placements.append(_cap_placement(R, g, total))
    worst = {True: 0.0, False: 0.0}
    for sigma, dist in placements:
        # angles across one ray spacing, so edges fall on and between rays
        for angle in np.linspace(0.0, 2.0 * np.pi / 1024, 5) + 0.3:
            mean = s.position + dist * np.array([np.cos(angle), np.sin(angle)])
            got = _disc_pd(Gaussian(mean, sigma ** 2 * np.eye(2)), s)
            want = 0.9 * ncx2.cdf((R / sigma) ** 2, 2, (dist / sigma) ** 2)
            exact = _takes_series(dist, sigma, R)
            worst[exact] = max(worst[exact], abs(got - want))
    assert sum(_takes_series(d, sg, R) for sg, d in placements) > 200
    assert sum(not _takes_series(d, sg, R) for sg, d in placements) > 20
    assert worst[True] <= 1e-12
    assert worst[False] <= 2e-3


@settings(max_examples=200, deadline=None)
@given(st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e), st.sampled_from([0.0, 0.5, 1.0]),
       st.floats(-12.0, 12.0), st.floats(0.0, 3.0), st.floats(-9.0, 9.0),
       st.floats(0.0, 2.0 * np.pi))
def test_isotropic_disc_pd_properties(ratio, pd, g, dist_r, g_cap, angle):
    """In [0, p_D], not increasing with |d| (Anderson's theorem), continuous at the cap."""
    R = 10.0
    sigma = ratio * R
    s = _sensor(position=(5.0, 5.0), fov=R, pd=pd)
    unit = np.array([np.cos(angle), np.sin(angle)])
    # distances in sigma units about the edge, and in FOV radii
    dists = sorted(abs(d) for d in (R + g * sigma, R + (g + 0.5) * sigma, dist_r * R,
                                    dist_r * R + sigma, 0.0))
    pds = np.array([gaussian_disc_pd(5.0, 5.0, sigma ** 2, sigma ** 2, cx, cy, R, pd)
                    for cx, cy in (s.position + np.outer(dists, unit)).tolist()])
    assert np.all((0.0 <= pds) & (pds <= pd))
    for (d1, p1), (d2, p2) in zip(zip(dists, pds), zip(dists[1:], pds[1:])):
        exact = _takes_series(d1, sigma, R) and _takes_series(d2, sigma, R)
        assert p2 <= p1 + (1e-12 if exact else pd / 1024)
    # just below the cap the series runs; the ray rule agrees within its bound
    sigma, dist = _cap_placement(R, g_cap, SERIES_CAP * (1.0 - 1e-9))
    cx, cy = (s.position + dist * unit).tolist()
    series = gaussian_disc_pd(5.0, 5.0, sigma ** 2, sigma ** 2, cx, cy, R, pd)
    ray = _ray_pd(5.0, 5.0, sigma ** 2, sigma ** 2, cx, cy, R, pd)
    assert abs(series - ray) <= pd / 1024


def test_gaussian_disc_pd_matches_monte_carlo():
    # planning beliefs never correlate the axes, so the covariances are
    # diagonal, with standard deviations up to 10:1 either way
    rng = np.random.default_rng(7)
    R = 10.0
    s = _sensor(position=(5.0, 5.0), fov=R, pd=0.9)
    draws = 2_000_000
    for _ in range(3):
        for ratio in (1.0, 10.0, 0.1):
            s1 = R * rng.uniform(0.2, 2.0)
            s2 = s1 / ratio
            cov = np.diag([s1 * s1, s2 * s2])
            angle = rng.uniform(0.0, 2.0 * np.pi)
            mean = s.position + rng.uniform(0.0, 2.0 * R) * np.array(
                [np.cos(angle), np.sin(angle)])
            x = mean + rng.standard_normal((draws, 2)) @ np.linalg.cholesky(cov).T
            want = 0.9 * np.mean(np.sum((x - s.position) ** 2, axis=1) <= R * R)
            assert _disc_pd(Gaussian(mean, cov), s) == \
                pytest.approx(want, abs=2e-3)


def test_gaussian_disc_pd_range_and_purity():
    assert "rng" not in inspect.signature(gaussian_disc_pd).parameters
    covs = [np.diag([1e-12, 1e-12]), np.diag([1e8, 1e8]), np.diag([1e-6, 1e6]),
            np.diag([0.0, 4.0]), np.diag([4.0, 0.0]), np.diag([0.0, 0.0]),
            np.diag([5e-324, 5e-324])]
    means = [np.zeros(2), np.array([10.0, 0.0]), np.array([7.0, -7.0]),
             np.array([1e4, 0.0])]
    for pd in (0.0, 0.4, 1.0):
        s = _sensor(fov=10.0, pd=pd)
        for cov in covs:
            for mean in means:
                g = Gaussian(mean, cov)
                got = _disc_pd(g, s)
                assert isinstance(got, float) and 0.0 <= got <= pd
                assert _disc_pd(g, s) == got
    s = _sensor(fov=10.0, pd=0.9)
    assert _disc_pd(Gaussian(np.zeros(2), np.diag([1e-8, 1e-8])), s) == \
        pytest.approx(0.9, abs=1e-12)
    assert _disc_pd(Gaussian(np.array([1e4, 0.0]), np.eye(2)), s) == 0.0
    # an isotropic point mass: p_D inside the disc, boundary included, 0 outside
    for var in (0.0, 5e-324):
        cov = np.diag([var, var])
        for mean, want in (([0.0, 0.0], 0.9), ([10.0, 0.0], 0.9), ([6.0, -8.0], 0.9),
                           ([10.0 + 1e-12, 0.0], 0.0), ([7.0, 7.5], 0.0)):
            assert _disc_pd(Gaussian(np.array(mean), cov), s) == want


# (mx, my, varx, vary, cx, cy, R, p_D) and the PD as float.hex, two inputs per rule
PINNED_DISC_PDS = (
    ((3.0, -4.0, 0.25, 0.25, 30.0, 12.5, 10.0, 0.9), "0x0.0p+0"),   # 9 sigma outside
    ((3.0, -4.0, 0.25, 0.25, 5.5, -3.0, 10.0, 0.9), "0x1.ccccccccccccdp-1"),   # 9 sigma inside
    ((1.0, 2.0, 0.0, 0.0, 7.0, 10.0, 10.0, 0.9), "0x1.ccccccccccccdp-1"),   # point mass, edge
    ((1.0, 2.0, 5e-324, 5e-324, 1.0, 12.5, 10.0, 0.9), "0x0.0p+0"),   # subnormal, outside
    ((0.0, 0.0, 16.0, 16.0, 6.0, 8.0, 10.0, 0.9), "0x1.81a214b48f122p-2"),   # series, edge
    ((12.5, -7.25, 2.0, 2.0, 22.05336489125606, -4.294797933386604, 10.0, 0.8),
     "0x1.826eaefef1eb2p-2"),   # series, edge
    ((30.0, 30.0, 80.0, 20.0, 36.0, 30.0, 12.0, 0.9), "0x1.395908c63bc59p-1"),   # rays
    ((-5.0, 8.0, 1.0, 400.0, 3.0, 14.0, 10.0, 0.7), "0x1.336ceb6f1c5c9p-3"),   # rays
    ((0.0, 0.0, 0.1, 0.1, 10.0, 0.0, 10.0, 0.9), "0x1.c6fc68e593be4p-2"),   # rays, x + lambda 2000
    ((4.0, 4.0, 0.09, 0.09, 11.0, 11.5, 10.0, 0.9), "0x1.5dd8c80ff19d4p-3"),   # rays, above the cap
)


@pytest.mark.parametrize("args, want", PINNED_DISC_PDS)
def test_gaussian_disc_pd_pinned_bits(args, want):
    assert gaussian_disc_pd(*args).hex() == want


def test_gaussian_disc_pd_pinned_digest():
    # 1,200 centres, half of them on the FOV edge, over every rule: the
    # sha256 of their values as float.hex
    rng = np.random.default_rng(9)
    R = 10.0
    values = []
    for _ in range(200):
        mx, my = rng.uniform(-30.0, 30.0, size=2).tolist()
        varx, vary = ((R * rng.choice([1e-3, 0.1, 1.0, 10.0], size=2)) ** 2).tolist()
        angles = rng.uniform(0.0, 2.0 * np.pi, size=6)
        dist = np.where(rng.random(6) < 0.5, R, rng.uniform(0.0, 3.0 * R, size=6))
        centres = np.array([mx, my]) + dist[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
        values += [gaussian_disc_pd(mx, my, varx, vary, cx, cy, R, 0.9)
                   for cx, cy in centres.tolist()]
    digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == "f9d350ecc0a656522455973c6b001f4662050ac0b18c8ee9496a71683c1c04b5"


def test_generate_measurements_detection_and_clutter():
    s = _sensor(fov=10.0, pd=1.0)
    rng = np.random.default_rng(3)
    truth = [np.array([1.0, 0.0, 2.0, 0.0])]
    Z = generate_measurements(truth, s, 0.01, clutter_rate=0.0, rng=rng)
    assert len(Z) == 1
    assert Z[0] == pytest.approx([1.0, 2.0], abs=1.0)


def test_generate_measurements_out_of_fov_only_clutter():
    s = _sensor(fov=10.0, pd=1.0)
    rng = np.random.default_rng(4)
    truth = [np.array([100.0, 0.0, 100.0, 0.0])]
    counts = [len(generate_measurements(truth, s, 0.01, 2.0, rng))
              for _ in range(300)]
    # no detections, so counts are Poisson(2) and clutter stays in the disc
    assert np.mean(counts) == pytest.approx(2.0, abs=0.3)
    Z = generate_measurements(truth, s, 0.01, 50.0, rng)
    assert all(np.linalg.norm(z - s.position) <= s.fov_radius for z in Z)


# (stream key, noise variance, detection as float.hex, next uniform as
# float.hex): a target at (53, 48) seen by a sensor at (50, 50) with p_D = 1
PINNED_MEASUREMENTS = (
    ((7, 0, 4), 10.0, ("0x1.775542738bc53p+5", "0x1.8c32bdd2e6c5ep+5"), "0x1.e03f1ddd98d02p-2"),
    ((7, 1, 30), 10.0, ("0x1.8d173008e70d1p+5", "0x1.8fdf5078f8dcfp+5"), "0x1.e1764a4f4bfa8p-3"),
    ((7, 0, 4), 50.0, ("0x1.3b2d68d4cb983p+5", "0x1.9b46a98a712a7p+5"), "0x1.e03f1ddd98d02p-2"),
    ((7, 1, 30), 50.0, ("0x1.6bd425b3743dap+5", "0x1.a37dd8dafaa60p+5"), "0x1.e1764a4f4bfa8p-3"),
)


@pytest.mark.parametrize("key, noise, want, after", PINNED_MEASUREMENTS)
def test_generate_measurements_pinned_bits_and_draws(key, noise, want, after):
    s = _sensor(position=(50.0, 50.0), fov=10.0, pd=1.0)
    rng = streams.stream(*key, streams.MEASUREMENT)
    (z,) = generate_measurements([np.array([53.0, 1.0, 48.0, -1.0])], s, noise, 0.0, rng)
    assert tuple(v.hex() for v in z.tolist()) == want
    # paired seeds rely on the draw that follows
    assert rng.random().hex() == after


def test_action_is_immutable_value():
    a = Action(3, (1.0, 2.0), HIGH_NOISE)
    assert a.target_position == (1.0, 2.0)
    # enumerated positions are pairs of Python floats too
    (b,) = enumerate_actions(_sensor(n=1), ObstacleMap(), Bounds(-9.0, 9.0, -9.0, 9.0))
    assert type(b.target_position) is tuple
    assert [type(v) for v in b.target_position] == [float, float]
    with pytest.raises(Exception):
        a.id = 4


# -- action geometry, recorded from the numpy forms before it moved to floats

# a box with an obstacle of each orientation: a counter-clockwise square and
# a clockwise triangle
DIGEST_BOUNDS = Bounds(0.0, 100.0, 0.0, 100.0)
DIGEST_POLYGONS = ([[40.0, 40.0], [60.0, 40.0], [60.0, 60.0], [40.0, 60.0]],
                   [[70.0, 10.0], [75.0, 30.0], [90.0, 15.0]])


def _digest_coordinates():
    """Bounds and obstacle lines, one step (5 or 25) off them, and their float neighbours."""
    lines = (0.0, 10.0, 15.0, 30.0, 40.0, 50.0, 60.0, 70.0, 75.0, 90.0, 100.0)
    base = sorted({v + s for v in lines for s in (-25.0, -5.0, 0.0, 5.0, 25.0)
                   if -30.0 <= v + s <= 130.0})
    return sorted(set(base) | {math.nextafter(v, -math.inf) for v in (0.0, 35.0, 100.0)}
                  | {math.nextafter(v, math.inf) for v in (5.0, 65.0, 95.0)}
                  | {72.5, 82.5, 12.5, 22.5})


def _enumeration_lines():
    obstacles = ObstacleMap(DIGEST_POLYGONS)
    coords = _digest_coordinates()
    for n in (1, 4, 6, 7):
        for step in (5.0, 25.0):
            for x in coords:
                for y in coords:
                    sensor = _sensor(position=(x, y), n=n, step=step)
                    for a in enumerate_actions(sensor, obstacles, DIGEST_BOUNDS):
                        yield (f"{n} {step} {x.hex()} {y.hex()} {a.id} "
                               f"{a.target_position[0].hex()} {a.target_position[1].hex()} "
                               f"{a.noise_class}")


def test_enumerate_actions_pinned_digest():
    lines = list(_enumeration_lines())
    # the grid reaches the all-blocked fallback: the sensor stays in the square
    assert "4 5.0 0x1.9000000000000p+5 0x1.9000000000000p+5 0 " \
        "0x1.9000000000000p+5 0x1.9000000000000p+5 low" in lines
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1862b8c3829efb2b03b74c757cb37578a08f23c88a546d8933a1d8a928dc56ff"


def _numpy_contains(bounds, p):
    """``Bounds.contains`` as it was on points and (k, 2) arrays alike."""
    x, y = np.asarray(p)[..., 0], np.asarray(p)[..., 1]
    return (bounds.xmin <= x) & (x <= bounds.xmax) & (bounds.ymin <= y) & (y <= bounds.ymax)


def _numpy_blocks(polygons, p):
    """``ObstacleMap.blocks`` as it was on points and (k, 2) arrays alike."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0, None], p[..., 1, None]
    out = np.zeros(p.shape[:-1], dtype=bool)
    for v in (np.asarray(q, dtype=float) for q in polygons):
        a, d = v, np.roll(v, -1, 0) - v
        cross = d[:, 0] * (y - a[:, 1]) - d[:, 1] * (x - a[:, 0])
        out |= np.all(cross > 0.0, axis=-1) | np.all(cross < 0.0, axis=-1)
    return out


# coordinates near the bounds and the obstacles' lines, their vertices included
_geometry_coordinate = st.one_of(
    st.floats(-10.0, 110.0),
    st.sampled_from([0.0, 10.0, 15.0, 30.0, 40.0, 50.0, 60.0, 70.0, 75.0, 90.0, 100.0]),
    st.sampled_from([0.0, 40.0, 60.0, 100.0]).map(lambda v: math.nextafter(v, -math.inf)),
    st.sampled_from([0.0, 40.0, 60.0, 100.0]).map(lambda v: math.nextafter(v, math.inf)))


@settings(max_examples=400, deadline=None)
@given(_geometry_coordinate, _geometry_coordinate)
def test_point_geometry_matches_numpy_forms(x, y):
    obstacles = ObstacleMap(DIGEST_POLYGONS)
    for point in ((x, y), np.array([x, y])):
        assert obstacles.blocks(point) == bool(_numpy_blocks(DIGEST_POLYGONS, point))
        assert DIGEST_BOUNDS.contains(point) == bool(_numpy_contains(DIGEST_BOUNDS, point))
