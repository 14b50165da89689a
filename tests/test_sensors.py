"""Unit tests for sensor geometry, detection and measurement generation."""

import inspect

import numpy as np
import pytest
from scipy.stats import ncx2

from gosman.bernoulli import Gaussian
from gosman.sensors import (Action, Bounds, HIGH_NOISE, LOW_NOISE, ObstacleMap,
                            SensorState, detection_probability,
                            enumerate_actions, expected_pd, gaussian_disc_pd,
                            generate_measurements, noise_matrix)

H2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def _sensor(position=(0.0, 0.0), fov=10.0, step=5.0, n=4, pd=0.9):
    return SensorState(np.asarray(position, float), fov, step, n, pd)


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


def test_enumerate_actions_fallback_stay():
    bounds = Bounds(0.0, 100.0, 0.0, 100.0)
    box = [[40.0, 40.0], [60.0, 40.0], [60.0, 60.0], [40.0, 60.0]]
    sensor = _sensor(position=(50.0, 50.0), n=4, step=5.0)
    actions = enumerate_actions(sensor, ObstacleMap((box,)), bounds)
    assert len(actions) == 1
    assert actions[0].target_position == pytest.approx([50.0, 50.0])


def test_enumerate_actions_noise_override():
    bounds = Bounds(-100.0, 100.0, -100.0, 100.0)
    actions = enumerate_actions(_sensor(n=2), ObstacleMap(), bounds,
                                noise_classes=("high", "high"))
    assert all(a.noise_class == HIGH_NOISE for a in actions)
    with pytest.raises(ValueError):
        enumerate_actions(_sensor(n=2), ObstacleMap(), bounds,
                          noise_classes=("low",))


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


def test_gaussian_disc_pd_matches_noncentral_chi2():
    # isotropic: the mass of the disc is a noncentral chi-square cdf
    R = 10.0
    s = _sensor(position=(50.0, -20.0), fov=R, pd=0.9)
    worst = 0.0
    for sigma in R * np.logspace(-3, 2, 16):
        offsets = np.concatenate([np.linspace(0.0, 4.0 * R, 17),
                                  R + sigma * np.array([-2.0, -0.5, 0.0, 0.5, 2.0])])
        # angles across one ray spacing, so edges fall on and between rays
        for angle in np.linspace(0.0, 2.0 * np.pi / 1024, 5) + 0.3:
            for dist in offsets:
                mean = s.position + dist * np.array([np.cos(angle), np.sin(angle)])
                got = gaussian_disc_pd(Gaussian(mean, sigma ** 2 * np.eye(2)), s)
                want = 0.9 * ncx2.cdf((R / sigma) ** 2, 2, (dist / sigma) ** 2)
                worst = max(worst, abs(got - want))
    assert worst <= 2e-3


def test_gaussian_disc_pd_matches_monte_carlo():
    rng = np.random.default_rng(7)
    R = 10.0
    s = _sensor(position=(5.0, 5.0), fov=R, pd=0.9)
    draws = 2_000_000
    for rho in (-0.99, -0.5, 0.0, 0.5, 0.99):
        for ratio in (1.0, 10.0):
            s1 = R * rng.uniform(0.2, 2.0)
            s2 = s1 / ratio
            cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
            angle = rng.uniform(0.0, 2.0 * np.pi)
            mean = s.position + rng.uniform(0.0, 2.0 * R) * np.array(
                [np.cos(angle), np.sin(angle)])
            x = mean + rng.standard_normal((draws, 2)) @ np.linalg.cholesky(cov).T
            want = 0.9 * np.mean(np.sum((x - s.position) ** 2, axis=1) <= R * R)
            assert gaussian_disc_pd(Gaussian(mean, cov), s) == \
                pytest.approx(want, abs=2e-3)


def test_gaussian_disc_pd_range_and_purity():
    assert "rng" not in inspect.signature(gaussian_disc_pd).parameters
    covs = [np.diag([1e-12, 1e-12]), np.diag([1e8, 1e8]), np.diag([1e-6, 1e6]),
            np.diag([0.0, 4.0]), np.array([[4.0, 4.0], [4.0, 4.0]])]
    means = [np.zeros(2), np.array([10.0, 0.0]), np.array([7.0, -7.0]),
             np.array([1e4, 0.0])]
    for pd in (0.0, 0.4, 1.0):
        s = _sensor(fov=10.0, pd=pd)
        for cov in covs:
            for mean in means:
                g = Gaussian(mean, cov)
                got = gaussian_disc_pd(g, s)
                assert isinstance(got, float) and 0.0 <= got <= pd
                assert gaussian_disc_pd(g, s) == got
    s = _sensor(fov=10.0, pd=0.9)
    assert gaussian_disc_pd(Gaussian(np.zeros(2), np.diag([1e-8, 1e-8])), s) == \
        pytest.approx(0.9, abs=1e-12)
    assert gaussian_disc_pd(Gaussian(np.array([1e4, 0.0]), np.eye(2)), s) == 0.0
    # four-dimensional states use the position block
    g4 = Gaussian(np.array([3.0, 50.0, 4.0, -50.0]), np.diag([4.0, 1e6, 9.0, 1e6]))
    g2 = Gaussian(np.array([3.0, 4.0]), np.diag([4.0, 9.0]))
    assert gaussian_disc_pd(g4, s) == gaussian_disc_pd(g2, s)


def test_noise_matrix_classes():
    assert noise_matrix(LOW_NOISE, 10.0, 50.0) == pytest.approx(np.diag([10.0, 10.0]))
    assert noise_matrix(HIGH_NOISE, 10.0, 50.0) == pytest.approx(np.diag([50.0, 50.0]))


def test_generate_measurements_detection_and_clutter():
    s = _sensor(fov=10.0, pd=1.0)
    R = np.diag([0.01, 0.01])
    rng = np.random.default_rng(3)
    truth = [np.array([1.0, 0.0, 2.0, 0.0])]
    Z = generate_measurements(truth, s, H2, R, clutter_rate=0.0, rng=rng)
    assert len(Z) == 1
    assert Z[0] == pytest.approx([1.0, 2.0], abs=1.0)


def test_generate_measurements_out_of_fov_only_clutter():
    s = _sensor(fov=10.0, pd=1.0)
    R = np.diag([0.01, 0.01])
    rng = np.random.default_rng(4)
    truth = [np.array([100.0, 0.0, 100.0, 0.0])]
    counts = [len(generate_measurements(truth, s, H2, R, 2.0, rng))
              for _ in range(300)]
    # no detections, so counts are Poisson(2) and clutter stays in the disc
    assert np.mean(counts) == pytest.approx(2.0, abs=0.3)
    Z = generate_measurements(truth, s, H2, R, 50.0, rng)
    assert all(np.linalg.norm(z - s.position) <= s.fov_radius for z in Z)


def test_action_is_immutable_value():
    a = Action(3, (1.0, 2.0), HIGH_NOISE)
    assert a.target_position.dtype == float
    with pytest.raises(Exception):
        a.id = 4
