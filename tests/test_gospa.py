"""Unit and property tests for the set metric."""

import numpy as np
import pytest

from gosman.gospa import GospaResult, gospa, rms_gospa


def test_empty_sets_zero():
    g = gospa([], [], c=10.0)
    assert g.total_sq == 0.0
    assert g.total == 0.0


def test_missed_only():
    g = gospa([np.array([1.0, 2.0])], [], c=10.0)
    assert g.total_sq == pytest.approx(50.0)
    assert g.missed_sq == pytest.approx(50.0)
    assert g.loc_sq == 0.0 and g.false_sq == 0.0


def test_false_only():
    g = gospa([], [np.array([1.0, 2.0]), np.array([3.0, 4.0])], c=10.0)
    assert g.total_sq == pytest.approx(100.0)
    assert g.false_sq == pytest.approx(100.0)


def test_single_pair_within_cutoff():
    g = gospa([np.array([0.0, 0.0])], [np.array([3.0, 4.0])], c=10.0)
    assert g.total_sq == pytest.approx(25.0)
    assert g.loc_sq == pytest.approx(25.0)
    assert g.num_assigned == 1


def test_single_pair_beyond_cutoff_left_unassigned():
    g = gospa([np.array([0.0, 0.0])], [np.array([100.0, 0.0])], c=10.0)
    # one missed plus one false is cheaper than a cut-off assignment
    assert g.total_sq == pytest.approx(100.0)
    assert g.num_assigned == 0
    assert g.loc_sq == 0.0


def test_four_dim_states_use_positions():
    x = np.array([1.0, 9.0, 2.0, -9.0])
    y = np.array([4.0, 0.0, 6.0, 0.0])
    g = gospa([x], [y], c=10.0)
    assert g.loc_sq == pytest.approx(25.0)


def test_symmetry_swaps_missed_and_false():
    rng = np.random.default_rng(1)
    X = list(rng.uniform(0, 50, size=(3, 2)))
    Y = list(rng.uniform(0, 50, size=(5, 2)))
    a = gospa(X, Y, c=12.0)
    b = gospa(Y, X, c=12.0)
    assert a.total_sq == pytest.approx(b.total_sq)
    assert a.missed_sq == pytest.approx(b.false_sq)
    assert a.false_sq == pytest.approx(b.missed_sq)


def test_identical_sets_zero():
    rng = np.random.default_rng(2)
    X = list(rng.uniform(0, 50, size=(4, 2)))
    g = gospa(X, list(X), c=12.0)
    assert g.total_sq == pytest.approx(0.0, abs=1e-12)


def test_triangle_inequality_on_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sets = []
        for _ in range(3):
            n = int(rng.integers(0, 5))
            sets.append(list(rng.uniform(0, 30, size=(n, 2))))
        X, Y, Z = sets
        dxz = gospa(X, Z, c=8.0).total
        dxy = gospa(X, Y, c=8.0).total
        dyz = gospa(Y, Z, c=8.0).total
        assert dxz <= dxy + dyz + 1e-9


def test_decomposition_sums_to_total():
    rng = np.random.default_rng(4)
    for _ in range(100):
        X = list(rng.uniform(0, 40, size=(int(rng.integers(0, 7)), 2)))
        Y = list(rng.uniform(0, 40, size=(int(rng.integers(0, 7)), 2)))
        g = gospa(X, Y, c=10.0)
        assert g.total_sq == pytest.approx(g.loc_sq + g.missed_sq + g.false_sq)


def test_large_sets_use_assignment_solver():
    rng = np.random.default_rng(5)
    X = list(rng.uniform(0, 100, size=(12, 2)))
    Y = list(rng.uniform(0, 100, size=(9, 2)))
    g = gospa(X, Y, c=15.0)
    assert g.total_sq >= 0.0
    assert g.num_assigned <= 9


def test_invalid_arguments():
    with pytest.raises(ValueError):
        gospa([], [], c=0.0)


def test_rms_aggregation():
    g1 = GospaResult(4.0, 4.0, 0.0, 0.0, 1)
    g2 = GospaResult(16.0, 0.0, 16.0, 0.0, 0)
    series = rms_gospa([[g1, g2], [g2, g1]])
    assert series.overall == pytest.approx(np.sqrt(10.0))
    assert series.per_step[0] == pytest.approx(np.sqrt(10.0))
    assert len(series.per_step) == 2


def test_rms_rejects_ragged_grid():
    g = GospaResult(1.0, 1.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        rms_gospa([[g, g], [g]])
    with pytest.raises(ValueError):
        rms_gospa([])
