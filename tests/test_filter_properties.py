"""Property tests of the Bernoulli filter at the extremes.

After Ristic, Vo, Vo and Farina (2013), "A tutorial on Bernoulli
filters". ``predict``, ``update`` and ``reduce`` must keep r in [0, 1],
mixture weights positive and normalised, and covariances symmetric
positive semi-definite, under zero clutter, a detection probability of
0 or 1, and covariance scales from 1e-6 to 1e8. Two closed forms are
checked exactly: the prediction r' = p_B (1 - r) + p_S r with its
birth-plus-survivor mixture, and the no-measurement update
r' = r (1 - p_D) / (1 - r p_D), which leaves the spatial density as it
was. Planning relies on one more invariant, pinned here as well: a
covariance without cross-axis terms (x and y uncoupled) keeps them
exactly 0.0 through predict, update and reduce.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gosman.bernoulli import (BernoulliDensity, Gaussian, LinearSensor,
                              ncv_motion_model, predict, reduce, update)
from gosman.config import OBSERVATION_MATRIX
from gosman.planners import planning_belief

SETTINGS = settings(max_examples=80, deadline=None)
SCALES = (1e-6, 1.0, 1e8)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# zero clutter, the shipped FOV's 1/(pi 12^2), and a dense field
clutter = st.sampled_from([0.0, 1e-4, 1.0 / (np.pi * 144.0), 1.0])


@st.composite
def gaussians(draw, scale):
    a = draw(arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)))
    mean = draw(arrays(float, 4, elements=st.floats(-100.0, 100.0)))
    return Gaussian(mean, scale * (a @ a.T + 1e-3 * np.eye(4)))


@st.composite
def axis_gaussians(draw, scale):
    """A [px, vx, py, vy] Gaussian whose covariance does not couple the axes."""
    cov = np.zeros((4, 4))
    for i in (0, 2):
        a = draw(arrays(float, (2, 2), elements=st.floats(-1.0, 1.0)))
        cov[i:i + 2, i:i + 2] = scale * (a @ a.T + 1e-3 * np.eye(2))
    mean = draw(arrays(float, 4, elements=st.floats(-100.0, 100.0)))
    return Gaussian(mean, cov)


@st.composite
def densities(draw, max_components=4, per_axis=False):
    """A mixture density whose covariances share one of the extreme scales."""
    scale = draw(st.sampled_from(SCALES))
    n = draw(st.integers(1, max_components))
    comps = [draw((axis_gaussians if per_axis else gaussians)(scale)) for _ in range(n)]
    weights = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
    return BernoulliDensity(draw(probabilities), weights, comps)


@st.composite
def measurement_sets(draw, density, clutter_intensity):
    """Up to three measurements, on or off a component's predicted position."""
    n = draw(st.integers(0, 1 if clutter_intensity == 0.0 else 3))
    Z = []
    for _ in range(n):
        g = density.components[draw(st.integers(0, len(density.components) - 1))]
        offset = draw(st.one_of(st.just(np.zeros(2)),
                                arrays(float, 2, elements=st.floats(-50.0, 50.0))))
        Z.append(OBSERVATION_MATRIX @ g.mean + offset)
    return Z


def _motion(p_survival, p_birth):
    return ncv_motion_model(1.0, 2.0, p_survival, p_birth,
                            np.array([50.0, 0.0, 50.0, 0.0]),
                            np.diag([200.0, 25.0, 200.0, 25.0]))


def _assert_valid(density):
    assert 0.0 <= density.r <= 1.0
    assert len(density.weights) == len(density.components)
    if density.r == 0.0:
        return
    assert np.all(density.weights > 0.0)
    assert abs(density.weights.sum() - 1.0) <= 1e-12
    for g in density.components:
        cov = g.cov
        assert np.all(np.isfinite(cov))
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-9 * max(1.0, np.abs(cov).max())


def _assert_same_components(post, pred):
    assert len(post.components) == len(pred.components)
    assert all(a is b for a, b in zip(post.components, pred.components))
    assert post.weights == pytest.approx(pred.weights, rel=1e-12)


@SETTINGS
@given(densities(), probabilities, probabilities)
def test_predict_invariants_and_identity(prior, p_survival, p_birth):
    motion = _motion(p_survival, p_birth)
    pred = predict(prior, motion)
    _assert_valid(pred)

    r_birth, r_surv = p_birth * (1.0 - prior.r), p_survival * prior.r
    r_pred = r_birth + r_surv
    if not pred.components:
        # nothing left in floating point: r' is nil or subnormal
        assert pred.r == 0.0 and r_pred < np.finfo(float).tiny
        return
    assert pred.r == min(r_pred, 1.0)
    # a survivor whose weight underflows to zero is dropped
    surv_w = [r_surv * w / r_pred for w in prior.weights]
    kept = [i for i, w in enumerate(surv_w) if w > 0.0]
    want_w = ([r_birth / r_pred] if r_birth > 0.0 else []) + [surv_w[i] for i in kept]
    assert pred.weights == pytest.approx(want_w, rel=1e-12)
    survivors = pred.components
    if r_birth > 0.0:
        assert survivors[0] is motion.birth
        survivors = survivors[1:]
    assert len(survivors) == len(kept)
    for got, i in zip(survivors, kept):
        g = prior.components[i]
        assert np.array_equal(got.mean, motion.F @ g.mean)
        want_cov = motion.F @ g.cov @ motion.F.T + motion.Q
        assert np.allclose(got.cov, want_cov, rtol=1e-12,
                           atol=1e-12 * np.abs(want_cov).max())


@SETTINGS
@given(st.data(), densities(), probabilities, clutter,
       st.sampled_from([10.0, 50.0]))
def test_update_invariants(data, pred, pd_bar, clutter_intensity, noise):
    Z = data.draw(measurement_sets(pred, clutter_intensity))
    sensor = LinearSensor(OBSERVATION_MATRIX, noise * np.eye(2))
    post = update(pred, Z, sensor, pd_bar, clutter_intensity)
    _assert_valid(post)
    if pd_bar == 0.0:
        # nothing can be detected: the update learns nothing
        assert post.r == pred.r
        _assert_same_components(post, pred)


@SETTINGS
@given(densities(), probabilities, clutter)
def test_update_without_measurements_is_misdetection(pred, pd_bar, clutter_intensity):
    sensor = LinearSensor(OBSERVATION_MATRIX, 10.0 * np.eye(2))
    post = update(pred, [], sensor, pd_bar, clutter_intensity)
    _assert_valid(post)
    if pred.r == 0.0:
        assert post is pred
        return
    denom = 1.0 - pred.r * pd_bar
    want = pred.r * (1.0 - pd_bar) / denom if denom > 0.0 else 0.0
    assert post.r == pytest.approx(want, rel=1e-12, abs=1e-300)
    if post.r > 0.0:
        # misdetection scales every weight alike, so the density stays put
        _assert_same_components(post, pred)
    else:
        assert post.components == ()


@SETTINGS
@given(densities(max_components=8), st.integers(1, 5),
       st.sampled_from([0.0, 1e-4, 0.2, 1.0]))
def test_reduce_invariants(density, max_components, prune):
    out = reduce(density, max_components, prune)
    _assert_valid(out)
    if len(density.components) == 1:
        assert out is density
        return
    assert out.r == density.r
    # the heaviest components at or above the pruning weight, at least one
    want_n = min(max(1, int(np.sum(density.weights >= prune))), max_components)
    assert len(out.components) == want_n
    order = np.argsort(density.weights)[::-1]
    assert all(got is density.components[i]
               for got, i in zip(out.components, order))
    kept = density.weights[order[:want_n]]
    assert out.weights == pytest.approx(kept / kept.sum(), rel=1e-12)


def test_predict_drops_survivors_whose_weight_underflows():
    g = Gaussian(np.zeros(4), 1e-9 * np.eye(4))
    prior = BernoulliDensity(5e-324, np.array([0.5, 0.5]), (g, g))
    # r_surv w / r' is 2.5e-324, which rounds to zero
    assert predict(prior, _motion(1.0, 0.0)).r == 0.0
    motion = _motion(1.0, 0.1)
    pred = predict(prior, motion)
    assert len(pred.components) == 1 and pred.components[0] is motion.birth
    assert pred.r == 0.1


def _assert_per_axis(density):
    for g in density.components:
        assert not np.any(g.cov[:2, 2:]) and not np.any(g.cov[2:, :2])


@SETTINGS
@given(st.data(), densities(per_axis=True), probabilities, probabilities,
       probabilities, clutter, st.sampled_from([10.0, 50.0]))
def test_cross_axis_terms_stay_zero(data, prior, p_survival, p_birth, pd_bar,
                                    clutter_intensity, noise):
    pred = predict(prior, _motion(p_survival, p_birth))
    _assert_per_axis(pred)
    if pred.components:
        planning_belief(reduce(pred, max_components=1))
    Z = data.draw(measurement_sets(pred, clutter_intensity)) if pred.components else []
    sensor = LinearSensor(OBSERVATION_MATRIX, noise * np.eye(2))
    post = update(pred, Z, sensor, pd_bar, clutter_intensity)
    _assert_per_axis(post)
    _assert_per_axis(reduce(post, data.draw(st.integers(1, 5)),
                            data.draw(st.sampled_from([0.0, 1e-4, 0.2]))))


def test_planning_belief_rejects_cross_axis_terms():
    cov = np.diag([4.0, 1.0, 4.0, 1.0])
    cov[1, 2] = cov[2, 1] = 1e-300
    density = BernoulliDensity(0.5, np.array([1.0]), (Gaussian(np.zeros(4), cov),))
    with pytest.raises(ValueError, match="cross-axis"):
        planning_belief(density)


@example(1.0 + 5e-13)
@given(st.floats(0.0, 1.0 + 1e-12))
def test_density_never_stores_r_above_one(r):
    # the constructor admits r up to 1 + 1e-12 as rounding, and stores 1
    d = BernoulliDensity(r, np.array([1.0]), (Gaussian(np.zeros(4), np.eye(4)),))
    assert d.r == min(r, 1.0)
