"""Property tests of the Bernoulli filter at the extremes.

After Ristic, Vo, Vo and Farina (2013), "A tutorial on Bernoulli
filters". ``predict``, ``update`` and ``reduce`` must keep r in [0, 1],
mixture weights positive and normalised, and covariances symmetric
positive semi-definite, under zero clutter, a detection probability of
0 or 1, and covariance scales from 1e-6 to 1e8. Two closed forms are
checked exactly: the prediction r' = p_B (1 - r) + p_S r with its
birth-plus-survivor mixture, and the no-measurement update
r' = r (1 - p_D) / (1 - r p_D), which leaves the spatial density as it
was.

The filter works on per-axis blocks (``AxisGaussian``). Its former 4 x 4
matrix prediction and update, with the Cholesky-factor likelihood
``_gaussian_pdf``, are kept here as a test-only reference: the per-axis
filter matches them bit for bit, except for a prediction at a time step
other than 1, where BLAS may fuse multiply-adds and the tolerance is
1e-12 of the largest entry.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gosman.bernoulli import (AxisGaussian, BernoulliDensity, Gaussian, _likelihoods,
                              ncv_motion_model, predict, reduce, update)

SETTINGS = settings(max_examples=80, deadline=None)
H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
SCALES = (1e-6, 1.0, 1e8)
probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# zero clutter, the shipped FOV's 1/(pi 12^2), and a dense field
clutter = st.sampled_from([0.0, 1e-4, 1.0 / (np.pi * 144.0), 1.0])


@st.composite
def gaussians(draw, scale):
    """A [px, vx, py, vy] Gaussian: two positive definite per-axis blocks."""
    blocks = []
    for _ in range(2):
        a = draw(arrays(float, (2, 2), elements=st.floats(-1.0, 1.0)))
        m = scale * (a @ a.T + 1e-3 * np.eye(2))
        blocks.append((float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1])))
    mean = draw(arrays(float, 4, elements=st.floats(-100.0, 100.0)))
    return AxisGaussian(mean, *blocks)


@st.composite
def densities(draw, max_components=4):
    """A mixture density whose covariances share one of the extreme scales."""
    scale = draw(st.sampled_from(SCALES))
    n = draw(st.integers(1, max_components))
    comps = [draw(gaussians(scale)) for _ in range(n)]
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
        Z.append(H @ g.mean + offset)
    return Z


def _motion(p_survival, p_birth, tau=1.0):
    return ncv_motion_model(tau, 2.0, p_survival, p_birth,
                            np.array([50.0, 0.0, 50.0, 0.0]), [200.0, 25.0, 200.0, 25.0])


# ---------------------------------------------------------------------------
# the 4 x 4 reference: the matrix filter, with its validating Gaussian


def _gaussian_pdf(z: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = z - mean
    L = np.linalg.cholesky(cov)
    y = np.linalg.solve(L, d)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    k = len(z)
    return float(np.exp(-0.5 * (y @ y) - 0.5 * (logdet + k * np.log(2.0 * np.pi))))


def _ref_predict_component(g, motion):
    F = motion.F
    return Gaussian(F @ g.mean, F @ g.cov @ F.T + motion.Q)


def _ref_update(pred, Z, noise, pd_bar, clutter_intensity):
    """The former update with H, R = noise I and Kalman matrices: (r, weights, comps)."""
    R = noise * np.eye(2)
    zhats = [H @ g.mean for g in pred.components]
    Ss = [H @ g.cov @ H.T + R for g in pred.components]
    miss = [(w * (1.0 - pd_bar), g) for w, g in zip(pred.weights, pred.components)]
    detect = []
    like_total = 0.0
    for z in Z:
        like = [w * _gaussian_pdf(z, zh, S) for w, zh, S in zip(pred.weights, zhats, Ss)]
        like_total += sum(like)
        for i, w_l in enumerate(like):
            if pd_bar == 0.0 or w_l <= 0.0:
                continue
            g = pred.components[i]
            K = g.cov @ H.T @ np.linalg.inv(Ss[i])
            detect.append((pd_bar * w_l / (clutter_intensity or 1.0),
                           Gaussian(g.mean + K @ (z - zhats[i]), g.cov - K @ H @ g.cov)))
    if clutter_intensity == 0.0 and detect:
        hyps, r_new = detect, 1.0
    else:
        if clutter_intensity > 0.0:
            hyps, delta = miss + detect, pd_bar * (1.0 - like_total / clutter_intensity)
        else:
            hyps, delta = miss, pd_bar
        denom = 1.0 - pred.r * delta
        r_new = pred.r * (1.0 - delta) / denom if denom > 0.0 else 0.0
    r_new = float(np.clip(r_new, 0.0, 1.0))
    kept = [(w, g) for w, g in hyps if w > 0.0]
    if r_new == 0.0 or not kept:
        return 0.0, np.zeros(0), []
    w = np.asarray([k[0] for k in kept])
    return r_new, w / w.sum(), [k[1] for k in kept]


def _assert_component(got, want, rel=0.0):
    for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
        assert np.all(np.abs(a - b) <= rel * np.abs(b).max())


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


_axis_variances = st.floats(-6.0, 8.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(_axis_variances, _axis_variances, _axis_variances, st.floats(0.0, 40.0),
       st.floats(0.0, 40.0), st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
       arrays(float, 4, elements=st.floats(-100.0, 100.0)))
@example(1e-6, 1e-6, 1e-6, 40.0, 40.0, 1.0, -1.0, np.array([3.0, 0.0, -7.0, 0.0]))
@example(1e8, 1e8, 1e8, 40.0, 0.0, -1.0, 1.0, np.array([3.0, 0.0, -7.0, 0.0]))
@example(1e-6, 1e8, 1.0, 0.0, 0.0, 1.0, 1.0, np.array([3.0, 0.0, -7.0, 0.0]))
def test_likelihood_matches_cholesky_form(vx, vy, noise, kx, ky, sign_x, sign_y, mean):
    """The filter's likelihood equals ``_gaussian_pdf`` bit for bit, 0 to 40 sigma out."""
    g = AxisGaussian(mean, (vx, 0.0, 1.0), (vy, 0.0, 1.0))
    S = np.diag([vx + noise, vy + noise])
    zhat = H @ mean
    z = zhat + np.array([sign_x * kx, sign_y * ky]) * np.sqrt(S.diagonal())
    [(offsets, [got])] = _likelihoods([g], [z], noise)
    assert got.hex() == _gaussian_pdf(z, zhat, S).hex()
    assert offsets == [tuple((z - zhat).tolist())]
    if kx * kx + ky * ky >= 1600.0:
        assert got == 0.0   # exp(-800) and below underflows at every S here


def test_likelihood_matches_cholesky_form_in_bulk():
    """20,000 components in one call: a last-bit slip in a few per mille shows."""
    rng = np.random.default_rng(20)
    n = 20_000
    var = 10.0 ** rng.uniform(-6.0, 8.0, (n, 2))
    noise = 10.0 ** rng.uniform(-6.0, 8.0)
    k = rng.uniform(-40.0, 40.0, (n, 2))   # offsets in standard deviations
    z = np.array([3.0, -7.0])
    zhats = z - k * np.sqrt(var + noise)
    comps = [AxisGaussian(np.array([mx, 0.0, my, 0.0]), (vx, 0.0, 1.0), (vy, 0.0, 1.0))
             for (mx, my), (vx, vy) in zip(zhats.tolist(), var.tolist())]
    [(_, got)] = _likelihoods(comps, [z], noise)
    want = [_gaussian_pdf(z, zh, np.diag(v + noise)) for zh, v in zip(zhats, var)]
    assert [a.hex() for a in got] == [b.hex() for b in want]
    assert 0.0 in got and min(w for w in want if w > 0.0) < 1e-300   # underflow reached


@SETTINGS
@given(densities(), probabilities, probabilities, st.sampled_from([1.0, 0.1, 2.5]))
def test_predict_invariants_and_identity(prior, p_survival, p_birth, tau):
    motion = _motion(p_survival, p_birth, tau)
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
    want_w = np.array(([r_birth / r_pred] if r_birth > 0.0 else [])
                      + [surv_w[i] for i in kept])
    # normalised: with a subnormal r' the quotients can round far from summing to 1
    assert pred.weights == pytest.approx(want_w / want_w.sum(), rel=1e-12)
    survivors = pred.components
    if r_birth > 0.0:
        assert survivors[0] is motion.birth
        survivors = survivors[1:]
    assert len(survivors) == len(kept)
    for got, i in zip(survivors, kept):
        _assert_component(got, _ref_predict_component(prior.components[i], motion),
                          0.0 if tau == 1.0 else 1e-12)


@SETTINGS
@given(st.data(), densities(), probabilities, clutter,
       st.sampled_from([10.0, 50.0]))
def test_update_invariants(data, pred, pd_bar, clutter_intensity, noise):
    Z = data.draw(measurement_sets(pred, clutter_intensity))
    post = update(pred, Z, noise, pd_bar, clutter_intensity)
    _assert_valid(post)
    if pred.r > 0.0:
        # the 4 x 4 reference, bit for bit
        r, weights, comps = _ref_update(pred, Z, noise, pd_bar, clutter_intensity)
        assert post.r == r
        assert np.array_equal(post.weights, weights)
        assert len(post.components) == len(comps)
        for got, want in zip(post.components, comps):
            _assert_component(got, want)
    if pd_bar == 0.0:
        # nothing can be detected: the update learns nothing
        assert post.r == pred.r
        _assert_same_components(post, pred)


@SETTINGS
@given(densities(), probabilities, clutter)
def test_update_without_measurements_is_misdetection(pred, pd_bar, clutter_intensity):
    post = update(pred, [], 10.0, pd_bar, clutter_intensity)
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
    g = AxisGaussian(np.zeros(4), (1e-9, 0.0, 1e-9), (1e-9, 0.0, 1e-9))
    prior = BernoulliDensity(5e-324, np.array([0.5, 0.5]), (g, g))
    # r_surv w / r' is 2.5e-324, which rounds to zero
    assert predict(prior, _motion(1.0, 0.0)).r == 0.0
    motion = _motion(1.0, 0.1)
    pred = predict(prior, motion)
    assert len(pred.components) == 1 and pred.components[0] is motion.birth
    assert pred.r == 0.1


@example(1.0 + 5e-13)
@given(st.floats(0.0, 1.0 + 1e-12))
def test_density_never_stores_r_above_one(r):
    # the constructor admits r up to 1 + 1e-12 as rounding, and stores 1
    d = BernoulliDensity(r, np.array([1.0]), (Gaussian(np.zeros(4), np.eye(4)),))
    assert d.r == min(r, 1.0)
