"""Gaussian-mixture Bernoulli filter.

The filter propagates a probability of existence r together with a
Gaussian-mixture single-target density. Prediction accounts for birth
and survival; the update handles clutter and misdetection with a
constant (expected) probability of detection. Densities are immutable
values so they can be shared freely between Monte Carlo workers.

No covariance couples x and y, so a component is an ``AxisGaussian``
and prediction and update are scalar arithmetic on each axis's block,
in two kernels that the planners share (``predict_axes``,
``kalman_block``). No step factorises a matrix: the update's likelihood
uses the diagonal innovation covariance's square roots, and gives the
Cholesky form's values bit for bit (``tests/test_filter_properties.py``
checks it against that form). ``make_psd`` and ``Gaussian`` serve the
motion model's one-off checks and the correlated densities of tests.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .gospa import POSITION_INDICES

_SYM_TOL = 1e-9
# the dimension times log(2 pi) in a 2-D Gaussian's normaliser
_TWO_LOG_2PI = 2 * np.log(2.0 * np.pi)


def make_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetrise and clamp eigenvalues at zero (numerical hygiene)."""
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(sym)
    # rounding error scales with the covariance, so the tolerance does too
    if w[0] < -_SYM_TOL * max(1.0, abs(w[-1])):
        raise ValueError(f"covariance has eigenvalue {w[0]:.3e} below tolerance")
    if w[0] < 0.0:
        sym = (v * np.maximum(w, 0.0)) @ v.T
        sym = 0.5 * (sym + sym.T)
    return sym


@dataclass(frozen=True)
class Gaussian:
    """Gaussian state density; covariance is repaired to PSD on construction."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", make_psd(self.cov))


class AxisGaussian(NamedTuple):
    """A [px, vx, py, vy] Gaussian whose covariance does not couple the axes.

    ``bx`` and ``by`` are the ``(p, c, v)`` entries of the x- and y-axis
    [position, velocity] covariance blocks; ``cov`` builds the 4 x 4 matrix.
    """

    mean: np.ndarray
    bx: tuple
    by: tuple

    @property
    def cov(self) -> np.ndarray:
        (p, c, v), (P, C, V) = self.bx, self.by
        return np.array([[p, c, 0.0, 0.0], [c, v, 0.0, 0.0],
                         [0.0, 0.0, P, C], [0.0, 0.0, C, V]])


def predict_axes(mean, bx: tuple, by: tuple, tau: float, q: tuple) -> tuple:
    """``(mean, bx, by)`` after x' = F x, P' = F P F^T + Q on each axis.

    Per axis F = [[1, tau], [0, 1]] and Q is the ``(p, c, v)`` block ``q``.
    """
    px, vx, py, vy = mean
    (p, c, v), (P, C, V) = bx, by
    return ((px + tau * vx, vx, py + tau * vy, vy),
            ((p + tau * c) + (c + tau * v) * tau + q[0], c + tau * v + q[1], v + q[2]),
            ((P + tau * C) + (C + tau * V) * tau + q[0], C + tau * V + q[1], V + q[2]))


def kalman_block(block: tuple, noise: float) -> tuple:
    """Gains and posterior block of one axis, measured in position with ``noise``.

    The posterior's off-diagonal entry is the mean of the two of P - K H P.
    """
    p, c, v = block
    i = 1.0 / (p + noise)
    kp, kc = p * i, c * i
    return (kp, kc), (p - kp * p, 0.5 * ((c - kp * c) + (c - kc * p)), v - kc * c)


@dataclass(frozen=True)
class BernoulliDensity:
    """Existence probability plus a weighted Gaussian mixture.

    An empty mixture is only valid together with r == 0 (no target).
    """

    r: float
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "components", tuple(self.components))
        if not 0.0 <= self.r <= 1.0 + 1e-12:
            raise ValueError(f"existence probability out of range: {self.r}")
        # rounding may carry r a hair above 1; store the probability it means
        object.__setattr__(self, "r", min(self.r, 1.0))
        if len(self.weights) != len(self.components):
            raise ValueError("weights and components length mismatch")
        if len(self.weights):
            if np.any(self.weights <= 0):
                raise ValueError("mixture weights must be positive")
            total = self.weights.sum()
            if abs(total - 1.0) > 1e-12:
                object.__setattr__(self, "weights", self.weights / total)
        elif self.r > 0:
            raise ValueError("empty mixture requires r == 0")

    @property
    def top_component(self) -> AxisGaussian:
        return self.components[int(np.argmax(self.weights))]


def empty_density() -> BernoulliDensity:
    return BernoulliDensity(r=0.0)


@dataclass(frozen=True)
class MotionModel:
    """Nearly-constant-velocity motion with birth; ``q`` is the per-axis block of Q."""

    tau: float
    q: tuple
    p_survival: float
    p_birth: float
    birth: AxisGaussian

    def __post_init__(self):
        for name, p in (("p_survival", self.p_survival), ("p_birth", self.p_birth)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {p}")
        # raise on an indefinite process noise or birth covariance
        make_psd(self.Q)
        make_psd(self.birth.cov)

    @property
    def F(self) -> np.ndarray:
        return np.kron(np.eye(2), [[1.0, self.tau], [0.0, 1.0]])

    @property
    def Q(self) -> np.ndarray:
        return AxisGaussian(np.zeros(4), self.q, self.q).cov   # of the process noise


def ncv_motion_model(tau: float, q: float, p_survival: float, p_birth: float,
                     birth_mean, birth_var) -> MotionModel:
    """Nearly-constant-velocity model; targets are born N(birth_mean, diag(birth_var))."""
    px, vx, py, vy = birth_var   # the variances
    birth = AxisGaussian(np.asarray(birth_mean, dtype=float), (px, 0.0, vx), (py, 0.0, vy))
    return MotionModel(float(tau), (q * (tau ** 3 / 3.0), q * (tau ** 2 / 2.0), q * tau),
                       p_survival, p_birth, birth)


def predict(prior: BernoulliDensity, model: MotionModel) -> BernoulliDensity:
    """Bernoulli prediction under birth and survival.

    r' = p_B (1 - r) + p_S r; the mixture gains a birth component with
    weight p_B (1 - r) / r' next to the Kalman-predicted survivors.
    """
    r_birth = model.p_birth * (1.0 - prior.r)
    r_surv = model.p_survival * prior.r
    r_pred = r_birth + r_surv
    if r_pred <= 0.0:
        return empty_density()

    weights = []
    comps = []
    if r_birth > 0.0:
        weights.append(r_birth / r_pred)
        comps.append(model.birth)
    for w, g in zip(prior.weights, prior.components):
        w_pred = r_surv * w / r_pred
        if w_pred > 0.0:   # zero when r_surv is nil or so tiny it underflows
            weights.append(w_pred)
            mean, bx, by = predict_axes(g.mean.tolist(), g.bx, g.by, model.tau, model.q)
            comps.append(AxisGaussian(np.array(mean), bx, by))
    if not comps:
        return empty_density()
    return BernoulliDensity(min(r_pred, 1.0), np.array(weights), comps)


def _likelihoods(components: Sequence[AxisGaussian], Z: Sequence[np.ndarray],
                 noise: float) -> list:
    """Per measurement, each component's innovation (dx, dy) and N(z; zhat, S).

    S = diag(sx^2, sy^2) adds ``noise`` to the position variances, so its
    Cholesky factor is diag(sx, sy). The values are the Cholesky form's bit
    for bit: its one 2-element dot product (BLAS fuses a multiply-add
    there), and numpy's ``log`` and ``exp``, whose SIMD results differ from
    ``math``'s.
    """
    i, j = POSITION_INDICES
    means = [g.mean.tolist() for g in components]
    sds = np.sqrt([[g.bx[0] + noise, g.by[0] + noise] for g in components])
    # log det(2 pi S) / 2 of each component
    halves = (0.5 * (2.0 * np.log(sds).sum(axis=1) + _TWO_LOG_2PI)).tolist()
    out = []
    for z in Z:
        zx, zy = z.tolist()
        offsets = [(zx - m[i], zy - m[j]) for m in means]
        pdfs = [float(np.exp(-0.5 * (y @ y) - half))
                for y, half in zip(np.divide(offsets, sds), halves)]
        out.append((offsets, pdfs))
    return out


def update(pred: BernoulliDensity, Z: Sequence[np.ndarray], noise: float,
           pd_bar: float, clutter_intensity: float) -> BernoulliDensity:
    """Bernoulli update with misdetection, clutter and detection hypotheses.

    Each measurement is a target position with noise variance ``noise``
    per axis. ``clutter_intensity`` is the spatially uniform clutter
    density lambda_c(z) (expected clutter per unit area). With zero
    clutter the model admits at most one measurement, and a detection of
    it makes r = 1; otherwise r' = r (1 - delta) / (1 - r delta).

    The likelihoods come from ``_likelihoods``, without a factorisation.
    """
    if not 0.0 <= pd_bar <= 1.0:
        raise ValueError(f"pd_bar out of [0, 1]: {pd_bar}")
    Z = [np.asarray(z, dtype=float) for z in Z]
    if clutter_intensity == 0.0 and len(Z) > 1:
        raise ValueError("zero clutter intensity admits at most one measurement")
    if pred.r == 0.0 or len(pred.components) == 0:
        return pred

    miss = [(w * (1.0 - pd_bar), g) for w, g in zip(pred.weights, pred.components)]
    detect = []
    like_total = 0.0
    for offsets, pdfs in _likelihoods(pred.components, Z, noise):
        like = [w * pdf for w, pdf in zip(pred.weights, pdfs)]
        like_total += sum(like)
        for g, (dx, dy), w_l in zip(pred.components, offsets, like):
            if pd_bar == 0.0 or w_l <= 0.0:
                continue
            (kx, kvx), bx = kalman_block(g.bx, noise)
            (ky, kvy), by = kalman_block(g.by, noise)
            px, vx, py, vy = g.mean.tolist()
            mean = np.array([px + kx * dx, vx + kvx * dx, py + ky * dy, vy + kvy * dy])
            # likelihood ratio against clutter; without clutter normalised below
            detect.append((pd_bar * w_l / (clutter_intensity or 1.0),
                           AxisGaussian(mean, bx, by)))

    if clutter_intensity == 0.0 and detect:
        # zero-clutter limit: the one measurement is the target's
        hyps, r_new = detect, 1.0
    else:
        if clutter_intensity > 0.0:
            hyps, delta = miss + detect, pd_bar * (1.0 - like_total / clutter_intensity)
        else:
            # no measurement (or zero-likelihood measurement): misdetection only
            hyps, delta = miss, pd_bar
        denom = 1.0 - pred.r * delta
        r_new = pred.r * (1.0 - delta) / denom if denom > 0.0 else 0.0

    r_new = float(np.clip(r_new, 0.0, 1.0))
    # drop hypotheses whose weight is nil (misses at p_D = 1) or underflowed to zero
    kept = [(w, g) for w, g in hyps if w > 0.0]
    if r_new == 0.0 or not kept:
        return empty_density()
    w = np.asarray([k[0] for k in kept])
    return BernoulliDensity(r_new, w / w.sum(), [k[1] for k in kept])


def reduce(density: BernoulliDensity, max_components: int,
           prune_threshold: float = 0.0) -> BernoulliDensity:
    """Prune low-weight components and cap the mixture size."""
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    if len(density.components) <= 1:
        return density
    order = np.argsort(density.weights)[::-1]
    kept = [i for i in order if density.weights[i] >= prune_threshold]
    if not kept:
        kept = [int(order[0])]
    kept = kept[:max_components]
    w = density.weights[kept]
    comps = [density.components[i] for i in kept]
    return BernoulliDensity(density.r, w / w.sum(), comps)


def threshold_for_trace(tr: float, c: float) -> float:
    """Optimal detection threshold given the trace ``tr`` of the position covariance."""
    return 1.0 / (2.0 - min(2.0 * tr / (c * c), 1.0))


def extract_estimate(density: BernoulliDensity, c: float) -> list:
    """Report {posterior mean} when r clears the optimal threshold, else {}.

    Uses the highest-weighted component if the mixture has not been
    reduced to a single component.
    """
    if density.r == 0.0 or len(density.components) == 0:
        return []
    g = density.top_component
    if density.r >= threshold_for_trace(g.bx[0] + g.by[0], c):
        return [g.mean]
    return []
