"""Gaussian-mixture Bernoulli filter.

The filter propagates a probability of existence r together with a
Gaussian-mixture single-target density. Prediction accounts for birth
and survival; the update handles clutter and misdetection with a
constant (expected) probability of detection. Densities are immutable
values so they can be shared freely between Monte Carlo workers.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gospa import POSITION_INDICES

_SYM_TOL = 1e-9


def make_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetrise and clamp eigenvalues at zero (numerical hygiene)."""
    cov = np.asarray(cov, dtype=float)
    sym = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(sym)
    if w[0] < -_SYM_TOL:
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

    @property
    def dim(self) -> int:
        return len(self.mean)


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
    def top_component(self) -> Gaussian:
        return self.components[int(np.argmax(self.weights))]


def empty_density() -> BernoulliDensity:
    return BernoulliDensity(r=0.0)


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian target dynamics with birth and survival."""

    F: np.ndarray
    Q: np.ndarray
    p_survival: float
    p_birth: float
    birth: Gaussian

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=float))
        object.__setattr__(self, "Q", make_psd(self.Q))
        for name, p in (("p_survival", self.p_survival), ("p_birth", self.p_birth)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {p}")


def ncv_motion_model(tau: float, q: float, p_survival: float, p_birth: float,
                     birth_mean, birth_cov) -> MotionModel:
    """Nearly-constant-velocity model on [px, vx, py, vy]."""
    f1 = np.array([[1.0, tau], [0.0, 1.0]])
    q1 = q * np.array([[tau ** 3 / 3.0, tau ** 2 / 2.0],
                       [tau ** 2 / 2.0, tau]])
    F = np.kron(np.eye(2), f1)
    Q = np.kron(np.eye(2), q1)
    return MotionModel(F, Q, p_survival, p_birth, Gaussian(birth_mean, birth_cov))


@dataclass(frozen=True)
class LinearSensor:
    """Linear-Gaussian measurement model z = H x + noise(R)."""

    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))


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
            comps.append(Gaussian(model.F @ g.mean,
                                  model.F @ g.cov @ model.F.T + model.Q))
    if not comps:
        return empty_density()
    return BernoulliDensity(min(r_pred, 1.0), np.array(weights), comps)


def _gaussian_pdf(z: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = z - mean
    L = np.linalg.cholesky(cov)
    y = np.linalg.solve(L, d)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    k = len(z)
    return float(np.exp(-0.5 * (y @ y) - 0.5 * (logdet + k * np.log(2.0 * np.pi))))


def update(pred: BernoulliDensity, Z: Sequence[np.ndarray], sensor: LinearSensor,
           pd_bar: float, clutter_intensity: float) -> BernoulliDensity:
    """Bernoulli update with misdetection, clutter and detection hypotheses.

    ``clutter_intensity`` is the spatially uniform clutter density
    lambda_c(z) (expected clutter per unit area). With zero clutter the
    model admits at most one measurement.
    """
    if not 0.0 <= pd_bar <= 1.0:
        raise ValueError(f"pd_bar out of [0, 1]: {pd_bar}")
    Z = [np.asarray(z, dtype=float) for z in Z]
    if clutter_intensity == 0.0 and len(Z) > 1:
        raise ValueError("zero clutter intensity admits at most one measurement")
    if pred.r == 0.0 or len(pred.components) == 0:
        return pred

    H, R = sensor.H, sensor.R
    # per-component predicted measurement terms
    zhats = [H @ g.mean for g in pred.components]
    Ss = [make_psd(H @ g.cov @ H.T + R) for g in pred.components]
    gains = [g.cov @ H.T @ np.linalg.inv(S) for g, S in zip(pred.components, Ss)]

    weights = []
    comps = []
    # misdetection hypothesis
    if pd_bar < 1.0:
        for w, g in zip(pred.weights, pred.components):
            weights.append(w * (1.0 - pd_bar))
            comps.append(g)
    # one detection hypothesis per measurement
    like_sums = []
    for z in Z:
        like = [w * _gaussian_pdf(z, zh, S)
                for w, zh, S in zip(pred.weights, zhats, Ss)]
        like_sums.append(sum(like))
        if pd_bar == 0.0:
            continue
        for w_l, g, zh, K in zip(like, pred.components, zhats, gains):
            if w_l <= 0.0:
                continue
            mean = g.mean + K @ (z - zh)
            cov = g.cov - K @ H @ g.cov
            if clutter_intensity > 0.0:
                weights.append(pd_bar * w_l / clutter_intensity)
            else:
                weights.append(pd_bar * w_l)
            comps.append(Gaussian(mean, cov))

    if clutter_intensity > 0.0:
        delta = pd_bar * (1.0 - sum(like_sums) / clutter_intensity)
        denom = 1.0 - pred.r * delta
        r_new = pred.r * (1.0 - delta) / denom if denom > 0.0 else 0.0
    elif len(Z) == 1 and like_sums[0] > 0.0 and pd_bar > 0.0:
        # zero-clutter limit: the detection hypothesis dominates
        r_new = 1.0
        weights = weights[len(pred.weights):] if pd_bar < 1.0 else weights
        comps = comps[len(pred.components):] if pd_bar < 1.0 else comps
    else:
        # no measurement (or zero-likelihood measurement): misdetection only
        delta = pd_bar
        denom = 1.0 - pred.r * delta
        r_new = pred.r * (1.0 - delta) / denom if denom > 0.0 else 0.0
        weights = weights[:len(pred.weights)]
        comps = comps[:len(pred.components)]

    r_new = float(np.clip(r_new, 0.0, 1.0))
    # drop hypotheses whose weight underflowed to zero
    kept = [(w, g) for w, g in zip(weights, comps) if w > 0.0]
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


def optimal_threshold(cov: np.ndarray, c: float) -> float:
    """Optimal detection threshold for the MSGOSPA-optimal set estimator."""
    return threshold_for_trace(position_trace(cov), c)


def threshold_for_trace(tr: float, c: float) -> float:
    """Optimal detection threshold given the covariance trace ``tr``."""
    return 1.0 / (2.0 - min(2.0 * tr / (c * c), 1.0))


def position_trace(cov: np.ndarray) -> float:
    """Trace of the covariance over the position block; a 2 x 2 one is that block."""
    cov = np.asarray(cov)
    if cov.shape[0] == 2:
        return float(np.trace(cov))
    idx = list(POSITION_INDICES)
    return float(cov[idx, idx].sum())


def extract_estimate(density: BernoulliDensity, c: float) -> list:
    """Report {posterior mean} when r clears the optimal threshold, else {}.

    Uses the highest-weighted component if the mixture has not been
    reduced to a single component.
    """
    if density.r == 0.0 or len(density.components) == 0:
        return []
    g = density.top_component
    if density.r >= optimal_threshold(g.cov, c):
        return [g.mean]
    return []
