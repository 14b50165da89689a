"""End-to-end acceptance gate.

Each test checks one numbered claim about the system against an
independent oracle (brute-force enumeration, grid quadrature, plain
Monte Carlo or an exhaustive planner) or against the shipped benchmark
scenarios, and prints a single pass/fail line.
"""

import copy
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gosman.bernoulli import Gaussian
from gosman.cli import oracle_scenarios
from gosman.config import load_config, parse_config
from gosman.costs import msgospa_bound, msgospa_cost_at_threshold
from gosman.gospa import gospa
from gosman.planners import (PlannerConfig, exhaustive_bellman, kl_bernoulli_gaussian,
                             mcts_search, myopic_plan)
from gosman.sensors import SensorState, expected_pd
from gosman.simulate import run_comparison

ROOT = Path(__file__).resolve().parent.parent
C = 80.0


# ---------------------------------------------------------------------------
# criterion 1: metric versus exhaustive assignment enumeration


def _gospa_sq_brute(X, Y, c):
    """Minimum over every partial assignment, computed independently."""
    n, m = len(X), len(Y)
    half_c2 = 0.5 * c * c
    best = (n + m) * half_c2
    for k in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                loc = sum(float(np.sum((X[i] - Y[j]) ** 2))
                          for i, j in zip(rows, cols))
                best = min(best, loc + (n + m - 2 * k) * half_c2)
    return best


def test_criterion_1_gospa_oracle(report):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    max_diff = 0.0
    for _ in range(1000):
        n, m = rng.integers(0, 5, size=2)
        X = [rng.uniform(0, 60, size=2) for _ in range(n)]
        Y = [rng.uniform(0, 60, size=2) for _ in range(m)]
        c = float(rng.uniform(5.0, 40.0))
        got = gospa(X, Y, c).total_sq
        want = _gospa_sq_brute(X, Y, c)
        max_diff = max(max_diff, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(1, max_diff <= 1e-9 and elapsed < 10.0,
           f"1000 pairs, max |diff| {max_diff:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criteria 2 and 3 share the same 500 random posteriors


def _random_posteriors(count, rng):
    posteriors = []
    for _ in range(count):
        r = float(rng.uniform(0.0, 1.0))
        A = rng.normal(size=(2, 2))
        P = A @ A.T
        P *= rng.uniform(0.0, 2.0 * C * C) / np.trace(P)
        posteriors.append((r, P))
    return posteriors


@pytest.fixture(scope="module")
def posteriors():
    return _random_posteriors(500, np.random.default_rng(202))


def test_criterion_2_bound_validity(posteriors, report):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    samples = 10_000
    half_c2 = 0.5 * C * C
    violations = 0
    for r, P in posteriors:
        bound = msgospa_bound(r, P, C, pos_indices=(0, 1))
        L = np.linalg.cholesky(P + 1e-12 * np.eye(2))
        present = rng.random(samples) < r
        x = (L @ rng.standard_normal((2, samples))).T
        if r >= bound.threshold:
            # estimator reports the mean (the origin)
            err = np.where(present,
                           np.minimum(np.sum(x * x, axis=1), C * C), half_c2)
        else:
            # estimator reports nothing
            err = np.where(present, half_c2, 0.0)
        mc = float(err.mean())
        se = float(err.std(ddof=1)) / np.sqrt(samples)
        if mc > bound.cost + 3.0 * se:
            violations += 1
    elapsed = time.perf_counter() - t0
    report(2, violations <= 1 and elapsed < 120.0,
           f"{500 - violations}/500 within bound + 3 SE, {elapsed:.1f} s")


def test_criterion_3_threshold_optimality(posteriors, report):
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for r, P in posteriors:
        best_star = msgospa_bound(r, P, C, pos_indices=(0, 1)).cost
        best_grid = min(msgospa_cost_at_threshold(g, r, P, C, pos_indices=(0, 1))
                        for g in grid)
        worst = max(worst, best_star - best_grid)
    report(3, worst <= 1e-9,
           f"500 posteriors x 1001-point grid, max shortfall {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: detection-probability estimate versus grid quadrature


def _pd_quadrature(mean, cov, sensor):
    h = sensor.fov_radius / 500.0
    axis = np.arange(-sensor.fov_radius, sensor.fov_radius + h / 2, h)
    gx, gy = np.meshgrid(axis + sensor.position[0], axis + sensor.position[1])
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = np.linalg.norm(pts - sensor.position, axis=1) <= sensor.fov_radius
    dens = multivariate_normal(mean, cov).pdf(pts[inside])
    return sensor.p_detect * float(dens.sum()) * h * h


def test_criterion_4_expected_pd_accuracy(report):
    rng = np.random.default_rng(404)
    delta = 10.0
    sensor = SensorState(np.array([50.0, 50.0]), delta, 5.0, 4, 0.9)
    max_err = 0.0
    for i in range(50):
        # means spanning inside, boundary and outside placements
        dist = [0.3 * delta, delta, 1.7 * delta][i % 3] * rng.uniform(0.7, 1.3)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        mean = sensor.position + dist * np.array([np.cos(angle), np.sin(angle)])
        sig = rng.uniform(delta / 3.0, delta, size=2)
        rho = rng.uniform(-0.5, 0.5)
        cov = np.array([[sig[0] ** 2, rho * sig[0] * sig[1]],
                        [rho * sig[0] * sig[1], sig[1] ** 2]])
        g = Gaussian(mean, cov)
        got = expected_pd(g, sensor, 10_000, rng, pos_indices=(0, 1))
        want = _pd_quadrature(mean, cov, sensor)
        max_err = max(max_err, abs(got - want))

    # convergence-rate check: std shrinks 10x from 100 to 10000 samples
    g = Gaussian(sensor.position + np.array([delta, 0.0]),
                 np.diag([(delta / 2) ** 2, (delta / 2) ** 2]))
    lo = [expected_pd(g, sensor, 100, rng, pos_indices=(0, 1))
          for _ in range(100)]
    hi = [expected_pd(g, sensor, 10_000, rng, pos_indices=(0, 1))
          for _ in range(100)]
    ratio = float(np.std(lo, ddof=1) / np.std(hi, ddof=1))
    report(4, max_err <= 0.01 and 7.0 <= ratio <= 13.0,
           f"max |err| {max_err:.4f} over 50 configs, std ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 5: closed-form divergence versus plain Monte Carlo


def test_criterion_5_kl_closed_form(report):
    rng = np.random.default_rng(505)
    samples = 1_000_000
    worst_z = 0.0
    for case in range(20):
        if case < 14:
            r_pred = float(rng.uniform(0.05, 0.95))
            r_post = float(rng.uniform(0.05, 0.95))
        else:
            # degenerate existence branch
            r_pred = r_post = float(rng.integers(0, 2))
        mean_post = rng.uniform(-2, 2, size=2)
        mean_pred = mean_post + rng.uniform(-1, 1, size=2)
        a_post = rng.normal(size=(2, 2))
        a_pred = rng.normal(size=(2, 2))
        cov_post = a_post @ a_post.T + 0.5 * np.eye(2)
        cov_pred = a_pred @ a_pred.T + 0.5 * np.eye(2)
        closed = kl_bernoulli_gaussian(r_post, Gaussian(mean_post, cov_post),
                                       r_pred, Gaussian(mean_pred, cov_pred))

        present = rng.random(samples) < r_pred
        n_present = int(present.sum())
        terms = np.empty(samples)
        if r_pred < 1.0:
            terms[~present] = np.log((1.0 - r_pred) / (1.0 - r_post))
        if n_present:
            x = rng.multivariate_normal(mean_pred, cov_pred, size=n_present)
            lp_pred = multivariate_normal(mean_pred, cov_pred).logpdf(x)
            lp_post = multivariate_normal(mean_post, cov_post).logpdf(x)
            terms[present] = (np.log(r_pred) + lp_pred
                              - np.log(r_post) - lp_post)
        mc = float(terms.mean())
        se = float(terms.std(ddof=1)) / np.sqrt(samples)
        z = abs(closed - mc) / se if se > 0 else 0.0
        worst_z = max(worst_z, z)
    report(5, worst_z <= 3.0, f"20 pairs, worst |z| {worst_z:.2f}")


# ---------------------------------------------------------------------------
# criterion 6: tree search versus exhaustive planning


def test_criterion_6_planner_oracle(report):
    horizon = 3
    worst_diff = 0.0
    mismatches = 0
    myopic_mismatches = 0
    for i, density, position, env in oracle_scenarios(0):
        key = (606, i, 0)
        n = len(env.actions_from(position))
        assert n == 3
        budget = sum(n ** d for d in range(1, horizon + 1))
        oracle_action, oracle_value = exhaustive_bellman(
            density, position, env, horizon, 0.7)
        cfg = PlannerConfig(horizon=horizon, discount=0.7, budget=budget,
                            rollout_depth=horizon, rollout="exhaustive")
        got = mcts_search(density, position, env, cfg, key)
        worst_diff = max(worst_diff, abs(-got.value - oracle_value))
        if got.action.id != oracle_action.id:
            mismatches += 1

        zero = PlannerConfig(horizon=horizon, discount=0.0, budget=budget,
                             rollout_depth=horizon)
        if mcts_search(density, position, env, zero, key).action.id != \
                myopic_plan(density, position, env).id:
            myopic_mismatches += 1
    ok = mismatches == 0 and worst_diff <= 1e-9 and myopic_mismatches == 0
    report(6, ok, f"10 scenarios, value diff {worst_diff:.2e}, "
                  f"{mismatches} action / {myopic_mismatches} myopic mismatches")


# ---------------------------------------------------------------------------
# criteria 7 and 8: shipped benchmark scenarios

TRAP_STEP = 110


def _rms(batch):
    return batch.rms.overall


def _post_trap_rms(batch):
    sq = np.array([[g.total_sq for g in r.gospa_results] for r in batch.runs])
    return float(np.sqrt(sq[:, TRAP_STEP:].mean()))


@pytest.mark.slow
def test_criterion_7_obstacle_scenario(report):
    cfg = load_config(ROOT / "configs" / "obstacle.json")
    t0 = time.perf_counter()
    batches = {b.label: b for b in run_comparison(cfg, parallel=8)}
    elapsed = time.perf_counter() - t0
    mcts = _rms(batches["mcts-10"])
    gd = _rms(batches["gd"])
    trapped = {name: _post_trap_rms(batches[name]) for name in ("gd", "ns", "kl")}
    improvement = 1.0 - mcts / gd
    ok = (improvement >= 0.20
          and all(v > 0.55 * cfg.gospa_c for v in trapped.values())
          and elapsed < 1800.0)
    report(7, ok,
           f"mcts-10 {mcts:.2f} vs gd {gd:.2f} ({improvement:.1%} better), "
           f"post-trap ns/gd/kl {trapped['ns']:.1f}/{trapped['gd']:.1f}/"
           f"{trapped['kl']:.1f} vs 0.55c={0.55 * cfg.gospa_c:.1f}, "
           f"{elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_8_open_scenario(report):
    cfg = load_config(ROOT / "configs" / "open.json")
    batches = run_comparison(cfg, parallel=8)
    values = {b.label: _rms(b) for b in batches}
    spread = max(values.values()) / min(values.values()) - 1.0
    report(8, spread <= 0.08,
           "near-tie " + " / ".join(f"{k} {v:.2f}" for k, v in values.items())
           + f", spread {spread:.1%}")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical compare output


def test_criterion_9_determinism(tmp_path, report):
    from gosman.cli import main
    raw = json.loads((ROOT / "configs" / "obstacle.json").read_text())
    raw["duration"] = 40
    raw["mc_runs"] = 2
    raw["policies"] = [{"name": "ns"}, {"name": "gd"}]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(9, ok, f"two compare invocations, {len(outs[0])} bytes each, "
                  f"{'identical' if ok else 'different'}")


# ---------------------------------------------------------------------------
# criterion 10: per-step planning time ordering


@pytest.mark.slow
def test_criterion_10_timing_ordering(report):
    cfg = load_config(ROOT / "configs" / "obstacle.json")
    raw = cfg.resolved_dict()
    raw["duration"] = 60
    raw["mc_runs"] = 2
    mcts = [p for p in raw["policies"] if p["name"] == "mcts"][0]
    raw["policies"] = [{"name": "ns"}, {"name": "gd"}, dict(mcts)]
    for budget in (50, 150):
        variant = dict(mcts)
        variant["budget"] = budget
        variant["label"] = f"mcts-{budget}"
        raw["policies"].append(variant)
    cfg = parse_config(copy.deepcopy(raw))
    batches = run_comparison(cfg, parallel=2)
    steps = cfg.duration * cfg.mc_runs
    t = {b.label: b.plan_seconds / steps for b in batches}
    ok = (t["ns"] < t["gd"] <= t["mcts-10"] < t["mcts-50"] < t["mcts-150"])
    report(10, ok, "mean s/step " + " | ".join(
        f"{k} {v * 1000:.1f}ms" for k, v in t.items()))
