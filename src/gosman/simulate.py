"""Closed-loop Monte Carlo simulation.

A run alternates prediction, action selection, sensor movement, truth
propagation, measurement generation and the Bernoulli update, recording
the GOSPA error of the reported set estimate at every step. Runs are
fully reproducible from the configuration seed and are paired across
policies: run k of every policy sees the same ground truth and the same
measurement noise streams.
"""

import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Optional, Sequence

import numpy as np

from . import __version__, streams
from .bernoulli import empty_density, extract_estimate, predict, reduce, update
from .config import PolicySpec, ScenarioConfig
from .gospa import GospaResult, RmsGospaSeries, gospa, rms_gospa
from .planners import make_policy, planning_belief
from .sensors import expected_pd, generate_measurements, noise_variance

# filter settings: importance samples per PD estimate, mixture size cap and
# pruning weight
FILTER_PD_SAMPLES = 1000
FILTER_MAX_COMPONENTS = 10
FILTER_PRUNE = 1e-4


@dataclass(frozen=True)
class StepRecord:
    step: int
    gospa: GospaResult
    action_id: int
    sensor_position: tuple
    existence: float
    estimated: bool
    truth_present: bool
    plan_seconds: float


@dataclass(frozen=True)
class RunMetrics:
    run: int
    steps: tuple

    @property
    def gospa_results(self):
        return [s.gospa for s in self.steps]

    @property
    def plan_seconds(self) -> float:
        return sum(s.plan_seconds for s in self.steps)


@dataclass(frozen=True)
class BatchResult:
    label: str
    runs: tuple
    rms: RmsGospaSeries
    plan_seconds: float
    wall_seconds: float


def _scripted_states(episode, tau: float) -> list:
    """Waypoint polyline traversal; waypoints are hit at evenly spaced times.

    Equal time per segment (not per unit arc length), so closely spaced
    waypoints slow the target down and widely spaced ones speed it up.
    """
    n = episode.end - episode.start
    wps = np.asarray(episode.waypoints, dtype=float)
    if len(wps) == 1 or n == 1:
        positions = np.repeat(wps[:1], n, axis=0)
    else:
        u = np.linspace(0.0, len(wps) - 1.0, n)
        knots = np.arange(len(wps), dtype=float)
        positions = np.stack([np.interp(u, knots, wps[:, 0]),
                              np.interp(u, knots, wps[:, 1])], axis=1)
    vel = np.zeros_like(positions)
    if n > 1:
        vel[:-1] = (positions[1:] - positions[:-1]) / tau
        vel[-1] = vel[-2]
    states = []
    for p, v in zip(positions, vel):
        states.append(np.array([p[0], v[0], p[1], v[1]]))
    return states


def generate_truth(cfg: ScenarioConfig, run: int) -> list:
    """Ground-truth target set (empty or singleton) for every time-step."""
    truth = [[] for _ in range(cfg.duration)]
    if cfg.truth_mode == "scripted":
        for ep in cfg.truth_episodes:
            for i, x in enumerate(_scripted_states(ep, cfg.tau)):
                t = ep.start + i
                if t < cfg.duration:
                    truth[t] = [x]
        return truth

    motion = cfg.motion_model()
    F = motion.F
    # multivariate_normal's SVD factor, taken once: its draws and values, bit for bit
    noise_factor, birth_factor = (
        (u * np.sqrt(s)).T for u, s, _ in map(np.linalg.svd, (motion.Q, motion.birth.cov)))
    rng = streams.stream(cfg.seed, run, streams.TRUTH)
    alive = False
    x = None
    for t in range(cfg.duration):
        if alive:
            if rng.random() < cfg.p_survival:
                x = F @ x + rng.standard_normal(4) @ noise_factor
            else:
                alive = False
        elif rng.random() < cfg.p_birth:
            alive = True
            x = motion.birth.mean + rng.standard_normal(4) @ birth_factor
        truth[t] = [x.copy()] if alive else []
    return truth


def run_episode(cfg: ScenarioConfig, policy_spec: PolicySpec, run: int) -> RunMetrics:
    """One closed-loop Monte Carlo run of a single policy.

    An exception inside a step is raised again as a ``RuntimeError`` whose
    one-line message names the policy label, seed, run and step.
    """
    env = cfg.planning_env()
    policy = make_policy({"name": policy_spec.name, **policy_spec.params}, env)
    truth = generate_truth(cfg, run)

    posterior = empty_density()
    sensor_position = cfg.initial_position
    records = []
    for t in range(cfg.duration):
        try:
            pred = predict(posterior, env.motion)
            belief = planning_belief(reduce(pred, max_components=1)) \
                if pred.components else None

            step_key = (cfg.seed, run, t)
            t0 = time.perf_counter()
            if belief is not None:
                action = policy.plan(belief, sensor_position, step_key)
            else:
                action = min(env.actions_from(sensor_position), key=lambda a: a.id)
            plan_seconds = time.perf_counter() - t0

            sensor_position = action.target_position
            sensor = env.sensor_at(sensor_position)
            noise = noise_variance(action.noise_class, cfg.r_low, cfg.r_high)

            meas_rng = streams.stream(cfg.seed, run, t, streams.MEASUREMENT)
            Z = generate_measurements(truth[t], sensor, noise, cfg.clutter_rate, meas_rng)

            pd_rng = streams.stream(cfg.seed, run, t, streams.FILTER_PD)
            pd_bar = sum(w * expected_pd(g, sensor, FILTER_PD_SAMPLES, pd_rng)
                         for w, g in zip(pred.weights, pred.components))
            pd_bar = float(np.clip(pd_bar, 0.0, cfg.p_detect))
            posterior = update(pred, Z, noise, pd_bar, cfg.clutter_intensity)
            posterior = reduce(posterior, FILTER_MAX_COMPONENTS, FILTER_PRUNE)

            estimate = extract_estimate(posterior, cfg.gospa_c)
            g = gospa(truth[t], estimate, cfg.gospa_c)
            records.append(StepRecord(
                step=t, gospa=g, action_id=action.id,
                sensor_position=sensor_position,
                existence=float(posterior.r), estimated=bool(estimate),
                truth_present=bool(truth[t]), plan_seconds=plan_seconds))
        except Exception as exc:
            raise RuntimeError(
                f"policy {policy_spec.label}, seed {cfg.seed}, run {run}, step {t}: "
                f"{type(exc).__name__}: {exc}") from exc
    return RunMetrics(run=run, steps=tuple(records))


def _episode_worker(args):
    cfg, spec, run = args
    return run_episode(cfg, spec, run)


def _run_batches(cfg: ScenarioConfig, specs: Sequence[PolicySpec], parallel: int) -> list:
    """All Monte Carlo runs of each policy in turn, aggregated to RMS GOSPA.

    ``parallel`` worker processes, at most one per CPU, form one pool that
    every policy's runs share. A policy's ``wall_seconds`` is the time of
    its own runs.
    """
    pooled = parallel > 1 and cfg.mc_runs > 1
    batches = []
    with Pool(min(parallel, os.cpu_count() or 1)) if pooled else nullcontext() as pool:
        for spec in specs:
            t0 = time.perf_counter()
            jobs = [(cfg, spec, run) for run in range(cfg.mc_runs)]
            runs = pool.map(_episode_worker, jobs) if pooled else list(map(_episode_worker, jobs))
            wall = time.perf_counter() - t0
            batches.append(BatchResult(label=spec.label, runs=tuple(runs),
                                       rms=rms_gospa([r.gospa_results for r in runs]),
                                       plan_seconds=sum(r.plan_seconds for r in runs),
                                       wall_seconds=wall))
    return batches


def run_batch(cfg: ScenarioConfig, policy_spec: Optional[PolicySpec] = None,
              parallel: int = 0) -> BatchResult:
    """All Monte Carlo runs of one policy, by default the config's ``policy``."""
    return _run_batches(cfg, [policy_spec if policy_spec is not None else cfg.policy],
                        parallel)[0]


def run_comparison(cfg: ScenarioConfig, parallel: int = 0) -> list:
    """Run every policy in the comparison list under paired random streams."""
    return _run_batches(cfg, cfg.policies if cfg.policies else (cfg.policy,), parallel)


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def write_metrics_csv(path, batches: Sequence[BatchResult]) -> None:
    """Per-step metrics for every policy and run, deterministically formatted."""
    header = ("run,step,policy,gospa_sq,loc_sq,missed_sq,false_sq,"
              "r,sensor_x,sensor_y,truth_present,est_present\n")
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        for batch in batches:
            for run in batch.runs:
                for s in run.steps:
                    g = s.gospa
                    fh.write(",".join([
                        str(run.run), str(s.step), batch.label,
                        _fmt(g.total_sq), _fmt(g.loc_sq),
                        _fmt(g.missed_sq), _fmt(g.false_sq),
                        _fmt(s.existence), _fmt(s.sensor_position[0]),
                        _fmt(s.sensor_position[1]),
                        str(int(s.truth_present)), str(int(s.estimated)),
                    ]) + "\n")


def summarise(cfg: ScenarioConfig, batches: Sequence[BatchResult],
              argv: Optional[Sequence[str]] = None) -> dict:
    """The summary document; ``argv`` is the ``gosman`` command line, None for a library call."""
    policies = {}
    steps = cfg.duration * cfg.mc_runs
    for batch in batches:
        rms = batch.rms
        policies[batch.label] = {
            "rms_gospa": float(_fmt(rms.overall)),
            "rms_gospa_loc": float(_fmt(rms.loc)),
            "rms_gospa_missed": float(_fmt(rms.missed)),
            "rms_gospa_false": float(_fmt(rms.false)),
            "mean_plan_seconds_per_step": float(_fmt(batch.plan_seconds / steps)),
            "total_plan_seconds": float(_fmt(batch.plan_seconds)),
            "wall_seconds": float(_fmt(batch.wall_seconds)),
        }
    return {
        "schema_version": 1,
        "config": cfg.resolved_dict(),
        "policies": policies,
        # the output bits rest on numpy's SIMD log and exp and on BLAS's dot
        "provenance": {"argv": None if argv is None else list(argv), "gosman": __version__,
                       "nproc": os.cpu_count(), "numpy": np.__version__,
                       "python": "{}.{}.{}".format(*sys.version_info[:3])},
    }


def write_summary_json(path, cfg: ScenarioConfig, batches: Sequence[BatchResult],
                       argv: Optional[Sequence[str]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(summarise(cfg, batches, argv), fh, indent=2, sort_keys=True)
        fh.write("\n")
