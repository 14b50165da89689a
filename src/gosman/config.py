"""Scenario configuration: parsing, strict validation and defaulting.

Configurations are JSON documents with a versioned schema. Validation is
strict: unknown keys are rejected and error messages carry the full
field path, so a misspelt parameter can never silently fall back to a
default.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernoulli import MotionModel, ncv_motion_model
from .planners import PlanningEnv
from .sensors import Bounds, ObstacleMap, HIGH_NOISE, LOW_NOISE

SCHEMA_VERSION = 1

OBSERVATION_MATRIX = np.array([[1.0, 0.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, 0.0]])


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _get_mapping(data, path, required, optional=()):
    _require(isinstance(data, dict), path, "expected an object")
    unknown = set(data) - set(required) - set(optional)
    _require(not unknown, path, f"unknown keys: {sorted(unknown)}")
    missing = [k for k in required if k not in data]
    _require(not missing, path, f"missing keys: {missing}")
    return data


def _number(data, path, low=None, high=None):
    _require(isinstance(data, (int, float)) and not isinstance(data, bool),
             path, f"expected a number, got {data!r}")
    if low is not None:
        _require(data >= low, path, f"must be >= {low}, got {data}")
    if high is not None:
        _require(data <= high, path, f"must be <= {high}, got {data}")
    return float(data)


def _integer(data, path, low=None):
    _require(isinstance(data, int) and not isinstance(data, bool),
             path, f"expected an integer, got {data!r}")
    if low is not None:
        _require(data >= low, path, f"must be >= {low}, got {data}")
    return int(data)


def _vector(data, path, length):
    _require(isinstance(data, list) and len(data) == length,
             path, f"expected a list of {length} numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(data)]


@dataclass(frozen=True)
class TruthEpisode:
    start: int
    end: int
    waypoints: tuple


@dataclass(frozen=True)
class PolicySpec:
    name: str
    label: str
    params: dict


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description, resolved with all defaults."""

    bounds: Bounds
    duration: int
    tau: float
    q: float
    p_survival: float
    p_birth: float
    birth_mean: tuple
    birth_cov_diag: tuple
    fov_radius: float
    step_size: float
    num_actions: int
    p_detect: float
    r_low: float
    r_high: float
    initial_position: tuple
    noise_classes: Optional[tuple]
    clutter_rate: float
    obstacles: tuple
    gospa_c: float
    trace_block: str
    policy: PolicySpec
    policies: tuple
    mc_runs: int
    seed: int
    truth_mode: str
    truth_episodes: tuple
    filter_prune: float
    filter_max_components: int
    filter_pd_samples: int

    @property
    def trace_indices(self) -> tuple:
        """State components whose covariance trace enters the costs."""
        return (0, 2) if self.trace_block == "position" else (0, 1, 2, 3)

    @property
    def clutter_intensity(self) -> float:
        return self.clutter_rate / (np.pi * self.fov_radius ** 2)

    def motion_model(self) -> MotionModel:
        return ncv_motion_model(self.tau, self.q, self.p_survival, self.p_birth,
                                np.asarray(self.birth_mean),
                                np.diag(self.birth_cov_diag))

    def obstacle_map(self) -> ObstacleMap:
        return ObstacleMap(tuple(np.asarray(p) for p in self.obstacles))

    def planning_env(self) -> PlanningEnv:
        return PlanningEnv(
            motion=self.motion_model(), obstacles=self.obstacle_map(),
            bounds=self.bounds, fov_radius=self.fov_radius,
            step_size=self.step_size, num_actions=self.num_actions,
            p_detect=self.p_detect, H=OBSERVATION_MATRIX,
            r_low=self.r_low, r_high=self.r_high, c=self.gospa_c,
            noise_classes=self.noise_classes, trace_indices=self.trace_indices)

    def resolved_dict(self) -> dict:
        """Round-trippable echo of the configuration with defaults filled in."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "bounds": {"xmin": self.bounds.xmin, "xmax": self.bounds.xmax,
                       "ymin": self.bounds.ymin, "ymax": self.bounds.ymax},
            "duration": self.duration,
            "motion": {"tau": self.tau, "q": self.q,
                       "p_survival": self.p_survival, "p_birth": self.p_birth,
                       "birth_mean": list(self.birth_mean),
                       "birth_cov_diag": list(self.birth_cov_diag)},
            "sensor": {"fov_radius": self.fov_radius, "step_size": self.step_size,
                       "num_actions": self.num_actions, "p_detect": self.p_detect,
                       "r_low": self.r_low, "r_high": self.r_high,
                       "initial_position": list(self.initial_position)},
            "clutter_rate": self.clutter_rate,
            "obstacles": [[list(v) for v in poly] for poly in self.obstacles],
            "gospa": {"c": self.gospa_c, "trace_block": self.trace_block},
            "policy": {"name": self.policy.name, "label": self.policy.label,
                       **self.policy.params},
            "mc_runs": self.mc_runs,
            "seed": self.seed,
            "filter": {"prune": self.filter_prune,
                       "max_components": self.filter_max_components,
                       "pd_samples": self.filter_pd_samples},
        }
        if self.noise_classes is not None:
            out["sensor"]["noise_classes"] = list(self.noise_classes)
        if self.policies:
            out["policies"] = [{"name": p.name, "label": p.label, **p.params}
                               for p in self.policies]
        if self.truth_mode == "model":
            out["truth"] = {"mode": "model"}
        else:
            out["truth"] = {"mode": "scripted", "episodes": [
                {"start": ep.start, "end": ep.end,
                 "waypoints": [list(w) for w in ep.waypoints]}
                for ep in self.truth_episodes]}
        return out


_POLICY_PARAMS = {
    "ns": set(),
    "gd": set(),
    "kl": set(),
    "mcts": {"horizon", "discount", "exploration", "budget", "rollout_depth",
             "rollout"},
}


def _parse_policy(data, path) -> PolicySpec:
    _require(isinstance(data, dict), path, "expected an object")
    _require("name" in data, path, "missing keys: ['name']")
    name = data["name"]
    _require(name in _POLICY_PARAMS, path + ".name",
             f"unknown policy name {name!r} (choose from ns, gd, kl, mcts)")
    allowed = _POLICY_PARAMS[name] | {"name", "label"}
    unknown = set(data) - allowed
    _require(not unknown, path, f"unknown keys: {sorted(unknown)}")
    params = {k: v for k, v in data.items() if k not in ("name", "label")}
    if name == "mcts":
        for key in ("horizon", "budget", "rollout_depth"):
            if key in params:
                _integer(params[key], f"{path}.{key}", low=1)
        if "discount" in params:
            _number(params["discount"], path + ".discount", low=0.0, high=1.0)
        if "exploration" in params:
            _number(params["exploration"], path + ".exploration", low=0.0)
        if "rollout" in params:
            _require(params["rollout"] in ("random", "exhaustive"),
                     path + ".rollout", "must be 'random' or 'exhaustive'")
    label = data.get("label")
    if label is None:
        label = default_label(data)
    return PolicySpec(name=name, label=str(label), params=params)


def default_label(policy: dict) -> str:
    """Label of a raw policy block that sets none: its name, plus the mcts budget."""
    name = policy["name"]
    return name if name != "mcts" else f"mcts-{policy.get('budget', 10)}"


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw mapping and produce a resolved ScenarioConfig."""
    root = _get_mapping(data, "config",
                        required=["schema_version", "bounds", "duration", "motion",
                                  "sensor", "gospa", "policy", "mc_runs", "seed"],
                        optional=["clutter_rate", "obstacles", "policies", "truth",
                                  "filter"])
    _require(root["schema_version"] == SCHEMA_VERSION, "config.schema_version",
             f"unsupported schema version {root['schema_version']!r}")

    b = _get_mapping(root["bounds"], "config.bounds",
                     required=["xmin", "xmax", "ymin", "ymax"])
    bounds = Bounds(*[_number(b[k], f"config.bounds.{k}")
                      for k in ("xmin", "xmax", "ymin", "ymax")])
    _require(bounds.xmax > bounds.xmin and bounds.ymax > bounds.ymin,
             "config.bounds", "bounds must have positive extent")

    duration = _integer(root["duration"], "config.duration", low=1)

    m = _get_mapping(root["motion"], "config.motion",
                     required=["tau", "q", "p_survival", "p_birth",
                               "birth_mean", "birth_cov_diag"])
    tau = _number(m["tau"], "config.motion.tau", low=0.0)
    q = _number(m["q"], "config.motion.q", low=0.0)
    p_survival = _number(m["p_survival"], "config.motion.p_survival", 0.0, 1.0)
    p_birth = _number(m["p_birth"], "config.motion.p_birth", 0.0, 1.0)
    birth_mean = tuple(_vector(m["birth_mean"], "config.motion.birth_mean", 4))
    birth_cov = tuple(_vector(m["birth_cov_diag"], "config.motion.birth_cov_diag", 4))

    s = _get_mapping(root["sensor"], "config.sensor",
                     required=["fov_radius", "step_size", "num_actions",
                               "p_detect", "r_low", "r_high", "initial_position"],
                     optional=["noise_classes"])
    fov_radius = _number(s["fov_radius"], "config.sensor.fov_radius", low=1e-9)
    step_size = _number(s["step_size"], "config.sensor.step_size", low=1e-9)
    num_actions = _integer(s["num_actions"], "config.sensor.num_actions", low=1)
    p_detect = _number(s["p_detect"], "config.sensor.p_detect", 0.0, 1.0)
    r_low = _number(s["r_low"], "config.sensor.r_low", low=1e-9)
    r_high = _number(s["r_high"], "config.sensor.r_high", low=1e-9)
    initial_position = tuple(_vector(s["initial_position"],
                                     "config.sensor.initial_position", 2))
    noise_classes = None
    if "noise_classes" in s:
        nc = s["noise_classes"]
        _require(isinstance(nc, list) and len(nc) == num_actions,
                 "config.sensor.noise_classes",
                 f"expected a list of {num_actions} entries")
        for i, v in enumerate(nc):
            _require(v in (LOW_NOISE, HIGH_NOISE),
                     f"config.sensor.noise_classes[{i}]",
                     "must be 'low' or 'high'")
        noise_classes = tuple(nc)

    clutter_rate = _number(root.get("clutter_rate", 1.0), "config.clutter_rate",
                           low=0.0)

    obstacles = []
    raw_obstacles = root.get("obstacles", [])
    _require(isinstance(raw_obstacles, list), "config.obstacles", "expected a list")
    for i, poly in enumerate(raw_obstacles):
        _require(isinstance(poly, list) and len(poly) >= 3,
                 f"config.obstacles[{i}]", "expected >= 3 vertices")
        obstacles.append(tuple(tuple(_vector(v, f"config.obstacles[{i}][{j}]", 2))
                               for j, v in enumerate(poly)))

    g = _get_mapping(root["gospa"], "config.gospa", required=["c"],
                     optional=["trace_block"])
    gospa_c = _number(g["c"], "config.gospa.c", low=1e-9)
    trace_block = g.get("trace_block", "position")
    _require(trace_block in ("position", "full"), "config.gospa.trace_block",
             "must be 'position' or 'full'")

    policy = _parse_policy(root["policy"], "config.policy")
    policies = tuple(_parse_policy(p, f"config.policies[{i}]")
                     for i, p in enumerate(root.get("policies", [])))

    mc_runs = _integer(root["mc_runs"], "config.mc_runs", low=1)
    seed = _integer(root["seed"], "config.seed", low=0)

    truth = root.get("truth", {"mode": "model"})
    _require(isinstance(truth, dict) and "mode" in truth, "config.truth",
             "expected an object with a 'mode' key")
    truth_mode = truth["mode"]
    episodes = []
    if truth_mode == "model":
        _get_mapping(truth, "config.truth", required=["mode"])
    elif truth_mode == "scripted":
        t = _get_mapping(truth, "config.truth", required=["mode", "episodes"])
        _require(isinstance(t["episodes"], list) and t["episodes"],
                 "config.truth.episodes", "expected a non-empty list")
        prev_end = -1
        for i, ep in enumerate(t["episodes"]):
            path = f"config.truth.episodes[{i}]"
            e = _get_mapping(ep, path, required=["start", "end", "waypoints"])
            start = _integer(e["start"], path + ".start", low=0)
            end = _integer(e["end"], path + ".end", low=start + 1)
            _require(start >= prev_end, path + ".start",
                     "episodes must not overlap")
            prev_end = end
            wps = e["waypoints"]
            _require(isinstance(wps, list) and len(wps) >= 1,
                     path + ".waypoints", "expected at least one waypoint")
            waypoints = tuple(tuple(_vector(w, f"{path}.waypoints[{j}]", 2))
                              for j, w in enumerate(wps))
            episodes.append(TruthEpisode(start, end, waypoints))
    else:
        raise ConfigError("config.truth.mode: must be 'model' or 'scripted'")

    f = _get_mapping(root.get("filter", {}), "config.filter", required=[],
                     optional=["prune", "max_components", "pd_samples"])
    filter_prune = _number(f.get("prune", 1e-4), "config.filter.prune", low=0.0)
    filter_max = _integer(f.get("max_components", 10),
                          "config.filter.max_components", low=1)
    filter_pd_samples = _integer(f.get("pd_samples", 1000),
                                 "config.filter.pd_samples", low=1)

    return ScenarioConfig(
        bounds=bounds, duration=duration, tau=tau, q=q,
        p_survival=p_survival, p_birth=p_birth, birth_mean=birth_mean,
        birth_cov_diag=birth_cov, fov_radius=fov_radius, step_size=step_size,
        num_actions=num_actions, p_detect=p_detect, r_low=r_low, r_high=r_high,
        initial_position=initial_position, noise_classes=noise_classes,
        clutter_rate=clutter_rate, obstacles=tuple(obstacles), gospa_c=gospa_c,
        trace_block=trace_block, policy=policy, policies=policies,
        mc_runs=mc_runs, seed=seed, truth_mode=truth_mode,
        truth_episodes=tuple(episodes), filter_prune=filter_prune,
        filter_max_components=filter_max, filter_pd_samples=filter_pd_samples)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_config(data)
