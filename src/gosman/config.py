"""Scenario configuration: parsing, strict validation and defaulting.

Configurations are JSON documents with a versioned schema. Unknown keys are
rejected and errors carry the full field path, so a misspelt parameter can
never silently fall back to a default. ``SCHEMA`` states each key's kind,
bounds and default once; parsing walks it, and the echo follows its layout.
"""

import json
import sys
from dataclasses import dataclass, is_dataclass
from typing import NamedTuple

import numpy as np

from .bernoulli import MotionModel, ncv_motion_model
from .planners import PlannerConfig, PlanningEnv
from .sensors import Bounds, ObstacleMap

SCHEMA_VERSION = 1


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


class Check(NamedTuple):
    """One schema key: its kind, its bounds and, for an optional key, its default.

    The kind is ``float``, ``int``, a length n for a list of n numbers, or a
    parser ``kind(data, path)`` for a value with a structure of its own.
    """

    kind: object
    low: float = None
    high: float = None
    default: object = None   # None: the key is required

    def parse(self, data, path):
        kind, low, high, _ = self
        if isinstance(kind, int):
            _require(isinstance(data, list) and len(data) == kind,
                     path, f"expected a list of {kind} numbers")
            return _list(data, path, Check(float, low).parse)
        if kind not in (float, int):
            return kind(data, path)
        _require(isinstance(data, (int, kind)) and not isinstance(data, bool), path,
                 f"expected {'an integer' if kind is int else 'a number'}, got {data!r}")
        _require(low is None or data >= low, path, f"must be >= {low}, got {data}")
        _require(high is None or data <= high, path, f"must be <= {high}, got {data}")
        # false for inf, nan and an integer too large for a float, which float() rejects
        _require(kind is int or abs(data) <= sys.float_info.max, path,
                 f"must be finite, got {data}")
        return kind(data)


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


def _parse_version(data, path):   # checked, not kept: the echo writes SCHEMA_VERSION
    _require(type(data) is int and data == SCHEMA_VERSION, path,
             f"unsupported schema version {data!r}")


def _list(data, path, item, least=0, message="expected a list") -> tuple:
    """A list of at least ``least`` values, each parsed by ``item(value, path)``."""
    _require(isinstance(data, list) and len(data) >= least, path, message)
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(data))


def _parse_polygon(data, path) -> tuple:
    """At least 3 vertices, each one off an edge strictly on one side of it.

    That is a strictly convex polygon in either orientation, for which the
    half-plane test of ``ObstacleMap.blocks`` is exact; a collinear, concave
    or self-intersecting one fails.
    """
    poly = _list(data, path, Check(2).parse, 3, "expected >= 3 vertices")
    for i, ((ax, ay), (bx, by)) in enumerate(zip(poly, poly[1:] + poly[:1])):
        cross = [(bx - ax) * (y - ay) - (by - ay) * (x - ax)
                 for j, (x, y) in enumerate(poly) if j not in (i, (i + 1) % len(poly))]
        _require(min(cross) > 0.0 or max(cross) < 0.0, path, "expected a strictly convex polygon")
    return poly


def _parse_obstacles(data, path) -> tuple:
    return _list(data, path, _parse_polygon)


def _parse_policy(data, path) -> PolicySpec:
    _get_mapping(data, path, ["name"], optional=data)   # the name decides the other keys
    name = data["name"]
    _require(isinstance(name, str) and name in _POLICY_PARAMS, path + ".name",
             f"unknown policy name {name!r} (choose from ns, gd, kl, mcts)")
    table = _POLICY_PARAMS[name]
    _get_mapping(data, path, ["name"], ["label", *table])
    # validated, but echoed as given: a "discount": 1 stays 1
    params = {k: data.get(k, check.default) for k, check in table.items()}
    _walk(table, params, path)
    label = data.get("label")
    label = default_label({"name": name, **params}) if label is None else label
    _require(isinstance(label, str), path + ".label", f"expected a string, got {label!r}")
    return PolicySpec(name=name, label=label, params=params)


def _parse_policies(data, path) -> tuple:
    policies = _list(data, path, _parse_policy)
    labels = [p.label for p in policies]
    for i, label in enumerate(labels):
        _require(label not in labels[:i], f"{path}[{i}].label",
                 f"duplicate label {label!r}")
    return policies


def _parse_truth(data, path) -> tuple:
    """``(mode, episodes)`` of the truth block."""
    _require(isinstance(data, dict) and "mode" in data, path,
             "expected an object with a 'mode' key")
    if data["mode"] == "model":
        _get_mapping(data, path, required=["mode"])
        return "model", ()
    _require(data["mode"] == "scripted", path + ".mode", "must be 'model' or 'scripted'")
    _get_mapping(data, path, required=["mode", "episodes"])
    _require(isinstance(data["episodes"], list) and data["episodes"],
             path + ".episodes", "expected a non-empty list")
    episodes = []
    for i, ep in enumerate(data["episodes"]):
        p = f"{path}.episodes[{i}]"
        _get_mapping(ep, p, required=["start", "end", "waypoints"])
        start = Check(int, 0).parse(ep["start"], p + ".start")
        end = Check(int, start + 1).parse(ep["end"], p + ".end")
        _require(not episodes or start >= episodes[-1].end, p + ".start",
                 "episodes must not overlap")
        episodes.append(TruthEpisode(start, end, _list(
            ep["waypoints"], p + ".waypoints", Check(2).parse, 1,
            "expected at least one waypoint")))
    return "scripted", tuple(episodes)


def default_label(policy: dict) -> str:
    """Label of a defaults-filled policy block: its name, plus the mcts budget."""
    return policy["name"] if policy["name"] != "mcts" else f"mcts-{policy['budget']}"


_NUMBER, _POSITIVE, _PROBABILITY = Check(float), Check(float, 1e-9), Check(float, 0.0, 1.0)
# block -> key -> check, in validation order; a motion or sensor key names its field
SCHEMA = {
    "schema_version": Check(_parse_version),
    "bounds": {"xmin": _NUMBER, "xmax": _NUMBER, "ymin": _NUMBER, "ymax": _NUMBER},
    "duration": Check(int, 1),
    "motion": {"tau": Check(float, 0.0), "q": Check(float, 0.0),
               "p_survival": _PROBABILITY, "p_birth": _PROBABILITY,
               "birth_mean": Check(4), "birth_cov_diag": Check(4, 1e-9)},
    "sensor": {"fov_radius": _POSITIVE, "step_size": _POSITIVE,
               "num_actions": Check(int, 1), "p_detect": _PROBABILITY,
               "r_low": _POSITIVE, "r_high": _POSITIVE, "initial_position": Check(2)},
    "clutter_rate": Check(float, 0.0, default=1.0),
    "obstacles": Check(_parse_obstacles, default=[]),
    "gospa": {"c": _POSITIVE},
    "policy": Check(_parse_policy),
    "policies": Check(_parse_policies, default=[]),
    "mc_runs": Check(int, 1),
    "seed": Check(int, 0),
    "truth": Check(_parse_truth, default={"mode": "model"}),
}

# the settings each policy takes; unset mcts settings are PlannerConfig's
_POLICY_PARAMS = {"ns": {}, "gd": {}, "kl": {}, "mcts": {
    "horizon": Check(int, 1, default=PlannerConfig.horizon),
    "discount": Check(float, 0.0, 1.0, default=PlannerConfig.discount),
    "exploration": Check(float, 0.0, default=PlannerConfig.exploration),
    "budget": Check(int, 1, default=PlannerConfig.budget)}}


def _walk(table, data, path) -> dict:
    """Check a block's keys, then validate and convert its values in table order."""
    required = [k for k, c in table.items() if isinstance(c, dict) or c.default is None]
    _get_mapping(data, path, required, optional=table)
    return {k: _walk(c, data[k], f"{path}.{k}") if isinstance(c, dict)
            else c.parse(data.get(k, c.default), f"{path}.{k}") for k, c in table.items()}


def _plain(value):
    """The JSON form of a parsed value."""
    if isinstance(value, PolicySpec):
        return {"name": value.name, "label": value.label, **value.params}
    if is_dataclass(value):
        return {k: _plain(v) for k, v in vars(value).items()}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


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
    clutter_rate: float
    obstacles: tuple
    gospa_c: float
    policy: PolicySpec
    policies: tuple
    mc_runs: int
    seed: int
    truth_mode: str
    truth_episodes: tuple

    @property
    def clutter_intensity(self) -> float:
        return self.clutter_rate / (np.pi * self.fov_radius ** 2)

    def motion_model(self) -> MotionModel:
        return ncv_motion_model(self.tau, self.q, self.p_survival, self.p_birth,
                                self.birth_mean, self.birth_cov_diag)

    def planning_env(self) -> PlanningEnv:
        return PlanningEnv(
            motion=self.motion_model(),
            obstacles=ObstacleMap(self.obstacles),
            bounds=self.bounds, fov_radius=self.fov_radius, step_size=self.step_size,
            num_actions=self.num_actions, p_detect=self.p_detect,
            r_low=self.r_low, r_high=self.r_high, c=self.gospa_c)

    def resolved_dict(self) -> dict:
        """Round-trippable echo of the configuration with defaults filled in."""
        flat = _plain(self)
        scripted = {"episodes": flat["truth_episodes"]} if self.truth_episodes else {}
        flat.update(schema_version=SCHEMA_VERSION, gospa={"c": self.gospa_c},
                    truth={"mode": self.truth_mode, **scripted})
        return {key: flat[key] if key in flat else {k: flat[k] for k in SCHEMA[key]}
                for key in SCHEMA if key != "policies" or self.policies}


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw mapping and produce a resolved ScenarioConfig."""
    doc = _walk(SCHEMA, data, "config")
    bounds = Bounds(**doc.pop("bounds"))
    _require(bounds.xmax > bounds.xmin and bounds.ymax > bounds.ymin,
             "config.bounds", "bounds must have positive extent")
    position, path = doc["sensor"]["initial_position"], "config.sensor.initial_position"
    _require(bounds.contains(position), path, f"outside the bounds, got {list(position)}")
    for i, polygon in enumerate(doc["obstacles"]):   # an edge is a legal sensor position
        _require(not ObstacleMap((polygon,)).blocks(position), path,
                 f"inside obstacle {i}, got {list(position)}")
    del doc["schema_version"]
    doc["truth_mode"], doc["truth_episodes"] = doc.pop("truth")
    return ScenarioConfig(bounds=bounds, gospa_c=doc.pop("gospa")["c"],
                          **doc.pop("motion"), **doc.pop("sensor"), **doc)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            return parse_config(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
