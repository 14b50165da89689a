"""The configuration schema end to end: the resolved echo of every key, and
the exact error line and exit code of a bad value in each field.

``data/golden_resolved_config.json`` is the ``validate`` output for
``full_config()``, and each line of ``BAD_VALUES`` is the error the
command printed for that case, both recorded before the schema moved into
one table. A change to the table that keeps them shows that the echo and
the messages did not move.
"""

import json
from pathlib import Path

import pytest

from gosman.cli import main

from test_cli import small_raw, write_config

ROOT = Path(__file__).resolve().parent
DELETE = object()


def full_config():
    """configs/obstacle.json with every optional key set, integral floats and mcts settings."""
    raw = json.loads((ROOT.parent / "configs" / "obstacle.json").read_text())
    raw["bounds"] = {"xmin": 0, "xmax": 1000, "ymin": 0, "ymax": 1000}
    raw["motion"]["tau"] = 1
    raw["motion"]["birth_mean"] = [350, 0, 500, 0]
    raw["sensor"]["initial_position"] = [400, 500]
    raw["clutter_rate"] = 1
    raw["gospa"]["c"] = 80
    raw["policy"] = {"name": "mcts", "label": "deep", "horizon": 4, "discount": 1,
                     "exploration": 0, "budget": 12}
    raw["policies"] = [{"name": "ns", "label": "nearest"}, {"name": "gd"}, {"name": "kl"},
                       {"name": "mcts", "budget": 10, "horizon": 10, "discount": 1,
                        "exploration": 1},
                       dict(raw["policy"])]
    return raw


def with_value(raw, path, value):
    """``raw`` with the entry at ``path`` set to ``value``, or removed for DELETE."""
    if not path:
        return value
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


def validate(tmp_path, capsys, raw):
    code = main(["validate", "--config", write_config(tmp_path, raw)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_echo_matches_golden(tmp_path, capsys):
    code, out, err = validate(tmp_path, capsys, full_config())
    assert (code, err) == (0, "")
    assert out == (ROOT / "data" / "golden_resolved_config.json").read_text()


BAD_VALUES = [
    ((), [], "config: expected an object"),
    (("seed",), DELETE, "config: missing keys: ['seed']"),
    (("extra",), 1, "config: unknown keys: ['extra']"),
    (("schema_version",), "1", "config.schema_version: unsupported schema version '1'"),
    (("schema_version",), 2, "config.schema_version: unsupported schema version 2"),
    (("duration",), 1.5, "config.duration: expected an integer, got 1.5"),
    (("duration",), 0, "config.duration: must be >= 1, got 0"),
    (("clutter_rate",), "x", "config.clutter_rate: expected a number, got 'x'"),
    (("clutter_rate",), -0.1, "config.clutter_rate: must be >= 0.0, got -0.1"),
    (("mc_runs",), 2.0, "config.mc_runs: expected an integer, got 2.0"),
    (("mc_runs",), 0, "config.mc_runs: must be >= 1, got 0"),
    (("seed",), "7", "config.seed: expected an integer, got '7'"),
    (("seed",), -1, "config.seed: must be >= 0, got -1"),
    (("bounds",), [0, 1, 0, 1], "config.bounds: expected an object"),
    (("bounds", "ymax"), DELETE, "config.bounds: missing keys: ['ymax']"),
    (("bounds", "zmin"), 0, "config.bounds: unknown keys: ['zmin']"),
    (("bounds", "xmin"), "0", "config.bounds.xmin: expected a number, got '0'"),
    (("bounds", "xmax"), None, "config.bounds.xmax: expected a number, got None"),
    (("bounds", "ymin"), True, "config.bounds.ymin: expected a number, got True"),
    (("bounds", "ymax"), [1000], "config.bounds.ymax: expected a number, got [1000]"),
    (("bounds", "xmax"), -1, "config.bounds: bounds must have positive extent"),
    (("motion",), "x", "config.motion: expected an object"),
    (("motion", "q"), DELETE, "config.motion: missing keys: ['q']"),
    (("motion", "p_detect"), 0.9, "config.motion: unknown keys: ['p_detect']"),
    (("motion", "tau"), "1", "config.motion.tau: expected a number, got '1'"),
    (("motion", "tau"), -1, "config.motion.tau: must be >= 0.0, got -1"),
    (("motion", "q"), None, "config.motion.q: expected a number, got None"),
    (("motion", "q"), -0.5, "config.motion.q: must be >= 0.0, got -0.5"),
    (("motion", "p_survival"), "x", "config.motion.p_survival: expected a number, got 'x'"),
    (("motion", "p_survival"), -0.1, "config.motion.p_survival: must be >= 0.0, got -0.1"),
    (("motion", "p_survival"), 1.1, "config.motion.p_survival: must be <= 1.0, got 1.1"),
    (("motion", "p_birth"), True, "config.motion.p_birth: expected a number, got True"),
    (("motion", "p_birth"), -0.1, "config.motion.p_birth: must be >= 0.0, got -0.1"),
    (("motion", "p_birth"), 1.5, "config.motion.p_birth: must be <= 1.0, got 1.5"),
    (("motion", "birth_mean"), [1, 2, 3],
     "config.motion.birth_mean: expected a list of 4 numbers"),
    (("motion", "birth_mean"), [1, "x", 3, 4],
     "config.motion.birth_mean[1]: expected a number, got 'x'"),
    (("motion", "birth_cov_diag"), 400.0,
     "config.motion.birth_cov_diag: expected a list of 4 numbers"),
    (("motion", "birth_cov_diag"), [400, 64, None, 64],
     "config.motion.birth_cov_diag[2]: expected a number, got None"),
    (("sensor",), None, "config.sensor: expected an object"),
    (("sensor", "r_high"), DELETE, "config.sensor: missing keys: ['r_high']"),
    (("sensor", "fov"), 45, "config.sensor: unknown keys: ['fov']"),
    (("sensor", "fov_radius"), "45", "config.sensor.fov_radius: expected a number, got '45'"),
    (("sensor", "fov_radius"), 0, "config.sensor.fov_radius: must be >= 1e-09, got 0"),
    (("sensor", "fov_radius"), 10 ** 400,
     "config.sensor.fov_radius: must be finite, got 1" + "0" * 400),
    (("sensor", "step_size"), [25], "config.sensor.step_size: expected a number, got [25]"),
    (("sensor", "step_size"), -1, "config.sensor.step_size: must be >= 1e-09, got -1"),
    (("sensor", "num_actions"), 2.5, "config.sensor.num_actions: expected an integer, got 2.5"),
    (("sensor", "num_actions"), 0, "config.sensor.num_actions: must be >= 1, got 0"),
    (("sensor", "p_detect"), "x", "config.sensor.p_detect: expected a number, got 'x'"),
    (("sensor", "p_detect"), -0.1, "config.sensor.p_detect: must be >= 0.0, got -0.1"),
    (("sensor", "p_detect"), 1.01, "config.sensor.p_detect: must be <= 1.0, got 1.01"),
    (("sensor", "r_low"), False, "config.sensor.r_low: expected a number, got False"),
    (("sensor", "r_low"), 0, "config.sensor.r_low: must be >= 1e-09, got 0"),
    (("sensor", "r_high"), "50", "config.sensor.r_high: expected a number, got '50'"),
    (("sensor", "r_high"), 0.0, "config.sensor.r_high: must be >= 1e-09, got 0.0"),
    (("sensor", "initial_position"), [1],
     "config.sensor.initial_position: expected a list of 2 numbers"),
    (("sensor", "initial_position"), ["a", 1],
     "config.sensor.initial_position[0]: expected a number, got 'a'"),
    (("gospa",), 80, "config.gospa: expected an object"),
    (("gospa", "c"), DELETE, "config.gospa: missing keys: ['c']"),
    (("gospa", "p"), 2, "config.gospa: unknown keys: ['p']"),
    (("gospa", "c"), "80", "config.gospa.c: expected a number, got '80'"),
    (("gospa", "c"), 0, "config.gospa.c: must be >= 1e-09, got 0"),
    (("policy",), "gd", "config.policy: expected an object"),
    (("policy",), {"label": "x"}, "config.policy: missing keys: ['name']"),
    (("policy", "name"), "random",
     "config.policy.name: unknown policy name 'random' (choose from ns, gd, kl, mcts)"),
    (("policy", "depth"), 3, "config.policy: unknown keys: ['depth']"),
    (("policy", "horizon"), 1.5, "config.policy.horizon: expected an integer, got 1.5"),
    (("policy", "horizon"), 0, "config.policy.horizon: must be >= 1, got 0"),
    (("policy", "budget"), "12", "config.policy.budget: expected an integer, got '12'"),
    (("policy", "budget"), 0, "config.policy.budget: must be >= 1, got 0"),
    (("policy", "discount"), "x", "config.policy.discount: expected a number, got 'x'"),
    (("policy", "discount"), -0.1, "config.policy.discount: must be >= 0.0, got -0.1"),
    (("policy", "discount"), 1.5, "config.policy.discount: must be <= 1.0, got 1.5"),
    (("policy", "exploration"), None,
     "config.policy.exploration: expected a number, got None"),
    (("policy", "exploration"), -1, "config.policy.exploration: must be >= 0.0, got -1"),
    (("policies", 0), 5, "config.policies[0]: expected an object"),
    (("policies", 1), {}, "config.policies[1]: missing keys: ['name']"),
    (("policies", 1, "name"), "greedy",
     "config.policies[1].name: unknown policy name 'greedy' (choose from ns, gd, kl, mcts)"),
    (("policies", 1, "budget"), 10, "config.policies[1]: unknown keys: ['budget']"),
    (("policies", 3, "budget"), 0, "config.policies[3].budget: must be >= 1, got 0"),
    (("obstacles",), {}, "config.obstacles: expected a list"),
    (("obstacles", 0), [[0, 0], [1, 1]], "config.obstacles[0]: expected >= 3 vertices"),
    (("obstacles", 0), [[0, 0], [10, 0], [10, 4], [4, 4], [4, 10], [0, 10]],
     "config.obstacles[0]: expected a strictly convex polygon"),
    (("obstacles", 0, 2), ["a", 1], "config.obstacles[0][2][0]: expected a number, got 'a'"),
    (("obstacles", 0, 1), [1, 2, 3], "config.obstacles[0][1]: expected a list of 2 numbers"),
    (("truth",), "model", "config.truth: expected an object with a 'mode' key"),
    (("truth", "mode"), DELETE, "config.truth: expected an object with a 'mode' key"),
    (("truth", "mode"), "replay", "config.truth.mode: must be 'model' or 'scripted'"),
    (("truth", "seed"), 1, "config.truth: unknown keys: ['seed']"),
    (("truth",), {"mode": "model", "episodes": []}, "config.truth: unknown keys: ['episodes']"),
    (("truth", "episodes"), DELETE, "config.truth: missing keys: ['episodes']"),
    (("truth", "episodes"), [], "config.truth.episodes: expected a non-empty list"),
    (("truth", "episodes", 0, "waypoints"), DELETE,
     "config.truth.episodes[0]: missing keys: ['waypoints']"),
    (("truth", "episodes", 0, "speed"), 1, "config.truth.episodes[0]: unknown keys: ['speed']"),
    (("truth", "episodes", 0, "start"), -1,
     "config.truth.episodes[0].start: must be >= 0, got -1"),
    (("truth", "episodes", 0, "start"), 1.5,
     "config.truth.episodes[0].start: expected an integer, got 1.5"),
    (("truth", "episodes", 0, "end"), 10, "config.truth.episodes[0].end: must be >= 11, got 10"),
    (("truth", "episodes", 0, "waypoints"), [],
     "config.truth.episodes[0].waypoints: expected at least one waypoint"),
    (("truth", "episodes", 0, "waypoints", 1), [480],
     "config.truth.episodes[0].waypoints[1]: expected a list of 2 numbers"),
]


def _case_id(path, value):
    where = ".".join(map(str, path)) or "config"
    return f"{where}-missing" if value is DELETE else f"{where}={json.dumps(value)}"


@pytest.mark.parametrize("path, value, message", BAD_VALUES,
                         ids=[_case_id(path, value) for path, value, _ in BAD_VALUES])
def test_bad_value_exits_1_with_exact_line(tmp_path, capsys, path, value, message):
    assert validate(tmp_path, capsys, with_value(full_config(), path, value)) == \
        (1, "", message + "\n")


# the cases below were accepted, or failed only at run time, before the
# checks that reject them were added


@pytest.mark.parametrize("path, value, message", [
    (("policy", "name"), ["gd"],
     "config.policy.name: unknown policy name ['gd'] (choose from ns, gd, kl, mcts)"),
    (("policy", "label"), 7, "config.policy.label: expected a string, got 7"),
    (("policies",), {"name": "gd"}, "config.policies: expected a list"),
    (("schema_version",), True, "config.schema_version: unsupported schema version True"),
    (("schema_version",), 1.0, "config.schema_version: unsupported schema version 1.0"),
], ids=["name-list", "label-int", "policies-object", "version-bool", "version-float"])
def test_wrong_types_name_their_field(tmp_path, capsys, path, value, message):
    assert validate(tmp_path, capsys, with_value(full_config(), path, value)) == \
        (1, "", message + "\n")


@pytest.mark.parametrize("position, message", [
    ([-50, -50], "config.sensor.initial_position: outside the bounds, got [-50.0, -50.0]"),
    ([520, 500], "config.sensor.initial_position: inside obstacle 0, got [520.0, 500.0]"),
    ([0, 1000], None),   # on the bounds
    ([495, 500], None),  # on the obstacle's edge
], ids=["outside-bounds", "inside-obstacle", "bounds-corner", "obstacle-edge"])
def test_initial_position_must_be_reachable(tmp_path, capsys, position, message):
    raw = with_value(full_config(), ("sensor", "initial_position"), position)
    code, _, err = validate(tmp_path, capsys, raw)
    assert (code, err) == ((1, message + "\n") if message else (0, ""))


@pytest.mark.parametrize("polygon, convex", [
    ([[495, 455], [551, 455], [551, 545], [495, 545]], True),
    ([[495, 545], [551, 545], [551, 455], [495, 455]], True),       # clockwise
    ([[495, 455], [551, 455], [600, 455]], False),                  # collinear
    ([[495, 455], [523, 455], [551, 455], [551, 545], [495, 545]], False),  # a vertex on an edge
    ([[495, 455], [551, 455], [530, 500], [551, 545], [495, 545]], False),  # concave
    ([[495, 455], [551, 545], [551, 455], [495, 545]], False),      # self-intersecting
    ([[495, 455], [551, 455], [551, 545], [495, 545]] * 2, False),  # wound twice
], ids=["counter-clockwise", "clockwise", "collinear", "vertex-on-edge", "concave",
        "bowtie", "wound-twice"])
def test_obstacles_must_be_strictly_convex(tmp_path, capsys, polygon, convex):
    # the half-plane test lets the sensor through a concave polygon's arms
    raw = with_value(full_config(), ("obstacles", 0), polygon)
    code, _, err = validate(tmp_path, capsys, raw)
    assert (code, err) == ((0, "") if convex else
                           (1, "config.obstacles[0]: expected a strictly convex polygon\n"))


def _run_argv(command, cfg, out):
    return [command, "--config", cfg] + ([] if command == "validate" else
                                         ["--out", str(out), "--runs", "1"])


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize("policies, message", [
    ([{"name": "gd"}, {"name": "gd"}], "config.policies[1].label: duplicate label 'gd'"),
    ([{"name": "mcts", "budget": 5}, {"name": "ns"}, {"name": "gd", "label": "mcts-5"}],
     "config.policies[2].label: duplicate label 'mcts-5'"),
], ids=["same-name", "explicit-label"])
def test_duplicate_policy_labels_exit_1(tmp_path, capsys, command, policies, message):
    raw = small_raw()
    raw["policies"] = policies
    out = tmp_path / "out"
    assert main(_run_argv(command, write_config(tmp_path, raw), out)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("index, value", [(0, -1.0), (0, 0.0), (1, 0.0), (3, 1e-10)],
                         ids=["negative", "zero-position", "zero-velocity", "below-floor"])
def test_birth_variances_must_be_positive(tmp_path, capsys, command, index, value):
    raw = small_raw()
    raw["motion"]["birth_cov_diag"][index] = value
    out = tmp_path / "out"
    assert main(_run_argv(command, write_config(tmp_path, raw), out)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"config.motion.birth_cov_diag[{index}]: must be >= 1e-09, got {value}\n")
    assert not out.exists()
