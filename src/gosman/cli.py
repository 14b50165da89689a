"""Command line interface.

Subcommands:

* ``run``      -- simulate the configured policy, write metrics + summary.
* ``compare``  -- simulate every policy in the comparison list under
  paired random streams and write a combined metrics file.
* ``validate`` -- check a configuration and echo the resolved document.
* ``oracle``   -- verify the tree search against the exhaustive planner
  on small built-in scenarios, with a budget that expands the whole tree.

Exit codes: 0 success, 1 invalid configuration or command line, 2 runtime
failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .bernoulli import ncv_motion_model
from .config import ConfigError, ScenarioConfig, default_label, load_config, parse_config
from .planners import (PlannerConfig, PlanningEnv, exhaustive_bellman,
                       exhaustive_max_horizon, mcts_search)
from .sensors import Bounds, ObstacleMap
from .simulate import run_batch, run_comparison, write_metrics_csv, write_summary_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gosman",
        description="GOSPA-driven sensor management for Bernoulli filtering")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="path to a JSON scenario configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configuration seed")

    p_run = sub.add_parser("run", help="simulate the configured policy")
    common(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--runs", type=int, default=None,
                       help="override the number of Monte Carlo runs")
    p_run.add_argument("--policy", default=None,
                       help="override the policy (name or label)")
    p_run.add_argument("--budget", type=int, default=None,
                       help="override the tree-search node budget")
    p_run.add_argument("--lambda", dest="discount", type=float, default=None,
                       help="override the tree-search discount factor")
    p_run.add_argument("--parallel", type=int, default=0,
                       help="number of worker processes (0 = serial)")

    p_cmp = sub.add_parser("compare", help="simulate all configured policies")
    common(p_cmp)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--runs", type=int, default=None,
                       help="override the number of Monte Carlo runs")
    p_cmp.add_argument("--parallel", type=int, default=0,
                       help="number of worker processes (0 = serial)")

    p_val = sub.add_parser("validate", help="validate a configuration file")
    common(p_val)

    p_orc = sub.add_parser("oracle",
                           help="check the tree search against exhaustive planning")
    p_orc.add_argument("--seed", type=int, default=0,
                       help="seed of the built-in scenarios")
    p_orc.add_argument("--horizon", type=int, default=3,
                       help="planning horizon for the check")
    return parser


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """Apply the command-line overrides and validate the result again."""
    raw = cfg.resolved_dict()
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        raw["mc_runs"] = args.runs
    wanted = getattr(args, "policy", None)
    if wanted is not None:
        blocks = {}   # label -> block; the policy block may recur in the list
        for p in [raw["policy"]] + raw.get("policies", []):
            blocks.setdefault(p["label"], p)
        # an exact label wins over a name
        labels = [wanted] if wanted in blocks else \
            [label for label, p in blocks.items() if p["name"] == wanted]
        if not labels:
            raise ConfigError(f"config: no policy named or labelled {wanted!r}")
        if len(labels) > 1:
            raise ConfigError(f"--policy: {wanted!r} names {len(labels)} policies, "
                              f"give one label of {', '.join(labels)}")
        raw["policy"] = dict(blocks[labels[0]])
    policy = raw["policy"]
    if getattr(args, "budget", None) is not None and \
            policy["label"] == default_label(policy):
        del policy["label"]   # a default label: parse_config names the new budget
    for key in ("budget", "discount"):
        if getattr(args, key, None) is not None:
            policy[key] = getattr(args, key)
    return parse_config(raw)


def _simulate(args) -> int:
    """``run`` the configured policy, or ``compare`` every listed one."""
    compare = args.command == "compare"
    if args.parallel < 0:
        raise ConfigError(f"--parallel: must be >= 0, got {args.parallel}")
    cfg = _apply_overrides(load_config(args.config), args)
    if compare and len(cfg.policies) < 2:
        raise ConfigError("config.policies: compare requires at least 2 policies")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "resolved_config.json"), "w") as fh:
        json.dump(cfg.resolved_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    batches = (run_comparison(cfg, parallel=args.parallel) if compare
               else [run_batch(cfg, parallel=args.parallel)])
    write_metrics_csv(os.path.join(args.out, "metrics.csv"), batches)
    write_summary_json(os.path.join(args.out, "summary.json"), cfg, batches, args.argv)
    runs = "" if compare else f" over {cfg.mc_runs} runs x {cfg.duration} steps"
    for batch in batches:
        print(f"{batch.label}: rms gospa {batch.rms.overall:.4f}{runs}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    json.dump(cfg.resolved_dict(), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def oracle_scenarios(seed: int):
    """Small planning problems with three feasible actions: (i, belief, position, env)."""
    motion = ncv_motion_model(1.0, 5.0, 0.99, 0.1, [10.0, 0.0, 10.0, 0.0],
                              [400.0, 25.0, 400.0, 25.0])
    bounds = Bounds(0.0, 40.0, 0.0, 40.0)
    rng = np.random.default_rng(seed)
    for i in range(10):
        mean = np.array([rng.uniform(8, 32), rng.uniform(-2, 2),
                         rng.uniform(8, 32), rng.uniform(-2, 2)])
        p, v, P, V = rng.uniform([50, 10, 50, 10], [300, 40, 300, 40]).tolist()
        belief = (rng.uniform(0.3, 0.9), tuple(mean.tolist()), (p, 0.0, v), (P, 0.0, V))
        # a position at the left edge leaves exactly three in-bounds moves
        position = np.array([1.0, 20.0])
        env = PlanningEnv(motion=motion, obstacles=ObstacleMap(), bounds=bounds,
                          fov_radius=12.0, step_size=6.0, num_actions=4,
                          p_detect=0.9, r_low=10.0, r_high=50.0, c=20.0)
        yield i, belief, position, env


def _tree_size(env: PlanningEnv, position, horizon: int) -> int:
    """Nodes below the root of the full search tree ``horizon`` actions deep."""
    if horizon == 0:
        return 0
    return sum(1 + _tree_size(env, a.target_position, horizon - 1)
               for a in env.actions_from(position))


def _cmd_oracle(args) -> int:
    seed = args.seed
    horizon = args.horizon
    if seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {seed}")
    scenarios = list(oracle_scenarios(seed))
    # the scenarios share the sensor position and world, so one tree fits all
    _, _, position, env = scenarios[0]
    max_horizon = exhaustive_max_horizon(len(env.actions_from(position)))
    if not 1 <= horizon <= max_horizon:
        raise ConfigError(f"--horizon: must be between 1 and {max_horizon}, "
                          f"got {horizon}")
    budget = _tree_size(env, position, horizon)
    discount = 0.7
    failures = 0
    for i, belief, position, env in scenarios:
        base_key = (seed, 100 + i, 0)
        oracle_action, oracle_value = exhaustive_bellman(
            belief, position, env, horizon, discount)
        cfg = PlannerConfig(horizon=horizon, discount=discount, exploration=0.05,
                            budget=budget)
        result = mcts_search(belief, position, env, cfg, base_key)
        diff = abs(-result.value - oracle_value)
        ok = (result.root.solved and result.action.id == oracle_action.id
              and diff <= 1e-9)
        status = "ok" if ok else "FAIL"
        print(f"scenario {i}: {status} action {result.action.id} "
              f"(oracle {oracle_action.id}), value diff {diff:.3e}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} scenario(s) failed", file=sys.stderr)
        return 2
    print("all checked scenarios agree")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 2 for a rejected command line, 0 for --help
        return 1 if exc.code == 2 else exc.code
    args.argv = ["gosman", *(sys.argv[1:] if argv is None else argv)]   # summary provenance
    commands = {"run": _simulate, "compare": _simulate,
                "validate": _cmd_validate, "oracle": _cmd_oracle}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
