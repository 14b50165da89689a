#!/usr/bin/env python3
"""Closed-loop benchmark of gosman: step rate, decision latency, set-up time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload obstacle-plan --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next decision waits
for the filter update of the previous step. A run repeats whole rounds
of its workload until ``--seconds`` would be exceeded (compare: at least
two rounds), checks every output apart from the program, and prints one
JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics, the tracing overhead and the uncovered share of
step time. See README.md for the workloads, metrics and checks.
"""

import argparse
import contextlib
import copy
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "obstacle-plan": {"config": "configs/obstacle.json", "policies": ["gd", "kl", "mcts-10"],
                      "duration": 50, "runs": 1},
    "open-filter": {"config": "configs/open.json", "policies": ["ns"],
                    "duration": 300, "runs": 1},
    "obstacle-compare": {"config": "configs/obstacle.json", "policies": None,
                         "duration": 120, "runs": 2},
}
SMOKE = {"obstacle-plan": {"duration": 4}, "open-filter": {"duration": 20, "runs": 1},
         "obstacle-compare": {"duration": 6}}
SETUP_PROBES = 7
TRAP_STEP = 110          # post-trap window of the obstacle scenario, as in criterion 7
GOSMAN_MODULES = ("bernoulli", "cli", "config", "costs", "gospa", "planners",
                  "sensors", "simulate", "streams")


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_gosman():
    if not os.path.isfile(os.path.join(SRC, "gosman", "__init__.py")):
        fail_setup(f"no gosman sources at {os.path.relpath(SRC, os.getcwd())}/gosman")
    sys.path.insert(0, SRC)
    import gosman
    if os.path.dirname(os.path.abspath(gosman.__file__)) != os.path.join(SRC, "gosman"):
        fail_setup(f"imported gosman from {gosman.__file__}, not from this checkout")
    return gosman, {m: importlib.import_module("gosman." + m) for m in GOSMAN_MODULES}


def provenance(args):
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# inputs


def workload_spec(name, smoke):
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def write_config(spec, seed, path):
    """The shipped scenario with the workload's edits and the round's seed."""
    with open(os.path.join(ROOT, spec["config"])) as fh:
        raw = json.load(fh)
    raw["duration"] = spec["duration"]
    raw["mc_runs"] = spec["runs"]
    raw["seed"] = seed
    if spec["policies"] is not None:
        by_label = {p.get("label", p["name"]): p for p in raw["policies"]}
        raw["policies"] = [copy.deepcopy(by_label[label]) for label in spec["policies"]]
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2)
    return raw


def scenario_facts(raw):
    """What the checks need to know about the scenario, read from the config."""
    b = raw["bounds"]
    windows = None
    if raw.get("truth", {}).get("mode") == "scripted":
        windows = [(ep["start"], ep["end"]) for ep in raw["truth"]["episodes"]]
    return {"bounds": (b["xmin"], b["xmax"], b["ymin"], b["ymax"]),
            "polygons": raw.get("obstacles", []),
            "initial": raw["sensor"]["initial_position"],
            "step": raw["sensor"]["step_size"],
            "n_actions": raw["sensor"]["num_actions"],
            "c": raw["gospa"]["c"], "windows": windows, "duration": raw["duration"]}


# ---------------------------------------------------------------------------
# rounds


def serial_round(gosman, cfg_path, out_dir, span):
    """Load the config, run every policy's batch, write the outputs."""
    t0 = time.perf_counter()
    cfg = span("config.load_config", gosman.load_config)(cfg_path)
    batches, walls = [], {}
    for spec in cfg.policies:
        tb = time.perf_counter()
        batches.append(gosman.run_batch(cfg, spec))
        walls[spec.label] = time.perf_counter() - tb
    write = span("simulate.write_outputs", gosman.write_metrics_csv)
    write(os.path.join(out_dir, "metrics.csv"), batches)
    write = span("simulate.write_outputs", gosman.write_summary_json)
    write(os.path.join(out_dir, "summary.json"), cfg, batches)
    return batches, walls, time.perf_counter() - t0


def compare_argv(cfg_path, out_dir, parallel):
    return ["compare", "--config", cfg_path, "--out", out_dir, "--parallel", str(parallel)]


# ---------------------------------------------------------------------------
# checks on outputs (every run)


def read_csv_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def check_outputs(checks, out_dir, facts, batches=None):
    """Rows, existence, trajectories, pairing and aggregates of one round.

    Reads ``metrics.csv`` and ``summary.json``, which every round writes
    with gosman's own writers. With the batches of a serial round it also
    matches the recorded action ids against the moves and the RMS of each
    ``BatchResult`` against the rows. Returns the failures, the summary
    and the post-trap RMS over c of the greedy policies.
    """
    out = []
    c = facts["c"]
    rows = read_csv_rows(os.path.join(out_dir, "metrics.csv"))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    truth, totals, paths = {}, {}, {}
    for row in rows:
        label, run, step = row["policy"], int(row["run"]), int(row["step"])
        vals = [float(row[k]) for k in ("gospa_sq", "loc_sq", "missed_sq", "false_sq")]
        out += checks.check_gospa_row(*vals, row["truth_present"] == "1",
                                      row["est_present"] == "1", c, checks.CSV,
                                      f"{label} run {run} step {step}")
        r = float(row["r"])
        if not 0.0 <= r <= 1.0:
            out.append(f"{label} run {run} step {step}: r = {r}")
        truth.setdefault(label, {})[(run, step)] = row["truth_present"] == "1"
        totals.setdefault(label, []).append(vals[0])
        paths.setdefault((label, run), []).append(
            (step, (float(row["sensor_x"]), float(row["sensor_y"]))))
    action_ids = {}
    for batch in batches or ():
        for run in batch.runs:
            action_ids[(batch.label, run.run)] = [s.action_id for s in run.steps]
        want = checks.rms(totals[batch.label])
        if not checks.close(batch.rms.overall, want, checks.CSV):
            out.append(f"{batch.label}: BatchResult RMS {batch.rms.overall} != {want}")
    for (label, run), seq in sorted(paths.items()):
        seq.sort()
        out += checks.check_trajectory(
            [p for _, p in seq], facts["initial"], facts["step"], facts["n_actions"],
            facts["bounds"], facts["polygons"], action_ids=action_ids.get((label, run)),
            rel=checks.CSV, where=f"{label} run {run}")
    for label, values in totals.items():
        want = checks.rms(values)
        got = summary["policies"][label]["rms_gospa"]
        if not checks.close(got, want, checks.CSV):
            out.append(f"{label}: summary.json RMS {got} != {want}")
    out += checks.check_pairing(truth, facts["windows"], facts["duration"], "pairing")
    post_trap = {}
    for label in ("ns", "gd", "kl"):
        late = [float(r["gospa_sq"]) for r in rows
                if r["policy"] == label and int(r["step"]) >= TRAP_STEP]
        if late:
            post_trap[label] = checks.rms(late) / c
    return out, summary, post_trap


def check_oracle():
    proc = subprocess.run([sys.executable, "-m", "gosman.cli", "oracle"], env=child_env(),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"gosman oracle exited {proc.returncode}: {proc.stdout[-500:]}"]
    return []


# ---------------------------------------------------------------------------
# measurements


def run_child(argv, log_path):
    """Run a child process to its end; return (exit code, wall s, peak RSS MB).

    The peak comes from wait4, so it covers this child only (and the pool
    workers it waited for), not the set-up probes that run beside it.
    """
    t0 = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def setup_probe(cfg_path, log_path):
    """Wall time of a fresh interpreter that imports, loads and builds."""
    code, wall, _ = run_child([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               cfg_path], log_path)
    if code != 0:
        fail_setup(f"set-up probe exited {code}; see {log_path}")
    return wall


def more_rounds(done, minimum, elapsed, walls, seconds):
    if done < minimum:
        return True
    return elapsed + statistics.mean(walls) <= seconds


# ---------------------------------------------------------------------------
# workloads, untraced


def round_figures(wall, figures, per_policy):
    """A round's figures, pooled over policies by geometric means.

    ``figures`` maps each policy to (steps, batch wall s, summed decision
    s, decision samples or None). A geometric mean weighs every policy
    alike, so that doubling the decision time of any one policy moves
    ``plan_ms_gmean`` by the same share however fast the others are.
    The per-policy sums go into ``per_policy`` for the detail lines.
    """
    for label, (steps, batch_wall, plan, samples) in figures.items():
        d = per_policy.setdefault(label, {"steps": 0, "wall": 0.0, "plan": 0.0,
                                          "samples": []})
        d["steps"] += steps
        d["wall"] += batch_wall
        d["plan"] += plan
        d["samples"] += samples or []
    gmean = statistics.geometric_mean
    return {"wall": wall,
            "rate": gmean(steps / w for steps, w, _, _ in figures.values()),
            "plan_ms": gmean(1000.0 * p / steps for steps, _, p, _ in figures.values())}


def run_untraced(args, spec, out_root, checks, detail):
    """Rounds until --seconds; every end-to-end figure is a median over rounds.

    Medians over many short rounds keep a run steady when the machine
    slows down for a few seconds; the set-up probes run between rounds
    for the same reason, outside the measured time.
    """
    failures = []
    attempted = failed = 0
    compare = spec["policies"] is None
    gosman = None if compare else import_gosman()[0]
    parallel = min(2, os.cpu_count() or 1)
    rounds = []              # one dict of figures per round that did not fail
    walls = []               # every round's wall time, for pacing
    setup = []
    per_policy = {}
    first_csv = None
    peak_rss = 0.0
    measured = 0.0
    while more_rounds(len(walls), 2 if compare else 1, measured, walls, args.seconds):
        k = len(walls)
        seed = args.seed if compare else args.seed * 1000 + k
        t_round = time.perf_counter()
        rdir = os.path.join(out_root, f"round-{k}")
        os.makedirs(rdir)
        cfg_path = os.path.join(rdir, "config.json")
        raw = write_config(spec, seed, cfg_path)
        facts = scenario_facts(raw)
        episodes = len(raw["policies"]) * spec["runs"]
        attempted += episodes
        if compare:
            code, wall, rss = run_child(
                [sys.executable, "-m", "gosman.cli"]
                + compare_argv(cfg_path, os.path.join(rdir, "out"), parallel),
                os.path.join(rdir, "compare.log"))
            walls.append(wall)
            if code != 0:
                print(f"gosman compare exited {code}; see {rdir}/compare.log", file=sys.stderr)
                failed += episodes
            else:
                peak_rss = max(peak_rss, rss)
                bad, summary, post_trap = check_outputs(checks, os.path.join(rdir, "out"),
                                                        facts)
                failures += bad
                with open(os.path.join(rdir, "out", "metrics.csv"), "rb") as fh:
                    data = fh.read()
                if first_csv is None:
                    first_csv = data
                    for label, v in post_trap.items():
                        detail.append((f"post_trap_rms_over_c.{label}", v, "ratio"))
                elif data != first_csv:
                    failures.append(f"round {k}: metrics.csv differs from round 0")
                figures = {label: (spec["duration"] * spec["runs"], p["wall_seconds"],
                                   p["total_plan_seconds"], None)
                           for label, p in summary["policies"].items()}
                rounds.append(round_figures(wall, figures, per_policy))
        else:
            try:
                batches, batch_walls, wall = serial_round(gosman, cfg_path, rdir,
                                                          lambda n, f: f)
            except Exception:
                traceback.print_exc()
                failed += episodes
                walls.append(time.perf_counter() - t_round)
            else:
                walls.append(wall)
                failures += check_outputs(checks, rdir, facts, batches)[0]
                figures = {b.label: (sum(len(r.steps) for r in b.runs), batch_walls[b.label],
                                     b.plan_seconds,
                                     [s.plan_seconds for r in b.runs for s in r.steps])
                           for b in batches}
                rounds.append(round_figures(wall, figures, per_policy))
        measured += time.perf_counter() - t_round
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(os.path.join(out_root, "round-0", "config.json"),
                                     os.path.join(out_root, f"setup-{len(setup)}.log")))
    if not compare:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(os.path.join(out_root, "round-0", "config.json"),
                                 os.path.join(out_root, f"setup-{len(setup)}.log")))
    if args.workload == "obstacle-plan":
        failures += check_oracle()
    if not rounds:
        fail_setup("every round failed; no figures to report")

    for label, d in sorted(per_policy.items()):
        detail.append((f"steps_per_s.{label}", d["steps"] / d["wall"], "1/s"))
        detail.append((f"plan_ms.mean.{label}", 1000.0 * d["plan"] / d["steps"], "ms"))
        samples = d.get("samples")
        if samples:
            detail.append((f"plan_ms.p50.{label}", 1000.0 * statistics.median(samples), "ms"))
            # the p90 needs at least ten samples above it
            if len(samples) >= 100:
                p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
                detail.append((f"plan_ms.p90.{label}", 1000.0 * p90, "ms"))
            detail.append((f"plan_ms.samples.{label}", len(samples), "count"))
    detail.append(("rounds", len(walls), "count"))
    med = statistics.median
    metrics = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(r["wall"] for r in rounds), "s"),
        "steps_per_s_gmean": (med(r["rate"] for r in rounds), "1/s"),
        "plan_ms_gmean": (med(r["plan_ms"] for r in rounds), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return metrics, failures, attempted, failed


# ---------------------------------------------------------------------------
# workloads, traced


def traced_round(spec, gosman, mods, tracer, cfg_path, rdir, parallel):
    """One round with (tracer given) or without the wrappers installed.

    Returns the round's wall time, the directory holding its outputs and,
    for serial workloads, the batches.
    """
    restore = tracer.install(mods) if tracer else None
    span = tracer.span if tracer else (lambda name, fn: fn)
    try:
        if spec["policies"] is None:
            out_dir = os.path.join(rdir, "out")
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(None):
                code = mods["cli"].main(compare_argv(cfg_path, out_dir, parallel))
            if code != 0:
                raise RuntimeError(f"gosman compare returned {code}")
            return time.perf_counter() - t0, out_dir, None
        batches, _, wall = serial_round(gosman, cfg_path, rdir, span)
        return wall, rdir, batches
    finally:
        if restore:
            restore()


def run_traced(args, spec, out_root, checks, detail):
    from tracer import Tracer
    gosman, mods = import_gosman()
    compare = spec["policies"] is None
    parallel = min(2, os.cpu_count() or 1) if compare else 1
    dump_dir = os.path.join(out_root, "worker-spans")
    os.makedirs(dump_dir)
    tracer = Tracer(dump_dir=dump_dir)
    failures = []
    attempted = failed = 0
    plain = traced = 0.0
    rounds, pair_walls = 0, []
    while more_rounds(rounds, 1, sum(pair_walls), pair_walls, args.seconds):
        seed = args.seed if compare else args.seed * 1000 + rounds
        walls, outputs = [], []
        for mode in ("plain", "traced"):
            rdir = os.path.join(out_root, f"round-{rounds}-{mode}")
            os.makedirs(rdir)
            cfg_path = os.path.join(rdir, "config.json")
            raw = write_config(spec, seed, cfg_path)
            facts = scenario_facts(raw)
            attempted += len(raw["policies"]) * spec["runs"]
            tracer.label = None
            checked_before = tracer.check_seconds
            t_mode = time.perf_counter()
            try:
                wall, out_dir, batches = traced_round(
                    spec, gosman, mods, tracer if mode == "traced" else None,
                    cfg_path, rdir, parallel)
            except Exception:
                traceback.print_exc()
                failed += len(raw["policies"]) * spec["runs"]
                walls.append(time.perf_counter() - t_mode)
                continue
            if mode == "traced":
                tracer.merge_dumps()
                # checks inside pool workers ran on the clock; take them off
                wall -= (tracer.check_seconds - checked_before) / parallel
                tracer.run_checks()
            walls.append(wall)
            failures += check_outputs(checks, out_dir, facts, batches)[0]
            with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
                outputs.append(fh.read())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"round {rounds}: tracing changed metrics.csv")
        rounds += 1
        pair_walls.append(sum(walls))
        plain += walls[0]
        traced += walls[1]
    failures += tracer.check_failures
    if args.workload == "obstacle-plan":
        failures += check_oracle()
    for kind, n in sorted(tracer.check_counts.items()):
        detail.append((f"checked.{kind}", n, "count"))
    metrics = layer_metrics(tracer, rounds, traced, plain, parallel, detail)
    return metrics, failures, attempted, failed


def layer_metrics(tracer, rounds, traced_wall, plain_wall, workers, detail):
    """Per-layer metrics from the span aggregates of the traced rounds."""
    def agg(name, phase=None, label=None):
        calls = total = self_s = 0.0
        for (n, lab, ph), (c, t, s) in tracer.stats.items():
            if n == name and phase in (None, ph) and label in (None, lab):
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def per_call_us(name, phase=None, label=None):
        calls, total, _ = agg(name, phase, label)
        return 1e6 * total / calls if calls else 0.0

    def pct_of_plan(names, label=None):
        plan = agg("planners.plan", label=label)[1]
        own = sum(agg(n, "plan", label)[2] for n in names)
        return 100.0 * own / plan if plan else 0.0

    steps = sum(tracer.steps.values())
    decisions = sum(tracer.decisions.values())
    step_total = agg("simulate.step")[1]
    step_self = agg("simulate.step")[2]
    psd_calls = agg("bernoulli.make_psd")[0]
    costs = ("costs.pseudo_update", "costs.node_cost", "costs.merge_hypotheses")
    enum_plan_calls = agg("sensors.enumerate_actions", "plan")[0]
    m = {
        "bernoulli.predict.us_per_call": (per_call_us("bernoulli.predict"), "us"),
        "bernoulli.update.us_per_call": (per_call_us("bernoulli.update"), "us"),
        "bernoulli.reduce.us_per_call": (per_call_us("bernoulli.reduce"), "us"),
        "bernoulli.make_psd.calls_per_step": (psd_calls / steps, "count"),
        "bernoulli.make_psd.us_per_call": (per_call_us("bernoulli.make_psd"), "us"),
        "bernoulli.make_psd.plan_pct": (
            100.0 * agg("bernoulli.make_psd", "plan")[0] / psd_calls, "%"),
        "sensors.filter_pd.calls_per_step": (agg("sensors.filter_pd")[0] / steps, "count"),
        "sensors.filter_pd.us_per_call": (per_call_us("sensors.filter_pd"), "us"),
        "sensors.filter_pd.self_ms_per_step": (
            1e3 * agg("sensors.filter_pd")[2] / steps, "ms"),
        "sensors.plan_pd.calls_per_decision": (
            agg("sensors.plan_pd")[0] / decisions, "count"),
        "sensors.plan_pd.pct_of_plan": (pct_of_plan(["sensors.plan_pd"]), "%"),
        "sensors.enumerate_actions.calls_per_decision": (enum_plan_calls / decisions, "count"),
        "sensors.enumerate_actions.us_per_call": (
            per_call_us("sensors.enumerate_actions"), "us"),
        "sensors.enumerate_actions.distinct_ratio": (
            tracer.enum_distinct / enum_plan_calls, "ratio"),
        "sensors.generate_measurements.us_per_call": (
            per_call_us("sensors.generate_measurements"), "us"),
        "costs.calls_per_decision": (agg("costs.pseudo_update")[0] / decisions, "count"),
        "costs.pct_of_plan": (pct_of_plan(costs), "%"),
        "planners.evaluate_action.calls_per_decision": (
            agg("planners.evaluate_action")[0] / decisions, "count"),
        "planners.predict_reduce.calls_per_decision": (
            agg("planners.predict_reduce")[0] / decisions, "count"),
        "planners.predict_reduce.pct_of_plan": (
            pct_of_plan(["planners.predict_reduce"]), "%"),
        "planners.plan.ms_per_decision": (1e3 * agg("planners.plan")[1] / decisions, "ms"),
        "planners.plan.self_ms_per_decision": (
            1e3 * agg("planners.plan")[2] / decisions, "ms"),
        "streams.stream.calls_per_step": (agg("streams.stream")[0] / steps, "count"),
        "streams.stream.us_per_call": (per_call_us("streams.stream"), "us"),
        "gospa.gospa.us_per_call": (per_call_us("gospa.gospa"), "us"),
        "simulate.step.ms_per_step": (1e3 * step_total / steps, "ms"),
        "simulate.step.self_ms_per_step": (1e3 * step_self / steps, "ms"),
        "simulate.write_outputs_ms": (1e3 * agg("simulate.write_outputs")[1] / rounds, "ms"),
        "simulate.worker_busy_ratio": (
            step_total / (traced_wall * workers), "ratio"),
        "config.load_config_ms": (1e3 * agg("config.load_config")[1] / rounds, "ms"),
        "trace.overhead_pct": (100.0 * (traced_wall / plain_wall - 1.0), "%"),
        "trace.uncovered_pct": (100.0 * step_self / step_total, "%"),
    }
    # planning-side figures by policy; they apply to one workload only, so
    # they are printed as detail rather than declared in BENCHMARK.json
    for label in sorted(tracer.decisions, key=str):
        n = tracer.decisions[label]
        for name in ("sensors.plan_pd", "costs.pseudo_update", "costs.node_cost",
                     "costs.merge_hypotheses", "planners.predict_reduce",
                     "planners.evaluate_action", "sensors.enumerate_actions"):
            calls, _, self_s = agg(name, "plan", label)
            if calls:
                detail.append((f"{name}.calls_per_decision.{label}", calls / n, "count"))
                detail.append((f"{name}.us_per_call.{label}",
                               per_call_us(name, "plan", label), "us"))
                detail.append((f"{name}.self_ms_per_decision.{label}",
                               1e3 * self_s / n, "ms"))
        detail.append((f"planners.plan.self_ms_per_decision.{label}",
                       1e3 * agg("planners.plan", label=label)[2] / n, "ms"))
        detail.append((f"costs.self_ms_per_decision.{label}",
                       1e3 * sum(agg(c, "plan", label)[2] for c in costs) / n, "ms"))
    return m


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny episodes, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "gosman", "__init__.py")):
        fail_setup("no gosman sources under src/ in this checkout")

    import checks
    spec = workload_spec(args.workload, args.smoke)
    out_root = os.path.join(ROOT, ".perfbench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    detail = []
    run = run_traced if args.trace else run_untraced
    metrics, failures, attempted, failed = run(args, spec, out_root, checks, detail)

    prov = provenance(args)
    for message in failures[:20]:
        print(f"CHECK FAILED: {message}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value, unit in detail:
        print(f"detail {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump({**result, "provenance": prov, "check_failures": failures,
                   "detail": [list(d) for d in detail]}, fh, indent=2)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
