"""Layer tracing from outside the program.

The tracer replaces, for the length of one traced round, the names that
each gosman module looks up when it calls into the next one. A call is
therefore attributed to the module that makes it: ``expected_pd`` looked
up in ``simulate`` is the filter PD, looked up in ``planners`` it is the
planning PD. Every wrapper records a span; a span's self time is its
duration minus the time of the spans it encloses. Nothing under ``src/``
is edited.

Spans are aggregated in memory, keyed by (name, policy label, phase),
where the phase is ``plan`` inside a policy's decision and ``step``
outside it. Pool workers of a traced ``compare`` inherit the wrappers
through ``fork``; each writes its aggregate to a file after every
episode and the parent merges the files.
"""

import functools
import json
import os
from time import perf_counter

from checks import check_trace_records

# (module that makes the call, attribute it looks up, span name)
CALLER_PATCHES = (
    ("simulate", "predict", "bernoulli.predict"),
    ("simulate", "update", "bernoulli.update"),
    ("simulate", "reduce", "bernoulli.reduce"),
    ("simulate", "extract_estimate", "bernoulli.extract_estimate"),
    ("simulate", "expected_pd", "sensors.filter_pd"),
    ("simulate", "generate_measurements", "sensors.generate_measurements"),
    ("simulate", "gospa", "gospa.gospa"),
    ("simulate", "rms_gospa", "gospa.rms_gospa"),
    ("simulate", "generate_truth", "simulate.generate_truth"),
    ("planners", "expected_pd", "sensors.plan_pd"),
    ("planners", "enumerate_actions", "sensors.enumerate_actions"),
    ("planners", "pseudo_update", "costs.pseudo_update"),
    ("planners", "node_cost", "costs.node_cost"),
    ("planners", "merge_hypotheses", "costs.merge_hypotheses"),
    ("planners", "evaluate_action", "planners.evaluate_action"),
    ("planners", "_predict_reduced", "planners.predict_reduce"),
    ("bernoulli", "make_psd", "bernoulli.make_psd"),
    ("streams", "stream", "streams.stream"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "write_metrics_csv", "simulate.write_outputs"),
    ("cli", "write_summary_json", "simulate.write_outputs"),
)

# calls whose arguments and results the checks in checks.py inspect
RECORDED = {"bernoulli.predict", "bernoulli.update", "bernoulli.reduce",
            "gospa.gospa", "sensors.filter_pd"}
# one filter-PD call in this many is checked against quadrature
PD_CHECK_EVERY = 25


class Tracer:
    """Span aggregates plus the call records the trace-only checks need."""

    def __init__(self, dump_dir):
        self.main_pid = self.pid = os.getpid()
        self.dump_dir = dump_dir
        self.dumps = 0
        self.reset()

    def reset(self):
        self.stats = {}          # (name, label, phase) -> [calls, total_s, self_s]
        self.stack = []
        self.label = None
        self.plan_depth = 0
        self.records = []        # (span name, args, kwargs, result)
        self.filter_pd_calls = 0
        self.enum_positions = set()
        self.enum_distinct = 0
        self.steps = {}          # label -> closed-loop steps
        self.decisions = {}      # label -> policy.plan calls
        self.check_failures = []
        self.check_counts = {}
        self.check_seconds = 0.0

    def _add(self, name, dt, self_dt):
        key = (name, self.label, "plan" if self.plan_depth else "step")
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += self_dt

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer._add(name, dt, dt - frame[0])
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _record(self, name):
        def after(args, kwargs, result):
            if name == "sensors.filter_pd":
                self.filter_pd_calls += 1
                if (self.filter_pd_calls - 1) % PD_CHECK_EVERY:
                    return
            self.records.append((name, args, kwargs, result))
        return after

    def _enum_before(self, args, kwargs):
        position = tuple(float(v) for v in args[0].position)
        self.enum_positions.add(position)

    def _plan_wrapper(self, plan):
        span = self.span("planners.plan", plan)

        def wrapped(*args, **kwargs):
            self.plan_depth += 1
            self.enum_positions = set()
            try:
                return span(*args, **kwargs)
            finally:
                self.plan_depth -= 1
                self.enum_distinct += len(self.enum_positions)
                self.decisions[self.label] = self.decisions.get(self.label, 0) + 1
        return wrapped

    def _make_policy(self, make_policy):
        def wrapped(spec, env):
            policy = make_policy(spec, env)
            policy.plan = self._plan_wrapper(policy.plan)
            return policy
        return self.span("planners.make_policy", wrapped)

    def _run_episode(self, run_episode):
        span = self.span("simulate.step", run_episode)

        def wrapped(cfg, policy_spec, run):
            if os.getpid() != self.pid:
                # a forked pool worker: drop the totals copied from the parent
                self.reset()
                self.pid = os.getpid()
            self.label = policy_spec.label
            result = span(cfg, policy_spec, run)
            self.steps[self.label] = self.steps.get(self.label, 0) + len(result.steps)
            if self.pid != self.main_pid:
                self._dump()
            return result
        return wrapped

    # -- install / remove ---------------------------------------------------

    def install(self, gosman_modules):
        """Patch the modules; return a callable that restores them."""
        undo = []

        def patch(obj, attr, new):
            undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

        for caller, attr, name in CALLER_PATCHES:
            module = gosman_modules[caller]
            fn = getattr(module, attr)
            before = self._enum_before if name == "sensors.enumerate_actions" else None
            after = self._record(name) if name in RECORDED else None
            patch(module, attr, self.span(name, fn, before, after))
        simulate = gosman_modules["simulate"]
        patch(simulate, "make_policy", self._make_policy(simulate.make_policy))
        patch(simulate, "run_episode", self._run_episode(simulate.run_episode))
        config_cls = gosman_modules["config"].ScenarioConfig
        for attr in ("planning_env", "motion_model"):
            patch(config_cls, attr, self.span("config." + attr, getattr(config_cls, attr)))

        def restore():
            for obj, attr, old in reversed(undo):
                setattr(obj, attr, old)
        return restore

    # -- checks and worker hand-off -----------------------------------------

    def run_checks(self):
        """Check the recorded calls, then drop them."""
        t0 = perf_counter()
        failures, counts = check_trace_records(self.records)
        self.records = []
        self.check_failures += failures
        for kind, n in counts.items():
            self.check_counts[kind] = self.check_counts.get(kind, 0) + n
        self.check_seconds += perf_counter() - t0

    def snapshot(self):
        return {"stats": [[list(k), v] for k, v in self.stats.items()],
                "enum_distinct": self.enum_distinct, "steps": self.steps,
                "decisions": self.decisions,
                "check_failures": self.check_failures,
                "check_counts": self.check_counts,
                "check_seconds": self.check_seconds}

    def merge(self, snap):
        for (name, label, phase), (calls, total, self_s) in snap["stats"]:
            s = self.stats.setdefault((name, label, phase), [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        self.enum_distinct += snap["enum_distinct"]
        for field in ("steps", "decisions", "check_counts"):
            mine = getattr(self, field)
            for key, n in snap[field].items():
                mine[key] = mine.get(key, 0) + n
        self.check_failures += snap["check_failures"]
        self.check_seconds += snap["check_seconds"]

    def _dump(self):
        self.run_checks()
        self.dumps += 1
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}-{self.dumps}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)
        self.reset()

    def merge_dumps(self):
        """Fold in and delete the aggregates that pool workers wrote."""
        for name in sorted(os.listdir(self.dump_dir)):
            path = os.path.join(self.dump_dir, name)
            with open(path) as fh:
                self.merge(json.load(fh))
            os.remove(path)
