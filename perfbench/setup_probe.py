"""Set-up work of one gosman process, timed from outside by run.py.

Imports gosman, loads and validates the config given as the only
argument, and builds the planning environment and every policy the
config lists, as each episode does before its first step.
"""

import sys

import gosman

cfg = gosman.load_config(sys.argv[1])
env = cfg.planning_env()
for spec in cfg.policies or (cfg.policy,):
    gosman.make_policy({"name": spec.name, **spec.params}, env)
