"""GOSPA-driven sensor management for Gaussian Bernoulli filtering.

The package root exports the entry points the CLI, the demos and the
README use; the building blocks are imported from their modules
(``gosman.bernoulli``, ``gosman.gospa``, ``gosman.planners``, ...).
"""

__version__ = "0.1.0"   # before the imports: summary.json's provenance reads it

from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .planners import make_policy
from .simulate import (BatchResult, run_batch, run_comparison, write_metrics_csv,
                       write_summary_json)
