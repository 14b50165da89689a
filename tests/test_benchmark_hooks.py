"""The names the layer tracer in perfbench/ patches must exist in gosman.

``perfbench/tracer.py`` wraps, from outside the package, the names each
gosman module looks up when it calls the next one. A rename inside the
package would otherwise break ``perfbench/run.py --trace 1`` silently.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_caller_patches_resolve(tracer):
    assert tracer.CALLER_PATCHES
    for module, attr, _ in tracer.CALLER_PATCHES:
        owner = importlib.import_module(f"gosman.{module}")
        assert callable(getattr(owner, attr, None)), f"gosman.{module}.{attr}"


def test_wrapped_entry_points_resolve(tracer):
    from gosman import simulate
    from gosman.config import ScenarioConfig
    assert callable(simulate.make_policy) and callable(simulate.run_episode)
    for attr in ("planning_env", "motion_model"):
        assert callable(getattr(ScenarioConfig, attr)), f"ScenarioConfig.{attr}"
