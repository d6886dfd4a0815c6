"""Every layer entry point the traced benchmark run wraps exists.

``perfbench/tracing.py`` patches each layer's entry points by
``(module, attribute path)``. A renamed or removed target is only
reported as a missing wrapper at run time, and the per-layer metrics
fed by it silently read 0 — so the targets are pinned here.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = (pathlib.Path(__file__).resolve().parents[1]
           / "perfbench" / "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


@pytest.mark.parametrize("module_name,path", _targets())
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}:{path} is missing"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}:{path} is not callable"
