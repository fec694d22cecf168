"""Every function the benchmark's tracer wraps exists under its traced name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("span, module_name, attr", _targets())
def test_tracer_target_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner), (span, module_name, attr)
