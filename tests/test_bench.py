"""The benchmark's tracing targets must name functions that exist, or
`bench/run.py --trace 1` fails once a traced function is renamed or
deleted."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,attr", [t[:2] for t in _targets()])
def test_trace_target_resolves(layer, attr):
    obj = importlib.import_module(f"darkstate.{layer}")
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
