"""The benchmark's tracing targets must name functions that exist, or
`bench/run.py --trace 1` fails once a traced function is renamed or
deleted."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHILD_ENV

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


#: an untraced sweep, then tracing.install, then a traced sweep and validate,
#: in the order of `bench/run.py --trace 1`'s passes; prints the span names
_TRACE_AFTER_UNTRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from darkstate import cli
sweep = ["sweep", "--preset", "fig2-notrapping", "--vary", "phase2",
         "--range", "0:3:4", "--metric", "total_area", "--grid=-5:5:201"]
assert cli.main(sweep) == 0
tracer = tracing.Tracer()
tracing.install(tracer)
assert cli.main(sweep) == 0
assert cli.main(["validate", "two-level"]) == 0
print(json.dumps(sorted({span[1] for span in tracer.spans})))
"""


def test_commands_traced_after_an_untraced_pass(tmp_path):
    """Commands run after tracing.install are recorded although main ran
    (and built its parser) before it, as the bench's traced passes do.
    Run in a child interpreter, since install rewires darkstate's modules
    for the rest of the process."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_AFTER_UNTRACED, str(TRACING.parent)],
        cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True,
        check=True)
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"cli.cmd_sweep", "cli._sweep_metric", "cli.cmd_validate"} <= names
