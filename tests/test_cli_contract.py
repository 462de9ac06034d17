"""The CLI's output contract on hostile scenario files, in process: every
exit code is one of 0-4, every stderr line is an `error:`, `warning:` or
`note:` line, a nonzero exit writes nothing, and no written CSV or JSON
holds NaN or infinity.  Warnings are errors here, so a raw warning fails
the case, and each case runs under a time limit, so an unbounded
integration fails it too.

The cases are fixed reproducers of each class of escape, and a seeded
mutation of the preset scenario files: one number of one preset set to a
hostile value, run through one command shape."""
import contextlib
import io
import json
import math
import signal
import warnings

import numpy as np
import pytest

from darkstate import preset, preset_names, scenario_to_dict
from darkstate.cli import main

#: seconds a case may take; the slowest passing case takes about 1 s
TIME_LIMIT = 10.0

UNIT = [{"mag": 1.0}] * 4

#: name: (scenario, command arguments)
REPRODUCERS = {
    # NaN residues at the pole hits delta = -13, 0 and 13
    "d1-gamma1e300-csv": ({"system": "d1", "gamma": [1e300], "fields": UNIT},
                          ["spectrum", "--grid=-26:26:5"]),
    "d1-gamma1e300-json": ({"system": "d1", "gamma": [1e300], "fields": UNIT},
                           ["spectrum", "--grid=-26:26:5", "--format",
                            "json"]),
    # NaN areas and a peak count of 0 at gamma2 = 1e200
    **{f"d2-tiny-rates-sweep-{metric}": (
        {"system": "d2", "gamma": [1e-300, 1.0, 1e-300], "omega12": 13.0,
         "omega23": 13.0, "fields": UNIT},
        ["sweep", "--vary", "gamma2", "--range", "1e100:1e200:2",
         "--metric", metric])
       for metric in ("central_area", "total_area", "peak_count")},
    # Q' overflows at the root polish, before the grid check
    "d1-microwave1e154": (
        {**scenario_to_dict(preset("d1-fig3a").system),
         "fields": [{"mag": 0.5, "phase": 3 * math.pi / 2},
                    {"mag": 0.5, "phase": math.pi / 2}, {"mag": 1e154},
                    {"mag": 1.0}]},
        ["spectrum"]),
    # a stiff run: about 780 step attempts per time sample
    "d1-gamma1e6-both": (
        {**scenario_to_dict(preset("d1-fig3a").system), "gamma": [1e6]},
        ["spectrum", "--method", "both", "--grid=-30:30:201"]),
    # exits 0 and writes its solved scenario as JSON to --out
    "fig2-omega12=1e6-trapping-solve": (
        {**scenario_to_dict(preset("fig2-trapping").system), "omega12": 1e6},
        ["trapping", "--solve"]),
    # a drive of 1e150 overflows the residue of its far pole: raw warnings,
    # and NaN residues in the JSON pole table
    **{f"d2-drive1e150-{fmt}": (
        {"system": "d2", "gamma": [1e-300, 1.0, 1.0], "omega12": 13.0,
         "omega23": 13.0, "fields": [{"mag": 1e150}, *UNIT[1:]]},
        ["spectrum", "--grid=-5:5:11", "--format", fmt])
       for fmt in ("csv", "json")},
    # two-level with every rate and splitting times 1000: the contour of
    # its clustered pole divides by zero, and the NaN residue exits 3.
    # Poles and residues from one eigendecomposition (ROADMAP item 12)
    # would give it a spectrum instead
    "two-level-x1000": (
        {**scenario_to_dict(preset("two-level").system),
         "gamma": [1000.0] * 3, "omega12": 13000.0, "omega23": 13000.0},
        ["spectrum"]),
    # the phase reached math.fmod, whose domain error named no field
    "d1-phase-infinity": (
        {"system": "d1", "gamma": [1.0],
         "fields": [{"mag": 1.0, "phase": math.inf}, *UNIT[1:]]},
        ["spectrum"]),
}

#: name: what the error of a reproducer must say
MESSAGES = {
    **{f"d2-drive1e150-{fmt}": "residue at pole"
       for fmt in ("csv", "json")},
    "d1-phase-infinity": "field 1 = (mag 1.0, phase inf) must be finite",
    "two-level-x1000": "the branch 1 residue at pole (-13000-500j)",
}

#: name: the exit code of a reproducer, where it is known
EXITS = {"two-level-x1000": 3}

HOSTILE = (0.0, -1.0, 1e-300, 1e-8, 1e6, 1e100, 1e154, 1e300, math.nan,
           math.inf)

SHAPES = (
    ["spectrum", "--grid=-30:30:201"],
    ["spectrum", "--grid=-30:30:201", "--format", "json"],
    ["spectrum", "--method", "both", "--grid=-30:30:41"],
    ["trapping", "--solve"],
    ["sweep", "--vary", "phase2", "--range", "0:6.283185307179586:5",
     "--metric", "central_area"],
    ["sweep", "--vary", "mag2", "--range", "0:2:3", "--metric",
     "total_area"],
)


def _numbers(data, path=()):
    """The paths of the numbers in a scenario dict."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return [path] if isinstance(data, float) else []
    return [p for k, v in items for p in _numbers(v, (*path, k))]


def _mutations(seed=1, count=36):
    rng = np.random.default_rng(seed)
    cases = {}
    for k in range(count):
        name = preset_names()[rng.integers(len(preset_names()))]
        data = scenario_to_dict(preset(name).system)
        paths = _numbers(data)
        path = paths[rng.integers(len(paths))]
        value = HOSTILE[rng.integers(len(HOSTILE))]
        leaf = data
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = value
        shape = SHAPES[rng.integers(len(SHAPES))]
        label = "/".join(map(str, path))
        cases[f"mutation{k:02d}-{name}-{label}={value:g}-{shape[0]}"] = (
            data, shape)
    return cases


CASES = {**REPRODUCERS, **_mutations()}


def _finite_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return all(math.isfinite(float(v)) for row in rows[1:]
               for v in row.split(","))


def _finite_json(text):
    found = []
    json.loads(text, parse_constant=found.append)
    return not found


class _TimeLimit(Exception):
    pass


def _raise_time_limit(signum, frame):
    raise _TimeLimit(f"no exit within {TIME_LIMIT} s")


def _run(argv):
    """(exit code or the exception raised, stdout, stderr) of main(argv),
    with warnings as errors, under TIME_LIMIT."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_time_limit)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except (Exception, SystemExit) as exc:
        code = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_output_contract(case, tmp_path):
    scenario, command = CASES[case]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    outdir = tmp_path / "out"
    outdir.mkdir()
    # trapping --solve writes the solved scenario, as JSON, to --out
    json_out = "json" in command or command[0] == "trapping"
    out = outdir / ("out.json" if json_out else "out.csv")
    code, _, err = _run([*command, "--config", str(config),
                         "--out", str(out)])
    assert code in range(5), f"{case}: {code!r}"
    if case in EXITS:
        assert code == EXITS[case]
        assert all(line.startswith("error: ") for line in err.splitlines())
    assert all(line.startswith(("error: ", "warning: ", "note: "))
               for line in err.splitlines()), err
    assert MESSAGES.get(case, "") in err
    written = sorted(outdir.iterdir())
    if code:
        assert written == []
    for path in written:
        text = path.read_text(encoding="utf-8")
        finite = _finite_csv if path.suffix == ".csv" else _finite_json
        assert finite(text), f"{path.name} holds a non-finite value"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8's defect 2, a wrong "
                   "zero at a removable pole; item 12's pole-based hit test")
def test_scaled_d1_centre_through_the_cli(tmp_path):
    """d1-fig3a with its rate and field magnitudes scaled by c = 0.1, and
    the grid with them: the contract holds, but the delta = 0 row reads
    0.0, where c I(0) is 1/(2 pi) (its neighbours read 0.1513)."""
    c = 0.1
    data = scenario_to_dict(preset("d1-fig3a").system)
    data["gamma"] = [c * g for g in data["gamma"]]
    data["fields"] = [{**f, "mag": c * f["mag"]} for f in data["fields"]]
    config, out = tmp_path / "scenario.json", tmp_path / "out.csv"
    config.write_text(json.dumps(data))
    code, _, err = _run(["spectrum", "--config", str(config),
                         "--grid=-3:3:601", "--out", str(out)])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    delta, total = float(rows[300][0]), float(rows[300][-1])
    assert delta == 0.0
    assert c * total == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
