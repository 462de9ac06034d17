#!/usr/bin/env python3
"""SHA-256 digests of the CLI's outputs, one line per output, so that two
source trees can be checked for byte-identical output by diffing two runs.

The CLI runs in-process (`darkstate.cli.main`) in a temporary directory:

- `spectrum` for every preset on the default, 601- and 6001-point grids,
  once as CSV plus SVG and once as JSON, `spectrum --method both` on
  `fig2-notrapping` (1201 points), and `two-level` on a 29-point grid
  that hits a pole on every branch, as CSV and as JSON;
- four 61- or 21-value sweeps (`central_area`, `peak_count`, `total_area`,
  `trapped_fraction`), and each analytic metric swept on `two-level`
  through its poles, on `two-level` from an undriven value (a quartic with
  q0 = 0) among driven ones, over two values only, on a coarse grid that
  warns, and on a random scenario given with `--config`; `peak_count` and
  `total_area` on `at-quartet` and `autler-townes-doublet` (neighbouring
  peaks of equal height), and a `peak_count` sweep whose quartic overflows
  (exit 3);
- `validate all`, and `trapping` for every preset; `trapping --solve`,
  with and without `--out`, for every chain preset and the random
  scenario (those with Omega3 = 0 or Gamma1 != Gamma3 exit 4);
- on D1 scenario files with a phase on every field (initially in B, in
  A2, in a superposition, and a dark loop): `spectrum` as CSV plus SVG,
  as JSON and with `--method both`, `trapping` with and without
  `--solve`, and `sweep`; the same commands on invalid D1 files (Gamma < 0,
  a NaN field);
- the time-domain spectrum on uniform grids of huge spacing, and on
  `fig2-notrapping` and `d1-fig3a` (whose trapped component takes the
  eps-extrapolated transform) at 1201 points;
- on a detuned and on a cross-damped copy of `fig2-notrapping`, which take
  DOP853's stage kernel: the time-domain spectrum at 601 points and a
  `trapped_fraction` sweep;
- on a copy of `fig2-notrapping` with omega23 = 9, unequal splittings
  that the closed form and the sample-step operator take: `spectrum` as
  CSV and as JSON, `--method both` at 1201 points, and a `central_area`
  sweep;
- `spectrum` on two chain files whose spectrum is zero: undriven (the
  "no emission" warning) and driven on the inner fields only (the
  "identically zero" note);
- the time-domain spectrum of a D1 file with Gamma = 2e3 and four unit
  fields, whose decay the sample grid does not resolve: its drift is
  constant, so the sample-step operator computes it;
- the time-domain spectrum on the two runs that fail (exit 3): a chain
  file with all rates 2e3, four unit fields and a detuned Omega1, whose
  stage-kernel run spends its step budget (NotConverged), and
  `fig2-notrapping` driven at |Omega1| = 1e200, whose step size
  underflows before any sample (StepSizeUnderflow);
- `make_figures.py` and `reproduction_report.py`, run in-process.

Each command's exit code, stdout and stderr count as outputs, as do its
files (those of a new directory one by one). Manifests are hashed without
their timings (`wall_time_s`, `stage_s`), the only fields that differ
between two runs of one tree.

    PYTHONPATH=src python scripts/output_digests.py --out before.txt
    (in the other tree)  PYTHONPATH=src python scripts/output_digests.py --out after.txt
    diff before.txt after.txt
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import make_figures
import reproduction_report
from darkstate.cli import main as cli_main
from darkstate.model import (D1System, D2System, DriveField, preset,
                             preset_names, save_scenario)

GRIDS = {"default": [], "601": ["--grid=-30:30:601"],
         "6001": ["--grid=-30:30:6001"]}
TAU = "6.283185307179586"
#: the analytic sweep metrics
ANALYTIC = ("central_area", "peak_count", "total_area")
#: the scenario file of the `--config` sweeps, written before them
RANDOM = "random.json"
#: label: (metric, sweep options)
SWEEPS = {
    "central_area": ("central_area",
                     ["--preset", "fig2-trapping", "--vary", "phase2",
                      "--range", f"0:{TAU}:61"]),
    "peak_count": ("peak_count",
                   ["--preset", "fig2-notrapping", "--vary", "phase3",
                    "--range", f"0:{TAU}:61"]),
    "total_area": ("total_area",
                   ["--preset", "fig2-notrapping", "--vary", "mag2",
                    "--range", "0:2.5:61"]),
    "trapped_fraction": ("trapped_fraction",
                         ["--preset", "fig2-trapping", "--vary", "phase2",
                          "--range", f"0:{TAU}:21"]),
    # undriven: each branch hits a pole at -13, 0 or 13 of the 29-point grid
    **{f"two-level poles {m}": (m, ["--preset", "two-level", "--vary",
                                    "gamma1", "--range", "0.5:2:21",
                                    "--grid=-14:14:29"]) for m in ANALYTIC},
    # 0.2 spacing against lines about 1 wide: a GridTooCoarse warning
    **{f"coarse {m}": (m, ["--preset", "fig2-notrapping", "--vary", "phase3",
                           "--range", f"0:{TAU}:21", "--grid=-30:30:301"])
       for m in ANALYTIC},
    **{f"random {m}": (m, ["--config", RANDOM, "--vary", "mag2",
                           "--range", "0:2.5:21"]) for m in ANALYTIC},
    # q0 = 0 at mag1 = 0, whose quartic np.roots trims, among ordinary
    # values; only that value hits poles on the 29-point grid
    **{f"two-level mag1 from 0 {m}": (m, ["--preset", "two-level", "--vary",
                                          "mag1", "--range", "0:2:11",
                                          "--grid=-14:14:29"])
       for m in ANALYTIC},
    # neighbouring peaks of equal height: the doublet at every value, the
    # quartet at mag4 = 5
    **{f"{name} {m}": (m, ["--preset", name, "--vary", "mag4", "--range",
                           "0:10:21"])
       for name in ("at-quartet", "autler-townes-doublet")
       for m in ("peak_count", "total_area")},
    # exit 3: characteristic quartic overflows at mag1 = 5e199 and 1e200
    "quartic overflow": ("peak_count",
                         ["--preset", "fig2-trapping", "--vary", "mag1",
                          "--range", "0:1e200:3"]),
    # the smallest sweep: --range takes at least two values
    **{f"two values {m}": (m, ["--preset", "fig2-trapping", "--vary",
                               "phase2", "--range", f"0:{TAU}:2"])
       for m in ANALYTIC},
}


#: D1 scenario files by label, written as JSON: a phase on every field
D1_FIELDS = [{"mag": 0.6, "phase": 0.4}, {"mag": 0.9, "phase": 2.1},
             {"mag": 1.2, "phase": 4.0}, {"mag": 0.7, "phase": 5.3}]
D1_FILES = {
    "d1 B": {"system": "d1", "gamma": [0.8], "fields": D1_FIELDS},
    "d1 A2": {"system": "d1", "gamma": [0.8], "fields": D1_FIELDS,
              "initial": "A2"},
    "d1 vector": {"system": "d1", "gamma": [0.8], "fields": D1_FIELDS,
                  "initial": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8], [0.0, 0.0]]},
    # Oo1 Om1 + Om2 conj(Oo2) = 0: the dark atom
    "d1 dark": {"system": "d1", "gamma": [1.0], "fields": [
        {"mag": 1.0, "phase": 0.5}, {"mag": 1.0, "phase": 0.3 - 1.5 - math.pi},
        {"mag": 1.0, "phase": 1.0}, {"mag": 1.0, "phase": 0.3}]},
    "d1 gamma<0": {"system": "d1", "gamma": [-1.0], "fields": D1_FIELDS},
    "d1 NaN field": {"system": "d1", "gamma": [0.8],
                     "fields": [{"mag": float("nan")}, *D1_FIELDS[1:]]},
}
#: the time-domain spectrum on uniform grids whose chirp phases are huge
FAR_GRIDS = {"far 1e20 both": ["--method", "both", "--grid=-1e20:0:2"],
             "far 1e300 timedomain": ["--method", "timedomain",
                                      "--grid=-1e300:1e300:5"]}
#: the time-domain spectrum alone, by preset
TIME_DOMAIN = ("fig2-notrapping", "d1-fig3a")
#: fig2-notrapping with a non-constant drift matrix, by label: the changed
#: fields
STAGE_KERNEL = {"detuned": {"detunings": (0.3, 0.1, 0.1, 0.1)},
                "cross-damped": {"alignments": (0.5, 0.2, 0.3)}}
#: fig2-notrapping with unequal splittings: the changed field
UNEVEN = {"omega23": 9.0}
#: chain systems initially in B with a zero spectrum, by label: their drive
#: magnitudes
ZERO_SPECTRUM = {"undriven": (0.0, 0.0, 0.0, 0.0),
                 "inner fields": (0.0, 1.0, 1.0, 0.0)}
#: a D1 file whose decay the sample grid does not resolve; its drift is
#: constant, so the sample-step operator computes it
D1_STIFF = {"system": "d1", "gamma": [2e3], "fields": [{"mag": 1.0}] * 4}
#: a chain file as stiff, with a detuned Omega1: its time-dependent drift
#: takes the stage kernel, whose run spends its step budget (NotConverged)
DETUNED_STIFF = {"system": "d2", "gamma": [2e3] * 3, "omega12": 13.0,
                 "omega23": 13.0, "detunings": [0.5, 0.0, 0.0, 0.0],
                 "fields": [{"mag": 1.0}] * 4, "initial": "B"}


def _random_system(seed=7):
    """A resonant chain with drawn rates and drives, initially in B."""
    rng = np.random.default_rng(seed)
    gamma = tuple(rng.uniform(0.3, 2.0, 3))
    drives = tuple(DriveField(m, p) for m, p in zip(
        rng.uniform(0.0, 2.5, 4), rng.uniform(0.0, 2.0 * np.pi, 4)))
    return D2System(gamma=gamma, omega12=13.0, omega23=13.0, drives=drives,
                    initial="B")


#: manifest fields that hold timings
TIMINGS = ("wall_time_s", "stage_s")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(label, argv, digests, main=cli_main):
    """Run main(argv), one CLI command or a script, in the current
    directory and record the digests of its exit code, streams and new
    files under label."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests[f"{label} exit"] = _sha(str(code).encode())
    digests[f"{label} stdout"] = _sha(out.getvalue().encode())
    digests[f"{label} stderr"] = _sha(err.getvalue().encode())
    for name in sorted(set(os.listdir()) - before):
        top = Path(name)
        for path in sorted(top.rglob("*")) if top.is_dir() else [top]:
            if path.is_dir():
                continue
            data = path.read_bytes()
            if name.endswith(".manifest.json"):
                manifest = json.loads(data)
                for key in TIMINGS:
                    manifest.pop(key, None)
                data = json.dumps(manifest, sort_keys=True).encode()
            digests[f"{label} {path}"] = _sha(data)
        if top.is_dir():
            shutil.rmtree(top)
        else:
            os.remove(top)


def digests() -> dict:
    """{label: SHA-256} over every output of the commands listed above."""
    found = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in preset_names():
                src = ["--preset", name]
                for grid, opt in GRIDS.items():
                    label = f"spectrum {name} {grid}"
                    _run(f"{label} csv+svg", ["spectrum", *src, *opt,
                                              "--out", "s.csv",
                                              "--svg", "s.svg"], found)
                    _run(f"{label} json", ["spectrum", *src, *opt,
                                           "--format", "json",
                                           "--out", "s.json"], found)
                _run(f"trapping {name}",
                     ["trapping", *src, "--out", "t.json"], found)
            # undriven: each branch hits a pole at -13, 0 or 13, so the
            # pole-hit fill and the pole tables are written
            for fmt in ("csv", "json"):
                _run(f"spectrum two-level poles {fmt}",
                     ["spectrum", "--preset", "two-level", "--grid=-14:14:29",
                      "--format", fmt, "--out", f"s.{fmt}"], found)
            _run("spectrum fig2-notrapping both",
                 ["spectrum", "--preset", "fig2-notrapping", "--method",
                  "both", "--grid=-30:30:1201", "--out", "s.csv"], found)
            save_scenario(_random_system(), RANDOM)
            for label, (metric, args) in SWEEPS.items():
                _run(f"sweep {label}", ["sweep", *args, "--metric", metric,
                                        "--out", "sweep.csv"], found)
            _run("validate all", ["validate", "all"], found)
            for label, data in D1_FILES.items():
                with open("d1.json", "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                src = ["--config", "d1.json"]
                _run(f"spectrum {label} csv+svg",
                     ["spectrum", *src, "--grid=-25:25:601", "--out", "s.csv",
                      "--svg", "s.svg"], found)
                _run(f"spectrum {label} json",
                     ["spectrum", *src, "--grid=-25:25:601", "--format",
                      "json", "--out", "s.json"], found)
                _run(f"spectrum {label} both",
                     ["spectrum", *src, "--grid=-25:25:301", "--method",
                      "both", "--out", "s.csv"], found)
                _run(f"trapping {label}", ["trapping", *src, "--out",
                                           "t.json"], found)
                _run(f"trapping {label} solve",
                     ["trapping", *src, "--solve", "--out", "t.json"], found)
                _run(f"sweep {label}", ["sweep", *src, "--vary", "phase2",
                                        "--range", "0:1:3", "--metric",
                                        "central_area", "--out", "sweep.csv"],
                     found)
                os.remove("d1.json")
            for label, opts in FAR_GRIDS.items():
                _run(f"spectrum fig2-notrapping {label}",
                     ["spectrum", "--preset", "fig2-notrapping", *opts,
                      "--out", "s.csv"], found)
            for name in TIME_DOMAIN:
                _run(f"spectrum {name} timedomain",
                     ["spectrum", "--preset", name, "--method", "timedomain",
                      "--grid=-30:30:1201", "--out", "s.csv"], found)
            chains = [["--preset", name] for name in preset_names()
                      if not isinstance(preset(name).system, D1System)]
            for src in [*chains, ["--config", RANDOM]]:
                label = f"trapping {src[1]} solve"
                _run(label, ["trapping", *src, "--solve"], found)
                _run(f"{label} out", ["trapping", *src, "--solve", "--out",
                                      "t.json"], found)
            base = preset("fig2-notrapping").system
            for label, fields in STAGE_KERNEL.items():
                save_scenario(dataclasses.replace(base, **fields), "s.json")
                _run(f"spectrum {label} timedomain",
                     ["spectrum", "--config", "s.json", "--method",
                      "timedomain", "--grid=-30:30:601", "--out", "s.csv"],
                     found)
                _run(f"sweep {label} trapped_fraction",
                     ["sweep", "--config", "s.json", "--vary", "phase2",
                      "--range", f"0:{TAU}:5", "--metric", "trapped_fraction",
                      "--out", "sweep.csv"], found)
                os.remove("s.json")
            save_scenario(dataclasses.replace(base, **UNEVEN), "uneven.json")
            src, label = ["--config", "uneven.json"], "spectrum omega23=9"
            _run(f"{label} csv", ["spectrum", *src, "--out", "s.csv"], found)
            _run(f"{label} json", ["spectrum", *src, "--format", "json",
                                   "--out", "s.json"], found)
            _run(f"{label} both", ["spectrum", *src, "--method", "both",
                                   "--grid=-30:30:1201", "--out", "s.csv"],
                 found)
            _run("sweep omega23=9 central_area",
                 ["sweep", *src, "--vary", "phase2", "--range",
                  f"0:{TAU}:61", "--metric", "central_area", "--out",
                  "sweep.csv"], found)
            os.remove("uneven.json")
            for label, mags in ZERO_SPECTRUM.items():
                save_scenario(base.with_drives(tuple(map(DriveField, mags))),
                              "s.json")
                _run(f"spectrum {label}", ["spectrum", "--config", "s.json",
                                           "--out", "s.csv"], found)
                os.remove("s.json")
            # a stiff resonant run, and the two failing ends of a
            # time-domain run: the stage kernel's step budget, and a step
            # size below the spacing of t before any sample
            for path, data in (("stiff.json", D1_STIFF),
                               ("budget.json", DETUNED_STIFF)):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            save_scenario(base.with_drives((DriveField(1e200),
                                            *base.drives[1:])), "huge.json")
            for label, path in (("d1 stiff", "stiff.json"),
                                ("detuned budget", "budget.json"),
                                ("fig2-notrapping Omega1 1e200", "huge.json")):
                _run(f"spectrum {label} timedomain",
                     ["spectrum", "--config", path, "--method", "timedomain",
                      "--grid=-5:5:11", "--out", "s.csv"], found)
                os.remove(path)
            _run("make_figures", ["--outdir", "figures"], found,
                 make_figures.main)
            _run("reproduction_report", ["--out", "report.json"], found,
                 reproduction_report.main)
        finally:
            os.chdir(cwd)
    return found


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the digests here, not to stdout")
    args = parser.parse_args()
    text = "".join(f"{sha}  {label}\n"
                   for label, sha in sorted(digests().items()))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
