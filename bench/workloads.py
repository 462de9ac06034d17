"""The four workloads: the operations of one pass of each, built from a seed.

An operation is one darkstate CLI command (run in a fresh process for
`cold-cli`, through `darkstate.cli.main(argv)` otherwise) or one library
call.  Random systems are written as scenario JSON files and passed
with `--config`; everything else uses the fixed presets.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cold-cli", "analytic-sweep", "oracle-crosscheck",
             "dynamics-sweep")

#: the seed at which seed-dependent outputs are also checked against the
#: stored references
DEFAULT_SEED = 0

TAU = "6.283185307179586"
DEFAULT_POINTS = 6001  # the CLI's default grid, -30:30:6001
GRID_1201 = "--grid=-30:30:1201"

D2_PRESETS = ("two-level", "autler-townes-doublet", "at-quartet",
              "fig2-trapping", "fig2-notrapping")
ALL_PRESETS = ("at-quartet", "autler-townes-doublet", "d1-fig3a", "d1-fig3b",
               "d1-fig3c", "d1-fig3d", "d1-fig3e", "d1-fig3f", "d1-trapping",
               "fig2-notrapping", "fig2-trapping", "two-level")


@dataclass
class Op:
    """One operation.

    argv is the darkstate CLI command line; without it the operation is one
    library call on `system` (a preset name or a scenario file):
    `steady_state_amplitudes` ("closed") or `laplace_solve_oracle`
    ("oracle"), whose result is checked against the closed form computed
    just before it.  `files` are outputs that must match their stored
    SHA-256; `check` names one further output check (see checks.py).
    """

    name: str
    kind: str                 # spectrum | sweep | trapping | validate | crosscheck
    argv: list | None = None
    system: str | None = None
    call: str | None = None   # closed | oracle
    points: int = 0           # grid points delivered; --method both counts twice
    values: int = 0           # sweep values
    seeded: bool = False      # input depends on --seed
    files: tuple = ()
    check: str | None = None  # stdout | verdicts | trapped_values | timedomain | crosscheck


def random_scenario(rng, omega=13.0):
    """Scenario dict with the distribution of
    tests/conftest.py::random_admissible_system (same draw order)."""
    gamma = rng.uniform(0.3, 2.0, 3)
    mags = rng.uniform(0.0, 2.5, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    return {
        "system": "d2",
        "gamma": [float(g) for g in gamma],
        "omega12": omega,
        "omega23": omega,
        "fields": [{"mag": float(m), "phase": float(p)}
                   for m, p in zip(mags, phases)],
        "detunings": [0.0, 0.0, 0.0, 0.0],
        "p": [0.0, 0.0, 0.0],
        "initial": "B",
    }


def _write_scenarios(seed: int, count: int, inputs: Path) -> list:
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(count):
        path = inputs / f"random{k}.json"
        path.write_text(json.dumps(random_scenario(rng), indent=2) + "\n",
                        encoding="utf-8")
        paths.append(str(path))
    return paths


def _spectrum(name, source, fmt="csv", svg=False, seeded=False):
    out = f"spectrum.{fmt}"
    argv = ["spectrum", *source, "--format", fmt, "--out", out]
    files = (out,)
    if svg:
        argv += ["--svg", "spectrum.svg"]
        files += ("spectrum.svg",)
    return Op(name, "spectrum", argv=argv, points=DEFAULT_POINTS,
              seeded=seeded, files=files)


def _both(name, source, points, seeded=False, grid=()):
    argv = ["spectrum", *source, "--method", "both", *grid,
            "--out", "spectrum.csv"]
    return Op(name, "spectrum", argv=argv, points=2 * points, seeded=seeded,
              files=("spectrum.csv",), check="timedomain")


def _sweep(name, source, vary, rng_spec, count, metric, seeded=False):
    argv = ["sweep", *source, "--vary", vary, "--range", rng_spec,
            "--metric", metric, "--out", "sweep.csv"]
    if metric == "trapped_fraction":
        # RK output: compared within a tolerance, not byte for byte
        return Op(name, "sweep", argv=argv, values=count, seeded=seeded,
                  check="trapped_values")
    return Op(name, "sweep", argv=argv, values=count, seeded=seeded,
              files=("sweep.csv",))


def _validate(name, target):
    return Op(name, "validate", argv=["validate", target], check="verdicts")


def build(workload: str, seed: int, inputs: Path):
    """Return (warm-up op or None, ops of one pass) for a workload.

    Scenario files for the random systems are written into `inputs`.
    """
    if workload == "cold-cli":
        solve_src, spec_src = _write_scenarios(seed, 2, inputs)
        # --solve needs Gamma1 == Gamma3; the drawn Gamma3 is replaced
        data = json.loads(Path(solve_src).read_text(encoding="utf-8"))
        data["gamma"][2] = data["gamma"][0]
        Path(solve_src).write_text(json.dumps(data, indent=2) + "\n",
                                   encoding="utf-8")
        ops = [
            Op("trapping-preset", "trapping",
               argv=["trapping", "--preset", "fig2-notrapping",
                     "--out", "trapping.json"], check="stdout"),
            Op("trapping-solve-random", "trapping",
               argv=["trapping", "--config", solve_src, "--solve",
                     "--out", "solved.json"],
               seeded=True, files=("solved.json",), check="stdout"),
            _spectrum("spectrum-preset-csv",
                      ["--preset", "fig2-trapping", "--method", "analytic"]),
            _spectrum("spectrum-random-json-svg", ["--config", spec_src],
                      fmt="json", svg=True, seeded=True),
            _validate("validate-fig2-trapping", "fig2-trapping"),
            _sweep("sweep-central-area", ["--preset", "fig2-trapping"],
                   "phase2", f"0:{TAU}:61", 61, "central_area"),
        ]
        return None, ops

    if workload == "analytic-sweep":
        randoms = _write_scenarios(seed, 4, inputs)
        sweeps = [
            _sweep("sweep-central-area", ["--preset", "fig2-trapping"],
                   "phase2", f"0:{TAU}:61", 61, "central_area"),
            _sweep("sweep-peak-count", ["--preset", "fig2-notrapping"],
                   "phase3", f"0:{TAU}:61", 61, "peak_count"),
            _sweep("sweep-total-area-random", ["--config", randoms[0]],
                   "mag2", "0:2.5:61", 61, "total_area", seeded=True),
        ]
        sources = [(p, ["--preset", p], False) for p in ALL_PRESETS]
        sources += [(f"random{k}", ["--config", path], True)
                    for k, path in enumerate(randoms[1:], start=1)]
        spectra = []
        for i, (label, src, seeded) in enumerate(sources):
            fmt, svg = (("csv", False), ("json", False), ("csv", True))[i % 3]
            tag = fmt + ("-svg" if svg else "")
            spectra.append(_spectrum(f"spectrum-{label}-{tag}", src, fmt=fmt,
                                     svg=svg, seeded=seeded))
        # operations of one kind are spread over the pass, so that each
        # kind samples the whole run, not one stretch of it
        ops = []
        for k, sweep in enumerate(sweeps):
            ops += [sweep, *spectra[5 * k:5 * k + 5]]
        # validate is this workload's only caller of the cofactor
        # amplitudes (steady_state_amplitudes)
        ops.insert(9, _validate("validate-fig2-notrapping", "fig2-notrapping"))
        warmup = _spectrum("warmup", ["--preset", "two-level"])
        return warmup, ops

    if workload == "oracle-crosscheck":
        # twelve random systems, so that op_p50_s (one of the oracle
        # calls) is a median of many samples of a 0.15 s call
        randoms = _write_scenarios(seed, 12, inputs)
        systems = [(p, p, False) for p in D2_PRESETS]
        systems += [(f"random{k}", path, True)
                    for k, path in enumerate(randoms)]
        cross = [[Op(f"closed-{label}", "crosscheck", system=system,
                     call="closed", seeded=seeded),
                  Op(f"oracle-{label}", "crosscheck", system=system,
                     call="oracle", seeded=seeded, check="crosscheck")]
                 for label, system, seeded in systems]
        both = [
            _both("both-fig2-notrapping-6001",
                  ["--preset", "fig2-notrapping"], DEFAULT_POINTS),
            # trapped, epsilon-extrapolated path: the known reproduction gap
            _both("both-d1-fig3a-1201", ["--preset", "d1-fig3a"], 1201,
                  grid=[GRID_1201]),
            _both("both-random0-1201", ["--config", randoms[0]], 1201,
                  seeded=True, grid=[GRID_1201]),
        ]
        # The sweeps keep sweep_values_per_s defined here.  Each takes
        # about twice as long as an oracle call, and with the three
        # `both` spectra there are as many operations longer than the
        # oracle calls (17) as there are shorter ones (the 17 closed-form
        # calls): so op_p50_s is the middle oracle call, not one from the
        # edge of their spread.
        sweeps = [_sweep(f"sweep-central-area-{k}",
                         ["--preset", "fig2-notrapping"], "phase2",
                         f"0:{TAU}:101", 101, "central_area")
                  for k in range(14)]
        # one longer operation after each crosscheck pair
        longer = [both[0], *sweeps[:5], both[1], *sweeps[5:10], both[2],
                  *sweeps[10:]]
        ops = []
        for pair, after in zip(cross, longer, strict=True):
            ops += [*pair, after]
        warmup = Op("warmup", "crosscheck", system="two-level", call="closed")
        return warmup, ops

    if workload == "dynamics-sweep":
        # The RK cost of a random system varies about twofold between
        # systems (nfev 38k to 75k for 21 values), so the 21 mag1 values
        # are spread over three random systems: the run-to-run spread
        # follows the host, not which system a seed happens to draw.
        randoms = _write_scenarios(seed, 3, inputs)
        random_sweeps = [
            _sweep(f"sweep-trapped-random{k}", ["--config", path],
                   "mag1", "0:2.5:7", 7, "trapped_fraction", seeded=True)
            for k, path in enumerate(randoms)]
        # the spectra keep spectrum_points_per_s defined here
        spectra = [_spectrum(f"spectrum-{p}-csv",
                             ["--preset", p, "--method", "analytic"])
                   for p in ("fig2-trapping", "fig2-notrapping", "at-quartet",
                             "autler-townes-doublet")]
        alls = [_validate(f"validate-all-{k}", "all") for k in range(5)]
        # The four spectra are shorter than `validate all` and the fig2
        # sweep is longer; a random system's 7-value sweep may fall on
        # either side.  So the median operation (op_p50_s) is the middle
        # one of the five `validate all` when the random sweeps are
        # longer, and still one of them when one or two are shorter.
        ops = [
            _sweep("sweep-trapped-fig2", ["--preset", "fig2-trapping"],
                   "phase2", f"0:{TAU}:21", 21, "trapped_fraction"),
            spectra[0], alls[0], random_sweeps[0], spectra[1], alls[1],
            alls[2], random_sweeps[1], spectra[2], alls[3],
            random_sweeps[2], spectra[3], alls[4],
        ]
        warmup = _validate("warmup", "d1-fig3c")
        return warmup, ops

    raise ValueError(f"unknown workload {workload!r}")
