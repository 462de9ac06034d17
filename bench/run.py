"""darkstate benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from `src/` (as
`PYTHONPATH=src`), nothing is installed.  Load is a closed loop with one
client: operations run back to back, in passes over the workload's
operation list (workloads.py); the run ends at the pass boundary nearest
`--seconds` (after one pass at least).  Every output is checked
(checks.py); failures count in `failed` and make `correct` false.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs untraced passes
for half the time, then installs the spans of tracing.py and runs traced
passes for the other half; it prints the per-layer metrics and writes every
span to `.bench_run/trace-<workload>-seed<N>.json`.

`--write-refs` runs one pass at the default seed and stores its outputs as
the references of checks.py.  The last line of stdout is the result JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

#: fresh-interpreter imports per run for setup_s
SETUP_SAMPLES = 5
IMPORT_STMT = "import darkstate.cli"
IMPORT_METRICS = {"import.darkstate.cli_s": "darkstate.cli",
                  "import.scipy.integrate_s": "scipy.integrate",
                  "import.scipy.signal_s": "scipy.signal"}
CHILD_TIMEOUT_S = 150
#: directories whose contents a run may change (build and run artefacts)
UNTRACKED_DIRS = {".git", ".bench_run", ".bench_build", "__pycache__",
                  ".pytest_cache", ".hypothesis"}


@dataclass
class Result:
    code: int | None
    start: float
    end: float
    stdout: str
    dir: Path
    value: object = None  # cross-check error, or the time-domain spectrum

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    done: list      # [(op, Result)]
    written: int    # bytes of output


def tracked_files() -> dict:
    """Path -> SHA-256 of every file of the checkout outside build and run
    artefacts, to show that a run changed none of them.  This process's own
    stdout and stderr are left out, in case they are redirected to files in
    the checkout."""
    own = set()
    for fd in (1, 2):
        with contextlib.suppress(OSError):
            st = os.fstat(fd)
            own.add((st.st_dev, st.st_ino))
    found = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED_DIRS]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.stat()
            if (st.st_dev, st.st_ino) not in own:
                found[str(path.relative_to(ROOT))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return found


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of the IMPORT_METRICS packages from `-X
    importtime`; 0 for a package the import did not load."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return {metric: cumulative.get(pkg, 0.0)
            for metric, pkg in IMPORT_METRICS.items()}


class Bench:
    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.in_process = workload != "cold-cli"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), NO_COLOR="1")
        self.refs = checks.Refs()
        self.clock = calibrate.Clock()
        self.tracer = None
        self.child_spans = []
        self.captured = []
        self.n_ops = 0
        self.failed = 0
        self.cross_errors = {}
        self.closed = {}  # system -> closed-form amplitudes awaiting the oracle

    # -- set-up -------------------------------------------------------------

    def norm(self, start, end) -> float:
        """Seconds between start and end at the reference host speed: by the
        bursts around them for in-process operations, by the whole run's
        for fresh processes (see setup_samples)."""
        if not self.in_process:
            return (end - start) * self.clock.run_factor()
        return (end - start) * self.clock.factor(start, end)

    def setup_samples(self, importtime: bool):
        """Median wall time of fresh interpreters finishing IMPORT_STMT
        (unscaled), and the median `-X importtime` figures.

        Fresh-process times, these and every cold-cli command, are mostly
        import (reading, unmarshalling and running modules).  The few bursts
        around one of them follow that work less well than the host's speed
        over the whole run does: scaled by the bursts within 5 s, cold-cli
        timings spread by 0.13 to 0.15 over ten seeds (interquartile range /
        median), by 0.05 to 0.14 scaled by the run's median burst.  Unscaled,
        the median setup_s of ten seeds ranged from 1.19 to 1.53 s over three
        sets of the four workloads, as the host's speed drifted; scaled by
        the run's median burst, from 1.12 to 1.20 s."""
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-c", IMPORT_STMT]
        times, imports = [], []
        for _ in range(SETUP_SAMPLES):
            self.clock.burst()
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.run_dir,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            end = time.perf_counter()
            if proc.returncode != 0:
                raise RuntimeError(f"`{IMPORT_STMT}` failed:\n{proc.stderr}")
            times.append(end - start)
            imports.append(parse_importtime(proc.stderr))
        self.clock.burst()
        medians = {k: statistics.median(d[k] for d in imports)
                   for k in IMPORT_METRICS}
        return statistics.median(times), medians

    def load_program(self):
        """Import the CLI in this process; for --method both, keep each
        time-domain spectrum the CLI computes so it can be checked."""
        sys.path.insert(0, str(SRC))
        import darkstate.cli
        import darkstate.dynamics

        def capture(*args, **kwargs):
            result = darkstate.dynamics.spectrum_time_domain(*args, **kwargs)
            self.captured.append(result)
            return result

        darkstate.cli.spectrum_time_domain = capture
        self.cli = darkstate.cli

    # -- operations ---------------------------------------------------------

    def _library_call(self, op):
        from darkstate import model, spectrum
        if op.system.endswith(".json"):
            system = model.load_scenario(op.system)
        else:
            system = model.preset(op.system).system
        lo, hi, n, offset = checks.CROSSCHECK_GRID
        grid = np.linspace(lo, hi, n) + offset
        if op.call == "closed":
            return spectrum.steady_state_amplitudes(system, grid)
        return spectrum.laplace_solve_oracle(system, grid)

    def run_inprocess(self, op, op_dir) -> Result:
        out, err = io.StringIO(), io.StringIO()
        value = None
        self.captured.clear()
        os.chdir(op_dir)
        start = time.perf_counter()
        try:
            with self.op_span(op), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if op.argv:
                    code = self.cli.main(op.argv)
                else:
                    value = self._library_call(op)
                    code = 0
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash counts as a failed operation
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
        os.chdir(self.run_dir)
        if code != 0:
            sys.stderr.write(err.getvalue())
        if op.check == "timedomain" and self.captured:
            value = self.captured[-1]
        return Result(code, start, end, out.getvalue(), op_dir, value)

    def run_child(self, op, op_dir) -> Result:
        log = op_dir.with_name(op_dir.name + ".log")
        spans = op_dir.with_name(op_dir.name + ".spans.json")
        with self.op_span(op) as parent, \
                open(log, "w", encoding="utf-8") as out, \
                open(log.with_suffix(".err"), "w", encoding="utf-8") as err:
            cmd = [sys.executable, "-m", "darkstate.cli", *op.argv]
            if self.tracer:
                cmd = [sys.executable, str(BENCH / "child.py"), str(spans),
                       str(self.n_ops * 10**7), str(parent), op.name, "--",
                       *op.argv]
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=op_dir, env=self.env,
                                    stdout=out, stderr=err)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            end = time.perf_counter()
        if spans.exists():
            self.child_spans += json.loads(spans.read_text(encoding="utf-8"))
        if code != 0:
            sys.stderr.write(log.with_suffix(".err").read_text(encoding="utf-8"))
        return Result(code, start, end, log.read_text(encoding="utf-8"),
                      op_dir)

    def op_span(self, op):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("op", {"op": op.name})

    def run_op(self, op, label) -> Result:
        self.clock.maybe_burst()
        self.n_ops += 1
        op_dir = self.run_dir / f"{label}-{op.name}"
        op_dir.mkdir()
        if self.tracer:
            self.tracer.op = op.name
        if self.in_process:
            return self.run_inprocess(op, op_dir)
        return self.run_child(op, op_dir)

    def verify(self, op, res):
        """Check one result, count it, then delete its outputs."""
        if op.check == "timedomain":
            self.cross_errors[op.name] = checks.max_rel_err(res.stdout)
        if op.call == "closed":
            self.closed[op.system] = res.value
        elif op.call == "oracle" and res.code == 0:
            closed = self.closed.pop(op.system, None)
            res.value = (math.inf if closed is None
                         else checks.crosscheck_error(closed, res.value))
        problems = self.refs.check(f"{self.workload}:{op.name}", op, res,
                                   self.seed)
        if problems:
            self.failed += 1
            print(f"FAIL {op.name}: {'; '.join(problems)}", file=sys.stderr)
        written = sum(p.stat().st_size for p in res.dir.rglob("*")
                      if p.is_file())
        shutil.rmtree(res.dir)
        return written

    def run_pass(self, ops, label) -> Pass:
        """Run every op back to back; check them once the pass is done."""
        done = [(op, self.run_op(op, f"{label}-{i:02d}"))
                for i, op in enumerate(ops)]
        self.clock.burst()
        return Pass(done, sum(self.verify(op, res) for op, res in done))

    def wall(self, p: Pass, normalized=True) -> float:
        """A pass's wall time: the sum of its operations' wall times (the
        benchmark's checks and calibration bursts between them excluded)."""
        if normalized:
            return sum(self.norm(res.start, res.end) for _, res in p.done)
        return sum(res.elapsed for _, res in p.done)

    def passes(self, ops, budget, label) -> list:
        """At least one pass; the run ends at the pass boundary nearest the
        budget.  (Ending before the budget would be overrun gave cold-cli,
        whose pass is about half the budget, one pass in some runs and two
        in others.)"""
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(self.run_pass(ops, f"{label}{len(runs)}"))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(runs)
            if elapsed + typical / 2.0 > budget:
                return runs


def end_to_end(bench, setup, runs) -> dict:
    """Timings at the reference host speed (see Bench.norm); the raw ones
    are printed."""
    done = [(op, res) for p in runs for op, res in p.done]
    metrics = {}
    for normalized in (False, True):
        seconds = [bench.norm(res.start, res.end) if normalized
                   else res.elapsed for _, res in done]

        def rate(kind, attr):
            work = sum(getattr(op, attr) for op, _ in done if op.kind == kind)
            return work / sum(s for (op, _), s in zip(done, seconds)
                              if op.kind == kind)

        metrics = {
            "setup_s": setup * (bench.clock.run_factor() if normalized
                                else 1.0),
            "wall_s": statistics.median(bench.wall(p, normalized)
                                        for p in runs),
            "op_p50_s": statistics.median(seconds),
            "spectrum_points_per_s": rate("spectrum", "points"),
            "sweep_values_per_s": rate("sweep", "values"),
        }
        if not normalized:
            print("raw: " + " ".join(f"{k}={v:.6g}"
                                     for k, v in metrics.items()))
    print(f"calibration kernel median {bench.clock.median_kernel_s():.6f} s "
          f"(reference {calibrate.REFERENCE_S} s); op_p50_s over "
          f"{len(done)} operations, wall_s over {len(runs)} passes")
    who = resource.RUSAGE_SELF if bench.in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
             "spectrum_points_per_s": "1/s", "sweep_values_per_s": "1/s",
             "peak_rss_mb": "MB"}
    return {k: (v, units[k]) for k, v in metrics.items()}


def per_layer(bench, imports, untraced, traced) -> dict:
    spans = tracing.span_dicts(bench.tracer.spans) + bench.child_spans
    metrics = tracing.layer_metrics(spans, len(traced))
    metrics.update(imports)
    metrics["cli.bytes_written"] = statistics.mean(p.written for p in traced)
    metrics["host.kernel_s"] = bench.clock.median_kernel_s()
    untraced_wall = statistics.median(bench.wall(p) for p in untraced)
    traced_wall = statistics.median(bench.wall(p) for p in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    out = RUN_ROOT / f"trace-{bench.workload}-seed{bench.seed}.json"
    out.write_text(json.dumps({"workload": bench.workload, "seed": bench.seed,
                               "metrics": metrics, "spans": spans}),
                   encoding="utf-8")
    print(f"spans written to {out.relative_to(ROOT)}")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls") or metric in ("spectrum.grid_points",
                                               "dynamics.solve_ivp.nfev",
                                               "dynamics.samples",
                                               "dynamics.filon.sample_evals",
                                               "analysis.peaks_found"):
        return "count"
    return {"cli.bytes_written": "B", "cli.sweep.concurrency": "ratio",
            "error_rate": "ratio"}[metric]


def run(args, run_dir) -> dict:
    bench = Bench(args.workload, args.seed, run_dir)
    traced = args.trace == 1
    # also warms the bytecode and file caches for the set-up samples
    bench.load_program()
    setup, imports = bench.setup_samples(importtime=traced)
    inputs = run_dir / "inputs"
    inputs.mkdir()
    warmup, ops = workloads.build(args.workload, args.seed, inputs)
    if args.write_refs:
        bench.refs.forget(args.workload)
        for i, op in enumerate(([warmup] if warmup else []) + ops):
            res = bench.run_op(op, f"refs-{i:02d}")
            if res.code != 0:
                raise RuntimeError(f"{op.name} exited with {res.code}")
            bench.refs.record(f"{args.workload}:{op.name}", op, res)
        bench.refs.save()
        return {}
    if warmup is not None:
        bench.verify(warmup, bench.run_op(warmup, "warmup"))

    if traced:
        untraced = bench.passes(ops, args.seconds / 2.0, "u")
        bench.tracer = tracing.Tracer()
        tracing.install(bench.tracer)
        traced_runs = bench.passes(ops, args.seconds / 2.0, "t")
        metrics = per_layer(bench, imports, untraced, traced_runs)
    else:
        runs = bench.passes(ops, args.seconds, "p")
        metrics = end_to_end(bench, setup, runs)
    for name, err in bench.cross_errors.items():
        shown = "missing" if err is None else f"{err:.3e}"
        print(f"analytic vs time domain (reported, not gated): {name} "
              f"max_rel_err={shown}")
    if traced:
        metrics["error_rate"] = (bench.failed / bench.n_ops, "ratio")
    return {"attempted": bench.n_ops, "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="store this pass's outputs as the references "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "darkstate" / "cli.py").is_file():
        print(f"error: no darkstate sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.write_refs and args.seed != workloads.DEFAULT_SEED:
        parser.error("references are stored at the default seed only")

    before = tracked_files()
    RUN_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_ROOT))
    try:
        result = run(args, run_dir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir)
    after = tracked_files()
    # files the run's caller adds beside it are not the run's doing
    changed = sorted(k for k in before if before[k] != after.get(k))
    if args.write_refs:
        return 0
    if changed:
        print(f"FAIL the run changed repository files: {changed}",
              file=sys.stderr)
    result = {"correct": result["failed"] == 0 and not changed, **result}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
