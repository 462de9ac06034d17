"""Fold one traced run of every workload into bench/baseline.json: the rows
of the ROADMAP baseline table as measured here, the machine they ran on,
and each workload's per-layer metrics.

    python3 bench/baseline.py [--seed N]

Rows are medians of traced spans (tracing included); the ROADMAP figures
are best of 3 untraced.  A row is flagged when the two differ by more than
a factor of 1.5.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"

#: ROADMAP baseline table, seconds
ROADMAP_ROWS = {
    "import.darkstate.cli_s": (1.0, 1.4),
    "rows.spectrum_analytic_6001_s": 0.0031,
    "rows.laplace_solve_oracle_6001_s": 0.213,
    "rows.propagate_t60_s": 0.056,
    "rows.propagate_t150_s": 0.064,
    "rows.spectrum_time_domain_1201_s": 2.4,
    "rows.spectrum_time_domain_6001_s": 9.9,
    "rows.validate_all_s": 0.45,
    "rows.sweep_central_area_61_s": 0.27,
    "rows.sweep_trapped_fraction_21_s": 1.6,
}
DISAGREE = 1.5


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"machine": f"{platform.system()} {platform.machine()}, {model}",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    per_layer, rows = {}, {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                               "--workload", workload, "--seed",
                               str(args.seed), "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload}: incorrect outputs\n{proc.stderr}")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        per_layer[workload] = metrics
        for name in ROADMAP_ROWS:
            if metrics.get(name):
                rows.setdefault(name, {})[workload] = metrics[name]
    table = {}
    for name, roadmap in ROADMAP_ROWS.items():
        lo, hi = roadmap if isinstance(roadmap, tuple) else (roadmap, roadmap)
        measured = rows.get(name, {})
        table[name] = {
            "roadmap_s": roadmap,
            "measured_s": measured,
            "disagrees": any(v > DISAGREE * hi or v < lo / DISAGREE
                             for v in measured.values()),
        }
    OUT.write_text(json.dumps({"seed": args.seed, **machine(),
                               "rows": table, "per_layer": per_layer},
                              indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
