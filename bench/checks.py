"""Correctness gate: every operation's outputs against the references stored
from the seed commit at the default seed, plus the cross-method checks.

Preset inputs do not depend on the seed, so their references apply on every
seed; outputs of random systems are compared only at the default seed.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED

REFS_DIR = Path(__file__).resolve().parent / "refs"
REFS_JSON = REFS_DIR / "refs.json"
REFS_TIMEDOMAIN = REFS_DIR / "timedomain.npz"

#: acceptance criterion 1 (closed form vs linear solve)
CROSSCHECK_TOL = 1e-10
#: acceptance criterion 2 (time domain), relative to the peak intensity
TIMEDOMAIN_RTOL = 1e-4
#: trapped fractions, as in the `trapped` preset signature
TRAPPED_ATOL = 1e-6

#: the cross-check grid: off any exact pole, as in `validate`
CROSSCHECK_GRID = (-30.0, 30.0, 6001, 0.0137)

_MAX_REL_ERR = re.compile(r"max_rel_err=(\S+)")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdicts(stdout: str) -> list:
    """`validate` output with the measured detail after each verdict
    dropped: `PASS  fig2-trapping: peaks == 4 (got 4)` -> `PASS  fig2-trapping:
    peaks == 4`."""
    return [re.sub(r" \(.*\)$", "", line) for line in stdout.splitlines()]


def sweep_values(path: Path) -> list:
    rows = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line and not line.startswith(("#", "value"))]
    return [float(row.split(",")[1]) for row in rows]


def max_rel_err(stdout: str):
    """The analytic-vs-time-domain error that `spectrum --method both`
    prints, or None."""
    match = _MAX_REL_ERR.search(stdout)
    return float(match.group(1)) if match else None


def crosscheck_error(closed, solved) -> float:
    """Largest |closed - solved| per branch, relative to that branch's
    amplitude scale; a branch that is dark to machine precision in both is
    measured against the overall scale (as `validate` does), since a
    pointwise ratio there compares roundoff with roundoff."""
    overall = max(float(np.max(np.abs(s))) for s in solved)
    err = 0.0
    for c, s in zip(closed, solved):
        scale = float(np.max(np.abs(s)))
        if scale < 1e-12 * overall:
            scale = overall
        err = max(err, float(np.max(np.abs(c - s))) / max(scale, 1e-300))
    return err


class Refs:
    """Stored references; `record` fills them, `check` compares."""

    def __init__(self):
        self.data = (json.loads(REFS_JSON.read_text(encoding="utf-8"))
                     if REFS_JSON.exists() else {})
        self.timedomain = {}
        if REFS_TIMEDOMAIN.exists():
            with np.load(REFS_TIMEDOMAIN) as npz:
                self.timedomain = {k: npz[k] for k in npz.files}

    def check(self, key: str, op, res, seed: int) -> list:
        """Problems found in one operation's result; empty when correct."""
        problems = []
        if res.code != 0:
            return [f"exit code {res.code}"]
        if op.check == "crosscheck" and not res.value <= CROSSCHECK_TOL:
            problems.append(f"closed form vs linear solve {res.value:.2e} > "
                            f"{CROSSCHECK_TOL:g}")
        if op.check == "timedomain" and max_rel_err(res.stdout) is None:
            problems.append("no analytic-vs-time-domain error printed")
        for name in op.files:
            if not (res.dir / name).is_file():
                problems.append(f"missing output {name}")
        if op.argv and op.kind in ("spectrum", "sweep", "trapping"):
            out = op.argv[op.argv.index("--out") + 1]
            manifest = res.dir / f"{out}.manifest.json"
            try:
                json.loads(manifest.read_text(encoding="utf-8"))["command"]
            except (OSError, ValueError, KeyError):
                problems.append(f"missing or bad manifest {manifest.name}")
        if problems or (op.seeded and seed != DEFAULT_SEED):
            return problems
        ref = self.data.get(key)
        if ref is None:
            return problems + ["no stored reference"]
        for name in op.files:
            if sha256(res.dir / name) != ref["files"][name]:
                problems.append(f"{name} differs from the reference")
        if op.check == "stdout" and sha256_text(res.stdout) != ref["stdout"]:
            problems.append("stdout differs from the reference")
        if op.check == "verdicts" and verdicts(res.stdout) != ref["verdicts"]:
            problems.append("validate verdicts differ from the reference")
        if op.check == "trapped_values":
            got = np.array(sweep_values(res.dir / "sweep.csv"))
            want = np.array(ref["values"])
            if got.shape != want.shape or \
                    np.max(np.abs(got - want)) > TRAPPED_ATOL:
                problems.append("trapped fractions differ from the reference "
                                f"by more than {TRAPPED_ATOL:g}")
        if op.check == "timedomain":
            want = self.timedomain[key].astype(float)
            got = np.asarray(res.value.branch_intensity)
            peak = float(np.max(want.sum(axis=0)))
            if got.shape != want.shape or \
                    np.max(np.abs(got - want)) > TIMEDOMAIN_RTOL * peak:
                problems.append("time-domain intensities differ from the "
                                f"reference by more than {TIMEDOMAIN_RTOL:g} "
                                "of peak")
        return problems

    def forget(self, workload: str):
        """Drop a workload's references before they are recorded anew."""
        prefix = f"{workload}:"
        self.data = {k: v for k, v in self.data.items()
                     if not k.startswith(prefix)}
        self.timedomain = {k: v for k, v in self.timedomain.items()
                           if not k.startswith(prefix)}

    def record(self, key: str, op, res):
        ref = {"files": {name: sha256(res.dir / name) for name in op.files}}
        if op.check == "stdout":
            ref["stdout"] = sha256_text(res.stdout)
        elif op.check == "verdicts":
            ref["verdicts"] = verdicts(res.stdout)
        elif op.check == "trapped_values":
            ref["values"] = sweep_values(res.dir / "sweep.csv")
        elif op.check == "timedomain":
            self.timedomain[key] = np.asarray(res.value.branch_intensity,
                                              dtype=np.float32)
        self.data[key] = ref

    def save(self):
        REFS_DIR.mkdir(exist_ok=True)
        REFS_JSON.write_text(json.dumps(self.data, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
        np.savez_compressed(REFS_TIMEDOMAIN, **self.timedomain)

