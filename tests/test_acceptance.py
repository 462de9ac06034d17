"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with the measured value next to its threshold."""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CHILD_ENV, random_admissible_system
from darkstate import (
    D2System,
    DriveField,
    conservation_check,
    count_spectral_lines,
    d1_fields,
    d1_system,
    find_peaks,
    laplace_solve_oracle,
    preset,
    preset_names,
    propagate,
    spectrum_analytic,
    steady_state_amplitudes,
    trapped_fraction,
)
from darkstate.dynamics import branch_amplitude_numeric
from darkstate.spectrum import (_drive_constants, _poly_scale, _polyval,
                                _quartic, _root_clusters, branch_numerator_s)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_closed_forms_match_linear_solve():
    rng = np.random.default_rng(101)
    deltas = np.linspace(-20.0, 20.0, 101) + 0.0137
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = random_admissible_system(rng)
        closed = steady_state_amplitudes(s, deltas)
        solved = laplace_solve_oracle(s, deltas)
        for c, v in zip(closed, solved):
            rel = np.max(np.abs(c - v) / np.maximum(np.abs(v), 1e-12))
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    report(1, "oracle algebra",
           worst < 1e-10 and elapsed < 10.0,
           f"max rel err {worst:.2e} < 1e-10 over 100 systems x 101 points, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_02_time_domain_matches_laplace():
    s = preset("fig2-notrapping").system
    deltas = np.linspace(-30.0, 30.0, 101)
    t0 = time.perf_counter()
    traj = propagate(s, 60.0)
    worst = 0.0
    analytic = steady_state_amplitudes(s, deltas)
    for branch, sign in zip((1, 2, 3), (1, 0, -1)):
        numeric = branch_amplitude_numeric(traj, branch,
                                           deltas + sign * s.omega12)
        scale = np.max(np.abs(analytic[branch - 1]))
        rel = np.max(np.abs(numeric - analytic[branch - 1])) / scale
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    report(2, "dynamics vs Laplace",
           worst < 1e-4 and elapsed < 60.0,
           f"max rel amplitude err {worst:.2e} < 1e-4 on 101-point grid, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_03_fgc_cancellation():
    trap = preset("fig2-trapping").system
    notrap = preset("fig2-notrapping").system
    grid = np.linspace(-30.0, 30.0, 6001)
    numerator = float(np.max(np.abs(branch_numerator_s(trap, 2,
                                                       -1j * grid))))
    spec_trap = spectrum_analytic(trap, grid)
    spec_notrap = spectrum_analytic(notrap, grid)
    central = float(np.max(spec_trap.branch_intensity[1]))
    lines_trap = count_spectral_lines(spec_trap)
    lines_notrap = count_spectral_lines(spec_notrap)
    ok = (numerator < 1e-12 and central < 1e-20
          and lines_notrap == 12 and lines_trap == 8)
    report(3, "FGC cancellation", ok,
           f"central numerator max {numerator:.2e} < 1e-12, branch-2 "
           f"intensity max {central:.2e} < 1e-20, dressed line count "
           f"{lines_notrap} -> {lines_trap} (expected 12 -> 8; visible "
           f"maxima {len(find_peaks(spec_notrap).peaks)} -> "
           f"{len(find_peaks(spec_trap).peaks)} due to symmetry-cancelled "
           f"residues and line overlap)")


def test_criterion_04_sgc_infeasibility():
    rng = np.random.default_rng(104)
    counterexamples = 0
    tested = 0
    for _ in range(1000):
        s = random_admissible_system(rng)
        o1, o2, o3, o4 = np.abs(s.rabi)
        if o2 * o4 == 0.0 and o1 * o3 == 0.0:
            continue
        tested += 1
        # the real part of the quartic's constant term is bounded below by
        # g1 g2 |O4|^2 + g2 g3 |O1|^2 + (|O2 O4| - |O1 O3|)^2, g = Gamma/2
        g1, g2, g3 = (g / 2.0 for g in s.gamma)
        bound = (g1 * g2 * o4 ** 2 + g2 * g3 * o1 ** 2
                 + (o2 * o4 - o1 * o3) ** 2)
        c0 = _quartic(_drive_constants(s))[4]
        if c0 <= 0.0 or c0 < bound - 1e-9:
            counterexamples += 1
    report(4, "SGC infeasibility", counterexamples == 0,
           f"{counterexamples} counterexamples (constant term <= 0 or below "
           f"its lower bound) in {tested} random systems "
           f"with nonzero drive products")


def test_criterion_05_d1_darkening():
    s = preset("d1-trapping").system
    grid = np.linspace(-25.0, 25.0, 5001)
    dark_max = float(np.max(spectrum_analytic(s, grid).total))
    trapped = trapped_fraction(s, require_plateau=False)
    optical1, *rest = d1_fields(s)
    broken = d1_system(1.0, DriveField(optical1.magnitude * 1.01,
                                       optical1.phase), *rest)
    broken_max = float(np.max(spectrum_analytic(broken, grid).total))
    broken_trapped = trapped_fraction(broken, t_final=200.0,
                                      require_plateau=False)
    ok = (dark_max < 1e-20 and abs(trapped - 1.0) < 1e-6
          and broken_trapped < 1.0 - 1e-3 and broken_max > 1e-3)
    report(5, "single-loss darkening", ok,
           f"spectrum max {dark_max:.2e} (dark), trapped {trapped:.8f} "
           f"= 1 +- 1e-6; 1% magnitude break: trapped {broken_trapped:.4f} "
           f"< 1, spectrum max {broken_max:.2e} > 0")


def test_criterion_06_conservation():
    rng = np.random.default_rng(106)
    worst = {13.0: 0.0, 25.0: 0.0, 50.0: 0.0}
    monotone = True
    for _ in range(10):
        gamma = tuple(rng.uniform(0.5, 1.5, 3))
        mags = rng.uniform(0.5, 2.0, 4)
        phases = rng.uniform(0.0, 2.0 * math.pi, 2)
        defects = []
        for w in (13.0, 25.0, 50.0):
            s = D2System(gamma=gamma, omega12=w, omega23=w,
                         drives=(DriveField(mags[0], 0),
                                 DriveField(mags[1], phases[0]),
                                 DriveField(mags[2], phases[1]),
                                 DriveField(mags[3], 0)))
            d = conservation_check(s).defect
            worst[w] = max(worst[w], d)
            defects.append(d)
        monotone &= defects[0] > defects[1] > defects[2]
    ok = worst[13.0] < 0.05 and worst[50.0] < 0.02 and monotone
    report(6, "conservation", ok,
           f"max defect {worst[13.0]:.2e} < 0.05 at splitting 13, "
           f"{worst[50.0]:.2e} < 0.02 at 50, strictly decreasing across "
           f"13/25/50 on all 10 configurations: {monotone}")


def test_criterion_07_limiting_cases():
    grid = np.linspace(-30.0, 30.0, 6001)
    pa2 = find_peaks(spectrum_analytic(preset("two-level").system, grid))
    fwhm_ok = len(pa2.peaks) == 1 and abs(pa2.peaks[0].fwhm - 1.0) <= 0.02
    pat = find_peaks(spectrum_analytic(
        preset("autler-townes-doublet").system, grid))
    split = pat.peaks[-1].location - pat.peaks[0].location if len(pat.peaks) == 2 else 0.0
    split_ok = abs(split - 10.0) <= 0.2
    residual_ok = True
    worst_res = 0.0
    for name in preset_names():
        q = _quartic(_drive_constants(preset(name).system))
        [(clusters, _)] = _root_clusters([q])
        # each cluster's root, as the spectrum's poles take it
        roots = np.array([sum(c) / len(c) for c in clusters])
        res = np.abs(_polyval(q, roots)) / np.maximum(
            _poly_scale(q, roots), 1e-300)
        worst_res = max(worst_res, float(np.max(res)))
    residual_ok = worst_res < 1e-9
    report(7, "limiting cases", fwhm_ok and split_ok and residual_ok,
           f"Lorentzian FWHM {pa2.peaks[0].fwhm:.4f} = 1 +- 2%, doublet "
           f"splitting {split:.3f} = 10 +- 2%, worst root residual "
           f"{worst_res:.2e} < 1e-9 across all presets")


def test_criterion_08_gauge_invariance():
    rng = np.random.default_rng(108)
    grid = np.linspace(-30.0, 30.0, 501)
    worst = 0.0
    for _ in range(20):
        s = random_admissible_system(rng)
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        drives = list(s.drives)
        drives[1] = DriveField(drives[1].magnitude, drives[1].phase + alpha)
        drives[2] = DriveField(drives[2].magnitude, drives[2].phase - alpha)
        a = spectrum_analytic(s, grid).total
        b = spectrum_analytic(s.with_drives(drives), grid).total
        scale = float(np.max(a)) + 1e-300
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    report(8, "gauge invariance", worst < 1e-10,
           f"max rel spectrum change {worst:.2e} < 1e-10 over 20 random "
           f"(system, alpha) pairs")


def test_criterion_09_reproduction_report(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "reproduction_report.py"
    out = tmp_path / "reproduction.json"
    proc = subprocess.run([sys.executable, str(script), "--out", str(out)],
                          capture_output=True, text=True, env=CHILD_ENV)
    data = json.loads(out.read_text()) if out.exists() else None
    ok = proc.returncode == 0 and data is not None and len(data["entries"]) >= 3
    flagged = [e["quantity"] for e in data["entries"] if e["flagged"]] \
        if data else []
    report(9, "reproduction report", ok,
           f"archived {out.name} with {len(data['entries']) if data else 0} "
           f"entries; flagged (>10pp from quoted figures, non-failing): "
           f"{flagged}")


def test_criterion_10_determinism_and_runtime(tmp_path):
    cfg = tmp_path / "scenario.json"
    from darkstate import save_scenario
    save_scenario(preset("fig2-notrapping").system, cfg)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "darkstate.cli", "spectrum",
             "--config", str(cfg), "--grid=-30:30:2001", "--out", str(out)],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "darkstate.cli",
                           "validate", "all"], capture_output=True, text=True,
                          env=CHILD_ENV)
    elapsed = time.perf_counter() - t0
    ok = identical and proc.returncode == 0 and elapsed < 300.0
    report(10, "determinism & runtime", ok,
           f"repeated spectrum runs byte-identical: {identical}; "
           f"validate all exit {proc.returncode} in {elapsed:.0f}s < 300s")
