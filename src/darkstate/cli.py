"""Command-line front end: spectrum, trapping, sweep and validate commands
with CSV/JSON results, SVG line plots and a run manifest next to every
output."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_GRID,
    compare_spectra,
    count_spectral_lines,
    d1_grid,
    default_grid,
    find_peaks,
    spectral_areas,
)
from .dynamics import spectrum_time_domain, trapped_fraction
from .errors import (DarkstateError, DivisionByZeroDrive, GridTooCoarse,
                     UnknownPreset)
from .model import (
    D1System,
    D2System,
    DriveField,
    d1_to_chain,
    load_scenario,
    preset,
    preset_names,
    scenario_to_dict,
    save_scenario,
    validate_d1_system,
    validate_system,
    write_json,
)
from .spectrum import (
    laplace_solve_oracle,
    spectrum_analytic,
    steady_state_amplitudes,
)
from .trapping import d1_trapping_check, fgc_check, fgc_solve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSOLVABLE = 4

#: fixed scientific float formatting: 17 significant digits
FLOAT_FMT = "%.16e"

SPECTRUM_CSV_HEADER = "delta,branch1,branch2,branch3,total"

#: rows per formatted block of write_csv
CSV_BLOCK_ROWS = 1024

#: --grid default of spectrum and sweep, as a min:max:count spec
DEFAULT_GRID_SPEC = ":".join(map(str, DEFAULT_GRID))


class _InputError(Exception):
    pass


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    scenario: str | None
    parameters: dict
    version: str
    wall_time_s: float
    outputs: list = field(default_factory=list)
    #: per-run integrator diagnostics, where the command integrates
    integrator: list | None = None

    def write(self, anchor: Path):
        path = Path(str(anchor) + ".manifest.json")
        data = {
            "command": self.command,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "outputs": [str(p) for p in self.outputs],
        }
        if self.integrator is not None:
            data["integrator"] = self.integrator
        write_json(path, data)
        return path


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise _InputError(f"grid spec must be min:max:count, got {spec!r}")
    if n < 2:
        raise _InputError("grid count must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _InputError(f"grid bounds must be finite, got {spec!r}")
    if not hi > lo:
        raise _InputError("grid max must exceed min")
    return np.linspace(lo, hi, n)


def _check_system(system, context):
    """Raise _InputError listing every invariant the system violates."""
    validate = validate_d1_system if isinstance(system, D1System) \
        else validate_system
    errors = validate(system).errors
    if errors:
        raise _InputError(context + "; ".join(str(e) for e in errors))


def _load_system(args):
    if getattr(args, "preset", None):
        system, source = preset(args.preset).system, f"preset:{args.preset}"
    elif not args.config:
        raise _InputError("provide --config <path> or --preset <name>")
    else:
        try:
            system, source = load_scenario(args.config), str(args.config)
        except FileNotFoundError:
            raise _InputError(f"scenario file not found: {args.config}")
        except OSError as exc:
            raise _InputError(f"cannot read scenario file {args.config}: "
                              f"{exc.strerror}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise _InputError(f"bad scenario file {args.config}: {exc}")
    _check_system(system, f"invalid scenario {source}: ")
    return system, source


def _check_outputs(*paths):
    """Raise _InputError unless every given output path (None is skipped)
    can be created: its directory exists and the path is no directory.
    Commands call this before any work, so a bad path writes nothing."""
    for path in filter(None, paths):
        path = Path(path)
        if path.is_dir():
            raise _InputError(f"cannot write output: {path} is a directory")
        if not path.parent.is_dir():
            raise _InputError(f"cannot write output: no directory "
                              f"{path.parent} for {path}")


def _use_color() -> bool:
    return "NO_COLOR" not in os.environ and sys.stdout.isatty()


def _tag(ok: bool) -> str:
    label = "PASS" if ok else "FAIL"
    if _use_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{label}\x1b[0m"
    return label


def write_csv(path, header, columns):
    """Write the header lines, then one row of comma-separated FLOAT_FMT
    values per index of the equal-length columns: the bytes of np.savetxt
    with that format, formatted CSV_BLOCK_ROWS rows per % operation."""
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_csv_spectrum(path: Path, spec, sys_dict, method):
    write_csv(path, [
        f"# darkstate {__version__} spectrum method={method}",
        "# scenario: " + json.dumps(sys_dict, sort_keys=True),
        SPECTRUM_CSV_HEADER,
    ], [spec.grid, *spec.branch_intensity, spec.total])


def _pole_tables(spec):
    tables = []
    for terms in spec.branch_poles:
        tables.append([
            {
                "pole": [float(t.pole.real), float(t.pole.imag)],
                "residue": [float(t.residue.real), float(t.residue.imag)],
                "order": int(t.order),
                "trapped": bool(t.trapped),
            }
            for t in terms
        ])
    return tables


def _write_json_spectrum(path: Path, spec, sys_dict, method):
    write_json(path, {
        "scenario": sys_dict,
        "method": method,
        "delta": np.asarray(spec.grid),
        "branch_intensity": np.asarray(spec.branch_intensity),
        "total": np.asarray(spec.total),
        "poles": _pole_tables(spec),
    })


# ---------------------------------------------------------------------------
# SVG line plot (self-contained, no renderer dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#000000")


def svg_line_plot(path, x, curves, title="", xlabel="delta (rate units)",
                  ylabel="intensity (1/rate)"):
    """Write a minimal SVG line plot: axes, ticks, one polyline per curve,
    legend.  curves is a sequence of (label, y-array), each as long as x.

    Plot coordinates are computed a whole array at a time and each
    polyline is formatted with one % operation.  Raises ValueError on a
    non-finite x or y; a zero x or y span is widened to 1."""
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 60.0, 20.0, 30.0, 45.0
    pw, ph = width - ml - mr, height - mt - mb
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in curves]
    if not all(np.isfinite(v).all() for v in (x, *ys)):
        raise ValueError("svg_line_plot needs finite x and y values")
    x0, x1 = float(x.min()), float(x.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    y0 = 0.0
    y1 = max(float(y.max()) for y in ys) if ys else 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    sx = lambda v: ml + (v - x0) / (x1 - x0) * pw
    sy = lambda v: mt + ph - (v - y0) / (y1 - y0) * ph
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{pw:g}" height="{ph:g}" '
        'fill="none" stroke="black"/>',
    ]
    xticks = np.linspace(x0, x1, 7)
    for tick, px in zip(xticks, sx(xticks)):
        parts.append(f'<line x1="{px:.2f}" y1="{mt + ph:.2f}" '
                     f'x2="{px:.2f}" y2="{mt + ph + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{mt + ph + 18:.2f}" '
                     'font-size="11" text-anchor="middle">'
                     f'{tick:.3g}</text>')
    yticks = np.linspace(y0, y1, 6)
    for tick, py in zip(yticks, sy(yticks)):
        parts.append(f'<line x1="{ml - 5:.2f}" y1="{py:.2f}" '
                     f'x2="{ml:.2f}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8:.2f}" y="{py + 4:.2f}" '
                     'font-size="11" text-anchor="end">'
                     f'{tick:.3g}</text>')
    points = np.empty((len(x), 2))
    points[:, 0] = sx(x)
    points_fmt = " ".join(["%.2f,%.2f"] * len(x))
    for i, (label, y) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points[:, 1] = sy(ys[i])
        pts = points_fmt % tuple(points.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
        ly = mt + 14 + 14 * i
        parts.append(f'<line x1="{ml + pw - 120:.2f}" y1="{ly - 4:.2f}" '
                     f'x2="{ml + pw - 100:.2f}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 95:.2f}" y="{ly:.2f}" '
                     f'font-size="11">{label}</text>')
    if title:
        parts.append(f'<text x="{width / 2:.2f}" y="20" font-size="13" '
                     f'text-anchor="middle">{title}</text>')
    parts.append(f'<text x="{ml + pw / 2:.2f}" y="{height - 8:.2f}" '
                 f'font-size="12" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 14 {mt + ph / 2:.2f})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        print(*parts, sep="\n", file=fh)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _compute_spectrum(system, grid, method, tol):
    if isinstance(system, D1System):
        system = d1_to_chain(system)
    if method == "analytic":
        return spectrum_analytic(system, grid), None
    if method == "timedomain":
        return spectrum_time_domain(system, grid, tol=tol), None
    return (spectrum_analytic(system, grid),
            spectrum_time_domain(system, grid, tol=tol))


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    _check_outputs(args.out, args.svg)
    system, source = _load_system(args)
    grid = _parse_grid(args.grid)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _InputError(f"--tol must be positive and finite, got {args.tol}")
    spec, oracle = _compute_spectrum(system, grid, args.method, args.tol)
    sys_dict = scenario_to_dict(system)
    out = Path(args.out)
    outputs = [out]
    if args.format == "csv":
        _write_csv_spectrum(out, spec, sys_dict, args.method)
    else:
        _write_json_spectrum(out, spec, sys_dict, args.method)
    if oracle is not None:
        metrics = compare_spectra(spec, oracle)
        print(f"analytic vs timedomain: max_rel_err={metrics['max_rel_err']:.3e} "
              f"rms_err={metrics['rms_err']:.3e}")
    if args.svg:
        curves = [(f"branch {n + 1}", spec.branch_intensity[n]) for n in range(3)]
        curves.append(("total", spec.total))
        svg_line_plot(args.svg, grid, curves, title="emission spectrum")
        outputs.append(Path(args.svg))
    if float(np.max(spec.total)) <= 1e-30:
        if isinstance(system, D1System) and d1_trapping_check(system).satisfied:
            print("note: trapping condition satisfied (dark atom)")
        elif isinstance(system, D2System) and \
                np.allclose(system.initial_vector(), [0, 0, 0, 1]) and \
                all(d.magnitude == 0.0 for d in system.drives):
            print("warning: no emission: atom never excited")
        else:
            print("note: spectrum is identically zero")
    manifest = RunManifest(command="spectrum", scenario=source,
                           parameters=sys_dict, version=__version__,
                           wall_time_s=time.perf_counter() - t0,
                           outputs=outputs)
    outputs.append(manifest.write(out))
    return EXIT_OK


def _report_to_dict(rep) -> dict:
    return {
        "delta_coefficient_residual": [rep.delta_coefficient_residual.real,
                                       rep.delta_coefficient_residual.imag],
        "constant_residual": [complex(rep.constant_residual).real,
                              complex(rep.constant_residual).imag],
        "magnitude_condition": rep.magnitude_condition,
        "phase_condition": rep.phase_condition,
        "gamma_condition": rep.gamma_condition,
        "satisfied": rep.satisfied,
    }


def cmd_trapping(args) -> int:
    t0 = time.perf_counter()
    _check_outputs(args.out)
    system, source = _load_system(args)
    if isinstance(system, D1System):
        rep = d1_trapping_check(system)
    else:
        rep = fgc_check(system)
    data = _report_to_dict(rep)
    outputs = []
    if args.solve:
        if isinstance(system, D1System):
            print("error: --solve supports only the chain (d2) system",
                  file=sys.stderr)
            return EXIT_UNSOLVABLE
        g1, _, g3 = system.gamma
        if abs(g1 - g3) > 1e-9:
            print(f"error: cannot solve: Gamma1={g1} != Gamma3={g3}",
                  file=sys.stderr)
            return EXIT_UNSOLVABLE
        d1_, d2_, d3_, _ = system.drives
        try:
            drives = fgc_solve(d1_.magnitude, d2_.magnitude, d3_.magnitude,
                               d2_.phase)
        except DivisionByZeroDrive as exc:
            print(f"error: cannot solve: {exc}", file=sys.stderr)
            return EXIT_UNSOLVABLE
        data["solved_fields"] = [{"mag": d.magnitude, "phase": d.phase}
                                 for d in drives]
        if args.out:
            out = Path(args.out)
            save_scenario(system.with_drives(drives), out)
            outputs.append(out)
            data["solved_scenario"] = str(out)
    print(json.dumps(data, indent=2, sort_keys=True))
    if args.out:
        manifest = RunManifest(command="trapping", scenario=source,
                               parameters=scenario_to_dict(system),
                               version=__version__,
                               wall_time_s=time.perf_counter() - t0,
                               outputs=outputs)
        manifest.write(Path(args.out))
    return EXIT_OK


_SWEEP_PARAMS = {
    "phase2": ("drive", 1, "phase"),
    "phase3": ("drive", 2, "phase"),
    "mag1": ("drive", 0, "magnitude"),
    "mag2": ("drive", 1, "magnitude"),
    "mag3": ("drive", 2, "magnitude"),
    "mag4": ("drive", 3, "magnitude"),
    "gamma1": ("gamma", 0, None),
    "gamma2": ("gamma", 1, None),
    "gamma3": ("gamma", 2, None),
}

# total_area is invariant under drive phases (the population is emitted in
# full either way); central_area exposes the branch the trapping condition
# darkens
_SWEEP_METRICS = ("trapped_fraction", "total_area", "central_area",
                  "peak_count")


def _apply_sweep_value(system: D2System, param: str, value: float) -> D2System:
    kind, idx, attr = _SWEEP_PARAMS[param]
    if kind == "gamma":
        gamma = list(system.gamma)
        gamma[idx] = value
        return replace(system, gamma=tuple(gamma))
    drives = list(system.drives)
    d = drives[idx]
    if attr == "phase":
        drives[idx] = DriveField(d.magnitude, value)
    else:
        try:
            drives[idx] = DriveField(value, d.phase)
        except ValueError as exc:
            raise _InputError(f"{param} = {value:g}: {exc}")
    return system.with_drives(drives)


def _sweep_metric(system: D2System, metric: str, grid) -> float:
    spec = spectrum_analytic(system, grid)
    if metric == "peak_count":
        return float(len(find_peaks(spec).peaks))
    total_area, branch_areas = spectral_areas(spec)
    return total_area if metric == "total_area" else branch_areas[1]


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    _check_outputs(args.out)
    system, source = _load_system(args)
    if isinstance(system, D1System):
        raise _InputError("sweep operates on the chain (d2) system")
    if args.vary not in _SWEEP_PARAMS:
        raise _InputError(
            f"unknown sweep parameter {args.vary!r}; "
            f"choose from {', '.join(sorted(_SWEEP_PARAMS))}")
    values = _parse_grid(args.range)
    grid = _parse_grid(args.grid)
    systems = [_apply_sweep_value(system, args.vary, v) for v in values]
    for v, s in zip(values, systems):
        _check_system(s, f"{args.vary} = {v:g}: ")
    integrator = None
    if args.metric == "trapped_fraction":
        # one lockstep batch; each value is that of its system alone
        runs = []
        results = trapped_fraction(systems, require_plateau=False, runs=runs)
        integrator = [{"value": float(v), **run}
                      for v, run in zip(values, runs)]
    else:
        results = [_sweep_metric(s, args.metric, grid) for s in systems]
    out = Path(args.out)
    write_csv(out, [
        f"# darkstate {__version__} sweep vary={args.vary} metric={args.metric}",
        "# scenario: " + json.dumps(scenario_to_dict(system), sort_keys=True),
        f"value,{args.metric}",
    ], [values, results])
    manifest = RunManifest(command="sweep", scenario=source,
                           parameters=scenario_to_dict(system),
                           version=__version__,
                           wall_time_s=time.perf_counter() - t0,
                           outputs=[out], integrator=integrator)
    manifest.write(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _signature_checks(name: str, system, signature: dict):
    """Yield (check name, ok, detail) per expected-signature entry."""
    checks = []
    if isinstance(system, D1System):
        chain, grid = d1_to_chain(system), d1_grid()
    else:
        chain, grid = system, default_grid()
    spec = spectrum_analytic(chain, grid)
    pa = find_peaks(spec)
    zero = float(np.max(spec.total)) <= 1e-20

    for key, want in signature.items():
        if key == "peaks":
            got = 0 if zero else len(pa.peaks)
            checks.append((f"peaks == {want}", got == want, f"got {got}"))
        elif key == "lines":
            got = count_spectral_lines(spec)
            checks.append((f"lines == {want}", got == want, f"got {got}"))
        elif key == "fwhm":
            val, rtol = want
            got = pa.peaks[0].fwhm if pa.peaks else math.nan
            ok = pa.peaks and abs(got - val) <= rtol * val
            checks.append((f"fwhm == {val} +- {rtol:.0%}", bool(ok),
                           f"got {got:.4f}"))
        elif key == "center":
            got = pa.peaks[0].location if pa.peaks else math.nan
            ok = pa.peaks and abs(got - want) <= 0.05
            checks.append((f"center == {want}", bool(ok), f"got {got:.3f}"))
        elif key == "splitting":
            val, rtol = want
            ok = len(pa.peaks) >= 2
            got = (pa.peaks[-1].location - pa.peaks[0].location) if ok else math.nan
            ok = ok and abs(got - val) <= rtol * val
            checks.append((f"splitting == {val} +- {rtol:.0%}", bool(ok),
                           f"got {got:.4f}"))
        elif key == "symmetric":
            locs = np.array([p.location for p in pa.peaks])
            ok = len(locs) > 0 and np.allclose(np.sort(locs), np.sort(-locs),
                                               atol=0.05)
            checks.append(("symmetric peak locations", bool(ok),
                           f"locs {np.round(locs, 2).tolist()}"))
        elif key == "trapping":
            rep = fgc_check(chain, tol=1e-9)
            checks.append((f"trapping == {want}", rep.satisfied == want,
                           f"satisfied={rep.satisfied}"))
        elif key == "dark_branch":
            peak = float(np.max(spec.total))
            dark = float(np.max(spec.branch_intensity[want - 1]))
            ok = dark <= 1e-18 * max(peak, 1e-300)
            checks.append((f"branch {want} dark", ok, f"max {dark:.2e}"))
        elif key == "d1_trapping":
            rep = d1_trapping_check(system)
            checks.append((f"d1 trapping == {want}", rep.satisfied == want,
                           f"satisfied={rep.satisfied}"))
        elif key == "zero_spectrum":
            checks.append(("spectrum identically zero", zero,
                           f"max {float(np.max(spec.total)):.2e}"))
        elif key == "trapped":
            got = trapped_fraction(chain, require_plateau=False)
            ok = abs(got - want) <= 1e-6
            checks.append((f"trapped fraction == {want}", ok, f"got {got:.8f}"))
        elif key == "narrow":
            got = min((p.fwhm for p in pa.peaks), default=math.inf)
            checks.append((f"narrowest fwhm < {want}", got < want,
                           f"got {got:.3f}"))
        else:
            checks.append((f"unknown signature key {key}", False, ""))

    # oracle comparison: cofactor closed forms vs direct linear solve; the
    # grid is offset off any exact pole, and errors are measured against the
    # per-branch amplitude scale (a dark branch is pure roundoff in both)
    deltas = np.linspace(-20.0, 20.0, 101) + 0.0137
    closed = steady_state_amplitudes(chain, deltas)
    solved = laplace_solve_oracle(chain, deltas)
    overall = max(float(np.max(np.abs(s))) for s in solved)
    err = 0.0
    for c, s in zip(closed, solved):
        scale = float(np.max(np.abs(s)))
        if scale < 1e-12 * overall:
            # branch dark to machine precision in both methods: compare
            # absolutely against the overall amplitude scale
            scale = overall
        err = max(err, float(np.max(np.abs(c - s))) / max(scale, 1e-300))
    checks.append(("closed form vs linear solve < 1e-8", err < 1e-8,
                   f"max rel err {err:.2e}"))
    return checks


def cmd_validate(args) -> int:
    names = preset_names() if args.preset == "all" else [args.preset]
    try:
        presets = [preset(name) for name in names]
    except UnknownPreset as exc:
        raise _InputError(str(exc))
    failures = 0
    for name, p in zip(names, presets):
        for check, ok, detail in _signature_checks(name, p.system,
                                                   p.expected_signature):
            print(f"{_tag(ok)}  {name}: {check} ({detail})")
            if not ok:
                failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkstate",
        description="Emission spectra and dark-state trapping for driven "
                    "loop-coupled emitters.")
    parser.add_argument("--version", action="version",
                        version=f"darkstate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--preset", choices=preset_names(),
                       help="use a registered preset instead of --config")
        p.add_argument("--out", default=out_default, help="output file")

    sp = sub.add_parser("spectrum", help="compute an emission spectrum")
    common(sp, "spectrum.csv")
    sp.add_argument("--grid", default=DEFAULT_GRID_SPEC, help="min:max:count")
    sp.add_argument("--method", choices=("analytic", "timedomain", "both"),
                    default="analytic")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--svg", help="also write an SVG line plot")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="time-domain integrator tolerance")
    sp.set_defaults(func=cmd_spectrum)

    tp = sub.add_parser("trapping", help="evaluate the trapping condition")
    common(tp, None)
    tp.add_argument("--solve", action="store_true",
                    help="complete |Omega4| and phi3 so the condition holds; "
                         "with --out, write the completed scenario there")
    tp.set_defaults(func=cmd_trapping)

    wp = sub.add_parser("sweep", help="sweep one parameter against a metric")
    common(wp, "sweep.csv")
    wp.add_argument("--vary", required=True,
                    help="parameter: phase2, phase3, mag1..mag4, gamma1..gamma3")
    wp.add_argument("--range", required=True, help="min:max:count")
    wp.add_argument("--metric", choices=_SWEEP_METRICS, required=True)
    wp.add_argument("--grid", default=DEFAULT_GRID_SPEC, help="min:max:count")
    wp.set_defaults(func=cmd_sweep)

    vp = sub.add_parser("validate", help="run preset signature checks")
    vp.add_argument("preset", help="preset name or 'all'")
    vp.set_defaults(func=cmd_validate)
    return parser


def _show_warnings():
    """A warnings.showwarning that prints each distinct GridTooCoarse
    message once as a `warning:` line on stderr and passes any other
    warning on."""
    shown = set()
    fallback = warnings.showwarning

    def show(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, GridTooCoarse):
            fallback(message, category, filename, lineno, file, line)
        elif str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)
    return show


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", GridTooCoarse)
        warnings.showwarning = _show_warnings()
        try:
            return args.func(args)
        except _InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except OSError as exc:
            # a failed scenario read is an _InputError from _load_system, so
            # what reaches here is a failed output write
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except DarkstateError as exc:
            op = type(exc).__name__
            print(f"error: numerical failure in {op}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
