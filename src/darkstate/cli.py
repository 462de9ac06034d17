"""Command-line front end: spectrum, trapping, sweep and validate commands
with CSV/JSON results, SVG line plots and a run manifest next to every
output."""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._text import (CSV_BLOCK_ROWS, TEXT_BLOCK, format_e16, format_f2,
                    join_rows)
from .analysis import (
    DARK_BRANCH_RTOL,
    DEFAULT_GRID,
    ZERO_SPECTRUM,
    check_spacing,
    compare_spectra,
    count_spectral_lines,
    d1_grid,
    default_grid,
    find_peaks,
    peak_indices,
    trapezoid,
)
from .dynamics import MAX_TIME_SAMPLES, spectrum_time_domain, trapped_fraction
from .errors import (DarkstateError, DivisionByZeroDrive, GridOverflow,
                     GridTooCoarse, TooManySamples, UnknownPreset)
from .model import (
    D1System,
    D2System,
    DriveField,
    load_scenario,
    preset,
    preset_names,
    scenario_to_dict,
    save_scenario,
    validate_system,
    write_json,
)
from .spectrum import (
    intensity_rows,
    laplace_solve_oracle,
    spectrum_analytic,
    steady_state_amplitudes,
)
from .trapping import (DEFAULT_TOL as TRAPPING_TOL, d1_trapping_check,
                       fgc_check, fgc_solve)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSOLVABLE = 4

SPECTRUM_CSV_HEADER = "delta,branch1,branch2,branch3,total"

#: --grid default of spectrum and sweep, as a min:max:count spec
DEFAULT_GRID_SPEC = ":".join(map(str, DEFAULT_GRID))


class _InputError(Exception):
    pass


class _Unsolvable(Exception):
    """A `trapping --solve` request whose drives cannot be completed."""


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs: the
    values that differ between runs, from which `write` derives the rest."""

    command: str
    scenario: str
    #: the scenario as its file's dict
    parameters: dict
    #: perf_counter readings at the start and at the end of loading,
    #: computing and writing
    marks: tuple
    outputs: list
    #: per-run integrator diagnostics, where the command integrates
    integrator: list | None = None

    def write(self, anchor: Path):
        """Write the manifest next to anchor, with the package version, the
        wall and per-stage seconds of marks, the python and numpy versions
        and the SHA-256 of json.dumps(parameters, sort_keys=True), the
        canonical scenario JSON; integrator is omitted when unset."""
        import hashlib  # here, so that importing the CLI does not load it
        path = Path(str(anchor) + ".manifest.json")
        canonical = json.dumps(self.parameters, sort_keys=True).encode()
        data = {
            "command": self.command,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "version": __version__,
            "wall_time_s": self.marks[-1] - self.marks[0],
            "stage_s": {stage: end - start for stage, start, end in zip(
                ("load", "compute", "write"), self.marks, self.marks[1:])},
            "outputs": [str(p) for p in self.outputs],
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scenario_sha256": hashlib.sha256(canonical).hexdigest(),
        }
        if self.integrator is not None:
            data["integrator"] = self.integrator
        write_json(path, data)
        return path


def _json_fields(obj) -> dict:
    """The fields of the dataclass obj as JSON values, a complex one as
    [re, im]."""
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        data[f.name] = ([value.real, value.imag] if isinstance(value, complex)
                        else value)
    return data


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _parse_grid(spec: str, option: str = "--grid") -> np.ndarray:
    """The inclusive grid of a min:max:count spec; an error names option."""
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise _InputError(f"{option} must be min:max:count, got {spec!r}")
    if n < 2:
        raise _InputError(f"{option} count must be >= 2, got {spec!r}")
    if n > MAX_TIME_SAMPLES:
        raise _InputError(f"{option} count must be <= {MAX_TIME_SAMPLES:.0e}, "
                          f"got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _InputError(f"{option} bounds must be finite, got {spec!r}")
    if not hi > lo:
        raise _InputError(f"{option} max must exceed min, got {spec!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, n)
    if not np.isfinite(grid).all():
        raise _InputError(f"{option} max - min overflows, got {spec!r}")
    return grid


def _check_system(system, context):
    """Raise _InputError listing every invariant the system violates."""
    errors = validate_system(system)
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
    """Write the header lines, then one row of comma-separated '%.16e'
    (_text.FLOAT_FMT) values per index of the equal-length real columns:
    the bytes of np.savetxt with that format, formatted CSV_BLOCK_ROWS rows
    at a time by _text.format_e16.  A complex or non-numeric column raises
    TypeError."""
    table = np.column_stack(columns)
    if table.dtype.kind not in "biuf":
        raise TypeError(f"write_csv needs real columns, got {table.dtype}")
    table = table.astype(np.float64, copy=False)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            fh.write(format_e16(table[start:start + CSV_BLOCK_ROWS]))


def _write_csv_spectrum(path: Path, spec, sys_dict, method):
    write_csv(path, [
        f"# darkstate {__version__} spectrum method={method}",
        "# scenario: " + json.dumps(sys_dict, sort_keys=True),
        SPECTRUM_CSV_HEADER,
    ], [spec.grid, *spec.branch_intensity, spec.total])


def _write_json_spectrum(path: Path, spec, sys_dict, method):
    write_json(path, {
        "scenario": sys_dict,
        "method": method,
        "delta": np.asarray(spec.grid),
        "branch_intensity": np.asarray(spec.branch_intensity),
        "total": np.asarray(spec.total),
        "poles": [[_json_fields(t) for t in terms]
                  for terms in spec.branch_poles],
    })


# ---------------------------------------------------------------------------
# SVG line plot (self-contained, no renderer dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#000000")


def svg_line_plot(path, x, curves, title=""):
    """Write a minimal SVG line plot: axes, ticks, one polyline per curve,
    legend.  curves is a sequence of (label, y-array), each as long as x.

    Plot coordinates are computed a whole array at a time and formatted
    as '%.2f' does by _text.format_f2, TEXT_BLOCK points at a time, the x
    coordinates once for all curves; a point it cannot format is
    formatted by %.  Raises ValueError on a non-finite x or y; a zero x or
    y span is widened to 1."""
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
    x_plot = sx(x)
    x_text = np.empty((len(x), 12), np.uint8)
    x_ok = np.empty(len(x), bool)
    for start in range(0, len(x), TEXT_BLOCK):
        block = slice(start, start + TEXT_BLOCK)
        x_text[block], x_ok[block] = format_f2(x_plot[block])
    # one row per point: x text, ',', y text, ' '
    rows = np.empty((min(len(x), TEXT_BLOCK), 26), np.uint8)
    rows[:, 12] = ord(",")
    rows[:, 25] = ord(" ")
    for i, (label, y) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        y_plot = sy(ys[i])
        pieces = []
        for start in range(0, len(x), TEXT_BLOCK):
            block = slice(start, start + TEXT_BLOCK)
            y_text, y_ok = format_f2(y_plot[block])
            text = rows[:len(y_text)]
            text[:, :12] = x_text[block]
            text[:, 13:25] = y_text
            pieces.append(join_rows(
                text, ~(x_ok[block] & y_ok),
                lambda k: ("%.2f,%.2f " % (x_plot[start + k],
                                           y_plot[start + k])).encode()))
        pts = b"".join(pieces)[:-1].decode()
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
                 'font-size="12" text-anchor="middle">'
                 'delta (rate units)</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 14 {mt + ph / 2:.2f})">'
                 'intensity (1/rate)</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        print(*parts, sep="\n", file=fh)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _compute_spectrum(system, grid, method, runs):
    """The spectrum and, for --method both, the time-domain oracle; runs
    receives the integrator diagnostics of a time-domain spectrum."""
    if method == "analytic":
        return spectrum_analytic(system, grid), None
    if method == "timedomain":
        return spectrum_time_domain(system, grid, runs=runs), None
    return (spectrum_analytic(system, grid),
            spectrum_time_domain(system, grid, runs=runs))


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    _check_outputs(args.out, args.svg)
    system, source = _load_system(args)
    grid = _parse_grid(args.grid)
    t_load = time.perf_counter()
    runs = None if args.method == "analytic" else []
    spec, oracle = _compute_spectrum(system, grid, args.method, runs)
    metrics = None if oracle is None else compare_spectra(spec, oracle)
    t_compute = time.perf_counter()
    sys_dict = scenario_to_dict(system)
    out = Path(args.out)
    outputs = [out]
    if args.format == "csv":
        _write_csv_spectrum(out, spec, sys_dict, args.method)
    else:
        _write_json_spectrum(out, spec, sys_dict, args.method)
    if metrics is not None:
        print(f"analytic vs timedomain: max_rel_err={metrics['max_rel_err']:.3e} "
              f"rms_err={metrics['rms_err']:.3e}")
    if args.svg:
        curves = [(f"branch {n + 1}", spec.branch_intensity[n]) for n in range(3)]
        curves.append(("total", spec.total))
        svg_line_plot(args.svg, grid, curves, title="emission spectrum")
        outputs.append(Path(args.svg))
    if float(np.max(spec.total)) <= ZERO_SPECTRUM:
        d1 = isinstance(system, D1System)
        if d1 and d1_trapping_check(system).satisfied:
            print("note: trapping condition satisfied (dark atom)")
        elif not d1 and np.allclose(system.initial_vector(), [0, 0, 0, 1]) \
                and all(d.magnitude == 0.0 for d in system.drives):
            print("warning: no emission: atom never excited")
        else:
            print("note: spectrum is identically zero")
    marks = (t0, t_load, t_compute, time.perf_counter())
    RunManifest("spectrum", source, sys_dict, marks, outputs, runs).write(out)
    return EXIT_OK


def cmd_trapping(args) -> int:
    t0 = time.perf_counter()
    _check_outputs(args.out)
    system, source = _load_system(args)
    t_load = time.perf_counter()
    if isinstance(system, D1System):
        rep = d1_trapping_check(system)
    else:
        rep = fgc_check(system)
    data = _json_fields(rep)
    drives = None
    if args.solve:
        if isinstance(system, D1System):
            raise _Unsolvable("--solve supports only the chain (d2) system")
        g1, _, g3 = system.gamma
        if abs(g1 - g3) > TRAPPING_TOL:
            raise _Unsolvable(f"cannot solve: Gamma1={g1} != Gamma3={g3}")
        d1_, d2_, d3_, _ = system.drives
        try:
            drives = fgc_solve(d1_.magnitude, d2_.magnitude, d3_.magnitude,
                               d2_.phase)
        except DivisionByZeroDrive as exc:
            raise _Unsolvable(f"cannot solve: {exc}") from exc
        data["solved_fields"] = [{"mag": d.magnitude, "phase": d.phase}
                                 for d in drives]
    t_compute = time.perf_counter()
    outputs = []
    if drives is not None and args.out:
        out = Path(args.out)
        save_scenario(system.with_drives(drives), out)
        outputs.append(out)
        data["solved_scenario"] = str(out)
    print(json.dumps(data, indent=2, sort_keys=True))
    if args.out:
        marks = (t0, t_load, t_compute, time.perf_counter())
        RunManifest("trapping", source, scenario_to_dict(system), marks,
                    outputs).write(Path(args.out))
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

# trapped_fraction integrates the amplitude equations.  Each analytic metric
# evaluates only what it reads (`_sweep_metric`): central_area the central
# branch, which the trapping condition darkens; total_area the total's
# integral, the emitted population (near 1 at every drive phase unless some
# is trapped); peak_count the total's prominent maxima
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


def _sweep_metric(systems, metric: str, grid) -> list:
    """The analytic sweep values of systems, each bit for bit that of
    `spectrum_analytic` with `spectral_areas` or `find_peaks`, from only
    what metric reads; one batch (`intensity_rows`) per sweep, and the
    grid spacings of the areas taken once.  grid is a finite float grid,
    as `_parse_grid` gives it."""
    spacings = np.diff(grid)

    def value(grid, rows, lines):
        check_spacing(grid, lines)
        if metric == "central_area":
            return trapezoid(rows[0], spacings)
        total = rows.sum(axis=0)  # the order of spectrum_analytic's total
        if metric == "total_area":
            return trapezoid(total, spacings)
        return float(len(peak_indices(total)))

    branches = (2,) if metric == "central_area" else (1, 2, 3)
    return intensity_rows(systems, grid, branches, value)


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
    values = _parse_grid(args.range, "--range")
    grid = _parse_grid(args.grid)
    systems = [_apply_sweep_value(system, args.vary, v) for v in values]
    for v, s in zip(values, systems):
        _check_system(s, f"{args.vary} = {v:g}: ")
    t_load = time.perf_counter()
    integrator = None
    if args.metric == "trapped_fraction":
        # one lockstep batch; each value is that of its system alone
        runs = []
        results = trapped_fraction(systems, require_plateau=False, runs=runs)
        integrator = [{"value": float(v), **run}
                      for v, run in zip(values, runs)]
    else:
        results = _sweep_metric(systems, args.metric, grid)
    t_compute = time.perf_counter()
    out = Path(args.out)
    sys_dict = scenario_to_dict(system)
    write_csv(out, [
        f"# darkstate {__version__} sweep vary={args.vary} metric={args.metric}",
        "# scenario: " + json.dumps(sys_dict, sort_keys=True),
        f"value,{args.metric}",
    ], [values, results])
    marks = (t0, t_load, t_compute, time.perf_counter())
    RunManifest("sweep", source, sys_dict, marks, [out], integrator).write(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _equals(name, got, want):
    return f"{name} == {want}", got == want, f"got {got}"


def _near(name, got, want, tol, fmt):
    """The check that got is within tol of want; NaN never is."""
    return name, abs(got - want) <= tol, f"got {got:{fmt}}"


def _verdict(name, rep, want):
    return (f"{name} == {want}", rep.satisfied == want,
            f"satisfied={rep.satisfied}")


def _signature_checks(system, signature: dict, trapped):
    """Return (check name, ok, detail) per expected-signature entry of a
    preset system, given, for a `trapped` entry, its trapped fraction."""
    grid = d1_grid() if isinstance(system, D1System) else default_grid()
    spec = spectrum_analytic(system, grid)
    peaks = find_peaks(spec).peaks
    top = float(np.max(spec.total))
    zero = top <= ZERO_SPECTRUM
    locs = np.array([p.location for p in peaks])
    fwhm, center = ((peaks[0].fwhm, peaks[0].location) if peaks
                    else (math.nan, math.nan))
    split = (peaks[-1].location - peaks[0].location if len(peaks) >= 2
             else math.nan)
    narrowest = min((p.fwhm for p in peaks), default=math.inf)

    def dark_branch(want):
        dark = float(np.max(spec.branch_intensity[want - 1]))
        ok = dark <= DARK_BRANCH_RTOL * max(top, 1e-300)
        return f"branch {want} dark", ok, f"max {dark:.2e}"

    # each signature key's check of its expected value
    table = {
        "peaks": lambda want: _equals("peaks", 0 if zero else len(peaks),
                                      want),
        "lines": lambda want: _equals("lines", count_spectral_lines(spec),
                                      want),
        "fwhm": lambda want: _near(f"fwhm == {want[0]} +- {want[1]:.0%}",
                                   fwhm, want[0], want[1] * want[0], ".4f"),
        "center": lambda want: _near(f"center == {want}", center, want,
                                     0.05, ".3f"),
        "splitting": lambda want: _near(
            f"splitting == {want[0]} +- {want[1]:.0%}", split, want[0],
            want[1] * want[0], ".4f"),
        "symmetric": lambda want: (
            "symmetric peak locations", bool(len(locs) > 0 and np.allclose(
                np.sort(locs), np.sort(-locs), atol=0.05)),
            f"locs {np.round(locs, 2).tolist()}"),
        "trapping": lambda want: _verdict("trapping", fgc_check(system),
                                          want),
        "dark_branch": dark_branch,
        "d1_trapping": lambda want: _verdict(
            "d1 trapping", d1_trapping_check(system), want),
        "zero_spectrum": lambda want: ("spectrum identically zero", zero,
                                       f"max {top:.2e}"),
        "trapped": lambda want: _near(f"trapped fraction == {want}", trapped,
                                      want, 1e-6, ".8f"),
        "narrow": lambda want: (f"narrowest fwhm < {want}", narrowest < want,
                                f"got {narrowest:.3f}"),
    }
    checks = [table[key](want) for key, want in signature.items()]

    # oracle comparison: cofactor closed forms vs direct linear solve; the
    # grid is offset off any exact pole, and errors are measured against the
    # per-branch amplitude scale (a dark branch is pure roundoff in both)
    deltas = np.linspace(-20.0, 20.0, 101) + 0.0137
    closed = steady_state_amplitudes(system, deltas)
    solved = laplace_solve_oracle(system, deltas)
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
    # the trapped checks' RK runs are one lockstep batch; each value is
    # that of its system alone
    batch = [k for k, p in enumerate(presets)
             if "trapped" in p.expected_signature]
    trapped = {}
    if batch:
        trapped = dict(zip(batch, trapped_fraction(
            [presets[k].system for k in batch], require_plateau=False)))
    failures = 0
    for k, (name, p) in enumerate(zip(names, presets)):
        for check, ok, detail in _signature_checks(
                p.system, p.expected_signature, trapped.get(k)):
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

@functools.cache
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

    tp = sub.add_parser("trapping", help="evaluate the trapping condition")
    common(tp, None)
    tp.add_argument("--solve", action="store_true",
                    help="complete |Omega4| and phi3 so the condition holds; "
                         "with --out, write the completed scenario there")

    wp = sub.add_parser("sweep", help="sweep one parameter against a metric")
    common(wp, "sweep.csv")
    wp.add_argument("--vary", required=True,
                    help="parameter: phase2, phase3, mag1..mag4, gamma1..gamma3")
    wp.add_argument("--range", required=True, help="min:max:count")
    wp.add_argument("--metric", choices=_SWEEP_METRICS, required=True)
    wp.add_argument("--grid", default=DEFAULT_GRID_SPEC, help="min:max:count")

    vp = sub.add_parser("validate", help="run preset signature checks")
    vp.add_argument("preset", help="preset name or 'all'")
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
            # the parser is built once, so the command is looked up by
            # name: a cmd_<command> wrapped after that build is the one run
            return globals()[f"cmd_{args.command}"](args)
        except (_InputError, GridOverflow, TooManySamples) as exc:
            # bad input, found where the library first reads it
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except _Unsolvable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNSOLVABLE
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
