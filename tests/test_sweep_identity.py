"""An analytic sweep is bit for bit what the full spectrum gives, value by
value.

`cli._sweep_metric` evaluates a whole sweep as one batch: the roots of
every value's quartic at once (`spectrum._root_clusters`), then only what
its metric reads, one value at a time (one branch for `central_area`, no
areas for `peak_count`, pole terms only at pole hits).  The reference is
the full route, one system at a time: `spectrum_analytic` with
`spectral_areas`, or the number of `find_peaks` peaks.  Values are compared
by their bytes, and the warnings each route emits, and the error it ends
with, must agree in order.
"""
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_admissible_system
from darkstate import (D2System, DriveField, GridTooCoarse, NonFiniteValue,
                       preset, preset_names, spectrum_analytic,
                       steady_state_amplitudes)
from darkstate import cli
from darkstate.analysis import find_peaks, spectral_areas
from darkstate.cli import _apply_sweep_value, _sweep_metric
from darkstate.spectrum import (NEWTON_MAX_STEP, _cluster_roots,
                                _drive_constants, _quartic, _root_clusters)

METRICS = ("central_area", "total_area", "peak_count")

#: the default grid; a coarse one that warns; 27 points through the branch
#: arguments' zeros at 0 and +-13; an offset grid
GRIDS = (np.linspace(-30.0, 30.0, 6001), np.linspace(-30.0, 30.0, 301),
         np.linspace(-13.0, 13.0, 27), np.linspace(-30.0, 30.0, 601) + 0.0137)


def _reference(sys, metric, grid):
    spec = spectrum_analytic(sys, grid)
    if metric == "peak_count":
        return float(len(find_peaks(spec).peaks))
    total, branches = spectral_areas(spec)
    return total if metric == "total_area" else branches[1]


def _loop(systems, metric, grid):
    """The reference sweep: the full route, one system at a time."""
    return [_reference(sys, metric, grid) for sys in systems]


def _recorded(fn, *args):
    """(bytes of the values fn(*args) returns, the error it raises, the
    warning messages it emitted, in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values, error = fn(*args), None
        except Exception as exc:
            values, error = [], (type(exc), str(exc))
    return (struct.pack(f"<{len(values)}d", *values), error,
            [(w.category, str(w.message)) for w in caught])


def _check(systems, grids=GRIDS):
    for grid in grids:
        for metric in METRICS:
            want = _recorded(_loop, systems, metric, grid)
            assert _recorded(_sweep_metric, systems, metric, grid) == want, \
                (metric, len(grid))


def _chain(gamma, mags, initial="A1"):
    return D2System(gamma=gamma, omega12=13.0, omega23=13.0,
                    drives=tuple(DriveField(m) for m in mags),
                    initial=initial)


#: quartics whose trailing coefficients vanish, which np.roots trims: the
#: undriven two-level chain (q0 = 0), a chain without Gamma1, Gamma3,
#: Omega1 and Omega4 (q1 = q0 = 0), the same undriven (q2 = q1 = q0 = 0)
#: and an undamped undriven chain (every coefficient below the lead 0)
TRIMMED = (preset("two-level").system,
           _chain((0.0, 1.0, 0.0), (0.0, 0.8, 1.1, 0.0)),
           _chain((0.0, 1.0, 0.0), (0.0,) * 4),
           _chain((0.0, 0.0, 0.0), (0.0,) * 4))


def _edge_systems():
    """Trimmed, trapped, triple-root and near-confluent chains."""
    fig2 = preset("fig2-trapping").system
    return [*TRIMMED, fig2, preset("d1-trapping").system,
            _chain((1.0, 1.0, 1.0), (0.0,) * 4),  # a triple root at -1/2
            *(_chain((0.5, 0.5, 0.5), (0.0, 0.0, e, e), "A3")
              for e in (1e-9, 1.2e-7, 1e-5))]


@pytest.mark.parametrize("name", preset_names())
def test_presets(name):
    sys = preset(name).system
    _check([sys])


@pytest.mark.parametrize("omega", [13.0, 0.0, 2.5])
@pytest.mark.parametrize("initial", ["A1", "A2", "A3", "B"])
def test_random_systems(omega, initial):
    rng = np.random.default_rng(
        [17, int(omega * 10), "A1 A2 A3 B".split().index(initial)])
    systems = []
    for k in range(3):
        sys = random_admissible_system(rng, omega=omega, initial=initial)
        if k:  # switch one drive (k = 1) or two (k = 2) off
            off = rng.choice(4, size=k, replace=False)
            sys = D2System(
                gamma=sys.gamma, omega12=omega, omega23=omega,
                drives=tuple(DriveField(0.0) if n in off else dr
                             for n, dr in enumerate(sys.drives)),
                initial=initial)
        _check([sys])
        systems.append(sys)
    _check(systems)


def test_cases_reach_the_edge_paths():
    """The grids above warn, and hit a pole on every branch of two-level."""
    sys = preset("two-level").system
    _, _, caught = _recorded(_loop, [sys], "central_area", GRIDS[1])
    assert caught
    spec = spectrum_analytic(sys, GRIDS[2])
    # at a hit the bare quotient is infinite; the spectrum is finite there
    amps = steady_state_amplitudes(sys, GRIDS[2])
    assert all(np.isinf(a).any() for a in amps)
    assert np.all(np.isfinite(spec.branch_intensity))


def _np_roots_clusters(q):
    """The per-quartic reference of `_root_clusters`: np.roots, two Newton
    steps by np.polyval, and Q' by np.polyval at each simple root; the
    clustering, which runs per row, is the module's."""
    dq = np.polyder(q)
    roots = np.roots(q)
    for _ in range(2):
        val, dval = np.polyval(q, roots), np.polyval(dq, roots)
        safe = np.abs(dval) > 1e-30
        step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
        roots = roots - np.where(np.abs(step) < NEWTON_MAX_STEP, step, 0.0)
    clusters, _ = _cluster_roots(roots, roots)  # the slopes are below
    return repr(([[complex(r) for r in c] for c in clusters],
                 [complex(np.polyval(dq, c[0])) if len(c) == 1 else None
                  for c in clusters]))


def test_stacked_roots_are_np_roots():
    """Every row of a stack gets np.roots' roots, its Newton steps and its
    slopes bit for bit, whatever the rows around it: trimmed quartics of
    each degree sit between ordinary, trapped and confluent ones."""
    rng = np.random.default_rng(29)
    systems = _edge_systems()
    systems += [random_admissible_system(rng, omega=o, initial=i)
                for o in (13.0, 2.5) for i in ("A1", "B")]
    systems += [_apply_sweep_value(systems[0], "mag1", m)
                for m in (0.0, 0.3, 0.0, 1.7)]
    order = rng.permutation(len(systems))
    # complex, as `_root_clusters` stacks them, so that np.roots takes the
    # same eigenvalue routine
    qs = np.array([_quartic(_drive_constants(systems[k])) for k in order],
                  dtype=complex)
    trailing_zeros = {4 - np.flatnonzero(q)[-1] for q in qs}
    assert trailing_zeros == {0, 1, 2, 3, 4}
    got = [repr(([[complex(r) for r in c] for c in clusters], slopes))
           for clusters, slopes in _root_clusters(qs)]
    assert got == [_np_roots_clusters(q) for q in qs]


def test_mixed_batches():
    """Sweeps whose values mix trimmed quartics with ordinary ones, and pole
    hits in some rows only (the undriven rows of the two-level sweep hit a
    pole on every branch of the 29-point grid), each as one batch."""
    two_level = preset("two-level").system
    grids = (GRIDS[1], np.linspace(-14.0, 14.0, 29))
    _check([_apply_sweep_value(two_level, "mag1", m)
            for m in np.linspace(0.0, 2.0, 11)], grids)
    _check([_apply_sweep_value(two_level, "mag4", m)
            for m in (0.0, 1.0, 0.0, 0.5, 0.0)], grids)
    systems = _edge_systems()
    _check(systems[::2] + systems[1::2], grids)


def test_batches_of_1_and_101():
    fig2 = preset("fig2-trapping").system
    sweep = [_apply_sweep_value(fig2, "phase2", p)
             for p in np.linspace(0.0, 2.0 * np.pi, 101)]
    _check(sweep[50:51])
    _check(sweep, (GRIDS[0], GRIDS[1]))


def test_failing_row_mid_batch():
    """A row that fails raises the loop's error after the rows before it
    and their warnings; a row whose roots overflow raises no warning."""
    fig2 = preset("fig2-notrapping").system
    detuned = replace(fig2, detunings=(0.1, 0.0, 0.0, 0.0))
    overflow = _apply_sweep_value(fig2, "mag1", 1e160)  # Q overflows
    roots_overflow = _apply_sweep_value(fig2, "mag1", 1e100)
    for bad in (detuned, overflow, roots_overflow):
        _check([fig2, _apply_sweep_value(fig2, "mag2", 0.5), bad, fig2],
               (GRIDS[1],))
    _, error, caught = _recorded(_sweep_metric, [fig2, overflow, fig2],
                                 "total_area", GRIDS[1])
    assert error[0] is NonFiniteValue and len(caught) == 1
    _, error, caught = _recorded(_sweep_metric, [fig2, roots_overflow],
                                 "total_area", GRIDS[1])
    assert error is None
    assert caught[0][0] is GridTooCoarse
    assert not any(c is RuntimeWarning for c, _ in caught)


def test_failing_row_mid_batch_cli(tmp_path, monkeypatch, capsys):
    """Through the CLI: the batch gives the loop's stderr and exit code, and
    writes nothing."""
    argv = ["sweep", "--preset", "fig2-notrapping", "--vary", "mag1",
            "--range", "0:1e160:3", "--grid=-30:30:301",
            "--metric", "total_area"]

    def run(name):
        code = cli.main([*argv, "--out", str(tmp_path / name)])
        return code, capsys.readouterr().err

    got = run("batch.csv")
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_sweep_metric", _loop)
        want = run("loop.csv")
    assert got == want
    code, err = got
    assert code == cli.EXIT_NUMERICAL
    assert [line.split(":")[0] for line in err.splitlines()] == \
        ["warning", "error"]
    assert list(tmp_path.iterdir()) == []
