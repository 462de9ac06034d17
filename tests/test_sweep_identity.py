"""An analytic sweep value is bit for bit what the full spectrum gives.

`cli._sweep_metric` evaluates only what its metric reads (one branch for
`central_area`, no areas for `peak_count`, pole terms only at pole hits).
The reference is the full route: `spectrum_analytic` with `spectral_areas`,
or the number of `find_peaks` peaks.  Values are compared by their bytes,
and the GridTooCoarse messages each route emits must agree.
"""
import struct
import warnings

import numpy as np
import pytest

from conftest import random_admissible_system
from darkstate import (D1System, D2System, DriveField, d1_to_chain, preset,
                       preset_names, spectrum_analytic,
                       steady_state_amplitudes)
from darkstate.analysis import find_peaks, spectral_areas
from darkstate.cli import _sweep_metric

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


def _recorded(fn, *args):
    """(bytes of fn(*args), the warning messages it emitted)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return (struct.pack("<d", value),
            [(w.category, str(w.message)) for w in caught])


def _check(sys):
    for grid in GRIDS:
        for metric in METRICS:
            want = _recorded(_reference, sys, metric, grid)
            assert _recorded(_sweep_metric, sys, metric, grid) == want, \
                (metric, len(grid))


@pytest.mark.parametrize("name", preset_names())
def test_presets(name):
    sys = preset(name).system
    _check(d1_to_chain(sys) if isinstance(sys, D1System) else sys)


@pytest.mark.parametrize("omega", [13.0, 0.0, 2.5])
@pytest.mark.parametrize("initial", ["A1", "A2", "A3", "B"])
def test_random_systems(omega, initial):
    rng = np.random.default_rng(
        [17, int(omega * 10), "A1 A2 A3 B".split().index(initial)])
    for k in range(3):
        sys = random_admissible_system(rng, omega=omega, initial=initial)
        if k:  # switch one drive (k = 1) or two (k = 2) off
            off = rng.choice(4, size=k, replace=False)
            sys = D2System(
                gamma=sys.gamma, omega12=omega, omega23=omega,
                drives=tuple(DriveField(0.0) if n in off else dr
                             for n, dr in enumerate(sys.drives)),
                initial=initial)
        _check(sys)


def test_cases_reach_the_edge_paths():
    """The grids above warn, and hit a pole on every branch of two-level."""
    sys = preset("two-level").system
    _, caught = _recorded(_reference, sys, "central_area", GRIDS[1])
    assert caught
    spec = spectrum_analytic(sys, GRIDS[2])
    # at a hit the bare quotient is infinite; the spectrum is finite there
    amps = steady_state_amplitudes(sys, GRIDS[2])
    assert all(np.isinf(a).any() for a in amps)
    assert np.all(np.isfinite(spec.branch_intensity))
