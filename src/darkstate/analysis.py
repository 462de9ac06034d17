"""Spectrum post-processing: peaks, widths, areas, conservation and
cross-method comparison.

Peak picking is numpy only: `_prominent_maxima` returns the indices SciPy's
`find_peaks(x, prominence=...)` would, without the slow import of SciPy's
signal processing package."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, GridTooCoarse
from .spectrum import SpectrumResult, spectrum_analytic
from .dynamics import trapped_fraction

#: a peak's prominence must be at least this fraction of the total's peak
DEFAULT_PROMINENCE = 1e-3

#: a spectrum whose peak is at most this is identically zero: the closed
#: form of a dark atom leaves roundoff peaks of 1e-27 and below, and a
#: spectrum's area, the emitted population, is at most 1
ZERO_SPECTRUM = 1e-20

#: default reporting grid: +-30 rate units, 6001 points
DEFAULT_GRID = (-30.0, 30.0, 6001)

#: reporting grid of the single-loss (D1) loop: +-25 rate units, 10001 points
D1_GRID = (-25.0, 25.0, 10001)

#: absolute floor of compare_spectra's denominator.  A spectrum's area is
#: the emitted population, at most 1, so a fully emitting spectrum peaks
#: near 1 (0.18 to 2.8 on the lit presets) and its 1e-3 * peak floor lies
#: far above this one; on a dark spectrum (peak ~1e-29) it keeps two
#: roundoff spectra from reading as a relative error of order 1
COMPARE_FLOOR = 1e-6


def default_grid():
    return np.linspace(*DEFAULT_GRID)


def d1_grid():
    return np.linspace(*D1_GRID)


@dataclass
class Peak:
    location: float
    height: float
    fwhm: float
    branch: int


@dataclass
class PeakAnalysis:
    peaks: list


def _half_height_width(grid, total, idx):
    """FWHM by linear interpolation of the half-height crossings around idx:
    between the nearest sample at or below half height on each side and its
    neighbour towards idx (the grid end when there is none)."""
    half = total[idx] / 2.0
    left = grid[0]
    below = total[:idx][::-1] <= half  # the nearest sample first
    if below.any():
        j = idx - below.argmax()
        frac = (total[j] - half) / (total[j] - total[j - 1])
        left = grid[j] - frac * (grid[j] - grid[j - 1])
    right = grid[-1]
    below = total[idx + 1:] <= half
    if below.any():
        j = idx + below.argmax()
        frac = (total[j] - half) / (total[j] - total[j + 1])
        right = grid[j] + frac * (grid[j + 1] - grid[j])
    return right - left


def _prominent_maxima(x, prominence):
    """Indices of the local maxima of x whose prominence is >= prominence.

    A maximum is a sample, or a run of equal samples, whose neighbours on
    both sides are strictly lower; a run counts once, at its middle index
    rounded down, and the two end samples never count.  A peak's base on
    each side extends to the nearest strictly higher sample (or the array
    end), and a NaN stops it too; its prominence is its height minus the
    larger of the two base minima.  Same indices as SciPy's
    find_peaks(x, prominence=...).

    The bases are found on the runs of equal samples.  Call the maxima
    and the NaN runs stops.  No run between two neighbouring stops, or
    between a stop and an array end, is higher than both ends of that
    stretch: a higher one would be a maximum.  So the nearest higher
    sample lies in the stretch next to the nearest stop that is higher or
    NaN, and every run of that stretch beyond it is higher still.  A base
    minimum is thus the minimum of the runs out to that stop, which
    `_base_minima` finds for every stop in one pass."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    new = x[1:] != x[:-1]
    plain = new.all()  # no two neighbours equal: each run one sample
    start = (np.arange(x.size) if plain
             else np.flatnonzero(np.concatenate(([True], new))))
    # the run values between two NaN stops that stand for the array ends
    v = np.concatenate(([np.nan], x if plain else x[start], [np.nan]))
    peak = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    stops = np.concatenate(
        ([0], np.flatnonzero(peak | np.isnan(v[1:-1])) + 1, [len(v) - 1]))
    heights = v[stops].tolist()
    # stretch t: the runs after stop t through stop t + 1 (left bases),
    # and those from stop t up to stop t + 1 (right bases)
    left = _base_minima(
        heights, np.minimum.reduceat(v, stops[:-1] + 1).tolist())
    right = _base_minima(
        heights[::-1], np.minimum.reduceat(v[:-1], stops[:-1])[::-1].tolist())
    keep = [k for k, h in enumerate(heights)
            if h - max(left[k], right[-1 - k]) >= prominence]
    runs = stops[keep] - 1  # a maximum is never the last run
    return (start[runs] + start[runs + 1] - 1) // 2


def _base_minima(heights, stretches):
    """For each stop k, the minimum of stretches[t] over the stretches
    t < k out to the nearest earlier stop whose height is not <= heights[k]:
    the base minimum on the side of lower k, given the minimum of each
    stretch between stops t and t + 1.  Stop 0 is NaN, which no height
    passes; the value at a NaN stop is never read.  A stack holds the
    stops that no later stop has passed yet, with their minima."""
    minima = [heights[0]]
    stack = [0]
    for k in range(1, len(heights)):
        h, low = heights[k], stretches[k - 1]
        while heights[stack[-1]] <= h:
            low = min(low, minima[stack.pop()])
        minima.append(low)
        stack.append(k)
    return minima


def check_spacing(grid, lines):
    """Warn GridTooCoarse when the grid spacing exceeds a tenth of the
    narrowest width -2 Im(pole) of the (pole, trapped) lines; a grid of
    fewer than two points has no spacing to check."""
    if len(grid) < 2:
        return
    widths = [-2.0 * pole.imag for pole, trapped in lines
              if not trapped and pole.imag < 0]
    if widths:
        narrow = min(w for w in widths if w > 0)
        spacing = grid[1] - grid[0]
        if spacing > narrow / 10.0:
            warnings.warn(
                f"grid spacing {spacing:.3g} coarser than narrowest width/10 "
                f"({narrow / 10.0:.3g})", GridTooCoarse)


def _check_line_spacing(spec: SpectrumResult):
    """check_spacing against the lines of the spectrum's pole tables."""
    check_spacing(spec.grid, ((t.pole, t.trapped)
                              for terms in spec.branch_poles for t in terms))


def trapezoid(y, spacings) -> float:
    """The trapezoid integral of y over a grid whose spacings are
    np.diff(grid), bit for bit float(np.trapezoid(y, grid)): the same
    products and halves, in place, and the same pairwise sum.  The
    spacings are taken once for all the rows of a grid."""
    out = y[1:] + y[:-1]
    out *= spacings
    out /= 2.0
    return float(out.sum())


def spectral_areas(spec: SpectrumResult):
    """Trapezoid integrals of the total and per-branch intensities.

    Warns GridTooCoarse when the grid spacing exceeds a tenth of the
    narrowest line width."""
    _check_line_spacing(spec)
    spacings = np.diff(spec.grid)
    return trapezoid(spec.total, spacings), tuple(
        trapezoid(b, spacings) for b in spec.branch_intensity)


def peak_indices(total):
    """Indices of the maxima of total whose prominence is at least
    DEFAULT_PROMINENCE * max(total); none unless that maximum is
    positive."""
    peak_max = float(np.max(total)) if len(total) else 0.0
    if peak_max > 0.0:
        return _prominent_maxima(total, DEFAULT_PROMINENCE * peak_max)
    return np.empty(0, dtype=np.intp)


def find_peaks(spec: SpectrumResult) -> PeakAnalysis:
    """Local maxima above DEFAULT_PROMINENCE * max(total), with
    interpolated widths and dominant-branch attribution.

    Warns GridTooCoarse as `spectral_areas` does."""
    grid = spec.grid
    total = spec.total
    _check_line_spacing(spec)
    peaks = []
    for i in peak_indices(total):
        branch = int(np.argmax(spec.branch_intensity[:, i])) + 1
        peaks.append(Peak(location=float(grid[i]),
                          height=float(total[i]),
                          fwhm=float(_half_height_width(grid, total, i)),
                          branch=branch))
    peaks.sort(key=lambda p: p.location)
    return PeakAnalysis(peaks=peaks)


#: a branch is counted dark when its peak intensity is below this fraction
#: of the total's peak
DARK_BRANCH_RTOL = 1e-18


def count_spectral_lines(spec: SpectrumResult) -> int:
    """Number of dressed-state emission lines contributing to the spectrum.

    Each emitting branch carries one line per root of its characteristic
    quartic (four, counted with multiplicity); a branch whose intensity
    vanishes identically contributes none.  This is the line count in the
    dressed-state accounting (distinct from visible local maxima, which can
    be fewer when residues cancel by symmetry or neighbouring lines overlap).
    """
    if not any(spec.branch_poles):
        raise ValueError("pole decomposition unavailable "
                         f"for method '{spec.method}'")
    peak = float(np.max(spec.total)) if len(spec.total) else 0.0
    n = 0
    for b, terms in enumerate(spec.branch_poles):
        if peak > 0.0 and float(np.max(spec.branch_intensity[b])) <= \
                DARK_BRANCH_RTOL * peak:
            continue
        n += len(terms)
    return n


@dataclass
class ConservationResult:
    emitted_spectral: float
    emitted_dynamic: float
    trapped: float
    defect: float


def conservation_check(sys, span_factor: float = 2.3,
                       spacing: float = 0.01,
                       t_final: float = 200.0) -> ConservationResult:
    """Compare the spectral integral with 1 - trapped population.

    The grid spans +-span_factor times the larger splitting, so the margin
    beyond both outer branches grows with it (the truncated Lorentzian
    tails are the dominant defect contribution).
    """
    span = span_factor * max(sys.omega12, sys.omega23)
    n = max(int(round(2.0 * span / spacing)) + 1, 1001)
    grid = np.linspace(-span, span, n)
    spec = spectrum_analytic(sys, grid)
    emitted_spectral = trapezoid(spec.total, np.diff(grid))
    trapped = trapped_fraction(sys, t_final=t_final, require_plateau=False)
    emitted_dynamic = 1.0 - trapped
    return ConservationResult(
        emitted_spectral=emitted_spectral,
        emitted_dynamic=emitted_dynamic,
        trapped=trapped,
        defect=abs(emitted_spectral - emitted_dynamic),
    )


def compare_spectra(a: SpectrumResult, b: SpectrumResult) -> dict:
    """Pointwise error metrics over points carrying signal.

    Points where max(a, b) <= 1e-8 * peak are ignored; the per-point relative
    error uses max(|a|, |b|, 1e-3 * peak, COMPARE_FLOOR) as denominator so
    that near-zero valleys, or a whole dark spectrum, do not dominate.
    """
    if a.grid.shape != b.grid.shape or not np.allclose(a.grid, b.grid,
                                                       rtol=0, atol=1e-12):
        raise GridMismatch("spectra were computed on different grids")
    peak = max(float(np.max(a.total, initial=0.0)),
               float(np.max(b.total, initial=0.0)), 1e-300)
    mask = np.maximum(a.total, b.total) > 1e-8 * peak
    if not np.any(mask):
        return {"max_rel_err": 0.0, "rms_err": 0.0}
    num = np.abs(a.total[mask] - b.total[mask])
    den = np.maximum(np.maximum(a.total[mask], b.total[mask]),
                     max(1e-3 * peak, COMPARE_FLOOR))
    rel = num / den
    return {"max_rel_err": float(np.max(rel)),
            "rms_err": float(np.sqrt(np.mean(rel ** 2)))}
