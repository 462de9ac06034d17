"""Spectrum post-processing: peaks, widths, areas, conservation and
cross-method comparison.

Peak picking is numpy only: `_prominent_maxima` returns the indices SciPy's
`find_peaks(x, prominence=...)` would, without the slow import of SciPy's
signal processing package."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, GridTooCoarse, GridTooNarrow
from .model import D1System, D2System, d1_to_chain
from .spectrum import SpectrumResult, spectrum_analytic, d1_spectrum
from .dynamics import trapped_fraction

DEFAULT_PROMINENCE = 1e-3

#: default reporting grid: +-30 rate units, 6001 points
DEFAULT_GRID = (-30.0, 30.0, 6001)

#: reporting grid of the single-loss (D1) loop: +-25 rate units, 10001 points
D1_GRID = (-25.0, 25.0, 10001)


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
    total_area: float
    branch_areas: tuple


def _half_height_width(grid, total, idx):
    """FWHM by linear interpolation of the half-height crossings around idx."""
    half = total[idx] / 2.0
    left = grid[0]
    for j in range(idx, 0, -1):
        if total[j - 1] <= half:
            frac = (total[j] - half) / (total[j] - total[j - 1])
            left = grid[j] - frac * (grid[j] - grid[j - 1])
            break
    right = grid[-1]
    for j in range(idx, len(grid) - 1):
        if total[j + 1] <= half:
            frac = (total[j] - half) / (total[j] - total[j + 1])
            right = grid[j] + frac * (grid[j + 1] - grid[j])
            break
    return right - left


def _prominent_maxima(x, prominence):
    """Indices of the local maxima of x whose prominence is >= prominence.

    A maximum is a sample, or a run of equal samples, whose neighbours on
    both sides are strictly lower; a run counts once, at its middle index
    rounded down, and the two end samples never count.  A peak's base on
    each side extends to the nearest strictly higher sample (or the array
    end); its prominence is its height minus the larger of the two base
    minima.  Same indices as SciPy's find_peaks(x, prominence=...).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    start = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    end = np.append(start[1:], x.size) - 1
    v = x[start]
    inner = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    mids = (start[inner] + end[inner]) // 2
    keep = []
    for i in mids:
        h = x[i]
        # `not <=` also stops a base at NaN, as SciPy's scan does
        left = np.flatnonzero(~(x[:i] <= h))
        right = np.flatnonzero(~(x[i + 1:] <= h))
        lo = left[-1] + 1 if left.size else 0
        hi = i + 1 + right[0] if right.size else x.size
        base = max(x[lo:i + 1].min(), x[i:hi].min())
        keep.append(h - base >= prominence)
    return mids[np.array(keep, dtype=bool)]


def spectral_areas(spec: SpectrumResult):
    """Trapezoid integrals of the total and per-branch intensities.

    Warns GridTooCoarse when the grid spacing exceeds a tenth of the
    narrowest line width."""
    grid = spec.grid
    widths = [-2.0 * t.pole.imag
              for terms in spec.branch_poles for t in terms
              if not t.trapped and t.pole.imag < 0]
    if widths:
        narrow = min(w for w in widths if w > 0)
        spacing = grid[1] - grid[0]
        if spacing > narrow / 10.0:
            warnings.warn(
                f"grid spacing {spacing:.3g} coarser than narrowest width/10 "
                f"({narrow / 10.0:.3g})", GridTooCoarse)
    total = float(np.trapezoid(spec.total, grid))
    branches = tuple(float(np.trapezoid(b, grid)) for b in spec.branch_intensity)
    return total, branches


def find_peaks(spec: SpectrumResult, prominence: float = DEFAULT_PROMINENCE) -> PeakAnalysis:
    """Local maxima above prominence * max(total), with interpolated widths
    and dominant-branch attribution."""
    grid = spec.grid
    total = spec.total
    total_area, branch_areas = spectral_areas(spec)
    peak_max = float(np.max(total)) if len(total) else 0.0
    peaks = []
    if peak_max > 0.0:
        for i in _prominent_maxima(total, prominence * peak_max):
            branch = int(np.argmax(spec.branch_intensity[:, i])) + 1
            peaks.append(Peak(location=float(grid[i]),
                              height=float(total[i]),
                              fwhm=float(_half_height_width(grid, total, i)),
                              branch=branch))
    peaks.sort(key=lambda p: p.location)
    return PeakAnalysis(peaks=peaks, total_area=total_area,
                        branch_areas=branch_areas)


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


def integrated_area(spec: SpectrumResult):
    """Trapezoid integral of the total and per-branch intensities.

    Raises GridTooNarrow when the edges still carry more than 1e-4 of the
    peak intensity."""
    peak = float(np.max(spec.total)) if len(spec.total) else 0.0
    edge = max(float(spec.total[0]), float(spec.total[-1]))
    if peak > 0.0 and edge > 1e-4 * peak:
        raise GridTooNarrow(
            f"edge intensity {edge:.3g} exceeds 1e-4 of peak {peak:.3g}")
    return spectral_areas(spec)


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

    The grid spans +-span_factor*omega12 so the margin beyond the outer
    branches grows with the splitting (the truncated Lorentzian tails are the
    dominant defect contribution).
    """
    if isinstance(sys, D1System):
        chain = d1_to_chain(sys)
        spec_sys = chain
        dyn_sys = chain
        span = 25.0
    else:
        spec_sys = sys
        dyn_sys = sys
        span = span_factor * sys.omega12
    n = max(int(round(2.0 * span / spacing)) + 1, 1001)
    grid = np.linspace(-span, span, n)
    spec = spectrum_analytic(spec_sys, grid)
    emitted_spectral = float(np.trapezoid(spec.total, grid))
    trapped = trapped_fraction(dyn_sys, t_final=t_final, require_plateau=False)
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
    error uses max(|a|, |b|, 1e-3 * peak) as denominator so that near-zero
    valleys do not dominate.
    """
    if a.grid.shape != b.grid.shape or not np.allclose(a.grid, b.grid,
                                                       rtol=0, atol=1e-12):
        raise GridMismatch("spectra were computed on different grids")
    peak = max(float(np.max(a.total)), float(np.max(b.total)), 1e-300)
    mask = np.maximum(a.total, b.total) > 1e-8 * peak
    if not np.any(mask):
        return {"max_rel_err": 0.0, "rms_err": 0.0}
    num = np.abs(a.total[mask] - b.total[mask])
    den = np.maximum(np.maximum(a.total[mask], b.total[mask]), 1e-3 * peak)
    rel = num / den
    return {"max_rel_err": float(np.max(rel)),
            "rms_err": float(np.sqrt(np.mean(rel ** 2)))}
