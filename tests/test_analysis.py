import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import find_peaks as scipy_find_peaks

from conftest import random_admissible_system
from darkstate import (
    D1System,
    D2System,
    DriveField,
    GridMismatch,
    compare_spectra,
    conservation_check,
    count_spectral_lines,
    find_peaks,
    preset,
    preset_names,
    spectrum_analytic,
    spectrum_time_domain,
)
from darkstate.analysis import (
    DEFAULT_PROMINENCE,
    _half_height_width,
    _prominent_maxima,
    d1_grid,
    default_grid,
    spectral_areas,
    trapezoid,
)
from darkstate.cli import _sweep_metric
from darkstate.errors import GridTooCoarse
from test_sweep_identity import GRIDS as SWEEP_GRIDS


class TestProminentMaxima:
    """The numpy peak picker returns scipy.signal.find_peaks' indices."""

    def test_plateaus_ends_and_bases(self):
        x = np.array([0, 2, 2, 2, 1, 3, 3, 0, 1], dtype=float)
        # plateau 1..3 counts at 2, plateau 5..6 at 5, the end sample never;
        # the peak at 2 has its right base up to the higher index 5
        assert _prominent_maxima(x, 0.0).tolist() == [2, 5]
        assert _prominent_maxima(x, 1.0).tolist() == [2, 5]
        assert _prominent_maxima(x, 1.5).tolist() == [5]
        assert _prominent_maxima(x[:2], 0.0).tolist() == []

    def test_matches_scipy_on_small_integer_arrays(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            # few distinct levels: plateaus and equal-height bases are common
            size, levels = rng.integers(0, 30), rng.integers(1, 6)
            x = rng.integers(0, levels, size).astype(float)
            for prominence in (0.0, 0.5, 1.0, 2.0, 4.0):
                np.testing.assert_array_equal(
                    _prominent_maxima(x, prominence),
                    scipy_find_peaks(x, prominence=prominence)[0])

    @staticmethod
    def _same_as_scipy(x):
        for prominence in range(5):
            np.testing.assert_array_equal(
                _prominent_maxima(x, prominence),
                scipy_find_peaks(x, prominence=prominence)[0])

    def test_matches_scipy_with_nan(self):
        """A NaN stops a base, as SciPy's scan stops there, and is never a
        maximum; nor is a sample next to it."""
        rng = np.random.default_rng(19)
        for _ in range(4000):
            size, levels = rng.integers(0, 30), rng.integers(1, 6)
            x = rng.integers(0, levels, size).astype(float)
            x[rng.random(size) < rng.uniform(0.05, 0.4)] = np.nan
            self._same_as_scipy(x)

    def test_matches_scipy_on_equal_height_maxima(self):
        """A neighbouring maximum of equal height does not end a base;
        maxima alternate with valleys, the maxima of two heights only."""
        x = np.array([0, 3, 1, 3, 0, 2, 3, 3, 2, 3, 1], dtype=float)
        # no maximum is higher than another, so every base runs to both
        # array ends: 1 and 3 have a 0 on each side (prominence 3), 6 (the
        # middle of 6..7) and 9 only the 1 at the right end (prominence 2)
        assert _prominent_maxima(x, 2.0).tolist() == [1, 3, 6, 9]
        assert _prominent_maxima(x, 3.0).tolist() == [1, 3]
        self._same_as_scipy(x)
        rng = np.random.default_rng(23)
        for _ in range(2000):
            count = int(rng.integers(1, 8))
            x = np.empty(2 * count + 1)
            x[1::2] = rng.choice([3.0, 4.0], count)
            x[::2] = rng.integers(0, 3, count + 1)
            # a few plateaus: a sample repeated
            x = np.repeat(x, rng.choice([1, 1, 1, 2], x.size))
            self._same_as_scipy(x)

    @pytest.mark.parametrize("name", preset_names())
    def test_matches_scipy_on_preset_spectra(self, name):
        system = preset(name).system
        grid = d1_grid() if isinstance(system, D1System) else default_grid()
        spec = spectrum_analytic(system, grid)
        for curve in (spec.total, *spec.branch_intensity):
            for scale in (float(np.max(curve)), float(np.max(spec.total))):
                for prominence in (0.0, DEFAULT_PROMINENCE * scale):
                    np.testing.assert_array_equal(
                        _prominent_maxima(curve, prominence),
                        scipy_find_peaks(curve, prominence=prominence)[0])


class TestTrapezoid:
    """The one trapezoid rule of the areas is np.trapezoid's, by bytes, so
    neither `spectral_areas` nor a sweep can drift from it."""

    @staticmethod
    def _same(y, grid):
        got = trapezoid(y, np.diff(grid))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == \
            np.float64(np.trapezoid(y, grid)).tobytes()

    @pytest.mark.parametrize("k", range(len(SWEEP_GRIDS)))
    def test_sweep_grids(self, k):
        grid = SWEEP_GRIDS[k]
        rng = np.random.default_rng(k)
        spec = spectrum_analytic(preset("fig2-notrapping").system, grid)
        for y in (spec.total, *spec.branch_intensity):
            self._same(y, grid)
        for _ in range(50):
            # intensities over many decades, a zero row and a negative one
            y = rng.uniform(0.0, 1.0, grid.size) * 10.0 ** rng.integers(
                -30, 5, grid.size)
            self._same(y, grid)
            self._same(-y, grid)
        self._same(np.zeros(grid.size), grid)

    def test_random_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            size = int(rng.integers(1, 300))
            grid = np.sort(rng.uniform(-50.0, 50.0, size))
            self._same(rng.normal(size=size), grid)

    def test_spectral_areas(self):
        grid = SWEEP_GRIDS[0]
        spec = spectrum_analytic(preset("at-quartet").system, grid)
        assert spectral_areas(spec) == (
            float(np.trapezoid(spec.total, grid)),
            tuple(float(np.trapezoid(b, grid))
                  for b in spec.branch_intensity))


def _scanned_width(grid, total, idx):
    """_half_height_width as a Python scan outward from idx."""
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


class TestHalfHeightWidth:
    """The vectorized crossing search returns the scan's width bit for bit."""

    @staticmethod
    def _same(grid, total):
        for idx in range(len(total)):
            with np.errstate(all="ignore"):
                got = _half_height_width(grid, total, idx)
                want = _scanned_width(grid, total, idx)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_small_arrays_with_ties_nan_and_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            size = int(rng.integers(1, 12))
            # few levels: samples exactly at half height are common
            total = rng.integers(0, 5, size).astype(float)
            if rng.random() < 0.2:
                total[rng.integers(0, size)] = np.nan
            self._same(np.sort(rng.uniform(-5.0, 5.0, size)), total)

    @pytest.mark.parametrize("name", ["fig2-notrapping", "at-quartet",
                                      "two-level"])
    def test_preset_peaks(self, name):
        grid = default_grid()
        spec = spectrum_analytic(preset(name).system, grid)
        for idx in _prominent_maxima(spec.total, 0.0):
            assert _half_height_width(grid, spec.total, idx) == \
                _scanned_width(grid, spec.total, idx)


class TestFindPeaks:
    def test_two_level_lorentzian(self):
        spec = spectrum_analytic(preset("two-level").system,
                                 np.linspace(-30, 30, 6001))
        pa = find_peaks(spec)
        assert len(pa.peaks) == 1
        p = pa.peaks[0]
        assert p.location == pytest.approx(-13.0, abs=0.02)
        assert p.fwhm == pytest.approx(1.0, rel=0.02)
        assert p.branch == 1

    def test_doublet_splitting(self):
        spec = spectrum_analytic(preset("autler-townes-doublet").system,
                                 np.linspace(-30, 30, 6001))
        pa = find_peaks(spec)
        assert len(pa.peaks) == 2
        assert pa.peaks[1].location - pa.peaks[0].location == \
            pytest.approx(10.0, rel=0.02)

    def test_peaks_sorted_by_location(self, rng):
        s = random_admissible_system(rng)
        pa = find_peaks(spectrum_analytic(s, np.linspace(-30, 30, 6001)))
        locs = [p.location for p in pa.peaks]
        assert locs == sorted(locs)

    def test_branch_attribution_on_trapping_preset(self):
        spec = spectrum_analytic(preset("fig2-trapping").system,
                                 np.linspace(-30, 30, 6001))
        pa = find_peaks(spec)
        assert pa.peaks
        assert all(p.branch != 2 for p in pa.peaks)

    def test_coarse_grid_warns(self):
        spec = spectrum_analytic(preset("two-level").system,
                                 np.linspace(-30, 30, 101))
        with pytest.warns(GridTooCoarse):
            find_peaks(spec)
        with pytest.warns(GridTooCoarse):
            spectral_areas(spec)

    @pytest.mark.parametrize("grid", [[], [0.0]], ids=["empty", "one_point"])
    def test_grid_without_spacing(self, grid):
        # fewer than two points: no spacing to check, and nothing to
        # integrate or pick
        s = preset("fig2-notrapping").system
        spec = spectrum_analytic(s, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_areas(spec) == (0.0, (0.0, 0.0, 0.0))
            assert find_peaks(spec).peaks == []
            for metric in ("central_area", "total_area", "peak_count"):
                assert _sweep_metric([s], metric, np.array(grid)) == [0.0]

    def test_count_invariant_under_refinement(self):
        s = preset("fig2-notrapping").system
        n1 = len(find_peaks(spectrum_analytic(s, np.linspace(-30, 30, 6001))).peaks)
        n2 = len(find_peaks(spectrum_analytic(s, np.linspace(-30, 30, 24001))).peaks)
        assert n1 == n2


class TestSpectralLineCount:
    def test_twelve_lines_without_trapping(self):
        spec = spectrum_analytic(preset("fig2-notrapping").system,
                                 np.linspace(-30, 30, 1001))
        assert count_spectral_lines(spec) == 12

    def test_eight_lines_under_trapping(self):
        spec = spectrum_analytic(preset("fig2-trapping").system,
                                 np.linspace(-30, 30, 1001))
        assert count_spectral_lines(spec) == 8

    def test_time_domain_result_rejected(self):
        spec = spectrum_time_domain(preset("two-level").system,
                                    np.linspace(-20, -6, 51), t_final=30.0)
        with pytest.raises(ValueError):
            count_spectral_lines(spec)


class TestIntegratedArea:
    def test_lorentzian_area_unity(self):
        s = preset("two-level").system
        grid = np.linspace(-13 - 600, -13 + 600, 240001)
        spec = spectrum_analytic(s, grid)
        total, branches = spectral_areas(spec)
        assert total == pytest.approx(1.0, abs=2e-3)
        assert branches[0] == pytest.approx(total)


class TestConservation:
    def test_bare_decay_budget(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        # a single width-1 Lorentzian needs a wide window before its tails
        # drop below 1e-3; the default span is sized for the driven spectra
        r = conservation_check(s, span_factor=30.0, spacing=0.05)
        assert r.trapped == pytest.approx(0.0, abs=1e-8)
        assert r.defect < 1e-3

    def test_driven_budget_closes(self, rng):
        s = random_admissible_system(rng)
        r = conservation_check(s)
        assert r.emitted_spectral == pytest.approx(r.emitted_dynamic,
                                                   abs=0.05)

    @pytest.mark.parametrize("omega23", [9.0, 40.0])
    def test_unequal_splittings_budget_closes(self, omega23):
        # the grid reaches past the outer branch at +omega23 (0.34 of the
        # emission lies beyond +-2.3 omega12 when omega23 = 40)
        s = replace(preset("fig2-notrapping").system, omega23=omega23)
        assert conservation_check(s).defect < 2e-4

    def test_d1_trapped_budget(self):
        r = conservation_check(preset("d1-trapping").system)
        assert r.trapped == pytest.approx(1.0, abs=1e-6)
        assert r.emitted_spectral == pytest.approx(0.0, abs=1e-6)


class TestCompareSpectra:
    def test_identical_spectra_zero_error(self, rng):
        s = random_admissible_system(rng)
        a = spectrum_analytic(s, np.linspace(-30, 30, 301))
        assert compare_spectra(a, a) == {"max_rel_err": 0.0, "rms_err": 0.0}

    def test_grid_mismatch_rejected(self, rng):
        s = random_admissible_system(rng)
        a = spectrum_analytic(s, np.linspace(-30, 30, 301))
        b = spectrum_analytic(s, np.linspace(-30, 30, 201))
        with pytest.raises(GridMismatch):
            compare_spectra(a, b)

    def test_detects_scaled_curve(self, rng):
        s = random_admissible_system(rng)
        a = spectrum_analytic(s, np.linspace(-30, 30, 301))
        b = spectrum_analytic(s, np.linspace(-30, 30, 301))
        b.total = b.total * 1.5
        metrics = compare_spectra(a, b)
        assert metrics["max_rel_err"] > 0.3


    @staticmethod
    def _relative_floor_only(a, b):
        """compare_spectra with the denominator floored at 1e-3 * peak
        only, without the absolute floor."""
        peak = max(float(np.max(a.total)), float(np.max(b.total)), 1e-300)
        mask = np.maximum(a.total, b.total) > 1e-8 * peak
        num = np.abs(a.total[mask] - b.total[mask])
        den = np.maximum(np.maximum(a.total[mask], b.total[mask]),
                         1e-3 * peak)
        rel = num / den
        return {"max_rel_err": float(np.max(rel)),
                "rms_err": float(np.sqrt(np.mean(rel ** 2)))}

    def test_dark_spectra_compare_near_zero(self):
        # both routes give roundoff spectra (peaks ~1e-29) for the trapped
        # D1 chain; relative to each other they differ by order 1
        s = preset("d1-trapping").system
        grid = np.linspace(-25.0, 25.0, 401)
        a = spectrum_analytic(s, grid)
        b = spectrum_time_domain(s, grid)
        assert max(np.max(a.total), np.max(b.total)) < 1e-20
        assert self._relative_floor_only(a, b)["max_rel_err"] > 0.5
        metrics = compare_spectra(a, b)
        assert metrics["max_rel_err"] < 1e-12
        assert metrics["rms_err"] < 1e-12

    @pytest.mark.parametrize("name", ["fig2-notrapping", "d1-fig3a"])
    def test_lit_spectra_unchanged_by_floor(self, name):
        s = preset(name).system
        grid = np.linspace(-30.0, 30.0, 401)
        a = spectrum_analytic(s, grid)
        b = spectrum_time_domain(s, grid)
        assert compare_spectra(a, b) == self._relative_floor_only(a, b)


class TestD1SpectrumShape:
    def test_trapping_preset_dark(self):
        spec = spectrum_analytic(preset("d1-trapping").system,
                                 np.linspace(-25, 25, 2001))
        assert np.max(spec.total) < 1e-20

    def test_narrowed_doublet(self):
        spec = spectrum_analytic(preset("d1-fig3a").system,
                                 np.linspace(-25, 25, 10001))
        pa = find_peaks(spec)
        assert len(pa.peaks) == 3
        narrowest = min(p.fwhm for p in pa.peaks)
        assert narrowest < 0.2
