import dataclasses
import importlib.util
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_admissible_system
from test_text import _peak_bytes
from darkstate import (
    D1System,
    D2System,
    DriveField,
    GridOverflow,
    NonFiniteValue,
    NotAnalyticAdmissible,
    PoleHit,
    SingularSystem,
    SpectrumResult,
    branch_amplitude_numeric,
    compare_spectra,
    conservation_check,
    coupling_matrix,
    d1_fields,
    d1_system,
    fgc_check,
    laplace_solve_oracle,
    preset,
    propagate,
    spectrum_analytic,
    spectrum_time_domain,
    steady_state_amplitudes,
    trapped_fraction,
)
from darkstate import dynamics, spectrum
from darkstate.cli import _apply_sweep_value, _sweep_metric
from darkstate.spectrum import (
    _drive_constants,
    _polyval,
    _quartic,
    _reconstruct,
    _root_clusters,
    branch_numerator_s,
    branch_shifts,
    intensity_rows,
)


class TestCouplingMatrix:
    def test_drive_block_antihermitian(self, rng):
        s = random_admissible_system(rng)
        m = coupling_matrix(s)
        drive = m + np.diag([g / 2 for g in s.gamma] + [0.0])
        assert np.allclose(drive, -drive.conj().T, atol=1e-14)

    def test_population_decay_rate(self, rng):
        # d/dt sum|A|^2 = -sum Gamma_j |A_j|^2 exactly
        s = random_admissible_system(rng)
        m = coupling_matrix(s)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = 2.0 * np.real(np.vdot(v, m @ v))
        rhs = -sum(g * abs(v[j]) ** 2 for j, g in enumerate(s.gamma))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQuarticCoefficients:
    def test_matches_characteristic_polynomial(self, rng):
        for _ in range(20):
            s = random_admissible_system(rng)
            q = _quartic(_drive_constants(s))
            ref = np.poly(coupling_matrix(s))
            assert np.allclose(q, ref, atol=1e-10)

    def test_c3_is_sum_of_half_rates(self, rng):
        s = random_admissible_system(rng)
        assert _quartic(_drive_constants(s))[1] == pytest.approx(
            0.5 * sum(s.gamma), abs=1e-12)

    def test_c2_rate_products_plus_drive_powers(self, rng):
        s = random_admissible_system(rng)
        g1, g2, g3 = (g / 2 for g in s.gamma)
        expected = (g1 * g2 + g1 * g3 + g2 * g3
                    + float(np.sum(np.abs(s.rabi) ** 2)))
        assert _quartic(_drive_constants(s))[2] == pytest.approx(
            expected, abs=1e-12)

    def test_c0_real_positive_at_trapping_phases(self):
        # with real outer drives the loop term is -2|prod|cos(phi2+phi3),
        # purely real; at phi2+phi3=pi it adds +2|prod|
        s = preset("fig2-trapping").system
        q0 = _quartic(_drive_constants(s))[4]
        assert abs(q0.imag) < 1e-12
        assert q0.real > 0


def _undriven_clusters():
    """Root clusters of Q(s) for no drives and equal rates: s-roots
    {-1/2 (x3), 0}; in the detuning variable x = -is they are {i/2 (x3), 0}."""
    s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                 drives=(DriveField(0),) * 4, initial="A1")
    [(clusters, _)] = _root_clusters([_quartic(_drive_constants(s))])
    return clusters


class TestRoots:
    """The root clusters of Q(s) that the spectrum computes its poles from."""

    def test_simple_roots_satisfy_polynomial(self, rng):
        for _ in range(10):
            q = _quartic(_drive_constants(random_admissible_system(rng)))
            [(clusters, _)] = _root_clusters([q])
            assert [len(c) for c in clusters] == [1, 1, 1, 1]
            roots = np.array([c[0] for c in clusters])
            assert np.max(np.abs(_polyval(q, roots))) < 1e-8

    def test_degenerate_triple_root_clustered(self):
        clusters = _undriven_clusters()
        assert sorted(len(c) for c in clusters) == [1, 3]
        single = next(c[0] for c in clusters if len(c) == 1)
        assert single == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the Newton bound of 1e-3 lets Newton step at the triple root and "
        "leaves its mean 8.3e-8 off; one bound and a scale-relative contour "
        "are ROADMAP item 4"))
    def test_degenerate_triple_root_located(self):
        triple = next(c for c in _undriven_clusters() if len(c) == 3)
        assert sum(triple) / 3 == pytest.approx(-0.5, abs=1e-9)

    def test_decaying_roots_upper_half_plane(self, rng):
        # the x-roots -i*s have nonnegative imaginary part for decaying
        # systems: Re(s) <= 0
        for _ in range(10):
            [(clusters, _)] = _root_clusters(
                [_quartic(_drive_constants(random_admissible_system(rng)))])
            assert all(r.real < 1e-12 for c in clusters for r in c)


class TestClosedFormVsLinearSolve:
    def test_cofactors_match_solve_on_random_systems(self, rng):
        deltas = np.linspace(-20, 20, 41) + 0.0137
        for _ in range(25):
            s = random_admissible_system(rng)
            closed = steady_state_amplitudes(s, deltas)
            solved = laplace_solve_oracle(s, deltas)
            for c, v in zip(closed, solved):
                assert np.max(np.abs(c - v) / np.maximum(np.abs(v), 1e-12)) \
                    < 1e-10

    def test_random_initial_vectors_too(self, rng):
        deltas = np.linspace(-5, 5, 11) + 0.0137
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            s = random_admissible_system(rng, initial=v)
            closed = steady_state_amplitudes(s, deltas)
            solved = laplace_solve_oracle(s, deltas)
            for c, w in zip(closed, solved):
                assert np.allclose(c, w, rtol=1e-10, atol=1e-12)

    def test_partially_weighted_initial_vectors(self, rng):
        # initial vectors with 1 to 3 components exactly 0: the closed form
        # skips their cofactors, the oracle solves with the full vector
        deltas = np.linspace(-20, 20, 41) + 0.0137
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v[rng.choice(4, size=rng.integers(1, 4), replace=False)] = 0.0
            v /= np.linalg.norm(v)
            s = random_admissible_system(rng, initial=v)
            closed = steady_state_amplitudes(s, deltas)
            solved = laplace_solve_oracle(s, deltas)
            for c, w in zip(closed, solved):
                assert np.max(np.abs(c - w) / np.maximum(np.abs(w), 1e-12)) \
                    < 1e-10

    def test_pole_hit_raises_on_scalar(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        # branch 2 argument 0 -> s = 0, an exact root of Q when B is stable
        with pytest.raises(PoleHit):
            steady_state_amplitudes(s, 0.0)

    def test_not_admissible_rejected(self):
        s = preset("fig2-trapping").system
        detuned = D2System(gamma=s.gamma, omega12=13, omega23=13,
                           drives=s.drives, detunings=(0.5, 0, 0, 0))
        with pytest.raises(NotAnalyticAdmissible):
            steady_state_amplitudes(detuned, 1.0)


#: chain presets run with unequal splittings, omega23 of 9 and of 17
#: against omega12 = 13
UNEVEN_PRESETS = ("fig2-notrapping", "fig2-trapping", "at-quartet",
                  "autler-townes-doublet", "two-level")
UNEVEN_SPLITTINGS = (9.0, 17.0)


def _uneven_systems():
    """{label: system} of the UNEVEN_PRESETS at each of UNEVEN_SPLITTINGS,
    and of six seeded random draws with omega23 drawn in [5, 20]."""
    systems = {f"{name} omega23={w:g}": replace(preset(name).system,
                                                omega23=w)
               for name in UNEVEN_PRESETS for w in UNEVEN_SPLITTINGS}
    rng = np.random.default_rng(34)
    for k in range(6):
        s = random_admissible_system(rng)
        systems[f"random {k}"] = replace(s, omega23=rng.uniform(5.0, 20.0))
    return systems


def _crosscheck_error():
    """`crosscheck_error` of bench/checks.py: the closed form's largest
    error against the linear solve per branch, relative to the branch's
    amplitude scale, as `validate` measures it."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)  # for its `workloads` import
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_checks", Path(bench) / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module.crosscheck_error


class TestUnequalSplittings:
    """A resonant system free of cross-damping has a constant drift matrix
    whatever its splittings, which enter only the branch shifts: the
    closed form takes it, and agrees with the linear solve and with the
    time-domain route."""

    @pytest.mark.parametrize("label", list(_uneven_systems()))
    def test_closed_form_matches_linear_solve(self, label):
        s = _uneven_systems()[label]
        assert s.omega12 != s.omega23
        deltas = np.linspace(-20.0, 20.0, 101) + 0.0137
        err = _crosscheck_error()(steady_state_amplitudes(s, deltas),
                                  laplace_solve_oracle(s, deltas))
        assert err <= 1e-10

    @pytest.mark.parametrize("label", list(_uneven_systems()))
    def test_closed_form_matches_time_domain(self, label):
        s = _uneven_systems()[label]
        grid = np.linspace(-30.0, 30.0, 1201)
        a = spectrum_analytic(s, grid)
        t = spectrum_time_domain(s, grid)
        assert np.max(np.abs(a.total - t.total)) <= 1e-4 * np.max(a.total)


class TestNumerator:
    def test_linear_in_initial_vector(self, rng):
        # N(A(0)) = sum_k A_k(0) N(e_k): skipping the zero-weight cofactors
        # leaves each weighted term as it was
        s_grid = -1j * (np.linspace(-20, 20, 41) + 0.0137)
        basis = ["A1", "A2", "A3", "B"]
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            s = random_admissible_system(rng, initial=v)
            for branch in (1, 2, 3):
                parts = [branch_numerator_s(replace(s, initial=e), branch,
                                            s_grid) for e in basis]
                expected = sum(a * p for a, p in zip(v, parts))
                scale = np.max(sum(abs(a) * np.abs(p)
                                   for a, p in zip(v, parts)))
                got = branch_numerator_s(s, branch, s_grid)
                assert np.max(np.abs(got - expected)) <= 1e-12 * scale


_GRID11 = np.linspace(-5.0, 5.0, 11)

#: every numeric entry point that takes a system
ENTRY_POINTS = {
    "coupling_matrix": coupling_matrix,
    "quartic_coeffs_s": lambda s: _quartic(_drive_constants(s)),
    "branch_numerator_s": lambda s: branch_numerator_s(s, 2, 0.5j),
    "steady_state_amplitudes": lambda s: steady_state_amplitudes(s, _GRID11),
    "laplace_solve_oracle": lambda s: laplace_solve_oracle(s, _GRID11),
    "spectrum_analytic": lambda s: spectrum_analytic(s, _GRID11),
    "intensity_rows": lambda s: intensity_rows(
        [s, s], _GRID11, (1, 2, 3), lambda grid, rows, lines: (rows, lines)),
    "conservation_check": conservation_check,
    "propagate": propagate,
    "spectrum_time_domain": lambda s: spectrum_time_domain(s, _GRID11),
    "branch_amplitude_numeric": lambda s: branch_amplitude_numeric(
        propagate(s), 2, _GRID11),
    "trapped_fraction": lambda s: trapped_fraction(s, require_plateau=False),
    "trapped_fraction_batch": lambda s: trapped_fraction(
        [s, s], require_plateau=False),
    "fgc_check": fgc_check,
}


@pytest.mark.parametrize("name", ["d1-fig3a", "d1-trapping"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_d1_system_is_its_chain(call, name):
    """A D1 system computes, bit for bit, as the D2System of its fields."""
    d1 = preset(name).system
    assert isinstance(d1, D1System)
    chain = D2System(**{f.name: getattr(d1, f.name)
                        for f in dataclasses.fields(D2System)})
    assert pickle.dumps(call(d1)) == pickle.dumps(call(chain))


class TestOracleSingular:
    """Undriven, the central branch at delta = 0 has s = 0, where the B row
    of sI - M vanishes."""

    @pytest.mark.parametrize("delta", [0.0, np.array([-1.0, 0.0, 2.5])])
    def test_singular_point_is_named(self, delta):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4)
        with pytest.raises(SingularSystem,
                           match=r"at delta=0\.0 \(branch 2\)"):
            laplace_solve_oracle(s, delta)


class TestPoleHits:
    """Undriven from A1, the grid hits a root of Q at delta = 0 (branch 2)
    and at delta = -13 (branch 1, the removable s = 0 root of the B row)."""

    DELTA = np.array([0.0, 0.5, -13.0])
    #: hit[n - 1][k]: branch n hits a pole at DELTA[k]
    HIT = np.array([[False, False, True], [True, False, False],
                    [False, False, False]])

    def test_array_hits_are_inf_and_the_rest_the_scalar_call(self):
        s = preset("two-level").system
        amps = steady_state_amplitudes(s, self.DELTA)
        for vals, hit in zip(amps, self.HIT):
            assert np.all(vals[hit] == np.inf)
            assert np.all(np.isfinite(vals[~hit]))
        for k, delta in enumerate(self.DELTA):
            if self.HIT[:, k].any():
                with pytest.raises(PoleHit):
                    steady_state_amplitudes(s, float(delta))
            else:
                assert steady_state_amplitudes(s, float(delta)) \
                    == tuple(a[k] for a in amps)

    def test_spectrum_fills_the_hits(self):
        s = preset("two-level").system
        amps = np.array(steady_state_amplitudes(s, self.DELTA))
        spec = spectrum_analytic(s, self.DELTA)
        assert np.all(np.isfinite(spec.branch_intensity))
        np.testing.assert_array_equal(
            spec.branch_intensity[~self.HIT],
            (np.abs(amps) ** 2 / (2.0 * np.pi))[~self.HIT])
        # F1 = 1 / (s + Gamma1/2) at s = 0: Gamma1 |F1|^2 / 2 pi = 2 / pi,
        # to the accuracy of the partial fractions at Q's triple root
        assert spec.branch_intensity[0, 2] == pytest.approx(2.0 / np.pi,
                                                            rel=1e-8)


@pytest.mark.parametrize("call", [
    steady_state_amplitudes, laplace_solve_oracle, spectrum_analytic,
    spectrum_time_domain,
    lambda s, grid: spectrum.intensity_rows([s], grid, (2,),
                                            lambda *row: None),
], ids=["steady_state_amplitudes", "laplace_solve_oracle",
        "spectrum_analytic", "spectrum_time_domain", "intensity_rows"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_detuning_is_rejected(call, bad):
    """A NaN or infinite detuning raises NonFiniteValue naming it, before
    any arithmetic could warn (RuntimeWarnings are errors here)."""
    s = preset("fig2-notrapping").system
    for grid in ([bad, 0.0, 1.0], np.array([0.0, 1.0, bad]), bad):
        with pytest.raises(NonFiniteValue, match=f"detuning {bad} "):
            call(s, grid)


@pytest.mark.parametrize("call", [
    steady_state_amplitudes, laplace_solve_oracle, spectrum_analytic,
    spectrum_time_domain,
    lambda s, grid: [branch_amplitude_numeric(propagate(s), n, grid)
                     for n in (1, 2, 3)],
    lambda s, grid: compare_spectra(spectrum_analytic(s, grid),
                                    spectrum_analytic(s, grid)),
], ids=["steady_state_amplitudes", "laplace_solve_oracle",
        "spectrum_analytic", "spectrum_time_domain",
        "branch_amplitude_numeric", "compare_spectra"])
def test_empty_grid_gives_empty_results(call):
    """An empty grid gives three empty amplitudes or branch rows on either
    route, and two empty spectra compare as carrying no signal."""
    got = call(preset("fig2-notrapping").system, [])
    if isinstance(got, dict):
        assert got == {"max_rel_err": 0.0, "rms_err": 0.0}
    elif isinstance(got, SpectrumResult):
        assert got.grid.shape == got.total.shape == (0,)
        assert got.branch_intensity.shape == (3, 0)
    else:
        assert np.shape(got) == (3, 0)


def test_empty_time_domain_grid_takes_no_run(monkeypatch):
    """spectrum_time_domain returns the empty rows of an empty grid before
    any integration, on either kernel."""
    def no_run(*args, **kwargs):
        raise AssertionError("integrated for an empty grid")

    for kernel in ("solve_ivp", "operator_runs", "window_means"):
        monkeypatch.setattr(dynamics, kernel, no_run)
    runs = []
    got = spectrum_time_domain(preset("fig2-notrapping").system, [],
                               runs=runs)
    assert got.branch_intensity.shape == (3, 0)
    assert runs == []


_WRONG_ZERO = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8's defect 2, a wrong zero at a "
                        "removable pole; item 12's pole-based hit test")


@pytest.mark.parametrize("c", [1.0, 0.5, pytest.param(0.1, marks=_WRONG_ZERO),
                               pytest.param(0.01, marks=_WRONG_ZERO)])
def test_scaled_d1_centre(c):
    """d1-fig3a with its rate and field magnitudes, and its grid, scaled by
    c: c I(delta = 0) is 1/(2 pi) at every c, a removable pole where Q's
    constant term cancels, and its neighbours read 0.1513.  At c = 0.1 and
    0.01 that term cancels to an ulp, not 0, so no pole hit is found and
    N/Q gives 0."""
    s = preset("d1-fig3a").system
    fields = [DriveField(f.magnitude * c, f.phase) for f in d1_fields(s)]
    grid = c * np.linspace(-30.0, 30.0, 601)
    assert grid[300] == 0.0
    total = c * spectrum_analytic(d1_system(c * s.gamma[1], *fields),
                                  grid).total
    assert total[300] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)
    assert total[[299, 301]] == pytest.approx(0.151284229754678, rel=1e-12)


class TestZeroDimensionalDetuning:
    """A 0-d array detuning is a scalar, as a float is."""

    def test_pole_hit_raises(self):
        with pytest.raises(PoleHit):
            steady_state_amplitudes(preset("two-level").system,
                                    np.array(0.0))

    @pytest.mark.parametrize("call", [steady_state_amplitudes,
                                      laplace_solve_oracle])
    def test_same_complex_as_the_float(self, call):
        s = preset("fig2-notrapping").system
        got = call(s, np.array(0.3))
        assert all(type(f) is complex for f in got)
        assert repr(got) == repr(call(s, 0.3))


class TestTrivialSpectra:
    def test_bare_decay_transform(self):
        # no drives, initial A1: F1 = 1/(-i x + Gamma1/2) at branch-local x
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        x = 0.7
        f1, f2, f3 = steady_state_amplitudes(s, x - 13.0)  # branch 1 arg = x
        assert f1 == pytest.approx(1.0 / (-1j * x + 0.5), rel=1e-12)
        assert f2 == 0 and f3 == 0

    def test_initial_b_dark_without_drives(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="B")
        spec = spectrum_analytic(s, np.linspace(-30, 30, 301))
        assert np.max(spec.total) == 0.0

    def test_two_level_lorentzian_curve(self):
        s = preset("two-level").system
        grid = np.linspace(-20, -6, 1401)
        spec = spectrum_analytic(s, grid)
        x = grid + 13.0
        lorentz = (1.0 / (2 * np.pi)) / (x ** 2 + 0.25)
        assert np.allclose(spec.total, lorentz, rtol=1e-8, atol=1e-15)

    def test_single_decaying_state_central_branch(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A2")
        grid = np.linspace(-5, 5, 501)
        spec = spectrum_analytic(s, grid)
        lorentz = (1.0 / (2 * np.pi)) / (grid ** 2 + 0.25)
        assert np.allclose(spec.branch_intensity[1], lorentz, rtol=1e-12)
        assert np.max(spec.branch_intensity[0]) == 0.0
        assert np.max(spec.branch_intensity[2]) == 0.0


class TestPoleResidueDecomposition:
    def test_reconstruction_matches_direct_evaluation(self, rng):
        grid = np.linspace(-25, 25, 401) + 0.003
        for _ in range(10):
            s = random_admissible_system(rng)
            spec = spectrum_analytic(s, grid)
            q = _quartic(_drive_constants(s))
            for branch, (terms, shift) in enumerate(
                    zip(spec.branch_poles, branch_shifts(s)), start=1):
                x = grid + shift
                direct = branch_numerator_s(s, branch, -1j * x.astype(complex))
                direct = direct / np.polyval(q, -1j * x.astype(complex))
                recon = _reconstruct(terms, grid)
                scale = np.max(np.abs(direct)) + 1e-300
                assert np.max(np.abs(recon - direct)) / scale < 1e-8

    def test_degenerate_system_finite_spectrum(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        grid = np.linspace(-30, 30, 601)  # includes exact pole hits
        spec = spectrum_analytic(s, grid)
        assert np.all(np.isfinite(spec.total))
        x = grid + 13.0
        lorentz = (1.0 / (2 * np.pi)) / (x ** 2 + 0.25)
        assert np.allclose(spec.total, lorentz, rtol=1e-6, atol=1e-12)

    def test_pole_count_is_four_per_branch(self, rng):
        s = random_admissible_system(rng)
        spec = spectrum_analytic(s, np.linspace(-30, 30, 61))
        for terms in spec.branch_poles:
            assert len(terms) == 4

    def test_trapped_flag_on_real_axis_pole(self):
        # stable B with no drives leaves an undamped s=0 mode
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        spec = spectrum_analytic(s, np.linspace(-30, 30, 61))
        flags = [t.trapped for t in spec.branch_poles[0]]
        assert any(flags)


class TestSpectrumProperties:
    def test_branch_shift_convention(self, rng):
        # branch n evaluated at delta is branch-local x = delta + shift
        s = random_admissible_system(rng)
        delta = 1.3
        f = steady_state_amplitudes(s, delta)
        spec = spectrum_analytic(s, np.array([delta]))
        for n in range(3):
            expected = s.gamma[n] * abs(f[n]) ** 2 / (2 * np.pi)
            assert spec.branch_intensity[n][0] == pytest.approx(expected,
                                                                rel=1e-12)

    def test_intensity_nonnegative(self, rng):
        s = random_admissible_system(rng)
        spec = spectrum_analytic(s, np.linspace(-30, 30, 501))
        assert np.all(spec.branch_intensity >= 0)
        assert np.all(spec.total >= 0)


# rates of 0.5 or 1 are often equal and missing drives decouple levels, so
# the draws hit confluent roots and undamped (real-axis) poles
_RATES = st.one_of(st.just(0.5), st.just(1.0), st.floats(0.3, 2.0))
_DRIVES = st.builds(
    lambda off, mag, phase: DriveField(0.0 if off else mag, phase),
    st.integers(0, 4).map(lambda k: k < 2),  # zeroed with probability 0.4
    st.floats(0.0, 2.5), st.floats(0.0, 2.0 * np.pi))
_SYSTEMS = st.builds(
    lambda gamma, drives, initial: D2System(
        gamma=gamma, omega12=13.0, omega23=13.0, drives=drives,
        initial=initial),
    st.tuples(_RATES, _RATES, _RATES), st.tuples(*[_DRIVES] * 4),
    st.sampled_from(["A1", "A2", "A3", "B"]))


class TestClosedFormProperties:
    """The closed-form core against the linear-solve oracle on systems with
    confluent roots and trapped poles."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_SYSTEMS)
    @example(D2System(
        gamma=(0.5, 0.5, 0.5), omega12=13.0, omega23=13.0,
        drives=(DriveField(0.0), DriveField(0.0), DriveField(1.2e-7, 2.2),
                DriveField(1.2e-7, 2.2)), initial="A3")).xfail(
        raises=AssertionError,
        reason="near-triple root: Q ~ r**3 on the r = 1e-3 contour carries "
               "~1e-7 relative roundoff, so the weakly lit branch 2 misses "
               "by 3.6e-8")
    def test_closed_form_core_matches_oracle(self, s):
        grid = np.linspace(-30, 30, 601)  # includes exact pole hits
        spec = spectrum_analytic(s, grid)
        assert np.all(np.isfinite(spec.branch_intensity))

        off = grid + 0.0137
        amps = laplace_solve_oracle(s, off)
        expected = np.array([g * np.abs(f) ** 2 / (2 * np.pi)
                             for g, f in zip(s.gamma, amps)])
        peak = max(float(np.max(expected)), 1e-300)
        got = spectrum_analytic(s, off).branch_intensity
        assert np.max(np.abs(got - expected)) <= 1e-12 * peak

        # amplitudes of a normalized state are O(1/Gamma): below 1e-12 of
        # that (or of the brightest branch) a branch is dark, roundoff or
        # underflow in both routes
        overall = max(max(float(np.max(np.abs(f))) for f in amps), 1.0)
        for terms, f in zip(spec.branch_poles, amps):
            scale = float(np.max(np.abs(f)))
            if scale <= 1e-12 * overall:
                continue
            recon = _reconstruct(terms, off)
            assert np.max(np.abs(recon - f)) <= 1e-8 * scale


@pytest.mark.parametrize("call", [
    steady_state_amplitudes, spectrum_analytic,
    lambda s, grid: intensity_rows([s], grid, (2,), lambda *row: None),
], ids=["steady_state_amplitudes", "spectrum_analytic", "intensity_rows"])
def test_overflowing_grid_is_rejected(call):
    """GridOverflow where the scale of Q's terms at max|delta + shift| is
    not finite, before Q is evaluated on the grid (RuntimeWarnings are
    errors here); the grids just inside stay finite."""
    s = preset("fig2-notrapping").system
    with pytest.raises(GridOverflow, match=r"\|delta \+ shift\| = 1e\+300"):
        call(s, np.array([-1e300, 0.0, 1e300]))
    with pytest.raises(GridOverflow, match=r"= 1\.3e\+77,"):
        call(s, np.array([0.0, 1.3e77 - 13.0]))
    spec = spectrum_analytic(s, np.array([-1e76, 0.0, 1e76]))
    assert np.all(np.isfinite(spec.total))


#: the budgets of the traced peaks below: each measured peak plus 10%,
#: rounded up to 10 kB
SPECTRUM_PEAK = 0.6e6  # measured 0.542 MB
SWEEP_PEAK = 0.67e6  # measured 0.603 MB


def test_spectrum_memory():
    """A 6001-point spectrum peaks at 0.54 MB of traced allocations: each
    branch's arithmetic runs in place, its intensity row is filled as soon
    as its amplitude is known, and no (3, N) complex amplitude array is
    built (the out-of-place kernel peaked at 1.27 MB; with the three
    amplitudes held until the rows were filled, 0.79 MB)."""
    system = preset("fig2-notrapping").system
    grid = np.linspace(-30.0, 30.0, 6001)
    assert _peak_bytes(lambda: spectrum_analytic(system, grid)) <= \
        SPECTRUM_PEAK


def test_intensity_rows_memory():
    """The three rows of a 6001-point sweep value peak at 0.54 MB: each is
    filled as soon as its amplitude is known (allocated while the first
    branch was still to be evaluated, with every amplitude held, they
    peaked at 0.93 MB)."""
    system = preset("fig2-notrapping").system
    grid = np.linspace(-30.0, 30.0, 6001)
    assert _peak_bytes(lambda: intensity_rows(
        [system], grid, (1, 2, 3), lambda *row: None)) <= SPECTRUM_PEAK


def test_sweep_batch_memory():
    """A 61-value, 6001-point total_area sweep, one batch, peaks at
    0.60 MB, 15 kB above one value: only the quartics and roots are kept
    per value (about 0.5 kB each), not a grid-length array (48 kB per
    float row).  Caching the three branch arguments s for the
    whole batch would add 0.19 MB, so only their max|s| is kept."""
    system = preset("fig2-notrapping").system
    grid = np.linspace(-30.0, 30.0, 6001)

    def batch(count):
        systems = [_apply_sweep_value(system, "mag2", v)
                   for v in np.linspace(0.0, 2.5, count)]
        return _peak_bytes(lambda: _sweep_metric(systems, "total_area",
                                                 grid))
    one, many = batch(1), batch(61)
    assert many <= SWEEP_PEAK
    assert many - one <= 0.05e6, (one, many)
