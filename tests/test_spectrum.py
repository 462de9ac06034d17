import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_admissible_system
from darkstate import (
    D2System,
    DriveField,
    NotAnalyticAdmissible,
    PoleHit,
    SingularSystem,
    characteristic_quartic,
    coupling_matrix,
    laplace_solve_oracle,
    preset,
    quartic_roots,
    spectrum_analytic,
    steady_state_amplitudes,
)
from darkstate.spectrum import (
    _reconstruct,
    branch_numerator_s,
    branch_shifts,
    quartic_coeffs_s,
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
            q = quartic_coeffs_s(s)
            ref = np.poly(coupling_matrix(s))
            assert np.allclose(q, ref, atol=1e-10)

    def test_c3_is_sum_of_half_rates(self, rng):
        s = random_admissible_system(rng)
        poly = characteristic_quartic(s)
        assert poly.coefficients[1] == pytest.approx(
            -0.5j * sum(s.gamma), abs=1e-12)

    def test_c2_rate_products_plus_drive_powers(self, rng):
        s = random_admissible_system(rng)
        g1, g2, g3 = (g / 2 for g in s.gamma)
        expected = -(g1 * g2 + g1 * g3 + g2 * g3
                     + float(np.sum(np.abs(s.rabi) ** 2)))
        assert characteristic_quartic(s).coefficients[2] == pytest.approx(
            expected, abs=1e-12)

    def test_c0_real_positive_at_trapping_phases(self):
        # with real outer drives the loop term is -2|prod|cos(phi2+phi3),
        # purely real; at phi2+phi3=pi it adds +2|prod|
        s = preset("fig2-trapping").system
        c0 = characteristic_quartic(s).coefficients[4]
        assert abs(c0.imag) < 1e-12
        assert c0.real > 0

    def test_monic_required(self):
        from darkstate import QuarticPoly
        with pytest.raises(ValueError):
            QuarticPoly(coefficients=(2.0, 0, 0, 0, 1.0))


class TestRoots:
    def test_simple_roots_satisfy_polynomial(self, rng):
        for _ in range(10):
            s = random_admissible_system(rng)
            poly = characteristic_quartic(s)
            roots, mults = quartic_roots(poly)
            assert np.all(mults == 1)
            assert np.max(np.abs(poly(roots))) < 1e-8

    def test_degenerate_triple_root_clustered(self):
        # no drives, equal rates: s-roots {-1/2 (x3), 0}; in the detuning
        # variable x = -is the roots are {i/2 (x3), 0}
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="A1")
        roots, mults = quartic_roots(characteristic_quartic(s))
        triple = [r for r, m in zip(roots, mults) if m == 3]
        single = [r for r, m in zip(roots, mults) if m == 1]
        assert len(triple) == 3 and len(single) == 1
        assert triple[0] == pytest.approx(0.5j, abs=1e-9)
        assert single[0] == pytest.approx(0.0, abs=1e-12)

    def test_decaying_roots_upper_half_plane(self, rng):
        # x-roots i*s have nonnegative imaginary part for decaying systems
        for _ in range(10):
            s = random_admissible_system(rng)
            roots, _ = quartic_roots(characteristic_quartic(s))
            assert np.all(roots.imag > -1e-12)


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
            q = quartic_coeffs_s(s)
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

    def test_cross_terms_change_total_not_branches(self, rng):
        s = random_admissible_system(rng)
        grid = np.linspace(-30, 30, 201)
        a = spectrum_analytic(s, grid, include_cross=False)
        b = spectrum_analytic(s, grid, include_cross=True)
        assert np.allclose(a.branch_intensity, b.branch_intensity)
        assert not np.allclose(a.total, b.total)

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
