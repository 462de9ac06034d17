import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_admissible_system
from darkstate import (
    D2System,
    DivisionByZeroDrive,
    DriveField,
    NonFiniteValue,
    d1_fields,
    d1_system,
    d1_trapping_check,
    fgc_check,
    fgc_solve,
    preset,
    spectrum_analytic,
)
from darkstate.spectrum import _drive_constants, _quartic, branch_numerator_s


def _central_numerator(s, deltas):
    """The central branch's cofactor numerator, which the spectrum divides."""
    return branch_numerator_s(s, 2, -1j * np.asarray(deltas))


class TestSgcInfeasibility:
    """The shared-vacuum route would need the characteristic quartic's
    constant term to vanish; its real part is bounded below by
    g1 g2 |O4|^2 + g2 g3 |O1|^2 + (|O2 O4| - |O1 O3|)^2, with g = Gamma/2."""

    def test_constant_term_positive_on_random_systems(self, rng):
        for _ in range(200):
            s = random_admissible_system(rng)
            c0 = _quartic(_drive_constants(s))[4]
            g1, g2, g3 = (g / 2.0 for g in s.gamma)
            o1, o2, o3, o4 = np.abs(s.rabi)
            bound = (g1 * g2 * o4 ** 2 + g2 * g3 * o1 ** 2
                     + (o2 * o4 - o1 * o3) ** 2)
            if o2 * o4 > 0 or o1 * o3 > 0:
                assert c0.real > 0
            assert c0.real >= bound - 1e-9

    def test_trivial_case_flagged(self):
        # undriven, the term vanishes trivially: there is nothing to trap
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4)
        assert _quartic(_drive_constants(s))[4] == 0


class TestFgcCondition:
    def test_trapping_preset_satisfied(self):
        rep = fgc_check(preset("fig2-trapping").system)
        assert rep.satisfied
        assert abs(rep.magnitude_condition) < 1e-12
        assert abs(rep.phase_condition) < 1e-12
        assert rep.gamma_condition == 0.0

    def test_notrapping_preset_phase_residual(self):
        rep = fgc_check(preset("fig2-notrapping").system)
        assert not rep.satisfied
        # phi2 + phi3 = 2 pi, so the wrapped distance from pi is pi
        assert abs(rep.phase_condition) == pytest.approx(math.pi, abs=1e-12)

    def test_numerator_vanishes_under_condition(self):
        s = preset("fig2-trapping").system
        deltas = np.linspace(-40, 40, 1001)
        residual = np.abs(_central_numerator(s, deltas))
        assert np.max(residual) < 1e-12

    def test_numerator_nonzero_otherwise(self):
        s = preset("fig2-notrapping").system
        assert abs(_central_numerator(s, 0.7)) > 0.1

    def test_report_residuals_are_the_numerator(self):
        # N(delta) = i delta * delta_coefficient_residual + constant_residual
        # is the cofactor up to sign and delta -> -delta
        for name in ("fig2-trapping", "fig2-notrapping", "at-quartet"):
            s = preset(name).system
            rep = fgc_check(s)
            deltas = np.linspace(-5.0, 5.0, 11)
            n = (1j * deltas * rep.delta_coefficient_residual
                 + rep.constant_residual)
            np.testing.assert_allclose(_central_numerator(s, -deltas), -n,
                                       rtol=0, atol=1e-14)

    def test_magnitude_imbalance_detected(self):
        s = preset("fig2-trapping").system
        drives = list(s.drives)
        drives[3] = DriveField(2.5, 0.0)
        rep = fgc_check(s.with_drives(drives))
        assert not rep.satisfied
        assert rep.magnitude_condition != 0.0

    def test_rate_imbalance_detected(self):
        s = preset("fig2-trapping").system
        uneven = D2System(gamma=(1.0, 1.0, 1.4), omega12=13, omega23=13,
                          drives=s.drives)
        rep = fgc_check(uneven)
        assert not rep.satisfied
        assert rep.gamma_condition == pytest.approx(-0.4)


class TestFgcSolve:
    def test_preset_completion(self):
        drives = fgc_solve(2.0, 1.0, 1.0, math.pi)
        assert drives[3].magnitude == pytest.approx(2.0)
        assert drives[2].phase == pytest.approx(0.0, abs=1e-12)

    def test_zero_inner_drive_rejected(self):
        with pytest.raises(DivisionByZeroDrive):
            fgc_solve(2.0, 1.0, 0.0, math.pi)

    @settings(max_examples=50, deadline=None)
    @given(
        m1=st.floats(0.1, 3.0), m2=st.floats(0.1, 3.0),
        m3=st.floats(0.1, 3.0),
        phi2=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    def test_solved_fields_always_satisfy_condition(self, m1, m2, m3, phi2):
        drives = fgc_solve(m1, m2, m3, phi2)
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13, drives=drives)
        rep = fgc_check(s)
        assert rep.satisfied

    def test_solved_system_has_dark_central_branch(self):
        drives = fgc_solve(1.3, 0.8, 0.6, 2.1)
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13, drives=drives)
        spec = spectrum_analytic(s, np.linspace(-30, 30, 601))
        peak = np.max(spec.total)
        assert np.max(spec.branch_intensity[1]) < 1e-20 * peak


class TestOverflow:
    # finite drives whose products overflow raise, as the quartic does,
    # instead of reporting NaN or infinite residuals
    def test_fgc_solve(self):
        with pytest.raises(NonFiniteValue):
            fgc_solve(1e200, 1e200, 1e-300, 0.0)

    def test_fgc_check(self):
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(1e300), DriveField(1e300, math.pi),
                             DriveField(1e-300), DriveField(1)))
        with pytest.raises(NonFiniteValue):
            fgc_check(s)

    def test_d1_trapping_check(self):
        _, optical2, _, microwave2 = d1_fields(preset("d1-trapping").system)
        huge = d1_system(1.0, DriveField(1e300), optical2, DriveField(1e300),
                         microwave2)
        with pytest.raises(NonFiniteValue):
            d1_trapping_check(huge)


class TestD1Trapping:
    def test_trapping_presets_satisfied(self):
        for name in ("d1-trapping", "d1-fig3c", "d1-fig3f"):
            assert d1_trapping_check(preset(name).system).satisfied

    def test_non_trapping_presets_rejected(self):
        for name in ("d1-fig3a", "d1-fig3b", "d1-fig3d", "d1-fig3e"):
            assert not d1_trapping_check(preset(name).system).satisfied

    def test_magnitude_break_detected(self):
        optical1, *rest = d1_fields(preset("d1-trapping").system)
        broken = d1_system(1.0, DriveField(optical1.magnitude * 1.01,
                                           optical1.phase), *rest)
        assert not d1_trapping_check(broken).satisfied

    def test_condition_equals_chain_central_numerator(self):
        # the D1 condition is the chain's central-branch numerator at work:
        # satisfied iff its chain spectrum is identically zero
        s = preset("d1-trapping").system
        deltas = np.linspace(-20, 20, 101)
        residual = np.abs(_central_numerator(s, deltas))
        # gamma1 != gamma3 plays no role here since both are zero
        assert np.max(residual) < 1e-12


class TestGaugeInvariance:
    def test_phase_shift_pair_leaves_spectrum_unchanged(self, rng):
        grid = np.linspace(-30, 30, 301)
        for _ in range(5):
            s = random_admissible_system(rng)
            alpha = rng.uniform(0, 2 * math.pi)
            drives = list(s.drives)
            drives[1] = DriveField(drives[1].magnitude,
                                   drives[1].phase + alpha)
            drives[2] = DriveField(drives[2].magnitude,
                                   drives[2].phase - alpha)
            shifted = s.with_drives(drives)
            a = spectrum_analytic(s, grid)
            b = spectrum_analytic(shifted, grid)
            scale = np.max(a.total) + 1e-300
            assert np.max(np.abs(a.total - b.total)) / scale < 1e-10
