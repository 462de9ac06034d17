import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from darkstate import (
    D1System,
    D2System,
    DriveField,
    NonPositiveRate,
    UnknownPreset,
    analytic_admissible,
    d1_fields,
    d1_system,
    preset,
    preset_names,
    scenario_from_dict,
    scenario_to_dict,
    validate_system,
)
from darkstate.model import wrap_phase, wrap_signed


class TestDriveField:
    def test_amplitude_real_when_phase_zero(self):
        assert DriveField(2.0).amplitude == 2.0 + 0.0j

    def test_amplitude_carries_phase(self):
        d = DriveField(1.5, math.pi / 3)
        assert d.amplitude == pytest.approx(1.5 * np.exp(1j * math.pi / 3))

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            DriveField(-1.0)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_phase_wrapped_into_range(self, phi):
        d = DriveField(1.0, phi)
        assert 0.0 <= d.phase < 2.0 * math.pi
        assert d.amplitude == pytest.approx(np.exp(1j * phi), abs=1e-12)


@given(st.floats(-100, 100, allow_nan=False))
def test_wrap_signed_range_and_consistency(phi):
    w = wrap_signed(phi)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(phi), abs=1e-9)
    assert wrap_phase(phi) == pytest.approx(wrap_phase(w), abs=1e-9) or \
        abs(wrap_phase(phi) - wrap_phase(w)) == pytest.approx(2 * math.pi, abs=1e-9)


class TestValidation:
    def test_valid_system_passes(self, rng):
        from conftest import random_admissible_system
        s = random_admissible_system(rng)
        assert not validate_system(s)
        assert analytic_admissible(s)

    def test_nonpositive_rate_flagged(self):
        s = preset("two-level").system
        bad = D2System(gamma=(0.0, 1.0, 1.0), omega12=13, omega23=13,
                       drives=s.drives, initial="A1")
        errors = validate_system(bad)
        assert errors
        assert isinstance(errors[0], NonPositiveRate)

    def test_alignment_out_of_range_flagged(self):
        s = preset("two-level").system
        bad = D2System(gamma=s.gamma, omega12=13, omega23=13, drives=s.drives,
                       alignments=(1.5, 0.0, 0.0), initial="A1")
        assert validate_system(bad)

    def test_unnormalized_initial_flagged(self):
        s = preset("two-level").system
        bad = D2System(gamma=s.gamma, omega12=13, omega23=13, drives=s.drives,
                       initial=[0.5, 0, 0, 0])
        assert validate_system(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_flagged(self, bad):
        s = preset("two-level").system
        for kwargs in ({"gamma": (bad, 1.0, 1.0)}, {"omega23": bad},
                       {"detunings": (bad, 0, 0, 0)},
                       {"alignments": (bad, 0, 0)},
                       {"drives": (DriveField(bad),) + s.drives[1:]}):
            fields = dict(gamma=s.gamma, omega12=13, omega23=13,
                          drives=s.drives, initial="A1")
            fields.update(kwargs)
            assert validate_system(D2System(**fields)), kwargs

    def test_d1_invariants_flagged(self):
        s = preset("d1-fig3a").system
        optical1, _, microwave1, microwave2 = d1_fields(s)
        assert not validate_system(s)
        for bad, message in (
                (d1_system(-1.0, *d1_fields(s)), "Gamma = -1.0"),
                (d1_system(1.0, optical1, DriveField(math.nan), microwave1,
                           microwave2), "field 2"),
                (d1_system(1.0, *d1_fields(s), initial=[1, 1, 0, 0]),
                 "norm")):
            (error,) = validate_system(bad)
            assert message in str(error)

    def test_detuned_system_not_analytic_admissible(self):
        s = preset("fig2-trapping").system
        detuned = D2System(gamma=s.gamma, omega12=13, omega23=13,
                           drives=s.drives, detunings=(0.5, 0, 0, 0))
        assert not analytic_admissible(detuned)
        assert not validate_system(detuned)  # still a valid system

    def test_unequal_splittings_admissible(self):
        # resonant and free of cross-damping: the drift matrix is constant
        s = preset("fig2-trapping").system
        uneven = D2System(gamma=s.gamma, omega12=13, omega23=14,
                          drives=s.drives)
        assert analytic_admissible(uneven)


class TestPresets:
    def test_registry_names(self):
        names = preset_names()
        assert "fig2-trapping" in names and "d1-trapping" in names

    def test_unknown_preset_raises(self):
        with pytest.raises(UnknownPreset):
            preset("not-a-preset")

    def test_preset_deterministic(self):
        a = preset("fig2-trapping").system
        b = preset("fig2-trapping").system
        assert a == b

    def test_fig2_trapping_caption_values(self):
        s = preset("fig2-trapping").system
        mags = [d.magnitude for d in s.drives]
        assert mags == [2.0, 1.0, 1.0, 2.0]
        assert s.drives[1].phase == pytest.approx(math.pi)
        assert s.drives[2].phase == 0.0
        assert s.gamma == (1.0, 1.0, 1.0)
        assert s.omega12 == 13.0

    def test_two_level_only_first_rate_relevant(self):
        s = preset("two-level").system
        assert all(d.magnitude == 0.0 for d in s.drives)
        assert s.initial == "A1"


class TestD1Chain:
    def test_central_state_carries_the_loss(self):
        s = d1_system(0.7, *(DriveField(1.0),) * 4)
        assert isinstance(s, D2System)
        assert s.gamma == (0.0, 0.7, 0.0)

    def test_drive_assignment(self):
        fields = (DriveField(0.5, 0.3), DriveField(0.7, 0.2), DriveField(0.9),
                  DriveField(1.1))
        s = d1_system(1.0, *fields)
        o1, o2, m1, m2 = fields
        assert s.drives == (m2, o2, o1, m1)
        assert d1_fields(s) == fields

    def test_chain_is_analytic_admissible(self):
        assert analytic_admissible(preset("d1-fig3a").system)


class TestScenarioSchema:
    def test_d2_round_trip(self, rng):
        from conftest import random_admissible_system
        s = random_admissible_system(rng)
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_d1_round_trip(self):
        s = preset("d1-fig3d").system
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.mark.parametrize("initial", ["A2", [0.6, 0.0, 0.8j, 0.0]])
    def test_d1_initial_state_round_trip(self, initial):
        # the initial state is part of a D1 scenario's provenance
        s = d1_system(1.0, *(DriveField(m, p) for m, p in (
            (0.5, 0.3), (0.7, 1.9), (0.9, 4.0), (1.1, 5.5))), initial=initial)
        data = json.loads(json.dumps(scenario_to_dict(s)))
        assert data != scenario_to_dict(d1_system(1.0, *d1_fields(s)))
        back = scenario_from_dict(data)
        assert isinstance(back, D1System)
        assert back.drives == s.drives
        assert np.array_equal(back.initial_vector(), s.initial_vector())

    def test_vector_initial_round_trip(self):
        s = preset("fig2-trapping").system
        v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        s2 = D2System(gamma=s.gamma, omega12=13, omega23=13, drives=s.drives,
                      initial=v)
        data = json.loads(json.dumps(scenario_to_dict(s2)))
        back = scenario_from_dict(data)
        assert np.allclose(back.initial_vector(), v)

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"system": "d3"})
        with pytest.raises(ValueError):
            scenario_from_dict({"system": "d2", "gamma": [1, 1, 1],
                                "fields": []})

    def test_file_round_trip(self, tmp_path):
        from darkstate import load_scenario, save_scenario
        s = preset("fig2-notrapping").system
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        assert load_scenario(path) == s
