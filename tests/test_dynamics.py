import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from conftest import random_admissible_system
from darkstate import (
    D2System,
    DriveField,
    StepSizeUnderflow,
    branch_amplitude_numeric,
    d1_to_chain,
    preset,
    propagate,
    spectrum_analytic,
    spectrum_time_domain,
    steady_state_amplitudes,
    trapped_fraction,
)
from darkstate import dynamics
from darkstate.analysis import compare_spectra
from darkstate.cli import main
from darkstate.dynamics import _filon_linear, _filon_weights


def _bare(initial, gamma=(1.0, 1.0, 1.0)):
    return D2System(gamma=gamma, omega12=13, omega23=13,
                    drives=(DriveField(0),) * 4, initial=initial)


class TestPropagate:
    def test_stable_ground_state(self):
        traj = propagate(_bare("B"), t_final=20.0)
        assert np.allclose(traj.amps[:, 3], 1.0, atol=1e-9)
        assert np.allclose(traj.amps[:, :3], 0.0, atol=1e-9)

    def test_pure_exponential_decay(self):
        traj = propagate(_bare("A1"), t_final=10.0)
        assert np.allclose(np.abs(traj.amps[:, 0]) ** 2,
                           np.exp(-traj.times), atol=1e-7)

    def test_two_state_rabi_oscillation(self):
        s = D2System(gamma=(0, 0, 0), omega12=13, omega23=13,
                     drives=(DriveField(1.0), DriveField(0), DriveField(0),
                             DriveField(0)), initial="B")
        traj = propagate(s, t_final=10.0)
        assert np.allclose(np.abs(traj.amps[:, 0]) ** 2,
                           np.sin(traj.times) ** 2, atol=1e-7)
        assert np.allclose(np.abs(traj.amps[:, 3]) ** 2,
                           np.cos(traj.times) ** 2, atol=1e-7)

    def test_norm_never_grows(self, rng):
        s = random_admissible_system(rng)
        traj = propagate(s, t_final=30.0)
        norms = traj.norm()
        assert np.all(np.diff(norms) <= 1e-10)

    def test_bad_t_final_rejected(self):
        with pytest.raises(ValueError):
            propagate(_bare("B"), t_final=0.0)

    def test_detuned_path_matches_resonant_at_zero_detuning(self, rng):
        # force the general right-hand side with explicit zero detunings
        # by constructing an equivalent system through nonzero-then-zero
        s = random_admissible_system(rng)
        s_det = D2System(gamma=s.gamma, omega12=s.omega12, omega23=s.omega23,
                         drives=s.drives, detunings=(0, 0, 0, 0),
                         alignments=(0, 0, 0))
        a = propagate(s, t_final=5.0)
        b = propagate(s_det, t_final=5.0)
        assert np.allclose(a.amps, b.amps, atol=1e-9)


def _reference_weights(theta):
    def integral(f):
        return quad(lambda u: f(u).real, 0, 1)[0] + \
            1j * quad(lambda u: f(u).imag, 0, 1)[0]
    return (integral(lambda u: np.exp(1j * theta * u)),
            integral(lambda u: u * np.exp(1j * theta * u)))


def _damped_trajectory(rng, times):
    rates = rng.uniform(0.2, 1.0, 4) + 1j * rng.uniform(-15.0, 15.0, 4)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    return np.exp(-np.outer(times, rates)) @ coeffs


class TestFilonQuadrature:
    def test_weights_match_reference_integrals(self):
        for theta in (3.0, 0.3, 1e-3, 1e-6, 0.0):
            w0, w1 = _filon_weights(theta)
            ref0, ref1 = _reference_weights(theta)
            assert w0 == pytest.approx(ref0, abs=1e-12)
            assert w1 == pytest.approx(ref1, abs=1e-12)
        # one array call, real and complex, on both sides of the series
        # threshold |theta| = 1e-2
        thetas = np.array([9.9e-3, 1.01e-2, -9.9e-3, -1.01e-2,
                           7e-3 + 7e-3j, 8e-3 + 8e-3j, 1e-3j, 0.4 + 1e-3j,
                           -2.5 + 0.3j, 0.0])
        w0, w1 = _filon_weights(thetas)
        assert w0.shape == w1.shape == thetas.shape
        for theta, got0, got1 in zip(thetas, w0, w1):
            ref0, ref1 = _reference_weights(theta)
            assert got0 == pytest.approx(ref0, abs=1e-12)
            assert got1 == pytest.approx(ref1, abs=1e-12)

    def test_chirp_z_matches_direct_sum(self, rng, monkeypatch):
        times = np.linspace(0.0, 60.0, 6001)
        vals = _damped_trajectory(rng, times)
        chirp_calls = []
        chirp_z = dynamics._chirp_z
        monkeypatch.setattr(dynamics, "_chirp_z",
                            lambda *a: chirp_calls.append(a) or chirp_z(*a))
        base = np.linspace(-30.0, 30.0, 1201)
        for x in (base + 13.0, base - 13.0, base + 1e-3j):
            fast = _filon_linear(times, vals, x)
            assert len(chirp_calls) == 1
            # a shuffled grid is not uniform: summed directly
            perm = rng.permutation(len(x))
            direct = np.empty_like(fast)
            direct[perm] = _filon_linear(times, vals, x[perm])
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(fast - direct)) / scale < 1e-10
            for k in (0, 457, 1200):
                scalar = _filon_linear(times, vals, x[k])
                assert isinstance(scalar, complex)
                assert abs(scalar - fast[k]) / scale < 1e-10
            assert len(chirp_calls) == 1
            chirp_calls.clear()

    def test_transform_of_decaying_exponential(self):
        # integral_0^T e^{ixt} e^{-t/2} dt, T large -> 1/(1/2 - ix)
        times = np.linspace(0, 60, 6001)
        vals = np.exp(-0.5 * times).astype(complex)
        for x in (0.0, 1.7, -8.3):
            got = _filon_linear(times, vals, x)
            assert got == pytest.approx(1.0 / (0.5 - 1j * x), rel=1e-5)


class TestBranchAmplitudes:
    def test_bare_decay_transform(self):
        got = branch_amplitude_numeric(_bare("A1"), 1, 0.7)
        assert got == pytest.approx(1.0 / (-1j * 0.7 + 0.5), rel=1e-6)

    def test_dark_branches_zero(self):
        for branch in (2, 3):
            got = branch_amplitude_numeric(_bare("A1"), branch, 0.4)
            assert abs(got) < 1e-9

    def test_matches_analytic_oracle(self, rng):
        s = random_admissible_system(rng)
        deltas = np.linspace(-10, 10, 9) + 0.0137
        analytic = steady_state_amplitudes(s, deltas)
        traj = propagate(s, 60.0)
        for branch, sign in zip((1, 2, 3), (1, 0, -1)):
            local = deltas + sign * s.omega12
            numeric = branch_amplitude_numeric(s, branch, local,
                                               trajectory=traj)
            scale = np.max(np.abs(analytic[branch - 1])) + 1e-300
            assert np.max(np.abs(numeric - analytic[branch - 1])) / scale \
                < 1e-5

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValueError):
            branch_amplitude_numeric(_bare("A1"), 4, 0.0)

    def test_trapped_component_damped_transform(self):
        # stable population (all drives zero, initial B): transform of the
        # constant trapped amplitude must come out ~0 for the decaying part
        got = branch_amplitude_numeric(_bare("B"), 1, 0.5, t_final=20.0)
        assert abs(got) < 1e-6


class TestTrappedFraction:
    def test_stable_ground_state_is_one(self):
        assert trapped_fraction(_bare("B"), t_final=20.0) == \
            pytest.approx(1.0, abs=1e-9)

    def test_decaying_state_is_zero(self):
        assert trapped_fraction(_bare("A1"), t_final=60.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_d1_trapping_preset_fully_trapped(self):
        from darkstate import d1_to_chain
        chain = d1_to_chain(preset("d1-trapping").system)
        assert trapped_fraction(chain, require_plateau=False) == \
            pytest.approx(1.0, abs=1e-6)

    def test_not_converged_raised_on_slow_system(self):
        from darkstate import NotConverged
        # weak decay: the population is still draining at the window end
        s = D2System(gamma=(0.01, 0.01, 0.01), omega12=13, omega23=13,
                     drives=(DriveField(1.0), DriveField(0), DriveField(0),
                             DriveField(0)), initial="B")
        with pytest.raises(NotConverged):
            trapped_fraction(s, t_final=30.0)
        # the non-strict mode still returns the late-window mean
        val = trapped_fraction(s, t_final=30.0, require_plateau=False)
        assert 0.0 < val < 1.0


def _dense_reference(sys, t_final):
    """Samples and plateau value computed from scipy's dense output on the
    whole uniform grid, then the tail of it: the route that sampling through
    t_eval replaces."""
    tol = dynamics.DEFAULT_TOL
    sol = solve_ivp(dynamics._rhs_builder(sys), (0.0, t_final),
                    sys.initial_vector(), method="DOP853", rtol=tol,
                    atol=tol * 1e-2, dense_output=True)
    fast = max(abs(sys.omega12), abs(sys.omega23),
               *(abs(d) for d in sys.detunings), 1.0)
    n = int(math.ceil(t_final / min(0.01, 0.1 / fast)))
    n += n % 2
    times = np.linspace(0.0, t_final, n + 1)
    amps = sol.sol(times).T
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    tail = norms[int(0.9 * len(norms)):]
    return times, amps, min(max(float(np.mean(tail[len(tail) // 2:])), 0.0),
                            1.0)


def _reference_systems():
    rng = np.random.default_rng(7)
    systems = [d1_to_chain(preset(name).system)
               for name in ("d1-trapping", "d1-fig3c", "d1-fig3f")]
    systems.append(preset("fig2-trapping").system)
    systems += [random_admissible_system(rng) for _ in range(3)]
    return systems


class TestSampling:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_dense_output(self, k):
        s = _reference_systems()[k]
        times, amps, trapped = _dense_reference(s, 150.0)
        traj = propagate(s, t_final=150.0)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.amps - amps)) <= 1e-14
        assert abs(trapped_fraction(s, require_plateau=False) - trapped) \
            <= 1e-14

    def test_trapped_fraction_samples_only_the_window(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        s = preset("fig2-trapping").system
        times = propagate(s, t_final=20.0).times
        calls.clear()
        trapped_fraction(s, t_final=20.0, require_plateau=False)
        (kwargs,) = calls
        assert not kwargs.get("dense_output", False)
        assert np.array_equal(kwargs["t_eval"],
                              times[int(0.9 * len(times)):])

    @pytest.mark.parametrize("reached", [[], [0.0, 0.01]])
    def test_integrator_failure(self, reached, monkeypatch, tmp_path,
                                capsys):
        failed = SimpleNamespace(success=False, t=reached, nfev=0,
                                 message="Required step size is less than "
                                         "spacing between numbers.")
        monkeypatch.setattr(dynamics, "solve_ivp", lambda *a, **k: failed)
        with pytest.raises(StepSizeUnderflow) as info:
            trapped_fraction(_bare("A1"), t_final=20.0)
        assert info.value.t_reached == (reached[-1] if reached else None)
        code = main(["sweep", "--preset", "fig2-trapping", "--vary", "phase2",
                     "--range", "0:1:2", "--metric", "trapped_fraction",
                     "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestTimeDomainSpectrum:
    def test_matches_analytic_on_notrapping_preset(self):
        s = preset("fig2-notrapping").system
        grid = np.linspace(-30, 30, 101)
        a = spectrum_analytic(s, grid)
        t = spectrum_time_domain(s, grid)
        metrics = compare_spectra(a, t)
        assert metrics["max_rel_err"] < 1e-3

    def test_zero_spectrum_for_undriven_ground_state(self):
        spec = spectrum_time_domain(_bare("B"), np.linspace(-5, 5, 21),
                                    t_final=10.0)
        assert np.max(spec.total) < 1e-10
