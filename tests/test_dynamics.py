import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from conftest import random_admissible_system
from darkstate import (
    D1System,
    D2System,
    DriveField,
    StepSizeUnderflow,
    branch_amplitude_numeric,
    d1_to_chain,
    preset,
    preset_names,
    propagate,
    spectrum_analytic,
    spectrum_time_domain,
    steady_state_amplitudes,
    trapped_fraction,
)
from darkstate import _dop853, dynamics
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

    @pytest.mark.parametrize("seed", range(8))
    def test_norm_rate_is_hermitian_damping_form(self, seed):
        # d/dt sum|A|^2 = 2 Re(A^H rhs) = -(U^H A)^H Gamma (U^H A) with
        # U = diag(exp(-i w12 t), 1, exp(+i w23 t)): the drives conserve the
        # norm and the cross-damping phases make U Gamma U^H Hermitian
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.3, 2.0, 3)
        p = rng.uniform(-1.0, 1.0, 3)
        w12, w23 = rng.uniform(1.0, 20.0, 2)
        s = D2System(gamma=gamma, omega12=w12, omega23=w23,
                     drives=tuple(DriveField(m, ph) for m, ph in zip(
                         rng.uniform(0.0, 2.5, 4),
                         rng.uniform(0.0, 2.0 * np.pi, 4))),
                     detunings=rng.uniform(-3.0, 3.0, 4), alignments=p)
        root = np.sqrt(gamma)
        big_gamma = np.diag(gamma) + np.outer(root, root) * np.array(
            [[0.0, p[0], p[1]], [p[0], 0.0, p[2]], [p[1], p[2], 0.0]])
        rhs = dynamics._rhs_builder(s)
        for t in rng.uniform(0.0, 10.0, 5):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            u = np.array([np.exp(-1j * w12 * t), 1.0, np.exp(1j * w23 * t)])
            v = np.conj(u) * a[:3]
            want = -np.vdot(v, big_gamma @ v).real
            got = 2.0 * np.vdot(a, rhs(t, a)).real
            assert abs(got - want) <= 1e-12 * np.vdot(a, a).real * 10.0


def _reference_weights(theta):
    def integral(f):
        return quad(lambda u: f(u).real, 0, 1)[0] + \
            1j * quad(lambda u: f(u).imag, 0, 1)[0]
    return (integral(lambda u: np.exp(1j * theta * u)),
            integral(lambda u: u * np.exp(1j * theta * u)))


def _whole_array_weights(theta):
    """The weights with the series evaluated on every element and selected
    by np.where: the formula _filon_weights evaluates on the small elements
    only."""
    theta = np.asarray(theta, dtype=complex)
    small = np.abs(theta) < 1e-2
    it = 1j * np.where(small, 1.0, theta)
    e = np.exp(it)
    it_small = 1j * np.where(small, theta, 0.0)
    s0 = s1 = 0.0
    power = 1.0
    kfact = 1.0
    for k in range(8):
        s0 = s0 + power / (kfact * (k + 1))
        s1 = s1 + power / (kfact * (k + 2))
        power = power * it_small
        kfact *= k + 1
    w0 = np.where(small, s0, (e - 1.0) / it)
    w1 = np.where(small, s1, (e * (it - 1.0) + 1.0) / it ** 2)
    return w0, w1


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

    def test_weights_equal_whole_array_series(self, rng):
        # real and complex theta on both sides of the series threshold
        # 1e-2, and scalars of each kind
        thetas = np.concatenate([
            rng.uniform(-2e-2, 2e-2, 200),
            rng.uniform(-2e-2, 2e-2, 200) + 1j * rng.uniform(-1e-2, 1e-2, 200),
            [9.9e-3, 1e-2, -1e-2, 1.01e-2, 7e-3 + 7e-3j, 0.0, 1e-3j, 1e-2j],
            (np.linspace(-30.0, 30.0, 1201) + 13.0) * 0.01,
            (np.linspace(-30.0, 30.0, 1201) + 1e-3j) * 0.01])
        for theta in (thetas, thetas.reshape(2, -1), 0.0, 3e-3, 0.4,
                      2e-3 + 1e-3j, -0.7 + 0.2j):
            got = _filon_weights(theta)
            want = _whole_array_weights(theta)
            for g, w in zip(got, want):
                assert g.shape == np.shape(theta)
                assert np.array_equal(g, w)

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

    def test_fft_length_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1
        # all small lengths, and those of 1201/6001-point spectra at t=60
        lengths = [*range(1, 3001), 5100, 9000, 9900, 13800, 16385]
        want = [next(k for k in range(n, 2 * n + 1) if smooth(k))
                for n in lengths]
        assert [dynamics._fft_length(n) for n in lengths] == want

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


def _equations(sys, t, y):
    """The amplitude equations written out term by term: the reference for
    _rhs_builder's M(t) @ y form."""
    a1, a2, a3, b = y
    g1, g2, g3 = sys.gamma
    p1, p2, p3 = sys.alignments
    o1, o2, o3, o4 = sys.rabi
    e1, e2, e3, e4 = (np.exp(1j * d * t) for d in sys.detunings)
    f12 = np.exp(-1j * sys.omega12 * t)
    f13 = np.exp(-1j * (sys.omega12 + sys.omega23) * t)
    f23 = np.exp(-1j * sys.omega23 * t)
    c12 = p1 * math.sqrt(g1 * g2) / 2.0
    c13 = p2 * math.sqrt(g1 * g3) / 2.0
    c23 = p3 * math.sqrt(g2 * g3) / 2.0
    return np.array([
        -1j * o2 * e2 * a2 - 1j * o1 * e1 * b - 0.5 * g1 * a1
        - c12 * f12 * a2 - c13 * f13 * a3,
        -1j * np.conj(o2) / e2 * a1 - 1j * o3 * e3 * a3 - 0.5 * g2 * a2
        - c12 * np.conj(f12) * a1 - c23 * f23 * a3,
        -1j * np.conj(o3) / e3 * a2 - 1j * o4 * e4 * b - 0.5 * g3 * a3
        - c13 * np.conj(f13) * a1 - c23 * np.conj(f23) * a2,
        -1j * np.conj(o1) / e1 * a1 - 1j * np.conj(o4) / e4 * a3,
    ])


def test_rhs_matches_term_by_term_equations():
    # a batch mixing resonant, detuned and cross-damped systems; M(t) @ y
    # sums the terms in another order, so they agree to roundoff
    rng = np.random.default_rng(17)
    systems = [c for name, c in _integrator_cases()
               if name.startswith(("fig2", "d1-", "random", "detuned"))]
    t = rng.uniform(0.0, 150.0, len(systems))
    y = rng.normal(size=(len(systems), 4)) + 1j * rng.normal(size=(
        len(systems), 4))
    got = dynamics._rhs_builder(systems)(t, y)
    for k, s in enumerate(systems):
        want = _equations(s, t[k], y[k])
        assert np.allclose(got[k], want, rtol=0, atol=1e-13 * (
            1.0 + np.max(np.abs(want))))
        alone = dynamics._rhs_builder(s)(t[k], y[k])
        assert np.array_equal(alone, got[k])


def _phase2_sweep():
    s = preset("fig2-trapping").system
    return [s.with_drives([d if k != 1 else DriveField(d.magnitude, phase)
                           for k, d in enumerate(s.drives)])
            for phase in np.linspace(0.0, 2.0 * np.pi, 21)]


class TestTrappedFractionEarlyExit:
    """trapped_fraction stops once the population is below 1e-3 plateau_tol
    when the decay matrix is positive semidefinite."""

    @staticmethod
    def _spy(monkeypatch, force_full):
        calls = []
        integrate = dynamics.solve_ivp

        def spy(*args, **kwargs):
            stop = kwargs["stop"]
            if force_full:
                kwargs["stop"] = None
            sols = integrate(*args, **kwargs)
            calls.extend((stop, sol.nfev, sol.message) for sol in sols)
            return sols

        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        return calls

    def test_early_value_within_floor_of_full_window(self, monkeypatch):
        rng = np.random.default_rng(2024)
        systems = [random_admissible_system(rng) for _ in range(20)]
        systems += _phase2_sweep()
        floor = 1e-3 * 1e-6
        early_calls = []
        full_calls = []
        for s in systems:
            with monkeypatch.context() as m:
                calls = self._spy(m, force_full=False)
                early = trapped_fraction(s, require_plateau=False)
            early_calls += calls
            with monkeypatch.context() as m:
                calls = self._spy(m, force_full=True)
                full = trapped_fraction(s, require_plateau=False)
            full_calls += calls
            assert abs(early - full) <= floor
        assert all(stop is not None for stop, _, _ in early_calls)
        stopped = [k for k, (_, _, message) in enumerate(early_calls)
                   if message == _dop853.STOPPED]
        # every phase2 value decays; the early exit fires on it
        assert set(range(20, 41)) <= set(stopped)
        for k in stopped:
            assert early_calls[k][1] < full_calls[k][1]
        for k in set(range(len(systems))) - set(stopped):
            assert early_calls[k][1] == full_calls[k][1]

    def test_decayed_value_is_exactly_zero(self):
        assert trapped_fraction(_bare("A1"), t_final=60.0) == 0.0
        for s in _phase2_sweep()[::5]:
            assert trapped_fraction(s) == 0.0

    def test_indefinite_decay_matrix_runs_to_the_window(self, monkeypatch):
        # p = (1, 1, -1) with equal rates: Gamma has eigenvalues 2, 2, -1
        s = D2System(gamma=(1.0, 1.0, 1.0), omega12=13, omega23=13,
                     drives=preset("fig2-notrapping").system.drives,
                     alignments=(1.0, 1.0, -1.0))
        assert not dynamics._norm_never_grows(s)
        calls = self._spy(monkeypatch, force_full=False)
        trapped_fraction(s, t_final=20.0, require_plateau=False)
        ((stop, _, message),) = calls
        assert stop is None and message == _dop853.REACHED_END

    @pytest.mark.parametrize("gamma,p,never_grows", [
        ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), True),
        ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), True),    # eigenvalues 3, 0, 0
        ((0.0, 1.0, 0.0), (1.0, -1.0, 1.0), True),   # D1 chain rates: p idle
        ((0.5, 2.0, 1.0), (0.5, -0.3, 0.2), True),
        ((1.0, 1.0, 1.0), (1.0, 1.0, -1.0), False),
        ((1.0, 4.0, 1.0), (1.0, 0.0, 1.0), False),
        # unvalidated library input takes the full window
        ((-0.5, 1.0, 1.0), (0.0, 0.0, 0.0), False),
        ((1.0, 1.0, 1.0), (math.nan, 0.0, 0.0), False),
    ])
    def test_decay_matrix_check(self, gamma, p, never_grows):
        s = D2System(gamma=gamma, omega12=13, omega23=13,
                     drives=(DriveField(1.0),) * 4, alignments=p)
        assert dynamics._norm_never_grows(s) is never_grows
        if never_grows:
            # the norm of the trajectory indeed never grows
            norms = propagate(s, t_final=10.0).norm()
            assert np.all(np.diff(norms) <= 1e-10)

    def test_d1_chains_qualify(self):
        for name in preset_names():
            s = preset(name).system
            if isinstance(s, D1System):
                assert dynamics._norm_never_grows(d1_to_chain(s))


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
        integrate = dynamics.solve_ivp

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return integrate(*args, **kwargs)

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
                                 accepted=0, rejected=0,
                                 message="Required step size is less than "
                                         "spacing between numbers.")
        # one failed solution per row of the batch
        monkeypatch.setattr(dynamics, "solve_ivp",
                            lambda fun, span, y0, **k: [failed] * len(y0))
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


def _integrator_cases():
    cases = []
    for name in preset_names():
        s = preset(name).system
        chain = d1_to_chain(s) if isinstance(s, D1System) else s
        cases.append((name, chain))
    rng = np.random.default_rng(11)
    cases += [(f"random{k}", random_admissible_system(rng)) for k in range(3)]
    for k in range(2):
        s = random_admissible_system(rng)
        cases.append((f"detuned{k}", D2System(
            gamma=s.gamma, omega12=s.omega12, omega23=s.omega23,
            drives=s.drives, detunings=tuple(rng.uniform(-2.0, 2.0, 4)),
            alignments=tuple(rng.uniform(-1.0, 1.0, 3)))))
    return cases


_INTEGRATOR_CASES = dict(_integrator_cases())


def _same_solution(ours, ref):
    return (np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
            and ours.nfev == ref.nfev and ours.success == ref.success
            and ours.message == ref.message)


class TestDop853:
    """The in-package DOP853 reproduces SciPy's, sample for sample."""

    def test_tables_match_scipy(self):
        for name in ("C", "A", "B", "E3", "E5", "D"):
            assert np.array_equal(getattr(_dop853, name),
                                  getattr(dop853_coefficients, name)), name

    @pytest.mark.parametrize("name", list(_INTEGRATOR_CASES))
    def test_samples_match_scipy(self, name):
        system = _INTEGRATOR_CASES[name]
        tol = dynamics.DEFAULT_TOL
        rhs = dynamics._rhs_builder(system)
        full = dynamics._sample_times(system, 60.0)
        late = dynamics._sample_times(system, 150.0)
        for times in (full, late[int(0.9 * len(late)):]):
            kwargs = dict(rtol=tol, atol=tol * 1e-2, t_eval=times)
            ours = dynamics.solve_ivp(rhs, (0.0, times[-1]),
                                      system.initial_vector(), **kwargs)
            ref = solve_ivp(rhs, (0.0, times[-1]), system.initial_vector(),
                            method="DOP853", **kwargs)
            assert ours.y.shape == (4, len(times))
            assert ours.success and _same_solution(ours, ref)

    def test_blow_up_fails_like_scipy(self):
        # y' = y**2, y(0) = 1 blows up at t = 1
        times = np.linspace(0.0, 2.0, 201)
        kwargs = dict(rtol=1e-8, atol=1e-10, t_eval=times)
        ours = dynamics.solve_ivp(lambda t, y: y ** 2, (0.0, 2.0),
                                  np.array([1.0 + 0j]), **kwargs)
        ref = solve_ivp(lambda t, y: y ** 2, (0.0, 2.0),
                        np.array([1.0 + 0j]), method="DOP853", **kwargs)
        assert not ours.success and not ref.success
        assert 0 < len(ours.t) < len(times)
        assert ours.t[-1] == ref.t[-1] and ours.y[0, -1] == ref.y[0, -1]
        assert _same_solution(ours, ref)

    @pytest.mark.parametrize("atol", [-1e-10, math.nan])
    def test_bad_atol_rejected(self, atol):
        with pytest.raises(ValueError):
            dynamics.solve_ivp(lambda t, y: -y, (0.0, 1.0),
                               np.ones(1, dtype=complex), rtol=1e-8,
                               atol=atol, t_eval=[1.0])

    @pytest.mark.parametrize("rtol,atol", [(0.0, 0.0), (math.nan, 1e-10),
                                           (math.inf, 1e-10)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_step_size_fails(self, rtol, atol):
        # a zero component with zero atol, or a NaN or infinite rtol, makes
        # the initial step size NaN: the integration fails, it does not
        # step forever
        sol = dynamics.solve_ivp(lambda t, y: -y, (0.0, 1.0),
                                 np.array([1.0, 0.0], dtype=complex),
                                 rtol=rtol, atol=atol, t_eval=[0.5, 1.0])
        assert not sol.success and len(sol.t) == 0
        if atol == rtol * 1e-2:
            with pytest.raises(StepSizeUnderflow):
                propagate(_bare("A1"), t_final=1.0, tol=rtol)


def _decaying_system():
    """A random draw whose population falls below 1e-9 by t = 60."""
    return random_admissible_system(np.random.default_rng(3))


def _recorded_run(system, times, stop):
    """Integrate with stop, recording at each accepted step (each call of
    stop) the evaluation count and the latest time fun was evaluated at."""
    rhs = dynamics._rhs_builder(system)
    calls = {"nfev": 0, "t": 0.0}
    steps = []

    def fun(t, y):
        calls["nfev"] += 1
        calls["t"] = max(calls["t"], t)
        return rhs(t, y)

    def record(y):
        steps.append((calls["nfev"], calls["t"], y.copy()))
        return stop(y)

    tol = dynamics.DEFAULT_TOL
    sol = dynamics.solve_ivp(fun, (0.0, times[-1]), system.initial_vector(),
                             rtol=tol, atol=tol * 1e-2, t_eval=times,
                             stop=record)
    return sol, steps


class TestStop:
    """solve_ivp(..., stop=predicate) ends after the first accepted step
    whose end state satisfies it, and is a prefix of the run without it."""

    @pytest.mark.parametrize("name", ["fig2-trapping", "random0",
                                      "detuned1"])
    def test_none_matches_scipy(self, name):
        system = _INTEGRATOR_CASES[name]
        tol = dynamics.DEFAULT_TOL
        times = dynamics._sample_times(system, 60.0)
        kwargs = dict(rtol=tol, atol=tol * 1e-2, t_eval=times)
        ours = dynamics.solve_ivp(dynamics._rhs_builder(system),
                                  (0.0, times[-1]), system.initial_vector(),
                                  stop=None, **kwargs)
        ref = solve_ivp(dynamics._rhs_builder(system), (0.0, times[-1]),
                        system.initial_vector(), method="DOP853", **kwargs)
        assert _same_solution(ours, ref)

    @pytest.mark.parametrize("floor", [1e-9, 1e-3, math.inf])
    @pytest.mark.parametrize("grid", ["full", "window"])
    def test_stopped_run_is_prefix(self, floor, grid):
        system = _decaying_system()
        times = dynamics._sample_times(system, 150.0)
        if grid == "window":
            times = times[int(0.9 * len(times)):]
        full, steps = _recorded_run(system, times, lambda y: False)
        norms = [np.vdot(y, y).real for _, _, y in steps]
        first = next(k for k, n in enumerate(norms) if n < floor)
        stopped, stopped_steps = _recorded_run(
            system, times, lambda y: np.vdot(y, y).real < floor)
        nfev, t_stop, _ = steps[first]
        assert len(stopped_steps) == first + 1
        assert stopped.success and stopped.message == _dop853.STOPPED
        assert stopped.nfev == nfev
        n = len(stopped.t)
        assert n == np.searchsorted(times, t_stop, side="right")
        assert np.array_equal(stopped.t, full.t[:n])
        assert np.array_equal(stopped.y, full.y[:, :n])
        if grid == "window" and floor == 1e-9:
            assert n == 0 and stopped.y.shape == (4, 0)
        if grid == "full" and floor == 1e-3:
            assert 0 < n < len(times)

    def test_predicate_that_never_fires_changes_nothing(self):
        for system in (_decaying_system(), _INTEGRATOR_CASES["detuned0"]):
            times = dynamics._sample_times(system, 60.0)
            never, steps = _recorded_run(system, times, lambda y: False)
            tol = dynamics.DEFAULT_TOL
            ref = dynamics.solve_ivp(dynamics._rhs_builder(system),
                                     (0.0, times[-1]),
                                     system.initial_vector(), rtol=tol,
                                     atol=tol * 1e-2, t_eval=times)
            assert len(steps) > 0 and _same_solution(never, ref)
            assert never.message == _dop853.REACHED_END


def _overflowing_system():
    """fig2-trapping with a 1e200 drive: the error norm is NaN from the first
    step, so the integration fails before any sample."""
    s = preset("fig2-trapping").system
    return s.with_drives([DriveField(1e200), *s.drives[1:]])


def _same_run(ours, ref):
    return (_same_solution(ours, ref) and ours.accepted == ref.accepted
            and ours.rejected == ref.rejected)


class TestBatch:
    """solve_ivp with y0 of shape (B, n) steps the rows in lockstep; each
    row's samples, t, evaluation count and end equal its run alone, bit
    for bit."""

    @staticmethod
    def _integrate(fun, y0, times, stop):
        tol = dynamics.DEFAULT_TOL
        return dynamics.solve_ivp(fun, (0.0, times[-1]), y0, rtol=tol,
                                  atol=tol * 1e-2, t_eval=times, stop=stop)

    @pytest.mark.parametrize("grid", ["full", "window"])
    def test_rows_equal_runs_alone(self, grid):
        # presets, seeded random and detuned, cross-damped systems, a
        # decaying draw that stops at t ~ 142, and one that fails
        systems = [*_INTEGRATOR_CASES.values(), _decaying_system(),
                   _overflowing_system()]
        floors = np.full(len(systems), 1e-9)
        late = propagate(_decaying_system(), t_final=150.0)
        floors[-2] = late.norm()[np.searchsorted(late.times, 142.0)]
        times = dynamics._sample_times(systems[0], 150.0)
        if grid == "window":
            times = times[int(0.9 * len(times)):]
        batch = self._integrate(
            dynamics._rhs_builder(systems),
            np.array([s.initial_vector() for s in systems]), times,
            lambda y: np.vecdot(y, y).real < floors)
        assert len(batch) == len(systems)
        assert batch.nfev == sum(sol.nfev for sol in batch)
        for system, floor, row in zip(systems, floors, batch):
            alone = self._integrate(
                dynamics._rhs_builder(system), system.initial_vector(),
                times, lambda y, floor=floor: np.vdot(y, y).real < floor)
            assert _same_run(row, alone)
        ends = [(sol.message, len(sol.t)) for sol in batch]
        # rows that stop before the last sample, rows that reach it, and
        # the failing row, which has no sample
        assert any(m == _dop853.STOPPED and 0 < n < len(times)
                   for m, n in ends)
        assert any(m == _dop853.REACHED_END and n == len(times)
                   for m, n in ends)
        assert ends[-1] == (_dop853.TOO_SMALL_STEP, 0)
        assert batch[-2].message == _dop853.STOPPED
        if grid == "window":
            # the floor of 1e-9 is crossed before the window
            assert any(m == _dop853.STOPPED and n == 0 for m, n in ends[:-1])

    def test_trapped_fraction_batch_equals_runs_alone(self):
        rng = np.random.default_rng(5)
        # two sample grids: the detuned draw resolves a faster phase
        detuned = D2System(gamma=(1.0, 1.0, 1.0), omega12=13, omega23=13,
                           drives=preset("fig2-notrapping").system.drives,
                           detunings=(15.0, 0.0, 0.0, 0.0))
        systems = [*_phase2_sweep()[::4], detuned, _decaying_system(),
                   d1_to_chain(preset("d1-trapping").system),
                   random_admissible_system(rng)]
        assert (len(dynamics._sample_times(detuned, 60.0))
                != len(dynamics._sample_times(systems[0], 60.0)))
        runs = []
        values = trapped_fraction(systems, t_final=60.0,
                                  require_plateau=False, runs=runs)
        for system, value, run in zip(systems, values, runs, strict=True):
            alone = []
            assert trapped_fraction(system, t_final=60.0,
                                    require_plateau=False,
                                    runs=alone) == value
            assert alone == [run]
        assert {run["end"] for run in runs} == {"t_final", "decay_floor"}

    def test_failing_rows_raise_in_order(self, monkeypatch):
        good, bad = preset("fig2-trapping").system, _overflowing_system()
        runs = []
        with pytest.raises(StepSizeUnderflow, match="no sample reached"):
            trapped_fraction([good, bad, good], require_plateau=False,
                             runs=runs)
        assert [run["end"] for run in runs] == ["decay_floor", "failed",
                                                "decay_floor"]
        assert runs[1]["nfev"] > 2 and runs[1]["accepted"] == 0

        # of two failing rows, the first in order is raised
        integrate = dynamics.solve_ivp

        def fail_rows(*args, **kwargs):
            sols = integrate(*args, **kwargs)
            for k, t in ((1, [135.5, 136.0]), (2, [135.0])):
                sols[k] = SimpleNamespace(
                    t=np.array(t), success=False, nfev=0, accepted=0,
                    rejected=0, message=_dop853.TOO_SMALL_STEP)
            return sols

        monkeypatch.setattr(dynamics, "solve_ivp", fail_rows)
        with pytest.raises(StepSizeUnderflow) as info:
            trapped_fraction([good] * 3, require_plateau=False)
        assert info.value.t_reached == 136.0


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

    def test_branch3_line_at_omega23(self):
        # undriven A3 decays as exp(-t/2); its line sits at delta = +omega23
        s = D2System(gamma=(1.0, 1.0, 1.0), omega12=13.0, omega23=8.0,
                     drives=(DriveField(0),) * 4, initial="A3")
        grid = np.linspace(-20.0, 20.0, 801)
        spec = spectrum_time_domain(s, grid)
        assert grid[np.argmax(spec.branch_intensity[2])] == pytest.approx(8.0)
        assert np.max(spec.branch_intensity[:2]) == 0.0
        # the Lorentzian of unit area and unit width: 2 / pi at its centre
        assert np.max(spec.branch_intensity[2]) == pytest.approx(
            2.0 / np.pi, rel=1e-6)
