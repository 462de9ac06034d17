import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.linalg import expm

from conftest import random_admissible_system
from darkstate import (
    D1System,
    D2System,
    DriveField,
    NonFiniteValue,
    NotConverged,
    StepSizeUnderflow,
    TooManySamples,
    analytic_admissible,
    branch_amplitude_numeric,
    d1_system,
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
from darkstate.spectrum import branch_shifts, coupling_matrix


def _scipy_rhs(system):
    """The amplitude equations of one system as SciPy's solve_ivp takes
    them (t a float, y of shape (4,)): row 0 of its batch of one."""
    rhs = dynamics._rhs_builder([system])
    return lambda t, y: rhs(np.array([t]), y[None])[0]


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
        norms = np.sum(np.abs(traj.amps) ** 2, axis=1)
        assert np.all(np.diff(norms) <= 1e-10)

    def test_bad_t_final_rejected(self):
        with pytest.raises(ValueError):
            propagate(_bare("B"), t_final=0.0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_final_rejected(self, t_final):
        # not a sample count above the cap: bad input
        s = preset("fig2-notrapping").system
        for call in (lambda: propagate(s, t_final=t_final),
                     lambda: trapped_fraction(s, t_final=t_final),
                     lambda: spectrum_time_domain(s, [0.0, 1.0],
                                                  t_final=t_final)):
            with pytest.raises(ValueError,
                               match="t_final must be positive and finite"):
                call()

    def test_peak_memory_is_the_trajectory(self):
        """The samples are evaluated into the array propagate returns, so
        its peak is that trajectory (12.5 MB here), the sample times and
        the integrator's small state; the step-by-step pieces, their join
        and its transposed copy took 34.7 MB."""
        s = preset("fig2-notrapping").system
        propagate(s, t_final=1.0)
        tracemalloc.start()
        try:
            traj = propagate(s, t_final=1500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 195001
        assert peak <= 2 * traj.amps.nbytes

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
        rhs = dynamics._rhs_builder([s])
        for t in rng.uniform(0.0, 10.0, 5):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            u = np.array([np.exp(-1j * w12 * t), 1.0, np.exp(1j * w23 * t)])
            v = np.conj(u) * a[:3]
            want = -np.vdot(v, big_gamma @ v).real
            got = 2.0 * np.vdot(a, rhs(np.array([t]), a[None])[0]).real
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
    small = np.abs(theta) <= dynamics.SERIES_RADIUS
    it = 1j * np.where(small, 1.0, theta)
    e = np.exp(it)
    s0, s1 = dynamics._series_weights(1j * np.where(small, theta, 0.0))
    w0 = np.where(small, s0, (e - 1.0) / it)
    w1 = np.where(small, s1, (e * (it - 1.0) + 1.0) / it ** 2)
    return w0, w1


def _series_reference(theta, terms=40):
    """W0 and W1 as 40 terms of their Taylor series, in long double."""
    z = 1j * np.asarray(theta, dtype=np.clongdouble)
    w0, w1, power = np.zeros_like(z), np.zeros_like(z), np.ones_like(z)
    for k in range(terms):
        w0 += power / (math.factorial(k) * (k + 1))
        w1 += power / (math.factorial(k) * (k + 2))
        power = power * z
    return w0, w1


def _sine_hat_weight(theta):
    """4 sin^2(theta/2) / theta^2 from the sine: 1 at theta = 0."""
    zero = theta == 0
    half = 0.5 * np.where(zero, 1.0, theta)
    sinc = np.asarray(np.sin(half) / half)
    sinc[zero] = 1.0
    return sinc * sinc


def _single_pass(times, values, x):
    """One Filon pass over all of times, one row of values at a 1-D x, as
    the transform took it before both passes shared their phase sums:
    summed by parts into h (sigma T - A v_n e^{i x t_n} - B v_0 e^{i x
    t_0}), with the phase sum T of every sample and sigma from the sine."""
    x = np.asarray(x, dtype=complex)
    h = times[1] - times[0]
    theta = x * h
    w0, w1 = _filon_weights(theta)
    total = dynamics._phase_sums(times, values[None, None], x[None])[0, 0]
    ends = ((w0 - w1) * values[-1] * np.exp(1j * x * times[-1])
            + w1 * values[0] * np.exp(1j * x * (times[0] - h)))
    return h * (_sine_hat_weight(theta) * total - ends)


def _pass_by_pass(times, values, x):
    """The Richardson-extrapolated transform of one row from its two single
    passes: (4 fine - coarse) / 3."""
    fine = _single_pass(times, values, x)
    coarse = _single_pass(times[::2], values[::2], x)
    return (4.0 * fine - coarse) / 3.0


def _pass_by_pass_amplitude(traj, branch, delta):
    """branch_amplitude_numeric from `_pass_by_pass`: 2 f(eps/2) - f(eps)
    when a trapped component survives."""
    vals = traj.amps[:, branch - 1]
    if not dynamics._is_trapped(traj):
        return _pass_by_pass(traj.times, vals, delta)
    eps = dynamics.TRAP_EPSILON
    return (2.0 * _pass_by_pass(traj.times, vals, delta + 0.5j * eps)
            - _pass_by_pass(traj.times, vals, delta + 1j * eps))


def _transform_scale(traj):
    """A bound on each branch's transform, h sum |v|, three times over when
    a trapped component survives: 2 f(eps/2) - f(eps) adds up to three
    times the error of one transform."""
    h = traj.times[1] - traj.times[0]
    trapped = dynamics._is_trapped(traj)
    return (3.0 if trapped else 1.0) * h * np.sum(np.abs(traj.amps[:, :3]),
                                                  axis=0)


def _two_sum_filon(times, values, x):
    """The Richardson-extrapolated Filon rule of one row from the
    per-interval sums h sum_k e^{i x t_k} (v_k W0 + (v_{k+1} - v_k) W1) of
    both passes: two phase sums each, of v_k and of v_{k+1} - v_k, where
    `_filon_linear` sums by parts into one."""
    x = np.asarray(x, dtype=complex)

    def one_pass(times, values):
        h = times[1] - times[0]
        w0, w1 = _filon_weights(x * h)
        rows = np.stack([values[:-1], np.diff(values)])[:, None]
        s0, s1 = dynamics._phase_sums(times[:-1], rows, x[None])[:, 0]
        return h * (w0 * s0 + w1 * s1)
    fine, coarse = one_pass(times, values), one_pass(times[::2], values[::2])
    return (4.0 * fine - coarse) / 3.0


def _damped_trajectory(rng, times):
    rates = rng.uniform(0.2, 1.0, 4) + 1j * rng.uniform(-15.0, 15.0, 4)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    return np.exp(-np.outer(times, rates)) @ coeffs


def _counting_chirp_z(monkeypatch):
    """The list that records each `_chirp_z` call from now on."""
    calls = []
    chirp_z = dynamics._chirp_z
    monkeypatch.setattr(dynamics, "_chirp_z",
                        lambda *a: calls.append(a) or chirp_z(*a))
    return calls


class TestFilonQuadrature:
    def test_weights_match_reference_integrals(self):
        for theta in (3.0, 0.3, 1e-3, 1e-6, 0.0):
            w0, w1 = _filon_weights(theta)
            ref0, ref1 = _reference_weights(theta)
            assert w0 == pytest.approx(ref0, abs=1e-12)
            assert w1 == pytest.approx(ref1, abs=1e-12)
        # one array call, real and complex, on both sides of the series
        # threshold |theta| = 1
        thetas = np.array([0.99, 1.01, -0.99, -1.01, 0.7 + 0.7j,
                           0.8 + 0.8j, 1e-3j, 0.4 + 1e-3j, -2.5 + 0.3j, 0.0])
        w0, w1 = _filon_weights(thetas)
        assert w0.shape == w1.shape == thetas.shape
        for theta, got0, got1 in zip(thetas, w0, w1):
            ref0, ref1 = _reference_weights(theta)
            assert got0 == pytest.approx(ref0, abs=1e-12)
            assert got1 == pytest.approx(ref1, abs=1e-12)

    def test_weights_equal_whole_array_series(self, rng):
        # real and complex theta on both sides of the series threshold 1,
        # and scalars of each kind
        thetas = np.concatenate([
            rng.uniform(-2.0, 2.0, 200),
            rng.uniform(-2.0, 2.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200),
            [0.99, 1.0, -1.0, 1.01, 0.7 + 0.7j, 0.0, 1e-3j, 1j],
            (np.linspace(-30.0, 30.0, 1201) + 13.0) * 0.05,
            (np.linspace(-30.0, 30.0, 1201) + 1e-3j) * 0.05])
        for theta in (thetas, thetas.reshape(2, -1), 0.0, 3e-3, 2.5,
                      2e-3 + 1e-3j, -0.7 + 0.2j, -3.0 + 0.5j):
            got = _filon_weights(theta)
            want = _whole_array_weights(theta)
            for g, w in zip(got, want):
                assert g.shape == np.shape(theta)
                assert np.array_equal(g, w)

    def test_weights_within_an_ulp_of_the_series(self):
        """On 1e-4 <= |theta| <= 1, real and complex (the damped transform),
        W0 and W1 stay within 2.5e-16 of 40 terms of their series: the
        closed form of W1 loses 1.9e-12 at |theta| = 0.0101."""
        rng = np.random.default_rng(7)
        size = 10.0 ** rng.uniform(-4.0, 0.0, 20000)
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi, 20000))
        thetas = np.concatenate([size, -size, size * turn, size + 1e-5j,
                                 [1e-4, 0.0099, 0.0101, 0.02, 1.0, -1.0,
                                  1j, -1j]])
        for got, want in zip(_filon_weights(thetas),
                             _series_reference(thetas)):
            err = np.abs(got.astype(np.clongdouble) - want).astype(float)
            assert np.max(err) <= 2.5e-16

    def test_chirp_z_matches_direct_sum(self, rng, monkeypatch):
        """The rows of one transform, real and complex, share one chirp-z
        call; summed directly (a shuffled grid) or one point at a time they
        agree to 1e-13 of the largest value."""
        times = np.linspace(0.0, 60.0, 6001)
        vals = _damped_trajectory(rng, times)
        rows = np.stack([vals, vals.conj(), 2.0 * vals])
        base = np.linspace(-30.0, 30.0, 1201)
        x = np.stack([base + 13.0, base - 13.0, base + 1e-3j])
        chirp_calls = _counting_chirp_z(monkeypatch)
        fast = _filon_linear(times, rows, x)
        assert len(chirp_calls) == 1
        # a shuffled grid is not uniform: summed directly
        perm = rng.permutation(x.shape[1])
        direct = np.empty_like(fast)
        direct[:, perm] = _filon_linear(times, rows, x[:, perm])
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) <= 1e-13 * scale
        for k in (0, 457, 1200):
            point = _filon_linear(times, rows, x[:, k:k + 1])
            assert np.max(np.abs(point[:, 0] - fast[:, k])) <= 1e-13 * scale
        assert len(chirp_calls) == 1

    def test_weights_where_theta_squared_overflows(self):
        # |w1| <= 2/|theta|, below 1e-150 there: 0, and no warning
        thetas = np.array([1e151, -1e200, 1e300 + 1.0j, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w0, w1 = _filon_weights(thetas)
        assert np.all(np.abs(w0[:3]) <= 2.0 / np.abs(thetas[:3]))
        assert np.array_equal(w1[:3], np.zeros(3))
        want0, want1 = _filon_weights(thetas[3:])
        assert (w0[3], w1[3]) == (want0[0], want1[0])

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

    @pytest.mark.parametrize("x", [
        "real", "real-13", "complex", "shuffled", "scalars", "far"])
    def test_one_sum_equals_two_sums(self, x, rng, monkeypatch):
        """Summed by parts, with both passes from the phase sums of the even
        and the odd samples, the rule takes one chirp-z call where the
        per-interval form takes two sums per pass: the same to 1e-13 of h
        sum |v|, a bound on the transform, on the chirp-z and the direct
        path, real, complex and scalar x, and |theta| up to 1e300."""
        times = np.linspace(0.0, 60.0, 6001)
        h = times[1] - times[0]
        vals = _damped_trajectory(rng, times)
        base = np.linspace(-30.0, 30.0, 1201)
        xs = {"real": base + 13.0, "real-13": base - 13.0,
              "complex": base + 1e-3j, "shuffled": rng.permutation(base),
              "scalars": [0.0, 3.7, -13.0 + 1e-3j, 1e-9],
              "far": [*np.linspace(-1e300, 1e300, 5) / h, 1e151, -1e20,
                      1e300 + 1e-3j, 2.0]}[x]
        scale = h * np.sum(np.abs(vals))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _two_sum_filon(times, vals, np.array(xs))
            chirp_calls = _counting_chirp_z(monkeypatch)
            if x == "scalars":
                got = np.array([_filon_linear(times, vals[None],
                                              np.array([[v]]))[0, 0]
                                for v in xs])
            else:
                (got,) = _filon_linear(times, vals[None], np.array([xs]))
        assert len(chirp_calls) == (x in ("real", "real-13", "complex"))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_hat_weight_is_the_sum_of_the_end_weights(self):
        """sigma = W0 - W1 + W1 exp(-i theta), taken as W0^2 exp(-i
        theta): no cancellation at small theta, and no theta^2 to overflow
        at large."""
        thetas = np.array([0.0, 1e-300, 1e-9, 9.9e-3, 1.01e-2, 0.3, -2.5,
                           3.0 + 0.2j, 1e-3j, 7e-3 - 7e-3j, 40.0, 1e10])
        e = np.exp(1j * thetas)
        w0, w1 = _filon_weights(thetas)
        got = dynamics._hat_weight(w0, e)
        sums = w0 - w1 + w1 / e
        assert np.max(np.abs(got - sums)) <= 1e-15
        assert np.max(np.abs(got - _sine_hat_weight(thetas))) <= 1e-15
        assert got[0] == 1.0 and got[1] == pytest.approx(1.0, abs=1e-15)
        for theta, g in zip(thetas[:-1], got):
            ref0, ref1 = _reference_weights(theta)
            assert g == pytest.approx(ref0 - ref1 + ref1 * np.exp(-1j * theta),
                                      abs=1e-12)
        thetas = np.array([1e160, -1e300 + 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = dynamics._hat_weight(_filon_weights(thetas)[0],
                                        np.exp(1j * thetas))
        assert np.all(np.abs(huge) <= 4e-320)

    def test_transform_of_decaying_exponential(self):
        # integral_0^T e^{ixt} e^{-t/2} dt, T large -> 1/(1/2 - ix)
        times = np.linspace(0, 60, 6001)
        vals = np.exp(-0.5 * times).astype(complex)
        x = np.array([[0.0, 1.7, -8.3]])
        (got,) = _filon_linear(times, vals[None], x)
        assert got == pytest.approx(1.0 / (0.5 - 1j * x[0]), rel=1e-5)


class TestStackedTransform:
    """Every row, eps value and Richardson pass of a time-domain spectrum
    shares one chirp-z call; the result stays within 1e-13 of peak of the
    pass-by-pass rule (`_pass_by_pass`)."""

    @pytest.mark.parametrize("points", [1201, 6001])
    def test_presets(self, points, monkeypatch):
        grid = np.linspace(-30.0, 30.0, points)
        for name in preset_names():
            s = preset(name).system
            traj = propagate(s)
            trapped = dynamics._is_trapped(traj)
            want = np.array([
                s.gamma[n] * np.abs(_pass_by_pass_amplitude(
                    traj, n + 1, grid + shift)) ** 2
                for n, shift in enumerate(branch_shifts(s))]) / (2 * np.pi)
            chirp_calls = _counting_chirp_z(monkeypatch)
            monkeypatch.setattr(dynamics, "propagate",
                                lambda *a, **k: traj)
            got = spectrum_time_domain(s, grid).branch_intensity
            monkeypatch.undo()
            assert len(chirp_calls) == 1
            # every branch, both halves, and both eps values when trapped
            assert chirp_calls[0][1].shape[:2] == (2, 3)
            assert chirp_calls[0][2].shape == ((2, 3) if trapped else (3,))
            peak = np.max(want.sum(axis=0))
            assert np.max(np.abs(got - want)) <= 1e-13 * peak, name

    @pytest.mark.parametrize("name", ["fig2-notrapping", "d1-trapping"])
    def test_chirp_and_direct_paths_agree(self, name, monkeypatch):
        s = preset(name).system
        traj = propagate(s)
        grid = np.linspace(-30.0, 30.0, 301)
        x = grid + np.array(branch_shifts(s))[:, None]
        want = np.array([_pass_by_pass_amplitude(traj, n + 1, x[n])
                         for n in range(3)])
        chirp_calls = _counting_chirp_z(monkeypatch)
        fast = dynamics._transforms(traj, slice(3), x)
        assert len(chirp_calls) == 1
        monkeypatch.setattr(dynamics, "UNIFORM_PHASE_TOL", -1.0)
        direct = dynamics._transforms(traj, slice(3), x)
        assert len(chirp_calls) == 1
        bound = 1e-13 * _transform_scale(traj)[:, None]
        assert np.all(np.abs(fast - want) <= bound)
        assert np.all(np.abs(direct - want) <= bound)

    @pytest.mark.parametrize("name", ["fig2-notrapping", "d1-trapping"])
    def test_scalar_detuning(self, name):
        s = preset(name).system
        traj = propagate(s)
        scale = _transform_scale(traj)
        for branch, delta in ((1, 13.0), (2, 0.37), (3, -13.0 + 1e-9)):
            got = branch_amplitude_numeric(traj, branch, delta)
            want = _pass_by_pass_amplitude(traj, branch,
                                           np.array([delta]))[0]
            assert type(got) is complex
            assert abs(got - want) <= 1e-13 * scale[branch - 1]

    def test_three_sample_trajectory(self, rng):
        """The shortest grid: T_even holds samples 0 and 2, T_odd sample 1."""
        times = np.array([0.0, 0.25, 0.5])
        vals = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        x = np.stack([np.linspace(-4.0, 4.0, 9), np.linspace(-4.0, 4.0, 9)])
        for xs in (x, x + 1e-3j, x[:, ::-1], x[:, :1]):
            got = _filon_linear(times, vals, xs)
            for row, v, xr in zip(got, vals, xs):
                want = _pass_by_pass(times, v, xr)
                assert np.max(np.abs(row - want)) <= 1e-15 * np.sum(abs(v))


class TestBranchAmplitudes:
    def test_bare_decay_transform(self):
        got = branch_amplitude_numeric(propagate(_bare("A1")), 1, 0.7)
        assert got == pytest.approx(1.0 / (-1j * 0.7 + 0.5), rel=1e-6)

    def test_dark_branches_zero(self):
        traj = propagate(_bare("A1"))
        for branch in (2, 3):
            got = branch_amplitude_numeric(traj, branch, 0.4)
            assert abs(got) < 1e-9

    def test_matches_analytic_oracle(self, rng):
        s = random_admissible_system(rng)
        deltas = np.linspace(-10, 10, 9) + 0.0137
        analytic = steady_state_amplitudes(s, deltas)
        traj = propagate(s, 60.0)
        for branch, sign in zip((1, 2, 3), (1, 0, -1)):
            local = deltas + sign * s.omega12
            numeric = branch_amplitude_numeric(traj, branch, local)
            scale = np.max(np.abs(analytic[branch - 1])) + 1e-300
            assert np.max(np.abs(numeric - analytic[branch - 1])) / scale \
                < 1e-5

    def test_zero_dimensional_detuning_is_a_scalar(self):
        traj = propagate(_bare("A1"), 20.0)
        got = branch_amplitude_numeric(traj, 1, np.array(0.7))
        assert type(got) is complex
        assert repr(got) == repr(branch_amplitude_numeric(traj, 1, 0.7))

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValueError):
            branch_amplitude_numeric(propagate(_bare("A1"), 20.0), 4, 0.0)

    def test_trapped_component_damped_transform(self):
        # stable population (all drives zero, initial B): transform of the
        # constant trapped amplitude must come out ~0 for the decaying part
        got = branch_amplitude_numeric(propagate(_bare("B"), 20.0), 1, 0.5)
        assert abs(got) < 1e-6


class TestTrappedFraction:
    def test_stable_ground_state_is_one(self):
        assert trapped_fraction(_bare("B"), t_final=20.0) == \
            pytest.approx(1.0, abs=1e-9)

    def test_decaying_state_is_zero(self):
        assert trapped_fraction(_bare("A1"), t_final=60.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_d1_trapping_preset_fully_trapped(self):
        s = preset("d1-trapping").system
        assert trapped_fraction(s, require_plateau=False) == \
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

    def test_shortest_grid_has_a_two_sample_window(self):
        # a 3-sample grid: from sample int(0.9 n) on the window would hold
        # one sample, and its first half none
        s = preset("fig2-notrapping").system
        assert len(dynamics._sample_times(s, 1e-9)) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = trapped_fraction(s, t_final=1e-9, require_plateau=False)
        assert value == pytest.approx(1.0, abs=1e-12)


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
        alone = dynamics._rhs_builder([s])(t[k:k + 1], y[k:k + 1])[0]
        assert np.array_equal(alone, got[k])


def _phase2_sweep():
    s = preset("fig2-trapping").system
    return [s.with_drives([d if k != 1 else DriveField(d.magnitude, phase)
                           for k, d in enumerate(s.drives)])
            for phase in np.linspace(0.0, 2.0 * np.pi, 21)]


class TestTrappedFractionEarlyExit:
    """On the stage kernel, trapped_fraction stops once the population is
    below DECAY_FLOOR * PLATEAU_TOL when the decay matrix is positive
    semidefinite; the resonant systems here are forced onto it."""

    @staticmethod
    def _spy(monkeypatch, force_full):
        calls = []
        monkeypatch.setattr(dynamics, "_kernel", lambda sys: "stages")
        integrate = dynamics.solve_ivp

        def spy(*args, **kwargs):
            stop = kwargs["stop"]
            if force_full:
                kwargs["stop"] = None
            sols = integrate(*args, **kwargs)
            calls.extend((stop, sol.nfev, sol.end) for sol in sols)
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
        stopped = [k for k, (_, _, end) in enumerate(early_calls)
                   if end == "decay_floor"]
        # every phase2 value decays; the early exit fires on it
        assert set(range(20, 41)) <= set(stopped)
        for k in stopped:
            assert early_calls[k][1] < full_calls[k][1]
        for k in set(range(len(systems))) - set(stopped):
            assert early_calls[k][1] == full_calls[k][1]

    def test_decayed_value_is_exactly_zero(self, monkeypatch):
        # the sample-step operator computes the whole window: below the
        # floor, not 0
        floor = dynamics.DECAY_FLOOR * dynamics.PLATEAU_TOL
        systems = [_bare("A1"), *_phase2_sweep()[::5]]
        assert all(0.0 < value <= floor
                   for value in trapped_fraction(systems, t_final=60.0))
        monkeypatch.setattr(dynamics, "_kernel", lambda sys: "stages")
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
        ((stop, _, end),) = calls
        assert stop is None and end == "t_final"

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
            traj = propagate(s, t_final=10.0)
            norms = np.sum(np.abs(traj.amps) ** 2, axis=1)
            assert np.all(np.diff(norms) <= 1e-10)

    def test_d1_chains_qualify(self):
        for name in preset_names():
            s = preset(name).system
            if isinstance(s, D1System):
                assert dynamics._norm_never_grows(s)


def _dense_reference(sys, t_final):
    """Samples computed from scipy's dense output on the whole uniform
    grid: the route that sampling through t_eval replaces."""
    sol = solve_ivp(_scipy_rhs(sys), (0.0, t_final),
                    sys.initial_vector(), method="DOP853",
                    rtol=_dop853.DEFAULT_TOL, atol=_dop853.ATOL,
                    dense_output=True)
    fast = max(abs(sys.omega12), abs(sys.omega23),
               *(abs(d) for d in sys.detunings), 1.0)
    n = int(math.ceil(t_final / min(0.01, 0.1 / fast)))
    n += n % 2
    times = np.linspace(0.0, t_final, n + 1)
    return times, sol.sol(times).T


def _plateau(amps):
    """The plateau value of samples on the whole uniform grid: the mean
    population over the late half of its last 10%."""
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    tail = norms[int(0.9 * len(norms)):]
    return min(max(float(np.mean(tail[len(tail) // 2:])), 0.0), 1.0)


def _reference_systems():
    rng = np.random.default_rng(7)
    systems = [preset(name).system
               for name in ("d1-trapping", "d1-fig3c", "d1-fig3f")]
    systems.append(preset("fig2-trapping").system)
    systems += [random_admissible_system(rng) for _ in range(3)]
    return systems


class TestSampling:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_dense_output(self, k):
        """The stage kernel on propagate's grid and budget samples SciPy's
        dense output to 1e-14.  propagate and trapped_fraction take the
        sample-step operator on these resonant systems: its samples lie
        within 1e-11 of expm (1.6e-12 at most here, on the trapped D1
        presets at t = 150), and trapped_fraction's window means, Gram
        sums of its operator's powers that take no sample, give the
        plateau of propagate's samples to 1e-11 (8.2e-14 at most here)."""
        s = _reference_systems()[k]
        times, amps = _dense_reference(s, 150.0)
        (stages,) = dynamics.solve_ivp(
            dynamics._rhs_builder([s]), s.initial_vector()[None],
            t_eval=times, max_tries=len(times))
        assert np.max(np.abs(stages.y - amps)) <= 1e-14
        traj = propagate(s, t_final=150.0)
        assert np.array_equal(traj.times, times)
        assert _expm_error(s, SimpleNamespace(y=traj.amps), times, 97) <= \
            1e-11
        assert abs(trapped_fraction(s, require_plateau=False)
                   - _plateau(traj.amps)) <= 1e-11

    def test_trapped_fraction_samples_only_the_window(self, monkeypatch):
        """An operator row hands propagate's grid and the window's first
        index, min(int(0.9 n), n - 2), to `window_means` and draws no
        sample at all: neither solve_ivp nor `_orbit` runs.  A stage-kernel
        row samples only the window."""
        calls = []
        integrate, means = dynamics.solve_ivp, dynamics.window_means

        def stages(fun, y0, t_eval, **kwargs):
            calls.append(("solve_ivp", t_eval))
            return integrate(fun, y0, t_eval, **kwargs)

        def operator(m, y0, times, first):
            calls.append(("window_means", times, first))
            return means(m, y0, times, first)

        def no_samples(*args):
            raise AssertionError("an operator row drew samples")

        monkeypatch.setattr(dynamics, "solve_ivp", stages)
        monkeypatch.setattr(dynamics, "window_means", operator)
        monkeypatch.setattr(_dop853, "_orbit", no_samples)
        s = preset("fig2-trapping").system
        times = dynamics._sample_times(s, 20.0)
        first = min(int(0.9 * len(times)), len(times) - 2)
        trapped_fraction(s, t_final=20.0, require_plateau=False)
        ((name, got, start),) = calls
        assert name == "window_means" and start == first
        assert np.array_equal(got, times)
        calls.clear()
        monkeypatch.setattr(dynamics, "_kernel", lambda sys: "stages")
        trapped_fraction(s, t_final=20.0, require_plateau=False)
        ((name, t_eval),) = calls
        assert name == "solve_ivp" and np.array_equal(t_eval, times[first:])

    @pytest.mark.parametrize("reached", [[], [0.0, 0.01]])
    def test_integrator_failure(self, reached, monkeypatch, tmp_path,
                                capsys):
        failed = SimpleNamespace(end="failed", t=reached, nfev=0,
                                 accepted=0, rejected=0, halvings=None,
                                 error_bound=None, means=None)
        # one failed solution per row of the batch; every system here takes
        # the sample-step operator, whose window means take no sample
        monkeypatch.setattr(dynamics, "window_means",
                            lambda m, y0, times, first: [failed] * len(y0))
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


#: stiff but valid D1 loops (Gamma, drive magnitude) either side of the
#: stage kernel's step budget at t_final = 5, and whether they are within it
BUDGET_EDGE = [(1e3, 1.0, True), (2e3, 1.0, False), (1.0, 25.0, True),
               (1.0, 50.0, False)]


def _detuned_d1(gamma, mag):
    """The D1 loop with rate gamma and four fields of magnitude mag, its
    first field detuned by 0.5: a time-dependent drift, so that its runs
    take the stage kernel and its step budget, on the grid of the
    resonant loop."""
    return replace(d1_system(gamma, *[DriveField(mag)] * 4),
                   detunings=(0.5, 0.0, 0.0, 0.0))


class TestSampleCap:
    """The time-domain sample count is checked against MAX_TIME_SAMPLES
    before anything is allocated.  Only the check runs here: a run past
    the cap without it asks numpy for gigabytes."""

    @pytest.mark.parametrize("change, t_final, cause", [
        ({"omega23": 1e6}, 150.0, "omega23 = 1e+06 needs 1.5e+09"),
        ({"omega12": 1e20}, 150.0, "omega12 = 1e+20 needs 1.5e+23"),
        ({"omega12": 1.7e308}, 60.0, "omega12 = 1.7e+308 needs inf"),
        ({"detunings": (0.0, 0.0, -3e5, 0.0)}, 60.0,
         "detunings[2] = -300000 needs 1.8e+08"),
        ({"omega12": 0.5, "omega23": 0.5}, 2e4, "t_final = 20000 needs 2e+06"),
    ])
    def test_check_names_the_field(self, change, t_final, cause):
        system = replace(preset("fig2-notrapping").system, **change)
        with pytest.raises(TooManySamples, match=re.escape(cause)):
            dynamics._sample_count(system, t_final)

    def test_presets_far_below_the_cap(self):
        for name in preset_names():
            system = preset(name).system
            count = dynamics._sample_count(system, 150.0)
            assert len(dynamics._sample_times(system, 150.0)) == count
            assert count <= 2.1e4 <= dynamics.MAX_TIME_SAMPLES / 40

    @pytest.mark.parametrize("argv, samples", [
        (["spectrum", "--method", "timedomain"], "7.8e+03"),  # to t = 60
        (["sweep", "--vary", "phase2", "--range=0:1:3",
          "--metric", "trapped_fraction"], "1.95e+04"),  # to t = 150
    ])
    def test_cli_exits_2_naming_the_field(self, argv, samples, monkeypatch,
                                          tmp_path, capsys):
        # a cap below fig2's sample counts, so that nothing large is asked
        # for
        monkeypatch.setattr(dynamics, "MAX_TIME_SAMPLES", 1000)
        code = main([argv[0], "--preset", "fig2-notrapping", *argv[1:],
                     "--out", str(tmp_path / "x.csv")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (f"error: omega12 = 13 needs {samples} time samples, "
                       "above the cap of 1e+03\n")
        assert list(tmp_path.iterdir()) == []

    def test_step_budget_is_the_sample_count(self):
        """A stage-kernel row that would make more step attempts than its
        run's full grid has samples ends as `budget` and raises
        NotConverged; the other rows of its batch keep their own runs."""
        stiff = _detuned_d1(1e6, 1.0)
        assert dynamics._kernel(stiff) == "stages"
        runs = []
        with pytest.raises(NotConverged, match="budget of 131 step"):
            propagate(stiff, t_final=1.0, runs=runs)
        (run,) = runs
        assert run["end"] == "budget"
        assert run["accepted"] + run["rejected"] == \
            dynamics._sample_count(stiff, 1.0) == 131

        good = preset("fig2-trapping").system
        alone = []
        trapped_fraction(good, t_final=10.0, require_plateau=False,
                         runs=alone)
        runs = []
        with pytest.raises(NotConverged):
            trapped_fraction([good, stiff], t_final=10.0,
                             require_plateau=False, runs=runs)
        assert runs[0] == alone[0]
        assert runs[1]["end"] == "budget"
        assert runs[1]["accepted"] + runs[1]["rejected"] == \
            dynamics._sample_count(stiff, 10.0)

    @pytest.mark.parametrize("gamma, mag, within", BUDGET_EDGE)
    def test_step_budget_edge(self, gamma, mag, within):
        """Stiff but valid detuned D1 loops either side of the stage
        kernel's budget, as the README documents: the grid resolves the
        splittings, not Gamma or the drives, so Gamma = 2e3 or four drives
        of 50 need more than one step attempt per sample (the budget) and
        raise NotConverged, where Gamma = 1e3 and drives of 25 pass.  The
        resonant loops take the sample-step operator and compute
        (`TestMatrixKernel.test_stiff_d1_loops_compute`)."""
        system = _detuned_d1(gamma, mag)
        runs = []
        if within:
            propagate(system, t_final=5.0, runs=runs)
            assert runs[0]["end"] == "t_final"
        else:
            with pytest.raises(NotConverged):
                propagate(system, t_final=5.0, runs=runs)
            assert runs[0]["end"] == "budget"


def _integrator_cases():
    cases = []
    for name in preset_names():
        cases.append((name, preset(name).system))
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


#: SciPy's solve_ivp status by the end of the same run
SCIPY_STATUS = {"t_final": 0, "decay_floor": 1, "failed": -1}


def _scipy_run(fun, y0, times):
    """SciPy's DOP853 run of y' = fun(t, y) from t=0, sampled at times, at
    the tolerances of `_dop853`."""
    return solve_ivp(fun, (0.0, times[-1]), y0, method="DOP853",
                     rtol=_dop853.DEFAULT_TOL, atol=_dop853.ATOL,
                     t_eval=times)


def _same_solution(ours, ref):
    """Whether our Solution has the samples, evaluation count and end of
    SciPy's solution ref, whose samples are y[:, k]."""
    return (np.array_equal(ours.t, ref.t) and np.array_equal(ours.y.T, ref.y)
            and ours.nfev == ref.nfev and SCIPY_STATUS[ours.end] == ref.status)


class TestDop853:
    """The in-package DOP853 reproduces SciPy's, sample for sample."""

    def test_tables_match_scipy(self):
        for name in ("C", "A", "B", "E3", "E5", "D"):
            assert np.array_equal(getattr(_dop853, name),
                                  getattr(dop853_coefficients, name)), name

    @pytest.mark.parametrize("name", list(_INTEGRATOR_CASES))
    def test_samples_match_scipy(self, name):
        system = _INTEGRATOR_CASES[name]
        full = dynamics._sample_times(system, 60.0)
        late = dynamics._sample_times(system, 150.0)
        for times in (full, late[int(0.9 * len(late)):]):
            (ours,) = dynamics.solve_ivp(dynamics._rhs_builder([system]),
                                         system.initial_vector()[None],
                                         t_eval=times, max_tries=len(full))
            ref = _scipy_run(_scipy_rhs(system), system.initial_vector(),
                             times)
            assert ours.y.shape == (len(times), 4)
            assert ours.end == "t_final" and _same_solution(ours, ref)

    def test_blow_up_fails_like_scipy(self):
        # y' = y**2, y(0) = 1 blows up at t = 1
        times = np.linspace(0.0, 2.0, 201)
        # a budget that does not bind: the run ends as SciPy's does
        (ours,) = dynamics.solve_ivp(lambda t, y: y ** 2,
                                     np.array([[1.0 + 0j]]), t_eval=times,
                                     max_tries=10**6)
        ref = _scipy_run(lambda t, y: y ** 2, np.array([1.0 + 0j]), times)
        assert ours.end == "failed" and not ref.success
        assert 0 < len(ours.t) < len(times)
        assert ours.t[-1] == ref.t[-1] and ours.y[-1, 0] == ref.y[0, -1]
        assert _same_solution(ours, ref)

    @pytest.mark.parametrize("rtol,atol", [(0.0, 0.0), (math.nan, 1e-10),
                                           (math.inf, 1e-10)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_step_size_fails(self, rtol, atol, monkeypatch):
        # a zero component with zero atol, or a NaN or infinite rtol, makes
        # the initial step size NaN: the integration fails, it does not
        # step forever
        monkeypatch.setattr(_dop853, "DEFAULT_TOL", rtol)
        monkeypatch.setattr(_dop853, "ATOL", atol)
        (sol,) = dynamics.solve_ivp(lambda t, y: -y,
                                    np.array([[1.0, 0.0]], dtype=complex),
                                    t_eval=[0.5, 1.0], max_tries=2)
        assert sol.end == "failed" and len(sol.t) == 0


def _decaying_system():
    """A random draw whose population falls below 1e-9 by t = 60."""
    return random_admissible_system(np.random.default_rng(3))


def _stop_floor():
    """A floor that the stage kernel's run of `_decaying_system` crosses
    at t ~ 142: its population at the sample there."""
    system = _decaying_system()
    times = dynamics._sample_times(system, 150.0)
    (late,) = dynamics.solve_ivp(dynamics._rhs_builder([system]),
                                 system.initial_vector()[None],
                                 t_eval=times, max_tries=len(times))
    return np.sum(np.abs(late.y) ** 2, axis=1)[np.searchsorted(times,
                                                               142.0)]


def _recorded_run(system, times, stop):
    """Integrate with stop, recording at each accepted step (each call of
    stop) the evaluation count and the latest time fun was evaluated at."""
    rhs = dynamics._rhs_builder([system])
    calls = {"nfev": 0, "t": 0.0}
    steps = []

    def fun(t, y):
        calls["nfev"] += 1
        calls["t"] = max(calls["t"], float(t[0]))
        return rhs(t, y)

    def record(y):
        steps.append((calls["nfev"], calls["t"], y[0].copy()))
        return [stop(y[0])]

    (sol,) = dynamics.solve_ivp(fun, system.initial_vector()[None],
                                t_eval=times,
                                max_tries=dynamics._sample_count(
                                    system, times[-1]),
                                stop=record)
    return sol, steps


class TestStop:
    """solve_ivp(..., stop=predicate) ends after the first accepted step
    whose end state satisfies it, and is a prefix of the run without it."""

    @pytest.mark.parametrize("name", ["fig2-trapping", "random0",
                                      "detuned1"])
    def test_none_matches_scipy(self, name):
        system = _INTEGRATOR_CASES[name]
        times = dynamics._sample_times(system, 60.0)
        (ours,) = dynamics.solve_ivp(dynamics._rhs_builder([system]),
                                     system.initial_vector()[None],
                                     t_eval=times, max_tries=len(times),
                                     stop=None)
        ref = _scipy_run(_scipy_rhs(system), system.initial_vector(), times)
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
        assert stopped.end == "decay_floor"
        assert stopped.nfev == nfev
        n = len(stopped.t)
        assert n == np.searchsorted(times, t_stop, side="right")
        assert np.array_equal(stopped.t, full.t[:n])
        assert np.array_equal(stopped.y, full.y[:n])
        if grid == "window" and floor == 1e-9:
            assert n == 0 and stopped.y.shape == (0, 4)
        if grid == "full" and floor == 1e-3:
            assert 0 < n < len(times)

    def test_predicate_that_never_fires_changes_nothing(self):
        for system in (_decaying_system(), _INTEGRATOR_CASES["detuned0"]):
            times = dynamics._sample_times(system, 60.0)
            never, steps = _recorded_run(system, times, lambda y: False)
            (ref,) = dynamics.solve_ivp(dynamics._rhs_builder([system]),
                                        system.initial_vector()[None],
                                        t_eval=times, max_tries=len(times))
            assert len(steps) > 0 and _same_run(never, ref)
            assert never.end == "t_final"


def _overflowing_system():
    """fig2-trapping with a 1e200 drive: the error norm is NaN from the first
    step, so the integration fails before any sample."""
    s = preset("fig2-trapping").system
    return s.with_drives([DriveField(1e200), *s.drives[1:]])


def _same_run(ours, ref):
    """Whether two of our Solutions are the same run, bit for bit."""
    return (np.array_equal(ours.t, ref.t) and np.array_equal(ours.y, ref.y)
            and (ours.end, ours.nfev, ours.accepted, ours.rejected)
            == (ref.end, ref.nfev, ref.accepted, ref.rejected))


class TestBatch:
    """solve_ivp with y0 of shape (B, n) steps the rows in lockstep; each
    row's samples, t, evaluation count and end equal its run alone, bit
    for bit."""

    @staticmethod
    def _integrate(fun, y0, times, stop, max_tries):
        return dynamics.solve_ivp(fun, y0, t_eval=times,
                                  max_tries=max_tries, stop=stop)

    @pytest.mark.parametrize("grid", ["full", "window"])
    def test_rows_equal_runs_alone(self, grid):
        # presets, seeded random and detuned, cross-damped systems, a
        # decaying draw that stops at t ~ 142, and one that fails
        systems = [*_INTEGRATOR_CASES.values(), _decaying_system(),
                   _overflowing_system()]
        floors = np.full(len(systems), 1e-9)
        floors[-2] = _stop_floor()
        times = dynamics._sample_times(systems[0], 150.0)
        budget = len(times)
        if grid == "window":
            times = times[int(0.9 * len(times)):]
        batch = self._integrate(
            dynamics._rhs_builder(systems),
            np.array([s.initial_vector() for s in systems]), times,
            lambda y: np.vecdot(y, y).real < floors, budget)
        assert len(batch) == len(systems)
        assert batch.nfev == sum(sol.nfev for sol in batch)
        for system, floor, row in zip(systems, floors, batch):
            (alone,) = self._integrate(
                dynamics._rhs_builder([system]), system.initial_vector()[None],
                times, lambda y, floor=floor: np.vecdot(y, y).real < floor,
                budget)
            assert _same_run(row, alone)
        ends = [(sol.end, len(sol.t)) for sol in batch]
        # rows that stop before the last sample, rows that reach it, and
        # the failing row, which has no sample
        assert any(e == "decay_floor" and 0 < n < len(times) for e, n in ends)
        assert any(e == "t_final" and n == len(times) for e, n in ends)
        assert ends[-1] == ("failed", 0)
        assert batch[-2].end == "decay_floor"
        if grid == "window":
            # the floor of 1e-9 is crossed before the window
            assert any(e == "decay_floor" and n == 0 for e, n in ends[:-1])

    def test_trapped_fraction_batch_equals_runs_alone(self):
        rng = np.random.default_rng(5)
        # two sample grids: the detuned draw resolves a faster phase
        detuned = D2System(gamma=(1.0, 1.0, 1.0), omega12=13, omega23=13,
                           drives=preset("fig2-notrapping").system.drives,
                           detunings=(15.0, 0.0, 0.0, 0.0))
        systems = [*_phase2_sweep()[::4], detuned, _decaying_system(),
                   preset("d1-trapping").system,
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
        # the operator reaches the whole window of the good rows; the bad
        # one's step would fall below 10 ulp of t_final
        assert [run["end"] for run in runs] == ["t_final", "failed",
                                                "t_final"]
        assert runs[1]["halvings"] is None and runs[1]["accepted"] == 0
        assert runs[1]["window_means"] is None
        assert runs[0] == runs[2] and len(runs[0]["window_means"]) == 2

        # of two failing rows, the first in order is raised
        integrate = dynamics.window_means

        def fail_rows(*args):
            sols = integrate(*args)
            for k, t in ((1, [135.5, 136.0]), (2, [135.0])):
                sols[k] = SimpleNamespace(t=np.array(t), end="failed",
                                          nfev=0, accepted=0, rejected=0,
                                          halvings=None, error_bound=None,
                                          means=None)
            return sols

        monkeypatch.setattr(dynamics, "window_means", fail_rows)
        with pytest.raises(StepSizeUnderflow) as info:
            trapped_fraction([good] * 3, require_plateau=False)
        assert info.value.t_reached == 136.0


#: how far the sample-step operator's samples may lie from scipy's expm on
#: the presets to t = 60 and on seeded draws to t = 150: the roundoff of
#: its step operator, grown over its powers (6.5e-13 at most there, on
#: the trapped D1 presets; 3.2e-14 on the draws)
EXPM_TOL = 1e-12


def _both_kernels(run):
    """run() as the systems choose their kernel (the sample-step operator
    for a resonant, uncoupled one), then with every system on the stage
    kernel."""
    chosen = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_kernel", lambda sys: "stages")
        return chosen, run()


def _solve_alone(system, t_final):
    """propagate's sample-step operator run of system, as a Solution even
    where it fails."""
    assert dynamics._kernel(system) == "operator"
    (sol,) = dynamics.operator_runs(
        dynamics._drift_stack([system]), dynamics._initial_states([system]),
        dynamics._sample_times(system, t_final), 0)
    return sol


def _expm_error(system, sol, times, every):
    """The largest distance of every every-th sample of sol, and the last,
    from exp(M t) y0 by scipy.linalg.expm."""
    m = coupling_matrix(system)
    k = np.r_[0:len(times):every, len(times) - 1]
    want = np.array([expm(m * times[i]) @ system.initial_vector() for i in k])
    return np.max(np.abs(sol.y[k] - want))


def _stage_steps(system, sol, times, every):
    """The largest distance of the samples k + 1 of sol, for every every-th
    k, from the stage kernel's adaptive run over one sample step from its
    sample k; and the rows of that batch."""
    k = np.arange(0, len(times) - 1, every)
    steps = dynamics.solve_ivp(dynamics._rhs_builder([system] * len(k)),
                               sol.y[k], t_eval=times[1:2], max_tries=10**5)
    assert {step.end for step in steps} == {"t_final"}
    return np.max(np.abs(np.array([step.y[0] for step in steps])
                         - sol.y[k + 1]))


def _step_polynomial(z, row):
    """sum_k c_k z^k for the coefficients c of `_polynomial_table` row row
    (0 the step's increment, 1 and 2 h err5 and h err3), z of shape (n,
    n)."""
    power, total = np.eye(len(z)), np.zeros_like(z)
    for c in _dop853._polynomial_table()[row]:
        power = power @ z
        total = total + c * power
    return total


@pytest.mark.parametrize("name", preset_names())
def test_kernel_follows_analytic_admissible(name):
    """A run takes the sample-step operator exactly where the closed form
    applies: the preset, and its detuned, cross-damped and unevenly split
    copies."""
    s = preset(name).system
    copies = [s, replace(s, detunings=(0.0, 0.3, 0.0, 0.0)),
              replace(s, alignments=(0.0, 0.0, 0.5)),
              replace(s, omega23=s.omega23 + 4.0),
              replace(s, omega23=s.omega23 / 2.0, detunings=(0.1,) * 4)]
    kernels = [dynamics._kernel(c) for c in copies]
    assert kernels == ["operator" if analytic_admissible(c) else "stages"
                       for c in copies]
    assert kernels[1:] == ["stages", "stages", "operator", "stages"]


class TestMatrixKernel:
    """A system whose drift matrix M is constant takes the sample-step
    operator: DOP853's step of size h = dt / 2^j, squared j times up to the
    sample step dt, and the samples are its powers."""

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_take_the_stage_kernels_steps(self, name):
        """Each step of the operator is the stage kernel's step of size h,
        to roundoff, from states all along the run, and the stage kernel's
        error norm accepts it; the samples lie within EXPM_TOL of expm."""
        system = preset(name).system
        times = dynamics._sample_times(system, 60.0)
        sol = _solve_alone(system, 60.0)
        assert dynamics._kernel(system) == "operator"
        assert sol.end == "t_final" and len(sol.t) == len(times)
        assert _expm_error(system, sol, times, 41) <= EXPM_TOL
        k = np.arange(0, len(times), 97)
        y, t = sol.y[k], times[k]
        h = times[1] / 2 ** sol.halvings
        fun = dynamics._rhs_builder([system] * len(k))
        y_new, err = _dop853._Stages(fun, fun(t, y)).attempt(
            y, t, np.full(len(k), h))
        step = _step_polynomial(h * coupling_matrix(system), 0)
        assert np.max(np.abs(y_new - (y + np.matvec(step, y)))) <= 1e-15
        scale = _dop853.ATOL + np.maximum(np.abs(y), np.abs(y_new)) * \
            _dop853.DEFAULT_TOL
        err5, err3 = np.sqrt(_dop853._squared_norms(err / scale))
        assert all(_dop853._error_norm(e5, e3, h, 4) < 1
                   for e5, e3 in zip(err5.tolist(), err3.tolist()))

    def test_random_and_stiff_systems(self):
        """Every operator sample is within DEFAULT_TOL of the stage
        kernel's adaptive run over one sample step from the sample before
        it, also where the population has decayed below atol, and on stiff
        D1 loops on either side of the stage kernel's step budget.  (The
        two kernels' whole runs differ by the stage kernel's global error,
        up to 1.9e-7 on the trapped D1 presets at t = 150.)"""
        rng = np.random.default_rng(29)
        draws = [(random_admissible_system(rng), 150.0, 97)
                 for _ in range(50)]
        edge = [(d1_system(gamma, *[DriveField(mag)] * 4), 5.0, 13)
                for gamma, mag, _ in BUDGET_EDGE]
        for system, t_final, every in draws + edge:
            times = dynamics._sample_times(system, t_final)
            sol = _solve_alone(system, t_final)
            assert sol.end == "t_final" and len(sol.t) == len(times)
            assert _stage_steps(system, sol, times, every) <= \
                dynamics.DEFAULT_TOL

    def test_random_draws_match_expm(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            system = random_admissible_system(rng)
            times = dynamics._sample_times(system, 150.0)
            sol = _solve_alone(system, 150.0)
            assert _expm_error(system, sol, times, 401) <= EXPM_TOL

    @pytest.mark.parametrize("gamma, mag", [(2e3, 1.0), (1.0, 50.0),
                                            (5e3, 1.0), (1e5, 1.0)])
    def test_stiff_d1_loops_compute(self, gamma, mag):
        """The stiff D1 loops that spend the stage kernel's step budget
        (NotConverged, exit 3) compute, within DEFAULT_TOL of expm: the
        operator's cost follows the samples, its step only halves more
        often."""
        system = d1_system(gamma, *[DriveField(mag)] * 4)
        runs = []
        traj = propagate(system, t_final=5.0, runs=runs)
        (run,) = runs
        assert run["end"] == "t_final" and run["halvings"] >= 2
        assert _expm_error(system, SimpleNamespace(y=traj.amps), traj.times,
                           13) <= dynamics.DEFAULT_TOL

    def test_run_record(self):
        """An operator run records its halvings j, the least whose error
        polynomials have norms at most ATOL, and that norm; it evaluates
        no right-hand side, rejects no step and accepts the 2^j steps of
        each sample step to t_final."""
        system = preset("fig2-trapping").system
        runs = []
        traj = propagate(system, t_final=60.0, runs=runs)
        (run,) = runs
        j = run["halvings"]
        assert run["kernel"] == "operator" and run["end"] == "t_final"
        assert (run["nfev"], run["rejected"]) == (0, 0)
        assert run["accepted"] == 2 ** j * (len(traj.times) - 1)
        m = coupling_matrix(system)

        def bound(halvings):
            z = traj.times[1] / 2 ** halvings * m
            return max(np.linalg.norm(_step_polynomial(z, row))
                       for row in (1, 2))

        assert j >= 1 and bound(j - 1) > _dop853.ATOL
        assert run["error_bound"] == pytest.approx(bound(j), rel=1e-12)
        assert run["error_bound"] <= _dop853.ATOL

    @pytest.mark.parametrize("grid", ["full", "window"])
    def test_rows_equal_runs_alone(self, grid):
        # presets and seeded draws, a draw that decays below 1e-9, and the
        # 1e200 drive, which fails before any sample
        systems = [s for s in _INTEGRATOR_CASES.values()
                   if dynamics._kernel(s) == "operator"]
        systems += [_decaying_system(), _overflowing_system()]
        assert {dynamics._kernel(s) for s in systems} == {"operator"}
        times = dynamics._sample_times(systems[0], 150.0)
        first = int(0.9 * len(times)) if grid == "window" else 0
        m = dynamics._drift_stack(systems)
        y0 = dynamics._initial_states(systems)
        batch = dynamics.operator_runs(m, y0, times, first)
        for k, row in enumerate(batch):
            (alone,) = dynamics.operator_runs(m[k:k + 1], y0[k:k + 1], times,
                                              first)
            assert _same_run(row, alone)
            assert (row.halvings, row.error_bound) == \
                (alone.halvings, alone.error_bound)
        assert len(batch) == len(systems)
        ends = [(sol.end, len(sol.t)) for sol in batch]
        assert ends[:-1] == [("t_final", len(times) - first)] * (
            len(systems) - 1)
        assert ends[-1] == ("failed", 0)
        assert batch[-1].halvings is None and batch[-1].accepted == 0

    def test_mixed_grid_batches_by_kernel(self):
        """Resonant and cross-damped systems on one sample grid: each row
        still equals its run alone, as each kernel takes its own batch."""
        rng = np.random.default_rng(31)
        draws = [random_admissible_system(rng) for _ in range(4)]
        damped = [D2System(gamma=s.gamma, omega12=s.omega12,
                           omega23=s.omega23, drives=s.drives,
                           alignments=tuple(rng.uniform(-0.5, 0.5, 3)))
                  for s in draws[:2]]
        systems = [draws[0], damped[0], preset("d1-trapping").system,
                   draws[1], damped[1], preset("d1-fig3a").system,
                   draws[2]]
        assert len({len(dynamics._sample_times(s, 150.0))
                    for s in systems}) == 1
        runs = []
        values = trapped_fraction(systems, require_plateau=False, runs=runs)
        for system, value, run in zip(systems, values, runs, strict=True):
            alone = []
            assert trapped_fraction(system, require_plateau=False,
                                    runs=alone) == value
            assert alone == [run]
        assert [run["kernel"] for run in runs] == [
            "operator", "stages", "operator", "operator", "stages",
            "operator", "operator"]


#: how far `window_means` may lie from the means of the sample-step
#: operator's samples: the roundoff of the Gram sums' doubling (8.3e-14 at
#: most on the presets' windows to t = 150, 3.5e-14 on the stiff D1 loops)
GRAM_TOL = 1e-12

#: tracemalloc peak of the 21-value phase2 trapped_fraction batch, measured
#: at 0.346 MB (Python 3.11, numpy 2.4) plus 10%, rounded up to 10 kB:
#: below the 2.6 MB block of its 21 x 1951 complex window samples, which
#: the Gram sums no longer form (the peak was 3.32 MB with them)
TRAPPED_SWEEP_PEAK = 390_000


def _window(system, t_final):
    """trapped_fraction's sample grid of system and the index of its
    window's first sample."""
    times = dynamics._sample_times(system, t_final)
    return times, min(int(0.9 * len(times)), len(times) - 2)


def _window_runs(systems, times, first):
    """The systems' `operator_runs` on times from times[first], with
    their samples, and their `window_means` runs."""
    m = dynamics._drift_stack(systems)
    y0 = dynamics._initial_states(systems)
    return (dynamics.operator_runs(m, y0, times, first),
            dynamics.window_means(m, y0, times, first))


class TestWindowMeans:
    """`window_means` gives the mean population over each half of a
    window from Gram sums of the sample-step operator, with no sample:
    within GRAM_TOL of the means of that operator's samples, with the
    same run record."""

    @staticmethod
    def _check(systems, times, first):
        runs, grams = _window_runs(systems, times, first)
        half = (len(times) - first) // 2
        for run, gram in zip(runs, grams, strict=True):
            assert (gram.end, gram.nfev, gram.accepted, gram.rejected,
                    gram.halvings, gram.error_bound) == \
                (run.end, run.nfev, run.accepted, run.rejected,
                 run.halvings, run.error_bound)
            assert np.array_equal(gram.t, run.t) and gram.y.shape == (0, 4)
            norms = np.sum(np.abs(run.y) ** 2, axis=1)
            want = [np.mean(norms[:half]), np.mean(norms[half:])]
            assert np.max(np.abs(np.subtract(gram.means, want))) <= GRAM_TOL
        return runs

    @pytest.mark.parametrize("name", preset_names())
    def test_presets(self, name):
        system = preset(name).system
        self._check([system], *_window(system, 150.0))

    def test_random_draws(self):
        rng = np.random.default_rng(41)
        draws = [random_admissible_system(rng) for _ in range(30)]
        for system in draws:
            self._check([system], *_window(system, 150.0))

    @pytest.mark.parametrize("gamma", [5e3, 1e5])
    @pytest.mark.parametrize("t_final", [5.0, 150.0])
    def test_stiff_d1_loops(self, gamma, t_final):
        system = d1_system(gamma, *[DriveField(1.0)] * 4)
        (run,) = self._check([system], *_window(system, t_final))
        assert run.halvings >= 8

    @pytest.mark.parametrize("length", [2, 3, 4, 63, 64, 65, 1000, 1001])
    @pytest.mark.parametrize("first", [0, 1, 14000])
    def test_window_lengths(self, length, first):
        # odd lengths add the last sample to the second half; a window from
        # t = 0 starts at y0
        rng = np.random.default_rng(length)
        systems = [preset("fig2-notrapping").system,
                   preset("d1-trapping").system,
                   random_admissible_system(rng)]
        self._check(systems, np.arange(first + length) * 0.01, first)

    def test_rows_equal_runs_alone(self):
        """Bit for bit, with a row whose step would fall below 10 ulp of
        t_final, which fails before any sample with means None, and one
        whose samples overflow (A1 grows as exp(5.0025 t), past the largest
        float at t = 141.885), which ends at t_final with its means not
        finite, as trapped_fraction reads a grown population."""
        growing = _bare("A1", gamma=(-10.005, 1.0, 1.0))
        systems = [*_phase2_sweep()[::5], _overflowing_system(),
                   preset("d1-trapping").system, growing,
                   random_admissible_system(np.random.default_rng(3))]
        window = _window(systems[0], 150.0)
        runs, grams = _window_runs(systems, *window)
        for system, gram in zip(systems, grams, strict=True):
            (alone,) = _window_runs([system], *window)[1]
            assert _same_run(gram, alone)
            assert (gram.halvings, gram.error_bound) == \
                (alone.halvings, alone.error_bound)
            assert (gram.means is None) == (alone.means is None)
            assert gram.means is None or \
                np.array_equal(gram.means, alone.means, equal_nan=True)
        failing = [k for k, gram in enumerate(grams) if gram.end == "failed"]
        assert failing == [5]
        assert grams[5].means is None and len(grams[5].t) == 0
        assert (len(runs[5].t), runs[5].accepted, grams[5].accepted) == \
            (0, 0, 0)
        assert grams[7].end == runs[7].end == "t_final"
        assert np.array_equal(grams[7].t, runs[7].t)
        assert not np.isfinite(grams[7].means).all()
        with pytest.raises(NotConverged, match="grows"):
            trapped_fraction(growing)

    def test_trapped_sweep_memory(self):
        systems = _phase2_sweep()
        trapped_fraction(systems, require_plateau=False)
        tracemalloc.start()
        try:
            trapped_fraction(systems, require_plateau=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= TRAPPED_SWEEP_PEAK
        times, first = _window(systems[0], 150.0)
        assert TRAPPED_SWEEP_PEAK < len(systems) * (len(times) - first) * \
            4 * 16


@pytest.mark.parametrize("require_plateau", [False, True])
@pytest.mark.parametrize("gamma1", [-4.8, -0.5])
def test_growing_population_is_not_trapped(gamma1, require_plateau):
    """A population that grows past its initial norm of 1 raises
    NotConverged naming both window means, whatever require_plateau is;
    it is not clipped to a trapped fraction of 1.0.  The means are 3.1e295
    and inf at Gamma1 = -4.8, 2.3e30 and 9.7e31 at -0.5."""
    runs = []
    with pytest.raises(NotConverged, match="grows") as info:
        trapped_fraction(_bare("A1", gamma=(gamma1, 1.0, 1.0)),
                         require_plateau=require_plateau, runs=runs)
    m1, m2 = runs[0]["window_means"]
    assert m2 > 1e30
    assert f"window means {m1:.6g}, {m2:.6g}" in str(info.value)


def test_growing_population_on_the_stage_kernel(monkeypatch):
    """The stage kernel runs a system with a negative rate and no
    alignment, with no warning, to the operator's NotConverged and window
    means (2.28181e+30 and 9.73081e+31 at Gamma1 = -0.5): a zero alignment
    fills no cross-damping term, whose sqrt(Gamma) would be NaN."""
    system = _bare("A1", gamma=(-0.5, 1.0, 1.0))
    messages = []
    for kernel in ("operator", "stages"):
        monkeypatch.setattr(dynamics, "_kernel", lambda s: kernel)
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match="grows") as info:
                trapped_fraction(system, require_plateau=False, runs=runs)
        assert runs[0]["kernel"] == kernel
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "window means 2.28181e+30, 9.73081e+31" in messages[1]


def test_propagate_names_the_first_overflowing_sample():
    """A1 grows as exp(5.0025 t) and passes the largest float at t =
    141.885: the operator's run reaches t_final, and propagate raises
    NonFiniteValue at the first sample that overflows."""
    growing = _bare("A1", gamma=(-10.005, 1.0, 1.0))
    runs = []
    with pytest.raises(NonFiniteValue, match="overflow") as info:
        propagate(growing, 150.0, runs=runs)
    assert runs[0]["end"] == "t_final"
    t = float(re.search(r"t=(\S+)$", str(info.value)).group(1))
    assert t == pytest.approx(141.89, abs=0.01)
    times = dynamics._sample_times(growing, 150.0)
    k = np.searchsorted(times, t)
    assert times[k] == t
    amps = dynamics.operator_runs(dynamics._drift_stack([growing]),
                                  dynamics._initial_states([growing]),
                                  times, 0)[0].y
    assert np.isfinite(amps[:k]).all() and not np.isfinite(amps[k]).all()


def _interpolate(F, y_old, t_old, h, times):
    """The 7th-order continuous extension with coefficients F over the step
    [t_old, t_old + h] at times, shape (len(times), state size): the
    evaluation step by step that `_dop853._Dense` does in blocks."""
    x = ((times - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
    for i, term in enumerate(reversed(F)):
        out += term
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out


def _stage_runs(systems, t_eval, max_tries, stop=None):
    """The stage kernel's runs of the systems, sampled at t_eval."""
    return dynamics.solve_ivp(dynamics._rhs_builder(systems),
                              dynamics._initial_states(systems),
                              t_eval=t_eval, max_tries=max_tries, stop=stop)


def _with_step_samples(monkeypatch, run):
    """run()'s solutions, and each row's samples evaluated step by step
    with `_interpolate` as its steps are recorded (shape (0, n) for a row
    that samples nothing), in row order."""
    rows = []
    init, add = _dop853._Dense.__init__, _dop853._Dense.add

    def recording_init(self, t_eval, n):
        init(self, t_eval, n)
        self.reference = [np.empty((0, n), dtype=complex)]
        rows.append(self)

    def recording_add(self, F, y_old, t_old, h, reached):
        times = self.t_eval[self.reached:reached]
        self.reference.append(_interpolate(F, y_old, t_old, h, times))
        add(self, F, y_old, t_old, h, reached)

    monkeypatch.setattr(_dop853._Dense, "__init__", recording_init)
    monkeypatch.setattr(_dop853._Dense, "add", recording_add)
    sols = run()
    return sols, [np.vstack(row.reference) for row in rows]


class TestRunInterpolation:
    """A row's samples are evaluated once per run, a block at a time, bit
    for bit as step by step."""

    @staticmethod
    def _same_bits(sols, steps):
        assert len(sols) == len(steps)
        for sol, want in zip(sols, steps):
            assert sol.y.shape == want.shape == (len(sol.t), 4)
            assert sol.y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [13, _dop853.BLOCK])
    @pytest.mark.parametrize("name", preset_names())
    def test_presets(self, name, block, monkeypatch):
        # blocks of 13 samples split steps and flush mid-run; the presets
        # run on the stage kernel, which interpolates
        monkeypatch.setattr(_dop853, "BLOCK", block)
        system = preset(name).system
        times = dynamics._sample_times(system, 60.0)
        sols, steps = _with_step_samples(monkeypatch, lambda: _stage_runs(
            [system], times, len(times)))
        assert len(sols[0].t) == len(times)
        self._same_bits(sols, steps)

    @pytest.mark.parametrize("block", [13, _dop853.BLOCK])
    @pytest.mark.parametrize("grid", ["full", "window"])
    def test_mixed_batch_with_stop_and_failure(self, grid, block,
                                               monkeypatch):
        """A stage-kernel batch, with a row that stops, one that fails
        before any sample (the 1e200 drive, "failed") and rows that
        reach the end."""
        monkeypatch.setattr(_dop853, "BLOCK", block)
        systems = [*_INTEGRATOR_CASES.values(), _decaying_system(),
                   _overflowing_system()]
        floors = np.full(len(systems), 1e-9)
        floors[-2] = _stop_floor()
        times = dynamics._sample_times(systems[0], 150.0)
        budget = len(times)
        if grid == "window":
            times = times[int(0.9 * len(times)):]
        sols, steps = _with_step_samples(
            monkeypatch, lambda: _stage_runs(
                systems, times, budget,
                lambda y: np.vecdot(y, y).real < floors))
        self._same_bits(sols, steps)
        ends = [(sol.end, len(sol.t)) for sol in sols]
        assert ends[-1] == ("failed", 0)
        assert sols[-2].end == "decay_floor"
        assert any(e == "t_final" and n == len(times) for e, n in ends)


def _numpy_error_norm(err5, err3, h, n):
    """The error norm on numpy scalars, which overflow to inf and give NaN
    for 0/0: the reference for `_dop853._error_norm`."""
    with np.errstate(all="ignore"):
        e5, e3 = np.float64(err5) ** 2, np.float64(err3) ** 2
        return float(0.0 if e5 == 0 and e3 == 0
                     else h * e5 / math.sqrt((e5 + 0.01 * e3) * n))


class TestErrorNorm:
    """The step control runs on Python floats, with numpy's results where
    Python would raise."""

    @pytest.mark.parametrize("err5, err3, want", [
        # err5 ** 2 overflows: Python raises OverflowError, numpy gives
        # inf, and inf / inf is NaN
        (1e200, 1.0, math.nan),
        (1.0, 1e200, 0.0),
        (1e155, 1e155, math.nan),
        # 0.01 err3 ** 2 underflows to 0 with err5 = 0: 0 / 0
        (0.0, 1e-161, math.nan),
        (0.0, 0.0, 0.0),
        (math.inf, 1.0, math.nan),
        (math.nan, 1.0, math.nan),
    ])
    def test_where_python_floats_raise(self, err5, err3, want):
        got = _dop853._error_norm(err5, err3, 0.01, 4)
        assert got == pytest.approx(want, nan_ok=True)
        assert got == pytest.approx(_numpy_error_norm(err5, err3, 0.01, 4),
                                    nan_ok=True)

    def test_square_keeps_libm_pow(self, rng):
        """x ** 2 of a Python float is numpy's scalar power, bit for bit,
        where x * x differs in the last bit for some values."""
        x = (rng.uniform(0.0, 10.0, 20000)
             * 10.0 ** rng.integers(-150, 150, 20000)).tolist()
        assert [_dop853._square(v) for v in x] == \
            [float(np.float64(v) ** 2) for v in x]
        assert _dop853._square(1e200) == math.inf

    def test_equals_numpy_scalars(self, rng):
        err = 10.0 ** rng.uniform(-170.0, 170.0, (2, 2000))
        err[:, :100] = 0.0
        err[0, 100:200] = 0.0
        steps = rng.uniform(0.0, 1.0, 2000).tolist()
        for err5, err3, h in zip(*err.tolist(), steps):
            got = _dop853._error_norm(err5, err3, h, 4)
            want = _numpy_error_norm(err5, err3, h, 4)
            assert got == want or (math.isnan(got) and math.isnan(want))


class TestTimeDomainSpectrum:
    @pytest.mark.parametrize("name, trapped", [("d1-trapping", True),
                                               ("fig2-notrapping", False)])
    def test_rows_are_the_branch_amplitudes(self, name, trapped):
        """Row n is Gamma_n |F_n|^2 / 2 pi bit for bit, F_n the amplitude
        of propagate's trajectory at the branch's shifted grid."""
        s = preset(name).system
        grid = np.linspace(-30.0, 30.0, 601)
        spec = spectrum_time_domain(s, grid)
        traj = propagate(s)
        assert dynamics._is_trapped(traj) == trapped
        for n, shift in enumerate(branch_shifts(s), start=1):
            f = branch_amplitude_numeric(traj, n, grid + shift)
            want = s.gamma[n - 1] * np.abs(f) ** 2 / (2.0 * np.pi)
            assert spec.branch_intensity[n - 1].tobytes() == want.tobytes()
        assert spec.total.tobytes() == \
            spec.branch_intensity.sum(axis=0).tobytes()

    def test_matches_analytic_on_notrapping_preset(self):
        s = preset("fig2-notrapping").system
        grid = np.linspace(-30, 30, 101)
        a = spectrum_analytic(s, grid)
        t = spectrum_time_domain(s, grid)
        metrics = compare_spectra(a, t)
        assert metrics["max_rel_err"] < 1e-3

    @pytest.mark.parametrize("grid", [[-1e20, 0.0], [0.0, 1e300]],
                             ids=["1e20", "1e300"])
    def test_far_point_leaves_the_others_alone(self, grid):
        """A uniform grid of huge spacing is summed directly: the chirp-z
        phases would lose their precision at every point."""
        s = preset("fig2-notrapping").system
        grid = np.array(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spectrum_time_domain(s, grid)
        alone = np.column_stack([
            spectrum_time_domain(s, grid[k:k + 1]).branch_intensity
            for k in range(len(grid))])
        scale = np.max(np.abs(alone))
        assert np.max(np.abs(spec.branch_intensity - alone)) <= 1e-9 * scale

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
