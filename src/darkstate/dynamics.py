"""Time-domain propagation of the amplitude equations and the numeric
emission-amplitude oracle.

The equations of motion (rotating frame, drive terms carrying exp(+-i
Delta_i t), cross-damping terms carrying exp(-+i omega_ij t) factors, the
conjugate phase below the diagonal) are
integrated with the adaptive explicit Runge-Kutta pair DOP853 (`_dop853`,
a port of SciPy's, bound here as `solve_ivp`); the
one-branch emission amplitude integral_0^inf exp(i x t) A_n(t) dt is
evaluated with a Filon-type rule that treats the oscillatory factor exactly.

The trajectory is sampled only where it is read: `propagate` on its whole
uniform grid, `trapped_fraction` on the plateau window at the grid's end.
Integrator steps that hold no sample build no interpolant.
`trapped_fraction` stops integrating once the population has provably
decayed: when the decay matrix Gamma is positive semidefinite the norm
never grows, so once it falls below a floor far under `plateau_tol` every
later sample lies between 0 and that floor.

The Filon sums are taken over a whole detuning grid at once.  On a uniform
grid (every grid the CLI builds) they are one chirp-z transform per Filon
pass, that is three `numpy.fft` transforms of the smallest 5-smooth length
>= samples + points - 1; any other grid, or a scalar, is summed directly in
blocks of samples.  The path is chosen from the grid alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from ._dop853 import solve_ivp
from .errors import NotConverged, StepSizeUnderflow
from .model import D2System
from .spectrum import (SpectrumResult, assemble_spectrum, branch_shifts,
                       coupling_matrix)

DEFAULT_T_FINAL = 60.0
DEFAULT_TOL = 1e-8

#: convergence factor for the Laplace integral of trapped components
TRAP_EPSILON = 1e-3

#: trapped_fraction stops once the population is below this fraction of
#: plateau_tol, where the norm provably never grows
DECAY_FLOOR = 1e-3

#: eigenvalues of the decay matrix down to -PSD_ROUNDOFF * max(Gamma) count
#: as roundoff of 0: such a norm could grow by at most that relative rate,
#: about 1e-10 of itself over t = 150
PSD_ROUNDOFF = 1e-12


@dataclass
class AmplitudeTrajectory:
    """Uniformly resampled trajectory of the complex 4-vector (A1, A2, A3, B)."""

    times: np.ndarray
    amps: np.ndarray  # shape (len(times), 4)

    def norm(self) -> np.ndarray:
        return np.sum(np.abs(self.amps) ** 2, axis=1)


def _rhs_builder(sys: D2System):
    m = coupling_matrix(sys)
    g1, g2, g3 = sys.gamma
    p1, p2, p3 = sys.alignments
    d1, d2, d3, d4 = sys.detunings
    o1, o2, o3, o4 = sys.rabi
    w12, w23 = sys.omega12, sys.omega23
    w13 = w12 + w23
    resonant = all(d == 0.0 for d in sys.detunings)
    no_cross = all(p == 0.0 for p in sys.alignments)

    if resonant and no_cross:
        def rhs(t, y):
            return m @ y
        return rhs

    c12 = p1 * math.sqrt(g1 * g2) / 2.0
    c13 = p2 * math.sqrt(g1 * g3) / 2.0
    c23 = p3 * math.sqrt(g2 * g3) / 2.0

    def rhs(t, y):
        a1, a2, a3, b = y
        e1 = np.exp(1j * d1 * t)
        e2 = np.exp(1j * d2 * t)
        e3 = np.exp(1j * d3 * t)
        e4 = np.exp(1j * d4 * t)
        f12 = np.exp(-1j * w12 * t)
        f13 = np.exp(-1j * w13 * t)
        f23 = np.exp(-1j * w23 * t)
        da1 = (-1j * o2 * e2 * a2 - 1j * o1 * e1 * b - 0.5 * g1 * a1
               - c12 * f12 * a2 - c13 * f13 * a3)
        da2 = (-1j * np.conj(o2) / e2 * a1 - 1j * o3 * e3 * a3 - 0.5 * g2 * a2
               - c12 * f12.conjugate() * a1 - c23 * f23 * a3)
        da3 = (-1j * np.conj(o3) / e3 * a2 - 1j * o4 * e4 * b - 0.5 * g3 * a3
               - c13 * f13.conjugate() * a1 - c23 * f23.conjugate() * a2)
        db = -1j * np.conj(o1) / e1 * a1 - 1j * np.conj(o4) / e4 * a3
        return np.array([da1, da2, da3, db])

    return rhs


def _norm_never_grows(sys: D2System) -> bool:
    """Whether d/dt sum |A|^2 <= 0 for every state, judged from the decay
    matrix Gamma (Gamma_n on the diagonal, p * sqrt(Gamma_i Gamma_j) off
    it) being positive semidefinite.

    The drive terms conserve the norm, and d/dt sum |A|^2 = -A^H G(t) A
    over (A1, A2, A3), where G(t) = U Gamma U^H with the unitary
    U = diag(exp(-i omega12 t), 1, exp(+i omega23 t)) of the rotating-frame
    phases.  G(t) is therefore positive semidefinite at every t when Gamma
    is.
    """
    g = np.array(sys.gamma)
    p1, p2, p3 = sys.alignments
    if not (np.all(g >= 0.0) and np.all(np.isfinite([*g, p1, p2, p3]))):
        return False
    root = np.sqrt(g)
    gamma = np.diag(g) + np.outer(root, root) * np.array(
        [[0.0, p1, p2], [p1, 0.0, p3], [p2, p3, 0.0]])
    return bool(np.linalg.eigvalsh(gamma)[0] >= -PSD_ROUNDOFF * g.max())


def _sample_times(sys: D2System, t_final: float) -> np.ndarray:
    """Uniform sample grid on [0, t_final] that resolves the fastest
    retained phase factor, with an even interval count so the
    half-resolution Richardson pass lines up."""
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    fast = max(abs(sys.omega12), abs(sys.omega23),
               *(abs(d) for d in sys.detunings), 1.0)
    n = int(math.ceil(t_final / min(0.01, 0.1 / fast)))
    return np.linspace(0.0, t_final, n + n % 2 + 1)


def _sample(sys: D2System, times: np.ndarray, tol: float,
            stop=None) -> np.ndarray:
    """Amplitudes at the ascending sample times, integrating from t=0 to
    times[-1], or only up to the first step whose end state satisfies
    stop; only the steps that hold a sample are interpolated."""
    sol = solve_ivp(_rhs_builder(sys), (0.0, times[-1]),
                    sys.initial_vector(), rtol=tol, atol=tol * 1e-2,
                    t_eval=times, stop=stop)
    if not sol.success:
        # sol.t holds only the samples reached, possibly none
        t_reached = float(sol.t[-1]) if len(sol.t) else None
        raise StepSizeUnderflow(f"integrator failed; last sample reached: "
                                f"t={t_reached}: {sol.message}",
                                t_reached=t_reached)
    return np.ascontiguousarray(sol.y.T)


def propagate(sys: D2System, t_final: float = DEFAULT_T_FINAL,
              tol: float = DEFAULT_TOL) -> AmplitudeTrajectory:
    """Integrate the amplitude equations from t=0 to t_final.

    The returned trajectory is sampled on a uniform grid fine enough for
    the oscillatory quadrature downstream.
    """
    times = _sample_times(sys, t_final)
    return AmplitudeTrajectory(times=times, amps=_sample(sys, times, tol))


# ---------------------------------------------------------------------------
# oscillatory quadrature
# ---------------------------------------------------------------------------

def _filon_weights(theta):
    """Exact integrals of 1 and u against exp(i*theta*u) on [0, 1], per
    element of theta (real or complex, any shape)."""
    theta = np.asarray(theta, dtype=complex)
    # the closed forms cancel catastrophically for small theta; there the
    # series is used, whose truncation error at the threshold is ~1e-19
    small = np.abs(theta) < 1e-2
    it = 1j * np.where(small, 1.0, theta)
    e = np.exp(it)
    # (arrays also for a 0-d theta, for which numpy returns scalars)
    w0 = np.asarray((e - 1.0) / it)
    w1 = np.asarray((e * (it - 1.0) + 1.0) / it ** 2)
    if np.any(small):
        it_small = 1j * theta[small]
        s0 = s1 = 0.0
        power = 1.0
        kfact = 1.0
        for k in range(8):
            s0 = s0 + power / (kfact * (k + 1))
            s1 = s1 + power / (kfact * (k + 2))
            power = power * it_small
            kfact *= k + 1
        w0[small] = s0
        w1[small] = s1
    return w0, w1


#: a grid x counts as uniform when its largest deviation from
#: x0 + j*dx, times the largest sample time, is below this phase error
UNIFORM_PHASE_TOL = 1e-10

#: complex elements per block of the direct phase sum (16 MB)
DIRECT_BLOCK = 1 << 20


def _fft_length(n):
    """Smallest 5-smooth integer >= n (a product of 2s, 3s and 5s)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2**k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_z(t0, h, rows, x, dx):
    """Bluestein's chirp-z transform (Rabiner, Schafer & Rader, 1969):
    sum_k rows[:, k] * exp(i x_j t_k) for t_k = t0 + k*h and
    x_j = x[0] + j*dx, as one FFT convolution along the samples.

    The chirp exp(i dx h q^2/2) is evaluated from its phase: the complex
    power w**(q**2/2) that SciPy's `czt` uses is off by ~1e-9 at 8k
    samples, which puts its sums ~3e-10 from the direct ones.
    """
    n, m = rows.shape[-1], x.size
    q = np.arange(max(m, n), dtype=float)
    chirp = np.exp(0.5j * (dx * h) * q ** 2)
    size = _fft_length(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    ramp = rows * (np.exp(1j * x[0] * h * q[:n]) * chirp[:n])
    conv = ifft(fft(ramp, size) * fft(kernel), axis=-1)[:, :m]
    return conv * (chirp[:m] * np.exp(1j * x * t0))


def _phase_sums(times, h, rows, x):
    """sum_k rows[:, k] * exp(i x_j t_k) for each x_j of a 1-D array x, with
    times t_k uniform in steps of h.

    A uniform x (real step) is one chirp-z transform along the samples; any
    other x is summed directly, a block of samples at a time, so that no
    (samples x grid) matrix is built.
    """
    m = x.size
    if m >= 2:
        dx = (x[-1] - x[0]).real / (m - 1)
        drift = np.max(np.abs(x - (x[0] + dx * np.arange(m))))
        if drift * np.max(np.abs(times)) <= UNIFORM_PHASE_TOL:
            return _chirp_z(times[0], h, rows, x, dx)
    sums = np.zeros((len(rows), m), dtype=complex)
    block = max(1, DIRECT_BLOCK // m)
    for k in range(0, len(times), block):
        phase = np.exp(1j * np.outer(times[k:k + block], x))
        sums += rows[:, k:k + block] @ phase
    return sums


def _filon_linear(times, values, x):
    """integral values(t) * exp(i x t) dt with values piecewise linear on a
    uniform grid, for each element of x (real, or complex for a damped
    transform); a scalar x gives a complex scalar."""
    x = np.asarray(x, dtype=complex)
    h = times[1] - times[0]
    w0, w1 = _filon_weights(x * h)
    # per interval: h * e^{i x t_k} * (v_k W0 + (v_{k+1}-v_k) W1)
    rows = np.stack([values[:-1], np.diff(values)])
    s0, s1 = _phase_sums(times[:-1], h, rows, x.ravel())
    out = h * (w0 * s0.reshape(x.shape) + w1 * s1.reshape(x.shape))
    return complex(out) if out.ndim == 0 else out


def _branch_transform(traj: AmplitudeTrajectory, branch: int, x):
    """Richardson-extrapolated Filon transform of one amplitude component."""
    vals = traj.amps[:, branch - 1]
    fine = _filon_linear(traj.times, vals, x)
    coarse = _filon_linear(traj.times[::2], vals[::2], x)
    return (4.0 * fine - coarse) / 3.0


def _is_trapped(traj: AmplitudeTrajectory, tol: float) -> bool:
    return float(traj.norm()[-1]) > max(100.0 * tol, 1e-8)


def branch_amplitude_numeric(sys: D2System, branch: int, delta,
                             t_final: float = DEFAULT_T_FINAL,
                             tol: float = DEFAULT_TOL,
                             trajectory: AmplitudeTrajectory | None = None):
    """Laplace transform of A_branch at s = -i*delta from the time-domain
    trajectory (delta is the branch-local detuning).

    When a trapped component survives, the integral is damped with
    exp(-eps t) at two eps values and extrapolated to eps -> 0.
    """
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    traj = trajectory if trajectory is not None else propagate(sys, t_final, tol)
    scalar = np.isscalar(delta)
    deltas = np.atleast_1d(np.asarray(delta, dtype=float))
    if _is_trapped(traj, tol):
        f1 = _branch_transform(traj, branch, deltas + 1j * TRAP_EPSILON)
        f2 = _branch_transform(traj, branch, deltas + 1j * TRAP_EPSILON / 2.0)
        out = 2.0 * f2 - f1
    else:
        out = _branch_transform(traj, branch, deltas)
    return complex(out[0]) if scalar else out


def trapped_fraction(sys: D2System, t_final: float = 150.0,
                     tol: float = DEFAULT_TOL, plateau_tol: float = 1e-6,
                     require_plateau: bool = True) -> float:
    """Plateau value of the surviving population |A1|^2+|A2|^2+|A3|^2+|B|^2.

    The population is sampled only on the last 10% of propagate's uniform
    grid of n samples, from sample int(0.9 n) on.  That window is split in
    two; their means must agree to plateau_tol, else NotConverged is raised
    (or, with require_plateau=False, the late-window mean is returned
    anyway).

    When the decay matrix is positive semidefinite (see _norm_never_grows)
    the population never grows, and the integration stops at the first
    step that ends with it below DECAY_FLOOR * plateau_tol.  The window
    samples not reached then count as 0, each within that floor of its
    value; a stop before the window returns 0.0.
    """
    times = _sample_times(sys, t_final)
    window = times[int(0.9 * len(times)):]
    floor = DECAY_FLOOR * plateau_tol
    stop = ((lambda y: np.vdot(y, y).real < floor)
            if _norm_never_grows(sys) else None)
    amps = _sample(sys, window, tol, stop)
    tail = np.zeros(len(window))
    tail[:len(amps)] = AmplitudeTrajectory(window[:len(amps)], amps).norm()
    half = len(tail) // 2
    m1 = float(np.mean(tail[:half]))
    m2 = float(np.mean(tail[half:]))
    if abs(m1 - m2) > plateau_tol and require_plateau:
        raise NotConverged(
            f"population has not settled: window means {m1:.6g}, {m2:.6g}",
            window_means=(m1, m2),
        )
    return min(max(m2, 0.0), 1.0)


def spectrum_time_domain(sys: D2System, grid, include_cross: bool = False,
                         t_final: float = DEFAULT_T_FINAL,
                         tol: float = DEFAULT_TOL) -> SpectrumResult:
    """Branch-resolved spectrum from the time-domain trajectory.

    Branch n is evaluated at its shifted argument delta + {+omega12, 0,
    -omega23} (`branch_shifts`); cross terms between branches are excluded
    unless requested.
    """
    grid = np.asarray(grid, dtype=float)
    traj = propagate(sys, t_final, tol)
    amps = np.zeros((3, len(grid)), dtype=complex)
    for branch, shift in enumerate(branch_shifts(sys), start=1):
        amps[branch - 1] = branch_amplitude_numeric(
            sys, branch, grid + shift, t_final=t_final, tol=tol,
            trajectory=traj)
    return assemble_spectrum(sys, grid, amps, include_cross, "timedomain",
                             [[], [], []])
