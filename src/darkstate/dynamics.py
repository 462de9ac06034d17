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

Systems are integrated as lockstep batches of the one DOP853 core: given a
sequence of systems (a sweep), `trapped_fraction` steps all those that
share a sample grid together, each row with its own steps, stop test and
failure, and each row's samples, steps and value equal those of its run
alone bit for bit; errors are raised for the first failing system in
order, as a loop over the systems would.  `propagate` and a single
`trapped_fraction` are batches of one.

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

from ._dop853 import REACHED_END, STOPPED, TOO_SMALL_STEP, solve_ivp
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


def _rhs_builder(systems):
    """The amplitude equations y' = rhs(t, y) of a batch of systems: t of
    shape (B,), y of shape (B, 4), one row per system.  Given one
    D2System, rhs(t, y) of its state alone: t a float, y of shape (4,).

    With every row resonant and free of cross-damping, the drift matrix
    is constant and rhs is the stacked product M @ y.  Otherwise each row
    has the time-dependent matrix M(t) = M * exp(i R t) + X * exp(i W t)
    (elementwise): the drive terms with their detuning phases R, then the
    cross-damping terms X = -p sqrt(Gamma_i Gamma_j) / 2 with their
    splitting phases W, conjugate below the diagonal.  A resonant,
    uncoupled row of such a batch has R = 0 and X = 0, so its M(t) is M
    exactly and it takes the values of its constant-matrix run.
    """
    if isinstance(systems, D2System):
        rhs = _rhs_builder([systems])
        return lambda t, y: rhs(np.array([t]), y[None])[0]
    m = np.array([coupling_matrix(s) for s in systems])
    if all(not any(s.detunings) and not any(s.alignments) for s in systems):
        def rhs(t, y):
            return np.matvec(m, y)
        return rhs

    def antisymmetric(r12, r13, r23, r14, r34):
        upper = np.array([[0.0, r12, r13, r14], [0.0, 0.0, r23, 0.0],
                          [0.0, 0.0, 0.0, r34], [0.0, 0.0, 0.0, 0.0]])
        return upper - upper.T

    coefs = np.zeros((len(systems), 2, 4, 4), dtype=complex)
    rates = np.zeros((len(systems), 2, 4, 4))
    for k, s in enumerate(systems):
        p1, p2, p3 = s.alignments
        root = np.sqrt(s.gamma)
        coefs[k, 0] = m[k]
        coefs[k, 1, :3, :3] = -0.5 * np.outer(root, root) * np.array(
            [[0.0, p1, p2], [p1, 0.0, p3], [p2, p3, 0.0]])
        d1, d2, d3, d4 = s.detunings
        w12, w23 = s.omega12, s.omega23
        rates[k, 0] = antisymmetric(d2, 0.0, d3, d1, d4)
        rates[k, 1] = antisymmetric(-w12, -(w12 + w23), -w23, 0.0, 0.0)

    def rhs(t, y):
        phases = np.exp(1j * (rates * t[:, None, None, None]))
        return np.matvec((coefs * phases).sum(axis=1), y)

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


def _solve(systems, times, tol, stop=None):
    """Integrate the systems from t=0 to times[-1] as one lockstep batch,
    sampled at the ascending times: a Solution per system, equal to its
    run alone.  With stop, a row ends at the first step whose end state
    satisfies stop (evaluated per row); only steps that hold a sample are
    interpolated."""
    return solve_ivp(_rhs_builder(systems), (0.0, times[-1]),
                     np.array([s.initial_vector() for s in systems]),
                     rtol=tol, atol=tol * 1e-2, t_eval=times, stop=stop)


def _failure(sol) -> StepSizeUnderflow:
    # sol.t holds only the samples reached, possibly none
    if len(sol.t):
        t_reached = float(sol.t[-1])
        reached = f"last sample reached: t={t_reached}"
    else:
        t_reached, reached = None, "no sample reached"
    return StepSizeUnderflow(f"integrator failed; {reached}: {sol.message}",
                             t_reached=t_reached)


def propagate(sys: D2System, t_final: float = DEFAULT_T_FINAL,
              tol: float = DEFAULT_TOL) -> AmplitudeTrajectory:
    """Integrate the amplitude equations from t=0 to t_final.

    The returned trajectory is sampled on a uniform grid fine enough for
    the oscillatory quadrature downstream.
    """
    times = _sample_times(sys, t_final)
    (sol,) = _solve([sys], times, tol)
    if not sol.success:
        raise _failure(sol)
    return AmplitudeTrajectory(times=times, amps=np.ascontiguousarray(sol.y.T))


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


#: how a trapped_fraction integration ended, by solver message
RUN_ENDS = {REACHED_END: "t_final", STOPPED: "decay_floor",
            TOO_SMALL_STEP: "failed"}


def trapped_fraction(sys, t_final: float = 150.0, tol: float = DEFAULT_TOL,
                     plateau_tol: float = 1e-6, require_plateau: bool = True,
                     runs: list | None = None):
    """Plateau value of the surviving population |A1|^2+|A2|^2+|A3|^2+|B|^2.

    sys is one D2System, or a sequence of them, which are integrated as
    lockstep batches (one per sample grid) and give a list of values, each
    the value of its system alone.  Errors are raised for the first
    failing system in order.  A list given as runs receives, per system,
    its integrator diagnostics: nfev, accepted and rejected steps, and
    how the run ended (`RUN_ENDS`).

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
    systems = [sys] if isinstance(sys, D2System) else list(sys)
    floor = DECAY_FLOOR * plateau_tol
    grids = {}
    for k, s in enumerate(systems):
        # t_final is shared, so the grid follows from its length
        times = _sample_times(s, t_final)
        grids.setdefault(len(times), (times, []))[1].append(k)
    integrated = [None] * len(systems)
    for times, group in grids.values():
        stoppable = np.array([_norm_never_grows(systems[k]) for k in group])
        stop = ((lambda y: stoppable & (np.vecdot(y, y).real < floor))
                if stoppable.any() else None)
        window = times[int(0.9 * len(times)):]
        sols = _solve([systems[k] for k in group], window, tol, stop)
        for k, sol in zip(group, sols):
            integrated[k] = window, sol
    if runs is not None:
        runs += [{"nfev": sol.nfev, "accepted": sol.accepted,
                  "rejected": sol.rejected, "end": RUN_ENDS[sol.message]}
                 for _, sol in integrated]
    values = []
    for window, sol in integrated:
        if not sol.success:
            raise _failure(sol)
        amps = np.ascontiguousarray(sol.y.T)
        tail = np.zeros(len(window))
        tail[:len(amps)] = AmplitudeTrajectory(window[:len(amps)],
                                               amps).norm()
        half = len(tail) // 2
        m1 = float(np.mean(tail[:half]))
        m2 = float(np.mean(tail[half:]))
        if abs(m1 - m2) > plateau_tol and require_plateau:
            raise NotConverged(
                f"population has not settled: window means {m1:.6g}, "
                f"{m2:.6g}", window_means=(m1, m2))
        values.append(min(max(m2, 0.0), 1.0))
    return values[0] if isinstance(sys, D2System) else values


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
