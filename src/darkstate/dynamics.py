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
never grows, so once it falls below a floor far under `PLATEAU_TOL` every
later sample lies between 0 and that floor.

A resonant system free of cross-damping has a constant drift matrix M,
and its runs take DOP853's matrix kernel, which steps y' = M y as one
polynomial in hM per attempt; any other system takes the stage kernel on
the time-dependent M(t) (`_kernel`).  Both are the same method, to
roundoff, and the route stays independent of the closed form: no
eigendecomposition or resolvent is used.

Systems are integrated as lockstep batches of the one DOP853 core: given a
sequence of systems (a sweep, or the trapped checks of `validate`, one
batch per command), `trapped_fraction` steps all those that share a sample
grid and a kernel together, each row with its own steps, stop test and
failure, and each row's samples, steps and value equal those of its run
alone bit for bit; errors are raised for the first failing system in
order, as a loop over the systems would.  `propagate` and a single
`trapped_fraction` are batches of one.

A Filon pass, summed by parts, is one phase sum of the samples, taken over
a whole detuning grid at once (`_filon_linear`).  On a uniform grid (every
grid the CLI builds) whose chirp phases keep their precision it is one
chirp-z transform of one row, that is three `numpy.fft` transforms of the
smallest 5-smooth length >= samples + points - 1; any other grid, or a
scalar, is summed directly in blocks of samples.  The path is chosen from
the grid and the sample step alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from ._dop853 import (OUT_OF_STEPS, REACHED_END, STOPPED, TOO_SMALL_STEP,
                      solve_ivp)
from .errors import (DarkstateError, NotConverged, StepSizeUnderflow,
                     TooManySamples)
from .model import D2System
from .spectrum import (SpectrumResult, _finite_detuning, _intensity,
                       _spectrum, branch_shifts, coupling_matrix)

DEFAULT_T_FINAL = 60.0
DEFAULT_TOL = 1e-8

#: the most time samples a run may take, checked before any is allocated:
#: 50 times the largest preset's (about 2e4, splittings of 13 to t = 150),
#: and 64 MB per trajectory
MAX_TIME_SAMPLES = 1_000_000

#: convergence factor for the Laplace integral of trapped components
TRAP_EPSILON = 1e-3

#: trapped_fraction's two window means must agree to this
PLATEAU_TOL = 1e-6

#: trapped_fraction stops once the population is below this fraction of
#: PLATEAU_TOL, where the norm provably never grows
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


def _kernel(sys: D2System) -> str:
    """The DOP853 kernel of a run of sys: "matrix" when its drift matrix is
    constant (resonant and free of cross-damping), else "stages"."""
    return ("matrix" if not any(sys.detunings) and not any(sys.alignments)
            else "stages")


def _cross_damping(sys: D2System) -> np.ndarray:
    """The 3x3 matrix p_ij sqrt(Gamma_i Gamma_j) of the alignments p, zero on
    the diagonal."""
    p1, p2, p3 = sys.alignments
    root = np.sqrt(sys.gamma)
    return np.outer(root, root) * np.array(
        [[0.0, p1, p2], [p1, 0.0, p3], [p2, p3, 0.0]])


def _rhs_builder(systems):
    """The amplitude equations y' = rhs(t, y) of a batch of systems: t of
    shape (B,), y of shape (B, 4), one row per system.

    Each row has the time-dependent matrix M(t) = M * exp(i R t) + X *
    exp(i W t) (elementwise): the drive terms with their detuning phases
    R, then the cross-damping terms X = -p sqrt(Gamma_i Gamma_j) / 2 with
    their splitting phases W, conjugate below the diagonal.  A resonant,
    uncoupled row has R = 0 and X = 0, so its M(t) is M exactly.
    """
    m = np.array([coupling_matrix(s) for s in systems])

    def antisymmetric(r12, r13, r23, r14, r34):
        upper = np.array([[0.0, r12, r13, r14], [0.0, 0.0, r23, 0.0],
                          [0.0, 0.0, 0.0, r34], [0.0, 0.0, 0.0, 0.0]])
        return upper - upper.T

    coefs = np.zeros((len(systems), 2, 4, 4), dtype=complex)
    rates = np.zeros((len(systems), 2, 4, 4))
    for k, s in enumerate(systems):
        coefs[k, 0] = m[k]
        coefs[k, 1, :3, :3] = -0.5 * _cross_damping(s)
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
    if not (np.all(g >= 0.0) and np.all(np.isfinite([*g, *sys.alignments]))):
        return False
    gamma = np.diag(g) + _cross_damping(sys)
    return bool(np.linalg.eigvalsh(gamma)[0] >= -PSD_ROUNDOFF * g.max())


def _sample_count(sys: D2System, t_final: float) -> int:
    """The length of `_sample_times`; TooManySamples, naming the field that
    sets the sample step (t_final where none is above 1), when it exceeds
    MAX_TIME_SAMPLES."""
    if not 0 < t_final < math.inf:
        raise ValueError("t_final must be positive and finite")
    fields = [("omega12", sys.omega12), ("omega23", sys.omega23),
              *((f"detunings[{k}]", d) for k, d in enumerate(sys.detunings))]
    fast = max(*(abs(v) for _, v in fields), 1.0)
    count = t_final / min(0.01, 0.1 / fast)
    if not count <= MAX_TIME_SAMPLES:
        name, value = max(fields, key=lambda f: abs(f[1]))
        cause = (f"{name} = {value:g}" if abs(value) > 1.0
                 else f"t_final = {t_final:g}")
        raise TooManySamples(
            f"{cause} needs {count:.3g} time samples, above the cap of "
            f"{MAX_TIME_SAMPLES:.0e}")
    n = int(math.ceil(count))
    return n + n % 2 + 1


def _sample_times(sys: D2System, t_final: float) -> np.ndarray:
    """Uniform sample grid on [0, t_final] that resolves the fastest
    retained phase factor, with an even interval count so the
    half-resolution Richardson pass lines up."""
    return np.linspace(0.0, t_final, _sample_count(sys, t_final))


def _solve(systems, times, tol, max_tries, stop=None):
    """Integrate the systems from t=0 to times[-1] as one lockstep batch,
    sampled at the ascending times: the kernel taken and a Solution per
    system.  The batch takes the matrix kernel, with the stack of constant
    drift matrices, when every system's `_kernel` is "matrix", else the
    stage kernel with `_rhs_builder`'s M(t); a row equals its run alone
    when all rows are of one kernel.  A row ends after max_tries step attempts, the sample count of the full
    uniform grid, so the work follows the output's size.  The presets take
    at most 0.07 attempts per sample.  A run takes more, and ends as
    `budget`, when its decay rates or drives, which the grid does not
    resolve, force a shorter step (measured with splittings 13 at t_final
    = 60: a D1 loop with Gamma above about 1.65e3, or with all four drives
    above about 42).  With stop, a row ends at the first step whose end
    state satisfies stop (evaluated per row); only steps that hold a
    sample are interpolated."""
    if all(_kernel(s) == "matrix" for s in systems):
        kernel, drift = "matrix", np.array([coupling_matrix(s)
                                            for s in systems])
    else:
        kernel, drift = "stages", _rhs_builder(systems)
    return kernel, solve_ivp(drift, (0.0, times[-1]),
                             np.array([s.initial_vector() for s in systems]),
                             rtol=tol, atol=tol * 1e-2, t_eval=times,
                             stop=stop, max_tries=max_tries)


#: how an integration ended, by solver message
RUN_ENDS = {REACHED_END: "t_final", STOPPED: "decay_floor",
            TOO_SMALL_STEP: "failed", OUT_OF_STEPS: "budget"}


def _run_record(sol, kernel: str) -> dict:
    """The integrator diagnostics of the run sol: nfev, accepted and
    rejected steps, how it ended (`RUN_ENDS`) and the kernel it took."""
    return {"nfev": sol.nfev, "accepted": sol.accepted,
            "rejected": sol.rejected, "end": RUN_ENDS[sol.message],
            "kernel": kernel}


def _failure(sol) -> DarkstateError:
    """StepSizeUnderflow for a failed run, NotConverged for one that spent
    its step budget."""
    # sol.t holds only the samples reached, possibly none
    if len(sol.t):
        t_reached = float(sol.t[-1])
        reached = f"last sample reached: t={t_reached}"
    else:
        t_reached, reached = None, "no sample reached"
    if sol.message == OUT_OF_STEPS:
        return NotConverged(f"integrator spent its budget of "
                            f"{sol.accepted + sol.rejected} step attempts, "
                            f"one per time sample; {reached}")
    return StepSizeUnderflow(f"integrator failed; {reached}: {sol.message}",
                             t_reached=t_reached)


def propagate(sys: D2System, t_final: float = DEFAULT_T_FINAL,
              tol: float = DEFAULT_TOL,
              runs: list | None = None) -> AmplitudeTrajectory:
    """Integrate the amplitude equations from t=0 to t_final.

    The returned trajectory is sampled on a uniform grid fine enough for
    the oscillatory quadrature downstream.  A list given as runs receives
    the run's integrator diagnostics, as trapped_fraction's does.
    """
    times = _sample_times(sys, t_final)
    kernel, (sol,) = _solve([sys], times, tol, len(times))
    if runs is not None:
        runs.append(_run_record(sol, kernel))
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
    size = np.abs(theta)
    small = size < 1e-2
    # where theta**2 would overflow, |w1| <= 2/|theta| is below 1e-150: 0
    huge = size > 1e150
    it = 1j * np.where(small, 1.0, theta)
    e = np.exp(it)
    # (arrays also for a 0-d theta, for which numpy returns scalars)
    w0 = np.asarray((e - 1.0) / it)
    w1 = np.asarray((e * (it - 1.0) + 1.0) / np.where(huge, 1.0, it) ** 2)
    w1[huge] = 0.0
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


#: a grid x is summed as uniform (chirp-z) when its largest deviation from
#: x0 + j*dx, times the largest sample time, is below this phase error, and
#: so is the rounding error (eps times) of the largest chirp phase
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

    A uniform x (real step) is one chirp-z transform along the samples,
    unless its chirp phases are too large to keep their precision; any
    other x is summed directly, a block of samples at a time, so that no
    (samples x grid) matrix is built.
    """
    m = x.size
    if m >= 2:
        dx = (x[-1] - x[0]).real / (m - 1)
        drift = np.max(np.abs(x - (x[0] + dx * np.arange(m))))
        chirp_max = 0.5 * abs(dx * h) * (max(m, len(times)) - 1) ** 2
        if max(drift * np.max(np.abs(times)),
               np.finfo(float).eps * chirp_max) <= UNIFORM_PHASE_TOL:
            return _chirp_z(times[0], h, rows, x, dx)
    sums = np.zeros((len(rows), m), dtype=complex)
    block = max(1, DIRECT_BLOCK // m)
    for k in range(0, len(times), block):
        phase = np.exp(1j * np.outer(times[k:k + block], x))
        sums += rows[:, k:k + block] @ phase
    return sums


def _hat_weight(theta):
    """The integral of the hat function 1 - |u| against exp(i*theta*u) on
    [-1, 1], 4 sin^2(theta/2) / theta^2, per element of a complex array
    theta: 1 at theta = 0.  Its sin(theta/2) / (theta/2) has no
    cancellation at small theta, and no theta^2 to overflow at large."""
    zero = theta == 0
    half = 0.5 * np.where(zero, 1.0, theta)
    sinc = np.asarray(np.sin(half) / half)
    sinc[zero] = 1.0
    return sinc * sinc


def _filon_linear(times, values, x):
    """integral values(t) * exp(i x t) dt with values piecewise linear on a
    uniform grid, for each element of x (real, or complex for a damped
    transform); a scalar x gives a complex scalar.

    Per interval the rule is h e^{i x t_k} (v_k W0 + (v_{k+1} - v_k) W1),
    theta = x h.  Summed by parts over the n intervals this is h (sigma T
    - A v_n e^{i x t_n} - B v_0 e^{i x t_0}) with the one phase sum T =
    sum_{k=0..n} v_k e^{i x t_k}, A = W0 - W1, B = W1 e^{-i theta} and
    sigma = A + B, the hat-function weight (`_hat_weight`)."""
    x = np.asarray(x, dtype=complex)
    h = times[1] - times[0]
    theta = x * h
    w0, w1 = _filon_weights(theta)
    (total,) = _phase_sums(times, h, values[None], x.ravel())
    # B v_0 e^{i x t_0} = W1 v_0 e^{i x (t_0 - h)}
    ends = ((w0 - w1) * values[-1] * np.exp(1j * x * times[-1])
            + w1 * values[0] * np.exp(1j * x * (times[0] - h)))
    out = h * (_hat_weight(theta) * total.reshape(x.shape) - ends)
    return complex(out) if out.ndim == 0 else out


def _branch_transform(traj: AmplitudeTrajectory, branch: int, x):
    """Richardson-extrapolated Filon transform of one amplitude component."""
    vals = traj.amps[:, branch - 1]
    fine = _filon_linear(traj.times, vals, x)
    coarse = _filon_linear(traj.times[::2], vals[::2], x)
    return (4.0 * fine - coarse) / 3.0


def _is_trapped(traj: AmplitudeTrajectory, tol: float) -> bool:
    """Whether a trapped component survives: a final norm above the larger
    of 100 tol and 1e-8."""
    return float(np.sum(np.abs(traj.amps[-1]) ** 2)) > max(100.0 * tol, 1e-8)


def branch_amplitude_numeric(traj: AmplitudeTrajectory, branch: int, delta,
                             tol: float = DEFAULT_TOL):
    """Laplace transform of A_branch at s = -i*delta from the time-domain
    trajectory traj, as `propagate` returns it (delta is the branch-local
    detuning).

    When a trapped component survives (`_is_trapped`), the integral is
    damped with exp(-eps t) at two eps values and extrapolated to eps -> 0.
    """
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    scalar = np.ndim(delta) == 0
    deltas = np.atleast_1d(np.asarray(delta, dtype=float))
    if _is_trapped(traj, tol):
        f1 = _branch_transform(traj, branch, deltas + 1j * TRAP_EPSILON)
        f2 = _branch_transform(traj, branch, deltas + 1j * TRAP_EPSILON / 2.0)
        out = 2.0 * f2 - f1
    else:
        out = _branch_transform(traj, branch, deltas)
    return complex(out[0]) if scalar else out


def trapped_fraction(sys, t_final: float = 150.0,
                     require_plateau: bool = True, runs: list | None = None):
    """Plateau value of the surviving population |A1|^2+|A2|^2+|A3|^2+|B|^2.

    sys is one D2System, or a sequence of them, which are integrated as
    lockstep batches (one per sample grid and kernel) and give a list of
    values, each the value of its system alone.  Errors are raised for the
    first failing system in order.  A list given as runs receives, per
    system, its integrator diagnostics: nfev, accepted and rejected steps,
    how the run ended (`RUN_ENDS`) and the kernel it took.

    The population is sampled only on the last 10% of propagate's uniform
    grid of n samples, from sample min(int(0.9 n), n - 2) on, so that it
    holds two samples or more.  That window is split in two; their means
    must agree to PLATEAU_TOL, else NotConverged is raised (or, with
    require_plateau=False, the late-window mean is returned anyway).

    When the decay matrix is positive semidefinite (see _norm_never_grows)
    the population never grows, and the integration stops at the first
    step that ends with it below DECAY_FLOOR * PLATEAU_TOL.  The window
    samples not reached then count as 0, each within that floor of its
    value; a stop before the window returns 0.0.
    """
    systems = [sys] if isinstance(sys, D2System) else list(sys)
    floor = DECAY_FLOOR * PLATEAU_TOL
    batches = {}
    for k, s in enumerate(systems):
        # t_final is shared, so the grid follows from its length
        times = _sample_times(s, t_final)
        batches.setdefault((len(times), _kernel(s)),
                           (times, []))[1].append(k)
    integrated = [None] * len(systems)
    for times, group in batches.values():
        stoppable = np.array([_norm_never_grows(systems[k]) for k in group])
        stop = ((lambda y: stoppable & (np.vecdot(y, y).real < floor))
                if stoppable.any() else None)
        window = times[min(int(0.9 * len(times)), len(times) - 2):]
        kernel, sols = _solve([systems[k] for k in group], window,
                              DEFAULT_TOL, len(times), stop)
        for k, sol in zip(group, sols):
            integrated[k] = window, kernel, sol
    if runs is not None:
        runs += [_run_record(sol, kernel) for _, kernel, sol in integrated]
    values = []
    for window, _, sol in integrated:
        if not sol.success:
            raise _failure(sol)
        amps = np.ascontiguousarray(sol.y.T)
        tail = np.zeros(len(window))
        tail[:len(amps)] = AmplitudeTrajectory(window[:len(amps)],
                                               amps).norm()
        half = len(tail) // 2
        m1 = float(np.mean(tail[:half]))
        m2 = float(np.mean(tail[half:]))
        if abs(m1 - m2) > PLATEAU_TOL and require_plateau:
            raise NotConverged(f"population has not settled: window means "
                               f"{m1:.6g}, {m2:.6g}")
        values.append(min(max(m2, 0.0), 1.0))
    return values[0] if isinstance(sys, D2System) else values


def spectrum_time_domain(sys: D2System, grid,
                         t_final: float = DEFAULT_T_FINAL,
                         tol: float = DEFAULT_TOL,
                         runs: list | None = None) -> SpectrumResult:
    """Branch-resolved spectrum from the time-domain trajectory.

    Branch n is evaluated at its shifted argument delta + {+omega12, 0,
    -omega23} (`branch_shifts`); the total is the sum of the branches.  A
    list given as runs receives propagate's integrator diagnostics, with
    `eps_extrapolated`: whether a trapped component survives, so that each
    branch is the eps -> 0 extrapolation of two damped transforms
    (`branch_amplitude_numeric`).
    """
    grid = _finite_detuning(grid)
    traj = propagate(sys, t_final, tol, runs)
    if runs is not None:
        runs[-1]["eps_extrapolated"] = _is_trapped(traj, tol)
    rows = np.empty((3, len(grid)))
    for n, shift in enumerate(branch_shifts(sys)):
        f = branch_amplitude_numeric(traj, n + 1, grid + shift, tol)
        _intensity(sys.gamma[n], f, rows[n])
    return _spectrum(grid, rows, [[], [], []], "timedomain")
