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
uniform grid, `trapped_fraction` on the stage kernel on the plateau window
at the grid's end, and not at all on the sample-step operator.

`_kernel` chooses a run's kernel by `model.analytic_admissible`, the
predicate the closed form reads too: a resonant system free of
cross-damping has a constant drift matrix M, whatever its splittings,
and its runs take DOP853's sample-step operator
(`_dop853.operator_runs`): DOP853's step polynomial in hM, for a step h
that divides the sample step by a power of 2 and that the error norm
accepts from any state of norm <= 1, squared up to the sample step.
The state at the window's start is a power of that operator by binary
powering, and each sample one 4x4 product, so the run's cost follows the
samples, not the stiffness; a trapped fraction's window means are
quadratic forms in Gram sums of its powers, O(log n) 4x4 products for n
samples (`_dop853.window_means`).  Any other system takes
the adaptive stage kernel, `solve_ivp`, on the time-dependent M(t)
(`_rhs_builder`), within one step attempt per sample of the full grid
(NotConverged past it).  It evaluates no step that holds no sample and,
in `trapped_fraction`, stops once the population has provably decayed:
when the decay matrix Gamma is positive semidefinite the norm never
grows, so once it falls below a floor far under `PLATEAU_TOL` every
later sample lies between 0 and that floor.  Both take only M (or M(t))
and DOP853's tableau, so the route stays independent of the closed form:
no eigendecomposition of M, quartic or resolvent is used.

Systems are integrated as lockstep batches: given a sequence of systems
(a sweep, or the trapped checks of `validate`, one batch per command),
`trapped_fraction` integrates all those that share a sample grid and a
kernel together, each row with its own step (and stop test) and failure,
and each row's samples and value equal those of its run alone bit for
bit; errors are raised for the first failing system in order, as a loop
over the systems would.  `propagate` and a single `trapped_fraction` are
batches of one.

A spectrum's Filon transforms are one call (`_filon_linear`): every
branch, eps value and Richardson pass.  Both passes, summed by parts, need
only the phase sums T_even and T_odd of the even and the odd samples, in
steps of twice the sample step: the fine pass sums T_even + e^{i x h}
T_odd, the coarse pass T_even.  On a uniform grid (every grid the CLI
builds) whose chirp phases keep their precision, all those rows are one
chirp-z transform: one chirp, one kernel FFT, and one forward and one
inverse `numpy.fft` transform of the rows, of the smallest 5-smooth
length >= (samples - 1) / 2 + points.  Any other grid, or a scalar, is
summed directly in blocks of samples.  The path is chosen from the grid
and the sample step alone.  The end weights are one evaluation over the
stacked rows of the fine pass, from which the coarse pass's follow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from ._dop853 import DEFAULT_TOL, operator_runs, solve_ivp, window_means
from .errors import (NonFiniteValue, NotConverged, StepSizeUnderflow,
                     TooManySamples)
from .model import D2System, analytic_admissible
from .spectrum import (SpectrumResult, _finite_detuning, _intensity,
                       _spectrum, branch_shifts, coupling_matrix)

DEFAULT_T_FINAL = 60.0

#: the most time samples a run may take, checked before any is allocated:
#: 50 times the largest preset's (about 2e4, splittings of 13 to t = 150),
#: and 64 MB per trajectory
MAX_TIME_SAMPLES = 1_000_000

#: convergence factor for the Laplace integral of trapped components
TRAP_EPSILON = 1e-3

#: a run whose final norm is above this holds a trapped component, whose
#: transform is eps-extrapolated: 100 times the integrator's relative
#: tolerance, so that its step error alone never reads as one
TRAPPED_NORM = 100.0 * DEFAULT_TOL

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
    """Samples of the complex 4-vector (A1, A2, A3, B) on a uniform grid."""

    times: np.ndarray
    amps: np.ndarray  # shape (len(times), 4)


def _kernel(sys: D2System) -> str:
    """The DOP853 kernel of a run of sys: "operator" when its drift matrix
    is constant (`analytic_admissible`), else "stages"."""
    return "operator" if analytic_admissible(sys) else "stages"


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
    uncoupled row has R = 0 and X = 0, so its M(t) is M exactly; X is
    filled only for a row with a nonzero alignment, so a negative rate
    enters no square root there.
    """
    def antisymmetric(r12, r13, r23, r14, r34):
        upper = np.array([[0.0, r12, r13, r14], [0.0, 0.0, r23, 0.0],
                          [0.0, 0.0, 0.0, r34], [0.0, 0.0, 0.0, 0.0]])
        return upper - upper.T

    coefs = np.zeros((len(systems), 2, 4, 4), dtype=complex)
    coefs[:, 0] = _drift_stack(systems)
    rates = np.zeros((len(systems), 2, 4, 4))
    for k, s in enumerate(systems):
        if any(s.alignments):
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


def _drift_stack(systems):
    """The constant drift matrices M of the systems, shape (B, 4, 4)."""
    return np.array([coupling_matrix(s) for s in systems])


def _initial_states(systems):
    """The initial amplitude vectors of the systems, shape (B, 4)."""
    return np.array([s.initial_vector() for s in systems])


def _run_record(sol, kernel: str) -> dict:
    """The integrator diagnostics of the run sol: nfev, accepted and
    rejected steps, how it ended (one of `_dop853.ENDS`) and the kernel it
    took; for the sample-step operator also its halvings and error_bound
    (see `_dop853.operator_runs`)."""
    record = {"nfev": sol.nfev, "accepted": sol.accepted,
              "rejected": sol.rejected, "end": sol.end, "kernel": kernel}
    if kernel == "operator":
        record.update(halvings=sol.halvings, error_bound=sol.error_bound)
    return record


def _raise_failure(sol):
    """Raise StepSizeUnderflow for a run that ended "failed", NotConverged
    for one that spent its step budget ("budget")."""
    if sol.end not in ("failed", "budget"):
        return
    # sol.t holds only the samples reached, possibly none
    if len(sol.t):
        t_reached = float(sol.t[-1])
        reached = f"last sample reached: t={t_reached}"
    else:
        t_reached, reached = None, "no sample reached"
    if sol.end == "budget":
        raise NotConverged(f"integrator spent its budget of "
                           f"{sol.accepted + sol.rejected} step attempts, "
                           f"one per time sample; {reached}")
    raise StepSizeUnderflow(f"integrator failed; {reached}: Required step "
                            "size is less than spacing between numbers.",
                            t_reached=t_reached)


def propagate(sys: D2System, t_final: float = DEFAULT_T_FINAL,
              runs: list | None = None) -> AmplitudeTrajectory:
    """Integrate the amplitude equations from t=0 to t_final, at
    DEFAULT_TOL.

    The returned trajectory is sampled on a uniform grid fine enough for
    the oscillatory quadrature downstream.  A list given as runs receives
    the run's integrator diagnostics, as trapped_fraction's does.  Samples
    that overflow raise NonFiniteValue naming the first such sample's
    time.
    """
    times = _sample_times(sys, t_final)
    kernel, y0 = _kernel(sys), _initial_states([sys])
    if kernel == "operator":
        (sol,) = operator_runs(_drift_stack([sys]), y0, times, 0)
    else:
        (sol,) = solve_ivp(_rhs_builder([sys]), y0, t_eval=times,
                           max_tries=len(times))
    if runs is not None:
        runs.append(_run_record(sol, kernel))
    _raise_failure(sol)
    if not np.isfinite(sol.y).all():
        k = np.isfinite(sol.y).all(axis=1).argmin()
        raise NonFiniteValue(f"the amplitudes overflow: first non-finite "
                             f"sample at t={times[k]}")
    return AmplitudeTrajectory(times=times, amps=sol.y)


# ---------------------------------------------------------------------------
# oscillatory quadrature
# ---------------------------------------------------------------------------

#: the weights are summed as a series where |theta| is at most this; the
#: closed form of W1 loses about 2e-16 / |theta|^2 of itself
SERIES_RADIUS = 1.0

#: 1/(k+2)! for k < 18: the series of A = W0 - W1, whose first omitted term
#: is below 5e-19 on the disk |theta| <= SERIES_RADIUS
_SERIES = [1.0 / math.factorial(k + 2) for k in range(18)]


def _series_weights(z):
    """W0 and W1 at z = i*theta from the series of A = W0 - W1 = sum_k
    z^k / (k+2)!, by Horner's rule: W0 = 1 + z A and W1 = W0 - A, neither
    of which cancels on the disk."""
    # (arrays also for a 0-d z, for which numpy returns scalars)
    a = np.asarray(_SERIES[-1] * z)
    for c in _SERIES[-2:0:-1]:
        a += c
        a *= z
    a += _SERIES[0]
    w0 = np.asarray(z * a)
    w0 += 1.0
    return w0, np.subtract(w0, a, out=a)


def _filon_weights(theta):
    """Exact integrals W0, W1 of 1 and u against exp(i*theta*u) on [0, 1],
    per element of theta (real or complex, any shape).  The series
    (`_series_weights`) is taken where |theta| <= SERIES_RADIUS, the
    closed forms elsewhere."""
    theta = np.asarray(theta, dtype=complex)
    z = 1j * theta
    small = np.abs(theta) <= SERIES_RADIUS
    if small.all():
        return _series_weights(z)
    e = np.exp(z)
    # where theta**2 would overflow, |w1| <= 2/|theta| is below 1e-150: 0
    huge = np.abs(theta) > 1e150
    zc = np.where(small, 1.0, z)
    # (arrays also for a 0-d theta, for which numpy returns scalars)
    w0 = np.asarray((e - 1.0) / zc)
    w1 = np.asarray((e * (zc - 1.0) + 1.0) / np.where(huge, 1.0, zc) ** 2)
    w1[huge] = 0.0
    if small.any():
        w0[small], w1[small] = _series_weights(z[small])
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


def _chirp_z(h, rows, x0, dx, m):
    """Bluestein's chirp-z transform (Rabiner, Schafer & Rader, 1969):
    sum_k rows[p, r, k] * exp(i x_j k h) for x_j = x0[..., r] + j*dx, j <
    m, shape (..., p, r, m), as one FFT convolution along the samples.
    Every row shares the chirp and the FFT of its kernel; its start x0
    enters through its ramp.

    The chirp exp(i dx h q^2/2) is evaluated from its phase: the complex
    power w**(q**2/2) that SciPy's `czt` uses is off by ~1e-9 at 8k
    samples, which puts its sums ~3e-10 from the direct ones.
    """
    n = rows.shape[-1]
    q = np.arange(max(m, n), dtype=float)
    chirp = np.exp(0.5j * (dx * h) * q ** 2)
    size = _fft_length(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    # the ramped, padded rows, transformed, convolved and transformed back
    # in place; each ramp is built in the slot of the first of its rows
    conv = np.zeros((*x0.shape[:-1], *rows.shape[:-1], size), dtype=complex)
    ramp = conv[..., 0, :, :n]
    np.multiply.outer(1j * h * x0, q[:n], out=ramp)
    np.exp(ramp, out=ramp)
    ramp *= chirp[:n]
    conv[..., 1:, :, :n] = ramp[..., None, :, :]
    conv[..., :n] *= rows
    fft(conv, axis=-1, out=conv)
    conv *= fft(kernel, out=kernel)
    ifft(conv, axis=-1, out=conv)
    return conv[..., :m] * chirp[:m]


def _phase_sums(times, rows, x):
    """sum_k rows[p, r, k] * exp(i x[..., r, j] t_k), shape (..., p, r, m),
    for x of shape (..., r, m), with times t_k uniform from 0.

    Rows of x that are uniform with the real step of the first (start
    x[..., r, 0], real or complex) are one chirp-z transform along the
    samples, unless its chirp phases are too large to keep their
    precision; any other x is summed directly, a block of samples at a
    time, so that no (samples x grid) matrix is built.  A row's sums do
    not depend on the other rows, but for that shared step.
    """
    n, m = len(times), x.shape[-1]
    h = times[1] - times[0]
    if m >= 2:
        first = x.reshape(-1, m)[0]
        dx = (first[-1] - first[0]).real / (m - 1)
        drift = np.max(np.abs(x - (x[..., :1] + dx * np.arange(m))))
        chirp_max = 0.5 * abs(dx * h) * (max(m, n) - 1) ** 2
        if max(drift * times[-1],
               np.finfo(float).eps * chirp_max) <= UNIFORM_PHASE_TOL:
            return _chirp_z(h, rows, x[..., 0], dx, m)
    sums = np.zeros((*x.shape[:-2], *rows.shape[:-1], m), dtype=complex)
    block = max(1, DIRECT_BLOCK // max(m, 1))
    for index in np.ndindex(x.shape[:-1]):
        *lead, r = index
        for k in range(0, n, block):
            phase = np.exp(1j * np.outer(times[k:k + block], x[index]))
            sums[(*lead, slice(None), r)] += rows[:, r, k:k + block] @ phase
    return sums


def _hat_weight(w0, e):
    """The integral of the hat function 1 - |u| against exp(i*theta*u) on
    [-1, 1], 4 sin^2(theta/2) / theta^2 = W0^2 e^{-i theta}, from W0 and e
    = exp(i*theta): as accurate as W0, with no theta^2 to overflow."""
    return w0 * w0 / e


def _halves(values):
    """The even and the odd samples of each row of values, shape (2, rows,
    n/2 + 1); the odd row ends in a zero."""
    half = np.zeros((2, len(values), values.shape[-1] // 2 + 1),
                    dtype=complex)
    half[0] = values[:, ::2]
    half[1, :, :-1] = values[:, 1::2]
    return half


def _pass_total(w0, a, e, total, ends):
    """sigma T - A v_n e^{i x t_n} - B v_0 of one Filon pass, computed in
    place of its phase sum T, total: w0 is W0, a is A = W0 - W1, e is
    exp(i theta) and ends is (v_n e^{i x t_n}, v_0)."""
    v_end, v_start = ends
    total *= _hat_weight(w0, e)
    b = w0 - a
    b *= v_start
    b /= e
    total -= b
    np.multiply(a, v_end, out=b)
    total -= b
    return total


def _filon_linear(times, values, x):
    """Richardson-extrapolated Filon transforms integral v_r(t) exp(i x t)
    dt: one per row r of values, shape (rows, n + 1), sampled on the
    uniform grid times from 0 with n even, at each x[..., r, :], real or
    complex (a damped transform); the result has the shape of x.

    Both passes, on the n intervals of step h and on the n/2 of step 2h,
    are summed by parts: per pass h (sigma T - A v_n e^{i x t_n} - B v_0)
    with theta = x h, A = W0 - W1, B = W1 e^{-i theta} and sigma = A + B,
    the hat-function weight (`_hat_weight`).  The phase sum T of the fine
    pass is T_even + e^{i theta} T_odd, that of the coarse pass T_even,
    where T_even and T_odd sum the even and the odd samples in steps of
    2h: all of them are one `_phase_sums`.  The weights are one
    `_filon_weights` of the fine pass; the coarse pass's at 2 theta follow
    without cancellation as W0(2 theta) = W0 (1 + e) / 2 and A(2 theta) =
    (W0 + A (1 + e)) / 4.  The result is (4 fine - coarse) / 3.

    The stacked arrays are updated in place where they are not read again,
    so that few are held at once.
    """
    h = times[1] - times[0]
    sums = _phase_sums(times[::2], _halves(values), x)
    t_even, t_odd = sums[..., 0, :, :], sums[..., 1, :, :]
    w0, w1 = _filon_weights(x * h)
    a = np.subtract(w0, w1, out=w1)
    e = np.exp(1j * h * x)
    ends = values[:, -1:] * np.exp(1j * x * times[-1]), values[:, :1]
    t_odd *= e
    t_odd += t_even
    fine = _pass_total(w0, a, e, t_odd, ends)
    a *= e + 1.0
    a += w0
    a /= 4.0
    w0 *= e + 1.0
    w0 /= 2.0
    e *= e
    coarse = _pass_total(w0, a, e, t_even, ends)
    del w0, a, e, ends
    coarse *= 0.5
    return (4.0 * h / 3.0) * (fine - coarse)


def _is_trapped(traj: AmplitudeTrajectory) -> bool:
    """Whether a trapped component survives: a final norm above
    TRAPPED_NORM."""
    return float(np.sum(np.abs(traj.amps[-1]) ** 2)) > TRAPPED_NORM


def _transforms(traj: AmplitudeTrajectory, columns: slice, x):
    """Laplace transforms of the amplitude components columns of traj at s
    = -i x, one row of x per column: Filon transforms (`_filon_linear`),
    which, when a trapped component survives (`_is_trapped`), are damped
    with exp(-eps t) at two eps values and extrapolated to eps -> 0, both
    in the one call."""
    values = traj.amps.T[columns]
    if not _is_trapped(traj):
        return _filon_linear(traj.times, values, x)
    f1, f2 = _filon_linear(traj.times, values, np.stack(
        [x + 1j * TRAP_EPSILON, x + 1j * TRAP_EPSILON / 2.0]))
    return 2.0 * f2 - f1


def branch_amplitude_numeric(traj: AmplitudeTrajectory, branch: int, delta):
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
    (out,) = _transforms(traj, slice(branch - 1, branch), deltas[None])
    return complex(out[0]) if scalar else out


def trapped_fraction(sys, t_final: float = 150.0,
                     require_plateau: bool = True, runs: list | None = None):
    """Plateau value of the surviving population |A1|^2+|A2|^2+|A3|^2+|B|^2.

    sys is one D2System, or a sequence of them, which are integrated as
    lockstep batches (one per sample grid and kernel) and give a list of
    values, each the value of its system alone.  Errors are raised for the
    first failing system in order.  A list given as runs receives, per
    system, its integrator diagnostics (`_run_record`) and `window_means`,
    the two means below (None for a run that failed).

    The population is read only on the last 10% of propagate's uniform
    grid of n samples, from sample min(int(0.9 n), n - 2) on, so that it
    holds two samples or more.  That window is split in two; their means
    must agree to PLATEAU_TOL, else NotConverged is raised (or, with
    require_plateau=False, the late-window mean is returned anyway).  A
    mean that is not finite or exceeds 1 + PLATEAU_TOL, a population
    grown past its initial norm, raises NotConverged either way.

    On the sample-step operator the means take no sample: each is a
    quadratic form in a Gram sum of the operator's powers, built by
    binary doubling (`_dop853.window_means`), so a window costs O(log n)
    4x4 products.  The stage kernel samples the window.  When the decay
    matrix is positive semidefinite (see _norm_never_grows) the
    population never grows, and its integration stops at the first step
    that ends with it below DECAY_FLOOR * PLATEAU_TOL.  The window samples
    not reached then count as 0, each within that floor of its value; a
    stop before the window returns 0.0.
    """
    systems = [sys] if isinstance(sys, D2System) else list(sys)
    floor = DECAY_FLOOR * PLATEAU_TOL
    batches = {}
    for k, s in enumerate(systems):
        # t_final is shared, so the grid follows from its length
        batches.setdefault((_sample_count(s, t_final), _kernel(s)),
                           []).append(k)
    integrated = [None] * len(systems)
    for (count, kernel), group in batches.items():
        times = np.linspace(0.0, t_final, count)
        first = min(int(0.9 * count), count - 2)
        batch = [systems[k] for k in group]
        y0 = _initial_states(batch)
        if kernel == "operator":
            sols = window_means(_drift_stack(batch), y0, times, first)
            means = [sol.means for sol in sols]
        else:
            stoppable = np.array([_norm_never_grows(s) for s in batch])
            stop = ((lambda y: stoppable & (np.vecdot(y, y).real < floor))
                    if stoppable.any() else None)
            sols = solve_ivp(_rhs_builder(batch), y0, t_eval=times[first:],
                             max_tries=count, stop=stop)
            means = [_sample_means(sol, count - first) for sol in sols]
        for k, sol, pair in zip(group, sols, means):
            integrated[k] = kernel, sol, pair
    if runs is not None:
        runs += [{**_run_record(sol, kernel), "window_means": means}
                 for kernel, sol, means in integrated]
    values = []
    for _, sol, means in integrated:
        _raise_failure(sol)
        m1, m2 = means
        if not all(math.isfinite(m) and m <= 1.0 + PLATEAU_TOL
                   for m in means):
            raise NotConverged(f"population grows past its initial norm "
                               f"of 1: window means {m1:.6g}, {m2:.6g}")
        if abs(m1 - m2) > PLATEAU_TOL and require_plateau:
            raise NotConverged(f"population has not settled: window means "
                               f"{m1:.6g}, {m2:.6g}")
        values.append(min(max(m2, 0.0), 1.0))
    return values[0] if isinstance(sys, D2System) else values


def _sample_means(sol, size):
    """The mean population over each half of a window of size samples, of
    which sol, a stage-kernel run, holds the leading ones: those not
    reached count as 0.  None for a run that failed."""
    if sol.end in ("failed", "budget"):
        return None
    tail = np.zeros(size)
    # the components' |A|^2 added in order, as np.sum adds them, but
    # without its slow reduction along an axis of 4
    tail[:len(sol.y)] = sum(np.abs(sol.y.T) ** 2)
    half = size // 2
    return [float(np.mean(tail[:half])), float(np.mean(tail[half:]))]


def spectrum_time_domain(sys: D2System, grid,
                         t_final: float = DEFAULT_T_FINAL,
                         runs: list | None = None) -> SpectrumResult:
    """Branch-resolved spectrum from the time-domain trajectory.

    Branch n is evaluated at its shifted argument delta + {+omega12, 0,
    -omega23} (`branch_shifts`); the total is the sum of the branches.  A
    list given as runs receives propagate's integrator diagnostics, with
    `eps_extrapolated`: whether a trapped component survives, so that each
    branch is the eps -> 0 extrapolation of two damped transforms.  The
    three branches are one `_transforms` call.  An empty grid takes no run.
    """
    grid = _finite_detuning(grid)
    if not len(grid):
        return _spectrum(grid, np.empty((3, 0)), [[], [], []], "timedomain")
    traj = propagate(sys, t_final, runs)
    if runs is not None:
        runs[-1]["eps_extrapolated"] = _is_trapped(traj)
    f = _transforms(traj, slice(3),
                    grid + np.array(branch_shifts(sys))[:, None])
    rows = np.empty((3, len(grid)))
    for n in range(3):
        _intensity(sys.gamma[n], f[n], rows[n])
    return _spectrum(grid, rows, [[], [], []], "timedomain")
