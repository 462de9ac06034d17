"""Closed-form Laplace-domain emission spectrum.

The four amplitudes obey dA/dt = M A at resonance; the emitted amplitude of
branch n at branch-local detuning x is the Laplace transform
F_n(x) = integral_0^inf exp(i x t) A_n(t) dt = [ (sI - M)^-1 A(0) ]_n at
s = -i x.  The three branches report on a common grid delta through the
shifted arguments (delta + omega12, delta, delta - omega23) of
`branch_shifts`, and the branch intensity is Gamma_n |F_n|^2 / (2 pi).

Two independent evaluation routes are provided: an explicit cofactor (Cramer)
expansion of the 4x4 system (`steady_state_amplitudes`) and a direct numeric
linear solve (`laplace_solve_oracle`).  The cofactor route evaluates only the
cofactors whose weight A_k(0) is nonzero, so a non-finite cofactor of weight 0
gives no NaN (the quartic's NonFiniteValue guard still runs first).  It takes
each residue N(s_j)/Q'(s_j) as a scalar.

Scalars and arrays round differently: numpy multiplies two complex scalars
without the fused multiply-add of its array loops, which 0-d arrays run too,
so the two products differ in the last bit.  An in-place update that keeps a
0-d array where the out-of-place operation returns a scalar therefore moves
the residues and the pole tables; an augmented assignment on a numpy scalar
rebinds it and is safe.  On arrays of any length an operation gives the same
bits in place as out of place, so the grid arithmetic runs in place.

A sweep is one batch (`intensity_rows`): the roots of every value's
quartic are found at once, as stacked companion-matrix eigenvalues with
elementwise Newton steps and Q' slopes (`_root_clusters`), and each branch
argument's max|s| once per shift.  Array loops give an element the same
bits whatever the array around it, so every row is np.roots' and its
polish bit for bit; a spectrum is a batch of one.  The grid arithmetic
still runs one system at a time, and each intensity row is filled as soon
as its amplitude is known, so no grid-length array is kept per value.
Past it, a system's scalars (drive amplitudes, quartic coefficients, the
pole-hit scale) are Python numbers: numpy multiplies two complex scalars by
Python's formula, so they keep numpy's bits at a fraction of the cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DarkstateError, GridOverflow, NonFiniteValue,
                     NotAnalyticAdmissible, PoleHit, SingularSystem)
from .model import D2System, analytic_admissible

#: roots closer than this are always treated as one confluent cluster; the
#: grouping widens adaptively because companion-matrix roots of an exactly
#: m-fold root scatter by eps**(1/m)
ROOT_CLUSTER_TOL = 1e-7


def _cluster_tol(a, b=0.0):
    return max(ROOT_CLUSTER_TOL, 3e-5 * max(1.0, abs(a), abs(b)))

#: |denominator| below this times its term scale counts as a pole hit
POLE_HIT_RTOL = 1e-12

#: a Newton step on a root of Q is taken only if smaller than this.  Newton
#: is unstable at (near-)multiple roots; this bound lets it step at
#: two-level's triple root, which leaves that pole 4.4e-8 off, and the
#: recorded spectra depend on it
NEWTON_MAX_STEP = 1e-3


@dataclass(frozen=True)
class PoleTerm:
    """One partial-fraction term residue / (delta - pole)**order.

    The pole's real part is the peak location, -2*imag its full width; the
    trapped flag marks an (effectively) undamped component.
    """

    pole: complex
    residue: complex
    order: int = 1
    trapped: bool = False


@dataclass
class SpectrumResult:
    grid: np.ndarray
    branch_intensity: np.ndarray  # shape (3, len(grid))
    total: np.ndarray
    branch_poles: list = field(default_factory=lambda: [[], [], []])
    method: str = "analytic"


# ---------------------------------------------------------------------------
# chain matrix and polynomial building blocks (variable s = -i * detuning)
# ---------------------------------------------------------------------------

def coupling_matrix(sys: D2System) -> np.ndarray:
    """Resonant drift matrix M with dA/dt = M A for (A1, A2, A3, B)."""
    g1, g2, g3 = (g / 2.0 for g in sys.gamma)
    o1, o2, o3, o4 = sys.rabi
    return np.array(
        [
            [-g1, -1j * o2, 0.0, -1j * o1],
            [-1j * np.conj(o2), -g2, -1j * o3, 0.0],
            [0.0, -1j * np.conj(o3), -g3, -1j * o4],
            [-1j * np.conj(o1), 0.0, -1j * np.conj(o4), 0.0],
        ],
        dtype=complex,
    )


def _quartic(const) -> tuple:
    """Coefficients (descending) of Q(s) = det(sI - M), a monic quartic,
    as Python floats, from the system's `_drive_constants` (or
    `_constants`).  Every coefficient is real, and each has the bits of
    numpy's complex scalars: numpy multiplies two of them by Python's
    formula, without a fused multiply-add.  Raises NonFiniteValue when a
    coefficient overflows, as products of two drive powers do once the
    drive magnitudes reach ~1e77 to ~1e154."""
    (g1, g2, g3), (o1, o2, o3, o4), (w1, w2, w3, w4) = const[:3]
    loop = o1.conjugate() * o2 * o3 * o4
    q3 = g1 + g2 + g3
    q2 = g1 * g2 + g1 * g3 + g2 * g3 + w1 + w2 + w3 + w4
    q1 = (g1 * g2 * g3 + g1 * w3 + g3 * w2 + (g1 + g2) * w4 + (g2 + g3) * w1)
    q0 = g1 * g2 * w4 + g2 * g3 * w1 + w1 * w3 + w2 * w4 - 2.0 * loop.real
    q = (1.0, q3, q2, q1, q0)
    if not all(map(math.isfinite, q)):
        raise NonFiniteValue("characteristic quartic overflows: "
                             f"{[complex(c) for c in q]}")
    return q


def _polyval(coeffs, x):
    """Horner's rule for coeffs (descending, degree >= 1) at x.  It starts
    from c0 x + c1, from x + c1 for a monic lead, which is what a start
    from zero gives bit for bit; an array x gets the later steps in place.
    Past the lead, each coefficient may be a column that broadcasts
    against x, one polynomial per row."""
    x = np.asarray(x, dtype=complex)
    out = x + coeffs[1] if coeffs[0] == 1 else coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _poly_scale(coeffs, x):
    """Sum of |coefficient| * |x|**k, for pole-proximity tests: a Horner
    sum from zero, on Python floats for a float x."""
    ax = abs(x)
    out = 0.0
    for c in coeffs:
        out = out * ax + abs(c)
    return out


def _hit_scale(q, smax):
    """The scale of Q's terms at the float smax = max|s|, which
    `_pole_hits` screens with; GridOverflow where it overflows, as Q(s)
    then can."""
    top = _poly_scale(q, smax)
    if not math.isfinite(top):
        raise GridOverflow(
            f"the detuning grid reaches |delta + shift| = {smax:.6g}, where "
            "the terms of the characteristic quartic overflow")
    return top


def _pole_hits(q, s, top):
    """(Q(s), hit): hit marks where |Q(s)| is below POLE_HIT_RTOL times the
    scale of its terms, i.e. where s is a root of Q to working precision;
    top is `_hit_scale` at max|s|.

    The scale is evaluated only where |Q(s)| is below the tolerance at
    max|s| (NaN skipped, as a NaN point is never a hit): a Horner sum of
    non-negative terms rounds monotonically, so no point's scale exceeds
    that one and the mask is the one the scale at every point gives."""
    den = _polyval(q, s)
    mag = np.abs(den)

    # an array even for a 0-d s, so that it can be assigned to
    hit = np.asarray(mag < POLE_HIT_RTOL * max(top, 1e-300))
    if hit.any():
        hit[hit] = mag[hit] < POLE_HIT_RTOL * np.maximum(
            _poly_scale(q, s[hit]), 1e-300)
    return den, hit


def branch_numerator_s(sys: D2System, branch: int, s):
    """Cofactor-expansion numerator N_n(s) = sum_k A_k(0) C_kn(s), with C_kn
    the cofactors of sI - M, so that F_n = N_n(s)/Q(s).

    Only the terms with A_k(0) != 0 are evaluated, summed in k order: a
    basis initial state costs one cofactor, and a non-finite cofactor of
    weight 0 gives no NaN (see the module docstring).
    """
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    return _numerator(_constants(sys), branch, s)


def _square_modulus(z):
    """|z| ** 2 of a Python number, the bits of numpy's scalars, and inf
    where it overflows: numpy returns inf there, where Python raises
    OverflowError (as `_dop853._square` has it)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _drive_constants(sys: D2System) -> tuple:
    """The halved rates, the drive amplitudes and their squared moduli, as
    Python numbers: what `_quartic` reads."""
    rabi = tuple([d.amplitude for d in sys.drives])
    return (tuple([g / 2.0 for g in sys.gamma]), rabi,
            tuple([_square_modulus(o) for o in rabi]))


def _constants(sys: D2System) -> tuple:
    """The per-system constants of `_numerator`: `_drive_constants`, A(0)
    and its nonzero indices."""
    a0 = sys.initial_vector()
    return (*_drive_constants(sys), a0, a0.nonzero()[0].tolist())


def _numerator(const, branch: int, s):
    (g1, g2, g3), (o1, o2, o3, o4), (w1, w2, w3, w4), a0, weighted = const
    s = np.asarray(s, dtype=complex)
    d = s
    conj = complex.conjugate

    # the branch arguments s + Gamma_k / 2, each built where a cofactor
    # reads it, so that no two are held at once
    def a():
        return s + g1

    def b():
        return s + g2

    def c():
        return s + g3

    if branch == 1:  # the cofactors C_k1, k = 1..4
        cof = (lambda: (b_ := b()) * c() * d + b_ * w4 + d * w3,
               lambda: -1j * (o2 * (c() * d + w4)
                              - o1 * conj(o3) * conj(o4)),
               lambda: -(o2 * o3 * d + o1 * conj(o4) * b()),
               lambda: 1j * (o2 * o3 * o4 - o1 * (b() * c() + w3)))
    elif branch == 2:
        cof = (lambda: -1j * (conj(o2) * (c() * d + w4)
                              - conj(o1) * o3 * o4),
               lambda: (a_ := a()) * (c_ := c()) * d + a_ * w4 + c_ * w1,
               lambda: -1j * (a() * d * o3 + w1 * o3
                              - o1 * conj(o2) * conj(o4)),
               lambda: -(a() * o3 * o4 + c() * o1 * conj(o2)))
    else:
        cof = (lambda: -(d * conj(o2) * conj(o3) + b() * conj(o1) * o4),
               lambda: -1j * (a() * d * conj(o3) + w1 * conj(o3)
                              - conj(o1) * o2 * o4),
               lambda: a() * (b_ := b()) * d + w2 * d + w1 * b_,
               lambda: -1j * (a() * b() * o4 + w2 * o4
                              - o1 * conj(o2) * conj(o3)))
    out = 0.0  # a sum from zero: a -0 part of the first term reads +0
    for k in weighted:
        term = cof[k]()
        term *= a0[k]
        term += out
        out = term
    return out


def _require_analytic(sys: D2System):
    if not analytic_admissible(sys):
        raise NotAnalyticAdmissible(
            "closed-form path needs resonant drives and zero alignments; "
            "use the time-domain path instead"
        )


# ---------------------------------------------------------------------------
# characteristic quartic and roots
# ---------------------------------------------------------------------------

def _cluster_roots(roots, slopes):
    """(clusters, slopes) of one row: the roots grouped into clusters of
    pairwise small distance, and the slope of each cluster's root when it
    is simple (None for a confluent cluster)."""
    members = []
    used = np.zeros(len(roots), dtype=bool)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        cluster = [i]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r) < _cluster_tol(roots[j], r):
                cluster.append(j)
                used[j] = True
        members.append(cluster)
    return ([[roots[k] for k in m] for m in members],
            [complex(slopes[m[0]]) if len(m) == 1 else None for m in members])


#: the index pairs (i < j) of a quartic's four roots
_PAIRS = np.triu_indices(4, 1)


def _root_clusters(qs):
    """(clusters, slopes) for each row of qs, a (B, 5) stack of monic
    quartics (descending coefficients), as an iterator: the roots as
    clusters of members, in np.roots order, and Q' at each cluster's root
    when it is simple (None for a confluent cluster).  A cluster's size is
    the root's multiplicity and its mean the root, as the companion-matrix
    scatter of an m-fold root is symmetric.  Each root gets two Newton
    steps, each taken only if smaller than NEWTON_MAX_STEP.

    The roots, steps and slopes are found for the whole stack before this
    returns; each row is clustered when the iterator reaches it.  Every row
    gets np.roots' roots bit for bit: its companion matrix is built as
    np.roots builds it, after np.roots' trimming of trailing zero
    coefficients, whose zero roots come last, and the eigenvalues are
    taken as one stack per trimmed degree.  The Newton steps and the
    slopes are elementwise, so each row's bits are those of its own.  Only
    the rows where some pair of roots is close go through
    `_cluster_roots`; the others are four simple roots."""
    qs = np.asarray(qs, dtype=complex).reshape(-1, 5)
    roots = np.zeros((len(qs), 4), dtype=complex)
    degree = 4 - np.argmax(qs[:, ::-1] != 0, axis=1)
    for deg in set(degree.tolist()) - {0}:
        rows = degree == deg
        comp = np.zeros((np.count_nonzero(rows), deg, deg), dtype=complex)
        comp[:, 1:, :-1] = np.eye(deg - 1)
        comp[:, 0, :] = -qs[rows, 1:deg + 1] / qs[rows, :1]
        roots[rows, :deg] = np.linalg.eigvals(comp)
    # coefficient k of every row as a column, after the leads of Q and of
    # Q' = np.polyder's
    cols = [1.0, *qs.T[1:, :, None]]
    # Q' and the values of Q and Q' may overflow for huge coefficients; a
    # step is then inf or NaN, fails the bound and is not taken
    with np.errstate(over="ignore", invalid="ignore"):
        dcols = [4.0, *(qs[:, 1:-1] * np.arange(3, 0, -1)).T[:, :, None]]
        for _ in range(2):
            val = _polyval(cols, roots)
            dval = _polyval(dcols, roots)
            safe = np.abs(dval) > 1e-30
            step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
            roots = roots - np.where(np.abs(step) < NEWTON_MAX_STEP, step, 0.0)
        slopes = _polyval(dcols, roots)
        # |r_i - r_j| against _cluster_tol for each pair of a row at once,
        # with a margin: the scalar abs of `_cluster_roots` and numpy's
        # array abs may differ in the last bit
        mag = np.abs(roots)
        gap = np.abs(roots[:, _PAIRS[0]] - roots[:, _PAIRS[1]])
        tol = 3e-5 * np.maximum(np.maximum(mag[:, _PAIRS[0]],
                                           mag[:, _PAIRS[1]]), 1.0)
        close = (gap < np.maximum(tol, ROOT_CLUSTER_TOL) * (1.0 + 1e-9)).any(
            axis=1)
    # a row without a close pair has simple roots only
    return (_cluster_roots(r, d) if c else ([[x] for x in r], d.tolist())
            for r, d, c in zip(roots, slopes, close.tolist()))


# ---------------------------------------------------------------------------
# steady-state amplitudes: closed form and linear-solve oracle
# ---------------------------------------------------------------------------

def branch_shifts(sys: D2System):
    """(omega12, 0, -omega23): branch n is evaluated at the branch-local
    detuning delta + branch_shifts(sys)[n - 1]."""
    return (sys.omega12, 0.0, -sys.omega23)


def _finite_detuning(delta):
    """delta as a float array; NonFiniteValue names its first NaN or
    infinite value."""
    delta = np.asarray(delta, dtype=float)
    finite = np.isfinite(delta)
    if not finite.all():
        raise NonFiniteValue(f"detuning {delta[~finite][0]} is not finite")
    return delta


def _branch_args(sys: D2System, grid, branches, smax):
    """(branch, shift, s, max|s|) for each of branches at the float
    detuning grid: s = -i (grid + shift) and its largest modulus, which
    the pole-hit screen reads.  The dict smax keeps the latter per shift,
    for the systems of a batch to share; s is rebuilt for each, as kept
    for every branch it would hold three grid-length arrays throughout."""
    shifts = branch_shifts(sys)
    for branch in branches:
        shift = shifts[branch - 1]
        s = -1j * np.asarray(grid + shift)
        if shift not in smax:
            smax[shift] = float(np.fmax.reduce(np.abs(s), axis=None,
                                               initial=0.0))
        yield branch, shift, s, smax[shift]


def _quotient(q, const, branch, s, s_max):
    """(F, hit): F = N_n(s)/Q(s) for branch n, given Q's coefficients q,
    the system's `_constants` and max|s|.  hit marks the pole hits, where
    F holds N_n(s) for the caller to replace.  The numerator's
    temporaries are gone before Q(s) is evaluated."""
    top = _hit_scale(q, s_max)
    num = _numerator(const, branch, s)
    den, hit = _pole_hits(q, s, top)
    num /= np.where(hit, 1.0, den) if hit.any() else den
    return num, hit


def steady_state_amplitudes(sys: D2System, delta):
    """Closed-form (F1, F2, F3) at common detuning delta, each branch at its
    shifted argument.  Exact pole hits come back as inf (the spectrum fills
    them from the partial fractions); a scalar detuning raises PoleHit."""
    _require_analytic(sys)
    scalar = np.ndim(delta) == 0
    x = _finite_detuning(delta)
    const = _constants(sys)
    q = _quartic(const)
    out = []
    for branch, _, s, s_max in _branch_args(sys, x, (1, 2, 3), {}):
        vals, hit = _quotient(q, const, branch, s, s_max)
        if scalar and hit:
            raise PoleHit(f"branch {branch} denominator vanishes at "
                          f"delta={delta}")
        if hit.any():
            vals = np.where(hit, np.inf, vals)
        out.append(complex(vals) if scalar else vals)
    return tuple(out)


def laplace_solve_oracle(sys: D2System, delta):
    """(F1, F2, F3) by solving (sI - M) F = A(0) numerically per grid point.

    Independent of the cofactor closed forms; used as the algebra oracle.
    """
    _require_analytic(sys)
    scalar = np.ndim(delta) == 0
    delta = _finite_detuning(delta)
    m = coupling_matrix(sys)
    a0 = sys.initial_vector()
    eye = np.eye(4, dtype=complex)
    results = []
    for branch, shift in enumerate(branch_shifts(sys), start=1):
        xs = np.atleast_1d(delta + shift)
        vals = np.empty(len(xs), dtype=complex)
        for k, xv in enumerate(xs):
            s = -1j * xv
            try:
                sol = np.linalg.solve(s * eye - m, a0)
            except np.linalg.LinAlgError as exc:
                raise SingularSystem(
                    f"singular Laplace system at delta={xv} (branch {branch})"
                ) from exc
            vals[k] = sol[branch - 1]
        results.append(complex(vals[0]) if scalar else vals)
    return tuple(results)


# ---------------------------------------------------------------------------
# pole/residue decomposition and the spectrum
# ---------------------------------------------------------------------------

def _cluster_poles(clusters, shift):
    """(center s, pole, trapped) per root cluster, the pole in the reporting
    convention; as the shift is real, Im(pole) is that of every branch."""
    for c in clusters:
        center_s = c[0] if len(c) == 1 else sum(c) / len(c)
        pole = complex(1j * center_s - shift)
        yield center_s, pole, bool(abs(pole.imag) < 1e-9)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _branch_pole_terms(const, branch, shift, qcoeffs, clusters, slopes):
    """Partial-fraction terms of F_n(delta) over the roots of Q(s), given
    as the clusters of `_root_clusters`; const is the system's `_constants`.

    Simple poles use residue = i N(s_j)/Q'(s_j), Q'(s_j) being the
    cluster's entry of slopes; clustered roots fall back to numeric contour
    integration (confluent partial fractions) around the cluster center.
    A residue that overflows or comes out NaN raises NonFiniteValue.
    """
    terms = []
    for cluster, slope, (center_s, pole, trapped) in zip(
            clusters, slopes, _cluster_poles(clusters, shift)):
        m = len(cluster)
        if m == 1:
            num = complex(_numerator(const, branch, center_s))
            res = 1j * num / slope
            terms.append(PoleTerm(pole, res, 1, trapped))
            continue
        # Laurent coefficients a_k of the principal part about the cluster
        # center via trapezoid contour integration; the circle must stay
        # well inside the distance to any other root.
        others = [abs(1j * r - shift - pole) for other in clusters
                  if other is not cluster for r in other]
        radius = 1e-3 if not others else min(1e-3, 0.25 * min(others))
        nq = 128
        ang = 2.0 * np.pi * np.arange(nq) / nq
        z = pole + radius * np.exp(1j * ang)
        s = -1j * (z + shift)
        fvals = _numerator(const, branch, s) / _polyval(qcoeffs, s)
        terms += [PoleTerm(pole, complex(np.mean(fvals * (z - pole) ** k)), k,
                           trapped) for k in range(1, m + 1)]
    bad = [t.pole for t in terms if not np.isfinite(t.residue)]
    if bad:
        raise NonFiniteValue(f"the branch {branch} residue at pole {bad[0]} "
                             f"is NaN or infinite")
    return terms


def _reconstruct(terms, delta):
    """Sum of the partial-fraction terms at each delta, leaving out those
    whose pole lies within 1e-6 of that delta: the non-singular part of the
    amplitude at a pole hit."""
    delta = np.asarray(delta, dtype=complex)
    out = np.zeros_like(delta)
    for t in terms:
        gap = delta - t.pole
        far = np.abs(gap) > 1e-6
        out = out + np.where(far, t.residue / np.where(far, gap, 1.0) ** t.order,
                             0.0)
    return out


def _intensity(gamma, f, out):
    """out = Gamma |F|^2 / 2 pi, in place; NonFiniteValue where a value is
    NaN or infinite, so that no route writes one."""
    np.abs(f, out=out)
    out **= 2
    out *= gamma
    out /= 2.0 * np.pi
    if not np.isfinite(out).all():
        raise NonFiniteValue(
            f"the emission intensity is NaN or infinite at "
            f"{np.count_nonzero(~np.isfinite(out))} of {out.size} grid points")


def _spectrum(grid, branch_intensity, poles, method) -> SpectrumResult:
    """The SpectrumResult of a route's intensity rows Gamma_n |F_n|^2 / 2 pi,
    with their sum as the total."""
    return SpectrumResult(grid=grid, branch_intensity=branch_intensity,
                          total=branch_intensity.sum(axis=0),
                          branch_poles=poles, method=method)


def _batch(systems, grid):
    """(grid, rows, failure) for a sequence of systems: the float grid; an
    iterator of (sys, q, const, clusters, slopes), each system's quartic,
    `_constants` and `_root_clusters` entry, over the systems before the
    first that fails; and that system's error (else None), for the caller
    to raise once the rows before it are done, as a loop over the systems
    would.  The roots of all rows are found at once."""
    qs, failure = [], None
    try:
        for k, sys in enumerate(systems):
            _require_analytic(sys)
            if not k:
                grid = _finite_detuning(grid)
            qs.append(_quartic(_drive_constants(sys)))
    except DarkstateError as exc:  # raised after earlier rows
        failure = exc
    # a row's constants are built again when it is reached: kept for the
    # whole batch, they would hold about 0.5 kB more per system
    return grid, ((sys, q, const, *r) for sys, q, const, r in zip(
        systems, qs, map(_constants, systems), _root_clusters(qs))), failure


def _row_intensities(row, grid, branches, smax, poles=None):
    """The intensity rows Gamma_n |F_n|^2 / 2 pi of branches for one
    `_batch` row, each filled as soon as its F_n is known; pole hits are
    filled from the partial fractions.  Those are built for every branch
    and appended to poles when it is a list, else only to fill hits;
    smax is `_branch_args`'."""
    sys, q, const, clusters, slopes = row
    rows = np.empty((len(branches), len(grid)))
    for out, (branch, shift, s, s_max) in zip(
            rows, _branch_args(sys, grid, branches, smax)):
        f, hit = _quotient(q, const, branch, s, s_max)
        if poles is not None or hit.any():
            terms = _branch_pole_terms(const, branch, shift, q, clusters,
                                       slopes)
            if hit.any():
                f[hit] = _reconstruct(terms, grid[hit])
            if poles is not None:
                poles.append(terms)
        _intensity(sys.gamma[branch - 1], f, out)
        del f  # before the next branch's arithmetic
    return rows


def spectrum_analytic(sys: D2System, grid) -> SpectrumResult:
    """Branch-resolved emission spectrum on a common detuning grid.

    Branch n intensity is Gamma_n |F_n|^2 / 2 pi; pole-hit grid points are
    filled from the partial-fraction form with singular terms excluded.
    """
    grid, batch, failure = _batch([sys], grid)
    if failure is not None:
        raise failure
    poles = []
    rows = _row_intensities(next(batch), grid, (1, 2, 3), {}, poles)
    return _spectrum(grid, rows, poles, "analytic")


def intensity_rows(systems, grid, branches, reduce):
    """[reduce(grid, rows, lines)] for each of systems in turn: the float
    grid, the intensity rows of branches, bit for bit those of
    `spectrum_analytic`, and the (pole, trapped) pair of each root cluster,
    whose widths are those of every branch.

    One batch: the roots of all systems are found at once (`_batch`) and
    each branch argument's max|s| once per shift; the grid arithmetic runs
    one system at a time and only reduce's results are kept, so no
    grid-length array is held per system."""
    grid, batch, failure = _batch(systems, grid)
    smax = {}
    out = [reduce(grid, _row_intensities(row, grid, branches, smax),
                  [(p, t) for _, p, t in _cluster_poles(row[3], 0.0)])
           for row in batch]
    if failure is not None:
        raise failure
    return out
