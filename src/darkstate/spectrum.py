"""Closed-form Laplace-domain emission spectrum.

The four amplitudes obey dA/dt = M A at resonance; the emitted amplitude of
branch n at branch-local detuning x is the Laplace transform
F_n(x) = integral_0^inf exp(i x t) A_n(t) dt = [ (sI - M)^-1 A(0) ]_n at
s = -i x.  The three branches report on a common grid delta through the
shifted arguments (delta + omega12, delta, delta - omega12), and the branch
intensity is Gamma_n |F_n|^2 / (2 pi).

Two independent evaluation routes are provided: an explicit cofactor (Cramer)
expansion of the 4x4 system (`steady_state_amplitudes`) and a direct numeric
linear solve (`laplace_solve_oracle`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAnalyticAdmissible, PoleHit, SingularSystem
from .model import D1System, D2System, analytic_admissible, d1_to_chain

BRANCH_SHIFT_SIGNS = (+1, 0, -1)  # branch n argument = delta + sign*omega12

#: roots closer than this are always treated as one confluent cluster; the
#: grouping widens adaptively because companion-matrix roots of an exactly
#: m-fold root scatter by eps**(1/m)
ROOT_CLUSTER_TOL = 1e-7


def _cluster_tol(a, b=0.0):
    return max(ROOT_CLUSTER_TOL, 3e-5 * max(1.0, abs(a), abs(b)))

#: |denominator| below this times its term scale counts as a pole hit
POLE_HIT_RTOL = 1e-12


@dataclass(frozen=True)
class QuarticPoly:
    """Monic quartic in the branch-shifted detuning variable.

    coefficients are (c4, c3, c2, c1, c0), descending degree, c4 == 1.
    """

    coefficients: tuple
    branch_shift: float = 0.0

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) != 5:
            raise ValueError("quartic needs five coefficients")
        if coeffs[0] != 1.0:
            raise ValueError("quartic must be monic")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        return _polyval(self.coefficients, x)


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
    include_cross: bool = False


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


def quartic_coeffs_s(sys: D2System) -> np.ndarray:
    """Coefficients (descending) of Q(s) = det(sI - M), a monic quartic."""
    g1, g2, g3 = (g / 2.0 for g in sys.gamma)
    o1, o2, o3, o4 = sys.rabi
    w1, w2, w3, w4 = (abs(o) ** 2 for o in sys.rabi)
    loop = np.conj(o1) * o2 * o3 * o4
    q3 = g1 + g2 + g3
    q2 = g1 * g2 + g1 * g3 + g2 * g3 + w1 + w2 + w3 + w4
    q1 = (g1 * g2 * g3 + g1 * w3 + g3 * w2 + (g1 + g2) * w4 + (g2 + g3) * w1)
    q0 = g1 * g2 * w4 + g2 * g3 * w1 + w1 * w3 + w2 * w4 - 2.0 * loop.real
    return np.array([1.0, q3, q2, q1, q0], dtype=complex)


def _polyval(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for c in coeffs:
        out = out * x + c
    return out


def _poly_scale(coeffs, x):
    """Sum of |coefficient| * |x|**k, for pole-proximity tests."""
    ax = np.abs(np.asarray(x))
    out = np.zeros_like(ax)
    for c in coeffs:
        out = out * ax + abs(c)
    return out


def branch_numerator_s(sys: D2System, branch: int, s):
    """Cofactor-expansion numerator N_n(s) so that F_n = N_n(s)/Q(s).

    Each initial-condition component contributes its own cofactor; these are
    the four numerator terms of the closed-form amplitudes.
    """
    if branch not in (1, 2, 3):
        raise ValueError("branch must be 1, 2 or 3")
    g1, g2, g3 = (g / 2.0 for g in sys.gamma)
    o1, o2, o3, o4 = sys.rabi
    w1, w3, w4 = abs(o1) ** 2, abs(o3) ** 2, abs(o4) ** 2
    w2 = abs(o2) ** 2
    a0 = sys.initial_vector()
    s = np.asarray(s, dtype=complex)
    a = s + g1
    b = s + g2
    c = s + g3
    d = s
    if branch == 1:
        c11 = b * c * d + b * w4 + d * w3
        c21 = -1j * (o2 * (c * d + w4) - o1 * np.conj(o3) * np.conj(o4))
        c31 = -(o2 * o3 * d + o1 * np.conj(o4) * b)
        c41 = 1j * (o2 * o3 * o4 - o1 * (b * c + w3))
        return c11 * a0[0] + c21 * a0[1] + c31 * a0[2] + c41 * a0[3]
    if branch == 2:
        c12 = -1j * (np.conj(o2) * (c * d + w4) - np.conj(o1) * o3 * o4)
        c22 = a * c * d + a * w4 + c * w1
        c32 = -1j * (a * d * o3 + w1 * o3 - o1 * np.conj(o2) * np.conj(o4))
        c42 = -(a * o3 * o4 + c * o1 * np.conj(o2))
        return c12 * a0[0] + c22 * a0[1] + c32 * a0[2] + c42 * a0[3]
    c13 = -(d * np.conj(o2) * np.conj(o3) + b * np.conj(o1) * o4)
    c23 = -1j * (a * d * np.conj(o3) + w1 * np.conj(o3) - np.conj(o1) * o2 * o4)
    c33 = a * b * d + w2 * d + w1 * b
    c43 = -1j * (a * b * o4 + w2 * o4 - o1 * np.conj(o2) * np.conj(o3))
    return c13 * a0[0] + c23 * a0[1] + c33 * a0[2] + c43 * a0[3]


def _require_analytic(sys: D2System):
    if not analytic_admissible(sys):
        raise NotAnalyticAdmissible(
            "closed-form path needs resonant drives, omega12 == omega23 "
            "and zero alignments; use the time-domain path instead"
        )


# ---------------------------------------------------------------------------
# characteristic quartic and roots
# ---------------------------------------------------------------------------

def characteristic_quartic(sys: D2System, branch_shift: float = 0.0) -> QuarticPoly:
    """Monic quartic D(x) in the branch-shifted detuning x.

    D(x) = det(sI - M) at s = i x; its coefficients are
    c3 = -i Sum Gamma_j / 2, c2 = -(pairwise Gamma products / 4 + Sum|Omega|^2),
    c1 = +i(...), c0 real-loop form.  Roots of physical (decaying) systems sit
    in the closed upper half plane; the corresponding amplitude poles in the
    reporting convention are their negatives.
    """
    _require_analytic(sys)
    q = quartic_coeffs_s(sys)
    # substitute s = i x: coefficient of x^k picks up i^k
    coeffs = tuple(q[4 - k] * (1j) ** k for k in range(4, -1, -1))
    return QuarticPoly(coefficients=coeffs, branch_shift=float(branch_shift))


def quartic_roots(poly: QuarticPoly):
    """Roots via the companion matrix, polished with two Newton steps.

    Returns (roots, multiplicities); roots closer than ROOT_CLUSTER_TOL are
    reported with multiplicity > 1.
    """
    coeffs = np.asarray(poly.coefficients, dtype=complex)
    roots = np.roots(coeffs)
    deriv = np.polyder(np.poly1d(coeffs))
    for _ in range(2):
        val = _polyval(coeffs, roots)
        dval = deriv(roots)
        safe = np.abs(dval) > 1e-30
        step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
        # do not polish (near-)multiple roots; Newton is unstable there
        small = np.abs(step) < 10.0 * ROOT_CLUSTER_TOL
        roots = roots - np.where(small, step, 0.0)
    roots = np.sort_complex(roots)
    clusters = _cluster_roots(roots)
    # snap members of a cluster to their mean: the companion-matrix scatter
    # of an m-fold root is symmetric, so the mean is far more accurate
    snapped = []
    mults = []
    for members in clusters:
        center = sum(members) / len(members)
        snapped.extend([center] * len(members))
        mults.extend([len(members)] * len(members))
    snapped = np.array(snapped, dtype=complex)
    order = np.lexsort((snapped.imag, snapped.real))
    return snapped[order], np.array(mults, dtype=int)[order]


# ---------------------------------------------------------------------------
# steady-state amplitudes: closed form and linear-solve oracle
# ---------------------------------------------------------------------------

def _branch_arguments(sys: D2System, delta):
    delta = np.asarray(delta, dtype=float)
    return [delta + sign * sys.omega12 for sign in BRANCH_SHIFT_SIGNS]


def steady_state_amplitudes(sys: D2System, delta):
    """Closed-form (F1, F2, F3) at common detuning delta, each branch at its
    shifted argument.  Raises PoleHit if the denominator vanishes at a
    requested scalar detuning."""
    _require_analytic(sys)
    q = quartic_coeffs_s(sys)
    out = []
    scalar = np.isscalar(delta)
    for branch, x in enumerate(_branch_arguments(sys, delta), start=1):
        s = -1j * np.asarray(x, dtype=complex)
        den = _polyval(q, s)
        scale = _poly_scale(q, s)
        hit = np.abs(den) < POLE_HIT_RTOL * np.maximum(scale, 1e-300)
        if scalar and hit:
            raise PoleHit(f"branch {branch} denominator vanishes at delta={delta}")
        num = branch_numerator_s(sys, branch, s)
        # array path: exact pole hits come back as inf (use the spectrum
        # routine for residue-filled values)
        vals = np.where(hit, np.inf, num / np.where(hit, 1.0, den))
        out.append(complex(vals) if scalar else vals)
    return tuple(out)


def laplace_solve_oracle(sys: D2System, delta):
    """(F1, F2, F3) by solving (sI - M) F = A(0) numerically per grid point.

    Independent of the cofactor closed forms; used as the algebra oracle.
    """
    _require_analytic(sys)
    m = coupling_matrix(sys)
    a0 = sys.initial_vector()
    eye = np.eye(4, dtype=complex)
    scalar = np.isscalar(delta)
    results = []
    for branch, x in enumerate(_branch_arguments(sys, delta), start=1):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
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

def _cluster_roots(roots):
    """Group roots into clusters of pairwise small distance."""
    clusters = []
    used = np.zeros(len(roots), dtype=bool)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r) < _cluster_tol(roots[j], r):
                members.append(j)
                used[j] = True
        clusters.append([roots[k] for k in members])
    return clusters


def _branch_pole_terms(sys, branch, shift, qcoeffs, sroots):
    """Partial-fraction terms of F_n(delta) over the roots of Q(s).

    Simple poles use residue = i N(s_j)/Q'(s_j); clustered roots fall back to
    numeric contour integration (confluent partial fractions) around the
    cluster center.
    """
    dq = np.polyder(np.poly1d(qcoeffs))
    terms = []
    for cluster in _cluster_roots(sroots):
        if len(cluster) == 1:
            s_j = cluster[0]
            pole = 1j * s_j - shift
            num = complex(branch_numerator_s(sys, branch, s_j))
            res = 1j * num / complex(dq(s_j))
            terms.append(PoleTerm(pole=complex(pole), residue=res,
                                  order=1,
                                  trapped=bool(abs(pole.imag) < 1e-9)))
        else:
            center_s = sum(cluster) / len(cluster)
            pole = 1j * center_s - shift
            m = len(cluster)
            # Laurent coefficients a_k of the principal part about the cluster
            # center via trapezoid contour integration; the circle must stay
            # well inside the distance to any other root.
            others = [abs(1j * r - shift - pole) for r in sroots
                      if min(abs(r - c) for c in cluster) >= _cluster_tol(r)]
            radius = 1e-3 if not others else min(1e-3, 0.25 * min(others))
            nq = 128
            ang = 2.0 * np.pi * np.arange(nq) / nq
            z = pole + radius * np.exp(1j * ang)
            s = -1j * (z + shift)
            fvals = branch_numerator_s(sys, branch, s) / _polyval(qcoeffs, s)
            for k in range(1, m + 1):
                a_k = np.mean(fvals * (z - pole) ** k)
                terms.append(PoleTerm(pole=complex(pole), residue=complex(a_k),
                                      order=k,
                                      trapped=bool(abs(pole.imag) < 1e-9)))
    return terms


def _reconstruct(terms, delta):
    delta = np.asarray(delta, dtype=complex)
    out = np.zeros_like(delta)
    for t in terms:
        if t.residue == 0.0:
            continue
        out = out + t.residue / (delta - t.pole) ** t.order
    return out


def assemble_spectrum(sys: D2System, grid, amps, include_cross: bool,
                      method: str, branch_poles: list) -> SpectrumResult:
    """Spectrum from the branch amplitudes amps (shape (3, len(grid))).

    Branch n intensity is Gamma_n |F_n|^2 / 2 pi; the total is their sum, or
    with include_cross |sum_n sqrt(Gamma_n) F_n|^2 / 2 pi.
    """
    gammas = np.asarray(sys.gamma, dtype=float)
    branch_intensity = (gammas[:, None] * np.abs(amps) ** 2) / (2.0 * np.pi)
    if include_cross:
        summed = np.sum(np.sqrt(gammas)[:, None] * amps, axis=0)
        total = np.abs(summed) ** 2 / (2.0 * np.pi)
    else:
        total = branch_intensity.sum(axis=0)
    return SpectrumResult(grid=grid, branch_intensity=branch_intensity,
                          total=total, branch_poles=branch_poles,
                          method=method, include_cross=include_cross)


def spectrum_analytic(sys: D2System, grid, include_cross: bool = False) -> SpectrumResult:
    """Branch-resolved emission spectrum on a common detuning grid.

    Branch n intensity is Gamma_n |F_n|^2 / 2 pi; pole-hit grid points are
    filled from the partial-fraction form with singular terms excluded.
    """
    _require_analytic(sys)
    grid = np.asarray(grid, dtype=float)
    q = quartic_coeffs_s(sys)
    sroots = np.roots(q)
    # polish
    dq = np.polyder(np.poly1d(q))
    for _ in range(2):
        val = _polyval(q, sroots)
        dval = dq(sroots)
        safe = np.abs(dval) > 1e-30
        step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
        sroots = sroots - np.where(np.abs(step) < 1e-3, step, 0.0)

    amps = np.zeros((3, len(grid)), dtype=complex)
    branch_poles = []
    args = _branch_arguments(sys, grid)
    for branch, (x, sign) in enumerate(zip(args, BRANCH_SHIFT_SIGNS), start=1):
        shift = sign * sys.omega12
        s = -1j * np.asarray(x, dtype=complex)
        den = _polyval(q, s)
        scale = _poly_scale(q, s)
        hit = np.abs(den) < POLE_HIT_RTOL * np.maximum(scale, 1e-300)
        num = branch_numerator_s(sys, branch, s)
        vals = np.where(hit, 0.0, num / np.where(hit, 1.0, den))
        terms = _branch_pole_terms(sys, branch, shift, q, sroots)
        if np.any(hit):
            # fill from the non-singular part of the residue expansion
            for idx in np.nonzero(hit)[0]:
                d0 = grid[idx]
                acc = 0.0 + 0.0j
                for t in terms:
                    if abs(d0 - t.pole) > 1e-6:
                        acc += t.residue / (d0 - t.pole) ** t.order
                vals[idx] = acc
        amps[branch - 1] = vals
        branch_poles.append(terms)

    return assemble_spectrum(sys, grid, amps, include_cross, "analytic",
                             branch_poles)


def d1_spectrum(sys: D1System, grid, include_cross: bool = False) -> SpectrumResult:
    """Single-branch spectrum of the simple-loss loop via the chain mapping.

    The side branches carry zero decay rate and therefore zero intensity; the
    central branch reproduces i*delta*(|Oo1||Om1| e^{i phi3} +
    |Om2||Oo2| e^{-i phi2}) over the chain quartic.
    """
    return spectrum_analytic(d1_to_chain(sys), grid, include_cross=include_cross)
