"""The in-place closed-form kernel gives the same bits as the kernel it
replaced.

`Reference` is that earlier kernel: out-of-place Horner from zeros, the
pole-hit scale on the full grid, the cofactor sum as sum(..., zeros_like),
Q' as a np.poly1d and a (3, N) amplitude array.  Its helpers that did not
change (root clustering, pole terms, the pole-hit fill) are the module's own,
run with the reference `_polyval` and `_numerator` patched in.
"""
import numpy as np
import pytest

from conftest import random_admissible_system
from darkstate import (D2System, DriveField, PoleHit, preset, preset_names,
                       spectrum_analytic, steady_state_amplitudes)
from darkstate import spectrum
from darkstate.spectrum import (branch_shifts, _constants, _cluster_roots,
                                _drive_constants, _poly_scale, _quartic,
                                _reconstruct)


def _polyval(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for c in coeffs:
        out = out * x + c
    return out


def _complex_quartic(sys):
    """The characteristic quartic's coefficients as the complex array the
    earlier kernel took."""
    return np.array(_quartic(_drive_constants(sys)), dtype=complex)


def _pole_hits(q, s):
    den = _polyval(q, s)
    hit = np.abs(den) < spectrum.POLE_HIT_RTOL * np.maximum(
        _poly_scale(q, s), 1e-300)
    return den, hit


def _numerator(const, branch, s):
    (g1, g2, g3), (o1, o2, o3, o4), (w1, w2, w3, w4), a0, weighted = const
    s = np.asarray(s, dtype=complex)
    a, b, c, d = s + g1, s + g2, s + g3, s
    conj = np.conj
    if branch == 1:
        cof = (lambda: b * c * d + b * w4 + d * w3,
               lambda: -1j * (o2 * (c * d + w4) - o1 * conj(o3) * conj(o4)),
               lambda: -(o2 * o3 * d + o1 * conj(o4) * b),
               lambda: 1j * (o2 * o3 * o4 - o1 * (b * c + w3)))
    elif branch == 2:
        cof = (lambda: -1j * (conj(o2) * (c * d + w4) - conj(o1) * o3 * o4),
               lambda: a * c * d + a * w4 + c * w1,
               lambda: -1j * (a * d * o3 + w1 * o3 - o1 * conj(o2) * conj(o4)),
               lambda: -(a * o3 * o4 + c * o1 * conj(o2)))
    else:
        cof = (lambda: -(d * conj(o2) * conj(o3) + b * conj(o1) * o4),
               lambda: -1j * (a * d * conj(o3) + w1 * conj(o3)
                              - conj(o1) * o2 * o4),
               lambda: a * b * d + w2 * d + w1 * b,
               lambda: -1j * (a * b * o4 + w2 * o4 - o1 * conj(o2) * conj(o3)))
    return sum((cof[k]() * a0[k] for k in weighted), np.zeros_like(s))


class Reference:
    """The earlier kernel's steady_state_amplitudes and spectrum_analytic."""

    @staticmethod
    def _quotients(sys, q, const, delta):
        delta = np.asarray(delta, dtype=float)
        for branch, shift in enumerate(branch_shifts(sys), start=1):
            s = -1j * np.asarray(delta + shift, dtype=complex)
            den, hit = _pole_hits(q, s)
            yield (branch, shift,
                   _numerator(const, branch, s) / np.where(hit, 1.0, den),
                   hit)

    @classmethod
    def amplitudes(cls, sys, delta):
        scalar = np.isscalar(delta)
        out = []
        for branch, _, vals, hit in cls._quotients(
                sys, _complex_quartic(sys), _constants(sys), delta):
            if scalar and hit:
                raise PoleHit(f"branch {branch}")
            out.append(complex(vals) if scalar
                       else np.where(hit, np.inf, vals))
        return tuple(out)

    @classmethod
    def spectrum(cls, sys, grid):
        grid = np.asarray(grid, dtype=float)
        q = _complex_quartic(sys)
        const = _constants(sys)
        roots = np.roots(q)
        dq = np.polyder(np.poly1d(q))
        for _ in range(2):
            val = _polyval(q, roots)
            dval = dq(roots)
            safe = np.abs(dval) > 1e-30
            step = np.where(safe, val / np.where(safe, dval, 1.0), 0.0)
            roots = roots - np.where(np.abs(step) < 1e-3, step, 0.0)
        clusters, _ = _cluster_roots(roots, dq(roots))  # slopes below
        slopes = [complex(dq(c[0])) if len(c) == 1 else None
                  for c in clusters]
        amps = np.zeros((3, len(grid)), dtype=complex)
        poles = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum, "_polyval", _polyval)
            mp.setattr(spectrum, "_numerator", _numerator)
            for branch, shift, vals, hit in cls._quotients(sys, q, const,
                                                           grid):
                terms = spectrum._branch_pole_terms(const, branch, shift, q,
                                                    clusters, slopes)
                if np.any(hit):
                    vals[hit] = _reconstruct(terms, grid[hit])
                amps[branch - 1] = vals
                poles.append(terms)
        gammas = np.asarray(sys.gamma, dtype=float)
        intensity = (gammas[:, None] * np.abs(amps) ** 2) / (2.0 * np.pi)
        return intensity, intensity.sum(axis=0), poles


def _same(a, b):
    """Equal to the bit: np.array_equal would also let a zero's sign flip."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _pole_tuples(branch_poles):
    # repr keeps every bit of a float, the sign of a zero included
    return repr([[(t.pole, t.residue, t.order, t.trapped) for t in terms]
                 for terms in branch_poles])


def _check(sys, grid, deltas=()):
    intensity, total, poles = Reference.spectrum(sys, grid)
    spec = spectrum_analytic(sys, grid)
    assert _same(spec.branch_intensity, intensity)
    assert _same(spec.total, total)
    assert _pole_tuples(spec.branch_poles) == _pole_tuples(poles)
    for got, want in zip(steady_state_amplitudes(sys, grid),
                         Reference.amplitudes(sys, grid)):
        assert _same(got, want)
    for delta in deltas:
        try:
            want = Reference.amplitudes(sys, delta)
        except PoleHit:
            with pytest.raises(PoleHit):
                steady_state_amplitudes(sys, delta)
            continue
        got = steady_state_amplitudes(sys, delta)
        assert repr(got) == repr(want)


#: an offset grid, the default grid, an empty and a two-point grid, and one
#: with a far point: it lifts the pole-hit scale at max|s| so far that
#: points near the poles are candidates that the exact scale rejects
GRIDS = (np.linspace(-30.0, 30.0, 601) + 0.0137,
         np.linspace(-30.0, 30.0, 6001), np.empty(0), np.array([-1.0, 1.0]),
         np.append(np.linspace(-30.0, 30.0, 601) + 0.0137, 3000.0))
DELTAS = (0.0, 0.5, -13.0, 13.0, 2.5, -7.25)


@pytest.mark.parametrize("name", preset_names())
def test_presets(name):
    sys = preset(name).system
    for grid in GRIDS:
        _check(sys, grid)
    _check(sys, np.array(DELTAS), DELTAS)


@pytest.mark.parametrize("omega", [13.0, 0.0, 2.5])
@pytest.mark.parametrize("initial", ["A1", "A2", "A3", "B"])
def test_random_systems(omega, initial):
    rng = np.random.default_rng(
        [int(omega * 10), "A1 A2 A3 B".split().index(initial)])
    for k in range(3):
        sys = random_admissible_system(rng, omega=omega, initial=initial)
        if k:  # switch one drive (k = 1) or two (k = 2) off
            off = rng.choice(4, size=k, replace=False)
            sys = D2System(
                gamma=sys.gamma, omega12=omega, omega23=omega,
                drives=tuple(DriveField(0.0) if n in off else dr
                             for n, dr in enumerate(sys.drives)),
                initial=initial)
        # the branch arguments' zeros: where an undriven chain hits s = 0
        hits = np.array([-omega, 0.0, omega, 0.5])
        _check(sys, GRIDS[0], DELTAS)
        _check(sys, hits, hits.tolist())
        _check(sys, GRIDS[3])
        _check(sys, GRIDS[4])


def test_undriven_chain_from_each_state():
    """Every branch argument's zero is a pole hit of an undriven chain."""
    for initial in ("A1", "A2", "A3", "B"):
        sys = D2System(gamma=(1.0, 0.7, 1.3), omega12=13.0, omega23=13.0,
                       drives=(DriveField(0.0),) * 4, initial=initial)
        hits = np.array([-13.0, 0.0, 13.0, 0.5])
        _check(sys, hits, hits.tolist())


@pytest.mark.parametrize("delta", [0.0, 0.5, -13.0])
def test_two_level_pole_hits(delta):
    sys = preset("two-level").system
    _check(sys, np.array([delta]), [delta])
    _check(sys, np.array([delta, 0.25]))
