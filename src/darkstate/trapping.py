"""Trapping-condition analysis: the field-generated conditions that darken
the central bare state (chain system) or the whole atom (simple-loss
system).  The vacuum-generated route has no code here: it needs the
quartic's constant term `spectrum._quartic(_drive_constants(sys))[4]` to
vanish, which positive decay rates and any nonzero drive product forbid."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionByZeroDrive, NonFiniteValue
from .model import D1System, D2System, DriveField, d1_fields, wrap_signed

#: tolerance of the trapping conditions: absolute on the phase and the
#: decay rates, relative to the larger drive product on the products
DEFAULT_TOL = 1e-9


@dataclass
class TrappingReport:
    """Residuals of the trapping constraints and the verdict.

    From initial state B, the central branch's numerator is

        N(delta) = (i delta + g1) O3 O4 + (i delta + g3) O1 conj(O2)
                 = i delta * delta_coefficient_residual + constant_residual,

    with g = Gamma/2: the cofactor the spectrum divides up to sign and
    delta -> -delta, `branch_numerator_s(sys, 2, -1j * delta)` = -N(-delta).
    Trapping is N vanishing identically; the three scalar conditions are the
    equivalent split into magnitude, phase and decay-rate balance.
    """

    delta_coefficient_residual: complex
    constant_residual: complex
    magnitude_condition: float
    phase_condition: float
    gamma_condition: float
    satisfied: bool


def _require_finite(what, *values):
    if not all(np.isfinite(v) for v in values):
        raise NonFiniteValue(f"{what} overflow: {', '.join(map(str, values))}")


def fgc_check(sys: D2System) -> TrappingReport:
    """Evaluate the field-generated trapping condition for the chain system.

    Satisfied iff |O3||O4| == |O1||O2|, phi2 + phi3 == pi (mod 2 pi) and
    Gamma1 == Gamma3, all within DEFAULT_TOL (scale = largest drive
    product).
    Raises NonFiniteValue when a drive product overflows.  A D1System gets
    the verdict of its chain; `d1_trapping_check` is the loop's own check.
    """
    o1, o2, o3, o4 = sys.rabi
    g1, _, g3 = sys.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        prod_a = o3 * o4            # carries exp(i phi3) for real outer drives
        prod_b = o1 * np.conj(o2)   # carries exp(-i phi2)
        delta_coeff = prod_a + prod_b
        const = 0.5 * g1 * prod_a + 0.5 * g3 * prod_b
        mag = abs(o3) * abs(o4) - abs(o1) * abs(o2)
    _require_finite("trapping residuals", delta_coeff, const, mag)
    phases = [d.phase for d in sys.drives]
    phase = wrap_signed(phases[1] + phases[2] - math.pi)
    gamma_cond = g1 - g3
    scale = max(abs(prod_a), abs(prod_b), 1e-300)
    satisfied = (abs(mag) <= DEFAULT_TOL * scale
                 and abs(phase) <= DEFAULT_TOL
                 and abs(gamma_cond) <= DEFAULT_TOL)
    return TrappingReport(
        delta_coefficient_residual=complex(delta_coeff),
        constant_residual=complex(const),
        magnitude_condition=float(mag),
        phase_condition=float(phase),
        gamma_condition=float(gamma_cond),
        satisfied=bool(satisfied),
    )


def fgc_solve(mag1: float, mag2: float, mag3: float, phase2: float) -> tuple:
    """Complete (|O4|, phi3) so the trapping condition holds.

    |O4| = |O1||O2| / |O3| and phi3 = pi - phi2 (wrapped); the caller must
    separately ensure Gamma1 == Gamma3.  Raises NonFiniteValue when |O4|
    overflows.
    """
    if mag3 == 0.0:
        raise DivisionByZeroDrive("cannot solve for |Omega4| with |Omega3| = 0")
    with np.errstate(over="ignore", invalid="ignore"):
        mag4 = mag1 * mag2 / mag3
    _require_finite("solved |Omega4|", mag4)
    return (DriveField(mag1, 0.0), DriveField(mag2, phase2),
            DriveField(mag3, math.pi - phase2), DriveField(mag4, 0.0))


def d1_trapping_check(sys: D1System) -> TrappingReport:
    """Whole-atom darkening condition for the simple-loss loop:
    Oo1*Om1 + Om2*conj(Oo2) == 0 (for the scenario phase conventions this is
    |Oo1||Om1| e^{i phi3} + |Om2||Oo2| e^{-i phi2} == 0), within
    DEFAULT_TOL of the larger product.  Raises NonFiniteValue when a drive
    product overflows."""
    optical1, optical2, microwave1, microwave2 = d1_fields(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        a = optical1.amplitude * microwave1.amplitude
        b = microwave2.amplitude * np.conj(optical2.amplitude)
        total = a + b
        mag = abs(a) - abs(b)
    _require_finite("trapping residuals", total, mag)
    scale = max(abs(a), abs(b), 1e-300)
    phase = wrap_signed(optical2.phase + optical1.phase
                        + microwave1.phase - microwave2.phase - math.pi)
    satisfied = abs(total) <= DEFAULT_TOL * scale
    return TrappingReport(
        delta_coefficient_residual=complex(total),
        constant_residual=0j,
        magnitude_condition=float(mag),
        phase_condition=float(phase),
        gamma_condition=0.0,
        satisfied=bool(satisfied),
    )
