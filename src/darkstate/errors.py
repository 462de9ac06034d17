"""Exception and warning types shared across the package."""


class DarkstateError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRate(DarkstateError):
    """A decay rate or level splitting that must be positive and finite is
    not."""


class NonFiniteValue(DarkstateError):
    """A drive magnitude, drive phase or detuning is NaN or infinite, or a
    quantity computed from finite inputs overflows, as the amplitudes of a
    growing `propagate` run can."""


class UnnormalizedInitialState(DarkstateError):
    """Initial amplitude vector does not have unit norm."""


class AlignmentOutOfRange(DarkstateError):
    """A dipole alignment factor lies outside [-1, 1]."""


class UnknownPreset(DarkstateError):
    """Requested preset name is not in the registry."""


class NotAnalyticAdmissible(DarkstateError):
    """System violates the preconditions of the closed-form spectrum path
    (resonant drives, zero cross-damping)."""


class StepSizeUnderflow(DarkstateError):
    """The adaptive integrator failed before reaching t_final."""

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached


class NotConverged(DarkstateError):
    """An integration spent its step budget, or the surviving population
    found no plateau or grew past its initial norm."""


class PoleHit(DarkstateError):
    """Requested detuning coincides with a pole of the amplitude."""


class SingularSystem(DarkstateError):
    """The Laplace-domain linear system is singular at the requested detuning."""


class DivisionByZeroDrive(DarkstateError):
    """Drive-completion request with a vanishing drive in the denominator."""


class GridMismatch(DarkstateError):
    """Two spectra do not share the same detuning grid."""


class GridTooCoarse(UserWarning):
    """Grid spacing may be too coarse to resolve the narrowest feature."""


class GridOverflow(DarkstateError):
    """The detuning grid reaches values where the closed form's
    characteristic quartic overflows."""


class TooManySamples(DarkstateError):
    """A time-domain run would take more samples than the cap allows."""
