"""darkstate: spontaneous-emission spectra and dark-state trapping for
driven loop-coupled emitters.

Two scenario families share one four-amplitude chain model: a five-level
loop with three decaying upper states (D2-style) and a single-loss loop with
four ground states (D1-style).  Spectra are available through a closed-form
Laplace-domain path and an independent time-domain oracle.
"""
from .errors import (
    AlignmentOutOfRange,
    DarkstateError,
    DivisionByZeroDrive,
    GridMismatch,
    GridOverflow,
    GridTooCoarse,
    NonFiniteValue,
    NonPositiveRate,
    NotAnalyticAdmissible,
    NotConverged,
    PoleHit,
    SingularSystem,
    StepSizeUnderflow,
    TooManySamples,
    UnknownPreset,
    UnnormalizedInitialState,
)
from .model import (
    D1System,
    D2System,
    DriveField,
    ScenarioPreset,
    analytic_admissible,
    d1_fields,
    d1_system,
    load_scenario,
    preset,
    preset_names,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_system,
)
from .spectrum import (
    PoleTerm,
    SpectrumResult,
    branch_numerator_s,
    coupling_matrix,
    laplace_solve_oracle,
    spectrum_analytic,
    steady_state_amplitudes,
)
from .dynamics import (
    AmplitudeTrajectory,
    branch_amplitude_numeric,
    propagate,
    spectrum_time_domain,
    trapped_fraction,
)
from .trapping import (
    TrappingReport,
    d1_trapping_check,
    fgc_check,
    fgc_solve,
)
from .analysis import (
    ConservationResult,
    Peak,
    PeakAnalysis,
    compare_spectra,
    conservation_check,
    count_spectral_lines,
    default_grid,
    find_peaks,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
