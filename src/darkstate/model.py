"""Scenario parameters, validation, presets and the D1 loop as a chain.

All rates are expressed in units of a reference decay rate (Gamma_ref = 1),
times in units of its inverse.  Complex drive amplitudes are built as
magnitude * exp(i*phase).
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._text import TEXT_BLOCK, format_repr
from .errors import (
    AlignmentOutOfRange,
    NonFiniteValue,
    NonPositiveRate,
    UnknownPreset,
    UnnormalizedInitialState,
)

TWO_PI = 2.0 * math.pi

#: splitting of the chain that d1_system builds; the D1 spectrum
#: lives entirely in the central (unshifted) branch, so the value only fixes
#: where the two zero-rate side branches would be reported.
D1_CHAIN_SPLITTING = 13.0

_INITIAL_LABELS = {"A1": 0, "A2": 1, "A3": 2, "B": 3}


def wrap_phase(phi: float) -> float:
    """Wrap an angle into [0, 2*pi); a non-finite angle is returned as it
    is, for `validate_system` to name."""
    if not math.isfinite(phi):
        return phi
    phi = math.fmod(phi, TWO_PI)
    if phi < 0:
        phi += TWO_PI
    # a tiny negative input rounds up to exactly 2*pi
    return 0.0 if phi >= TWO_PI else phi


def wrap_signed(phi: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    phi = math.fmod(phi, TWO_PI)
    if phi > math.pi:
        phi -= TWO_PI
    elif phi <= -math.pi:
        phi += TWO_PI
    return phi


@dataclass(frozen=True)
class DriveField:
    """One classical drive: magnitude (rate units) and phase (radians)."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError(f"drive magnitude must be >= 0, got {self.magnitude}")
        object.__setattr__(self, "phase", wrap_phase(float(self.phase)))
        object.__setattr__(self, "magnitude", float(self.magnitude))

    @property
    def amplitude(self) -> complex:
        """Complex Rabi amplitude magnitude*exp(i*phase)."""
        if self.phase == 0.0:
            return complex(self.magnitude)
        return self.magnitude * cmath.exp(1j * self.phase)


def _coerce_initial(initial) -> np.ndarray:
    """Return the complex 4-vector (A1, A2, A3, B) for an initial state spec."""
    if isinstance(initial, str):
        if initial not in _INITIAL_LABELS:
            raise ValueError(f"unknown initial state label {initial!r}")
        vec = np.zeros(4, dtype=complex)
        vec[_INITIAL_LABELS[initial]] = 1.0
        return vec
    vec = np.asarray(initial, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("initial state must be a label or a length-4 vector")
    return vec


@dataclass(frozen=True)
class D2System:
    """Five-level loop: three decaying upper states A1, A2, A3 and ground B,
    closed by four drives (B-A1, A1-A2, A2-A3, A3-B)."""

    gamma: tuple[float, float, float]
    omega12: float
    omega23: float
    drives: tuple[DriveField, DriveField, DriveField, DriveField]
    detunings: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    alignments: tuple[float, float, float] = (0.0, 0.0, 0.0)
    initial: object = "B"

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
        object.__setattr__(self, "alignments", tuple(float(p) for p in self.alignments))
        object.__setattr__(self, "drives", tuple(self.drives))
        if len(self.gamma) != 3 or len(self.drives) != 4:
            raise ValueError("need 3 decay rates and 4 drives")
        if len(self.detunings) != 4 or len(self.alignments) != 3:
            raise ValueError("need 4 detunings and 3 alignments")

    @property
    def rabi(self) -> np.ndarray:
        """Complex drive amplitudes (Omega1..Omega4)."""
        return np.array([d.amplitude for d in self.drives], dtype=complex)

    def initial_vector(self) -> np.ndarray:
        return _coerce_initial(self.initial)

    def with_drives(self, drives) -> "D2System":
        return replace(self, drives=tuple(drives))


@dataclass(frozen=True)
class D1System(D2System):
    """Single decaying excited state coupled to three of four ground states,
    as its four-amplitude chain: two optical drives (carrying the
    controllable phases) and two microwave drives close the loop.  Build it
    with `d1_system`; `d1_fields` gives its drives in scenario-file order."""


def d1_system(gamma, optical1: DriveField, optical2: DriveField,
              microwave1: DriveField, microwave2: DriveField,
              initial="B") -> D1System:
    """The single-loss loop as the four-amplitude chain.

    The decaying state sits in the central chain position (rates (0, Gamma, 0));
    the drive assignment is chain (O1, O2, O3, O4) =
    (microwave2, optical2, optical1, microwave1), which makes the central-branch
    emission numerator proportional to
    i*delta*(|Oo1||Om1| e^{i phi3} + |Om2||Oo2| e^{-i phi2}).
    """
    return D1System(
        gamma=(0.0, gamma, 0.0),
        omega12=D1_CHAIN_SPLITTING,
        omega23=D1_CHAIN_SPLITTING,
        drives=(microwave2, optical2, optical1, microwave1),
        initial=initial,
    )


def d1_fields(sys: D1System) -> tuple:
    """(optical1, optical2, microwave1, microwave2), the loop's drives in
    scenario-file order: chain (O3, O2, O4, O1)."""
    o1, o2, o3, o4 = sys.drives
    return (o3, o2, o4, o1)


@dataclass(frozen=True)
class ScenarioPreset:
    name: str
    system: object
    expected_signature: dict


def analytic_admissible(sys: D2System) -> bool:
    """True when the drift matrix is constant, so that the closed-form path
    and DOP853's sample-step operator apply: resonant drives and no
    cross-damping (zero alignments).  The splittings then enter only the
    branch shifts, so they need not be equal."""
    return not any(sys.detunings) and not any(sys.alignments)


def _rate_errors(name, value):
    # written so that NaN fails too
    if not 0.0 < value < math.inf:
        return [NonPositiveRate(f"{name} = {value} must be finite and > 0")]
    return []


def validate_system(sys: D2System) -> list:
    """Check all system invariants, non-finite values included: a list of
    one error per violation, empty for a valid system.  A D1System is
    checked as its scenario file reads: its one rate Gamma and its fields
    in file order."""
    if isinstance(sys, D1System):
        errors = _rate_errors("Gamma", sys.gamma[1])
        drives = d1_fields(sys)
    else:
        errors = []
        for j, g in enumerate(sys.gamma, start=1):
            errors += _rate_errors(f"Gamma{j}", g)
        errors += _rate_errors("omega12", sys.omega12)
        errors += _rate_errors("omega23", sys.omega23)
        for i, d in enumerate(sys.detunings, start=1):
            if not math.isfinite(d):
                errors.append(NonFiniteValue(
                    f"detuning {i} = {d} must be finite"))
        for i, p in enumerate(sys.alignments, start=1):
            if not abs(p) <= 1.0:
                errors.append(AlignmentOutOfRange(
                    f"p{i} = {p} outside [-1, 1]"))
        drives = sys.drives
    for i, d in enumerate(drives, start=1):
        if not (math.isfinite(d.magnitude) and math.isfinite(d.phase)):
            errors.append(NonFiniteValue(
                f"field {i} = (mag {d.magnitude}, phase {d.phase}) "
                "must be finite"))
    try:
        norm = float(np.sum(np.abs(sys.initial_vector()) ** 2))
        if not abs(norm - 1.0) <= 1e-9:
            errors.append(UnnormalizedInitialState(
                f"initial state norm^2 = {norm}, expected 1"))
    except ValueError as exc:
        errors.append(UnnormalizedInitialState(str(exc)))
    return errors


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _d2(gamma, mags, phases, initial="B"):
    drives = tuple(DriveField(m, p) for m, p in zip(mags, phases))
    return D2System(gamma=gamma, omega12=13.0, omega23=13.0, drives=drives,
                    initial=initial)


def _fig2(phi2, phi3):
    # strong outer drives 2*Gamma, unit inner drives, equal decay rates
    return _d2((1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 2.0), (0.0, phi2, phi3, 0.0))


def _d1(mag_o1, mag_o2, mag_m, phi2, phi3):
    return d1_system(
        gamma=1.0,
        optical1=DriveField(mag_o1, phi3),
        optical2=DriveField(mag_o2, phi2),
        microwave1=DriveField(mag_m),
        microwave2=DriveField(mag_m),
    )


_PI = math.pi


def _build_presets():
    reg = {}

    def add(name, system, **signature):
        reg[name] = ScenarioPreset(name, system, signature)

    add("two-level",
        _d2((1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
            initial="A1"),
        peaks=1, fwhm=(1.0, 0.02), center=-13.0)
    add("autler-townes-doublet",
        _d2((1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 0.0)),
        peaks=2, splitting=(10.0, 0.02))
    add("at-quartet",
        _d2((1.0, 1.0, 1.0), (5.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 0.0)),
        peaks=4, symmetric=True)
    # `lines` counts dressed-state emission lines (four per emitting branch);
    # `peaks` counts visible local maxima, which is smaller here because the
    # caption-symmetric magnitudes make two residues per side branch vanish
    # and neighbouring lines overlap.
    add("fig2-trapping", _fig2(_PI, 0.0),
        peaks=4, lines=8, trapping=True, dark_branch=2)
    add("fig2-notrapping", _fig2(_PI / 2, 3 * _PI / 2),
        peaks=9, lines=12, trapping=False)
    add("d1-trapping", _d1(1.0, 1.0, 1.0, _PI, 0.0),
        d1_trapping=True, zero_spectrum=True, trapped=1.0)
    # the non-trapping loops emit a strongly narrowed symmetric doublet on
    # top of a broad pedestal; `narrow` bounds the sharpest feature's FWHM
    add("d1-fig3a", _d1(0.5, 0.5, 1.0, _PI / 2, 3 * _PI / 2),
        d1_trapping=False, peaks=3, narrow=0.2)
    add("d1-fig3b", _d1(0.5, 0.5, 1.0, 3 * _PI / 2, _PI / 2),
        d1_trapping=False, peaks=3, narrow=0.2)
    add("d1-fig3c", _d1(1.0, 1.0, 1.0, _PI, 0.0),
        d1_trapping=True, zero_spectrum=True, trapped=1.0)
    add("d1-fig3d", _d1(0.1, 1.0, 1.0, 3 * _PI / 2, _PI / 2),
        d1_trapping=False, peaks=4, narrow=0.2)
    add("d1-fig3e", _d1(0.1, 1.0, 1.0, _PI / 2, 3 * _PI / 2),
        d1_trapping=False, peaks=4, narrow=0.2)
    add("d1-fig3f", _d1(2.0, 2.0, 1.0, _PI, 0.0),
        d1_trapping=True, zero_spectrum=True, trapped=1.0)
    return reg


_PRESETS = _build_presets()


def preset_names():
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioPreset:
    """Return the registered preset; deterministic for a given name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


# ---------------------------------------------------------------------------
# JSON scenario schema
# ---------------------------------------------------------------------------

def scenario_to_dict(sys) -> dict:
    """Serialize a system to the scenario-file schema.  The initial state
    is written as a label, or as [re, im] pairs for a vector; a D1 file
    omits it when it is "B"."""
    initial = sys.initial
    if not isinstance(initial, str):
        initial = [[float(z.real), float(z.imag)]
                   for z in sys.initial_vector()]
    if isinstance(sys, D1System):
        data = {"system": "d1", "gamma": [sys.gamma[1]]}
        drives = d1_fields(sys)
    else:
        data = {"system": "d2", "gamma": list(sys.gamma),
                "omega12": sys.omega12, "omega23": sys.omega23,
                "detunings": list(sys.detunings), "p": list(sys.alignments)}
        drives = sys.drives
    data["fields"] = [{"mag": d.magnitude, "phase": d.phase} for d in drives]
    if data["system"] == "d2" or initial != "B":
        data["initial"] = initial
    return data


def _number(value, key) -> float:
    """float(value), or a ValueError naming the scenario key."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"scenario key {key!r} must be a number, "
                         f"got {value!r}") from None


def _numbers(values, key, count) -> tuple:
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"scenario key {key!r} must be a list of {count} "
                         "numbers")
    return tuple(_number(v, key) for v in values)


def _initial_state(initial):
    """A state label as is, or a list of [re, im] pairs as a list of
    complex amplitudes."""
    if isinstance(initial, str):
        return initial
    if isinstance(initial, list) and all(
            isinstance(z, list) and len(z) == 2 for z in initial):
        return [complex(_number(re, "initial"), _number(im, "initial"))
                for re, im in initial]
    raise ValueError("scenario key 'initial' must be a state label or a "
                     "list of [re, im] pairs")


def scenario_from_dict(data: dict):
    """Build a system from the scenario-file schema.

    D2 field order is (Omega1..Omega4); D1 field order is
    (optical1, optical2, microwave1, microwave2).  A missing or wrongly
    typed entry raises KeyError or ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    kind = data.get("system")
    if kind not in ("d2", "d1"):
        raise ValueError("scenario key 'system' must be 'd2' or 'd1'")
    fields = data.get("fields")
    if not isinstance(fields, list) or len(fields) != 4:
        raise ValueError("scenario key 'fields' must be a list of 4 objects")
    drives = []
    for f in fields:
        if not isinstance(f, dict) or "mag" not in f:
            raise ValueError("each field needs at least a 'mag' entry")
        drives.append(DriveField(_number(f["mag"], "mag"),
                                 _number(f.get("phase", 0.0), "phase")))
    initial = _initial_state(data.get("initial", "B"))
    if kind == "d1":
        (gamma,) = _numbers(data.get("gamma"), "gamma", 1)
        return d1_system(gamma, *drives, initial=initial)
    return D2System(
        gamma=_numbers(data.get("gamma"), "gamma", 3),
        omega12=_number(data["omega12"], "omega12"),
        omega23=_number(data["omega23"], "omega23"),
        drives=tuple(drives),
        detunings=_numbers(data.get("detunings", [0, 0, 0, 0]),
                           "detunings", 4),
        alignments=_numbers(data.get("p", [0, 0, 0]), "p", 3),
        initial=initial,
    )


def load_scenario(path):
    with open(Path(path), "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(sys, path):
    write_json(path, scenario_to_dict(sys))


def write_json(path, data: dict):
    """Write the dict data to path byte for byte as
    json.dump(data, fh, indent=2, sort_keys=True) and a newline would, one
    top-level entry at a time.

    A numpy array is written as json writes its .tolist().  The values of
    a float16, float32 or float64 array of one or more dimensions are
    formatted TEXT_BLOCK at a time by _text.format_repr: float.__repr__'s
    shortest digits, json's own float format, with NaN, Infinity and
    -Infinity for non-finite values.  Every other value is serialized
    before the file is opened, so a value json cannot write (or a complex
    array, whose TypeError names its key) leaves no file behind.
    """
    entries = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, np.ndarray) and value.dtype.kind == "c":
            raise TypeError(f"write_json cannot write the complex array "
                            f"{key!r}")
        if isinstance(value, np.ndarray) and value.dtype.kind == "f" \
                and value.dtype.itemsize <= 8 and value.ndim:
            value = value.astype(np.float64, copy=False)
        else:
            if isinstance(value, np.ndarray):
                value = value.tolist()
            value = json.dumps(value, indent=2, sort_keys=True) \
                .replace("\n", "\n  ").encode()
        entries.append((f"\n  {json.dumps(key)}: ".encode(), value))
    with open(Path(path), "wb") as fh:
        sep = b"{"
        for head, value in entries:
            fh.write(sep + head)
            if isinstance(value, bytes):
                fh.write(value)
            else:
                _write_json_floats(fh, value, "  ")
            sep = b","
        fh.write(b"\n}\n" if data else b"{}\n")


def _write_json_floats(fh, a: np.ndarray, indent: str):
    """Write the float64 array a as json.dumps(a.tolist(), indent=2) would,
    nested with the given indent."""
    if not len(a):
        fh.write(b"[]")
        return
    inner = indent + "  "
    fh.write(f"[\n{inner}".encode())
    if a.ndim == 1:
        sep = f",\n{inner}".encode()
        for start in range(0, len(a), TEXT_BLOCK):
            text = format_repr(a[start:start + TEXT_BLOCK], sep)
            fh.write(text[:-len(sep)] if start + TEXT_BLOCK >= len(a)
                     else text)
    else:
        for i, row in enumerate(a):
            if i:
                fh.write(f",\n{inner}".encode())
            _write_json_floats(fh, row, inner)
    fh.write(f"\n{indent}]".encode())
