import os
from pathlib import Path

import numpy as np
import pytest

from darkstate import D2System, DriveField

#: child processes import darkstate from this checkout, as pytest does
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))}


def random_admissible_system(rng, omega=13.0, initial="B"):
    """Random resonant, cross-damping-free system with moderate drives."""
    gamma = tuple(rng.uniform(0.3, 2.0, 3))
    mags = rng.uniform(0.0, 2.5, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    drives = tuple(DriveField(m, p) for m, p in zip(mags, phases))
    return D2System(gamma=gamma, omega12=omega, omega23=omega, drives=drives,
                    initial=initial)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
