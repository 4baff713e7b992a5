import numpy as np
import pytest

from lambdaloop import (
    AtomParams,
    DriveConfig,
    input_fields,
    preset_atom,
    preset_drive,
)
from lambdaloop.liouvillian import circular_template


def circular_generator(params, drive, fields=None):
    """16x16 circular-basis generator at a drive's input fields, or at the
    given (Omega_1, Omega_2) pair."""
    if fields is None:
        fields = input_fields(drive)
    return circular_template(params).generator(drive.delta_b, *fields)


@pytest.fixture(scope="session")
def cold_atom():
    return preset_atom("fig3-cold")


@pytest.fixture(scope="session")
def warm_atom():
    return preset_atom("fig4-warm")


@pytest.fixture(scope="session")
def cold_drive():
    return preset_drive("fig3-cold")


@pytest.fixture(scope="session")
def warm_drive():
    return preset_drive("fig4-warm")


@pytest.fixture(scope="session")
def soft_atom():
    # Rates compressed into a narrow span so explicit integration is cheap.
    return AtomParams.from_hz(2e3, 40.0, 60.0, 1.5e3, 0.1, 0.075)


@pytest.fixture(scope="session")
def soft_drive():
    return DriveConfig.from_hz(30.0, 1.1, 300.0, 80.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
