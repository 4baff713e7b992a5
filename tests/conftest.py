import numpy as np
import pytest

from lambdaloop import (
    AtomParams,
    DriveConfig,
    input_fields,
    preset_atom,
    preset_drive,
)
from lambdaloop.liouvillian import (
    UPPER_PROJECTOR,
    circular_template,
    commutator_superop,
    dissipator_superop,
    jump_operators,
)

# Unitary mixing the ground pair into/out of the linear basis
# |X> = (|3>+|4>)/sqrt(2), |Y> = (|3>-|4>)/sqrt(2).  The 2x2 ground block
# is a Hadamard, so the matrix is real, symmetric and its own inverse.
GROUND_MIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
        [0.0, 0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)],
    ]
)


def _op(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = 1.0
    return m


# Linear-basis operators, indices 2 and 3 being |X> and |Y>.
COUPLING_CONTROL = _op(1, 2) + _op(0, 3)         # |2><X| + |1><Y|
COUPLING_PROBE = _op(1, 3) + _op(0, 2)           # |2><Y| + |1><X|
ZEEMAN_LINEAR = 0.5 * (_op(2, 3) + _op(3, 2))


def linear_generator(atom, drive):
    """16x16 generator written in the linear ground basis.

    Built from its own operators (control and probe couplings, the
    linear Zeeman term and the decay rotated by GROUND_MIX) rather than
    from circular_template, so it is an independent oracle for the
    circular model: the two must agree under kron(GROUND_MIX, GROUND_MIX).
    """
    jumps = [GROUND_MIX @ L @ GROUND_MIX for L in jump_operators(atom)]
    coupling = (drive.omega_c * COUPLING_CONTROL
                + drive.probe_amplitude * COUPLING_PROBE)
    hamiltonian = (drive.delta_b * ZEEMAN_LINEAR + coupling
                   + coupling.conj().T)
    return (atom.delta_exc * commutator_superop(UPPER_PROJECTOR)
            + dissipator_superop(jumps)
            + commutator_superop(hamiltonian))


def circular_generator(params, drive, fields=None):
    """16x16 circular-basis generator at a drive's input fields, or at the
    given (Omega_1, Omega_2) pair."""
    if fields is None:
        fields = input_fields(drive)
    return circular_template(params).generator(drive.delta_b, *fields)


def relative_variation(ys):
    """(max - min) / mean of the real parts: criterion 1's phase-modulation
    depth of a transmission sweep."""
    ys = np.real(ys)
    return (ys.max() - ys.min()) / ys.mean()


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
    # Rates compressed into a narrow span for the time-domain checks.
    return AtomParams.from_hz(2e3, 40.0, 60.0, 1.5e3, 0.1, 0.075)


@pytest.fixture(scope="session")
def soft_drive():
    return DriveConfig.from_hz(30.0, 1.1, 300.0, 80.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
