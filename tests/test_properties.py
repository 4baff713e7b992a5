"""Property tests over random drives and rates near the two presets.

Rates keep gamma_coh >= gamma_pop and both ground rates at most
0.1 gamma_e; drives span the Zeeman splittings, phases and Rabi ranges
the sweeps use.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GROUND_MIX, circular_generator, linear_generator
from lambdaloop import (
    AtomParams,
    DriveConfig,
    steady_state_matrix,
    substitution_image,
)
from lambdaloop.core import validate_density_matrix
from lambdaloop.liouvillian import (
    HERMITIAN_BASIS,
    STEADY_RESIDUAL_TOL,
    hermitian_coordinates,
)
from lambdaloop.presets import preset_values

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def atom_and_drive(draw):
    base = preset_values(draw(st.sampled_from(["fig3-cold", "fig4-warm"])))
    scale = st.floats(0.5, 1.5)
    gamma_e_hz = base["gamma_e_hz"] * draw(scale)
    gamma_pop_hz = draw(st.floats(1.0, 100.0))
    gamma_coh_hz = gamma_pop_hz * draw(st.floats(1.0, 3.0))
    atom = AtomParams.from_hz(gamma_e_hz, gamma_pop_hz, gamma_coh_hz,
                              base["delta_exc_hz"], base["od"],
                              base["cell_length_m"])
    drive = DriveConfig.from_hz(
        draw(st.floats(-200.0, 200.0)),
        draw(st.floats(0.0, 2 * np.pi)),
        base["omega_c_hz"] * draw(scale),
        base["omega_p_hz"] * draw(scale),
    )
    return atom, drive


def linear_steady_state(atom, drive):
    return steady_state_matrix(
        hermitian_coordinates(linear_generator(atom, drive)))


@PROPERTY_SETTINGS
@given(atom_and_drive())
def test_steady_state_valid_with_small_residual(case):
    gen = circular_generator(*case)
    rho = steady_state_matrix(gen)
    validate_density_matrix(rho)
    x = HERMITIAN_BASIS @ rho.reshape(-1)
    residual = np.linalg.norm(gen @ x) / np.linalg.norm(gen)
    assert residual < STEADY_RESIDUAL_TOL


@PROPERTY_SETTINGS
@given(atom_and_drive())
def test_substitution_image_preserves_probe_coherence(case):
    atom, drive = case

    def coherence(d):
        rho = linear_steady_state(atom, d)
        return abs(rho[0, 2] + rho[1, 3])

    assert abs(coherence(drive) - coherence(substitution_image(drive))) < 1e-10


@PROPERTY_SETTINGS
@given(atom_and_drive())
def test_circular_state_rotates_into_linear_state(case):
    rho_circ = steady_state_matrix(circular_generator(*case))
    rho_lin = linear_steady_state(*case)
    assert np.max(np.abs(GROUND_MIX @ rho_circ @ GROUND_MIX - rho_lin)) < 1e-12
