"""Simulator for a four-level double-lambda atomic medium.

Two phase-coherent optical fields and a static magnetic field drive the
medium; the package computes steady-state response, field propagation
through the optically thick cell, probe transmission against relative
phase and magnetic field, weak-probe dispersion spectra, and slow/fast
light classification.
"""

from .core import (
    AtomParams,
    Curve,
    DriveConfig,
    SimulationError,
    hz_to_angular,
    input_fields,
    to_circular,
    to_linear,
)
from .liouvillian import (
    SteadyStateError,
    density_matrix,
    evolve_expm,
    nullspace_dimension,
    steady_state_matrix,
    substitution_image,
)
from .propagation import (
    PropagationError,
    bare_transition_transmission,
    calibrate_kappa,
    probe_power,
    propagate,
    transmission,
)
from .spectroscopy import (
    PulseSpec,
    WeakProbeWarning,
    chi_probe_timedomain,
    group_velocity_class,
    modulation_depth,
    phase_grid,
    pulse_response,
    refractive_spectrum,
    sideband_transfer,
    sweep_bfield,
    sweep_phase,
    weak_probe_response,
)
from .presets import preset_atom, preset_drive

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "Curve",
    "DriveConfig",
    "PropagationError",
    "PulseSpec",
    "SimulationError",
    "SteadyStateError",
    "WeakProbeWarning",
    "bare_transition_transmission",
    "calibrate_kappa",
    "chi_probe_timedomain",
    "density_matrix",
    "evolve_expm",
    "group_velocity_class",
    "hz_to_angular",
    "input_fields",
    "modulation_depth",
    "nullspace_dimension",
    "phase_grid",
    "preset_atom",
    "preset_drive",
    "probe_power",
    "propagate",
    "pulse_response",
    "refractive_spectrum",
    "sideband_transfer",
    "steady_state_matrix",
    "substitution_image",
    "sweep_bfield",
    "sweep_phase",
    "to_circular",
    "to_linear",
    "transmission",
    "weak_probe_response",
]
