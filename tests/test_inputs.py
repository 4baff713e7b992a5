"""Every number a caller passes is checked once, by name.

One row per public call and argument that takes a number from its
caller.  NaN, inf and an integer too large for a float must each raise
ValueError whose message begins with the argument's name (a grid is
named by its label: "sweep grid", "abscissa").  All of them go through
core._require_finite_value.

propagate's fields_in is no row: NaN input fields reach the first stage
generator and fail there as the PropagationError naming z = 0 that
tests/test_propagation.py::TestFailurePaths pins.
"""
from dataclasses import asdict

import numpy as np
import pytest

from lambdaloop import (
    AtomParams,
    Curve,
    DriveConfig,
    PulseSpec,
    bare_transition_transmission,
    chi_probe_timedomain,
    evolve_expm,
    group_velocity_class,
    input_fields,
    phase_grid,
    preset_atom,
    preset_drive,
    propagate,
    pulse_response,
    refractive_spectrum,
    sideband_transfer,
    sweep_bfield,
    sweep_phase,
    transmission,
)

ATOM = preset_atom("fig3-cold")
DRIVE = preset_drive("fig3-cold")
PULSE = dict(fwhm=1e-3, peak_omega_p=1.0)
SPECTRUM = Curve("delta_hz", np.linspace(-10.0, 10.0, 9),
                 np.linspace(0.0, 1.0, 9))


def _row(row_id, name, call):
    return pytest.param(name, call, id=row_id)


def _field_rows(cls, base, names):
    return [_row(f"{cls.__name__}.{name}", name,
                 lambda bad, name=name: cls(**{**base, name: bad}))
            for name in names]


ROWS = [
    *_field_rows(AtomParams, asdict(ATOM), asdict(ATOM)),
    *_field_rows(DriveConfig, asdict(DRIVE), asdict(DRIVE)),
    *_field_rows(PulseSpec, PULSE, ("fwhm", "peak_omega_p",
                                    "carrier_detuning", "time_window",
                                    "n_samples")),
    _row("transmission.n_steps", "n_steps",
         lambda bad: transmission(ATOM, DRIVE, bad)),
    _row("propagate.n_steps", "n_steps",
         lambda bad: propagate(input_fields(DRIVE), ATOM, DRIVE, bad)),
    _row("sweep_phase.n_steps", "n_steps",
         lambda bad: sweep_phase(ATOM, DRIVE, (0.0,), bad)),
    _row("sweep_bfield.n_steps", "n_steps",
         lambda bad: sweep_bfield(ATOM, DRIVE, (0.0,), bad)),
    _row("sideband_transfer.n_steps", "n_steps",
         lambda bad: sideband_transfer(ATOM, DRIVE, [5.0], bad)),
    _row("pulse_response.n_steps", "n_steps",
         lambda bad: pulse_response(ATOM, DRIVE, PulseSpec(**PULSE), bad)),
    _row("bare_transition_transmission.n_steps", "n_steps",
         lambda bad: bare_transition_transmission(ATOM, bad)),
    _row("chi_probe_timedomain.periods", "periods",
         lambda bad: chi_probe_timedomain(ATOM, DRIVE, 5.0, periods=bad)),
    _row("chi_probe_timedomain.steps_per_period", "steps_per_period",
         lambda bad: chi_probe_timedomain(ATOM, DRIVE, 5.0,
                                          steps_per_period=bad)),
    _row("chi_probe_timedomain.delta_hz", "delta_hz",
         lambda bad: chi_probe_timedomain(ATOM, DRIVE, bad)),
    _row("chi_probe_timedomain.sideband_fraction", "sideband_fraction",
         lambda bad: chi_probe_timedomain(ATOM, DRIVE, 5.0,
                                          sideband_fraction=bad)),
    _row("evolve_expm.t_final", "t_final",
         lambda bad: evolve_expm(np.eye(4) / 4, np.zeros((16, 16)), bad)),
    _row("sideband_transfer.deltas_hz", "deltas_hz",
         lambda bad: sideband_transfer(ATOM, DRIVE, [5.0, bad], 16)),
    _row("refractive_spectrum.deltas_hz", "sweep grid",
         lambda bad: refractive_spectrum(ATOM, DRIVE, [0.0, bad])),
    _row("sweep_phase.phases", "sweep grid",
         lambda bad: sweep_phase(ATOM, DRIVE, [0.0, bad], 16)),
    _row("sweep_bfield.fields_hz", "sweep grid",
         lambda bad: sweep_bfield(ATOM, DRIVE, [0.0, bad], 16)),
    _row("Curve.xs", "abscissa",
         lambda bad: Curve("x", [0, bad], [1.0, 2.0])),
    _row("group_velocity_class.window_hz", "window_hz",
         lambda bad: group_velocity_class(SPECTRUM, bad)),
    _row("phase_grid.n_points", "n_points", lambda bad: phase_grid(bad)),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, 10**400],
                         ids=["nan", "inf", "huge-int"])
@pytest.mark.parametrize("name, call", ROWS)
def test_bad_number_raises_value_error_naming_it(name, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(name), str(info.value)
