"""Pinned outputs of the integrate-and-solve pattern.

Every case is compared to `data/equivalence.json` to 1e-12 relative to
the case's largest magnitude, so a refactor of the RK4 stepping, the
field readout or the sideband solves that moves a result past rounding
shows here.  The values were recorded before that code was shared.
Running this file computes and appends only the cases missing from the
data file; every pinned entry is kept as recorded.  Record with one BLAS
thread (a threaded BLAS moves the last bits):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_equivalence.py

To re-record a case for a change meant to move the physics, delete its
entry first.
"""
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lambdaloop import (
    WeakProbeWarning,
    bare_transition_transmission,
    hz_to_angular,
    input_fields,
    preset_atom,
    preset_drive,
    refractive_spectrum,
    sideband_transfer,
    steady_state_matrix,
    transmission,
    weak_probe_response,
)
from lambdaloop.liouvillian import circular_template

DATA = Path(__file__).parent / "data" / "equivalence.json"
RTOL = 1e-12

PRESETS = ("fig3-cold", "fig4-warm")


def _transmission(name):
    return transmission(preset_atom(name), preset_drive(name), 64)


def _transmission_record(name):
    # The sidecar path of CLI transmit: the residual record is threaded
    # through every stage solve.
    return transmission(preset_atom(name), preset_drive(name), 64, record={})


def _bare_transition(name, n_steps=64):
    return bare_transition_transmission(preset_atom(name), n_steps=n_steps)


def _sideband_transfer(name):
    return sideband_transfer(
        preset_atom(name), preset_drive(name), [-5.0, 0.0, 5.0], 32,
    )


def _sideband_transfer_warm_64():
    # Both signs of delta, resonance and a far wing at a finer z grid.
    return sideband_transfer(
        preset_atom("fig4-warm"), preset_drive("fig4-warm"),
        [-40.0, 0.0, 3.0, 150.0], 64,
    )


def _weak_probe_warm():
    # A non-zero detuning runs the second-harmonic truncation solves.
    drive = replace(preset_drive("fig4-warm"), delta_probe=hz_to_angular(3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        return weak_probe_response(preset_atom("fig4-warm"), drive)


def _refractive_spectrum(name):
    drive = replace(preset_drive(name), phi=0.35)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        return refractive_spectrum(
            preset_atom(name), drive, (-10.0, -5.0, 0.0, 5.0, 10.0)
        ).ys


def _refractive_spectrum_warm_field():
    # Non-zero field at the criterion 8 drive, over the criterion 6 span.
    drive = replace(preset_drive("fig4-warm"),
                    delta_b=hz_to_angular(-91.0), phi=0.35)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        return refractive_spectrum(
            preset_atom("fig4-warm"), drive, np.linspace(-30.0, 30.0, 13)
        ).ys


def _steady_state(name):
    # The carrier kernel alone, at the criterion 8 field and phase.
    atom = preset_atom(name)
    drive = replace(preset_drive(name), delta_b=hz_to_angular(-91.0),
                    phi=1.75 * np.pi)
    gen = circular_template(atom).generator(drive.delta_b,
                                            *input_fields(drive))
    return steady_state_matrix(gen)


CASES = {
    **{f"transmission_{name}_64": (lambda n=name: _transmission(n))
       for name in PRESETS},
    "sideband_transfer_warm_32": lambda: _sideband_transfer("fig4-warm"),
    **{f"bare_transition_{name}_64": (lambda n=name: _bare_transition(n))
       for name in PRESETS},
    "refractive_spectrum_warm_5": lambda: _refractive_spectrum("fig4-warm"),
    "sideband_transfer_cold_32": lambda: _sideband_transfer("fig3-cold"),
    "weak_probe_warm_3hz": _weak_probe_warm,
    "refractive_spectrum_cold_5": lambda: _refractive_spectrum("fig3-cold"),
    "sideband_transfer_warm_64": _sideband_transfer_warm_64,
    "refractive_spectrum_warm_field_13": _refractive_spectrum_warm_field,
    **{f"transmission_{name}_64_stats": (lambda n=name: _transmission_record(n))
       for name in PRESETS},
    **{f"bare_transition_{name}_512": (lambda n=name: _bare_transition(n, 512))
       for name in PRESETS},
    **{f"steady_state_{name}": (lambda n=name: _steady_state(n))
       for name in PRESETS},
}


def _flat(value) -> np.ndarray:
    return np.ravel(np.asarray(value, dtype=complex))


def _record() -> None:
    """Append the cases missing from DATA; keep the pinned ones."""
    pinned = json.loads(DATA.read_text()) if DATA.exists() else {}
    for name, case in CASES.items():
        if name not in pinned:
            pinned[name] = [[z.real, z.imag] for z in _flat(case())]
    lines = [f" {json.dumps(name)}: {json.dumps(values)}"
             for name, values in pinned.items()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_matches_pinned(name, pinned):
    expected = np.array([complex(re, im) for re, im in pinned[name]])
    got = _flat(CASES[name]())
    assert got.shape == expected.shape
    worst = np.max(np.abs(got - expected))
    assert worst <= RTOL * np.max(np.abs(expected)), (
        f"{name}: max deviation {worst:.3e} against scale "
        f"{np.max(np.abs(expected)):.3e}"
    )


def test_pins_and_cases_agree(pinned):
    # A deleted case takes its pin with it; no pin sits unchecked.
    assert pinned.keys() == CASES.keys()


def test_record_appends_only_missing_cases(tmp_path, monkeypatch):
    kept, added = "bare_transition_fig3-cold_64", "bare_transition_fig4-warm_64"
    data = tmp_path / "equivalence.json"
    data.write_text(json.dumps({kept: [[0.5, -0.25]]}))
    monkeypatch.setitem(globals(), "DATA", data)
    monkeypatch.setitem(globals(), "CASES",
                        {name: CASES[name] for name in (kept, added)})
    _record()
    recorded = json.loads(data.read_text())
    assert list(recorded) == [kept, added]
    assert recorded[kept] == [[0.5, -0.25]]
    assert recorded[added] == [[z.real, z.imag]
                               for z in _flat(CASES[added]())]


if __name__ == "__main__":
    _record()
