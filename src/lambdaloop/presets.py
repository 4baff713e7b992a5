"""Named parameter presets for the two simulated regimes.

Boundary units: ordinary frequency in Hz, lengths in meters.  The cold
preset describes a narrow-line medium where the upper excited state is
spectrally remote; the warm preset models a Doppler-broadened vapor by an
enlarged effective excited-state width, with no velocity integration.
"""
from __future__ import annotations

from .core import AtomParams, DriveConfig, hz_to_angular

# Dataclass field -> the config key that sets it.  A key ending in _hz is
# an ordinary frequency, converted to rad/s on the way in.  No key sets
# DriveConfig.delta_probe: only the library's weak_probe_response reads it.
ATOM_KEYS = {
    "gamma_e": "gamma_e_hz", "gamma_pop": "gamma_pop_hz",
    "gamma_coh": "gamma_coh_hz", "delta_exc": "delta_exc_hz",
    "optical_depth": "od", "cell_length": "cell_length_m",
}
DRIVE_KEYS = {
    "delta_b": "delta_b_hz", "phi": "phi_rad", "omega_c": "omega_c_hz",
    "omega_p": "omega_p_hz",
}

PRESETS: dict[str, dict[str, float]] = {
    "fig3-cold": {
        "gamma_e_hz": 6e6,
        "gamma_pop_hz": 10.0,
        "gamma_coh_hz": 10.0,
        "delta_exc_hz": 800e6,
        "od": 0.15,
        "cell_length_m": 0.075,
        "omega_c_hz": 20e3,
        "omega_p_hz": 5e3,
        "delta_b_hz": 0.0,
        "phi_rad": 0.0,
    },
    "fig4-warm": {
        "gamma_e_hz": 500e6,
        "gamma_pop_hz": 25.0,
        "gamma_coh_hz": 28.0,
        "delta_exc_hz": 800e6,
        "od": 15.0,
        "cell_length_m": 0.075,
        "omega_c_hz": 240e3,
        "omega_p_hz": 60e3,
        "delta_b_hz": 0.0,
        "phi_rad": 0.0,
    },
}


def from_keys(cls, keys: dict[str, str], values: dict):
    """Build cls from config values through its field -> key table.

    A key absent from values leaves its field at the dataclass default.
    """
    return cls(**{
        name: hz_to_angular(values[key]) if key.endswith("_hz")
        else values[key]
        for name, key in keys.items() if key in values
    })


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


def preset_values(name: str) -> dict[str, float]:
    try:
        return dict(PRESETS[name])
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def preset_atom(name: str) -> AtomParams:
    return from_keys(AtomParams, ATOM_KEYS, preset_values(name))


def preset_drive(name: str) -> DriveConfig:
    return from_keys(DriveConfig, DRIVE_KEYS, preset_values(name))
