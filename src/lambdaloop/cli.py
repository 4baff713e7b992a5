"""Configuration parsing, run orchestration and CSV/JSON emission.

Config files are flat key = value text with '#' comments.  All boundary
frequencies are ordinary Hz; phases are radians.  A preset fills in atom
and drive keys; explicit keys override it.  Every run writes a CSV (17
significant digits, LF line endings, unit-suffixed column names) plus a
JSON sidecar holding the fully resolved configuration and solver
diagnostics.  Identical configurations produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CIRCULAR_LABELS,
    AtomParams,
    DriveConfig,
    hz_to_angular,
    input_fields,
)
from .presets import PRESETS, preset_names
from .propagation import transmission
from .liouvillian import circular_template, steady_state_matrix
from .spectroscopy import (
    PulseSpec,
    modulation_depth,
    pulse_response,
    refractive_spectrum,
    sweep_bfield,
    sweep_phase,
)

SWEEP_MODES = ("sweep-phase", "sweep-b", "spectrum")
#: Modes that march in z, whose sidecars record the grid's n_steps.
Z_MARCH_MODES = ("transmit", "sweep-phase", "sweep-b", "pulse")

ATOM_KEYS = ("gamma_e_hz", "gamma_pop_hz", "gamma_coh_hz", "delta_exc_hz",
             "od", "cell_length_m")
DRIVE_KEYS = ("delta_b_hz", "phi_rad", "omega_c_hz", "omega_p_hz",
              "delta_probe_hz")
SWEEP_KEYS = ("sweep_start", "sweep_stop", "points")

FLOAT_KEYS = set(ATOM_KEYS) | set(DRIVE_KEYS) | {
    "sweep_start", "sweep_stop", "fwhm_s", "peak_omega_p_hz",
    "carrier_detuning_hz", "time_window_s",
}
INT_KEYS = {"points", "steps", "n_samples"}

# AtomParams / DriveConfig / PulseSpec field -> the config key that sets
# it, so that a rejected value is reported at its own line.
FIELD_KEYS = {
    "gamma_e": "gamma_e_hz", "gamma_pop": "gamma_pop_hz",
    "gamma_coh": "gamma_coh_hz", "delta_exc": "delta_exc_hz",
    "optical_depth": "od", "cell_length": "cell_length_m",
    "delta_b": "delta_b_hz", "phi": "phi_rad", "omega_c": "omega_c_hz",
    "omega_p": "omega_p_hz", "delta_probe": "delta_probe_hz",
    "fwhm": "fwhm_s", "time_window": "time_window_s",
    "n_samples": "n_samples", "peak_omega_p": "peak_omega_p_hz",
    "carrier_detuning": "carrier_detuning_hz",
}
STRING_KEYS = {"mode", "preset", "out"}
ALL_KEYS = FLOAT_KEYS | INT_KEYS | STRING_KEYS

# Keys that may be omitted because a default exists.
DEFAULTS = {
    "delta_probe_hz": 0.0,
    "carrier_detuning_hz": 0.0,
    "steps": 256,
    "out": "run",
    "n_samples": 1024,
}


class ConfigError(ValueError):
    """Invalid configuration; message carries the line number if known."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run request (boundary units: Hz, radians, meters)."""

    mode: str
    atom: AtomParams
    drive: DriveConfig
    out: str = "run"
    n_steps: int = 256
    preset: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    points: int | None = None
    pulse: PulseSpec | None = None
    raw: dict = field(default_factory=dict, compare=False)


def _parse_lines(text: str) -> dict:
    """key = value lines -> {key: (value string, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ALL_KEYS:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {number}: empty value for {key!r}")
        if key in entries:
            raise ConfigError(
                f"line {number}: {key!r} is already set on line "
                f"{entries[key][1]}"
            )
        entries[key] = (value, number)
    return entries


def _convert(key: str, value: str, line: int | None):
    where = f"line {line}: " if line is not None else ""
    if key in FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{where}{key} must be a number, got {value!r}") from None
    if key in INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{where}{key} must be an integer, got {value!r}") from None
    return value


def _resolve(entries: dict) -> RunConfig:
    """Typed, preset-expanded, validated RunConfig from raw entries."""
    values: dict = {}
    lines: dict = {}
    for key, (text_value, line) in entries.items():
        values[key] = _convert(key, text_value, line)
        lines[key] = line

    preset = values.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"line {lines.get('preset', 0)}: unknown preset {preset!r}; "
                f"available: {', '.join(preset_names())}"
            )
        merged = dict(PRESETS[preset])
        merged.update({k: v for k, v in values.items() if k != "preset"})
        values = merged
        values["preset"] = preset

    mode = values.get("mode")
    required = {"mode"} | set(ATOM_KEYS) | set(DRIVE_KEYS)
    if mode in SWEEP_MODES:
        required |= set(SWEEP_KEYS)
    if mode == "pulse":
        required |= {"fwhm_s", "peak_omega_p_hz"}
    required -= set(DEFAULTS)
    missing = sorted(k for k in required if k not in values)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if mode not in MODES:
        raise ConfigError(
            f"line {lines.get('mode', 0)}: mode must be one of "
            f"{', '.join(MODES)}, got {mode!r}"
        )

    for key, default in DEFAULTS.items():
        values.setdefault(key, default)

    def err(key, message):
        line = lines.get(key)
        where = f"line {line}: " if line is not None else ""
        raise ConfigError(f"{where}{message}")

    def err_fields(exc, what):
        """Report at the line of the first field the message names that
        the config sets explicitly."""
        named = [FIELD_KEYS[w] for w in re.findall(r"\w+", str(exc))
                 if w in FIELD_KEYS]
        key = next((k for k in named if lines.get(k) is not None), None)
        err(key, f"invalid {what} parameters: {exc}")

    try:
        atom = AtomParams.from_hz(
            gamma_e_hz=values["gamma_e_hz"],
            gamma_pop_hz=values["gamma_pop_hz"],
            gamma_coh_hz=values["gamma_coh_hz"],
            delta_exc_hz=values["delta_exc_hz"],
            optical_depth=values["od"],
            cell_length=values["cell_length_m"],
        )
    except ValueError as exc:
        err_fields(exc, "atom")
    try:
        drive = DriveConfig.from_hz(
            delta_b_hz=values["delta_b_hz"],
            phi_rad=values["phi_rad"],
            omega_c_hz=values["omega_c_hz"],
            omega_p_hz=values["omega_p_hz"],
            delta_probe_hz=values["delta_probe_hz"],
        )
    except ValueError as exc:
        err_fields(exc, "drive")

    if mode in Z_MARCH_MODES and values["steps"] < 16:
        err("steps", f"steps must be >= 16, got {values['steps']}")
    if mode in SWEEP_MODES:
        if values["points"] < 2:
            err("points", f"sweep modes need points >= 2, got {values['points']}")
        if not values["sweep_stop"] > values["sweep_start"]:
            err("sweep_stop", "sweep_stop must exceed sweep_start")
    pulse = None
    if mode == "pulse":
        try:
            pulse = PulseSpec(
                fwhm=values["fwhm_s"],
                peak_omega_p=hz_to_angular(values["peak_omega_p_hz"]),
                carrier_detuning=hz_to_angular(values["carrier_detuning_hz"]),
                time_window=values.get("time_window_s"),
                n_samples=values["n_samples"],
            )
        except ValueError as exc:
            err_fields(exc, "pulse")

    return RunConfig(
        mode=mode,
        atom=atom,
        drive=drive,
        out=values["out"],
        n_steps=values["steps"],
        preset=values.get("preset"),
        sweep_start=values.get("sweep_start"),
        sweep_stop=values.get("sweep_stop"),
        points=values.get("points"),
        pulse=pulse,
        raw=dict(values),
    )


def parse_config(text: str) -> RunConfig:
    """Parse a key = value document into a validated RunConfig."""
    return _resolve(_parse_lines(text))


def emit_config(config: RunConfig) -> str:
    """Render a RunConfig as a parseable key = value document."""
    out = []
    for key in sorted(config.raw):
        value = config.raw[key]
        if isinstance(value, float):
            out.append(f"{key} = {value:.17g}")
        else:
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def _write_sidecar(path: str, config: RunConfig, diagnostics: dict) -> None:
    payload = {
        "config": {
            k: v for k, v in sorted(config.raw.items())
        },
        "diagnostics": diagnostics,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_grid(config: RunConfig, endpoint: bool) -> np.ndarray:
    return np.linspace(
        config.sweep_start, config.sweep_stop, config.points,
        endpoint=endpoint,
    )


# Each mode computes its result, adds to the diagnostics and returns the
# CSV header and rows.

def _steady(config: RunConfig, diagnostics: dict):
    rho = steady_state_matrix(circular_template(config.atom).generator(
        config.drive.delta_b, *input_fields(config.drive)
    ))
    rows = [[bra, ket, float(rho[i, j].real), float(rho[i, j].imag)]
            for i, bra in enumerate(CIRCULAR_LABELS)
            for j, ket in enumerate(CIRCULAR_LABELS)]
    return ["row_level", "col_level", "re", "im"], rows


def _transmit(config: RunConfig, diagnostics: dict):
    value = transmission(config.atom, config.drive, config.n_steps,
                         stats=diagnostics)
    return ["transmission_ratio"], [[float(value)]]


def _transmission_sweep(sweep, endpoint: bool):
    """Mode computing transmission over a phase or B-field grid."""

    def compute(config: RunConfig, diagnostics: dict):
        curve = sweep(config.atom, config.drive,
                      _sweep_grid(config, endpoint), config.n_steps)
        diagnostics["modulation_depth"] = modulation_depth(curve)
        return ([curve.abscissa_name, "transmission_ratio"],
                zip(curve.xs.tolist(), curve.ys.tolist()))

    return compute


def _spectrum(config: RunConfig, diagnostics: dict):
    curve = refractive_spectrum(config.atom, config.drive,
                                _sweep_grid(config, endpoint=True))
    return ([curve.abscissa_name, "re_chi_au", "im_chi_au"],
            zip(curve.xs.tolist(), curve.ys.real.tolist(),
                curve.ys.imag.tolist()))


def _pulse(config: RunConfig, diagnostics: dict):
    curve, fractional_delay = pulse_response(
        config.atom, config.drive, config.pulse, config.n_steps
    )
    diagnostics["fractional_delay"] = fractional_delay
    out = curve.ys
    return ([curve.abscissa_name, "envelope_in_au", "envelope_out_re_au",
             "envelope_out_im_au", "envelope_out_abs_au"],
            zip(curve.xs.tolist(), config.pulse.envelope.tolist(),
                out.real.tolist(), out.imag.tolist(), np.abs(out).tolist()))


RUNNERS = {
    "steady": _steady,
    "transmit": _transmit,
    "sweep-phase": _transmission_sweep(sweep_phase, endpoint=False),
    "sweep-b": _transmission_sweep(sweep_bfield, endpoint=True),
    "spectrum": _spectrum,
    "pulse": _pulse,
}
MODES = tuple(RUNNERS)


def run(config: RunConfig) -> int:
    """Execute a run and write <out>.csv plus <out>.json."""
    diagnostics: dict = {"mode": config.mode}
    if config.mode in Z_MARCH_MODES:
        diagnostics["n_steps"] = config.n_steps
    header, rows = RUNNERS[config.mode](config, diagnostics)
    _write_csv(f"{config.out}.csv", header, rows)
    _write_sidecar(f"{config.out}.json", config, diagnostics)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdaloop",
        description="Four-level closed-loop atomic medium simulator",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} run")
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--preset", choices=preset_names())
        p.add_argument("--out", help="output basename (default: run)")
        p.add_argument("--steps", type=int, help="z-grid steps (default 256)")
        p.add_argument("--points", type=int, help="sweep grid points")
        for key in sorted(FLOAT_KEYS):
            p.add_argument(f"--{key.replace('_', '-')}", type=float,
                           dest=key)
        p.add_argument("--n-samples", type=int, dest="n_samples")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    entries: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                entries = _parse_lines(fh.read())
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    overrides = {"mode": args.mode}
    for key in ALL_KEYS - {"mode"}:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    for key, value in overrides.items():
        entries[key] = (str(value), None)
    try:
        config = _resolve(entries)
        return run(config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures -> nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
