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
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    CIRCULAR_LABELS,
    TWO_PI,
    AtomParams,
    DriveConfig,
    _require_finite_value,
    _require_int,
    check_grid,
    input_fields,
)
from .presets import ATOM_KEYS, DRIVE_KEYS, from_keys, preset_values
from .propagation import MIN_STEPS, probe_input, transmission
from .liouvillian import circular_template, density_matrix, steady_state_matrix
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

PULSE_KEYS = {
    "fwhm": "fwhm_s", "peak_omega_p": "peak_omega_p_hz",
    "carrier_detuning": "carrier_detuning_hz",
    "time_window": "time_window_s", "n_samples": "n_samples",
}
SWEEP_KEYS = ("sweep_start", "sweep_stop", "points")

# AtomParams / DriveConfig / PulseSpec field -> the config key that sets
# it, so that a rejected value is reported at its own line.
FIELD_KEYS = {**ATOM_KEYS, **DRIVE_KEYS, **PULSE_KEYS}
INT_KEYS = {"points", "steps", "n_samples"}
FLOAT_KEYS = (set(FIELD_KEYS.values()) | set(SWEEP_KEYS)) - INT_KEYS
STRING_KEYS = {"mode", "preset", "out"}
ALL_KEYS = FLOAT_KEYS | INT_KEYS | STRING_KEYS
# The flag of each config key but mode, which names the subcommand.
_KEY_FLAGS = ["--" + k.replace("_", "-") for k in sorted(ALL_KEYS - {"mode"})]


class ConfigError(ValueError):
    """Invalid configuration; message carries the line number if known."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run request (boundary units: Hz, radians, meters)."""

    mode: str
    atom: AtomParams
    drive: DriveConfig
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
    kind = float if key in FLOAT_KEYS else int if key in INT_KEYS else str
    where = f"line {line}: " if line is not None else ""
    try:
        converted = kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}{key} must be {noun}, got {value!r}") from None
    if kind is int:
        try:
            _require_int(key, converted)
        except ValueError as exc:
            raise ConfigError(f"{where}{exc}") from None
    return converted


def _resolve(entries: dict) -> RunConfig:
    """Typed, preset-expanded, validated RunConfig from raw entries."""
    values = {key: _convert(key, text, line)
              for key, (text, line) in entries.items()}
    lines = {key: line for key, (_, line) in entries.items()}

    def err(key, message):
        line = lines.get(key)
        where = f"line {line}: " if line is not None else ""
        raise ConfigError(f"{where}{message}")

    preset = values.get("preset")
    if preset is not None:
        try:
            values = {**preset_values(preset), **values}
        except KeyError as exc:
            err("preset", exc.args[0])

    mode = values.get("mode")
    required = {"mode"} | set(ATOM_KEYS.values()) | set(DRIVE_KEYS.values())
    if mode in SWEEP_MODES:
        required |= set(SWEEP_KEYS)
    if mode == "pulse":
        required |= {"fwhm_s", "peak_omega_p_hz"}
    missing = sorted(k for k in required if k not in values)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if mode not in MODES:
        err("mode", f"mode must be one of {', '.join(MODES)}, got {mode!r}")

    # Defaults, each only where a mode reads its key; the pulse keys
    # default to the values the built PulseSpec takes, below.
    values.setdefault("out", "run")
    if mode in Z_MARCH_MODES:
        values.setdefault("steps", 256)

    def build(cls, keys, what):
        """cls from the values; a rejection is reported at the line of the
        first field its message names that the config sets explicitly."""
        try:
            return from_keys(cls, keys, values)
        except ValueError as exc:
            named = [FIELD_KEYS[w] for w in re.findall(r"\w+", str(exc))
                     if w in FIELD_KEYS]
            key = next((k for k in named if lines.get(k) is not None), None)
            err(key, f"invalid {what} parameters: {exc}")

    atom = build(AtomParams, ATOM_KEYS, "atom")
    drive = build(DriveConfig, DRIVE_KEYS, "drive")

    if mode in Z_MARCH_MODES and values["steps"] < MIN_STEPS:
        err("steps", f"steps must be >= {MIN_STEPS}, got {values['steps']}")
    if mode in SWEEP_MODES:
        for key in ("sweep_start", "sweep_stop"):
            try:
                _require_finite_value(key, values[key])
            except ValueError as exc:
                err(key, str(exc))
        if values["points"] < 2:
            err("points", f"sweep modes need points >= 2, got {values['points']}")
        if not values["sweep_stop"] > values["sweep_start"]:
            err("sweep_stop", "sweep_stop must exceed sweep_start")
        # A grid the three keys make together is reported at the first
        # line that sets one of them.
        try:
            grid = check_grid(_sweep_grid(values), "sweep grid")
        except ValueError as exc:
            err(min(SWEEP_KEYS, key=lambda k: lines.get(k) or math.inf),
                str(exc))
    if mode in ("transmit", "sweep-phase", "sweep-b"):
        # The probe is read back at every phase the run drives it at.
        phases = grid.tolist() if mode == "sweep-phase" else [drive.phi]
        try:
            for phi in phases:
                probe_input(replace(drive, phi=phi))
        except ValueError as exc:
            err("omega_p_hz", str(exc))
    pulse = None
    if mode == "pulse":
        pulse = build(PulseSpec, PULSE_KEYS, "pulse")
        # The keys left out, at the values the built pulse took for them.
        for name, key in PULSE_KEYS.items():
            value = getattr(pulse, name)
            values.setdefault(key, value / TWO_PI if key.endswith("_hz")
                              else value)
    return RunConfig(mode, atom, drive, pulse, raw=dict(values))


def parse_config(text: str) -> RunConfig:
    """Parse a key = value document into a validated RunConfig."""
    return _resolve(_parse_lines(text))


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
    payload = {"config": config.raw, "diagnostics": diagnostics}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_grid(values: dict) -> np.ndarray:
    """The grid a sweep mode runs over, sweep_stop excluded for the phase
    period of sweep-phase.  A span or step that overflows gives
    non-finite values, which check_grid rejects, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(values["sweep_start"], values["sweep_stop"],
                           values["points"],
                           endpoint=values["mode"] != "sweep-phase")


# Each mode computes its result, adds to the diagnostics and returns the
# CSV header and rows.

def _steady(config: RunConfig, diagnostics: dict):
    gen = circular_template(config.atom).generator(
        config.drive.delta_b, *input_fields(config.drive))
    rho = density_matrix(steady_state_matrix(gen))
    rows = [[bra, ket, float(rho[i, j].real), float(rho[i, j].imag)]
            for i, bra in enumerate(CIRCULAR_LABELS)
            for j, ket in enumerate(CIRCULAR_LABELS)]
    return ["row_level", "col_level", "re", "im"], rows


def _transmit(config: RunConfig, diagnostics: dict):
    # The stage solves keep a running max; a free-space cell adds none.
    diagnostics["max_steady_residual"] = 0.0
    value = transmission(config.atom, config.drive, config.raw["steps"],
                         record=diagnostics)
    return ["transmission_ratio"], [[float(value)]]


def _transmission_sweep(sweep):
    """Mode computing transmission over a phase or B-field grid."""

    def compute(config: RunConfig, diagnostics: dict):
        curve = sweep(config.atom, config.drive, _sweep_grid(config.raw),
                      config.raw["steps"])
        diagnostics["modulation_depth"] = modulation_depth(curve)
        return ([curve.abscissa_name, "transmission_ratio"],
                zip(curve.xs.tolist(), curve.ys.tolist()))

    return compute


def _spectrum(config: RunConfig, diagnostics: dict):
    curve = refractive_spectrum(config.atom, config.drive,
                                _sweep_grid(config.raw))
    return ([curve.abscissa_name, "re_chi_au", "im_chi_au"],
            zip(curve.xs.tolist(), curve.ys.real.tolist(),
                curve.ys.imag.tolist()))


def _pulse(config: RunConfig, diagnostics: dict):
    curve, fractional_delay = pulse_response(
        config.atom, config.drive, config.pulse, config.raw["steps"]
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
    "sweep-phase": _transmission_sweep(sweep_phase),
    "sweep-b": _transmission_sweep(sweep_bfield),
    "spectrum": _spectrum,
    "pulse": _pulse,
}
MODES = tuple(RUNNERS)


def run(config: RunConfig) -> int:
    """Execute a run and write <out>.csv plus <out>.json; an output that
    cannot be written raises ConfigError, and a CSV whose sidecar cannot
    be written is removed."""
    diagnostics: dict = {"mode": config.mode}
    if config.mode in Z_MARCH_MODES:
        diagnostics["n_steps"] = config.raw["steps"]
    header, rows = RUNNERS[config.mode](config, diagnostics)
    out = config.raw["out"]
    try:
        _write_csv(f"{out}.csv", header, rows)
        try:
            _write_sidecar(f"{out}.json", config, diagnostics)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(f"{out}.csv")
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    One flag per config key, holding the value as text: a flag is
    converted and checked exactly like the config line it overrides.
    Flags are spelled in full (no prefix matching), so each key has one
    spelling and main's value join covers every flag.
    """
    parser = argparse.ArgumentParser(
        prog="lambdaloop",
        description="Four-level closed-loop atomic medium simulator",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} run", allow_abbrev=False)
        p.add_argument("--config", help="key = value configuration file")
        for flag in _KEY_FLAGS:
            p.add_argument(flag)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Every flag takes one value; joined to its flag, a value such as
    # -1e-3 or -inf is not taken by argparse for an option.
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1], argv[i]
        if (flag == "--config" or flag in _KEY_FLAGS) and re.match("-[^-]", value):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    flags = vars(build_arg_parser().parse_args(argv))
    path = flags.pop("config")
    text = ""
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    try:
        entries = _parse_lines(text)
        entries.update((key, (value, None)) for key, value in flags.items()
                       if value is not None)
        return run(_resolve(entries))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver failures -> nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
