import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from lambdaloop import (
    AtomParams,
    DriveConfig,
    PulseSpec,
    WeakProbeWarning,
    cli,
    propagation,
    refractive_spectrum,
    spectroscopy,
)
from lambdaloop.liouvillian import SteadyStateError
from lambdaloop.cli import (
    ALL_KEYS,
    FLOAT_KEYS,
    INT_KEYS,
    MODES,
    PULSE_KEYS,
    SWEEP_MODES,
    ConfigError,
    build_arg_parser,
    main,
    parse_config,
    run,
)
from lambdaloop.presets import (
    ATOM_KEYS,
    DRIVE_KEYS,
    preset_atom,
    preset_drive,
    preset_names,
    preset_values,
)

COLD_TRANSMIT = """
# cold-regime smoke configuration
mode = transmit
preset = fig3-cold
steps = 48
out = {out}
"""


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
        parse_config("mode = transmit\npreset = fig3-cold\nbogus = 1\n")


def test_missing_keys_all_listed():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    message = str(err.value)
    assert "missing required keys" in message
    for key in ("mode", "gamma_e_hz", "omega_c_hz", "cell_length_m"):
        assert key in message


def test_bad_number_reports_line():
    with pytest.raises(ConfigError, match="line 1.*number"):
        parse_config("gamma_e_hz = fast\n")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("mode = transmit\npreset = fig9-hot\n")


def test_unknown_preset_atom_names_the_presets():
    # The one unknown-preset message, which the CLI reports as it is.
    with pytest.raises(KeyError) as err:
        preset_atom("nope")
    assert err.value.args == (
        "unknown preset 'nope'; available: fig3-cold, fig4-warm",)


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode must be one of"):
        parse_config("mode = warp\npreset = fig3-cold\n")


def test_sweep_needs_two_points():
    text = (
        "mode = sweep-phase\npreset = fig3-cold\n"
        "sweep_start = 0\nsweep_stop = 6.28\npoints = 1\n"
    )
    with pytest.raises(ConfigError, match="points"):
        parse_config(text)


def test_sweep_stop_must_exceed_start():
    text = (
        "mode = sweep-phase\npreset = fig3-cold\n"
        "sweep_start = 1\nsweep_stop = 1\npoints = 4\n"
    )
    with pytest.raises(ConfigError, match=(
            "^line 4: sweep_stop must exceed sweep_start$")):
        parse_config(text)


def test_out_of_range_value_reports_line():
    text = "mode = transmit\npreset = fig3-cold\ngamma_e_hz = -5\n"
    with pytest.raises(ConfigError, match="^line 3: invalid atom"):
        parse_config(text)


@pytest.mark.parametrize("key, value, message", [
    ("od", "-1", "optical_depth must be >= 0"),
    ("cell_length_m", "0", "cell_length must be > 0"),
    ("omega_p_hz", "-3", "omega_p must be non-negative"),
    ("gamma_pop_hz", "20", "gamma_coh .* >= gamma_pop"),
    ("omega_c_hz", "nan", "omega_c must be finite"),
    ("delta_b_hz", "inf", "delta_b must be finite"),
    ("gamma_e_hz", "nan", "gamma_e must be finite"),
], ids=["od", "cell_length_m", "omega_p_hz", "gamma_pop_hz",
        "omega_c_hz-nan", "delta_b_hz-inf", "gamma_e_hz-nan"])
def test_rejected_override_reports_its_line(key, value, message):
    # The other atom and drive keys come from the preset, which has no
    # line; the error must point at the override that broke it.
    text = f"mode = transmit\npreset = fig3-cold\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"^line 3: .*{message}"):
        parse_config(text)


def test_repeated_key_names_both_lines():
    text = "mode = transmit\npreset = fig3-cold\nod = 0\nod = 0.15\n"
    with pytest.raises(ConfigError,
                       match="^line 4: 'od' is already set on line 3$"):
        parse_config(text)


@pytest.mark.parametrize("pulse_lines, message", [
    ("n_samples = 100\nfwhm_s = 0.005\n", "n_samples must be a power of two"),
    ("fwhm_s = -0.005\n", "fwhm must be positive"),
    # 8 * fwhm overflows to -inf; the sign of fwhm is named, not that.
    ("fwhm_s = -1e308\n", "fwhm must be positive$"),
    ("time_window_s = 0.01\nfwhm_s = 0.005\n",
     r"time_window must be at least 8 \* fwhm"),
    ("fwhm_s = nan\n", "fwhm must be finite, got nan"),
    ("carrier_detuning_hz = inf\nfwhm_s = 0.005\n",
     "carrier_detuning must be finite, got inf"),
    ("n_samples = 256\nfwhm_s = 0.005\ntime_window_s = 5.0\n",
     r"n_samples over time_window only resolves \+/-25.6 Hz"),
], ids=["n_samples", "fwhm_s", "fwhm_s-huge-negative", "time_window_s",
        "fwhm_s-nan", "carrier_detuning_hz-inf", "n_samples-bandwidth"])
def test_pulse_value_reports_line(pulse_lines, message):
    # The rejected key sits on line 3.
    text = ("mode = pulse\npreset = fig4-warm\n" + pulse_lines
            + "peak_omega_p_hz = 60e3\n")
    with pytest.raises(ConfigError,
                       match=f"^line 3: invalid pulse parameters: {message}"):
        parse_config(text)


def test_cold_preset_expansion():
    cfg = parse_config("mode = transmit\npreset = fig3-cold\n")
    assert cfg.atom.gamma_e == pytest.approx(2 * np.pi * 6e6)
    assert cfg.atom.gamma_pop == pytest.approx(2 * np.pi * 10.0)
    assert cfg.atom.gamma_coh == pytest.approx(2 * np.pi * 10.0)
    assert cfg.atom.optical_depth == 0.15
    assert cfg.drive.omega_c == pytest.approx(2 * np.pi * 20e3)
    assert cfg.drive.omega_p == pytest.approx(2 * np.pi * 5e3)


def test_warm_preset_expansion():
    cfg = parse_config("mode = transmit\npreset = fig4-warm\n")
    assert cfg.atom.gamma_e == pytest.approx(2 * np.pi * 500e6)
    assert cfg.atom.gamma_pop == pytest.approx(2 * np.pi * 25.0)
    assert cfg.atom.gamma_coh == pytest.approx(2 * np.pi * 28.0)
    assert cfg.atom.optical_depth == 15.0
    assert cfg.drive.omega_c == pytest.approx(2 * np.pi * 240e3)
    assert cfg.drive.omega_p == pytest.approx(2 * np.pi * 60e3)


def test_key_tables_cover_every_field():
    for cls, keys in ((AtomParams, ATOM_KEYS), (DriveConfig, DRIVE_KEYS),
                      (PulseSpec, PULSE_KEYS)):
        # delta_probe is a library argument of weak_probe_response only.
        assert set(keys) == {f.name for f in fields(cls)} - {"delta_probe"}
    # The tables build the presets exactly as the positional constructors.
    for name in preset_names():
        v = preset_values(name)
        assert preset_atom(name) == AtomParams.from_hz(
            v["gamma_e_hz"], v["gamma_pop_hz"], v["gamma_coh_hz"],
            v["delta_exc_hz"], v["od"], v["cell_length_m"],
        )
        assert preset_drive(name) == DriveConfig.from_hz(
            v["delta_b_hz"], v["phi_rad"], v["omega_c_hz"], v["omega_p_hz"],
        )


def test_explicit_keys_override_preset():
    cfg = parse_config(
        "mode = transmit\npreset = fig3-cold\nomega_p_hz = 1234\n"
    )
    assert cfg.drive.omega_p == pytest.approx(2 * np.pi * 1234.0)


def test_transmit_free_space_unity(tmp_path):
    out = tmp_path / "free"
    text = COLD_TRANSMIT.format(out=out) + "od = 0\n"
    assert run(parse_config(text)) == 0
    lines = (tmp_path / "free.csv").read_text().splitlines()
    assert lines[0] == "transmission_ratio"
    assert float(lines[1]) == 1.0
    # No stage solve runs in free space; the sidecar still records 0.
    sidecar = json.loads((tmp_path / "free.json").read_text())
    assert sidecar["diagnostics"]["max_steady_residual"] == 0.0


def test_deterministic_artifacts(tmp_path):
    out = tmp_path / "det"
    text = (
        "mode = sweep-phase\npreset = fig3-cold\nsweep_start = 0\n"
        f"sweep_stop = 6.283185307179586\npoints = 6\nsteps = 32\nout = {out}\n"
    )
    run(parse_config(text))
    first_csv = (tmp_path / "det.csv").read_bytes()
    first_json = (tmp_path / "det.json").read_bytes()
    run(parse_config(text))
    assert (tmp_path / "det.csv").read_bytes() == first_csv
    assert (tmp_path / "det.json").read_bytes() == first_json


def test_sweep_csv_shape_and_units(tmp_path):
    out = tmp_path / "sweep"
    text = (
        "mode = sweep-phase\npreset = fig3-cold\nsweep_start = 0\n"
        f"sweep_stop = 6.283185307179586\npoints = 6\nsteps = 32\nout = {out}\n"
    )
    run(parse_config(text))
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "phi_rad,transmission_ratio"
    assert len(lines) == 7
    sidecar = json.loads((tmp_path / "sweep.json").read_text())
    assert sidecar["config"]["preset"] == "fig3-cold"
    assert "modulation_depth" in sidecar["diagnostics"]


def test_steady_mode_emits_full_matrix(tmp_path):
    out = tmp_path / "steady"
    text = f"mode = steady\npreset = fig3-cold\nout = {out}\n"
    run(parse_config(text))
    lines = (tmp_path / "steady.csv").read_text().splitlines()
    assert lines[0] == "row_level,col_level,re,im"
    assert len(lines) == 17
    trace = sum(
        float(line.split(",")[2])
        for line in lines[1:]
        if line.split(",")[0] == line.split(",")[1]
    )
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_spectrum_mode(tmp_path):
    out = tmp_path / "spec"
    text = (
        "mode = spectrum\npreset = fig4-warm\nsweep_start = -20\n"
        f"sweep_stop = 20\npoints = 5\nout = {out}\n"
    )
    run(parse_config(text))
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "delta_hz,re_chi_au,im_chi_au"
    assert len(lines) == 6


def test_spectrum_row_near_resonance_reads_chi_at_zero(tmp_path,
                                                      monkeypatch):
    # The middle of 7 points over +-7.7 Hz is 8.9e-16 Hz, not 0.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakProbeWarning)
        assert main(["spectrum", "--preset", "fig4-warm",
                     "--sweep-start", "-7.7", "--sweep-stop", "7.7",
                     "--points", "7", "--out", "spec"]) == 0
        chi0 = refractive_spectrum(preset_atom("fig4-warm"),
                                   preset_drive("fig4-warm"), [0.0]).ys[0]
    rows = np.loadtxt(tmp_path / "spec.csv", delimiter=",", skiprows=1)
    assert 0.0 < rows[3, 0] < 1e-15
    assert abs(complex(rows[3, 1], rows[3, 2]) - chi0) <= 1e-12 * abs(chi0)


def test_pulse_mode_free_space(tmp_path):
    out = tmp_path / "pulse"
    text = (
        "mode = pulse\npreset = fig3-cold\nod = 0\nfwhm_s = 0.005\n"
        f"peak_omega_p_hz = 5e3\nn_samples = 256\nout = {out}\n"
    )
    run(parse_config(text))
    lines = (tmp_path / "pulse.csv").read_text().splitlines()
    assert lines[0].startswith("time_s,envelope_in_au,envelope_out_re_au")
    assert len(lines) == 257
    sidecar = json.loads((tmp_path / "pulse.json").read_text())
    assert abs(sidecar["diagnostics"]["fractional_delay"]) < 1e-12


def test_main_flags_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "transmit", "--preset", "fig3-cold", "--od", "0",
        "--steps", "32", "--out", "cli-run",
    ])
    assert code == 0
    lines = (tmp_path / "cli-run.csv").read_text().splitlines()
    assert float(lines[1]) == 1.0


def test_main_reports_config_errors(capsys):
    code = main(["transmit", "--preset", "fig3-cold", "--od", "-1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("preset = fig3-cold\nbogus = 1\n", "line 2: unknown key 'bogus'"),
    ("preset = fig3-cold\nod = 0\nod = 0.15\n",
     "line 3: 'od' is already set on line 2"),
    ("preset = fig3-cold\nod 0.15  # comment\n",
     "line 2: expected 'key = value', got 'od 0.15  # comment'"),
    ("preset = fig3-cold\nod =  # comment\n", "line 2: empty value for 'od'"),
    ("preset = fig3-cold\nod = 0\nomega_p_hz = 1e160\n",
     "line 3: invalid drive parameters: the drive power omega_c^2 + "
     "omega_p^2 overflows: omega_c = 125663.70614359173, "
     "omega_p = 6.283185307179587e+160"),
], ids=["unknown-key", "repeated-key", "no-equals", "empty-value",
        "overflowing-drive-power"])
def test_main_reports_config_file_errors(tmp_path, capsys, text, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert main(["transmit", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_reports_unreadable_config(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["transmit", "--config", str(missing)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read config: [Errno 2] No such file or directory: "
        f"{str(missing)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_main_reports_unwritable_output(tmp_path, capsys):
    # A failed write is no solver failure (exit 1 names a z or a delta).
    out = tmp_path / "no-such-dir" / "x"
    assert main(["steady", "--preset", "fig3-cold", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 2] No such file or directory: "
        f"{str(out) + '.csv'!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_sidecar_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # The CSV is written first; it used to stay behind without its sidecar.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").mkdir()
    assert main(["steady", "--preset", "fig3-cold", "--out", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 21] Is a directory: 'x.json'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


def test_overflowing_default_window_reports_the_fwhm_line(
        tmp_path, monkeypatch, capsys):
    # No time_window_s, so the default 8 * fwhm overflows; the error is
    # reported at the fwhm_s line, the key the config set.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "wide.cfg"
    config.write_text("preset = fig4-warm\nfwhm_s = 1e308\n"
                      "peak_omega_p_hz = 60e3\n")
    assert main(["pulse", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: invalid pulse parameters: the default time_window, "
        "8 * fwhm, must be finite, got inf\n")
    assert not list(tmp_path.glob("run.*"))


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("mode, key, lines", [
    ("transmit", "steps", ""),
    ("pulse", "n_samples", "fwhm_s = 0.005\npeak_omega_p_hz = 5e3\n"),
], ids=["steps", "n_samples"])
def test_integer_too_large_for_a_float_reports_its_line(
        tmp_path, monkeypatch, capsys, mode, key, lines):
    # Both used to exit 1: "error: int too large to convert to float".
    monkeypatch.chdir(tmp_path)
    message = f"{key} is an integer too large for a float"
    flag = "--" + key.replace("_", "-")
    config = tmp_path / "huge.cfg"
    config.write_text("preset = fig3-cold\nod = 0\n" + lines
                      + f"{key} = {HUGE}\n")
    line = 3 + lines.count("\n")
    assert main([mode, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    config.write_text("preset = fig3-cold\nod = 0\n" + lines)
    assert main([mode, "--config", str(config), flag, HUGE]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("grid, line, nyquist", [
    ("time_window_s = 5.0\nn_samples = 256\n", 5, "25.6"),
    ("time_window_s = 5.0\n", 4, "102"),
], ids=["n_samples", "time_window_s"])
def test_main_reports_pulse_bandwidth_line(tmp_path, capsys, grid, line,
                                           nyquist):
    # A 5 ms pulse needs +/-460 Hz; the error names the line of the first
    # grid key the message names that the file sets.
    config = tmp_path / "coarse-grid.cfg"
    config.write_text("preset = fig4-warm\nfwhm_s = 0.005\n"
                      "peak_omega_p_hz = 60e3\n" + grid)
    assert main(["pulse", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: invalid pulse parameters: n_samples over "
        f"time_window only resolves +/-{nyquist} Hz but the pulse "
        "bandwidth, |carrier_detuning| / 2pi + 2.3 / fwhm, needs +/-460 Hz\n")


@pytest.mark.parametrize("omega_p_hz", ["1e-9", "1e-10", "1e-12", "1e-13"])
def test_main_rejects_unresolved_probe(tmp_path, monkeypatch, capsys,
                                       omega_p_hz):
    # The probe power of the circular input pair reads back 0.2% low
    # (1e-9 Hz), 3.4% low (1e-10 Hz) or cancels to 0 (1e-12 and 1e-13
    # Hz); the run used to write a transmission against it.
    monkeypatch.chdir(tmp_path)
    code = main(["transmit", "--preset", "fig3-cold", "--omega-p-hz",
                 omega_p_hz, "--steps", "16", "--out", "weak"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: omega_p = ")
    assert "below the resolution of the circular pair" in err
    assert list(tmp_path.iterdir()) == []
    # Read from a file, the same rejection names the line, in each mode
    # that computes a transmission.
    config = tmp_path / "weak.cfg"
    config.write_text(f"preset = fig3-cold\nod = 0.15\nomega_p_hz = "
                      f"{omega_p_hz}\nsweep_start = 0\nsweep_stop = 1\n"
                      "points = 2\n")
    for mode in ("transmit", "sweep-phase", "sweep-b"):
        assert main([mode, "--config", str(config), "--steps", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: omega_p = ")
        assert "below the resolution of the circular pair" in err
    assert list(tmp_path.iterdir()) == [config]


def test_sweep_phase_reads_the_probe_back_at_every_phase(tmp_path,
                                                         monkeypatch, capsys):
    # A 2e-6 Hz probe reads back within REFINEMENT_TOL at the file's
    # phi = 0 but not at four of the 64 sweep phases, where the sweep
    # used to stop mid-run with the message and no line.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "phase.cfg"
    config.write_text("preset = fig3-cold\nod = 0\nomega_p_hz = 2e-6\n"
                      "phi_rad = 0\nsweep_start = 0\n"
                      "sweep_stop = 6.283185307179586\npoints = 64\n")
    assert main(["transmit", "--config", str(config), "--out", "one"]) == 0
    assert main(["sweep-phase", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: omega_p = ")
    assert "below the resolution of the circular pair" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.json", "phase.cfg"]


def test_main_solver_failure_exits_one(tmp_path, monkeypatch, capsys):
    def fail(_generator, **_kwargs):
        raise SteadyStateError("forced failure")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(propagation, "steady_state_matrix", fail)
    code = main(["transmit", "--preset", "fig3-cold", "--steps", "16",
                 "--out", "failed"])
    assert code == 1
    err = capsys.readouterr().err
    assert "forced failure" in err and "at z = 0 m" in err
    assert list(tmp_path.iterdir()) == []


def test_main_sideband_failure_exits_one(tmp_path, monkeypatch, capsys):
    # A NaN seed makes the first sideband solve of the pulse transfer
    # fail; the message names both its stage's z and its delta.
    real = spectroscopy.solve_sideband

    def nan_seed(gen, delta, seed):
        return real(gen, delta, np.full_like(seed, np.nan))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spectroscopy, "solve_sideband", nan_seed)
    code = main(["pulse", "--preset", "fig4-warm", "--fwhm-s", "0.005",
                 "--peak-omega-p-hz", "60e3", "--steps", "16",
                 "--out", "failed"])
    assert code == 1
    err = capsys.readouterr().err
    assert ("stage solve failed at z = 0 m: sideband response diverged "
            "at delta = ") in err
    assert list(tmp_path.iterdir()) == []


def test_steps_floor_only_for_z_marches(tmp_path, monkeypatch, capsys):
    # steady solves no z grid, so a short one is not an error there.
    monkeypatch.chdir(tmp_path)
    assert main(["steady", "--preset", "fig3-cold", "--steps", "8",
                 "--out", "steady"]) == 0
    config = tmp_path / "short.cfg"
    config.write_text("preset = fig3-cold\nod = 0\nsteps = 8\n")
    assert main(["transmit", "--config", str(config)]) == 2
    assert "line 3: steps must be >= 16, got 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode", ["steady", "transmit", "sweep-phase", "sweep-b", "spectrum",
             "pulse"],
)
def test_sidecar_records_n_steps_only_for_z_marches(tmp_path, mode):
    # Zero OD keeps the z marches cheap; steady and spectrum use no z grid.
    out = tmp_path / mode
    text = (
        f"mode = {mode}\npreset = fig3-cold\nod = 0\nsteps = 32\n"
        "sweep_start = -1\nsweep_stop = 1\npoints = 2\nfwhm_s = 0.005\n"
        f"peak_omega_p_hz = 5e3\nn_samples = 256\nout = {out}\n"
    )
    run(parse_config(text))
    diagnostics = json.loads(out.with_suffix(".json").read_text())[
        "diagnostics"]
    if mode in ("steady", "spectrum"):
        assert "n_steps" not in diagnostics
    else:
        assert diagnostics["n_steps"] == 32


PULSE_DEFAULTS = {"carrier_detuning_hz": 0.0, "time_window_s": 0.04,
                  "n_samples": 1024}


@pytest.mark.parametrize("mode, recorded", [
    ("steady", {}),
    ("spectrum", {}),
    ("transmit", {"steps": 256}),
    ("sweep-phase", {"steps": 256}),
    ("sweep-b", {"steps": 256}),
    ("pulse", {"steps": 256, **PULSE_DEFAULTS}),
])
def test_sidecar_records_the_defaults_the_run_read(tmp_path, mode, recorded):
    # Each defaulted key the mode reads, at the value it read (the pulse
    # window is 8 * fwhm), and no default of a key it does not read.
    out = tmp_path / mode
    run(parse_config(
        f"mode = {mode}\npreset = fig3-cold\nod = 0\nsweep_start = -1\n"
        "sweep_stop = 1\npoints = 2\nfwhm_s = 0.005\n"
        f"peak_omega_p_hz = 5e3\nout = {out}\n"))
    config = _sidecar(out)["config"]
    for key in ("steps", *PULSE_DEFAULTS):
        assert config.get(key) == recorded.get(key), key
        assert type(config.get(key)) is type(recorded.get(key)), key


def test_pulse_sidecar_keeps_explicit_pulse_keys(tmp_path):
    out = tmp_path / "pulse"
    run(parse_config(
        "mode = pulse\npreset = fig3-cold\nod = 0\nfwhm_s = 0.005\n"
        "peak_omega_p_hz = 5e3\ntime_window_s = 0.05\nn_samples = 512\n"
        f"carrier_detuning_hz = 3\nsteps = 32\nout = {out}\n"))
    config = _sidecar(out)["config"]
    assert {key: config[key] for key in ("steps", *PULSE_DEFAULTS)} == {
        "steps": 32, "carrier_detuning_hz": 3.0, "time_window_s": 0.05,
        "n_samples": 512}


@pytest.mark.parametrize("mode", ["transmit", "sweep-phase", "sweep-b"])
def test_zero_probe_reports_config_line(tmp_path, capsys, mode):
    config = tmp_path / "zero-probe.cfg"
    config.write_text("preset = fig3-cold\nod = 0\nomega_p_hz = 0\n"
                      "sweep_start = -1\nsweep_stop = 1\npoints = 2\n")
    assert main([mode, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: transmission requires a nonzero probe amplitude\n")


def test_zero_probe_flag_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["transmit", "--preset", "fig3-cold",
                 "--omega-p-hz", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: transmission requires a nonzero probe amplitude\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["transmit", "steady"])
def test_unrepresentable_drive_power_flag_rejected(tmp_path, monkeypatch,
                                                   capsys, mode):
    # transmit raised a bare OverflowError and steady a generator-norm
    # SteadyStateError, both exit 1; the drive itself is now refused.
    monkeypatch.chdir(tmp_path)
    assert main([mode, "--preset", "fig3-cold", "--omega-c-hz", "1e160"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: invalid drive parameters: the drive power omega_c^2 + "
        "omega_p^2 overflows: omega_c = 6.28")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["steady", "spectrum", "pulse"])
def test_zero_probe_allowed_without_transmission(mode):
    config = parse_config(
        f"mode = {mode}\npreset = fig3-cold\nomega_p_hz = 0\n"
        "sweep_start = -1\nsweep_stop = 1\npoints = 2\nfwhm_s = 0.005\n"
        "peak_omega_p_hz = 5e3\n")
    assert config.drive.omega_p == 0.0


def _sidecar(path):
    return json.loads(path.with_suffix(".json").read_text())


def test_reused_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    # One parser serves every call in a process: a flag given to one call
    # must not reach the next, nor may an argparse exit spoil it.
    monkeypatch.chdir(tmp_path)
    quick = ["transmit", "--preset", "fig3-cold", "--od", "0"]
    assert main(quick + ["--steps", "32", "--out", "short"]) == 0
    assert main(quick) == 0
    assert _sidecar(tmp_path / "short")["diagnostics"]["n_steps"] == 32
    default = _sidecar(tmp_path / "run")
    assert default["diagnostics"]["n_steps"] == 256
    assert default["config"]["steps"] == 256

    for argv, code in ((quick + ["--no-such-flag", "1"], 2), (["--help"], 0)):
        (tmp_path / "run.json").unlink()
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
        assert main(quick) == 0
        assert _sidecar(tmp_path / "run") == default
    # A flag value is parsed like a config line, so a bad one is a
    # configuration error rather than an argparse exit.
    capsys.readouterr()
    assert main(quick + ["--steps", "many"]) == 2
    assert capsys.readouterr().err == (
        "error: steps must be an integer, got 'many'\n")
    assert main(quick) == 0
    assert _sidecar(tmp_path / "run") == default


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build_arg_parser.cache_clear()
    for n in range(3):
        assert main(["steady", "--preset", "fig3-cold",
                     "--out", f"steady-{n}"]) == 0
    assert build_arg_parser.cache_info().misses == 1
    assert build_arg_parser() is build_arg_parser()


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("key", sorted(FLOAT_KEYS | INT_KEYS))
def test_bad_flag_value_reads_like_its_config_line(tmp_path, capsys, key):
    # One parser for both: the message is the config line's, minus the line.
    config = tmp_path / "bad.cfg"
    config.write_text(f"preset = fig3-cold\n{key} = many\n")
    assert main(["transmit", "--config", str(config)]) == 2
    from_file = capsys.readouterr().err
    assert main(["transmit", "--preset", "fig3-cold", _flag(key), "many"]) == 2
    from_flag = capsys.readouterr().err
    kind = "an integer" if key in INT_KEYS else "a number"
    assert from_flag == f"error: {key} must be {kind}, got 'many'\n"
    assert from_file == from_flag.replace("error: ", "error: line 2: ")
    assert list(tmp_path.iterdir()) == [config]


def test_unknown_preset_flag_names_no_line(tmp_path, capsys):
    assert main(["transmit", "--preset", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown preset 'bogus'; available: fig3-cold, fig4-warm\n")
    config = tmp_path / "bogus.cfg"
    config.write_text("od = 0\npreset = bogus\n")
    assert main(["transmit", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: unknown preset 'bogus'; available: fig3-cold, "
        "fig4-warm\n")


@pytest.mark.parametrize("mode", MODES)
def test_help_lists_one_flag_per_key(capsys, mode):
    with pytest.raises(SystemExit) as exit_:
        main([mode, "--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - {"--help"} == (
        {"--config"} | {_flag(key) for key in ALL_KEYS - {"mode"}})


def test_delta_probe_is_no_key(tmp_path, capsys):
    # DriveConfig.delta_probe is read only by the library's
    # weak_probe_response, so no flag or config line sets it.
    with pytest.raises(SystemExit) as exit_:
        main(["steady", "--preset", "fig3-cold", "--delta-probe-hz", "0"])
    assert exit_.value.code == 2
    assert "--delta-probe-hz" in capsys.readouterr().err
    config = tmp_path / "probe.cfg"
    config.write_text("preset = fig3-cold\ndelta_probe_hz = 0\n")
    assert main(["steady", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: unknown key 'delta_probe_hz'\n")


@pytest.mark.parametrize("mode", ["sweep-phase", "sweep-b", "spectrum"])
@pytest.mark.parametrize("bounds, line, message", [
    ("sweep_start = 0\nsweep_stop = inf\n", 4, "sweep_stop must be finite, got inf"),
    ("sweep_start = nan\nsweep_stop = 1\n", 3, "sweep_start must be finite, got nan"),
    ("sweep_start = -inf\nsweep_stop = 1\n", 3,
     "sweep_start must be finite, got -inf"),
], ids=["stop-inf", "start-nan", "start-minus-inf"])
def test_non_finite_sweep_bound_reports_its_line(tmp_path, monkeypatch,
                                                 capsys, recwarn, mode,
                                                 bounds, line, message):
    # Caught as a configuration error (exit 2) before any grid is built.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "sweep.cfg"
    config.write_text("preset = fig3-cold\nod = 0\n" + bounds + "points = 2\n")
    assert main([mode, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not recwarn.list
    assert list(tmp_path.iterdir()) == [config]


OVERFLOWING_GRID = (("sweep_start", "-1e308"), ("sweep_stop", "1e308"),
                    ("points", "4"))


@pytest.mark.parametrize("mode, keys, message", [
    *((mode, OVERFLOWING_GRID, "sweep grid value must be finite, got nan")
      for mode in SWEEP_MODES),
    ("spectrum", (("points", "3"), ("sweep_start", "1"),
                  ("sweep_stop", "1.0000000000000002")),
     "sweep grid values must be strictly increasing"),
    ("sweep-b", (("sweep_stop", "1e-322"), ("sweep_start", "0"),
                 ("points", "64")),
     "sweep grid values must be strictly increasing"),
], ids=[f"overflow-{mode}" for mode in SWEEP_MODES]
    + ["spectrum-ulp", "sweep-b-subnormal"])
def test_rejected_sweep_grid_reports_its_first_line(
        tmp_path, monkeypatch, capsys, recwarn, mode, keys, message):
    # Bounds that pass their own checks but make a grid the library
    # rejects: its span overflows, or its points round onto each other.
    # Reported at the first line that sets a sweep key (line 3), before
    # any solve and with no numpy warning; from flags, without a line.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "grid.cfg"
    config.write_text("preset = fig3-cold\nod = 0\n"
                      + "".join(f"{key} = {value}\n" for key, value in keys))
    assert main([mode, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: line 3: {message}\n"
    flags = [f"{_flag(key)}={value}" for key, value in keys]
    assert main([mode, "--preset", "fig3-cold", "--od", "0", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not recwarn.list
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("key", sorted(FLOAT_KEYS))
def test_negative_exponent_flag_value_reads_like_joined(monkeypatch, capsys,
                                                        key):
    # argparse takes "-1e-3" for an option unless it is joined to its
    # flag; every flag takes one value, so both spellings resolve alike.
    resolved = []
    monkeypatch.setattr(cli, "run",
                        lambda config: resolved.append(config.raw) or 0)
    outcomes = []
    for tail in ([_flag(key), "-1e-3"], [f"{_flag(key)}=-1e-3"]):
        code = main(["steady", "--preset", "fig3-cold", *tail])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0] == 0:
        assert resolved[0] == resolved[1]
        assert resolved[0][key] == -1e-3
    else:
        assert outcomes[0][0] == 2 and not resolved


def test_negative_infinite_flag_reaches_the_bound_check(tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-b", "--preset", "fig3-cold", "--od", "0",
                 "--sweep-start", "-inf", "--sweep-stop", "1",
                 "--points", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: sweep_start must be finite, got -inf\n")
    assert list(tmp_path.iterdir()) == []


def test_abbreviated_flag_is_no_flag(tmp_path, monkeypatch, capsys):
    # One spelling per key: a prefix of a flag is rejected, with a
    # negative value or without, so main's value join covers every flag
    # argparse accepts.
    monkeypatch.chdir(tmp_path)
    for value in ("-1e-3", "1e-3"):
        with pytest.raises(SystemExit) as exit_:
            main(["steady", "--preset", "fig3-cold", "--delta-b", value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --delta-b {value}" in (
            capsys.readouterr().err)
    for key in sorted(ALL_KEYS - {"mode"}):
        with pytest.raises(SystemExit) as exit_:
            main(["steady", _flag(key)[:-1], "1"])
        assert exit_.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert main(["steady", "--preset", "fig3-cold", "--delta-b-hz",
                 "-1e-3"]) == 0
    assert _sidecar(tmp_path / "run")["config"]["delta_b_hz"] == -1e-3
