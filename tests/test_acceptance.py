"""Acceptance gate: one test per numbered criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Expensive grids are shared through module fixtures; the
wall-clock budget of a criterion is charged to the fixtures it consumes.
"""
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import circular_generator, relative_variation
from lambdaloop import (
    AtomParams,
    DriveConfig,
    PulseSpec,
    WeakProbeWarning,
    bare_transition_transmission,
    chi_probe_timedomain,
    density_matrix,
    evolve_expm,
    group_velocity_class,
    hz_to_angular,
    modulation_depth,
    phase_grid,
    preset_atom,
    preset_drive,
    pulse_response,
    refractive_spectrum,
    steady_state_matrix,
    sweep_bfield,
    sweep_phase,
    transmission,
    weak_probe_response,
)

warnings.simplefilter("ignore", WeakProbeWarning)

COLD = preset_atom("fig3-cold")
WARM = preset_atom("fig4-warm")
COLD_DRIVE = preset_drive("fig3-cold")
WARM_DRIVE = preset_drive("fig4-warm")

# Slope-check drive configurations: (delta_b in Hz, phi, expected sign).
SLOPE_CONFIGS = (
    (-91.0, 1.75 * np.pi, +1),
    (-91.0, 0.0, -1),
    (0.0, 0.0, +1),
)


def report(number, ok, description):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} {description}")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def cold_phase_sweep(params, db_hz, n_points, n_steps):
    drive = replace(COLD_DRIVE, delta_b=hz_to_angular(db_hz))
    return sweep_phase(params, drive, phase_grid(n_points), n_steps)


def single_lambda_limit(params, near, n_points, n_steps):
    """Zero-field phase variation extrapolated to delta_exc -> infinity.

    `near` is the relative variation at `params.delta_exc`; one more sweep
    at twice the splitting gives the extrapolated single-lambda value
    2 v(2 delta_exc) - v(delta_exc), which cancels a 1/delta_exc term, and
    the law ratio 2 v(2 delta_exc) / v(delta_exc), which is 1 when all of
    the variation comes through the far-detuned upper state.
    """
    far_params = replace(params, delta_exc=2.0 * params.delta_exc)
    far = relative_variation(
        cold_phase_sweep(far_params, 0.0, n_points, n_steps).ys
    )
    return 2.0 * far - near, 2.0 * far / near


def slope_fits(spectra):
    """Re chi slope fit within +/-10 Hz at each slope-check configuration."""
    return {
        (db_hz, phi): group_velocity_class(spectra[(db_hz, phi)], 10.0)
        for db_hz, phi, _ in SLOPE_CONFIGS
    }


@pytest.fixture(scope="module")
def cold_phase_sweeps():
    """64-point cold phase sweeps for delta_b in {0, 10, 80} Hz."""
    def compute():
        return {
            db_hz: cold_phase_sweep(COLD, db_hz, 64, 256)
            for db_hz in (0.0, 10.0, 80.0)
        }
    sweeps, elapsed = timed(compute)
    return {"curves": sweeps, "seconds": elapsed}


@pytest.fixture(scope="module")
def transmission_grids():
    """16x16 (delta_b, phi) transmission grids for both presets."""
    db_grid = np.linspace(-100.0, 100.0, 16)
    phis = np.array(phase_grid(16))

    def compute():
        grids = {}
        for name, params, drive in (
            ("cold", COLD, COLD_DRIVE),
            ("warm", WARM, WARM_DRIVE),
        ):
            table = np.empty((16, 16))
            for i, db in enumerate(db_grid):
                for j, phi in enumerate(phis):
                    d = replace(
                        drive, delta_b=hz_to_angular(db), phi=float(phi)
                    )
                    table[i, j] = transmission(params, d, 256)
            grids[name] = table
        return grids
    grids, elapsed = timed(compute)
    return {"grids": grids, "db_grid": db_grid, "phis": phis,
            "seconds": elapsed}


@pytest.fixture(scope="module")
def warm_spectra():
    """41-point chi spectra at the slope-check configurations."""
    grid = tuple(np.linspace(-30.0, 30.0, 41))
    spectra = {}
    for db_hz, phi, _ in SLOPE_CONFIGS:
        drive = replace(
            WARM_DRIVE, delta_b=hz_to_angular(db_hz), phi=phi
        )
        spectra[(db_hz, phi)] = refractive_spectrum(WARM, drive, grid)
    return spectra


def test_criterion_1_cold_phase_insensitivity(cold_phase_sweeps):
    # Without the field the double lambda reduces to a single lambda plus
    # the far-detuned loop through the upper state, whose ~1.9e-3 cos(2 phi)
    # floor falls as 1/delta_exc; the criterion checks the single lambda.
    near = relative_variation(cold_phase_sweeps["curves"][0.0].ys)
    (limit, law), far_seconds = timed(
        lambda: single_lambda_limit(COLD, near, 64, 256)
    )
    elapsed = cold_phase_sweeps["seconds"] / 3.0 + far_seconds
    ok = abs(limit) < 1e-3 and abs(law - 1.0) < 0.01 and elapsed < 60.0
    report(1, ok, f"cold delta_b=0 relative variation {near:.3e}, "
                  f"single-lambda limit {limit:.1e} (limit 1e-3), "
                  f"1/delta_exc law ratio {law:.5f}, {elapsed:.1f}s")
    assert abs(limit) < 1e-3
    assert abs(law - 1.0) < 0.01
    assert elapsed < 60.0


def test_criterion_1_negative_control():
    # With gamma_coh = 2 gamma_pop the zero-field phase sensitivity does not
    # come through the upper state (it barely moves when delta_exc doubles),
    # so the criterion-1 measurement must reject it.
    params = replace(COLD, gamma_coh=2.0 * COLD.gamma_pop)
    near = relative_variation(cold_phase_sweep(params, 0.0, 16, 64).ys)
    limit, law = single_lambda_limit(params, near, 16, 64)
    print(f"gamma_coh = 2 gamma_pop: single-lambda limit {limit:.1e}, "
          f"1/delta_exc law ratio {law:.3f}")
    assert abs(limit) > 1e-3
    assert abs(law - 1.0) > 0.01


def test_criterion_2_cold_monotone_sensitivity(cold_phase_sweeps):
    curves = cold_phase_sweeps["curves"]
    depth = {db: modulation_depth(c) for db, c in curves.items()}
    elapsed = cold_phase_sweeps["seconds"]
    ok = (
        depth[80.0] > depth[10.0] > depth[0.0]
        and depth[80.0] / depth[10.0] > 2.0
        and elapsed < 180.0
    )
    report(2, ok, f"depths {depth[0.0]:.2e} < {depth[10.0]:.2e} < "
                  f"{depth[80.0]:.2e}, ratio "
                  f"{depth[80.0] / depth[10.0]:.1f} (>2), {elapsed:.1f}s")
    assert depth[80.0] > depth[10.0] > depth[0.0]
    assert depth[80.0] / depth[10.0] > 2.0
    assert elapsed < 180.0


def test_criterion_3_substitution_symmetry(transmission_grids):
    worst = 0.0
    for table in transmission_grids["grids"].values():
        for i in range(16):
            for j in range(16):
                mirrored = table[15 - i, (j + 8) % 16]
                worst = max(worst, abs(table[i, j] - mirrored))
    elapsed = transmission_grids["seconds"]
    ok = worst < 1e-8 and elapsed < 600.0
    report(3, ok, f"max |T(dB,phi) - T(-dB,phi+pi)| = {worst:.2e} "
                  f"(limit 1e-8), {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 600.0


def test_criterion_4_warm_intrinsic_sensitivity():
    def depth_at(db_hz):
        drive = replace(WARM_DRIVE, delta_b=hz_to_angular(db_hz))
        curve = sweep_phase(WARM, drive, phase_grid(64), 256)
        return modulation_depth(curve), float(np.mean(np.real(curve.ys)))

    (depth0, mean0) = depth_at(0.0)
    (depth40, _) = depth_at(40.0)
    ok = depth0 > 0.1 * mean0 and depth40 > depth0
    report(4, ok, f"warm depth(0)/mean = {depth0 / mean0:.2f} (>0.1), "
                  f"depth(40) = {depth40:.3f} > depth(0) = {depth0:.3f}")
    assert depth0 > 0.1 * mean0
    assert depth40 > depth0


def test_criterion_5_bfield_mirror():
    grid = tuple(np.linspace(-100.0, 100.0, 64))
    phi = 0.9

    def curve_at(p):
        drive = replace(WARM_DRIVE, phi=p)
        return sweep_bfield(WARM, drive, grid, 256)

    direct = curve_at(phi)
    shifted = curve_at(phi + np.pi)
    mirrored = dict(zip(np.round(-shifted.xs, 9), shifted.ys))
    worst = max(
        abs(y - mirrored[np.round(x, 9)])
        for x, y in zip(direct.xs, direct.ys)
    )
    ok = worst < 1e-8
    report(5, ok, f"mirror mismatch  {worst:.2e} (limit 1e-8), "
                  f"64-point delta_b grid")
    assert worst < 1e-8


def test_criterion_6_slope_signs(warm_spectra):
    fits = slope_fits(warm_spectra)
    results = []
    ok_all = True
    for db_hz, phi, expected in SLOPE_CONFIGS:
        fit = fits[(db_hz, phi)]
        resolved = abs(fit.slope_per_hz) > 10.0 * fit.stderr_per_hz
        sign_ok = np.sign(fit.slope_per_hz) == expected and resolved
        ok_all = ok_all and sign_ok
        results.append(
            f"(dB={db_hz:+.0f} Hz, phi={phi / np.pi:.2f}pi): "
            f"slope {fit.slope_per_hz:+.2e}/Hz want "
            f"{'+' if expected > 0 else '-'}"
        )
    report(6, ok_all, "; ".join(results))
    for db_hz, phi, expected in SLOPE_CONFIGS:
        fit = fits[(db_hz, phi)]
        assert abs(fit.slope_per_hz) > 10.0 * fit.stderr_per_hz
        assert np.sign(fit.slope_per_hz) == expected, (
            f"slope sign at (delta_b={db_hz} Hz, phi={phi:.3f}) is "
            f"{np.sign(fit.slope_per_hz):+.0f}, expected {expected:+d}"
        )


def test_criterion_7_steady_state_oracle():
    rng = np.random.default_rng(11)

    def compute():
        worst = 0.0
        start_state = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        for params, oc_hz, op_hz in (
            (COLD, 20e3, 5e3), (WARM, 240e3, 60e3)
        ):
            horizon = 50.0 / min(params.gamma_pop, params.gamma_coh)
            for _ in range(20):
                drive = DriveConfig.from_hz(
                    rng.uniform(-100, 100),
                    rng.uniform(0, 2 * np.pi),
                    oc_hz * rng.uniform(0.5, 1.5),
                    op_hz * rng.uniform(0.5, 1.5),
                )
                gen = circular_generator(params, drive)
                direct = density_matrix(steady_state_matrix(gen))
                evolved = evolve_expm(start_state, gen, horizon)
                worst = max(worst, float(np.max(np.abs(direct - evolved))))
        return worst

    worst, elapsed = timed(compute)
    ok = worst < 1e-6 and elapsed < 300.0
    report(7, ok, f"40 random drives, worst element mismatch {worst:.2e} "
                  f"(limit 1e-6), {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 300.0


def test_criterion_8_linear_response_oracle():
    drive = replace(WARM_DRIVE, delta_b=hz_to_angular(-91.0), phi=0.35)
    worst = 0.0
    for d_hz in (-40.0, -15.0, 5.0, 20.0, 60.0):
        probe_drive = replace(drive, delta_probe=hz_to_angular(d_hz))
        hb = weak_probe_response(WARM, probe_drive)
        td = chi_probe_timedomain(WARM, drive, d_hz)
        worst = max(worst, abs(hb - td) / abs(hb))
    ok = worst < 0.02
    report(8, ok, f"harmonic balance vs time-domain lock-in, worst "
                  f"relative difference {worst:.2e} (limit 2e-2)")
    assert worst < 0.02


def test_criterion_9_beer_lambert_calibration():
    worst = 0.0
    for params in (COLD, WARM):
        got = bare_transition_transmission(params)
        expected = np.exp(-params.optical_depth)
        worst = max(worst, abs(got - expected) / expected)
    ok = worst < 1e-4
    report(9, ok, f"bare-transition transmission vs exp(-OD), worst "
                  f"relative error {worst:.2e} (limit 1e-4)")
    assert worst < 1e-4


def test_criterion_10_pulse_sign_consistency(warm_spectra):
    pulse = PulseSpec(fwhm=5e-3, peak_omega_p=WARM_DRIVE.omega_p)
    fits = slope_fits(warm_spectra)
    delays = {}
    entries = []
    ok_all = True
    for db_hz, phi, _ in SLOPE_CONFIGS:
        drive = replace(WARM_DRIVE, delta_b=hz_to_angular(db_hz), phi=phi)
        fit = fits[(db_hz, phi)]
        _, frac = pulse_response(WARM, drive, pulse)
        delays[(db_hz, phi)] = frac
        matches = (
            (fit.classification == "slow" and frac > 0)
            or (fit.classification == "fast" and frac < 0)
            or fit.classification == "flat"
        )
        ok_all = ok_all and matches
        entries.append(
            f"(dB={db_hz:+.0f}, phi={phi / np.pi:.2f}pi): "
            f"{fit.classification}/{frac:+.3f}"
        )

    free = AtomParams(
        WARM.gamma_e, WARM.gamma_pop, WARM.gamma_coh, WARM.delta_exc,
        0.0, WARM.cell_length,
    )
    _, frac0 = pulse_response(free, WARM_DRIVE, pulse)
    zero_ok = abs(frac0) < 1e-12
    ok_all = ok_all and zero_ok
    report(10, ok_all,
           "; ".join(entries) + f"; OD=0 delay {frac0:.1e} (limit 1e-12)")
    assert zero_ok
    for db_hz, phi, _ in SLOPE_CONFIGS:
        fit, frac = fits[(db_hz, phi)], delays[(db_hz, phi)]
        if fit.classification == "slow":
            assert frac > 0
        elif fit.classification == "fast":
            assert frac < 0


def test_criterion_11_state_validity(transmission_grids):
    # The steady-state solver validates trace, Hermiticity and positivity
    # on every solve feeding criteria 1-6 (it raises otherwise); this
    # re-checks an explicit sample of those drive points.
    rng = np.random.default_rng(5)
    checked = 0
    for name, params, drive in (
        ("cold", COLD, COLD_DRIVE), ("warm", WARM, WARM_DRIVE)
    ):
        for _ in range(10):
            db = rng.choice(transmission_grids["db_grid"])
            phi = rng.choice(transmission_grids["phis"])
            d = replace(drive, delta_b=hz_to_angular(db), phi=float(phi))
            rho = density_matrix(
                steady_state_matrix(circular_generator(params, d)))
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-9
            checked += 1
    report(11, True, f"{checked} sampled grid states satisfy trace, "
                     f"Hermiticity and positivity floors; every solve in "
                     f"criteria 1-6 is validated in-line")
