import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from lambdaloop import (
    AtomParams,
    DriveConfig,
    PropagationError,
    PulseSpec,
    SteadyStateError,
    bare_transition_transmission,
    calibrate_kappa,
    hz_to_angular,
    input_fields,
    preset_atom,
    preset_drive,
    probe_power,
    propagate,
    pulse_response,
    sideband_transfer,
    substitution_image,
    to_linear,
    transmission,
)
from lambdaloop import propagation, spectroscopy
from lambdaloop.liouvillian import (
    circular_template,
    refined_solve,
    steady_state_matrix,
)


def free_space(atom: AtomParams) -> AtomParams:
    return AtomParams(
        gamma_e=atom.gamma_e,
        gamma_pop=atom.gamma_pop,
        gamma_coh=atom.gamma_coh,
        delta_exc=atom.delta_exc,
        optical_depth=0.0,
        cell_length=atom.cell_length,
    )


class TestKappaCalibration:
    def test_zero_od(self, cold_atom):
        assert calibrate_kappa(free_space(cold_atom)) == 0.0

    def test_bare_transition_thin(self, cold_atom):
        # Brute-force two-level propagation must reproduce exp(-OD).
        got = bare_transition_transmission(cold_atom)
        expected = np.exp(-cold_atom.optical_depth)
        assert got == pytest.approx(expected, rel=1e-4)

    def test_bare_transition_thick(self, warm_atom):
        got = bare_transition_transmission(warm_atom)
        expected = np.exp(-warm_atom.optical_depth)
        assert got == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("omega_probe", [0.0, np.nan, np.inf])
    def test_bare_transition_rejects_probe(self, warm_atom, omega_probe):
        # The oracle is defined at 1e-4 gamma_e; there is no probe knob, so
        # the values it once rejected as invalid now fail as an unknown
        # argument rather than reaching the march.
        with pytest.raises(TypeError, match="omega_probe"):
            bare_transition_transmission(warm_atom, omega_probe=omega_probe)


class TestProbePower:
    def test_equal_fields_zero_probe(self):
        power = probe_power(np.array([0.3 + 0.1j, 0.3 + 0.1j]))
        assert power == pytest.approx(0.0, abs=1e-15)

    def test_pure_probe(self):
        s = 1 / np.sqrt(2)
        power = probe_power(np.array([s, -s]))
        assert power == pytest.approx(1.0, rel=1e-12)

    def test_interference_identity(self, rng):
        # The interference form against the basis-transform read-back on
        # pairs whose magnitudes differ by up to 1e20; the worst of 62,000
        # such pairs came to 6.7e-4 of the bound.
        for _ in range(2000):
            big = 10.0 ** rng.uniform(-300.0, 150.0)
            mags = (big, big / 10.0 ** rng.uniform(0.0, 20.0))
            if rng.random() < 0.5:
                mags = mags[::-1]
            o1, o2 = (m * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                      for m in mags)
            theta = cmath.phase(o1) - cmath.phase(o2)
            interference = (abs(o1) ** 2 + abs(o2) ** 2 - 2.0 * abs(o1)
                            * abs(o2) * math.cos(theta)) / 2.0
            scale = max(abs(o1) ** 2 + abs(o2) ** 2, 1.0)
            assert abs(interference - probe_power(np.array([o1, o2]))) \
                <= 1e-12 * scale

    def test_pair_too_large_to_square_reads_inf(self):
        # Squared as a numpy float, which overflows to inf; a Python
        # float would raise OverflowError.
        with np.errstate(over="ignore"):
            assert probe_power(np.array([1e160, -1e160])) == math.inf


def test_field_derivative_is_the_propagation_equations(rng):
    # The hand-written equations, the reference for the rows derived
    # from the couplings: dOmega_1/dz = -i kappa (rho_23 + rho_13) and
    # dOmega_2/dz = -i kappa (rho_24 - rho_14), levels counted from 1.
    for kappa in (0.0, 1.0, 2.5e3, propagation.calibrate_kappa(
            preset_atom("fig4-warm"))):
        for _ in range(50):
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            states = (rho, rho.conj().T)
            expected = np.array([
                [-1j * kappa * (r[1, 2] + r[0, 2]),
                 -1j * kappa * (r[1, 3] - r[0, 3])]
                for r in states
            ]).T
            for r, column in zip(states, expected.T):
                got = propagation.field_derivative(kappa, r.ravel())
                assert got.shape == (2,)
                assert (got == column).all()
            # A transposed (16, k) block too, as the sideband march
            # passes one: one vectorised state per column.
            block = np.array([r.ravel() for r in states])
            got = propagation.field_derivative(kappa, block.T)
            assert got.shape == (2, len(states))
            assert (got == expected).all()


@pytest.mark.parametrize("preset", ["fig3-cold", "fig4-warm"])
def test_every_stage_loses_photons_to_decay(preset, rng):
    # Photon-number balance at a steady state: d(|O1|^2 + |O2|^2)/dz =
    # -kappa gamma_e (rho_11 + rho_22).  The fields' total power falls at
    # every stage, so a transmission above 1 is power taken from the
    # control, never power made by the medium.
    atom, base = preset_atom(preset), preset_drive(preset)
    kappa = calibrate_kappa(atom)
    template = circular_template(atom)
    for _ in range(200):
        scale = rng.uniform(0.3, 1.5)
        drive = DriveConfig(
            hz_to_angular(rng.uniform(-400.0, 400.0)),
            rng.uniform(0.0, 2.0 * np.pi),
            scale * base.omega_c,
            scale * base.omega_c * rng.uniform(0.05, 1.0),
        )
        fields = input_fields(drive)
        rho = steady_state_matrix(template.generator(drive.delta_b, *fields))
        gained = 2.0 * np.vdot(
            fields, propagation.field_derivative(kappa, rho.ravel())).real
        decayed = kappa * atom.gamma_e * (rho[0, 0] + rho[1, 1]).real
        assert decayed > 0.0
        assert gained == pytest.approx(-decayed, rel=1e-13, abs=0.0)


class TestPropagate:
    def test_free_space_fields_constant(self, cold_atom, cold_drive):
        atom = free_space(cold_atom)
        fields = input_fields(cold_drive)
        out = propagate(fields, atom, cold_drive, 32)
        assert out.shape == (2,)
        assert not np.shares_memory(out, fields)
        assert out[0] == fields[0]
        assert out[1] == fields[1]
        assert probe_power(out) == probe_power(fields)

    @pytest.mark.parametrize("start", [np.array([1.0 + 0j, 2j]), 1.0 + 0j],
                             ids=["array", "complex"])
    def test_z_march_returns_the_end_state(self, start):
        # dy/dz = -y over z in [0, 1]: RK4's amplification per step is the
        # exp(-h) Taylor series to fourth order, so the end state is
        # start * that factor to the power n_steps, in the input's shape.
        n_steps, h = 16, 1.0 / 16
        factor = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        end = propagation.z_march(lambda y, _z: -y, start, 1.0, n_steps)
        assert np.shape(end) == np.shape(start)
        assert np.allclose(end, start * factor**n_steps, rtol=1e-14, atol=0)

    def test_control_only_generates_no_probe(self, cold_atom):
        drive = DriveConfig.from_hz(0.0, 0.0, 20e3, 0.0)
        out = propagate(input_fields(drive), cold_atom, drive, 32)
        probe_out = abs(to_linear(out)[1])
        assert probe_out < 1e-12 * drive.omega_c

    def test_grid_refinement(self, warm_atom, warm_drive):
        record = {}
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("error")
            transmission(warm_atom, warm_drive, 256,
                         verify_refinement=True, record=record)
        assert record["refinement_delta"] < 1e-6

    def test_refinement_check_belongs_to_transmission(self, cold_atom,
                                                      cold_drive):
        fields = input_fields(cold_drive)
        with pytest.raises(TypeError, match="verify_refinement"):
            propagate(fields, cold_atom, cold_drive, 16,
                      verify_refinement=True)

    def test_refinement_warning_names_the_caller(self, warm_atom,
                                                 warm_drive):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transmission(warm_atom, warm_drive, 16, verify_refinement=True)
        warned = [w for w in caught
                  if w.category is propagation.RefinementWarning]
        assert len(warned) == 1
        assert warned[0].filename == __file__

    def test_verified_free_space_records_no_change(self, cold_atom,
                                                   cold_drive):
        # The doubled march of an empty cell returns its input again, so
        # the check runs and measures exactly nothing.
        record = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transmission(free_space(cold_atom), cold_drive, 32,
                               verify_refinement=True, record=record)
        assert got == 1.0
        assert record == {"refinement_delta": 0.0}

    def test_z_march_is_fourth_order(self, warm_atom, warm_drive):
        # The n -> 2n refinement delta of classical RK4 falls by 2^4 = 16
        # per doubling (measured 15.5 and 15.8 on the warm preset); a
        # wrong stage weight in z_march lowers the order and fails the
        # ratio.  The deltas were 2.09e-4, 1.35e-5 and 8.5e-7, so 16 and
        # 32 steps warn and 64 steps does not.
        deltas = []
        for n_steps in (16, 32, 64):
            record = {}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                transmission(warm_atom, warm_drive, n_steps,
                             verify_refinement=True, record=record)
            warned = [w for w in caught
                      if w.category is propagation.RefinementWarning]
            assert len(warned) == (n_steps < 64), n_steps
            assert (record["refinement_delta"]
                    > propagation.REFINEMENT_TOL) == (n_steps < 64)
            deltas.append(record["refinement_delta"])
        for coarse, fine in zip(deltas, deltas[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_total_power_never_amplified(self, warm_atom, cold_atom, rng):
        # Both excited states are decay-only, so the two-beam total power
        # cannot grow through the cell.
        for params, oc, op in ((cold_atom, 20e3, 5e3), (warm_atom, 240e3, 60e3)):
            for _ in range(3):
                drive = DriveConfig.from_hz(
                    rng.uniform(-100, 100), rng.uniform(0, 2 * np.pi), oc, op
                )
                fields = input_fields(drive)
                out = propagate(fields, params, drive, 64)
                assert np.sum(np.abs(out) ** 2) <= np.sum(
                    np.abs(fields) ** 2) * (1 + 1e-9)


class TestTransmission:
    def test_free_space_unity(self, cold_atom, cold_drive):
        assert transmission(free_space(cold_atom), cold_drive, 32) == 1.0

    def test_requires_probe(self, cold_atom):
        drive = DriveConfig.from_hz(0.0, 0.0, 20e3, 0.0)
        with pytest.raises(ValueError, match="probe"):
            transmission(cold_atom, drive, 32)

    @pytest.mark.parametrize("omega_p_hz", [1e-9, 1e-10, 1e-12, 1e-13])
    def test_probe_below_circular_resolution_rejected(
            self, cold_atom, cold_drive, monkeypatch, omega_p_hz):
        # (Omega_c +/- Omega_p)/sqrt(2) cancel, so the probe power read
        # back from the pair is 0.2% (1e-9 Hz) and 3.4% (1e-10 Hz) below
        # |Omega_p|^2, and exactly 0 below that; these used to be
        # reported as a transmission against that read-back.
        drive = dataclasses.replace(
            cold_drive, omega_p=hz_to_angular(omega_p_hz))
        read_back = probe_power(input_fields(drive))
        assert (abs(read_back - drive.omega_p**2)
                > propagation.REFINEMENT_TOL * drive.omega_p**2)
        assert (read_back == 0.0) == (omega_p_hz < 1e-11)

        def started(*_args, **_kwargs):
            raise AssertionError("march started")

        monkeypatch.setattr(propagation, "propagate", started)
        with pytest.raises(ValueError, match=(
                rf"^omega_p = {re.escape(repr(drive.omega_p))} rad/s is "
                "below the resolution of the circular pair: its probe "
                "power reads back as ")):
            transmission(cold_atom, drive, 32)

    @pytest.mark.parametrize("name", ["fig3-cold", "fig4-warm"])
    def test_preset_probe_reads_back_within_tolerance(self, name):
        drive = preset_drive(name)
        read_back = probe_power(input_fields(drive))
        assert (abs(read_back - drive.omega_p**2)
                <= propagation.REFINEMENT_TOL * drive.omega_p**2)
        assert 0.0 < transmission(preset_atom(name), drive, 16) < math.inf

    def test_cold_phase_flatness_hierarchy(self, cold_atom):
        # Without the static field the residual phase modulation sits
        # orders of magnitude below the field-on modulation.
        def depth(db_hz):
            values = [
                transmission(
                    cold_atom,
                    DriveConfig.from_hz(db_hz, phi, 20e3, 5e3),
                    96,
                )
                for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False)
            ]
            return (max(values) - min(values)) / np.mean(values)

        assert depth(0.0) < depth(80.0) / 50.0

    def test_substitution_symmetry_end_to_end(self, cold_atom, warm_atom, rng):
        for params, oc, op in ((cold_atom, 20e3, 5e3), (warm_atom, 240e3, 60e3)):
            drive = DriveConfig.from_hz(
                rng.uniform(-100, 100), rng.uniform(0, 2 * np.pi), oc, op
            )
            t_direct = transmission(params, drive, 96)
            t_image = transmission(params, substitution_image(drive), 96)
            assert abs(t_direct - t_image) < 1e-8

    def test_two_pi_periodicity(self, cold_atom):
        drive_a = DriveConfig.from_hz(40.0, 0.9, 20e3, 5e3)
        drive_b = DriveConfig.from_hz(40.0, 0.9 + 2 * np.pi, 20e3, 5e3)
        assert drive_a.phi == pytest.approx(drive_b.phi, abs=1e-12)
        assert transmission(cold_atom, drive_a, 48) == pytest.approx(
            transmission(cold_atom, drive_b, 48), abs=1e-12
        )

    def test_weak_probe_single_leg_half_depth(self, cold_atom):
        # A weak lone circular field addresses half the ground population,
        # so the four-level medium attenuates it by about exp(-OD/2).
        drive = DriveConfig(0.0, 0.0, 0.0, 0.0)
        fields = np.array([1e-3 * cold_atom.gamma_pop, 0j])
        out = propagate(fields, cold_atom, drive, 128)
        got = abs(out[0]) ** 2 / abs(fields[0]) ** 2
        assert got == pytest.approx(
            np.exp(-0.5 * cold_atom.optical_depth), rel=2e-3
        )



def kernel_residual(gen):
    """The relative residual steady_state_matrix checks, recomputed: the
    refined real solve of the trace-augmented system -gen x + n e0 Tr x =
    n e0, n the Frobenius norm of gen and Tr x the sum of the first four
    Hermitian coordinates, taken before normalisation."""
    scale = math.sqrt(np.vdot(gen, gen))
    a = -gen
    a[0, :4] += scale
    b = np.zeros(16)
    b[0] = scale
    x = refined_solve(a, b)
    return np.linalg.norm(gen @ x) / np.linalg.norm(gen)


PRESET_FIXTURES = pytest.mark.parametrize(
    "atom_name, drive_name",
    [("cold_atom", "cold_drive"), ("warm_atom", "warm_drive")],
    ids=["cold", "warm"],
)


class TestResidualRecord:
    """max_steady_residual is the residual the stage solves check."""

    N_STEPS = 32

    @PRESET_FIXTURES
    def test_record_leaves_transmission_bit_identical(self, request,
                                                      atom_name, drive_name):
        atom = request.getfixturevalue(atom_name)
        drive = request.getfixturevalue(drive_name)
        assert (transmission(atom, drive, self.N_STEPS, record={})
                == transmission(atom, drive, self.N_STEPS))

    @PRESET_FIXTURES
    def test_records_running_max_of_checked_residual(
            self, request, monkeypatch, atom_name, drive_name):
        atom = request.getfixturevalue(atom_name)
        drive = request.getfixturevalue(drive_name)
        real = propagation.steady_state_matrix
        residuals = []

        def recomputing(gen, **kwargs):
            residuals.append(kernel_residual(gen))
            return real(gen, **kwargs)

        monkeypatch.setattr(propagation, "steady_state_matrix", recomputing)
        record = {}
        transmission(atom, drive, self.N_STEPS, record=record)
        recorded = record["max_steady_residual"]
        assert len(residuals) == 4 * self.N_STEPS
        assert 0.0 < recorded <= 1e-8
        assert recorded == pytest.approx(max(residuals), rel=1e-12,
                                         abs=0.0)

    def test_refinement_march_is_not_recorded(self, cold_atom, cold_drive):
        plain, verified = {}, {}
        transmission(cold_atom, cold_drive, self.N_STEPS, record=plain)
        transmission(cold_atom, cold_drive, self.N_STEPS,
                     verify_refinement=True, record=verified)
        assert "refinement_delta" in verified
        assert (verified["max_steady_residual"]
                == plain["max_steady_residual"])

    def test_free_space_leaves_held_value(self, cold_atom, cold_drive):
        # A free-space march solves nothing, so nothing is folded in.
        held = {"max_steady_residual": 0.5}
        transmission(free_space(cold_atom), cold_drive, self.N_STEPS,
                     record=held)
        assert held == {"max_steady_residual": 0.5}

    def test_march_keeps_larger_held_value(self, cold_atom, cold_drive):
        # The record is a running max, not reset at the start of a march.
        held = {"max_steady_residual": 1.0}
        transmission(cold_atom, cold_drive, self.N_STEPS, record=held)
        assert held == {"max_steady_residual": 1.0}

    def test_kernel_record_leaves_state_unchanged(self, cold_atom,
                                                  cold_drive):
        gen = circular_template(cold_atom).generator(
            cold_drive.delta_b, *input_fields(cold_drive)
        )
        record = {}
        rho = steady_state_matrix(gen, record=record)
        assert np.array_equal(rho, steady_state_matrix(gen))
        assert record["max_steady_residual"] == pytest.approx(
            kernel_residual(gen), rel=1e-12, abs=0.0
        )
        # A running max: a larger value already held is kept.
        held = {"max_steady_residual": 1.0}
        steady_state_matrix(gen, record=held)
        assert held["max_steady_residual"] == 1.0


def _propagate(atom, drive, n_steps):
    return propagate(input_fields(drive), atom, drive, n_steps)


def _sideband_transfer(atom, drive, n_steps):
    return sideband_transfer(atom, drive, [5.0], n_steps)


MARCHES = pytest.mark.parametrize(
    "march", [_propagate, _sideband_transfer],
    ids=["propagate", "sideband_transfer"],
)


def _pulse_response(atom, drive, n_steps):
    pulse = PulseSpec(fwhm=0.005, peak_omega_p=drive.omega_p, n_samples=256)
    return pulse_response(atom, drive, pulse, n_steps)


def _bare_transition(atom, _drive, n_steps):
    return bare_transition_transmission(atom, n_steps=n_steps)


EVERY_MARCH = pytest.mark.parametrize(
    "march", [_propagate, _sideband_transfer, _pulse_response,
              _bare_transition],
    ids=["propagate", "sideband_transfer", "pulse_response",
         "bare_transition_transmission"],
)
EVERY_CELL = pytest.mark.parametrize(
    "preset", ["fig3-cold", "fig4-warm", "free-space"])


def _rejected_before_any_work(monkeypatch, march, n_steps, preset, message):
    # The check runs before any work, so a free-space cell, which solves
    # nothing, is rejected too; the stubs fail any march that starts.
    def started(*args, **kwargs):
        raise AssertionError("the march started before the grid check")

    for module in (propagation, spectroscopy):
        monkeypatch.setattr(module, "z_march", started)
        monkeypatch.setattr(module, "calibrate_kappa", started)
    atom = preset_atom("fig3-cold" if preset == "free-space" else preset)
    if preset == "free-space":
        atom = free_space(atom)
    drive = preset_drive("fig3-cold")
    with pytest.raises(ValueError, match=message):
        march(atom, drive, n_steps)


@EVERY_MARCH
@pytest.mark.parametrize("n_steps", [-4, 0, 8, 15])
@EVERY_CELL
def test_every_march_rejects_a_coarse_grid(monkeypatch, march, n_steps,
                                           preset):
    _rejected_before_any_work(monkeypatch, march, n_steps, preset,
                              "^n_steps must be at least 16$")


@EVERY_MARCH
@pytest.mark.parametrize("n_steps", [20.0, 16.5])
@EVERY_CELL
def test_every_march_rejects_a_non_integer_grid(monkeypatch, march, n_steps,
                                                preset):
    # 20.0 used to pass the count check and fail in range() or np.tile.
    _rejected_before_any_work(
        monkeypatch, march, n_steps, preset,
        f"^n_steps must be an integer, got {re.escape(repr(n_steps))}$")


@EVERY_MARCH
@EVERY_CELL
def test_every_march_rejects_a_grid_too_large_for_a_float(monkeypatch, march,
                                                          preset):
    # length / n_steps used to raise a bare OverflowError.
    _rejected_before_any_work(
        monkeypatch, march, 10**400, preset,
        "^n_steps is an integer too large for a float$")


def test_numpy_integer_grid_accepted(cold_atom, cold_drive):
    assert transmission(cold_atom, cold_drive, np.int64(16)) == transmission(
        cold_atom, cold_drive, 16)


class TestFailurePaths:
    """A failure inside the z integration must name its z."""

    N_STEPS = 16

    def stage_hook(self, monkeypatch, on_call):
        # Route every stage solve through on_call(n, solve): n counts the
        # solves from 1, so stage s of 0-based step k is n = 4k + s, and
        # solve() runs the real solver.
        real = propagation.steady_state_matrix
        calls = []

        def hooked(gen, **kwargs):
            calls.append(None)
            return on_call(len(calls), lambda: real(gen, **kwargs))

        monkeypatch.setattr(propagation, "steady_state_matrix", hooked)

    @MARCHES
    def test_steady_state_failure_names_stage_z(self, cold_atom, cold_drive,
                                                monkeypatch, march):
        # Stage 2 of step 2 (0-based) solves at z = 2.5 h.
        def on_call(n, solve):
            if n == 4 * 2 + 2:
                raise SteadyStateError("injected")
            return solve()

        self.stage_hook(monkeypatch, on_call)
        h = cold_atom.cell_length / self.N_STEPS
        with pytest.raises(PropagationError) as info:
            march(cold_atom, cold_drive, self.N_STEPS)
        assert str(info.value).startswith(
            f"steady-state solve failed at z = {2.5 * h:.6g} m: injected"
        )
        assert isinstance(info.value.__cause__, SteadyStateError)

    @MARCHES
    def test_non_finite_derivative_reports_divergence(
            self, cold_atom, cold_drive, monkeypatch, march):
        # From step 5 (0-based) on every stage sees NaN coherences.  The
        # sideband solves reject a NaN seed themselves, naming delta, so
        # they are stubbed out to let the NaN reach the z loop.
        def on_call(n, solve):
            if n > 4 * 5:
                return np.full((4, 4), np.nan, dtype=complex)
            return solve()

        self.stage_hook(monkeypatch, on_call)
        monkeypatch.setattr(spectroscopy, "solve_sideband",
                            lambda gen, delta, seed: np.zeros_like(seed))
        h = cold_atom.cell_length / self.N_STEPS
        with pytest.raises(PropagationError) as info:
            march(cold_atom, cold_drive, self.N_STEPS)
        assert str(info.value) == f"field diverged at z = {6 * h:.6g} m"

    def test_bare_transition_divergence_names_z(self, cold_atom, monkeypatch):
        # An infinite kappa makes the field non-finite in the first step.
        monkeypatch.setattr(propagation, "calibrate_kappa", lambda _: np.inf)
        h = cold_atom.cell_length / self.N_STEPS
        with np.errstate(invalid="ignore"), \
                pytest.raises(PropagationError) as info:
            bare_transition_transmission(cold_atom, n_steps=self.N_STEPS)
        assert str(info.value) == f"field diverged at z = {h:.6g} m"

    def test_non_finite_generator_names_z(self, cold_atom, cold_drive):
        # NaN input fields give a NaN generator at the first stage, z = 0.
        fields = np.array([np.nan, 1.0 + 0j])
        with pytest.raises(PropagationError) as info:
            propagate(fields, cold_atom, cold_drive, self.N_STEPS)
        assert str(info.value) == (
            "steady-state solve failed at z = 0 m: "
            "generator has non-finite entries"
        )
        assert isinstance(info.value.__cause__, SteadyStateError)


def test_carrier_solve_counts(cold_atom, cold_drive, monkeypatch):
    # The counts the benchmark asserts, at the binding the shared carrier
    # stage calls: 4 solves per z step, per transmission and per bin.
    real = propagation.steady_state_matrix
    calls = []

    def counted(gen, **kwargs):
        calls.append(None)
        return real(gen, **kwargs)

    monkeypatch.setattr(propagation, "steady_state_matrix", counted)
    n_steps = 16
    transmission(cold_atom, cold_drive, n_steps)
    assert len(calls) == 4 * n_steps
    calls.clear()
    sideband_transfer(cold_atom, cold_drive, [-5.0, 0.0, 5.0], n_steps)
    assert len(calls) == 3 * 4 * n_steps
