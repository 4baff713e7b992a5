"""Field propagation through the optically thick cell.

The two circular envelopes obey slowly-varying-amplitude equations

    dOmega_k/dz = -i kappa Tr(V_k^dagger rho),    k = 1, 2,

with V_k the circular couplings of the liouvillian (COUPLING_FIELD1/2)
and rho the local steady state, recomputed at every integrator stage
(no interpolation).  The overall sign is fixed operationally: a weak
resonant field on the bare two-level transition must attenuate as
exp(-OD) in intensity, which the calibration oracle below checks by
brute force.

kappa is calibrated from the optical depth rather than from microscopic
constants: kappa = OD * gamma_e / (4 L) under the Rabi convention used
by the Hamiltonian.
"""
from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .core import (
    AtomParams,
    DriveConfig,
    SimulationError,
    _require_int,
    input_fields,
    to_linear,
)
from .liouvillian import (
    COUPLING_FIELD1,
    COUPLING_FIELD2,
    SteadyStateError,
    circular_template,
    commutator_superop,
    dissipator_superop,
    steady_state_matrix,
)

#: Relative change between n and 2n steps above which refinement warns.
REFINEMENT_TOL = 1e-6

#: Agreement required between the two probe-power expressions.
POWER_IDENTITY_TOL = 1e-12

#: Fewest z steps any march accepts.
MIN_STEPS = 16

#: Row functionals Tr(V_k^dagger rho) on a vectorised state, one per field:
#: the row-major flattening of each circular coupling V_k, which is real.
FIELD_ROWS = np.stack((COUPLING_FIELD1, COUPLING_FIELD2)).reshape(2, -1)


class PropagationError(SimulationError):
    """Steady-state failure at a specific position in the cell."""


class RefinementWarning(UserWarning):
    """Grid-doubling check exceeded the refinement tolerance."""


def calibrate_kappa(params: AtomParams) -> float:
    """Coupling constant reproducing exp(-OD) bare-transition loss."""
    return params.optical_depth * params.gamma_e / (4.0 * params.cell_length)


def probe_power(fields) -> float:
    """Probe power |Omega_p|^2 of a circular pair (Omega_1, Omega_2).

    The power from the basis transform is cross-checked against the
    interference form (|O1|^2 + |O2|^2 - 2|O1||O2| cos(theta))/2 with
    theta = arg(O1) - arg(O2) before it is returned.
    """
    o1, o2 = complex(fields[0]), complex(fields[1])
    theta = cmath.phase(o1) - cmath.phase(o2)
    interference = (
        abs(o1) ** 2 + abs(o2) ** 2 - 2.0 * abs(o1) * abs(o2) * math.cos(theta)
    ) / 2.0
    direct = abs(to_linear(fields)[1]) ** 2
    scale = abs(o1) ** 2 + abs(o2) ** 2
    if abs(interference - direct) > POWER_IDENTITY_TOL * max(scale, 1.0):
        raise SimulationError(
            "probe-power expressions disagree: "
            f"{interference!r} vs {direct!r}"
        )
    return direct


def field_derivative(kappa: float, rho: np.ndarray) -> np.ndarray:
    """d(Omega_1, Omega_2)/dz = -i kappa Tr(V_k^dagger rho), k = 1, 2.

    rho is a 4x4 state, a vectorised one (16,) or a (16, k) block of
    vectorised states, one per column, all read in one product; the
    result is (2,) or (2, k).
    """
    if rho.shape == (4, 4):
        rho = rho.ravel()
    # ndarray.dot: less per-call overhead than @ on these small operands.
    return (-1j * kappa) * FIELD_ROWS.dot(rho)


def carrier_stage(template, delta_b, fields, z, record=None):
    """Generator and steady state at (Omega_1, Omega_2) = fields[:2].

    Solves through this module's steady_state_matrix, passing record on;
    a failure is re-raised as PropagationError naming z.
    """
    gen = template.generator(delta_b, fields[0], fields[1])
    try:
        rho = steady_state_matrix(gen, record=record)
    except SteadyStateError as exc:
        raise PropagationError(
            f"steady-state solve failed at z = {z:.6g} m: {exc}"
        ) from exc
    return gen, rho


def check_steps(n_steps: int) -> None:
    """Reject a z grid that is not an integer count of at least MIN_STEPS
    steps; every march calls this before it does any work, whatever the
    optical depth."""
    if _require_int("n_steps", n_steps) < MIN_STEPS:
        raise ValueError(f"n_steps must be at least {MIN_STEPS}")


def z_march(rhs, state, length, n_steps):
    """Classical RK4 of dstate/dz = rhs(state, z) over z in [0, length].

    Plain arithmetic only, so the state may be a Python complex or a
    complex array.  Returns the state at every z, an (n_steps + 1,
    len(state)) array.  A non-finite state raises PropagationError naming
    the z it was reached at.
    """
    h = length / n_steps
    profile = [state]
    for k in range(n_steps):
        z = k * h
        k1 = rhs(state, z)
        k2 = rhs(state + 0.5 * h * k1, z + 0.5 * h)
        k3 = rhs(state + 0.5 * h * k2, z + 0.5 * h)
        k4 = rhs(state + h * k3, z + h)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # Counting the finite entries costs less per call than .all().
        if np.count_nonzero(np.isfinite(state)) != np.size(state):
            raise PropagationError(f"field diverged at z = {(k + 1) * h:.6g} m")
        profile.append(state)
    return np.array(profile)


def propagate(fields_in, params: AtomParams, drive: DriveConfig,
              n_steps: int = 256, *, verify_refinement: bool = False,
              record: dict | None = None) -> np.ndarray:
    """Propagate a circular pair (Omega_1, Omega_2) through the cell.

    Returns the pair at every z of the grid, an (n_steps + 1, 2) complex
    array whose first row is the input.  The probe one-photon detuning
    in `drive` is ignored here; both fields are degenerate in this path.
    With verify_refinement the run is repeated at 2*n_steps and a
    RefinementWarning is emitted if the probe output power moved by more
    than 1e-6 relative.  A record, if given, is passed to the stage
    solves of the n_steps march, which fold their checked residuals into
    record["max_steady_residual"] as a running max (steady_state_matrix);
    a free-space cell solves nothing and leaves it alone.  With
    verify_refinement it also receives the refinement_delta.
    """
    check_steps(n_steps)
    fields_in = np.asarray(fields_in, dtype=complex)
    kappa = calibrate_kappa(params)
    if kappa == 0.0:
        return np.tile(fields_in, (n_steps + 1, 1))

    template = circular_template(params)

    def march(steps, stage_record):
        def rhs(f, z):
            _, rho = carrier_stage(template, drive.delta_b, f, z,
                                   stage_record)
            return field_derivative(kappa, rho)

        return z_march(rhs, fields_in, params.cell_length, steps)

    profile = march(n_steps, record)
    if verify_refinement:
        fine = march(2 * n_steps, None)
        coarse_p = probe_power(profile[-1])
        fine_p = probe_power(fine[-1])
        ref = max(abs(fine_p), abs(fields_in[0]) ** 2 * 1e-30)
        delta = abs(coarse_p - fine_p) / ref
        if record is not None:
            record["refinement_delta"] = delta
        if delta > REFINEMENT_TOL:
            warnings.warn(
                f"probe power changed by {delta:.3e} relative when the "
                f"z grid was doubled from {n_steps} steps",
                RefinementWarning,
                stacklevel=2,
            )
    return profile


def transmission(params: AtomParams, drive: DriveConfig, n_steps: int = 256,
                 *, verify_refinement: bool = False,
                 record: dict | None = None) -> float:
    """Probe intensity transmission, output power over input power.

    Values above 1 are physical: the closed-loop medium can pump power
    from the control into the probe.  The input probe power is read back
    from the circular input pair, where (Omega_c +/- Omega_p)/sqrt(2)
    cancel; a probe so weak that this read-back is 0 or off |Omega_p|^2
    by more than REFINEMENT_TOL relative raises ValueError before
    anything is solved.
    """
    if drive.omega_p <= 0.0:
        raise ValueError("transmission requires a nonzero probe amplitude")
    fields_in = input_fields(drive)
    p_in = probe_power(fields_in)
    p_drive = drive.omega_p**2
    if not (p_in > 0.0
            and abs(p_in - p_drive) <= REFINEMENT_TOL * p_drive):
        raise ValueError(
            f"omega_p = {drive.omega_p!r} rad/s is below the resolution of "
            f"the circular pair: its probe power reads back as {p_in:.6g} "
            f"against omega_p^2 = {p_drive:.6g} (rad/s)^2"
        )
    profile = propagate(
        fields_in, params, drive, n_steps,
        verify_refinement=verify_refinement, record=record,
    )
    return probe_power(profile[-1]) / p_in


def bare_transition_transmission(params: AtomParams,
                                 omega_probe: float | None = None,
                                 n_steps: int = 512) -> float:
    """Brute-force two-level check of the kappa calibration.

    Propagates a weak resonant field through a bare |3> -> |2> two-level
    medium (full population in the ground state, decay gamma_e back to
    it) using the calibrated kappa.  The returned intensity transmission
    must equal exp(-OD); this is the oracle pinning the sign and the
    factor in calibrate_kappa.  It shares only the superoperator formulas
    with the four-level model and makes its own trace-row solves.
    """
    check_steps(n_steps)
    gamma = params.gamma_e
    if omega_probe is None:
        omega_probe = 1e-4 * gamma
    if not (math.isfinite(omega_probe) and omega_probe != 0.0):
        raise ValueError(
            f"omega_probe must be finite and nonzero, got {omega_probe!r}")
    kappa = calibrate_kappa(params)
    jump = np.array([[0.0, 0.0], [math.sqrt(gamma), 0.0]], dtype=complex)
    diss = dissipator_superop([jump])
    # -i[H, .] with H = amp |0><1| + conj(amp) |1><0|, one piece per
    # amplitude, so each stage only scales and sums them.
    raise_op = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    comm_amp = commutator_superop(raise_op)
    comm_conj = commutator_superop(raise_op.T)
    trace_row = np.eye(2).reshape(-1)
    unit_trace = np.zeros(4, dtype=complex)
    unit_trace[0] = 1.0

    def rhs(amp, _z):
        a = amp * comm_amp + np.conj(amp) * comm_conj + diss
        a[0] = trace_row
        # rho_01 of the row-major vectorized steady state.
        return -1j * kappa * np.linalg.solve(a, unit_trace)[1]

    amp = z_march(rhs, complex(omega_probe), params.cell_length, n_steps)[-1]
    return abs(amp) ** 2 / omega_probe**2
