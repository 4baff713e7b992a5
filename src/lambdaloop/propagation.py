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

    Equal, to 1e-12 of max(|O1|^2 + |O2|^2, 1), to the interference form
    (|O1|^2 + |O2|^2 - 2|O1||O2| cos(arg O1 - arg O2))/2, as
    tests/test_propagation.py::TestProbePower::test_interference_identity
    checks from 1e-300 to 1e150; a pair too large to square reads inf.
    """
    return abs(to_linear(fields)[1]) ** 2


def field_derivative(kappa: float, rho: np.ndarray) -> np.ndarray:
    """d(Omega_1, Omega_2)/dz = -i kappa Tr(V_k^dagger rho), k = 1, 2.

    rho is a vectorised state (16,) or a (16, k) block of vectorised
    states, one per column, all read in one product; the result is (2,)
    or (2, k).
    """
    # ndarray.dot: less per-call overhead than @ on these small operands.
    return (-1j * kappa) * FIELD_ROWS.dot(rho)


def carrier_stage(template, delta_b, fields, z, record=None):
    """Generator and vectorised steady state (16,) at (Omega_1, Omega_2)
    = fields[:2], the state in the layout field_derivative reads.

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
    return gen, rho.ravel()


def check_steps(n_steps: int) -> None:
    """Reject a z grid that is not an integer count of at least MIN_STEPS
    steps; every march calls this before it does any work, whatever the
    optical depth."""
    if _require_int("n_steps", n_steps) < MIN_STEPS:
        raise ValueError(f"n_steps must be at least {MIN_STEPS}")


def z_march(rhs, state, length, n_steps):
    """Classical RK4 of dstate/dz = rhs(state, z) over z in [0, length].

    Plain arithmetic only, so the state may be a Python complex or a
    complex array.  Returns the state at z = length.  A non-finite state
    raises PropagationError naming the z it was reached at.
    """
    h = length / n_steps
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
    return state


def propagate(fields_in, params: AtomParams, drive: DriveConfig,
              n_steps: int = 256, *, record: dict | None = None) -> np.ndarray:
    """Propagate a circular pair (Omega_1, Omega_2) through the cell.

    Returns the output pair, a (2,) complex array; a free-space cell
    returns a copy of the input.  The probe one-photon detuning
    in `drive` is ignored here; both fields are degenerate in this path.
    A record, if given, is passed to the stage solves, which fold their
    checked residuals into record["max_steady_residual"] as a running
    max (steady_state_matrix); a free-space cell solves nothing and
    leaves it alone.  The grid-refinement check belongs to transmission,
    which compares probe powers.
    """
    check_steps(n_steps)
    fields_in = np.asarray(fields_in, dtype=complex)
    kappa = calibrate_kappa(params)
    if kappa == 0.0:
        return fields_in.copy()

    template = circular_template(params)

    def rhs(f, z):
        _, vec = carrier_stage(template, drive.delta_b, f, z, record)
        return field_derivative(kappa, vec)

    return z_march(rhs, fields_in, params.cell_length, n_steps)


def transmission(params: AtomParams, drive: DriveConfig, n_steps: int = 256,
                 *, verify_refinement: bool = False,
                 record: dict | None = None) -> float:
    """Probe intensity transmission, output power over input power.

    Values above 1 are physical: the closed-loop medium can pump power
    from the control into the probe.  The input probe power is read back
    from the circular input pair, where (Omega_c +/- Omega_p)/sqrt(2)
    cancel; a probe so weak that this read-back is 0 or off |Omega_p|^2
    by more than REFINEMENT_TOL relative raises ValueError before
    anything is solved.  A record, if given, goes to the n_steps march.

    This function owns the grid-refinement check: with verify_refinement
    the march is repeated at 2*n_steps without the record, and a
    RefinementWarning naming the caller's line is emitted if the output
    probe power moved by more than REFINEMENT_TOL relative; the record
    also receives that change as refinement_delta.
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
    p_out = probe_power(
        propagate(fields_in, params, drive, n_steps, record=record))
    if verify_refinement:
        fine_p = probe_power(propagate(fields_in, params, drive, 2 * n_steps))
        ref = max(abs(fine_p), abs(fields_in[0]) ** 2 * 1e-30)
        delta = abs(p_out - fine_p) / ref
        if record is not None:
            record["refinement_delta"] = delta
        if delta > REFINEMENT_TOL:
            warnings.warn(
                f"probe power changed by {delta:.3e} relative when the "
                f"z grid was doubled from {n_steps} steps",
                RefinementWarning,
                stacklevel=2,
            )
    return p_out / p_in


def bare_transition_transmission(params: AtomParams,
                                 n_steps: int = 512) -> float:
    """Brute-force two-level check of the kappa calibration.

    Propagates a weak resonant field of amplitude 1e-4 * gamma_e through
    a bare |3> -> |2> two-level medium (full population in the ground
    state, decay gamma_e back to it) using the calibrated kappa.  The
    returned intensity transmission must equal exp(-OD); this is the
    oracle pinning the sign and the factor in calibrate_kappa.  It shares
    only the superoperator formulas with the four-level model and makes
    its own trace-row solves.
    """
    check_steps(n_steps)
    gamma = params.gamma_e
    omega_probe = 1e-4 * gamma
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

    amp = z_march(rhs, complex(omega_probe), params.cell_length, n_steps)
    return abs(amp) ** 2 / omega_probe**2
