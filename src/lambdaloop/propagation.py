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
    FIELD_ROWS,
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


class PropagationError(SimulationError):
    """A failed stage solve or a diverged field, named by its z."""


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


def field_rows(kappa: float) -> np.ndarray:
    """Rows -i kappa FIELD_ROWS, built once per march: their ndarray.dot
    with the coordinates x of a state, or a (16, k) block of them, is
    d(Omega_1, Omega_2)/dz = -i kappa Tr(V_k^dagger rho), k = 1, 2."""
    return (-1j * kappa) * FIELD_ROWS


def carrier_stage(template, delta_b, fields, record=None):
    """Generator and steady state at (Omega_1, Omega_2) = fields[:2]: the
    state as the real (16,) coordinates x that steady_state_matrix
    returns, the vector field_rows reads.

    Solves through this module's steady_state_matrix, passing record on;
    a failure raises SteadyStateError, which z_march names with its z.
    """
    gen = template.generator(delta_b, fields[0], fields[1])
    return gen, steady_state_matrix(gen, record=record)


def check_steps(n_steps: int) -> None:
    """Reject a z grid that is not an integer count of at least MIN_STEPS
    steps; every march calls this before it does any work, whatever the
    optical depth."""
    if _require_int("n_steps", n_steps) < MIN_STEPS:
        raise ValueError(f"n_steps must be at least {MIN_STEPS}")


def z_march(rhs, state, length, n_steps):
    """Classical RK4 of dstate/dz = rhs(state) over z in [0, length].

    The one owner of z.  Plain arithmetic only, so the state may be a
    Python complex or a complex array of any shape.  Returns the state at
    z = length.  A SteadyStateError in a stage becomes a chained
    PropagationError naming the stage's z, then the solve's message; a
    non-finite state raises one naming the z it was reached at.
    """
    def stage(y, z):
        try:
            return rhs(y)
        except SteadyStateError as exc:
            raise PropagationError(
                f"stage solve failed at z = {z:.6g} m: {exc}") from exc

    h = length / n_steps
    for k in range(n_steps):
        k1 = stage(state, k * h)
        k2 = stage(state + 0.5 * h * k1, (k + 0.5) * h)
        k3 = stage(state + 0.5 * h * k2, (k + 0.5) * h)
        k4 = stage(state + h * k3, (k + 1) * h)
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
    rows = field_rows(kappa)

    def rhs(f):
        _, x = carrier_stage(template, drive.delta_b, f, record)
        return rows.dot(x)

    return z_march(rhs, fields_in, params.cell_length, n_steps)


def probe_input(drive: DriveConfig) -> tuple[np.ndarray, float]:
    """The circular input pair of drive and its probe power read back.

    Every check transmission makes on the probe, one function so that
    the CLI makes the same ones: a zero probe, or one so weak that its
    power read back from the circular pair, where (Omega_c +/- Omega_p)
    /sqrt(2) cancel, is 0 or off |Omega_p|^2 by more than REFINEMENT_TOL
    relative, raises ValueError.
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
    return fields_in, p_in


def transmission(params: AtomParams, drive: DriveConfig, n_steps: int = 256,
                 *, verify_refinement: bool = False,
                 record: dict | None = None) -> float:
    """Probe intensity transmission, output power over input power.

    Values above 1 are physical: the closed-loop medium can pump power
    from the control into the probe.  The input probe power is read back
    from the circular input pair by probe_input, which rejects a zero or
    unresolved probe before anything is solved.  A record, if given,
    goes to the n_steps march.

    This function owns the grid-refinement check: with verify_refinement
    the march is repeated at 2*n_steps without the record, and a
    RefinementWarning naming the caller's line is emitted if the output
    probe power moved by more than REFINEMENT_TOL relative; the record
    also receives that change as refinement_delta.
    """
    fields_in, p_in = probe_input(drive)
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
    scale = -1j * kappa

    def rhs(amp):
        a = amp * comm_amp + np.conj(amp) * comm_conj + diss
        a[0] = trace_row
        # rho_01 of the row-major vectorized steady state.
        return scale * np.linalg.solve(a, unit_trace)[1]

    amp = z_march(rhs, complex(omega_probe), params.cell_length, n_steps)
    return abs(amp) ** 2 / omega_probe**2
