"""Master-equation generator, steady state and time evolution.

The Hamiltonian couples each circular field to both excited states,

    H = (delta_b/2)(|3><3| - |4><4|) + Delta |1><1|
        + Omega_1 (|2><3| + |1><3|) + Omega_2 (|2><4| - |1><4|) + h.c.

with every quantity an angular frequency.  Dissipation is Lindblad form:
each excited state decays at gamma_e with equal branching into the two
ground states; the ground block relaxes toward the unpolarized mixture
diag(1/2, 1/2) at gamma_pop; the remaining circular-basis ground
coherence decay (gamma_coh - gamma_pop) is pure dephasing, which requires
gamma_coh >= gamma_pop.  With this set the circular ground population
difference decays at exactly gamma_pop and rho_34 at exactly gamma_coh.

States are vectorized row-major: vec(A rho B) = (A kron B^T) vec(rho).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .core import (
    AtomParams,
    DriveConfig,
    SimulationError,
    TWO_PI,
    validate_density_matrix,
)

DIM = 4
I4 = np.eye(DIM)

#: Relative residual allowed on generator * vec(rho) after the solve.
STEADY_RESIDUAL_TOL = 1e-8

#: Singular values below this fraction of the largest count as null: far
#: above machine-level null values and far below the slowest physical
#: rate for any realistic parameter set.
NULLSPACE_REL_TOL = 1e-11

#: Trace drift at which fixed-step integration is declared unstable.
TRACE_DRIFT_LIMIT = 1e-6


class SteadyStateError(SimulationError):
    """Steady-state solve failed or is not unique."""


def _op(i: int, j: int) -> np.ndarray:
    m = np.zeros((DIM, DIM), dtype=complex)
    m[i, j] = 1.0
    return m


# Coupling operators multiplying each complex Rabi amplitude (the h.c.
# partner multiplies the conjugate amplitude).
COUPLING_FIELD1 = _op(1, 2) + _op(0, 2)          # |2><3| + |1><3|
COUPLING_FIELD2 = _op(1, 3) - _op(0, 3)          # |2><4| - |1><4|

# Zeeman operator per unit delta_b and the excited-splitting projector.
ZEEMAN_CIRCULAR = 0.5 * (_op(2, 2) - _op(3, 3))
UPPER_PROJECTOR = _op(0, 0)

# Complex LU factorisation and back-substitution, bound once.
_getrf, _getrs = get_lapack_funcs(
    ("getrf", "getrs"), (np.empty((1, 1), dtype=complex),)
)

#: Row functional extracting the trace from a row-major vectorized state.
TRACE_ROW = np.eye(DIM, dtype=complex).reshape(-1)


def commutator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator for -i[op, .] acting on row-major vec(rho)."""
    return -1j * (np.kron(op, I4) - np.kron(I4, op.T))


def dissipator_superop(jump_ops) -> np.ndarray:
    """Lindblad dissipator superoperator for a list of jump operators."""
    total = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for L in jump_ops:
        ldl = L.conj().T @ L
        total += np.kron(L, L.conj())
        total -= 0.5 * (np.kron(ldl, I4) + np.kron(I4, ldl.T))
    return total


def jump_operators(params: AtomParams) -> list:
    """Jump operators realizing the decay model."""
    branch = math.sqrt(params.gamma_e / 2.0)
    reset = math.sqrt(params.gamma_pop / 2.0)
    ops = [
        branch * _op(2, 0), branch * _op(3, 0),   # |1> -> |3>, |4>
        branch * _op(2, 1), branch * _op(3, 1),   # |2> -> |3>, |4>
        reset * _op(2, 2), reset * _op(2, 3),
        reset * _op(3, 2), reset * _op(3, 3),
    ]
    dephase = params.gamma_coh - params.gamma_pop
    if dephase > 0.0:
        ops.append(math.sqrt(dephase / 2.0) * (_op(2, 2) - _op(3, 3)))
    return ops


@dataclass(frozen=True, eq=False)
class GeneratorTemplate:
    """Generator pieces linear in (delta_b, field, conj(field)).

    basis stacks the six (16, 16) pieces in the order static, zeeman,
    drive_a, drive_a_conj, drive_b, drive_b_conj; assembling a generator
    is one product of their coefficients with the flattened stack, which
    keeps per-point cost low inside sweeps and propagation loops.
    """

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_flat", self.basis.reshape(6, -1))

    static = property(lambda self: self.basis[0])
    zeeman = property(lambda self: self.basis[1])
    drive_a = property(lambda self: self.basis[2])
    drive_a_conj = property(lambda self: self.basis[3])
    drive_b = property(lambda self: self.basis[4])
    drive_b_conj = property(lambda self: self.basis[5])

    def generator(self, delta_b: float, amp_a: complex, amp_b: complex) -> np.ndarray:
        # Python complexes build the coefficient array faster than the
        # numpy scalars callers index out of field arrays.
        amp_a, amp_b = complex(amp_a), complex(amp_b)
        coeffs = np.array([1.0, delta_b, amp_a, amp_a.conjugate(),
                           amp_b, amp_b.conjugate()], dtype=complex)
        return (coeffs @ self._flat).reshape(DIM * DIM, DIM * DIM)


@functools.lru_cache(maxsize=16)
def circular_template(params: AtomParams) -> GeneratorTemplate:
    """Template over (delta_b, Omega_1, Omega_2) in the circular basis.

    Built once per distinct AtomParams and shared: the basis is read-only
    and generator() returns a fresh array.
    """
    static = (params.delta_exc * commutator_superop(UPPER_PROJECTOR)
              + dissipator_superop(jump_operators(params)))
    pieces = [static, commutator_superop(ZEEMAN_CIRCULAR)]
    for coupling in (COUPLING_FIELD1, COUPLING_FIELD2):
        pieces += [commutator_superop(coupling),
                   commutator_superop(coupling.conj().T)]
    basis = np.stack(pieces)
    basis.flags.writeable = False
    return GeneratorTemplate(basis)


def nullspace_dimension(generator: np.ndarray) -> int:
    """Number of singular values below NULLSPACE_REL_TOL times the
    largest."""
    sv = np.linalg.svd(generator, compute_uv=False)
    return int(np.sum(sv < NULLSPACE_REL_TOL * sv[0]))


def refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by LU plus one step of iterative refinement.

    b is one right-hand side or a block of them as columns.  a is
    factored once; both back-substitutions use that factorisation
    and the refinement residual is taken against the exact a.  Raises
    np.linalg.LinAlgError when a is exactly singular.
    """
    lu, piv, info = _getrf(a)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    x = _getrs(lu, piv, b)[0]
    x += _getrs(lu, piv, b - a @ x)[0]
    return x


def _unsolved(generator: np.ndarray, message: str) -> SteadyStateError:
    """The error for a failed steady-state solve: a degenerate kernel
    (found with one SVD) if that is the cause, else message."""
    kernel = nullspace_dimension(generator)
    if kernel > 1:
        return SteadyStateError(
            "degenerate steady state: generator kernel has dimension "
            f"{kernel}"
        )
    return SteadyStateError(message)


def steady_state_matrix(generator: np.ndarray) -> np.ndarray:
    """Unique unit-trace kernel element of the generator as a 4x4 matrix.

    One row of the generator is replaced by the trace constraint and the
    resulting dense system solved by LU with one step of iterative
    refinement.  The residual of the *original* equations is always
    checked.
    """
    magnitude = np.abs(generator)
    scale = magnitude.max()
    if not math.isfinite(scale):
        raise SteadyStateError("generator has non-finite entries")
    if scale == 0.0:
        raise SteadyStateError("zero generator has no unique steady state")
    a = generator.copy()
    a[0] = 0.0
    a[0, ::DIM + 1] = scale   # TRACE_ROW * scale
    b = np.zeros(DIM * DIM, dtype=complex)
    b[0] = scale
    try:
        vec = refined_solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _unsolved(
            generator, f"steady-state solve failed: {exc}"
        ) from exc

    gen_norm = math.sqrt(np.vdot(magnitude, magnitude))
    r = generator @ vec
    residual = math.sqrt(np.vdot(r, r).real)
    if not math.isfinite(residual) or residual > STEADY_RESIDUAL_TOL * gen_norm:
        raise _unsolved(
            generator,
            f"steady-state residual {residual:.3e} exceeds "
            f"{STEADY_RESIDUAL_TOL:.0e} * ||generator|| = "
            f"{STEADY_RESIDUAL_TOL * gen_norm:.3e}",
        )

    rho = vec.reshape(DIM, DIM)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    try:
        validate_density_matrix(rho)
    except ValueError as exc:
        raise SteadyStateError(f"steady state is unphysical: {exc}") from exc
    return rho


def rk4_step(rhs, y, t: float, h: float):
    """One classical RK4 step of dy/dt = rhs(y, t) from t to t + h.

    Plain arithmetic only, so y may be a Python complex or a complex array.
    """
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = rhs(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = rhs(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def time_evolve(rho0: np.ndarray, generator: np.ndarray, t_final: float,
                dt: float) -> np.ndarray:
    """Integrate d(rho)/dt = generator . rho with classical RK4.

    Fixed step; the final partial step is shortened to land on t_final.
    Explicit stepping demands dt below the stability limit set by the
    fastest generator eigenvalue, so long horizons at stiff parameters
    belong to evolve_expm instead.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_final < 0.0:
        raise ValueError("t_final must be non-negative")
    vec = np.array(rho0, dtype=complex).reshape(-1)
    trace_ref = np.real(TRACE_ROW @ vec)

    n_full, remainder = divmod(t_final, dt)
    steps = [dt] * int(n_full)
    if remainder > 1e-15 * max(t_final, dt):
        steps.append(remainder)
    for k, h in enumerate(steps):
        vec = rk4_step(lambda v, _t: generator @ v, vec, k * dt, h)
        drift = abs(np.real(TRACE_ROW @ vec) - trace_ref)
        if not np.isfinite(drift) or drift > TRACE_DRIFT_LIMIT:
            raise SimulationError(
                f"trace drift {drift:.3e} after step {k + 1} signals "
                f"step-size instability; decrease dt below {h:.3e}"
            )
    return vec.reshape(DIM, DIM)


def evolve_expm(rho0: np.ndarray, generator: np.ndarray,
                t_final: float) -> np.ndarray:
    """Apply the exact semigroup exp(generator * t) to a state.

    Scaling-and-squaring matrix exponential on the 16x16 generator; valid
    at any stiffness and horizon, which makes it the long-time companion
    oracle to the algebraic steady-state solve.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be non-negative")
    vec = np.array(rho0, dtype=complex).reshape(-1)
    propagator = expm(generator * t_final)
    rho = (propagator @ vec).reshape(DIM, DIM)
    return 0.5 * (rho + rho.conj().T)


def substitution_image(drive: DriveConfig) -> DriveConfig:
    """Drive guaranteed to produce identical probe observables.

    Reversing the magnetic field while advancing the relative phase by pi
    conjugates the generator by a fixed unitary, so every probe observable
    coincides between the two drives.
    """
    return DriveConfig(
        delta_b=-drive.delta_b,
        phi=(drive.phi + math.pi) % TWO_PI,
        omega_c=drive.omega_c,
        omega_p=drive.omega_p,
        delta_probe=drive.delta_probe,
    )
