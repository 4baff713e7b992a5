"""Master-equation generator, steady state and exact time evolution.

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
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .core import (
    AtomParams,
    DriveConfig,
    SimulationError,
    _require_finite_value,
    validate_density_matrix,
)

DIM = 4

#: Relative residual allowed on generator * vec(rho) after the solve.
STEADY_RESIDUAL_TOL = 1e-8

#: Singular values below this fraction of the largest count as null: far
#: above machine-level null values and far below the slowest physical
#: rate for any realistic parameter set.
NULLSPACE_REL_TOL = 1e-11


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

# Complex LU factor-and-solve and back-substitution, bound once.
_gesv, _getrs = get_lapack_funcs(
    ("gesv", "getrs"), (np.empty((1, 1), dtype=complex),)
)


def commutator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator for -i[op, .] on row-major vec(rho), op of any size."""
    eye = np.eye(len(op))
    return -1j * (np.kron(op, eye) - np.kron(eye, op.T))


def dissipator_superop(jump_ops) -> np.ndarray:
    """Lindblad dissipator superoperator for jump operators of one size."""
    eye = np.eye(len(jump_ops[0]))
    total = np.zeros((eye.size, eye.size), dtype=complex)
    for L in jump_ops:
        ldl = L.conj().T @ L
        total += np.kron(L, L.conj())
        total -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
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

    def generator(self, delta_b: float, amp_a: complex, amp_b: complex) -> np.ndarray:
        # Python complexes build the coefficient array faster than the
        # numpy scalars callers index out of field arrays.
        amp_a, amp_b = complex(amp_a), complex(amp_b)
        coeffs = np.array([1.0, delta_b, amp_a, amp_a.conjugate(),
                           amp_b, amp_b.conjugate()], dtype=complex)
        # ndarray.dot: less per-call overhead than @ on these operands.
        return coeffs.dot(self._flat).reshape(DIM * DIM, DIM * DIM)


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


def _hermitian_basis() -> np.ndarray:
    """The unitary T taking row-major vec(rho) to real coordinates.

    Rows 0-3 read the populations rho_ii, rows 4-9 sqrt(2) Re rho_ij and
    rows 10-15 sqrt(2) Im rho_ij over the pairs i < j in row-major order,
    so T vec(rho) is real for Hermitian rho: T P = conj(T) for the
    transpose permutation P, vec(M) -> vec(M^T).  With D(v) = P conj(v),
    the map vec(M) -> vec(M^dagger), a superoperator L with D L D = L has
    P conj(L) P = L, so conj(T L T^dagger) = T P conj(L) P T^dagger =
    T L T^dagger is real.  Every generator of circular_template is such
    an L: D maps the static and Zeeman pieces to themselves and each
    drive piece to its _conj partner, so T X T^dagger of a drive piece X
    is the complex conjugate of T Y T^dagger for its partner Y.
    """
    pairs = [(i, j) for i in range(DIM) for j in range(i + 1, DIM)]
    t = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    t[range(DIM), range(0, DIM * DIM, DIM + 1)] = 1.0
    s = math.sqrt(0.5)
    for k, (i, j) in enumerate(pairs):
        re, im = DIM + k, DIM + len(pairs) + k
        t[re, DIM * i + j] = t[re, DIM * j + i] = s
        t[im, DIM * i + j], t[im, DIM * j + i] = -1j * s, 1j * s
    t.flags.writeable = False
    return t


#: Read-only 16x16 unitary to real Hermitian coordinates (_hermitian_basis).
HERMITIAN_BASIS = _hermitian_basis()


def nullspace_dimension(generator: np.ndarray) -> int:
    """Number of singular values below NULLSPACE_REL_TOL times the
    largest."""
    sv = np.linalg.svd(generator, compute_uv=False)
    return int(np.sum(sv < NULLSPACE_REL_TOL * sv[0]))


def refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by LU plus one step of iterative refinement.

    b is one right-hand side or a block of them as columns.  One gesv
    call factors a and solves for x; one getrs call on that LU then
    solves for the correction, with the refinement residual taken
    against the exact a.  Raises np.linalg.LinAlgError when a is exactly
    singular.
    """
    lu, piv, x, info = _gesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    x += _getrs(lu, piv, b - a.dot(x))[0]
    return x


def generator_norm(generator: np.ndarray) -> float:
    """Frobenius norm of a generator in one pass: inf when the sum of
    squared magnitudes overflows, and NaN or inf when an entry is not
    finite."""
    return math.sqrt(np.vdot(generator, generator).real)


def replace_trace_row(a: np.ndarray, scale: float) -> np.ndarray:
    """Overwrite row 0 of a 16x16 system with scale times the trace
    functional of a row-major vectorized state, in place.

    The replaced equation pins the trace of the solution, which singles
    out one solution of a system whose kernel is the generator's.  Every
    caller passes the generator's Frobenius norm (generator_norm) as
    scale, which keeps the row on the order of the other rows.  Returns a.
    """
    a[0] = 0.0
    a[0, ::DIM + 1] = scale
    return a


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


def _unscalable(generator: np.ndarray, norm: float) -> SteadyStateError:
    """The error for a generator whose Frobenius norm is not finite and
    positive: a non-finite entry, a zero generator, or, for finite
    nonzero entries, a norm that overflows or underflows."""
    if not np.isfinite(generator).all():
        return SteadyStateError("generator has non-finite entries")
    if not generator.any():
        return SteadyStateError("zero generator has no unique steady state")
    return SteadyStateError(
        f"generator norm {'overflows' if norm else 'underflows'} although "
        "every entry is finite"
    )


def steady_state_matrix(generator: np.ndarray, *,
                        record: dict | None = None) -> np.ndarray:
    """Unique unit-trace kernel element of the generator as a 4x4 matrix.

    One row of the generator is replaced by the trace constraint, scaled
    by the generator's Frobenius norm, and the resulting dense system
    solved by LU with one step of iterative refinement.  That one norm,
    taken in one pass, is also the reference of the residual check: the
    residual of the *original* equations must satisfy
    ||generator x|| <= STEADY_RESIDUAL_TOL * ||generator||_F, which a
    NaN residual fails.  With a record, the checked relative residual
    ||generator x|| / ||generator||_F of the refined solution x is folded
    into record["max_steady_residual"] as a running max.
    """
    norm = generator_norm(generator)
    if not 0.0 < norm < math.inf:
        raise _unscalable(generator, norm)
    a = replace_trace_row(generator.copy(), norm)
    # The replaced row's right-hand side; every other equation is
    # homogeneous.
    b = np.zeros(DIM * DIM, dtype=complex)
    b[0] = norm
    try:
        vec = refined_solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _unsolved(
            generator, f"steady-state solve failed: {exc}"
        ) from exc

    r = generator.dot(vec)
    residual = math.sqrt(np.vdot(r, r).real)
    if not residual <= STEADY_RESIDUAL_TOL * norm:
        raise _unsolved(
            generator,
            f"steady-state residual {residual:.3e} exceeds "
            f"{STEADY_RESIDUAL_TOL:.0e} * ||generator|| = "
            f"{STEADY_RESIDUAL_TOL * norm:.3e}",
        )
    if record is not None:
        record["max_steady_residual"] = max(
            record.get("max_steady_residual", 0.0), residual / norm
        )

    # Twice the Hermitian part, divided by its trace: the factor 2 is a
    # power of two and cancels without rounding.  The trace is the
    # diagonal summed in ndarray.trace's pairwise order, without its
    # per-call overhead.
    rho = vec.reshape(DIM, DIM)
    rho = rho + rho.conj().T
    rho /= ((rho[0, 0] + rho[1, 1]) + (rho[2, 2] + rho[3, 3])).real
    try:
        validate_density_matrix(rho)
    except ValueError as exc:
        raise SteadyStateError(f"steady state is unphysical: {exc}") from exc
    return rho


def evolve_expm(rho0: np.ndarray, generator: np.ndarray,
                t_final: float) -> np.ndarray:
    """Apply the exact semigroup exp(generator * t) to a state.

    Scaling-and-squaring matrix exponential on the 16x16 generator; valid
    at any stiffness and horizon, which makes it the long-time companion
    oracle to the algebraic steady-state solve.
    """
    if not 0.0 <= t_final < math.inf:
        raise ValueError(
            f"t_final must be finite and non-negative, got {t_final!r}")
    t_final = _require_finite_value("t_final", t_final)
    vec = np.array(rho0, dtype=complex).reshape(-1)
    propagator = expm(generator * t_final)
    rho = (propagator @ vec).reshape(DIM, DIM)
    return 0.5 * (rho + rho.conj().T)


def substitution_image(drive: DriveConfig) -> DriveConfig:
    """Drive guaranteed to produce identical probe observables.

    Reversing the magnetic field while advancing the relative phase by pi
    conjugates the generator by a fixed unitary, so every probe observable
    coincides between the two drives.  DriveConfig reduces the phase to
    [0, 2*pi).
    """
    return replace(drive, delta_b=-drive.delta_b, phi=drive.phi + math.pi)
