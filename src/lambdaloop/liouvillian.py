"""Master-equation generator, its two linear solves and exact evolution.

Every generator L is a real (16, 16) matrix in Hermitian coordinates:
x = T vec(rho), with vec row-major, vec(A rho B) = (A kron B^T) vec(rho),
and T the unitary HERMITIAN_BASIS, whose rows read the populations
rho_ii, then sqrt(2) Re rho_ij and sqrt(2) Im rho_ij over the pairs
i < j.  A Hermitian rho has real coordinates, and a superoperator S that
maps Hermitian matrices to Hermitian matrices has a real image
T S T^dagger (hermitian_coordinates).  The trace functional tr^T is the
sum of the first four coordinates, and the conjugation map D, vec(M) ->
vec(M^dagger), is plain complex conjugation of the coordinates.

The module owns every solve against L: the carrier steady state, L x = 0
at unit trace (steady_state_matrix), and the first-order sideband
response, (-i*delta - L) x = seed (solve_sideband).  Both solve
M(delta) = -i*delta - L + n e0 tr^T, with n = ||L||_F and e0 the first
unit vector, by LU with one step of refinement: in real arithmetic at
delta = 0 for the carrier, in complex arithmetic for a sideband.  Since
tr^T L = 0, tr^T applied to M x = b gives (n - i*delta) Tr x = tr^T b.
So M(0) x = n e0 has Tr x = 1 and L x = 0, and a trace-free seed (every
commutator seed is one) gives the trace-free x that solves
(-i*delta - L) x = seed exactly, at delta = 0 too.  M is nonsingular at
every real delta when L has a unique steady state of full rank.

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
The superoperator builders (commutator_superop, dissipator_superop) work
in vec coordinates; only this module maps to x, which steady_state_matrix
returns, FIELD_ROWS read and density_matrix turns into a 4x4 state.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .core import (
    HERMITICITY_TOL,
    TWO_PI,
    AtomParams,
    DriveConfig,
    SimulationError,
    _require_finite_value,
    validate_density_matrix,
)

DIM = 4

#: Relative residual allowed on generator * x after the solve.
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

# LU factor-and-solve and back-substitution, bound once: complex for
# the sideband solves, real for the carrier.
_gesv, _getrs = get_lapack_funcs(
    ("gesv", "getrs"), (np.empty((1, 1), dtype=complex),)
)
_real_gesv, _real_getrs = get_lapack_funcs(
    ("gesv", "getrs"), (np.empty((1, 1)),)
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


def _hermitian_basis() -> np.ndarray:
    """The unitary T taking row-major vec(rho) to real coordinates.

    Rows 0-3 read the populations rho_ii, rows 4-9 sqrt(2) Re rho_ij and
    rows 10-15 sqrt(2) Im rho_ij over the pairs i < j in row-major order,
    so T vec(rho) is real for Hermitian rho: T P = conj(T) for the
    transpose permutation P, vec(M) -> vec(M^T).  With D(v) = P conj(v),
    the map vec(M) -> vec(M^dagger), T D(v) = conj(T v), and a
    superoperator S with D S D = S, one that maps Hermitian matrices to
    Hermitian matrices, has P conj(S) P = S, so conj(T S T^dagger) =
    T P conj(S) P T^dagger = T S T^dagger is real.
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

#: Its inverse T^dagger, read-only: vec(rho) = T^dagger x.
_FROM_HERMITIAN = HERMITIAN_BASIS.conj().T.copy()
_FROM_HERMITIAN.flags.writeable = False

#: Read-only rows Tr(V_k^dagger rho), one per circular coupling V_k, on
#: the coordinates x of rho: vec(V_k), which is real, times T^dagger.
FIELD_ROWS = (np.stack((COUPLING_FIELD1, COUPLING_FIELD2)).reshape(2, -1)
              @ _FROM_HERMITIAN)
FIELD_ROWS.flags.writeable = False


def density_matrix(x: np.ndarray) -> np.ndarray:
    """mat(T^dagger x) as a new 4x4 array, exactly Hermitian for real x."""
    return _FROM_HERMITIAN.dot(x).reshape(DIM, DIM)


def hermitian_coordinates(superop: np.ndarray) -> np.ndarray:
    """T superop T^dagger as a real (16, 16) array, T = HERMITIAN_BASIS.

    superop acts on row-major vec(rho) and must map Hermitian matrices
    to Hermitian matrices: an imaginary part of the image above
    HERMITICITY_TOL times the largest entry of superop, or a non-finite
    entry, raises ValueError.
    """
    image = HERMITIAN_BASIS @ superop @ _FROM_HERMITIAN
    imag = np.abs(image.imag).max()
    bound = HERMITICITY_TOL * np.abs(superop).max()
    if not imag <= bound:
        raise ValueError(
            "superoperator does not preserve Hermiticity: the imaginary "
            f"part of its image reaches {imag:.3e}, above {bound:.3e}"
        )
    return np.ascontiguousarray(image.real)


@dataclass(frozen=True, eq=False)
class GeneratorTemplate:
    """Generator pieces linear in (delta_b, Re and Im of each field).

    basis stacks six real (16, 16) pieces in Hermitian coordinates: the
    static and Zeeman pieces, then 2 Re X and -2 Im X of the drive piece
    X = T (-i[V, .]) T^dagger of each circular coupling V, field a before
    field b.  Assembling a generator is one product of the coefficients
    (1, delta_b, Re a, Im a, Re b, Im b) with the flattened stack, which
    keeps per-point cost low inside sweeps and propagation loops.
    drive_pieces, read-only, holds the complex derivatives of the
    generator in a, conj(a), b and conj(b): X_a, conj(X_a), X_b and
    conj(X_b).
    """

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_flat", self.basis.reshape(6, -1))
        re, im = 0.5 * self.basis[2::2], 0.5 * self.basis[3::2]
        pieces = np.empty((4, DIM * DIM, DIM * DIM), dtype=complex)
        pieces[0::2] = re - 1j * im
        pieces[1::2] = re + 1j * im
        pieces.flags.writeable = False
        object.__setattr__(self, "drive_pieces", pieces)

    def generator(self, delta_b: float, amp_a: complex, amp_b: complex) -> np.ndarray:
        # Python complexes build the coefficient array faster than the
        # numpy scalars callers index out of field arrays.
        amp_a, amp_b = complex(amp_a), complex(amp_b)
        coeffs = np.array([1.0, delta_b, amp_a.real, amp_a.imag,
                           amp_b.real, amp_b.imag])
        # ndarray.dot: less per-call overhead than @ on these operands.
        return coeffs.dot(self._flat).reshape(DIM * DIM, DIM * DIM)


@functools.lru_cache(maxsize=16)
def circular_template(params: AtomParams) -> GeneratorTemplate:
    """Template over (delta_b, Omega_1, Omega_2) in the circular basis.

    Built once per distinct AtomParams and shared: the pieces are
    read-only and generator() returns a fresh array.  Each drive pair
    enters through the Hermiticity-preserving X + Y and i (X - Y) of its
    vec-coordinate pieces X = -i[V, .] and Y = -i[V^dagger, .], whose
    images are 2 Re and -2 Im of T X T^dagger.
    """
    static = (params.delta_exc * commutator_superop(UPPER_PROJECTOR)
              + dissipator_superop(jump_operators(params)))
    pieces = [static, commutator_superop(ZEEMAN_CIRCULAR)]
    for coupling in (COUPLING_FIELD1, COUPLING_FIELD2):
        up = commutator_superop(coupling)
        down = commutator_superop(coupling.conj().T)
        pieces += [up + down, 1j * (up - down)]
    basis = np.stack([hermitian_coordinates(piece) for piece in pieces])
    basis.flags.writeable = False
    return GeneratorTemplate(basis)


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
    against the exact a.  A real a takes the real pair, in real
    arithmetic; a complex a the complex pair.  Raises
    np.linalg.LinAlgError when a is exactly singular.
    """
    if a.dtype.kind == "c":
        gesv, getrs = _gesv, _getrs
    else:
        gesv, getrs = _real_gesv, _real_getrs
    lu, piv, x, info = gesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    x += getrs(lu, piv, b - a.dot(x))[0]
    return x


def _generator_norm(generator: np.ndarray) -> float:
    """Frobenius norm of a generator in one pass: inf when the sum of
    squared magnitudes overflows, and NaN or inf when an entry is not
    finite."""
    return math.sqrt(np.vdot(generator, generator).real)


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
    """Unique unit-trace kernel element x of the generator, a float64
    array of shape (16,) in its Hermitian coordinates.

    Solves the real system M(0) x = n e0 of the module docstring, with n
    the generator's Frobenius norm, by LU with one step of iterative
    refinement.  That one norm, taken in one pass, is also the reference
    of the residual check: the residual of the generator's own equations
    must satisfy ||generator x|| <= STEADY_RESIDUAL_TOL * ||generator||_F,
    which a NaN residual fails.  T is unitary, so these are the norms of
    the vec-coordinate system.  With a record, the checked relative
    residual ||generator x|| / ||generator||_F of the refined solution x
    is folded into record["max_steady_residual"] as a running max.  The
    state density_matrix(x), exactly Hermitian since x is real, must
    pass validate_density_matrix.
    """
    norm = _generator_norm(generator)
    if not 0.0 < norm < math.inf:
        raise _unscalable(generator, norm)
    b = np.zeros(DIM * DIM)
    b[0] = norm
    try:
        x = refined_solve(_augmented(0.0, generator, norm), b)
    except np.linalg.LinAlgError as exc:
        raise _unsolved(
            generator, f"steady-state solve failed: {exc}"
        ) from exc

    r = generator.dot(x)
    residual = math.sqrt(r.dot(r))
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

    # Divided by its trace, the sum of the populations in ndarray.trace's
    # pairwise order.
    x /= (x[0] + x[1]) + (x[2] + x[3])
    try:
        validate_density_matrix(density_matrix(x))
    except ValueError as exc:
        raise SteadyStateError(f"steady state is unphysical: {exc}") from exc
    return x


@functools.lru_cache(maxsize=8)
def _detuning_shift(delta_angular: float) -> np.ndarray:
    """-i*delta*I, read-only, built once per detuning rather than once
    per solve: a transfer bin solves at one delta in every stage.  Equal
    detunings, 0.0 and -0.0 among them, give bit-identical shifts."""
    shift = -1j * delta_angular * np.eye(DIM * DIM, dtype=complex)
    shift.flags.writeable = False
    return shift


def _augmented(shift, generator: np.ndarray, norm: float) -> np.ndarray:
    """M(delta) of the module docstring, with n = norm, as a new array:
    shift - generator, shift being 0.0 or _detuning_shift(delta), with
    norm added to the trace columns 0-3 of row 0."""
    a = shift - generator
    a[0, :DIM] += norm
    return a


def solve_sideband(generator: np.ndarray, delta: float,
                   seed: np.ndarray) -> np.ndarray:
    """Solve (-i*delta - generator) x = seed for a trace-free seed.

    seed is one (16,) right-hand side or a (16, k) block of them in
    Hermitian coordinates, each column trace-free, all solved with one
    complex factorisation of M(delta) of the module docstring.  Its
    solution is the trace-free one, which at delta = 0 is the physical
    limit of the singular plain system.  A failed or non-finite solve
    raises SteadyStateError naming delta in Hz.
    """
    a = _augmented(_detuning_shift(delta), generator,
                   _generator_norm(generator))
    try:
        vec = refined_solve(a, seed)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(
            f"sideband response solve failed at delta = "
            f"{delta / TWO_PI:.6g} Hz: {exc}"
        ) from exc
    # Counting the finite entries costs less per call than .all().
    if np.count_nonzero(np.isfinite(vec)) != np.size(vec):
        raise SteadyStateError(
            f"sideband response diverged at delta = "
            f"{delta / TWO_PI:.6g} Hz"
        )
    return vec


def evolve_expm(rho0: np.ndarray, generator: np.ndarray,
                t_final: float) -> np.ndarray:
    """Apply the exact semigroup exp(generator * t) to a 4x4 state.

    Scaling-and-squaring matrix exponential on the 16x16 generator; valid
    at any stiffness and horizon, which makes it the long-time companion
    oracle to the algebraic steady-state solve.  The Hermitian part of
    rho0 is mapped into Hermitian coordinates, evolved in real
    arithmetic and mapped back, so the result is exactly Hermitian.
    """
    if _require_finite_value("t_final", t_final) < 0.0:
        raise ValueError(f"t_final must be non-negative, got {t_final!r}")
    x = (HERMITIAN_BASIS @ np.asarray(rho0, dtype=complex).reshape(-1)).real
    return density_matrix(expm(generator * t_final) @ x)


def substitution_image(drive: DriveConfig) -> DriveConfig:
    """Drive guaranteed to produce identical probe observables.

    Reversing the magnetic field while advancing the relative phase by pi
    conjugates the generator by a fixed unitary, so every probe observable
    coincides between the two drives.  DriveConfig reduces the phase to
    [0, 2*pi).
    """
    return replace(drive, delta_b=-drive.delta_b, phi=drive.phi + math.pi)
