"""Domain types, unit conventions and field transforms.

Level scheme: two excited states |1>, |2> (|1> lies an energy splitting
above |2>) and the circular ground states |3>, |4>.  Every 4x4 matrix in
the package is written in this circular basis.  The linear ground states
|X> = (|3>+|4>)/sqrt(2), |Y> = (|3>-|4>)/sqrt(2) enter only through the
linear (control, probe) field amplitudes, which to_circular maps onto
the circular pair, and through the probe readout rho_1X + rho_2Y, which
the spectroscopy module takes in circular indices.

Unit convention: every frequency-like quantity held by these types is an
angular frequency in rad/s.  Configuration files, presets and the CLI use
ordinary frequency in Hz; the 2*pi lives at that boundary and nowhere else.

The relative phase between the two drive fields is carried on the probe:
Omega_p = |Omega_p| * exp(i*phi), with the control real and positive.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
from scipy.linalg import get_lapack_funcs

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

#: Row/column ordering of every circular-basis 4x4 matrix in the package.
CIRCULAR_LABELS = ("1", "2", "3", "4")

# Density-matrix validity tolerances.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

# Cholesky factorisation and eigenvalues (divide and conquer) of a complex
# Hermitian matrix, bound once.
_potrf, _heevd = get_lapack_funcs(
    ("potrf", "heevd"), (np.empty((1, 1), dtype=complex),)
)


class SimulationError(Exception):
    """Base class for solver and propagation failures."""


def hz_to_angular(value_hz: float) -> float:
    """Ordinary frequency in Hz -> angular frequency in rad/s."""
    return TWO_PI * value_hz


def _require_finite_value(name: str, value) -> float:
    """value as a float; NaN, inf or an integer too large for a float
    raises ValueError naming name.  The one finiteness check on a
    number from a caller."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _require_finite(config) -> None:
    """Raise ValueError naming the first numeric field that is NaN, inf
    or an integer too large for a float."""
    for f in dataclass_fields(config):
        _require_finite_value(f.name, getattr(config, f.name))


def _require_int(name: str, value) -> int:
    """value as an int, numpy integers included; any other value, 20.0
    among them, or an integer too large for a float raises ValueError
    naming name."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    _require_finite_value(name, value)
    return value


@dataclass(frozen=True)
class AtomParams:
    """Fixed medium properties (all rates angular, rad/s)."""

    gamma_e: float        # excited-state decay rate, both excited states
    gamma_pop: float      # ground population-difference decay (circular basis)
    gamma_coh: float      # ground coherence decay (circular basis)
    delta_exc: float      # excited-state splitting
    optical_depth: float  # resonant intensity OD of the bare transition
    cell_length: float    # meters

    def __post_init__(self):
        _require_finite(self)
        for name in ("gamma_e", "gamma_pop", "gamma_coh"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.gamma_coh < self.gamma_pop:
            raise ValueError(
                "gamma_coh (ground coherence decay, "
                f"{self.gamma_coh:.6g} rad/s) must be >= gamma_pop (ground "
                f"population-difference decay, {self.gamma_pop:.6g} rad/s); "
                "the extra dephasing rate would be negative"
            )
        if self.optical_depth < 0.0:
            raise ValueError("optical_depth must be >= 0")
        if self.cell_length <= 0.0:
            raise ValueError("cell_length must be > 0")
        if max(self.gamma_pop, self.gamma_coh) > 0.1 * self.gamma_e:
            warnings.warn(
                "ground-state rates are not small against gamma_e; the "
                "ground/excited timescale separation is marginal",
                RateHierarchyWarning,
                stacklevel=3,
            )

    @classmethod
    def from_hz(cls, gamma_e_hz, gamma_pop_hz, gamma_coh_hz, delta_exc_hz,
                optical_depth, cell_length):
        return cls(
            gamma_e=hz_to_angular(gamma_e_hz),
            gamma_pop=hz_to_angular(gamma_pop_hz),
            gamma_coh=hz_to_angular(gamma_coh_hz),
            delta_exc=hz_to_angular(delta_exc_hz),
            optical_depth=optical_depth,
            cell_length=cell_length,
        )


class RateHierarchyWarning(UserWarning):
    """Ground-state rates approach the optical decay rate."""


@dataclass(frozen=True)
class DriveConfig:
    """Per-run drive knobs (frequencies angular, phase in radians).

    phi is reduced to [0, 2*pi) on construction, and a drive whose power
    omega_c^2 + omega_p^2 overflows a float is rejected.  delta_probe is
    the probe one-photon detuning read by weak_probe_response alone; the
    degenerate steady-state and propagation paths and every CLI mode
    ignore it, so no config key sets it.
    """

    delta_b: float       # Zeeman splitting between |3> and |4> (signed)
    phi: float           # input probe-control relative phase
    omega_c: float       # control Rabi magnitude
    omega_p: float       # probe Rabi magnitude
    delta_probe: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("omega_c", "omega_p"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not math.isfinite(self.omega_c * self.omega_c
                             + self.omega_p * self.omega_p):
            raise ValueError(
                "the drive power omega_c^2 + omega_p^2 overflows: "
                f"omega_c = {self.omega_c!r}, omega_p = {self.omega_p!r}")
        # A phi just below 0 leaves a remainder that rounds up to TWO_PI.
        phi = self.phi % TWO_PI
        object.__setattr__(self, "phi", 0.0 if phi == TWO_PI else phi)

    @classmethod
    def from_hz(cls, delta_b_hz, phi_rad, omega_c_hz, omega_p_hz,
                delta_probe_hz=0.0):
        return cls(
            delta_b=hz_to_angular(delta_b_hz),
            phi=phi_rad,
            omega_c=hz_to_angular(omega_c_hz),
            omega_p=hz_to_angular(omega_p_hz),
            delta_probe=hz_to_angular(delta_probe_hz),
        )

    @property
    def probe_amplitude(self) -> complex:
        """Complex probe Rabi amplitude with the relative phase applied."""
        return self.omega_p * complex(math.cos(self.phi), math.sin(self.phi))


def to_circular(omega_c: complex, omega_p: complex) -> np.ndarray:
    """Linear (control, probe) amplitudes -> circular pair (Omega_1, Omega_2).

    Omega_1 = (Omega_c + Omega_p)/sqrt(2), Omega_2 = (Omega_c - Omega_p)/sqrt(2).
    The ground Hadamard is its own inverse, so this is to_linear.
    """
    return to_linear((omega_c, omega_p))


def to_linear(fields) -> np.ndarray:
    """Circular pair (Omega_1, Omega_2) -> linear (control, probe).

    Computed in the elements' own arithmetic: Python complexes and numpy
    scalars round the division by sqrt(2) differently.  The elements may
    be arrays, so the same map rotates operators and superoperators.
    """
    omega1, omega2 = fields
    return np.array([(omega1 + omega2) / SQRT2,
                     (omega1 - omega2) / SQRT2], dtype=complex)


def input_fields(drive: DriveConfig) -> np.ndarray:
    """Circular amplitudes (Omega_1, Omega_2) at the cell input."""
    return to_circular(complex(drive.omega_c), drive.probe_amplitude)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid physical state.

    Checks that every entry is finite, then Hermiticity (1e-12
    element-wise), unit trace (1e-10) and the numerical positivity floor
    (eigenvalues >= -1e-9).  The floor is tested on the Hermitian part
    0.5 * (rho + rho^H).  When the Hermiticity residual is exactly 0.0,
    every entry equals the conjugate of its mirror, so that part equals
    rho entry for entry and rho goes to LAPACK as it is.

    The floor is certified by a Cholesky factorisation first: one that
    completes is the exact factorisation of a matrix within a relative
    backward error of a few units of roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so for a unit-trace
    state every eigenvalue is above about -1e-15.  Only when it breaks
    down, as it does on any singular or indefinite state, are the
    eigenvalues computed and compared with the floor, so both paths
    accept the same states.
    """
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape}")
    adjoint = rho.conj().T
    skew = rho - adjoint
    # count_nonzero (cheaper than .any() here) counts a NaN, and an
    # infinite entry makes its skew entry inf or NaN, so a non-finite rho
    # always reaches the max and fails below.  An exactly Hermitian rho,
    # as every steady state is, skips that pass.
    herm = np.abs(skew).max() if np.count_nonzero(skew) else 0.0
    if not herm <= HERMITICITY_TOL:
        if not np.isfinite(rho).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
    # The diagonal summed in ndarray.trace's pairwise order, without its
    # per-call overhead.
    tr = (rho[0, 0] + rho[1, 1]) + (rho[2, 2] + rho[3, 3])
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    hermitian = rho if herm == 0.0 else 0.5 * (rho + adjoint)
    if _potrf(hermitian, lower=1)[1] == 0:
        return
    # heevd returns the eigenvalues in ascending order.
    eigs, _, info = _heevd(hermitian, compute_v=0, lower=1)
    if info != 0:
        raise ValueError(f"eigenvalue solver failed (LAPACK info {info})")
    if eigs[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"negative eigenvalue {eigs[0]:.3e} below floor")


def check_grid(xs, name: str) -> np.ndarray:
    """xs as a 1-D float array; unless xs is non-empty, finite entry by
    entry and strictly increasing, ValueError labels it by name."""
    # tolist: a message shows nan, not np.float64(nan); a huge int stays.
    xs = np.array([_require_finite_value(f"{name} value", x)
                   for x in np.asarray(xs).tolist()])
    if not len(xs):
        raise ValueError(f"{name} must be non-empty: at least one point "
                         "is required")
    if np.any(xs[1:] <= xs[:-1]):
        raise ValueError(f"{name} values must be strictly increasing")
    return xs


@dataclass(frozen=True, eq=False)
class Curve:
    """Sampled 1-D result: abscissa label plus the xs and ys arrays."""

    abscissa_name: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        ys = np.asarray(self.ys)
        if np.ndim(self.xs) != 1 or ys.shape != np.shape(self.xs):
            raise ValueError("xs and ys must be 1-D of equal length")
        object.__setattr__(self, "xs", check_grid(self.xs, "abscissa"))
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return len(self.xs)
