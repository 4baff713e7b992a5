"""Sweeps, weak-probe response spectra, group-velocity class, pulses.

The weak-probe response treats the degenerate drive (control plus probe
carrier at the same frequency, with their relative phase) exactly, and a
probe-mode sideband detuned by delta as the perturbation.  To first order
in the sideband amplitude eta the state acquires a component
rho_+ exp(-i*delta*t) obeying

    (-i*delta - L0) rho_+ = -i [V_p, rho_ss] * eta

with L0 the degenerate generator and V_p the probe coupling operator;
liouvillian.solve_sideband solves it, beside the carrier's steady state.
The probe is the linear mode Omega_p = (Omega_1 - Omega_2)/sqrt(2) of
the circular pair, and every probe-mode quantity here is read through
core.to_linear (its inverse, to_circular, seeds the probe).  With the
circular couplings V_1, V_2 of the liouvillian (COUPLING_FIELD1/2),
V_p = to_linear((V_1, V_2))[1] is |1><X| + |2><Y| in the linear ground
basis; its superoperator pair is the probe mode of the template's drive
pieces, to_linear of (drive_a, drive_b) and of (drive_a_conj,
drive_b_conj).  The reported susceptibility sample reads the same
combination of coherences,

    chi(delta) = -Tr(V_p^dagger rho_+) / eta
               = -(rho_+[1,X] + rho_+[2,Y]) / eta,

with the overall sign fixed so that Im(chi) > 0 means absorption and a
rising Re(chi) through two-photon resonance means slow light; the plain
lambda limit then reproduces the textbook EIT lineshape (see tests).
Linearizing around the carrier-inclusive steady state is what gives the
spectra their dependence on the relative phase and the magnetic field:
with the carrier removed, the response at the probe frequency carries
exactly one net factor of the probe field and every phase dependence
cancels identically.

Two independent validations accompany the solver: a time-domain oracle
(bichromatic integration with midpoint-exponential steps, Richardson
extrapolated, plus lock-in extraction at the sideband frequency), and a
thick-medium transfer that co-propagates the sideband together with its
four-wave-mixing conjugate partner through the cell.  The latter feeds
the pulse filter.

Every solve here runs in the real Hermitian coordinates of the
liouvillian, where each generator is a real matrix and a Hermitian state
has real coordinates.  The transfer carries the -delta and +delta
sideband fields e and f beside the carrier.  Their seeds are the drive
pieces (X_a, conj(X_a), X_b, conj(X_b) of the template) on the carrier
state, with the coefficients c = (e1, f1, e2, f2) at -delta and
(f1, e1, f2, e2) at +delta, and each field grows by the field rows read
on its own response.  Both share one LU factorisation per integrator
stage.  In these coordinates the map vec(M) -> vec(M^dagger) is complex
conjugation, which fixes every generator and the carrier state and maps
each drive piece to its partner, bit for bit.  So the conjugate of the
+delta seed has the coefficients conj(c), and the +delta response is
conj(y) with (-i*delta - L) y = conj(seed), the -delta matrix.  The
carrier state is read in vec coordinates, as steady_state_matrix
returns it, and both responses in Hermitian coordinates.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .core import (
    AtomParams,
    Curve,
    DriveConfig,
    TWO_PI,
    _require_finite,
    _require_finite_value,
    _require_int,
    check_grid,
    hz_to_angular,
    input_fields,
    to_circular,
    to_linear,
)
from .liouvillian import (
    HERMITIAN_BASIS,
    circular_template,
    solve_sideband,
    steady_state_matrix,
)
from .propagation import (
    FIELD_ROWS,
    calibrate_kappa,
    carrier_stage,
    check_steps,
    field_derivative,
    transmission,
    z_march,
)

#: Overall sign making Im(chi) absorptive and slow light a rising slope.
CHI_SIGN = -1.0

#: Fraction of the peak envelope spectrum below which transfer bins are
#: left at unity.
PULSE_SPECTRUM_CUTOFF = 1e-8

#: propagation.FIELD_ROWS reading a state in Hermitian coordinates.
_FIELD_ROWS_H = FIELD_ROWS @ HERMITIAN_BASIS.conj().T

#: Row functional reading the probe coherence rho_1X + rho_2Y off a state
#: in Hermitian coordinates: Tr(V_p^dagger rho), the probe mode of the
#: field rows.
_PROBE_ROW = to_linear(_FIELD_ROWS_H)[1]


class WeakProbeWarning(UserWarning):
    """Weak-probe assumptions are strained for the requested drive."""


def phase_grid(n_points: int) -> tuple:
    """Standard [0, 2*pi) phase grid, endpoint excluded; n_points must be
    a positive integer."""
    if _require_int("n_points", n_points) <= 0:
        raise ValueError(f"n_points must be positive, got {n_points!r}")
    return tuple(np.linspace(0.0, TWO_PI, n_points, endpoint=False))


def sweep_phase(params: AtomParams, drive: DriveConfig, phases,
                n_steps: int = 256) -> Curve:
    """Probe transmission against the input relative phase (radians)."""
    phases = check_grid(phases, "sweep grid")
    ys = [transmission(params, replace(drive, phi=phi), n_steps)
          for phi in phases.tolist()]
    return Curve("phi_rad", phases, ys)


def sweep_bfield(params: AtomParams, drive: DriveConfig, fields_hz,
                 n_steps: int = 256) -> Curve:
    """Probe transmission against the Zeeman splitting (grid in Hz)."""
    fields_hz = check_grid(fields_hz, "sweep grid")
    ys = [transmission(params, replace(drive, delta_b=hz_to_angular(db_hz)),
                       n_steps) for db_hz in fields_hz.tolist()]
    return Curve("delta_b_hz", fields_hz, ys)


def modulation_depth(curve: Curve) -> float:
    """Peak-to-peak spread of a real-valued curve."""
    ys = np.real(curve.ys)
    return float(ys.max() - ys.min())


def _warn_if_strong_probe(drive: DriveConfig, stacklevel: int) -> None:
    """Strong-probe WeakProbeWarning; stacklevel counted from the caller."""
    if drive.omega_p > drive.omega_c / 3.0:
        warnings.warn(
            "probe carrier exceeds a third of the control; the "
            "weak-probe reading of the response is strained",
            WeakProbeWarning,
            stacklevel=stacklevel + 1,
        )


def _operating_point(params: AtomParams, drive: DriveConfig):
    """The point every first-order sideband linearizes around.

    Returns the degenerate circular-basis generator gen0 at the input
    fields, its steady state and the probe-sideband superoperators
    (probe, probe_conj), all in Hermitian coordinates: the state is real
    and probe_conj = conj(probe).  The pair is the derivatives of the
    generator in Omega_p and conj(Omega_p), read through core.to_linear
    as the probe mode of the template's drive pieces (X_a, conj(X_a))
    and (X_b, conj(X_b)).
    """
    template = circular_template(params)
    gen0 = template.generator(drive.delta_b, *input_fields(drive))
    pieces = template.drive_pieces
    probe, probe_conj = to_linear((pieces[0:2], pieces[2:4]))[1]
    # The state's one map into Hermitian coordinates: the imaginary
    # parts are exact zeros, as the state is exactly Hermitian.
    rho0 = (HERMITIAN_BASIS @ steady_state_matrix(gen0).reshape(-1)).real
    return gen0, rho0, probe, probe_conj


def _warn_if_truncated(estimate: float, delta: float,
                       stacklevel: int) -> None:
    """Truncation WeakProbeWarning above 1%; stacklevel counted from the
    caller."""
    if estimate > 0.01:
        warnings.warn(
            f"first-sideband truncation residual estimate "
            f"{estimate:.3e} at delta = {delta / TWO_PI:.6g} Hz exceeds 1%",
            WeakProbeWarning,
            stacklevel=stacklevel + 1,
        )


def _chi_samples(params: AtomParams, drive: DriveConfig, deltas) -> list:
    """chi at each angular detuning of deltas, around one operating point.

    Serves weak_probe_response and refractive_spectrum, whose callers
    the warnings point at.  The truncation estimate at each sample takes
    the probe carrier magnitude eta as the worst-case sideband amplitude
    and is the relative first-harmonic correction that the dropped n = 2
    harmonic would feed back; one warning names the worst estimate and
    its detuning.
    """
    _warn_if_strong_probe(drive, stacklevel=3)
    gen0, rho0, probe, probe_conj = _operating_point(params, drive)
    seed = probe @ rho0
    eta = drive.omega_p
    chis = []
    worst = (0.0, 0.0)
    for delta in deltas:
        first = solve_sideband(gen0, delta, seed)
        chis.append(CHI_SIGN * (_PROBE_ROW @ first))
        if eta != 0.0:
            second = solve_sideband(gen0, 2.0 * delta, probe @ first)
            back = solve_sideband(gen0, delta, probe_conj @ second)
            norm_first = np.linalg.norm(first)
            if norm_first != 0.0:
                estimate = float(eta**2 * np.linalg.norm(back) / norm_first)
                worst = max(worst, (estimate, delta))
    _warn_if_truncated(*worst, stacklevel=3)
    return chis


def weak_probe_response(params: AtomParams, drive: DriveConfig) -> complex:
    """Complex susceptibility sample chi at drive.delta_probe.

    The real part tracks the probe refractive index (arbitrary units),
    the imaginary part the absorption.  Warns when the dropped higher
    sideband harmonics would matter at the percent level.  The one-point
    case of refractive_spectrum.
    """
    return _chi_samples(params, drive, [drive.delta_probe])[0]


def refractive_spectrum(params: AtomParams, drive: DriveConfig,
                        deltas_hz) -> Curve:
    """chi(delta) sampled over a probe-detuning grid (Hz).

    Runs the truncation estimate of weak_probe_response at every sample
    and warns once, with the worst estimate and its detuning.
    """
    deltas_hz = check_grid(deltas_hz, "sweep grid")
    chis = _chi_samples(params, drive, hz_to_angular(deltas_hz).tolist())
    return Curve("delta_hz", deltas_hz, chis)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of Re(chi) around zero detuning."""

    slope_per_hz: float
    classification: str
    stderr_per_hz: float


def group_velocity_class(spectrum: Curve, window_hz: float = 10.0) -> SlopeFit:
    """Classify slow/fast/flat light from the dispersion slope.

    Fits Re(y) over the points with |x| <= window_hz, which must be finite
    and positive.  A rising slope means the group index exceeds unity
    (slow light).  The flat band is 1e-3 of the spectrum's peak |Re| per
    window width.
    """
    if not _require_finite_value("window_hz", window_hz) > 0.0:
        raise ValueError(f"window_hz must be positive, got {window_hz!r}")
    xs = spectrum.xs
    ys = np.real(spectrum.ys)
    mask = np.abs(xs) <= window_hz
    if int(mask.sum()) < 5:
        raise ValueError(
            f"need at least 5 points within +/-{window_hz} Hz, have "
            f"{int(mask.sum())}"
        )
    # cov is scaled by the residual chi^2 / (N - 2): cov[0, 0] is the
    # slope's squared standard error.
    coef, cov = np.polyfit(xs[mask], ys[mask], 1, cov=True)
    slope = float(coef[0])
    stderr = math.sqrt(cov[0, 0])
    tol = 1e-3 * float(np.max(np.abs(ys))) / window_hz
    if slope > tol:
        label = "slow"
    elif slope < -tol:
        label = "fast"
    else:
        label = "flat"
    return SlopeFit(slope_per_hz=slope, classification=label,
                    stderr_per_hz=stderr)


def chi_probe_timedomain(params: AtomParams, drive: DriveConfig,
                         delta_hz: float, *, sideband_fraction: float = 0.02,
                         periods: int = 2,
                         steps_per_period: int = 512) -> complex:
    """Brute-force chi: integrate the bichromatic master equation.

    Starts from the degenerate steady state, adds a weak probe-mode
    sideband at delta_hz, steps the generator with frozen midpoint
    exponentials and lock-in extracts the sideband-frequency Fourier
    coefficient of rho_1X + rho_2Y over an integer number of beat
    periods.  The frozen-phase staircase leaves an error linear in the
    step size, removed by one Richardson extrapolation (run at n and 2n
    steps per period).  It steps in real Hermitian coordinates,
    liouvillian.HERMITIAN_BASIS, where every midpoint generator is a
    real matrix: one real expm and one real product per step.  delta_hz
    must be finite and nonzero, periods and steps_per_period positive
    integers, sideband_fraction finite and positive, and omega_c or
    omega_p nonzero (the sideband is that fraction of omega_p, or else of
    omega_c); a bad argument raises ValueError naming it before anything
    is solved.  A detuning so small that the steps of its beat period
    overflow the step exponentials, or make them NaN, raises ValueError
    naming delta_hz.
    """
    delta_hz = _require_finite_value("delta_hz", delta_hz)
    if delta_hz == 0.0:
        raise ValueError("the lock-in oracle needs a nonzero detuning")
    for name, value in (("periods", periods),
                        ("steps_per_period", steps_per_period)):
        if _require_int(name, value) <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not 0.0 < sideband_fraction < math.inf:
        raise ValueError("sideband_fraction must be finite and positive, "
                         f"got {sideband_fraction!r}")
    sideband_fraction = _require_finite_value("sideband_fraction",
                                              sideband_fraction)
    if drive.omega_p == drive.omega_c == 0.0:
        raise ValueError("the lock-in oracle needs a field: omega_c and "
                         "omega_p are both 0")
    delta = hz_to_angular(delta_hz)
    g0, rho_start, up, _ = _operating_point(params, drive)
    eta = sideband_fraction * (drive.omega_p or drive.omega_c)
    settle_time = 10.0 / min(params.gamma_pop, params.gamma_coh)

    # The probe_conj piece is conj(up), so the sideband term
    # eta (exp(-i theta) up + exp(i theta) conj(up)) is
    # 2 eta (cos(theta) Re(up) + sin(theta) Im(up)).  An overflow or an
    # invalid value in the step arithmetic raises here rather than warns.
    legs = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for steps in (steps_per_period, 2 * steps_per_period):
                dt = TWO_PI / abs(delta) / steps
                settle_steps = int(math.ceil(settle_time / dt))
                n = periods * steps
                g0_dt = g0 * dt
                cos_piece = (2.0 * eta * dt) * up.real
                sin_piece = (2.0 * eta * dt) * up.imag
                rho = rho_start
                t = 0.0
                acc = 0.0 + 0.0j
                for k in range(settle_steps + n):
                    theta = delta * (t + 0.5 * dt)
                    rho = expm(g0_dt + math.cos(theta) * cos_piece
                               + math.sin(theta) * sin_piece).dot(rho)
                    t += dt
                    if k >= settle_steps:
                        acc += _PROBE_ROW.dot(rho) * complex(
                            math.cos(delta * t), math.sin(delta * t))
                legs.append(acc / n)
    except FloatingPointError as exc:
        raise _beat_too_long(delta_hz) from exc
    coarse, fine = legs
    chi = CHI_SIGN * (2.0 * fine - coarse) / eta
    if not cmath.isfinite(chi):
        raise _beat_too_long(delta_hz)
    return chi


def _beat_too_long(delta_hz: float) -> ValueError:
    """The error for a lock-in detuning whose beat period is too long for
    the step exponentials."""
    return ValueError(
        f"delta_hz = {delta_hz!r} is too small for the lock-in oracle: "
        "the steps of its beat period overflow the step exponentials"
    )


def sideband_transfer(params: AtomParams, drive: DriveConfig,
                      deltas_hz, n_steps: int = 128) -> np.ndarray:
    """Thick-medium transfer of a probe-envelope modulation component.

    Co-integrates the degenerate carrier pair together with a probe-mode
    sideband field e at -delta and its four-wave-mixing conjugate partner
    f at +delta through the cell; the pair is seeded the way a real
    envelope modulation populates it (equal amplitudes).  At each
    integrator stage the carrier steady state feeds the carrier
    derivatives and the two first-order responses, which share one
    factorisation through the conjugation symmetry of the module
    docstring.  Returns the output probe-mode modulation per unit input,
    one complex value per entry of deltas_hz.  A non-finite detuning
    raises ValueError before anything is solved; a failed carrier solve
    or a diverging state raises PropagationError naming z.
    """
    check_steps(n_steps)
    deltas = [_require_finite_value("deltas_hz", d)
              for d in np.atleast_1d(deltas_hz).tolist()]
    kappa = calibrate_kappa(params)
    if kappa == 0.0:
        return np.ones(len(deltas), dtype=complex)

    template = circular_template(params)
    # The drive pieces X_a, conj(X_a), X_b, conj(X_b) as one (64, 16) map
    # from the carrier state in vec coordinates, as carrier_stage returns
    # it, to seeds in Hermitian coordinates.
    seed_map = (template.drive_pieces @ HERMITIAN_BASIS).reshape(64, 16)
    # (Omega_1, Omega_2, e1, e2, f1, f2): unit probe modulation in e and f.
    unit_probe = to_circular(0.0, 1.0)
    state_in = np.concatenate([input_fields(drive), unit_probe, unit_probe])
    # The state entries of the seed coefficients c = (e1, f1, e2, f2).
    seed_index = np.array([2, 4, 3, 5])

    out = np.empty(len(deltas), dtype=complex)
    for i, d_hz in enumerate(deltas):
        delta = hz_to_angular(d_hz)

        def rhs(state, z):
            gen, vec = carrier_stage(template, drive.delta_b, state, z)
            pieces = seed_map.dot(vec).reshape(4, 16)
            # Column 0 seeds the -delta sideband with c = (e1, f1, e2,
            # f2); column 1, with conj(c), is the conjugate of the +delta
            # seed, so the +delta response is conj(x[:, 1]).
            c = state[seed_index]
            seeds = pieces.T.dot(np.array((c, c.conj())).T)
            x = solve_sideband(gen, delta, seeds)
            np.conjugate(x[:, 1], out=x[:, 1])
            # The (2, 2) derivative block of the responses, read by
            # column, is (e, f).
            sides = (-1j * kappa) * _FIELD_ROWS_H.dot(x)
            return np.concatenate((field_derivative(kappa, vec),
                                   sides.T.ravel()))

        state = z_march(rhs, state_in, params.cell_length, n_steps)
        out[i] = to_linear(state[2:4])[1]
    return out


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian probe-envelope pulse riding the degenerate carrier.

    peak_omega_p is kept with the pulse but pulse_response does not read
    it: the response is a linear filter of the normalized envelope, and
    the probe carrier amplitude it linearizes around is the drive's
    omega_p.  The sample grid must resolve the pulse bandwidth:
    n_samples / (2 * time_window) >= 2.3 / fwhm + |carrier_detuning| / 2pi,
    both sides in Hz.
    """

    fwhm: float                       # seconds
    peak_omega_p: float               # angular frequency; not read
    carrier_detuning: float = 0.0     # angular frequency
    time_window: float | None = None  # seconds; defaults to 8 * fwhm
    n_samples: int = 1024

    def __post_init__(self):
        # fwhm is checked, finiteness and sign, before the default window
        # is computed from it, and a default window that overflows is
        # named as 8 * fwhm: the caller set fwhm, not time_window.
        if _require_finite_value("fwhm", self.fwhm) <= 0.0:
            raise ValueError("fwhm must be positive")
        if self.time_window is None:
            object.__setattr__(self, "time_window", _require_finite_value(
                "the default time_window, 8 * fwhm,", 8.0 * self.fwhm))
        _require_finite(self)
        window = self.time_window
        if window < 8.0 * self.fwhm:
            raise ValueError("time_window must be at least 8 * fwhm")
        n = _require_int("n_samples", self.n_samples)
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError("n_samples must be a power of two, >= 256")
        nyquist_hz = 0.5 * n / window
        needed_hz = 2.3 / self.fwhm + abs(self.carrier_detuning) / TWO_PI
        if needed_hz > nyquist_hz:
            raise ValueError(
                f"n_samples over time_window only resolves "
                f"+/-{nyquist_hz:.3g} Hz but the pulse bandwidth, "
                f"|carrier_detuning| / 2pi + 2.3 / fwhm, needs "
                f"+/-{needed_hz:.3g} Hz"
            )

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * (self.time_window / self.n_samples)

    @property
    def envelope(self) -> np.ndarray:
        t0 = 0.5 * self.time_window
        return np.exp(
            -4.0 * math.log(2.0) * (self.times - t0) ** 2 / self.fwhm**2
        )


def apply_transfer(times: np.ndarray, envelope: np.ndarray,
                   transfer_at_hz) -> np.ndarray:
    """Filter an envelope with a transfer function of sideband detuning.

    A spectral component exp(+2*pi*i*f*t) of the envelope is a sideband
    at detuning delta = -f in the exp(-i*delta*t) convention used by the
    response solver.  Bins with negligible spectral weight keep unit
    transfer.
    """
    dt = times[1] - times[0]
    spectrum = np.fft.fft(envelope)
    sideband_hz = -np.fft.fftfreq(len(envelope), d=dt)
    gains = np.ones(len(envelope), dtype=complex)
    mask = np.abs(spectrum) > PULSE_SPECTRUM_CUTOFF * np.max(np.abs(spectrum))
    gains[mask] = transfer_at_hz(sideband_hz[mask])
    return np.fft.ifft(spectrum * gains)


def peak_time(times: np.ndarray, values: np.ndarray) -> float:
    """Quadratic-interpolated position of the maximum of a sampled curve."""
    idx = int(np.argmax(values))
    if idx == 0 or idx == len(values) - 1:
        return float(times[idx])
    y0, y1, y2 = values[idx - 1], values[idx], values[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(times[idx])
    shift = 0.5 * (y0 - y2) / denom
    return float(times[idx] + shift * (times[1] - times[0]))


def pulse_response(params: AtomParams, drive: DriveConfig, pulse: PulseSpec,
                   n_steps: int = 128) -> tuple[Curve, float]:
    """Propagate a Gaussian probe envelope as a linear spectral filter.

    Each envelope frequency component is multiplied by the thick-medium
    modulation transfer at its detuning (offset by the pulse carrier
    detuning) and recomposed.  Returns the complex output envelope and
    the fractional peak delay, output peak minus input peak over the
    FWHM; negative values are advances.
    """
    check_steps(n_steps)
    _warn_if_strong_probe(drive, stacklevel=2)
    times = pulse.times
    envelope = pulse.envelope
    carrier_hz = pulse.carrier_detuning / TWO_PI

    def transfer_at(deltas_hz):
        return sideband_transfer(
            params, drive, deltas_hz + carrier_hz, n_steps
        )

    out = apply_transfer(times, envelope, transfer_at)
    delay = peak_time(times, np.abs(out)) - peak_time(times, envelope)
    return Curve("time_s", times, out), delay / pulse.fwhm
