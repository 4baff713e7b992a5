import re
import warnings

import numpy as np
import pytest

from conftest import GROUND_MIX
from lambdaloop import core
from lambdaloop import (
    AtomParams,
    Curve,
    DriveConfig,
    preset_atom,
    preset_drive,
    steady_state_matrix,
    to_circular,
    to_linear,
)
from lambdaloop.core import (
    RateHierarchyWarning,
    hz_to_angular,
    input_fields,
    validate_density_matrix,
)
from lambdaloop.liouvillian import circular_template
from lambdaloop.presets import DRIVE_KEYS, preset_values


def to_linear_basis(rho):
    """A circular-basis state in the linear ground basis."""
    return GROUND_MIX @ rho @ GROUND_MIX


class TestFieldTransforms:
    def test_pure_control_splits_equally(self):
        pair = to_circular(1.0, 0.0)
        assert pair[0] == pytest.approx(1 / np.sqrt(2))
        assert pair[1] == pytest.approx(1 / np.sqrt(2))

    def test_pure_probe_antisymmetric(self):
        pair = to_circular(0.0, 1.0)
        assert pair[0] == pytest.approx(1 / np.sqrt(2))
        assert pair[1] == pytest.approx(-1 / np.sqrt(2))

    def test_to_linear_examples(self):
        s = 1 / np.sqrt(2)
        assert to_linear(np.array([s, s])) == pytest.approx((1.0, 0.0))
        assert to_linear(np.array([s, -s])) == pytest.approx((0.0, 1.0))

    def test_round_trip(self, rng):
        for _ in range(50):
            c, p = rng.normal(size=2) + 1j * rng.normal(size=2)
            back = to_linear(to_circular(c, p))
            assert abs(back[0] - c) < 1e-14 * max(1.0, abs(c))
            assert abs(back[1] - p) < 1e-14 * max(1.0, abs(p))

    def test_power_conservation(self, rng):
        for _ in range(50):
            c, p = rng.normal(size=2) + 1j * rng.normal(size=2)
            pair = to_circular(c, p)
            assert np.sum(np.abs(pair) ** 2) == pytest.approx(
                abs(c) ** 2 + abs(p) ** 2, rel=1e-14
            )

    def test_nan_rejected(self):
        # Field amplitudes come from the drive, which rejects NaN.
        with pytest.raises(ValueError, match="omega_p must be finite"):
            DriveConfig.from_hz(0.0, 0.0, 20e3, np.nan)


class TestBasisChangeState:
    def test_unpolarized_unchanged(self):
        rho = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        assert np.allclose(to_linear_basis(rho), rho, atol=1e-15)

    def test_pure_circular_ground(self):
        out = to_linear_basis(np.diag([0, 0, 1.0, 0]).astype(complex))
        assert out[2, 2] == pytest.approx(0.5)   # XX
        assert out[3, 3] == pytest.approx(0.5)   # YY
        assert out[2, 3] == pytest.approx(0.5)   # XY

    def test_spectrum_preserved(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            out = to_linear_basis(rho)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            ev_in = np.sort(np.linalg.eigvalsh(rho))
            ev_out = np.sort(np.linalg.eigvalsh(out))
            assert np.allclose(ev_in, ev_out, atol=1e-12)

    def test_round_trip(self, rng):
        # GROUND_MIX is its own inverse.
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert np.allclose(to_linear_basis(to_linear_basis(rho)), rho,
                           atol=1e-14)


class TestAtomParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="gamma_e"):
            AtomParams(0.0, 1.0, 1.0, 1.0, 0.1, 0.07)

    def test_rejects_negative_od(self):
        with pytest.raises(ValueError, match="optical_depth"):
            AtomParams.from_hz(6e6, 10, 10, 800e6, -0.1, 0.07)

    def test_warns_on_marginal_hierarchy(self):
        with pytest.warns(RateHierarchyWarning):
            AtomParams.from_hz(100.0, 50.0, 50.0, 800e6, 0.1, 0.07)

    def test_hierarchy_warning_names_the_constructing_line(self):
        # Not the __init__ the dataclass generates, which has no file: a
        # direct construction names its caller, from_hz its own line.
        for make, filename in ((AtomParams, __file__),
                               (AtomParams.from_hz, core.__file__)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                make(100.0, 50.0, 50.0, 800e6, 0.1, 0.07)
            [warned] = [w for w in caught
                        if w.category is RateHierarchyWarning]
            assert warned.filename == filename

    def test_from_hz_applies_two_pi(self):
        atom = AtomParams.from_hz(6e6, 10, 10, 800e6, 0.15, 0.075)
        assert atom.gamma_e == pytest.approx(2 * np.pi * 6e6)
        assert atom.delta_exc == pytest.approx(2 * np.pi * 800e6)


class TestNonFiniteRejected:
    ATOM = dict(gamma_e=1e7, gamma_pop=60.0, gamma_coh=60.0, delta_exc=5e9,
                optical_depth=0.15, cell_length=0.075)
    DRIVE = dict(delta_b=0.0, phi=0.0, omega_c=1e5, omega_p=3e4,
                 delta_probe=0.0)

    @pytest.mark.parametrize("name", sorted(ATOM))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_atom_field(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AtomParams(**{**self.ATOM, name: bad})

    @pytest.mark.parametrize("name", sorted(DRIVE))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_drive_field(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            DriveConfig(**{**self.DRIVE, name: bad})


class TestDriveConfig:
    def test_phi_reduced(self):
        # phi % 2pi of a phi just below 0 rounds up to 2pi itself.
        for phi, reduced in ((7.5, 7.5 - 2 * np.pi), (-1e-17, 0.0),
                             (-5e-324, 0.0)):
            drive = DriveConfig(0.0, phi, 1.0, 0.5)
            assert 0.0 <= drive.phi < 2 * np.pi, phi
            assert drive.phi == pytest.approx(reduced, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_integer_too_large_for_a_float_rejected(self, sign):
        # math.isfinite(10**400) raises a bare OverflowError.
        with pytest.raises(ValueError, match=(
                "^omega_c is an integer too large for a float$")):
            DriveConfig(0.0, 0.0, sign * 10**400, 0.5)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError, match="omega_c must be non-negative"):
            DriveConfig(0.0, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError, match="omega_p must be non-negative"):
            DriveConfig(0.0, 0.0, 1.0, -0.5)

    @pytest.mark.parametrize("omega_c, omega_p", [
        (1e160, 1.0), (1.0, 1e160), (1e154, 1e154)])
    def test_unrepresentable_power_rejected(self, omega_c, omega_p):
        # 1e154 squares to a finite 1e308, but the sum of two overflows.
        message = (r"^the drive power omega_c\^2 \+ omega_p\^2 overflows: "
                   r"omega_c = .*, omega_p = .*$")
        with pytest.raises(ValueError, match=message):
            DriveConfig(0.0, 0.0, omega_c, omega_p)
        with pytest.raises(ValueError, match=message):
            DriveConfig.from_hz(0.0, 0.0, omega_c, omega_p)

    def test_power_just_representable_accepted(self):
        # 2 * 9e153^2 = 1.62e308, below the largest float, 1.80e308.
        assert DriveConfig(0.0, 0.0, 9e153, 9e153).omega_p == 9e153

    @pytest.mark.parametrize("name", ["fig3-cold", "fig4-warm"])
    def test_presets_accepted(self, name):
        values = preset_values(name)
        drive = DriveConfig.from_hz(*(values[k] for k in DRIVE_KEYS.values()))
        assert drive == preset_drive(name)

    def test_probe_amplitude_carries_phase(self):
        drive = DriveConfig.from_hz(0.0, np.pi / 3, 0.0, 10.0)
        amp = drive.probe_amplitude
        assert abs(amp) == pytest.approx(hz_to_angular(10.0))
        assert np.angle(amp) == pytest.approx(np.pi / 3)


class TestDensityMatrixValidation:
    @pytest.mark.parametrize("shape", [(16,), (4, 3), (16, 16)])
    def test_shape_enforced(self, shape):
        with pytest.raises(ValueError, match=(
                rf"^expected a 4x4 matrix, got {re.escape(str(shape))}$")):
            validate_density_matrix(np.zeros(shape, dtype=complex))

    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.diag([0, 0, 0.6, 0.5]).astype(complex))

    def test_hermiticity_enforced(self):
        bad = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(bad)

    def test_positivity_enforced(self):
        bad = np.diag([-1e-3, 1e-3, 0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            validate_density_matrix(bad)

    def test_non_finite_rejected(self):
        # Every comparison with NaN is false, so one NaN on the diagonal
        # passes the tolerance checks unless finiteness comes first; an
        # all-NaN matrix would reach the eigenvalue solver.
        one = np.diag([np.nan, 1.0, 0.0, 0.0]).astype(complex)
        for bad in (one, np.full((4, 4), np.nan + 0j)):
            with pytest.raises(ValueError, match="non-finite"):
                validate_density_matrix(bad)

    # inf - inf in the Hermiticity comparison makes numpy warn before
    # the error is raised.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal",
                                       "hermitian-pair"])
    def test_infinite_entry_rejected_as_non_finite(self, value, where):
        # Finiteness is tested where the Hermiticity comparison fails; an
        # inf entry must fail it wherever it sits, even when its mirror
        # entry matches it.
        bad = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        if where == "diagonal":
            bad[2, 2] = value
        else:
            bad[0, 1] = value
            if where == "hermitian-pair":
                bad[1, 0] = np.conj(value)
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(bad)

    def test_hermiticity_tolerance_is_inclusive(self):
        # rho[0, 1] - conj(rho[1, 0]) is exactly the asymmetry.
        rho = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        rho[0, 1] = 1e-12
        validate_density_matrix(rho)
        rho[0, 1] = 2e-12
        with pytest.raises(ValueError, match=(
                "^matrix is not Hermitian: max asymmetry 2.000e-12$")):
            validate_density_matrix(rho)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hermitian_pair_rejected(self, value):
        # The pair is exactly Hermitian in value, so only the non-finite
        # skew (NaN - NaN or inf - inf) can send it to the error.
        bad = np.diag([0, 0, 0.5, 0.5]).astype(complex)
        bad[0, 1] = bad[1, 0] = value
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            validate_density_matrix(bad)

    def test_exactly_hermitian_state_skips_symmetrising(self, monkeypatch):
        # The positivity test sees the Hermitian part 0.5 * (rho + rho^H),
        # first in the Cholesky certificate and then, when that breaks
        # down, in heevd; an exactly Hermitian rho is its own Hermitian
        # part and goes as it is, while an asymmetry within the tolerance
        # is still averaged.
        seen = []
        potrf, heevd = core._potrf, core._heevd

        def capturing_potrf(a, lower):
            seen.append(("potrf", a))
            return potrf(a, lower=lower)

        def capturing_heevd(a, compute_v, lower):
            seen.append(("heevd", a))
            return heevd(a, compute_v=compute_v, lower=lower)

        monkeypatch.setattr(core, "_potrf", capturing_potrf)
        monkeypatch.setattr(core, "_heevd", capturing_heevd)
        # Positive definite (certified), then singular with empty excited
        # states (the eigenvalue fallback).
        for excited, calls in ((0.1, ["potrf"]), (0.0, ["potrf", "heevd"])):
            ground = 0.5 - excited
            rho = np.diag([excited, excited, ground, ground]).astype(complex)
            rho[2, 3] = 0.1 + 0.05j
            rho[0, 2] = excited * (0.2 - 0.1j)
            rho += np.triu(rho, 1).conj().T
            seen.clear()
            validate_density_matrix(rho)
            assert [name for name, _ in seen] == calls
            assert all(a is rho for _, a in seen)

            skewed = rho.copy()
            skewed[0, 2] += 5e-13
            seen.clear()
            validate_density_matrix(skewed)
            hermitian_part = 0.5 * (skewed + skewed.conj().T)
            assert [name for name, _ in seen] == calls
            assert all(a.tobytes() == hermitian_part.tobytes()
                       for _, a in seen)
            assert not np.array_equal(hermitian_part, skewed)

    def test_positive_definite_state_skips_eigenvalues(self, monkeypatch):
        # A completed Cholesky factorisation certifies the floor alone;
        # the steady states of both presets are positive definite.
        states = [np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)]
        for name in ("fig3-cold", "fig4-warm"):
            drive = preset_drive(name)
            gen = circular_template(preset_atom(name)).generator(
                drive.delta_b, *input_fields(drive))
            states.append(steady_state_matrix(gen))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("heevd called on a positive-definite state")

        monkeypatch.setattr(core, "_heevd", forbidden)
        for rho in states:
            validate_density_matrix(rho)

    @pytest.mark.parametrize("rho, verdict", [
        (np.diag([0, 0, 0.5, 0.5]), None),
        (np.diag([-1e-3, 1e-3, 0.5, 0.5]), "negative eigenvalue"),
    ])
    def test_singular_or_indefinite_state_computes_eigenvalues(
            self, monkeypatch, rho, verdict):
        calls = []
        heevd = core._heevd

        def counted(a, compute_v, lower):
            calls.append(a)
            return heevd(a, compute_v=compute_v, lower=lower)

        monkeypatch.setattr(core, "_heevd", counted)
        rho = rho.astype(complex)
        if verdict is None:
            validate_density_matrix(rho)
        else:
            with pytest.raises(ValueError, match=verdict):
                validate_density_matrix(rho)
        assert len(calls) == 1

    def test_certificate_keeps_eigenvalue_verdicts(self, monkeypatch):
        # Random unit-trace states with the smallest eigenvalue placed
        # at and around the floor: the check with the Cholesky
        # certificate gives the verdict and message that eigenvalues
        # alone give (the certificate patched to always break down).
        def verdict(rho):
            try:
                validate_density_matrix(rho)
            except ValueError as exc:
                return str(exc)
            return None

        def broken_down(a, lower):
            return a, 1

        rng = np.random.default_rng(20131024)
        floor = core.EIGENVALUE_FLOOR
        targets = (2.0 * floor, floor * (1 + 1e-7), floor * (1 - 1e-7),
                   -1e-12, 0.0, 1e-15)
        accepted = fallbacks = 0
        potrf = core._potrf

        def counted(a, lower):
            nonlocal fallbacks
            c, info = potrf(a, lower=lower)
            fallbacks += info != 0
            return c, info

        monkeypatch.setattr(core, "_potrf", counted)
        for lam in targets:
            for _ in range(400):
                z = (rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))
                unitary = np.linalg.qr(z)[0]
                rest = rng.uniform(size=3)
                eigs = np.concatenate(([lam], rest * (1 - lam) / rest.sum()))
                rho = (unitary * eigs) @ unitary.conj().T
                rho = 0.5 * (rho + rho.conj().T)
                got = verdict(rho)
                with monkeypatch.context() as m:
                    m.setattr(core, "_potrf", broken_down)
                    expected = verdict(rho)
                assert got == expected
                accepted += got is None
        # Both verdicts and both paths occur.
        assert 0 < accepted < 2400
        assert 0 < fallbacks < 2400

    def test_eigenvalue_solver_failure_is_value_error(self, monkeypatch):
        def failing(a, compute_v, lower):
            return np.zeros(4), np.zeros((0, 0)), 3

        monkeypatch.setattr(core, "_heevd", failing)
        with pytest.raises(ValueError, match="LAPACK info 3"):
            validate_density_matrix(np.diag([0, 0, 0.5, 0.5]).astype(complex))


class TestCurve:
    def test_monotone_required(self):
        with pytest.raises(ValueError, match="increasing"):
            Curve("x", [0.0, 0.0], [1.0, 2.0])

    @pytest.mark.parametrize("xs, bad", [
        ([0.0, np.nan, 2.0], "nan"), ([0.0, 1.0, np.inf], "inf"),
    ], ids=["nan", "inf"])
    def test_finite_abscissa_required(self, xs, bad):
        # Both were accepted: a comparison with NaN is False, and inf
        # keeps the abscissa increasing.
        with pytest.raises(ValueError,
                           match=f"^abscissa value must be finite, got {bad}$"):
            Curve("x", xs, [1.0, 2.0, 3.0])

    def test_grid_messages_name_one_entry_or_the_grid(self):
        # A bad entry is one value; the ordering is a property of all.
        with pytest.raises(ValueError, match=(
                "^sweep grid value is an integer too large for a float$")):
            core.check_grid([0.0, 10**400], "sweep grid")
        with pytest.raises(ValueError, match=(
                "^sweep grid values must be strictly increasing$")):
            core.check_grid([1.0, 0.0], "sweep grid")

    def test_accessors(self):
        curve = Curve("x", [0.0, 1.0, 2.5], [1.0, 2.0, -1.0])
        assert len(curve) == 3
        assert np.allclose(curve.xs, [0.0, 1.0, 2.5])
        assert np.allclose(curve.ys, [1.0, 2.0, -1.0])

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Curve("x", [], [])
        with pytest.raises(ValueError, match="equal length"):
            Curve("x", [0.0, 1.0], [1.0])
