import numpy as np
import pytest

from conftest import GROUND_MIX
from lambdaloop import core
from lambdaloop import (
    AtomParams,
    Curve,
    DriveConfig,
    to_circular,
    to_linear,
)
from lambdaloop.core import (
    RateHierarchyWarning,
    hz_to_angular,
    validate_density_matrix,
)


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
        drive = DriveConfig(0.0, 7.5, 1.0, 0.5)
        assert 0.0 <= drive.phi < 2 * np.pi
        assert drive.phi == pytest.approx(7.5 - 2 * np.pi)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError, match="omega_c must be non-negative"):
            DriveConfig(0.0, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError, match="omega_p must be non-negative"):
            DriveConfig(0.0, 0.0, 1.0, -0.5)

    def test_probe_amplitude_carries_phase(self):
        drive = DriveConfig.from_hz(0.0, np.pi / 3, 0.0, 10.0)
        amp = drive.probe_amplitude
        assert abs(amp) == pytest.approx(hz_to_angular(10.0))
        assert np.angle(amp) == pytest.approx(np.pi / 3)


class TestDensityMatrixValidation:
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

    def test_exactly_hermitian_state_skips_symmetrising(self, monkeypatch):
        # The solver sees the Hermitian part 0.5 * (rho + rho^H); an
        # exactly Hermitian rho is its own Hermitian part and goes as it
        # is, while an asymmetry within the tolerance is still averaged.
        seen = []
        heevd = core._heevd

        def capturing(a, compute_v, lower):
            seen.append(a)
            return heevd(a, compute_v=compute_v, lower=lower)

        monkeypatch.setattr(core, "_heevd", capturing)
        rho = np.diag([0.1, 0.1, 0.4, 0.4]).astype(complex)
        rho[2, 3] = 0.1 + 0.05j
        rho[0, 2] = 0.02 - 0.01j
        rho += np.triu(rho, 1).conj().T
        validate_density_matrix(rho)
        assert seen[-1] is rho

        skewed = rho.copy()
        skewed[0, 2] += 5e-13
        validate_density_matrix(skewed)
        hermitian_part = 0.5 * (skewed + skewed.conj().T)
        assert seen[-1].tobytes() == hermitian_part.tobytes()
        assert not np.array_equal(hermitian_part, skewed)

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
                           match=f"^abscissa values must be finite, got {bad}$"):
            Curve("x", xs, [1.0, 2.0, 3.0])

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
