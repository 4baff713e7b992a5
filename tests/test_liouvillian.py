import dataclasses

import numpy as np
import pytest

from conftest import GROUND_MIX, circular_generator, linear_generator
from lambdaloop import (
    AtomParams,
    DriveConfig,
    SteadyStateError,
    evolve_expm,
    input_fields,
    nullspace_dimension,
    preset_atom,
    preset_drive,
    steady_state_matrix,
    substitution_image,
)
from lambdaloop.core import hz_to_angular
from lambdaloop import liouvillian
from lambdaloop.liouvillian import (
    COUPLING_FIELD1,
    COUPLING_FIELD2,
    HERMITIAN_BASIS,
    UPPER_PROJECTOR,
    ZEEMAN_CIRCULAR,
    circular_template,
    commutator_superop,
    dissipator_superop,
    hermitian_coordinates,
    jump_operators,
    refined_solve,
    solve_sideband,
)
from lambdaloop.spectroscopy import _operating_point

UNPOLARIZED = np.diag([0, 0, 0.5, 0.5]).astype(complex)


def random_drive(rng, oc_hz, op_hz):
    return DriveConfig.from_hz(
        rng.uniform(-100, 100),
        rng.uniform(0, 2 * np.pi),
        oc_hz * rng.uniform(0.5, 1.5),
        op_hz * rng.uniform(0.5, 1.5),
    )


def apply(gen, rho):
    """gen, in Hermitian coordinates, applied to a 4x4 matrix."""
    x = HERMITIAN_BASIS @ rho.reshape(-1)
    return (HERMITIAN_BASIS.conj().T @ (gen @ x)).reshape(4, 4)


# The ground Hadamard rho -> GROUND_MIX rho GROUND_MIX, its own inverse.
MIX = hermitian_coordinates(np.kron(GROUND_MIX, GROUND_MIX))

PRESET_SCALES = pytest.mark.parametrize("name, oc_hz, op_hz", [
    ("fig3-cold", 20e3, 5e3), ("fig4-warm", 240e3, 60e3)])


class TestHamiltonian:
    """The coherent part -i[H, .] of the generator."""

    def test_all_zero(self):
        # No fields, no Zeeman splitting and no excited splitting leave
        # only the dissipator.
        atom = AtomParams.from_hz(6e6, 10, 10, 0.0, 0.15, 0.075)
        gen = circular_generator(atom, DriveConfig(0, 0, 0, 0))
        assert np.array_equal(
            gen, hermitian_coordinates(dissipator_superop(jump_operators(atom))))

    def test_diagonal_zeeman(self, cold_atom):
        # With the fields off, rho_34 rotates at the Zeeman splitting and
        # rho_12 at the excited splitting, each decaying at its own rate.
        drive = DriveConfig.from_hz(80.0, 0.0, 0.0, 0.0)
        gen = circular_generator(cold_atom, drive)
        for (i, j), rate in (
            ((2, 3), -1j * drive.delta_b - cold_atom.gamma_coh),
            ((0, 1), -1j * cold_atom.delta_exc - cold_atom.gamma_e),
        ):
            coh = np.zeros((4, 4), complex)
            coh[i, j] = 1.0
            assert np.allclose(apply(gen, coh), rate * coh,
                               rtol=0.0, atol=1e-12 * abs(rate))

    def test_hermitian_random(self, cold_atom, rng):
        # A Hermitian H and Lindblad dissipation map Hermitian states to
        # Hermitian derivatives, at any complex field amplitudes.
        for _ in range(10):
            drive = random_drive(rng, 20e3, 5e3)
            fields = rng.normal(size=2) + 1j * rng.normal(size=2)
            gen = circular_generator(cold_atom, drive, fields)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            out = apply(gen, a + a.conj().T)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12 * np.max(
                np.abs(gen)
            )

    def test_linear_equals_rotated_circular(self, cold_atom, rng):
        # The cold preset has gamma_coh = gamma_pop, so unlike the warm
        # check below no dephasing jump operator enters.
        for _ in range(5):
            drive = random_drive(rng, 20e3, 5e3)
            gen_l = hermitian_coordinates(linear_generator(cold_atom, drive))
            rotated = MIX @ circular_generator(cold_atom, drive) @ MIX
            assert np.max(np.abs(rotated - gen_l)) < 1e-12 * np.max(
                np.abs(gen_l)
            )


class TestGenerator:
    @PRESET_SCALES
    def test_trace_preservation(self, rng, name, oc_hz, op_hz):
        # The trace functional in Hermitian coordinates is the sum of the
        # four populations, the trace row the steady-state solve adds to
        # row 0, and it is a left null vector of every generator.
        trace_row = np.eye(4).reshape(-1) @ HERMITIAN_BASIS.conj().T
        assert np.abs(trace_row - np.repeat([1.0, 0.0], [4, 12])).max() <= 1e-15
        params = preset_atom(name)
        for _ in range(20):
            fields = (rng.normal(size=2) + 1j * rng.normal(size=2)) * oc_hz
            gen = circular_generator(params, random_drive(rng, oc_hz, op_hz),
                                     fields)
            top = gen[:4].sum(axis=0)
            assert np.max(np.abs(top)) <= 1e-15 * np.max(np.abs(gen))

    def test_builders_take_the_size_of_their_operators(self):
        # The two-level pieces of the Beer-Lambert oracle: the trace
        # functional vec(I2) annihilates each, and the dissipator decays
        # the upper level |0><0| into |1><1| at the jump rate.
        raise_op = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        jump = 3.0 * raise_op.T
        pieces = (commutator_superop(raise_op),
                  commutator_superop(raise_op.T), dissipator_superop([jump]))
        trace = np.eye(2).reshape(-1)
        for piece in pieces:
            assert piece.shape == (4, 4)
            assert not (trace @ piece).any()
        assert np.array_equal(pieces[2] @ np.diag([1.0, 0.0]).reshape(-1),
                              [-9.0, 0.0, 0.0, 9.0])

    def test_zero_drive_annihilates_unpolarized(self, cold_atom):
        gen = circular_generator(cold_atom, DriveConfig(0, 0, 0, 0))
        assert np.max(np.abs(apply(gen, UNPOLARIZED))) < 1e-9

    def test_designed_decay_rates(self, cold_atom):
        # With fields and B off the generator must decay the circular
        # ground population difference at gamma_pop, the ground coherence
        # at gamma_coh, optical coherences at (gamma_e + gamma_coh)/2 and
        # the excited coherence at gamma_e.
        gen = circular_generator(cold_atom, DriveConfig(0, 0, 0, 0))

        def decay_of(matrix, element):
            return -apply(gen, matrix)[element].real / matrix[element].real

        popdiff = np.diag([0, 0, 1.0, -1.0]).astype(complex)
        out = apply(gen, popdiff)
        assert np.allclose(out, -cold_atom.gamma_pop * popdiff, atol=1e-8)

        coh34 = np.zeros((4, 4), complex)
        coh34[2, 3] = 1.0
        assert decay_of(coh34, (2, 3)) == pytest.approx(cold_atom.gamma_coh)

        opt = np.zeros((4, 4), complex)
        opt[1, 2] = 1.0
        assert decay_of(opt, (1, 2)) == pytest.approx(
            0.5 * (cold_atom.gamma_e + cold_atom.gamma_coh)
        )

        exc = np.zeros((4, 4), complex)
        exc[0, 1] = 1.0
        assert decay_of(exc, (0, 1)) == pytest.approx(cold_atom.gamma_e)

    def test_linear_circular_unitary_equivalence(self, warm_atom, rng):
        drive = random_drive(rng, 240e3, 60e3)
        gen_c = circular_generator(warm_atom, drive)
        gen_l = hermitian_coordinates(linear_generator(warm_atom, drive))
        assert np.max(np.abs(MIX @ gen_c @ MIX - gen_l)) < 1e-12 * np.max(
            np.abs(gen_l)
        )

    @pytest.mark.parametrize("preset", ["fig3-cold", "fig4-warm"])
    def test_stacked_basis_matches_six_term_sum(self, preset, rng):
        # The complex vec-coordinate assembly, rebuilt here from the
        # operators and mapped by the helper, so the order of the stacked
        # basis and its (Re, Im) coefficients are checked as well as the
        # product.
        atom = preset_atom(preset)
        template = circular_template(atom)
        static = (atom.delta_exc * commutator_superop(UPPER_PROJECTOR)
                  + dissipator_superop(jump_operators(atom)))
        for _ in range(20):
            delta_b = rng.normal() * 1e3
            amp_a, amp_b = (complex(*rng.normal(size=2)) * 1e5
                            for _ in range(2))
            expected = (
                static
                + delta_b * commutator_superop(ZEEMAN_CIRCULAR)
                + amp_a * commutator_superop(COUPLING_FIELD1)
                + np.conj(amp_a) * commutator_superop(COUPLING_FIELD1.conj().T)
                + amp_b * commutator_superop(COUPLING_FIELD2)
                + np.conj(amp_b) * commutator_superop(COUPLING_FIELD2.conj().T)
            )
            expected = hermitian_coordinates(expected)
            got = template.generator(delta_b, amp_a, amp_b)
            assert got.shape == (16, 16)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(
                np.abs(expected))

    def test_template_cached_per_atom(self, cold_atom, warm_atom):
        # Equal AtomParams values share one template; other atoms do not.
        twin = dataclasses.replace(cold_atom)
        assert twin is not cold_atom
        template = circular_template(cold_atom)
        assert circular_template(twin) is template
        other = circular_template(warm_atom)
        assert other is not template
        assert not np.array_equal(other.basis[0], template.basis[0])

    def test_template_basis_read_only(self, cold_atom):
        template = circular_template(cold_atom)
        with pytest.raises(ValueError, match="read-only"):
            template.basis[0, 0, 0] = 1.0

    def test_generator_returns_fresh_writable_array(self, cold_atom,
                                                    cold_drive):
        template = circular_template(cold_atom)
        fields = input_fields(cold_drive)
        first = template.generator(cold_drive.delta_b, *fields)
        expected = first.copy()
        assert first.flags.writeable
        assert not np.shares_memory(first, template.basis)
        first[:] = np.nan
        second = template.generator(cold_drive.delta_b, *fields)
        assert second is not first
        assert np.array_equal(second, expected)

    def test_rejects_coherence_faster_than_population(self):
        # The decay model needs a non-negative extra dephasing rate, so
        # the atom itself refuses gamma_coh < gamma_pop.
        with pytest.raises(ValueError, match="gamma_coh .* >= gamma_pop"):
            AtomParams.from_hz(6e6, 20, 10, 800e6, 0.15, 0.075)


class TestRefinedSolve:
    def test_factors_once_per_call(self, monkeypatch, rng):
        # gesv factors and solves; getrs runs once, for the refinement.
        calls = []
        refinements = []
        gesv, getrs = liouvillian._gesv, liouvillian._getrs

        def counting(a, b):
            calls.append(a.shape)
            return gesv(a, b)

        def counting_getrs(lu, piv, b):
            refinements.append(b.shape)
            return getrs(lu, piv, b)

        monkeypatch.setattr(liouvillian, "_gesv", counting)
        monkeypatch.setattr(liouvillian, "_getrs", counting_getrs)
        a = rng.normal(size=(16, 16)) + 16.0 * np.eye(16) + 0j
        for n in range(1, 4):
            refined_solve(a, np.ones(16, dtype=complex))
            assert calls == [(16, 16)] * n
            assert refinements == [(16,)] * n

    def test_real_matrix_takes_the_real_pair(self, monkeypatch, rng):
        # A real system is factored and refined in real arithmetic; the
        # complex pair is not called.
        calls = []
        gesv, getrs = liouvillian._real_gesv, liouvillian._real_getrs

        def forbidden(*_args):
            raise AssertionError("complex LAPACK called on a real system")

        def counting(a, b):
            calls.append(a.dtype)
            return gesv(a, b)

        monkeypatch.setattr(liouvillian, "_gesv", forbidden)
        monkeypatch.setattr(liouvillian, "_getrs", forbidden)
        monkeypatch.setattr(liouvillian, "_real_gesv", counting)
        monkeypatch.setattr(liouvillian, "_real_getrs", getrs)
        a = rng.normal(size=(16, 16)) + 16.0 * np.eye(16)
        b = rng.normal(size=16)
        x = refined_solve(a, b)
        assert calls == [np.float64]
        assert x.dtype == np.float64
        assert np.abs(a @ x - b).max() <= 1e-13 * np.abs(b).max()

    def test_singular_raises(self):
        zero_column = np.eye(16, dtype=complex)
        zero_column[:, 5] = 0.0
        for a in (np.zeros((16, 16), dtype=complex), zero_column):
            with pytest.raises(np.linalg.LinAlgError):
                refined_solve(a, np.ones(16, dtype=complex))

    def test_matches_numpy_solve_with_refinement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
                 + 16.0 * np.eye(16))
            b = rng.normal(size=16) + 1j * rng.normal(size=16)
            expected = np.linalg.solve(a, b)
            expected += np.linalg.solve(a, b - a @ expected)
            got = refined_solve(a, b)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(
                np.abs(expected))


class TestSteadyState:
    def test_zero_drive(self, cold_atom):
        gen = circular_generator(cold_atom, DriveConfig(0, 0, 0, 0))
        assert np.allclose(steady_state_matrix(gen), UNPOLARIZED, atol=1e-12)

    def test_unique_kernel_at_cold_preset(self, cold_atom, cold_drive):
        assert nullspace_dimension(circular_generator(cold_atom, cold_drive)) == 1

    def test_degenerate_kernel_rejected(self):
        # A purely Hamiltonian generator conserves every population, so
        # its kernel is far from one-dimensional.
        h = np.zeros((4, 4), complex)
        h[0, 1] = h[1, 0] = 1e6
        gen = hermitian_coordinates(
            -1j * (np.kron(h, np.eye(4)) - np.kron(np.eye(4), h.T)))
        with pytest.raises(SteadyStateError, match="degenerate"):
            steady_state_matrix(gen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_rejected(self, cold_atom, cold_drive, bad):
        # One bad entry, or all of them: a typed error, not the SVD's
        # LinAlgError.
        one = circular_generator(cold_atom, cold_drive)
        one[5, 7] = bad
        for gen in (one, np.full((16, 16), bad)):
            with pytest.raises(SteadyStateError,
                               match="generator has non-finite entries"):
                steady_state_matrix(gen)

    @pytest.mark.parametrize("size, message", [
        (1e200, "generator norm overflows although every entry is finite"),
        (1e-170, "generator norm underflows although every entry is finite"),
    ], ids=["overflow", "underflow"])
    def test_unrepresentable_norm_rejected(self, cold_atom, cold_drive,
                                           size, message):
        # Finite nonzero entries whose squared magnitudes sum past the
        # float range, or below its smallest subnormal: the norm that
        # scales the trace row is inf or 0, and the error says so rather
        # than blaming the entries.
        gen = circular_generator(cold_atom, cold_drive)
        gen *= size / np.abs(gen).max()
        assert np.isfinite(gen).all() and gen.any()
        with pytest.raises(SteadyStateError) as err:
            steady_state_matrix(gen)
        assert str(err.value) == message

    @pytest.mark.parametrize("gen, message", [
        (np.zeros((16, 16)), "zero generator has no unique steady state"),
        # A zero row below row 0 leaves the augmented system singular
        # while the kernel of the generator stays one-dimensional.
        (np.diag([1.0] + [0.0] + [1.0] * 14),
         "steady-state solve failed: Singular matrix"),
        # An invertible generator, G = I with norm 4: the augmented
        # system -x + 4 e0 Tr x = 4 e0 has the solution x = (4/3) e0,
        # whose residual ||G x|| = 4/3 fails the check.
        (hermitian_coordinates(np.eye(16)),
         "steady-state residual 1.333e+00 exceeds 1e-08 * ||generator|| "
         "= 4.000e-08"),
    ], ids=["zero", "singular", "high-residual"])
    def test_failure_messages(self, gen, message):
        with pytest.raises(SteadyStateError) as err:
            steady_state_matrix(gen)
        assert str(err.value) == message

    def test_unphysical_kernel_rejected(self, rng):
        # G = B (I - x x^T / |x|^2) has the unique kernel x, the
        # coordinates of diag(1.5, -0.5, 0, 0), of unit trace, and the
        # solve meets the residual check; only the eigenvalue floor
        # rejects the state.  Every real matrix is a Hermiticity-preserving
        # superoperator in Hermitian coordinates: the helper maps its vec
        # form back to it.
        x = np.zeros(16)
        x[:2] = 1.5, -0.5
        b = 4.0 * np.eye(16) + rng.normal(size=(16, 16))
        real = b @ (np.eye(16) - np.outer(x, x) / x.dot(x))
        gen = hermitian_coordinates(
            HERMITIAN_BASIS.conj().T @ real @ HERMITIAN_BASIS)
        assert np.abs(gen - real).max() <= 1e-14 * np.abs(real).max()
        assert nullspace_dimension(gen) == 1
        with pytest.raises(SteadyStateError, match=(
                r"^steady state is unphysical: negative eigenvalue "
                r"-5\.000e-01 below floor$")):
            steady_state_matrix(gen)

    def test_matches_long_time_evolution(self, soft_atom, rng):
        # Independent oracle: the exact semigroup applied for 50 ground
        # lifetimes on a rate-compressed system.
        for _ in range(3):
            gen = circular_generator(soft_atom, random_drive(rng, 300.0, 80.0))
            t_final = 50.0 / min(soft_atom.gamma_pop, soft_atom.gamma_coh)
            evolved = evolve_expm(UNPOLARIZED, gen, t_final)
            assert np.max(np.abs(evolved - steady_state_matrix(gen))) < 1e-6

    def test_validity_on_random_drives(self, warm_atom, rng):
        for _ in range(10):
            gen = circular_generator(warm_atom, random_drive(rng, 240e3, 60e3))
            rho = steady_state_matrix(gen)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_phase_gauge_invariance(self, cold_atom, rng):
        drive = random_drive(rng, 20e3, 5e3)
        gen = circular_template(cold_atom).generator
        fields = input_fields(drive)
        gauge = np.exp(1j * 0.77)
        rho_a = steady_state_matrix(gen(drive.delta_b, *fields))
        rho_b = steady_state_matrix(gen(drive.delta_b, *(fields * gauge)))
        assert np.max(np.abs(np.diag(rho_a) - np.diag(rho_b))) < 1e-12
        assert np.max(np.abs(np.abs(rho_a) - np.abs(rho_b))) < 1e-12


class TestSidebandSystem:
    """Both solves against the generator share one trace-augmented
    matrix, M(delta) = -i*delta - L + ||L||_F e0 tr^T."""

    PRESETS = pytest.mark.parametrize("preset", ["fig3-cold", "fig4-warm"])

    @staticmethod
    def operating_point(preset):
        gen0, rho0, probe, _ = _operating_point(preset_atom(preset),
                                                preset_drive(preset))
        return gen0, probe @ rho0

    @PRESETS
    @pytest.mark.parametrize("delta_hz", [-40.0, 3.0, 150.0])
    def test_matches_plain_system_off_resonance(self, preset, delta_hz):
        # A trace-free seed: the augmented row changes nothing.
        gen, seed = self.operating_point(preset)
        delta = hz_to_angular(delta_hz)
        expected = np.linalg.solve(-1j * delta * np.eye(16) - gen, seed)
        got = solve_sideband(gen, delta, seed)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @PRESETS
    @pytest.mark.parametrize("delta_hz", [0.0, 1e-300, 1e-12, 3.0])
    def test_response_is_trace_free(self, preset, delta_hz):
        # The trace is the sum of the first four coordinates.
        gen, seed = self.operating_point(preset)
        assert abs(seed[:4].sum()) <= 1e-14 * np.abs(seed).max()
        x = solve_sideband(gen, hz_to_angular(delta_hz), seed)
        assert abs(x[:4].sum()) <= 1e-14 * np.abs(x).max()

    @PRESETS
    def test_resonant_matrix_is_the_carrier_matrix(self, preset,
                                                   monkeypatch):
        # The carrier factors the real M(0), the sideband the complex
        # M(0): the same values, with a zero imaginary part.
        gen, seed = self.operating_point(preset)
        matrices = []

        def recording(name):
            gesv = getattr(liouvillian, name)

            def recorded(a, b):
                matrices.append(a.copy())
                return gesv(a, b)
            monkeypatch.setattr(liouvillian, name, recorded)

        recording("_real_gesv")
        recording("_gesv")
        steady_state_matrix(gen)
        solve_sideband(gen, 0.0, seed)
        carrier, sideband = matrices
        assert carrier.dtype == np.float64
        assert sideband.dtype == np.complex128
        assert np.array_equal(sideband.real, carrier)
        assert not sideband.imag.any()


class TestTimeEvolution:
    def test_zero_time_identity(self, soft_atom, soft_drive):
        gen = circular_generator(soft_atom, soft_drive)
        out = evolve_expm(UNPOLARIZED, gen, 0.0)
        assert np.allclose(out, UNPOLARIZED, atol=1e-15)

    def test_ground_relaxation_rate(self, soft_atom):
        # Zero drive, start in one circular ground state: populations
        # relax toward (1/2, 1/2) exponentially at gamma_pop.
        gen = circular_generator(soft_atom, DriveConfig(0, 0, 0, 0))
        rho0 = np.diag([0, 0, 1.0, 0.0]).astype(complex)
        t = 0.35 / soft_atom.gamma_pop
        out = evolve_expm(rho0, gen, t)
        expected = 0.5 + 0.5 * np.exp(-soft_atom.gamma_pop * t)
        assert out[2, 2].real == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("t_final", [np.nan, np.inf])
    def test_expm_rejects_non_finite_time(self, soft_atom, soft_drive,
                                          t_final):
        gen = circular_generator(soft_atom, soft_drive)
        with pytest.raises(ValueError,
                           match=f"^t_final must be finite and non-negative, "
                                 f"got {t_final!r}$"):
            evolve_expm(UNPOLARIZED, gen, t_final)


class TestHermitianBasis:
    """The real coordinates every generator is carried in."""

    def test_unitary_and_read_only(self):
        gram = HERMITIAN_BASIS @ HERMITIAN_BASIS.conj().T
        assert np.abs(gram - np.eye(16)).max() <= 1e-15
        assert not HERMITIAN_BASIS.flags.writeable

    def test_hermitian_state_has_real_coordinates(self, rng):
        # (rho_ii, sqrt(2) Re rho_ij, sqrt(2) Im rho_ij) over i < j.
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a + a.conj().T
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        expected = np.concatenate([
            rho.diagonal().real,
            [np.sqrt(2) * rho[i, j].real for i, j in pairs],
            [np.sqrt(2) * rho[i, j].imag for i, j in pairs],
        ])
        got = HERMITIAN_BASIS @ rho.reshape(-1)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["fig3-cold", "fig4-warm"])
    def test_template_pieces_have_real_images(self, name):
        # The six vec-coordinate pieces the template maps: static and
        # Zeeman, then X + Y and i (X - Y) for each drive pair.  Their
        # images sit at rounding level from real, far inside the
        # helper's HERMITICITY_TOL.
        atom = preset_atom(name)
        pieces = [atom.delta_exc * commutator_superop(UPPER_PROJECTOR)
                  + dissipator_superop(jump_operators(atom)),
                  commutator_superop(ZEEMAN_CIRCULAR)]
        for coupling in (COUPLING_FIELD1, COUPLING_FIELD2):
            up = commutator_superop(coupling)
            down = commutator_superop(coupling.conj().T)
            pieces += [up + down, 1j * (up - down)]
        template = circular_template(atom)
        for piece, stored in zip(pieces, template.basis):
            image = HERMITIAN_BASIS @ piece @ HERMITIAN_BASIS.conj().T
            assert np.abs(image.imag).max() <= 1e-16 * np.abs(piece).max()
            assert np.array_equal(stored, hermitian_coordinates(piece))

    def test_helper_rejects_a_piece_that_breaks_hermiticity(self, rng):
        # One drive piece alone, -i[V, .] with V not Hermitian, maps
        # Hermitian states off the Hermitian ones; so does a random
        # complex matrix.  A non-finite entry fails the same check.
        bad = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        nan = np.eye(16)
        nan[3, 4] = np.nan
        for superop in (commutator_superop(COUPLING_FIELD1), bad, nan):
            with pytest.raises(ValueError,
                               match="does not preserve Hermiticity"):
                hermitian_coordinates(superop)

    def test_conjugation_is_the_dagger_map(self, rng):
        # D(v) = vec(mat(v)^dagger) becomes plain complex conjugation:
        # T D(v) = conj(T v).
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            got = HERMITIAN_BASIS @ m.conj().T.reshape(-1)
            want = (HERMITIAN_BASIS @ m.reshape(-1)).conj()
            assert np.abs(got - want).max() <= 1e-15 * np.abs(m).max()

    @pytest.mark.parametrize("name", ["fig3-cold", "fig4-warm"])
    def test_probe_pieces_are_conjugates(self, name):
        params = preset_atom(name)
        _, _, up, dn = _operating_point(params, preset_drive(name))
        assert np.array_equal(up, dn.conj())
        # The sideband term is real only through the pair: up itself is
        # complex.
        assert np.abs(up.imag).max() > 0.1 * np.abs(up).max()

    @pytest.mark.parametrize("name", ["fig3-cold", "fig4-warm"])
    def test_drive_pieces_rebuild_the_stored_pieces(self, name):
        # 2 Re X and -2 Im X of each drive piece X are the stored real
        # pieces; its partner is conj(X) (test_spectroscopy.py).
        template = circular_template(preset_atom(name))
        pieces = template.drive_pieces
        assert not pieces.flags.writeable
        assert np.array_equal(2.0 * pieces[0::2].real, template.basis[2::2])
        assert np.array_equal(-2.0 * pieces[0::2].imag, template.basis[3::2])


class TestSubstitutionImage:
    def test_example(self):
        drive = DriveConfig.from_hz(40.0, 0.0, 1.0, 1.0)
        image = substitution_image(drive)
        assert image.delta_b == pytest.approx(hz_to_angular(-40.0))
        assert image.phi == pytest.approx(np.pi)

    def test_involution(self, rng):
        drive = random_drive(rng, 20e3, 5e3)
        twice = substitution_image(substitution_image(drive))
        assert twice.delta_b == pytest.approx(drive.delta_b)
        assert twice.phi == pytest.approx(drive.phi, abs=1e-12)

    def test_zero_field_fixed_point(self):
        drive = DriveConfig.from_hz(0.0, 1.3, 1.0, 1.0)
        image = substitution_image(drive)
        assert image.delta_b == 0.0
        assert image.phi == pytest.approx(1.3 + np.pi)

    def test_single_atom_observable_invariant(self, warm_atom, cold_atom, rng):
        # |rho_1X + rho_2Y| from the steady state is identical between a
        # drive and its substitution image.
        for params, oc, op in ((cold_atom, 20e3, 5e3), (warm_atom, 240e3, 60e3)):
            def coherence(d):
                rho = steady_state_matrix(
                    hermitian_coordinates(linear_generator(params, d)))
                return abs(rho[0, 2] + rho[1, 3])

            drive = random_drive(rng, oc, op)
            image = substitution_image(drive)
            assert coherence(drive) == pytest.approx(
                coherence(image), abs=1e-10
            )
