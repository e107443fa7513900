"""Operator construction on the truncated two-mode Fock space."""

import math

import numpy as np
import pytest

from bellosc.fock import (
    ConvergenceError,
    OperatorMatrix,
    TwoModeBasis,
    bell_vector,
    ladder_matrices,
    quadrature_matrices,
    solve,
)
from bellosc.model import BellState, SystemParams, eta


def normal_mode_ladders(system):
    """(A+, A+^dag, A-, A-^dag) with A = sqrt(w/2) (X + i P / w) at each mode's frequency."""
    out = []
    for x, p, w in system.normal_modes():
        a = np.sqrt(w / 2.0) * (x + 1j * p / w)
        out += [a, a.conj().T]
    return out


def shifted_form_hamiltonian(system):
    """(p1^2 + p2^2 + w'^2 (x1^2 + x2^2) - 2 W^2 x1 x2) / 2 with w'^2 = w^2 + W^2.

    The same Hamiltonian with the coupling written as a frequency shift and a
    position-position term, assembled from dense products of the lifted
    quadratures.
    """
    s, params = system, system.params
    big_omega2 = (params.coupling_ratio * params.omega) ** 2
    wprime2 = params.omega**2 + big_omega2
    return 0.5 * (
        s.p1 @ s.p1 + s.p2 @ s.p2 + wprime2 * (s.x1 @ s.x1 + s.x2 @ s.x2)
        - 2.0 * big_omega2 * (s.x1 @ s.x2)
    )


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(np.zeros((2, 3)))

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError, match=">= 2"):
            OperatorMatrix(np.zeros((1, 1)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matrix_is_frozen(self):
        op = OperatorMatrix(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_number_expectation_and_conjugate_pair(self):
        low, raise_ = ladder_matrices(3)
        vec = np.zeros(4, dtype=complex)
        vec[1] = 1.0
        assert np.vdot(vec, raise_ @ low @ vec) == pytest.approx(1.0)
        assert np.array_equal(low.conj().T, raise_)


class TestLadderMatrices:
    def test_two_level_truncation(self):
        low, _ = ladder_matrices(1)
        assert np.array_equal(low, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError):
            ladder_matrices(0)

    def test_commutator_identity_except_corner(self):
        cutoff = 7
        low, raise_ = ladder_matrices(cutoff)
        comm = low @ raise_ - raise_ @ low
        expected = np.eye(cutoff + 1, dtype=complex)
        expected[-1, -1] = -cutoff
        assert np.allclose(comm, expected, atol=1e-13)


class TestQuadratureMatrices:
    @pytest.mark.parametrize("w", [0.5, 1.0, 3.0])
    def test_ground_and_excited_variances(self, w):
        x, _ = quadrature_matrices(6, w)
        x2 = x @ x
        assert x2[0, 0].real == pytest.approx(1.0 / (2 * w), abs=1e-14)
        assert x2[1, 1].real == pytest.approx(3.0 / (2 * w), abs=1e-14)

    def test_canonical_commutator_below_cutoff(self):
        cutoff = 6
        x, p = quadrature_matrices(cutoff, 1.3)
        comm = x @ p - p @ x
        sub = comm[:cutoff, :cutoff]
        assert np.allclose(sub, 1j * np.eye(cutoff), atol=1e-13)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            quadrature_matrices(4, 0.0)


class TestTwoModeBasis:
    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            TwoModeBasis(2)

    def test_dimension_and_ordering(self):
        basis = TwoModeBasis(3)
        assert basis.dim == 16
        assert basis.index(0, 1) == 1  # n2 is the fast index
        assert basis.index(1, 0) == 4

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            TwoModeBasis(3).index(4, 0)

    def test_masks(self):
        basis = TwoModeBasis(3)
        n1, n2 = basis.occupations()
        low = basis.mask_total_at_most(1)
        assert sorted(np.flatnonzero(low)) == [basis.index(0, 0), basis.index(0, 1), basis.index(1, 0)]
        assert np.all((n1[basis.mask_below_cutoff()] <= 2) & (n2[basis.mask_below_cutoff()] <= 2))


class TestSolvedSystem:
    def test_arrays_are_read_only(self):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(4))
        for name in (
            "x1", "x2", "p1", "p2", "xp", "xm", "pp", "pm", "h", "energies", "vectors", "ground",
        ):
            with pytest.raises(ValueError):
                getattr(system, name)[0] = 1.0

    def test_hamiltonian_is_real_symmetric(self):
        h = solve(SystemParams(1.0, 0.8), TwoModeBasis(6)).h
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_normal_modes_pair_quadratures_with_model_frequencies(self):
        params = SystemParams(2.0, 0.8)
        system = solve(params, TwoModeBasis(4))
        (xp, pp, wp), (xm, pm, wm) = system.normal_modes()
        assert xp is system.xp and pp is system.pp and xm is system.xm and pm is system.pm
        assert (wp, wm) == (2.0, 2.0 * eta(params))

    def test_ground_state_is_lowest_eigenvector(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(8))
        h, gs = system.h, system.ground
        assert np.max(np.abs(h @ gs - system.energies[0] * gs)) < 1e-12


class TestCoupledHamiltonian:
    def test_uncoupled_ground_energy(self):
        energy = solve(SystemParams(1.0, 0.0), TwoModeBasis(8)).energies[0]
        assert energy == pytest.approx(1.0, abs=1e-12)  # two zero-point halves

    def test_excitation_gaps_match_mode_frequencies(self):
        params = SystemParams(1.0, 0.8)
        energies = solve(params, TwoModeBasis(12)).energies
        assert energies[1] - energies[0] == pytest.approx(1.0, abs=1e-9)
        assert energies[2] - energies[0] == pytest.approx(eta(params), abs=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.2])
    def test_two_assemblies_agree_entrywise(self, g):
        system = solve(SystemParams(1.0, g), TwoModeBasis(6))
        assert np.max(np.abs(system.h - shifted_form_hamiltonian(system))) < 1e-12

    def test_eigendecomposition_round_trip(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(10))
        h, energies, vectors = system.h, system.energies, system.vectors
        rebuilt = (vectors * energies) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10 * np.max(np.abs(h))


class TestNormalModeLadders:
    def test_ground_state_is_annihilated(self):
        # <g| A^dag A |g> vanishes up to truncation noise
        for g, cutoff, bound in ((0.5, 12, 1e-8), (0.8, 12, 1e-8), (1.5, 16, 1e-8)):
            system = solve(SystemParams(1.0, g), TwoModeBasis(cutoff))
            gs = system.ground
            a_plus, _, a_minus, _ = normal_mode_ladders(system)
            for a in (a_plus, a_minus):
                residual = np.vdot(gs, a.conj().T @ (a @ gs)).real
                assert residual <= bound

    def test_uncoupled_limit_reduces_to_bare_combination(self):
        basis = TwoModeBasis(5)
        low, _ = ladder_matrices(basis.cutoff)
        eye = np.eye(basis.levels)
        a1 = np.kron(low, eye)
        a2 = np.kron(eye, low)
        a_plus, _, a_minus, _ = normal_mode_ladders(solve(SystemParams(1.0, 0.0), basis))
        assert np.max(np.abs(a_plus - (a1 + a2) / math.sqrt(2))) < 1e-12
        assert np.max(np.abs(a_minus - (a1 - a2) / math.sqrt(2))) < 1e-12

    def test_cross_mode_commutator_vanishes_low_lying(self):
        basis = TwoModeBasis(12)
        a_plus, _, _, am_dag = normal_mode_ladders(solve(SystemParams(1.0, 0.8), basis))
        comm = a_plus @ am_dag - am_dag @ a_plus
        mask = basis.mask_total_at_most(2)
        assert np.max(np.abs(comm[np.ix_(mask, mask)])) < 1e-10

    def test_ladders_shift_energy_by_mode_frequency(self):
        params = SystemParams(1.0, 0.8)
        basis = TwoModeBasis(12)
        system = solve(params, basis)
        h = system.h
        _, ap_dag, _, am_dag = normal_mode_ladders(system)
        mask = basis.mask_total_at_most(2)
        idx = np.ix_(mask, mask)
        for a_dag, w in ((ap_dag, 1.0), (am_dag, eta(params))):
            residual = h @ a_dag - a_dag @ h - w * a_dag
            assert np.max(np.abs(residual[idx])) < 1e-9


class TestBellVector:
    @pytest.mark.parametrize("state", list(BellState))
    def test_unit_norm(self, state):
        vec = bell_vector(solve(SystemParams(1.0, 0.8), TwoModeBasis(12)), state)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_raw_construction_is_normalized_at_supported_cutoffs(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(12))
        gs = system.ground
        _, ap_dag, _, am_dag = normal_mode_ladders(system)
        raw = (am_dag @ gs + ap_dag @ gs) / math.sqrt(2)
        assert abs(np.linalg.norm(raw) - 1.0) < 1e-10

    def test_matches_dense_ladder_construction(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(12))
        _, ap_dag, _, am_dag = normal_mode_ladders(system)
        for state, sign in ((BellState.PSI_PLUS, 1.0), (BellState.PSI_MINUS, -1.0)):
            raw = am_dag @ system.ground + sign * (ap_dag @ system.ground)
            dense = raw / np.linalg.norm(raw)
            assert np.max(np.abs(bell_vector(system, state) - dense)) < 1e-13

    def test_uncoupled_limit_localizes_the_excitation(self):
        # at g = 0 the +/- combinations collapse onto bare |1,0> and |0,1>
        basis = TwoModeBasis(6)
        system = solve(SystemParams(1.0, 0.0), basis)
        plus = bell_vector(system, BellState.PSI_PLUS)
        minus = bell_vector(system, BellState.PSI_MINUS)
        assert abs(plus[basis.index(1, 0)]) == pytest.approx(1.0, abs=1e-12)
        assert abs(minus[basis.index(0, 1)]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.8])
    def test_excitation_energy_is_mean_mode_quantum(self, g):
        params = SystemParams(1.0, g)
        system = solve(params, TwoModeBasis(12))
        vec = bell_vector(system, BellState.PSI_PLUS)
        excitation = np.vdot(vec, system.h @ vec).real - system.energies[0]
        assert excitation == pytest.approx((1.0 + eta(params)) / 2.0, abs=1e-8)

    def test_signals_unconverged_basis(self):
        with pytest.raises(ConvergenceError, match="cutoff"):
            bell_vector(solve(SystemParams(1.0, 3.0), TwoModeBasis(3)), BellState.PSI_PLUS)


def test_bare_quadratures_commute_across_oscillators():
    s = solve(SystemParams(1.0, 0.7), TwoModeBasis(5))
    assert np.max(np.abs(s.x1 @ s.p2 - s.p2 @ s.x1)) == 0.0
    assert np.max(np.abs(s.x1 @ s.x2 - s.x2 @ s.x1)) == 0.0


def test_normal_mode_quadratures_are_hermitian():
    s = solve(SystemParams(1.0, 0.7), TwoModeBasis(4))
    for op in (s.xp, s.xm, s.pp, s.pm):
        assert not op.flags.writeable
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
