"""Operator construction on the truncated two-mode Fock space."""

import dataclasses
import math

import numpy as np
import pytest

from bellosc.fock import (
    ConvergenceError,
    OperatorMatrix,
    TwoModeBasis,
    bare_quadratures,
    basis_frequency,
    bell_vector,
    solve,
)
from bellosc.model import BellState, SystemParams, eta

ARRAY_FIELDS = (
    "x1", "x2", "q1", "q2", "xp", "xm", "qp", "qm", "h", "energies", "vectors", "ground",
)
SYMMETRIC_FIELDS = ("x1", "x2", "xp", "xm", "h")
ANTISYMMETRIC_FIELDS = ("q1", "q2", "qp", "qm")


def bare_ladders(params, basis):
    """(a1, a1^dag, a2, a2^dag) from the lifted bare quadratures at w = omega:
    a = sqrt(w/2) (x + i p / w), a^dag = sqrt(w/2) (x - i p / w)."""
    x1, x2, q1, q2 = bare_quadratures(params, basis)
    w = params.omega
    out = []
    for x, p in ((x1, 1j * q1), (x2, 1j * q2)):
        out += [np.sqrt(w / 2.0) * (x + 1j * p / w), np.sqrt(w / 2.0) * (x - 1j * p / w)]
    return out


def normal_mode_ladders(system):
    """(A+, A+^dag, A-, A-^dag) with A = sqrt(w/2) (X + i P / w) at each mode's frequency."""
    out = []
    for x, q, w in system.normal_modes():
        p = 1j * q
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
    p1, p2 = 1j * s.q1, 1j * s.q2
    return 0.5 * (
        p1 @ p1 + p2 @ p2 + wprime2 * (s.x1 @ s.x1 + s.x2 @ s.x2)
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


class TestBareLadders:
    def test_number_expectation_and_conjugate_pair(self):
        basis = TwoModeBasis(3)
        low, raise_, _, _ = bare_ladders(SystemParams(1.0, 0.0), basis)
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index(1, 0)] = 1.0
        assert np.vdot(vec, raise_ @ low @ vec) == pytest.approx(1.0)
        assert np.array_equal(low.conj().T, raise_)

    def test_two_level_truncation(self):
        # At w = 2 the rebuild is exact: x and p / w carry a factor 1/2, and sqrt(w/2) = 1.
        basis = TwoModeBasis(3)
        low1, _, low2, _ = bare_ladders(SystemParams(2.0, 0.0), basis)
        for low, excited in ((low1, basis.index(1, 0)), (low2, basis.index(0, 1))):
            pair = [basis.index(0, 0), excited]
            assert np.array_equal(low[np.ix_(pair, pair)], [[0.0, 1.0], [0.0, 0.0]])
        single = np.diag(np.sqrt(np.arange(1.0, basis.levels)), k=1)
        assert np.array_equal(low1, np.kron(single, np.eye(basis.levels)))
        assert np.array_equal(low2, np.kron(np.eye(basis.levels), single))

    def test_commutator_identity_except_corner(self):
        basis = TwoModeBasis(7)
        low, raise_, _, _ = bare_ladders(SystemParams(1.3, 0.0), basis)
        comm = low @ raise_ - raise_ @ low
        single = np.eye(basis.levels)
        single[-1, -1] = -basis.cutoff
        assert np.allclose(comm, np.kron(single, np.eye(basis.levels)), atol=1e-13)

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError):
            bare_quadratures(SystemParams(1.0, 0.0), TwoModeBasis(0))


class TestBareQuadratures:
    @pytest.mark.parametrize("w", [0.5, 1.0, 3.0])
    def test_ground_and_excited_variances(self, w):
        basis = TwoModeBasis(6)
        x1, _, _, _ = bare_quadratures(SystemParams(w, 0.0), basis)
        x1_sq = x1 @ x1
        ground, excited = basis.index(0, 0), basis.index(1, 0)
        assert x1_sq[ground, ground] == pytest.approx(1.0 / (2 * w), abs=1e-14)
        assert x1_sq[excited, excited] == pytest.approx(3.0 / (2 * w), abs=1e-14)

    def test_canonical_commutator_below_cutoff(self):
        basis = TwoModeBasis(6)
        x1, _, q1, _ = bare_quadratures(SystemParams(1.3, 0.0), basis)
        p1 = 1j * q1
        comm = x1 @ p1 - p1 @ x1
        below = basis.occupations()[0] < basis.cutoff
        sub = comm[np.ix_(below, below)]
        assert np.allclose(sub, 1j * np.eye(len(sub)), atol=1e-13)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            bare_quadratures(SystemParams(0.0, 0.0), TwoModeBasis(4))


class TestBasisFrequency:
    @pytest.mark.parametrize("w", [0.3, 1.0, 2.0, 7.0, 1e-150, 1e150])
    def test_is_omega_without_coupling(self, w):
        assert basis_frequency(SystemParams(w, 0.0)) == w

    @pytest.mark.parametrize("w, g", [(1.0, 0.5), (2.0, 1.5), (0.3, 4.0)])
    def test_is_fourth_root_of_stiffness_determinant(self, w, g):
        big2 = (g * w) ** 2
        stiffness = np.array([[w**2 + big2, -big2], [-big2, w**2 + big2]])
        expected = np.linalg.det(stiffness) ** 0.25
        assert basis_frequency(SystemParams(w, g)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "w, g",
        [
            (2.1351131965027632e144, 4440397784.828598),
            (5.40012882937477e34, 1.7556529126744672e119),
        ],
    )
    def test_finite_where_the_squared_form_overflows(self, w, g):
        # accepted parameters at which sqrt(w) * (w^2 + 2 (g w)^2)^(1/4) overflows
        assert math.isfinite(basis_frequency(SystemParams(w, g)))

    def test_bare_quadratures_are_built_at_it(self):
        params, basis = SystemParams(1.0, 1.5), TwoModeBasis(4)
        x1, _, _, _ = bare_quadratures(params, basis)
        ground = basis.index(0, 0)
        expected = 1.0 / (2.0 * basis_frequency(params))
        assert (x1 @ x1)[ground, ground] == pytest.approx(expected, rel=1e-14)


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


def _nudge_off_diagonal(h):
    """A copy of h with its first nonzero off-diagonal entry (0, j) moved by one ulp."""
    out = h.copy()
    j = 1 + np.flatnonzero(out[0, 1:])[0]
    out[0, j] = np.nextafter(out[0, j], np.inf)
    return out


EXACT_STRUCTURE_SETTINGS = [
    (omega, g, cutoff)
    for cutoff in (3, 6, 12)
    for omega in (1e-150, 0.3, 1.0, 7.0, 1e150)
    for g in (0.0, 0.05, 0.5, 1.5, 4.8, 100.0)
] + [(1e-150, 0.5, 20), (1.0, 1.5, 20), (7.0, 100.0, 20), (1e150, 4.8, 20)]


class TestSolvedSystem:
    def test_arrays_are_read_only(self):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(4))
        for name in ARRAY_FIELDS:
            with pytest.raises(ValueError):
                getattr(system, name)[0] = 1.0

    @pytest.mark.parametrize("cutoff", [6, 12, 20])
    @pytest.mark.parametrize("g", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("omega", [1e-150, 0.3, 1.0, 7.0, 1e150])
    def test_arrays_have_the_stated_structure(self, omega, g, cutoff):
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        for name in ARRAY_FIELDS:
            array = getattr(system, name)
            assert array.dtype == np.float64, name
            assert not array.flags.writeable, name
        for name in ("q1", "q2", "qp", "qm"):
            momentum = getattr(system, name)
            assert np.array_equal(momentum.T, -momentum), name
        for state in BellState:
            assert bell_vector(system, state).dtype == np.float64, state

    @pytest.mark.parametrize(
        "field, tamper",
        [
            ("q1", lambda s: s.q1 + 1e-3 * s.h),  # no longer antisymmetric, so i q1 is not Hermitian
            ("qm", lambda s: s.qm + 0j),  # complex momentum part
            ("x2", lambda s: s.x2 + 0j),  # complex coordinate
            ("vectors", lambda s: s.vectors.astype(np.float32)),
            ("x1", lambda s: s.x1 + 1e-3 * s.q1),  # no longer symmetric
            ("h", lambda s: _nudge_off_diagonal(s.h)),  # one entry one ulp off its mirror
        ],
    )
    def test_rejects_a_system_without_the_structure(self, field, tamper):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(6))
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(system, **{field: tamper(system)})

    @pytest.mark.parametrize("omega, g, cutoff", EXACT_STRUCTURE_SETTINGS)
    def test_solve_arrays_are_exactly_symmetric_or_antisymmetric(self, omega, g, cutoff):
        # the check in SolvedSystem is exact, so solve must meet it at every setting
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        for name in SYMMETRIC_FIELDS:
            array = getattr(system, name)
            assert np.array_equal(array.T, array), name
        for name in ANTISYMMETRIC_FIELDS:
            array = getattr(system, name)
            assert np.array_equal(array.T, -array), name

    def test_hamiltonian_is_real_symmetric(self):
        h = solve(SystemParams(1.0, 0.8), TwoModeBasis(6)).h
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_normal_modes_pair_quadratures_with_model_frequencies(self):
        params = SystemParams(2.0, 0.8)
        system = solve(params, TwoModeBasis(4))
        (xp, qp, wp), (xm, qm, wm) = system.normal_modes()
        assert xp is system.xp and qp is system.qp and xm is system.xm and qm is system.qm
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
        a1, _, a2, _ = bare_ladders(SystemParams(1.0, 0.0), basis)
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
    p2 = 1j * s.q2
    assert np.max(np.abs(s.x1 @ p2 - p2 @ s.x1)) == 0.0
    assert np.max(np.abs(s.x1 @ s.x2 - s.x2 @ s.x1)) == 0.0


def test_normal_mode_quadratures_are_hermitian():
    s = solve(SystemParams(1.0, 0.7), TwoModeBasis(4))
    for stored, op in ((s.xp, s.xp), (s.xm, s.xm), (s.qp, 1j * s.qp), (s.qm, 1j * s.qm)):
        assert not stored.flags.writeable
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
