"""Operator construction on the truncated two-mode Fock space."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from dense_reference import (
    NAMES,
    block_isometries,
    dense_bare,
    dense_eigensystem,
    dense_hamiltonian,
    dense_operators,
    projected_blocks,
)

from bellosc import fock
from bellosc.fock import (
    ConvergenceError,
    OperatorMatrix,
    TwoModeBasis,
    bare_quadratures,
    basis_frequency,
    bell_vector,
    solve,
)
from bellosc.model import BellState, ModeIndex, SystemParams, eta, mode_frequency

ANTISYMMETRIC_FIELDS = ("q",)


def symmetric_arrays(system):
    """(name, array) of x and of each block of H, every array SolvedSystem holds symmetric."""
    return [("x", system.x)] + [(f"h_blocks[{k}]", h) for k, h in enumerate(system.h_blocks)]


def float_arrays(system):
    """(name, array) of every float array a system holds: x, q, ground and each block's."""
    arrays = [(name, getattr(system, name)) for name in ("x", "q", "ground")]
    for name in ("h_blocks", "energies", "vectors"):
        arrays += [(f"{name}[{k}]", m) for k, m in enumerate(getattr(system, name))]
    return arrays


def reachable_arrays(system):
    """Every array a system holds, through its fields and the tuples in them."""
    found, stack = [], [getattr(system, f.name) for f in dataclasses.fields(system)]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, tuple):
            stack.extend(item)
    return found


def state_index(basis, n1, n2):
    """Product-basis index of |n1, n2>, n2 the fast index."""
    return n1 * basis.levels + n2


def bare_ladders(params, basis):
    """(a1, a1^dag, a2, a2^dag) from the lifted bare quadratures at w = omega:
    a = sqrt(w/2) (x + i p / w), a^dag = sqrt(w/2) (x - i p / w)."""
    x1, x2, q1, q2 = dense_bare(*bare_quadratures(params, basis))
    w = params.omega
    out = []
    for x, p in ((x1, 1j * q1), (x2, 1j * q2)):
        out += [np.sqrt(w / 2.0) * (x + 1j * p / w), np.sqrt(w / 2.0) * (x - 1j * p / w)]
    return out


def mode_frequencies(system):
    return tuple(mode_frequency(system.params, mode) for mode in (ModeIndex.PLUS, ModeIndex.MINUS))


def normal_mode_ladders(system):
    """(A+, A+^dag, A-, A-^dag) with A = sqrt(w/2) (X + i P / w) at each mode's frequency."""
    ops, (wp, wm) = dense_operators(system), mode_frequencies(system)
    out = []
    for x, q, w in ((ops["xp"], ops["qp"], wp), (ops["xm"], ops["qm"], wm)):
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
    s, params = SimpleNamespace(**dense_operators(system)), system.params
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
        vec[state_index(basis, 1, 0)] = 1.0
        assert np.vdot(vec, raise_ @ low @ vec) == pytest.approx(1.0)
        assert np.array_equal(low.conj().T, raise_)

    def test_two_level_truncation(self):
        # At w = 2 the rebuild is exact: x and p / w carry a factor 1/2, and sqrt(w/2) = 1.
        basis = TwoModeBasis(3)
        low1, _, low2, _ = bare_ladders(SystemParams(2.0, 0.0), basis)
        for low, excited in ((low1, state_index(basis, 1, 0)), (low2, state_index(basis, 0, 1))):
            pair = [state_index(basis, 0, 0), excited]
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
        x1, _, _, _ = dense_bare(*bare_quadratures(SystemParams(w, 0.0), basis))
        x1_sq = x1 @ x1
        ground, excited = state_index(basis, 0, 0), state_index(basis, 1, 0)
        assert x1_sq[ground, ground] == pytest.approx(1.0 / (2 * w), abs=1e-14)
        assert x1_sq[excited, excited] == pytest.approx(3.0 / (2 * w), abs=1e-14)

    def test_canonical_commutator_below_cutoff(self):
        basis = TwoModeBasis(6)
        x1, _, q1, _ = dense_bare(*bare_quadratures(SystemParams(1.3, 0.0), basis))
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
        x1, _, _, _ = dense_bare(*bare_quadratures(params, basis))
        ground = state_index(basis, 0, 0)
        expected = 1.0 / (2.0 * basis_frequency(params))
        assert (x1 @ x1)[ground, ground] == pytest.approx(expected, rel=1e-14)


class TestTwoModeBasis:
    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            TwoModeBasis(2)

    def test_dimension_and_ordering(self):
        basis = TwoModeBasis(3)
        assert basis.dim == 16
        n1, n2 = basis.occupations()
        assert (n1[1], n2[1]) == (0, 1)  # n2 is the fast index
        assert (n1[4], n2[4]) == (1, 0)

    def test_masks(self):
        basis = TwoModeBasis(3)
        low = basis.mask_total_at_most(1)
        assert sorted(np.flatnonzero(low)) == [0, 1, 4]  # |0,0>, |0,1>, |1,0>


def _nudge_off_diagonal(h):
    """A copy of symmetric h with its first nonzero off-diagonal entry (0, j) moved by one ulp."""
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
        for array in reachable_arrays(system):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("cutoff", [6, 12, 20])
    @pytest.mark.parametrize("g", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("omega", [1e-150, 0.3, 1.0, 7.0, 1e150])
    def test_arrays_have_the_stated_structure(self, omega, g, cutoff):
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        for name, array in float_arrays(system):
            assert array.dtype == np.float64, name
            assert not array.flags.writeable, name
        assert np.array_equal(system.q.T, -system.q)
        for state in BellState:
            assert bell_vector(system, state).dtype == np.float64, state

    @pytest.mark.parametrize(
        "field, tamper",
        [
            # no longer antisymmetric, so i q1 is not Hermitian
            pytest.param("q", lambda s: s.q + 1e-3 * s.x, id="q-not-antisymmetric"),
            pytest.param("q", lambda s: s.q + 0j, id="q-complex"),
            pytest.param("x", lambda s: s.x + 0j, id="x-complex"),
            pytest.param("ground", lambda s: s.ground.astype(np.float32), id="ground-float32"),
            pytest.param("ground", lambda s: s.ground[:-1], id="ground-one-row-too-few"),
            pytest.param("x", lambda s: s.x.astype(np.float32), id="x-float32"),
            pytest.param("q", lambda s: s.q.astype(np.float32), id="q-float32"),
            pytest.param("x", lambda s: s.x + 1e-3 * s.q, id="x-not-symmetric"),
            # one entry one ulp off its mirror
            pytest.param("x", lambda s: _nudge_off_diagonal(s.x), id="x-one-ulp"),
            # symmetric or antisymmetric, but not L x L for the basis
            pytest.param("x", lambda s: np.pad(s.x, (0, 1)), id="x-one-level-too-many"),
            pytest.param("q", lambda s: s.q[:-1, :-1], id="q-one-level-too-few"),
            pytest.param("x", lambda s: s.x.ravel(), id="x-flattened"),
            # not the four blocks of H
            pytest.param("h_blocks", lambda s: s.h_blocks[:3], id="h-three-blocks"),
            pytest.param("h_blocks", lambda s: list(s.h_blocks), id="h-blocks-in-a-list"),
            pytest.param("vectors", lambda s: s.vectors[1:], id="vectors-three-blocks"),
            pytest.param("embeddings", lambda s: s.embeddings[:3], id="embeddings-three-blocks"),
        ],
    )
    def test_rejects_a_system_without_the_structure(self, field, tamper):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(6))
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(system, **{field: tamper(system)})

    @pytest.mark.parametrize(
        "field, block, tamper",
        [
            # one entry one ulp off its mirror
            pytest.param("h_blocks", 0, _nudge_off_diagonal, id="one-ulp"),
            pytest.param(
                "h_blocks", 1, lambda h: h + np.triu(np.full_like(h, 1e-3)), id="not-symmetric"
            ),
            pytest.param("h_blocks", 2, lambda h: h.astype(np.float32), id="float32"),
            pytest.param("h_blocks", 3, lambda h: h + 0j, id="complex"),
            # symmetric, but not the size of the block's state list
            pytest.param("h_blocks", 1, lambda h: h[:-1, :-1], id="one-state-too-few"),
            pytest.param("h_blocks", 2, lambda h: np.pad(h, (0, 1)), id="one-state-too-many"),
            pytest.param("h_blocks", 0, np.ravel, id="flattened"),
            # the eigensystem: float64, one energy and one column per block state
            pytest.param("vectors", 2, lambda v: v.astype(np.float32), id="vectors-float32"),
            pytest.param("vectors", 3, lambda v: v[:, :-1], id="vectors-one-column-too-few"),
            pytest.param("energies", 0, lambda e: e + 0j, id="energies-complex"),
            pytest.param("energies", 1, lambda e: e[:-1], id="energies-one-too-few"),
        ],
    )
    def test_rejects_a_tampered_block(self, field, block, tamper):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(6))
        blocks = list(getattr(system, field))
        blocks[block] = tamper(blocks[block])
        with pytest.raises(ValueError, match=f"^{field}\\[{block}\\] must"):
            dataclasses.replace(system, **{field: tuple(blocks)})

    @pytest.mark.parametrize("omega, g, cutoff", EXACT_STRUCTURE_SETTINGS)
    def test_solve_arrays_are_exactly_symmetric_or_antisymmetric(self, omega, g, cutoff):
        # the check in SolvedSystem is exact, so solve must meet it at every setting
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        for name, array in symmetric_arrays(system):
            assert np.array_equal(array.T, array), name
        for name in ANTISYMMETRIC_FIELDS:
            array = getattr(system, name)
            assert np.array_equal(array.T, -array), name

    def test_hamiltonian_is_real_symmetric(self):
        for h in solve(SystemParams(1.0, 0.8), TwoModeBasis(6)).h_blocks:
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)

    def test_normal_modes_pair_quadratures_with_model_frequencies(self):
        params = SystemParams(2.0, 0.8)
        system = solve(params, TwoModeBasis(4))
        ops, v = dense_operators(system), system.ground
        (xp, qp, wp), (xm, qm, wm) = system.normal_modes(v)
        for image, name in ((xp, "xp"), (qp, "qp"), (xm, "xm"), (qm, "qm")):
            assert np.max(np.abs(image - ops[name] @ v)) < 1e-14, name
        assert (wp, wm) == (2.0, 2.0 * eta(params))

    def test_ground_state_is_lowest_eigenvector(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(8))
        h, gs = dense_hamiltonian(system), system.ground
        assert np.max(np.abs(h @ gs - dense_eigensystem(system)[0][0] * gs)) < 1e-12


SECTOR_SETTINGS = [
    (omega, g, cutoff)
    for cutoff in (3, 6, 12, 20)
    for omega in (1e-150, 0.3, 1.0, 7.0, 1e150)
    for g in (0.0, 0.5, 1.5)
]


def block_sizes(cutoff):
    """Sizes of the (even, +), (even, -), (odd, +) and (odd, -) blocks, counted from the pairs."""
    levels = cutoff + 1
    evens, odds = (levels + 1) // 2, levels // 2
    same_parity = evens * (evens - 1) // 2 + odds * (odds - 1) // 2  # pairs a < b, a + b even
    mixed = evens * odds
    return same_parity + levels, same_parity, mixed, mixed


class TestSwapBlocks:
    @pytest.mark.parametrize("cutoff", [3, 4, 12, 40])
    def test_block_states_are_an_orthonormal_basis(self, cutoff):
        basis = TwoModeBasis(cutoff)
        blocks = basis.swap_blocks()
        assert tuple(a.size for a, _ in blocks) == block_sizes(cutoff)
        parity = [(a + b) % 2 for a, b in blocks]
        assert [set(p) for p in parity] == [{0}, {0}, {1}, {1}]
        for a, b in blocks:
            assert np.all(a <= b)
        assert np.all(blocks[1][0] < blocks[1][1]) and np.all(blocks[3][0] < blocks[3][1])
        if cutoff <= 12:
            u = np.hstack(block_isometries(basis))
            assert np.allclose(u.T @ u, np.eye(basis.dim), rtol=0.0, atol=1e-15)

    def test_sizes_at_cutoff_12(self):
        assert tuple(a.size for a, _ in TwoModeBasis(12).swap_blocks()) == (49, 36, 42, 42)

    @pytest.mark.parametrize("omega, g, cutoff", SECTOR_SETTINGS)
    def test_each_block_is_the_projection_of_the_dense_h(self, omega, g, cutoff):
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        for k, (block, reference) in enumerate(zip(system.h_blocks, projected_blocks(system))):
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(block - reference)) <= 1e-12 * scale, k

    @pytest.mark.parametrize("omega, g, cutoff", SECTOR_SETTINGS)
    def test_every_eigenvector_is_even_or_odd_under_the_swap(self, omega, g, cutoff):
        # a block eigenvector's column is its swap sign times itself with n1 and n2
        # swapped, exactly
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        n1, n2 = system.basis.occupations()
        vectors = dense_eigensystem(system)[1]
        swapped = vectors[n2 * system.basis.levels + n1]
        even = np.all(swapped == vectors, axis=0)
        odd = np.all(swapped == -vectors, axis=0)
        assert np.all(even | odd)
        sizes = block_sizes(system.basis.cutoff)
        assert np.count_nonzero(even & ~odd) == sizes[0] + sizes[2]

    def test_assembly_forms_no_dense_h(self):
        # at cutoff 40 a dense H would take 22.6 MB; the four blocks take 5.7 MB, and
        # their assembly peaks at about 12 MB
        basis = TwoModeBasis(40)
        params = SystemParams(1.0, 0.5)
        tracemalloc.start()
        try:
            blocks = fock.coupled_hamiltonian(
                params, *bare_quadratures(params, basis), basis.swap_blocks()
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(h.nbytes for h in blocks) == 8 * sum(n * n for n in block_sizes(40))
        assert peak < basis.dim**2 * 8


class TestParitySectors:
    @pytest.mark.parametrize("cutoff", [3, 6, 12, 20])
    def test_solve_diagonalizes_each_sector_once(self, monkeypatch, cutoff):
        blocks = []

        def recording_eigensystem(h):
            blocks.append(h.shape)
            return np.linalg.eigh(h)

        monkeypatch.setattr(fock, "hamiltonian_eigensystem", recording_eigensystem)
        basis = TwoModeBasis(cutoff)
        solve(SystemParams(1.0, 0.5), basis)
        assert blocks == [(n, n) for n in block_sizes(cutoff)]
        assert sum(n for n, _ in blocks) == basis.dim

    def test_solve_builds_the_block_states_and_the_factors_once(self, monkeypatch):
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            TwoModeBasis, "swap_blocks", counted("swap_blocks", TwoModeBasis.swap_blocks)
        )
        for name in ("bare_quadratures", "coupled_hamiltonian"):
            monkeypatch.setattr(fock, name, counted(name, getattr(fock, name)))
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(12))
        assert calls == {"swap_blocks": 1, "bare_quadratures": 1, "coupled_hamiltonian": 1}
        dataclasses.replace(system)  # checking a built system makes no block states
        assert calls["swap_blocks"] == 1

    @pytest.mark.parametrize("omega, g, cutoff", SECTOR_SETTINGS)
    def test_sector_eigensystem_agrees_with_the_whole_h(self, omega, g, cutoff):
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        h, (energies, vectors) = dense_hamiltonian(system), dense_eigensystem(system)
        whole = np.linalg.eigh(h)[0]
        assert np.max(np.abs(energies - whole)) <= 1e-12 * np.max(np.abs(whole))
        rebuilt = (vectors * energies) @ vectors.T
        assert np.max(np.abs(rebuilt - h)) <= 1e-12 * np.max(np.abs(h))
        # every eigenvector lies in one sector: exactly zero on the other one's rows
        total = np.add(*system.basis.occupations())
        even, odd = np.flatnonzero(total % 2 == 0), np.flatnonzero(total % 2 == 1)
        in_even = ~np.any(vectors[odd], axis=0)
        assert np.array_equal(in_even, np.any(vectors[even], axis=0))
        assert np.count_nonzero(in_even) == even.size and in_even[0]  # the ground state is even


FACTOR_SETTINGS = [
    (omega, g, cutoff)
    for cutoff in (3, 6, 12, 20)
    for omega in (1e-150, 0.3, 1.0, 7.0, 1e150)
    for g in (0.0, 0.5, 1.5)
]


def _root(array):
    """The array that owns the memory behind ``array``."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestFactorForm:
    @pytest.mark.parametrize("omega, g, cutoff", FACTOR_SETTINGS)
    def test_every_operator_matches_its_dense_kron(self, omega, g, cutoff):
        # each image through the factors equals the dense np.kron operator times the block
        system = solve(SystemParams(omega, g), TwoModeBasis(cutoff))
        ops = dense_operators(system)
        rng = np.random.default_rng(cutoff)
        dim = system.basis.dim
        blocks = {
            "vector": rng.standard_normal(dim),
            "real": rng.standard_normal((dim, 3)),
            "complex": rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)),
            "complex vector": rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        }
        for kind, v in blocks.items():
            (xp, qp, _), (xm, qm, _) = system.normal_modes(v)
            images = dict(zip(NAMES, (*system.bare_images(v), xp, xm, qp, qm)))
            for name in NAMES:
                dense = ops[name] @ v
                assert images[name].dtype == v.dtype and images[name].shape == v.shape
                scale = np.max(np.abs(dense))
                assert np.max(np.abs(images[name] - dense)) <= 1e-14 * scale, (kind, name)

    def test_holds_no_dense_product_space_array(self):
        # x and q are L x L, H and its eigenvectors four blocks each, ground and the
        # energies dim long, and the index tables four dim-long arrays
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(24))
        dim, levels = system.basis.dim, system.basis.levels
        owners = {id(root): root for root in map(_root, reachable_arrays(system))}
        assert max(array.size for array in owners.values()) < dim**2
        held = sum(array.nbytes for array in owners.values())
        blocks = sum(n * n for n in block_sizes(24))
        assert held <= (2 * blocks + 6 * dim + 2 * levels**2) * 8

    def test_solve_holds_at_most_16_mb_at_the_largest_cutoff(self):
        # the blocks of H and of the eigenvectors take 5.7 MB each; a dense dim x dim
        # array of eigenvectors alone would take 22.6 MB
        tracemalloc.start()
        try:
            system = solve(SystemParams(1.0, 0.5), TwoModeBasis(40))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert system.basis.dim == 1681 and held <= 16e6


class TestCoupledHamiltonian:
    def test_uncoupled_ground_energy(self):
        energy = dense_eigensystem(solve(SystemParams(1.0, 0.0), TwoModeBasis(8)))[0][0]
        assert energy == pytest.approx(1.0, abs=1e-12)  # two zero-point halves

    def test_excitation_gaps_match_mode_frequencies(self):
        params = SystemParams(1.0, 0.8)
        energies = dense_eigensystem(solve(params, TwoModeBasis(12)))[0]
        assert energies[1] - energies[0] == pytest.approx(1.0, abs=1e-9)
        assert energies[2] - energies[0] == pytest.approx(eta(params), abs=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.2])
    def test_two_assemblies_agree_entrywise(self, g):
        # the blocks against the projections of the shifted form; the kron reference likewise
        system = solve(SystemParams(1.0, g), TwoModeBasis(6))
        shifted = shifted_form_hamiltonian(system)
        assert np.max(np.abs(dense_hamiltonian(system) - shifted)) < 1e-12
        for block, u in zip(system.h_blocks, block_isometries(system.basis)):
            assert np.max(np.abs(block - u.T @ shifted @ u)) < 1e-12

    def test_eigendecomposition_round_trip(self):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(10))
        h, (energies, vectors) = dense_hamiltonian(system), dense_eigensystem(system)
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
        h = dense_hamiltonian(system)
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
        assert abs(plus[state_index(basis, 1, 0)]) == pytest.approx(1.0, abs=1e-12)
        assert abs(minus[state_index(basis, 0, 1)]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.8])
    def test_excitation_energy_is_mean_mode_quantum(self, g):
        params = SystemParams(1.0, g)
        system = solve(params, TwoModeBasis(12))
        vec = bell_vector(system, BellState.PSI_PLUS)
        ground_energy = dense_eigensystem(system)[0][0]
        excitation = np.vdot(vec, dense_hamiltonian(system) @ vec).real - ground_energy
        assert excitation == pytest.approx((1.0 + eta(params)) / 2.0, abs=1e-8)

    @pytest.mark.parametrize(
        "g, cutoff, norm, remedy",
        [
            (3.0, 3, r"0\.972489423", "increase the cutoff"),
            (1e150, 12, r"\d\.\d{8}e\+37", "increase the cutoff"),  # 9 digits, not 38
            # no accepted cutoff is larger, so none is suggested
            (
                1e150,
                fock.MAX_CUTOFF,
                r"\d\.\d{8}e\+37",
                "the largest accepted cutoff, 40, cannot represent this coupling",
            ),
        ],
        ids=["small-basis", "huge-coupling", "huge-coupling-max-cutoff"],
    )
    def test_signals_unconverged_basis(self, g, cutoff, norm, remedy):
        message = f"^entangled-state norm {norm} deviates from 1; {remedy}$"
        with pytest.raises(ConvergenceError, match=message):
            bell_vector(solve(SystemParams(1.0, g), TwoModeBasis(cutoff)), BellState.PSI_PLUS)


def test_bare_quadratures_commute_across_oscillators():
    s = SimpleNamespace(**dense_operators(solve(SystemParams(1.0, 0.7), TwoModeBasis(5))))
    p2 = 1j * s.q2
    assert np.max(np.abs(s.x1 @ p2 - p2 @ s.x1)) == 0.0
    assert np.max(np.abs(s.x1 @ s.x2 - s.x2 @ s.x1)) == 0.0


def test_normal_mode_quadratures_are_hermitian():
    system = solve(SystemParams(1.0, 0.7), TwoModeBasis(4))
    s = SimpleNamespace(**dense_operators(system))
    assert not system.x.flags.writeable and not system.q.flags.writeable
    for op in (s.xp, s.xm, 1j * s.qp, 1j * s.qm):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
