"""Matrix-mechanics cross-checks of the closed forms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    dense_eigensystem,
    dense_hamiltonian,
    dense_operators,
    kron_commutator_deviations,
)

from bellosc import analytic, fock, oracle
from bellosc.fock import TwoModeBasis, solve
from bellosc.model import (
    BellState,
    ModeIndex,
    OscillatorIndex,
    SystemParams,
    beat_frequency,
    default_t_max,
    mode_frequency,
)
from bellosc.oracle import (
    OracleReport,
    commutator_check,
    cross_momentum_scaling_probe,
    evolve_expectations,
    heisenberg_evolution_check,
    table1_check,
)

PSI_P, PSI_M = BellState.PSI_PLUS, BellState.PSI_MINUS

# oracle value at omega=1, g=0.8: sqrt(eta)/2
P_CROSS_08 = 0.6144035496020002


def report_by_label(reports, fragment):
    matches = [r for r in reports if fragment in r.label]
    assert matches, f"no report matching {fragment!r}"
    return matches


class TestOracleReport:
    def test_pass_iff_within_tolerance(self):
        good = OracleReport.compare("x", 1.0, 1.0 + 5e-10, 1e-9)
        bad = OracleReport.compare("x", 1.0, 1.0 + 5e-9, 1e-9)
        assert good.passed and not bad.passed
        assert good.abs_diff == pytest.approx(5e-10)

    def test_line_contains_verdict(self):
        report = OracleReport.compare("thing", 0.0, 0.0, 1e-9)
        assert report.line().startswith("PASS thing")


class TestTable1:
    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    def test_all_families_pass_at_default_cutoff(self, g):
        reports = table1_check(solve(SystemParams(1.0, g), TwoModeBasis(12)), 1e-8)
        assert len(reports) == 32
        failed = [r.label for r in reports if not r.passed]
        assert not failed, failed

    @pytest.mark.parametrize("omega", [0.5, 2.0])
    def test_omega_scaling_of_all_families(self, omega):
        reports = table1_check(solve(SystemParams(omega, 0.5), TwoModeBasis(12)), 1e-8)
        assert all(r.passed for r in reports)

    def test_diagonal_second_moments(self):
        params = SystemParams(1.0, 0.8)
        reports = table1_check(solve(params, TwoModeBasis(12)), 1e-8)
        for label, expected in (
            ("<X+^2>", 1.0 / mode_frequency(params, ModeIndex.PLUS)),
            ("<X-^2>", 1.0 / mode_frequency(params, ModeIndex.MINUS)),
            ("<X+P+>", 0.5j),
        ):
            for rep in report_by_label(reports, label):
                assert rep.analytic_value == pytest.approx(expected, abs=1e-12)
                assert rep.passed

    def test_cross_momentum_value(self):
        reports = table1_check(solve(SystemParams(1.0, 0.8), TwoModeBasis(12)), 1e-8)
        plus_reports = [r for r in report_by_label(reports, "<P+P->") if "psi-plus" in r.label]
        assert plus_reports[0].oracle_value.real == pytest.approx(P_CROSS_08, abs=1e-9)

    def test_state_sign_flips_cross_correlations(self):
        reports = table1_check(solve(SystemParams(1.0, 0.5), TwoModeBasis(12)), 1e-8)
        values = {
            r.label: r.oracle_value.real for r in reports if "<X+X->" in r.label
        }
        plus = [v for label, v in values.items() if "psi-plus" in label][0]
        minus = [v for label, v in values.items() if "psi-minus" in label][0]
        assert plus == pytest.approx(-minus, abs=1e-10)
        assert plus > 0

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            table1_check(solve(SystemParams(1.0, 0.5), TwoModeBasis(5)), 1e-8)


class TestCrossMomentumScaling:
    def test_momentum_type_form_accepted_x_type_rejected(self):
        accepted, rejected = cross_momentum_scaling_probe(
            SystemParams(1.0, 0.8), TwoModeBasis(12), 1e-8
        )
        assert accepted.passed
        assert not rejected.passed
        assert rejected.abs_diff > 0.1  # the two variants differ at order one


class TestCommutators:
    def test_all_pass(self):
        reports = commutator_check(solve(SystemParams(1.0), TwoModeBasis(8)))
        assert len(reports) == 8
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("omega", [0.3, 5.0])
    def test_pass_at_any_frequency(self, omega):
        reports = commutator_check(solve(SystemParams(omega, 0.8), TwoModeBasis(8)))
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("cutoff", [6, 12, 20])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.0])
    def test_matches_dense_commutator(self, omega, cutoff):
        # the check forms one real block of a q; the full complex a b - b a,
        # cut to the same block, must give the same deviations
        basis = TwoModeBasis(cutoff)
        s = solve(SystemParams(omega, 0.8), basis)
        ops = dense_operators(s)
        operators = {
            "x1": ops["x1"], "x2": ops["x2"], "p1": 1j * ops["q1"], "p2": 1j * ops["q2"],
            "X+": ops["xp"], "X-": ops["xm"], "P+": 1j * ops["qp"], "P-": 1j * ops["qm"],
        }
        n1, n2 = basis.occupations()
        below = (n1 < cutoff) & (n2 < cutoff)
        block = np.ix_(below, below)
        reports = commutator_check(s)
        assert len(reports) == 8
        for report in reports:
            pair, delta = report.label.split()[1], float(report.label.split("i*")[1])
            a, b = (operators[name] for name in pair.strip("[]").split(","))
            dense = (a @ b - b @ a)[block] - 1j * delta * np.eye(len(block[0]))
            assert abs(report.abs_diff - np.max(np.abs(dense))) <= 1e-14, report.label

    def test_scaled_momentum_fails(self):
        # q (1 + 1e-9) is still antisymmetric, but [x1, p1] = [x2, p2] = i (1 + 1e-9)
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(8))
        scaled = dataclasses.replace(system, q=system.q * (1.0 + 1e-9))
        reports = {r.label.split()[1]: r for r in commutator_check(scaled)}
        for name in ("[x1,p1]", "[x2,p2]", "[X+,P+]", "[X-,P-]"):
            assert not reports[name].passed, name
            assert reports[name].abs_diff == pytest.approx(1e-9, rel=1e-3), name
        for name in ("[x1,p2]", "[x2,p1]", "[X+,P-]", "[X-,P+]"):
            assert reports[name].passed, name

    def test_cross_oscillator_commutator_is_exactly_zero(self):
        reports = commutator_check(solve(SystemParams(1.0), TwoModeBasis(8)))
        cross = report_by_label(reports, "[x1,p2]")[0]
        assert cross.oracle_value == 0.0

    @pytest.mark.parametrize("omega", [1e-150, 1e-12, 0.3, 1.0, 7.0, 1e150])
    def test_equals_kron_block_deviations(self, omega):
        # the c x c form reads the same floats as the dense kron block, bit for bit
        for coupling in (0.0, 0.05, 0.5, 1.5, 4.8, 100.0):
            for cutoff in (3, 6, 12, 20):
                system = solve(SystemParams(omega, coupling), TwoModeBasis(cutoff))
                reports = commutator_check(system)
                devs = {r.label.split()[1].strip("[]"): r.abs_diff for r in reports}
                assert devs == kron_commutator_deviations(system), (coupling, cutoff)

    def test_memory_peak_stays_below_a_kron_block(self):
        # one dense (c^2 x c^2) block at cutoff 20 alone is 1250 KB
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(20))
        tracemalloc.start()
        try:
            commutator_check(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestHeisenbergEvolution:
    def test_identity_at_time_zero(self):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(8))
        accepted, rejected = heisenberg_evolution_check(system, 0.0, 1e-12)
        assert accepted.abs_diff < 1e-13
        assert rejected.abs_diff < 1e-13  # the sine terms vanish, so both laws agree

    def test_canonical_form_passes(self):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(12))
        accepted, _ = heisenberg_evolution_check(system, 1.0, 1e-8)
        assert accepted.passed, accepted.line()

    def test_noncanonical_variant_fails_at_order_one(self):
        _, rejected = heisenberg_evolution_check(
            solve(SystemParams(1.0, 0.5), TwoModeBasis(12)), 1.0, 1e-8
        )
        assert not rejected.passed
        assert rejected.abs_diff > 0.1

    def test_matches_dense_operator_conjugation(self):
        # the check forms only the n1+n2<=2 columns of U(t); conjugating whole
        # matrices must give the same deviation for both laws
        basis, t = TwoModeBasis(10), 0.9
        system = solve(SystemParams(1.0, 0.8), basis)
        reports = heisenberg_evolution_check(system, t, 1e-8)
        energies, vectors = dense_eigensystem(system)
        u = (vectors * np.exp(-1j * energies * t)) @ vectors.T
        idx = np.ix_(basis.mask_total_at_most(2), basis.mask_total_at_most(2))
        ops = dense_operators(system)
        modes = (
            (ops["xp"], ops["qp"], mode_frequency(system.params, ModeIndex.PLUS)),
            (ops["xm"], ops["qm"], mode_frequency(system.params, ModeIndex.MINUS)),
        )
        for report, canonical in zip(reports, (True, False)):
            dev = 0.0
            for x, q, w in modes:
                p = 1j * q
                c, s = math.cos(w * t), math.sin(w * t)
                sine_op = x if canonical else p
                dev = max(
                    dev,
                    np.max(np.abs((u.conj().T @ x @ u - x * c - p * (s / w))[idx])),
                    np.max(np.abs((u.conj().T @ p @ u - p * c + w * sine_op * s)[idx])),
                )
            assert report.abs_diff == pytest.approx(dev, abs=1e-13)

    def test_strong_coupling_converges_with_cutoff(self):
        # operator conjugation feels truncation harder than state expectations:
        # 1.1e-10 at cutoff 12 for g=0.8, rounding level (1.1e-14) by cutoff 20
        params = SystemParams(1.0, 0.8)
        coarse, _ = heisenberg_evolution_check(solve(params, TwoModeBasis(12)), 1.0, 1e-8)
        fine, _ = heisenberg_evolution_check(solve(params, TwoModeBasis(20)), 1.0, 1e-8)
        assert fine.abs_diff < 1e-8
        assert fine.abs_diff < coarse.abs_diff / 100


class TestEvolveExpectations:
    def test_uncoupled_columns_constant_at_baselines(self):
        system = solve(SystemParams(1.0, 0.0), TwoModeBasis(8))
        trace = evolve_expectations(system, PSI_P, np.linspace(0.0, 10.0, 11))
        assert np.max(np.abs(trace.dx1 - math.sqrt(3.0))) < 1e-10
        assert np.max(np.abs(trace.dx2 - 1.0)) < 1e-10
        assert np.max(np.abs(trace.dp1 - math.sqrt(3.0))) < 1e-10
        assert np.max(np.abs(trace.dp2 - 1.0)) < 1e-10

    def test_continuous_at_time_zero(self):
        params = SystemParams(1.0, 0.8)
        system = solve(params, TwoModeBasis(10))
        trace = evolve_expectations(system, PSI_P, np.array([0.0, 1e-9]))
        assert trace.dx1[1] == pytest.approx(trace.dx1[0], abs=1e-6)

    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    def test_matches_closed_forms_at_strong_coupling(self, state):
        params = SystemParams(1.0, 0.8)
        period = 2 * math.pi / abs(beat_frequency(params))
        times = np.linspace(0.0, 2 * period, 50)
        evolved = evolve_expectations(solve(params, TwoModeBasis(12)), state, times)
        closed = analytic.trace(params, state, 0.0, 2 * period, 50)
        for col in ("dx1", "dx2", "dp1", "dp2"):
            assert np.max(np.abs(getattr(evolved, col) - getattr(closed, col))) < 1e-6

    def test_matches_closed_forms_at_nonunit_omega(self):
        # normalized columns are scale free only if the sqrt(2w) / sqrt(2/w)
        # normalizations are right, so omega != 1 pins them
        params = SystemParams(omega=2.0, coupling_ratio=0.5)
        period = 2 * math.pi / abs(beat_frequency(params))
        times = np.linspace(0.0, period, 30)
        evolved = evolve_expectations(solve(params, TwoModeBasis(12)), PSI_P, times)
        closed = analytic.trace(params, PSI_P, 0.0, period, 30)
        for col in ("dx1", "dx2", "dp1", "dp2"):
            assert np.max(np.abs(getattr(evolved, col) - getattr(closed, col))) < 1e-6

    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    @pytest.mark.parametrize("omega, cutoff", [(2.0, 12), (1e-150, 6), (1e150, 20)])
    def test_matches_dense_complex_evolution(self, omega, cutoff, state):
        # the oracle multiplies real operators into the float view of the
        # states and reduces the moments as real dot products; complex products
        # with the complex momenta p = i q must agree, in every unit of omega
        params = SystemParams(omega=omega, coupling_ratio=0.8)
        system = solve(params, TwoModeBasis(cutoff))
        times = np.linspace(0.0, 2 * math.pi / abs(beat_frequency(params)), 50)
        energies, vectors = dense_eigensystem(system)
        coeffs = vectors.T @ fock.bell_vector(system, state)
        phases = np.exp(-1j * np.multiply.outer(energies, times))
        psi = vectors.astype(complex) @ (phases * coeffs[:, None])
        evolved = evolve_expectations(system, state, times)
        w = params.omega
        ops = dense_operators(system)
        for col, op, norm_sq in (
            ("dx1", ops["x1"], 2.0 * w),
            ("dx2", ops["x2"], 2.0 * w),
            ("dp1", 1j * ops["q1"], 2.0 / w),
            ("dp2", 1j * ops["q2"], 2.0 / w),
        ):
            image = op.astype(complex) @ psi
            first = np.einsum("it,it->t", psi.conj(), image).real
            second = np.einsum("it,it->t", image.conj(), image).real
            dense = np.sqrt(np.maximum(second - first**2, 0.0) * norm_sq)
            assert np.max(np.abs(getattr(evolved, col) - dense)) <= 1e-12, col

    @pytest.mark.parametrize(
        "omega, g, cutoff", [(1e-150, 0.5, 6), (1.0, 1.5, 12), (1e150, 0.0, 20)]
    )
    def test_phases_are_the_bits_of_the_complex_exponential(self, monkeypatch, omega, g, cutoff):
        # evolve writes cos and -sin of E t; the reference takes np.exp of -i E t
        params = SystemParams(omega, g)
        system = solve(params, TwoModeBasis(cutoff))
        rng = np.random.default_rng(cutoff)
        v = rng.standard_normal(system.basis.dim)  # in every block

        def exp_evolve(system, v, times):
            """SolvedSystem.evolve's block arithmetic, with np.exp phases."""
            v = v.reshape(system.basis.dim, -1)
            out = np.zeros((system.basis.dim, max(v.shape[1], np.size(times))), complex)
            blocks = zip(system.embeddings, system.energies, system.vectors)
            for (rows, mirrors, weights, mirror_weights), energies, vectors in blocks:
                part = weights * v[rows] + mirror_weights * v[mirrors]
                if part.any():
                    phases = np.exp(-1j * np.multiply.outer(energies, times))
                    coeffs = (vectors.T @ part) * phases
                    y = (vectors @ coeffs.view(np.float64)).view(np.complex128)
                    out[rows] += weights * y
                    out[mirrors] += mirror_weights * y
            return out

        for times in (
            np.linspace(0.0, default_t_max(params), 200),
            np.array([1.0 / omega]),
            np.linspace(0.0, 1e7, 200),
        ):
            direct, expected = system.evolve(v, times), exp_evolve(system, v, times)
            assert np.array_equal(direct.view(np.uint64), expected.view(np.uint64))
            evolved = evolve_expectations(system, PSI_M, times)
            with monkeypatch.context() as patch:
                patch.setattr(fock.SolvedSystem, "evolve", exp_evolve)
                reference = evolve_expectations(system, PSI_M, times)
            for col in ("dx1", "dx2", "dp1", "dp2"):
                ours, ref = getattr(evolved, col), getattr(reference, col)
                assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64)), col
        # a block of states at one time, as the Heisenberg check evolves them
        states, t = rng.standard_normal((system.basis.dim, 3)), (1.0 / omega,)
        direct, expected = system.evolve(states, t), exp_evolve(system, states, t)
        assert direct.shape == states.shape
        assert np.array_equal(direct.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    def test_evolves_an_entangled_state_in_the_odd_blocks_only(self, state):
        # the (even, +) and (even, -) blocks are never read: with their eigensystems
        # made nan the evolved state is the same, bit for bit
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(12))
        psi, times = fock.bell_vector(system, state), np.linspace(0.0, 10.0, 5)
        evolved = system.evolve(psi, times)
        nan = [np.full_like(m, np.nan) for m in (*system.energies[:2], *system.vectors[:2])]
        odd_only = dataclasses.replace(
            system,
            energies=(*nan[:2], *system.energies[2:]),
            vectors=(*nan[2:], *system.vectors[2:]),
        )
        assert np.array_equal(odd_only.evolve(psi, times), evolved)
        even = np.add(*system.basis.occupations()) % 2 == 0
        assert not np.any(evolved[even])  # exactly 0 on every row with n1 + n2 even
        assert np.all(np.any(evolved[~even], axis=0))
        # and each image x psi(t), q psi(t) on every odd row: every first moment is exactly 0
        for image in system.bare_images(evolved):
            assert not np.any(image[~even])

    def test_time_blocks_agree_with_one_block(self, monkeypatch):
        system = solve(SystemParams(1.0, 0.8), TwoModeBasis(10))
        times = np.linspace(0.0, 30.0, 61)
        whole = evolve_expectations(system, PSI_M, times)
        monkeypatch.setattr(oracle, "EVOLVE_TIME_BLOCK", 7)  # 9 blocks, the last one short
        blocked = evolve_expectations(system, PSI_M, times)
        for col in ("dx1", "dx2", "dp1", "dp2", "up1", "up2"):
            assert np.max(np.abs(getattr(blocked, col) - getattr(whole, col))) <= 1e-13

    def test_rejects_bad_grid(self):
        system = solve(SystemParams(1.0, 0.5), TwoModeBasis(8))
        with pytest.raises(ValueError):
            evolve_expectations(system, PSI_P, np.array([0.0, np.inf]))
        with pytest.raises(ValueError):
            evolve_expectations(system, PSI_P, np.array([]))


class TestEvolutionInvariants:
    def test_unitarity_norm_and_energy_conservation(self):
        basis = TwoModeBasis(12)
        system = solve(SystemParams(1.0, 0.8), basis)
        (energies, vectors), h = dense_eigensystem(system), dense_hamiltonian(system)
        u = (vectors * np.exp(-1j * energies * 0.73)) @ vectors.conj().T
        assert np.max(np.abs(u.conj().T @ u - np.eye(basis.dim))) < 1e-10

        psi0 = fock.bell_vector(system, PSI_P)
        coeffs = vectors.conj().T @ psi0
        times = np.linspace(0.0, 25.0, 32)
        states = vectors @ (np.exp(-1j * np.outer(energies, times)) * coeffs[:, None])
        norms = np.linalg.norm(states, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        mean_energy = np.einsum("it,it->t", states.conj(), h @ states).real
        assert np.ptp(mean_energy) < 1e-10


class TestConsistencyLock:
    """The amplitude closed forms must follow from the matrix elements alone."""

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    def test_momentum_cross_correlation_is_forced_by_coordinate_one(self, g):
        params = SystemParams(1.0, g)
        system = solve(params, TwoModeBasis(12))
        ops = dense_operators(system)
        xp, xm, pp, pm = ops["xp"], ops["xm"], 1j * ops["qp"], 1j * ops["qm"]
        psi = fock.bell_vector(system, PSI_P)
        x_cross = np.vdot(psi, (xp @ xm) @ psi)
        p_cross = np.vdot(psi, (pp @ pm) @ psi)
        wp = mode_frequency(params, ModeIndex.PLUS)
        wm = mode_frequency(params, ModeIndex.MINUS)
        assert p_cross / (wp * wm) == pytest.approx(x_cross, abs=5e-9)

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    def test_bilinear_expansion_reproduces_coordinate_amplitude(self, g, state):
        # x1(t) = sum_a (cos(w_a t) X_a + sin(w_a t) P_a / w_a) / sqrt(2); its
        # variance assembled from oracle second moments must equal the closed form.
        params = SystemParams(1.0, g)
        system = solve(params, TwoModeBasis(12))
        ops = dense_operators(system)
        xp, xm, pp, pm = ops["xp"], ops["xm"], 1j * ops["qp"], 1j * ops["qm"]
        psi = fock.bell_vector(system, state)
        second = np.array(
            [[np.vdot(psi, (a @ b) @ psi) for b in (xp, xm, pp, pm)] for a in (xp, xm, pp, pm)]
        )
        first = np.array([np.vdot(psi, a @ psi) for a in (xp, xm, pp, pm)])
        wp = mode_frequency(params, ModeIndex.PLUS)
        wm = mode_frequency(params, ModeIndex.MINUS)
        for t in (0.0, 0.31, 1.7, 4.9):
            weights = np.array(
                [
                    math.cos(wp * t) / math.sqrt(2),
                    math.cos(wm * t) / math.sqrt(2),
                    math.sin(wp * t) / (wp * math.sqrt(2)),
                    math.sin(wm * t) / (wm * math.sqrt(2)),
                ]
            )
            variance = (weights @ second @ weights - (weights @ first) ** 2).real
            reconstructed = math.sqrt(2.0 * params.omega * variance)
            expected = analytic.normalized_x_fluctuation(params, state, OscillatorIndex.ONE, t)
            assert reconstructed == pytest.approx(float(expected), abs=1e-8)


class TestBeatExtraction:
    def test_oracle_trace_oscillates_at_the_beat_frequency(self):
        # dominant DFT bin of the squared amplitude sits at |1 - eta| * omega
        params = SystemParams(1.0, 1.0)
        predicted = abs(beat_frequency(params))
        window = 8 * 2 * math.pi / predicted
        n = 512
        times = np.arange(n) * (window / n)
        trace = evolve_expectations(solve(params, TwoModeBasis(12)), PSI_P, times)
        spectrum = np.abs(np.fft.rfft(trace.dx1**2))
        dominant = 1 + int(np.argmax(spectrum[1:]))
        assert dominant == 8
        extracted = 2 * math.pi * dominant / window
        assert extracted == pytest.approx(predicted, abs=2 * math.pi / window)
