"""Acceptance suite: one test per stated criterion, at its stated tolerance.

Each test prints a single verdict line; run ``pytest -s tests/test_acceptance.py``
to see them.  Criteria 1 and 12 probe truncated-basis convergence at strong
coupling.  With each oscillator's number basis built at det(K)^(1/4)
(``fock.basis_frequency``), criterion 1 passes: the worst table error at
cutoff 12 is 8.2e-14, at g = 1.5.  Criterion 12 does not: one cutoff-8 to
cutoff-16 drift, the table at g = 1.5, stays at 1.0e-8 against its 1e-9
gate, while every other drift is at most 2.9e-11.  That drift is the table
error of cutoff 8 itself: the coupled ground state is two-mode squeezed, which
no product basis of independent oscillators captures at so few levels.  The
verdict lines carry the measured numbers, and the assert is kept strict
rather than loosened.
"""

import math
import time

import numpy as np

from bellosc import cli
from bellosc.analytic import (
    baseline_nc,
    normalized_p_fluctuation,
    normalized_x_fluctuation,
    period_statistics,
    trace,
    uncertainty_product,
    uncertainty_sum,
)
from bellosc.fock import TwoModeBasis, solve
from bellosc.model import BellState, OscillatorIndex, SystemParams, beat_frequency, eta
from bellosc.oracle import (
    cross_momentum_scaling_probe,
    evolve_expectations,
    heisenberg_evolution_check,
    table1_check,
)
from bellosc.sampler import RealizationConfig, sample_realization

PSI_P, PSI_M = BellState.PSI_PLUS, BellState.PSI_MINUS
OSC1, OSC2 = OscillatorIndex.ONE, OscillatorIndex.TWO
STATES = (PSI_P, PSI_M)
TABLE_COUPLINGS = (0.2, 0.5, 0.8, 1.5)
TRACE_COUPLINGS = (0.2, 0.8)


def _verdict(number: int, ok: bool, detail: str) -> str:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _beat_window(g: float, periods: float) -> float:
    return periods * 2.0 * math.pi / abs(beat_frequency(SystemParams(1.0, g)))


def test_criterion_01_matrix_element_reproduction():
    basis = TwoModeBasis(12)
    start = time.perf_counter()
    worst = {}
    for g in TABLE_COUPLINGS:
        reports = table1_check(solve(SystemParams(1.0, g), basis), 1e-8)
        worst[g] = max(r.abs_diff for r in reports)
    elapsed = time.perf_counter() - start
    accepted, rejected = cross_momentum_scaling_probe(SystemParams(1.0, 0.8), basis, 1e-8)
    adjudicated = accepted.passed and not rejected.passed
    ok = all(v <= 1e-8 for v in worst.values()) and elapsed < 5.0 and adjudicated
    detail = (
        "max |analytic-oracle| "
        + ", ".join(f"g={g}: {v:.2e}" for g, v in worst.items())
        + f" (tol 1e-8, cutoff 12); runtime {elapsed:.2f}s; "
        + f"cross-momentum units adjudication reported={adjudicated}"
    )
    assert _verdict(1, ok, detail) and ok


def test_criterion_02_closed_form_vs_oracle_traces():
    basis = TwoModeBasis(12)
    start = time.perf_counter()
    worst = {}
    for g in TRACE_COUPLINGS:
        params = SystemParams(1.0, g)
        t_end = _beat_window(g, 2.0)
        times = np.linspace(0.0, t_end, 200)
        system = solve(params, basis)
        for state in STATES:
            evolved = evolve_expectations(system, state, times)
            closed = trace(params, state, 0.0, t_end, 200)
            worst[(g, state.value)] = max(
                float(np.max(np.abs(getattr(evolved, col) - getattr(closed, col))))
                for col in ("dx1", "dx2", "dp1", "dp2")
            )
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-6 for v in worst.values()) and elapsed < 30.0
    detail = (
        "max column dev "
        + ", ".join(f"(g={g}, {s}): {v:.2e}" for (g, s), v in worst.items())
        + f" (tol 1e-6); runtime {elapsed:.2f}s"
    )
    assert _verdict(2, ok, detail) and ok


def test_criterion_03_uncoupled_limits_exact():
    params = SystemParams(1.0, 0.0)
    dev = 0.0
    for state in STATES:
        tr = trace(params, state, 0.0, 37.0, 311)
        amp1, up1 = baseline_nc(state, OSC1)
        amp2, up2 = baseline_nc(state, OSC2)
        for column, target in (
            (tr.dx1, amp1), (tr.dp1, amp1), (tr.up1, up1),
            (tr.dx2, amp2), (tr.dp2, amp2), (tr.up2, up2),
        ):
            dev = max(dev, float(np.max(np.abs(column - target))))
    ok = dev <= 1e-12
    assert _verdict(3, ok, f"max |amplitude - baseline| = {dev:.2e} (tol 1e-12)") and ok


def _random_triples(n, seed=20260810):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.0, 2.0, n),
        rng.uniform(-50.0, 50.0, n),
        rng.integers(0, 2, n),
    )


def test_criterion_04_sum_rules():
    gs, ts, ss = _random_triples(1000)
    dev = 0.0
    for g, t, s in zip(gs, ts, ss):
        params = SystemParams(1.0, g)
        state = STATES[s]
        e = eta(params)
        coord = (
            float(normalized_x_fluctuation(params, state, OSC1, t)) ** 2
            + float(normalized_x_fluctuation(params, state, OSC2, t)) ** 2
        )
        mom = (
            float(normalized_p_fluctuation(params, state, OSC1, t)) ** 2
            + float(normalized_p_fluctuation(params, state, OSC2, t)) ** 2
        )
        dev = max(dev, abs(coord - 2 * (1 + 1 / e)), abs(mom - 2 * (1 + e)))
    ok = dev <= 1e-12
    assert _verdict(4, ok, f"max sum-rule residual over 1000 triples = {dev:.2e}") and ok


def test_criterion_05_noise_transfer_complementarity():
    gs, ts, ss = _random_triples(1000)
    dev = 0.0
    for g, t, s in zip(gs, ts, ss):
        params = SystemParams(1.0, g)
        state = STATES[s]
        total = float(uncertainty_product(params, state, OSC1, t)) + float(
            uncertainty_product(params, state, OSC2, t)
        )
        dev = max(dev, abs(total - 2 * uncertainty_sum(params)))

    mean_dev, means_ok = 0.0, True
    for g in np.linspace(0.05, 1.5, 30):
        params = SystemParams(1.0, float(g))
        stats1 = period_statistics(params, PSI_P, OSC1, 2048)
        stats2 = period_statistics(params, PSI_P, OSC2, 2048)
        s_val = uncertainty_sum(params)
        mean_dev = max(mean_dev, abs(stats1.mean_product - s_val))
        # pair 1 lowered below its zero-coupling level 3, pair 2 enhanced above 1
        means_ok = means_ok and stats1.mean_product < 3.0 and stats2.mean_product > 1.0
    ok = dev <= 1e-12 and mean_dev <= 1e-9 and means_ok
    detail = (
        f"max |up1+up2 - 2s| = {dev:.2e} (tol 1e-12); "
        f"max |period mean - s| = {mean_dev:.2e}; lowered/enhanced pattern = {means_ok}"
    )
    assert _verdict(5, ok, detail) and ok


def test_criterion_06_heisenberg_bound():
    rng = np.random.default_rng(424242)
    n = 10_000
    gs = rng.uniform(0.0, 2.0, n)
    ts = rng.uniform(-100.0, 100.0, n)
    ss = rng.integers(0, 2, n)
    oo = rng.integers(0, 2, n)
    lowest = math.inf
    for g, t, s, o in zip(gs, ts, ss, oo):
        value = float(
            uncertainty_product(
                SystemParams(1.0, g), STATES[s], (OSC1, OSC2)[o], t
            )
        )
        lowest = min(lowest, value)
    ok = lowest >= 1.0 - 1e-12
    assert _verdict(6, ok, f"min uncertainty product over {n} samples = {lowest:.12f}") and ok


def test_criterion_07_beat_frequency_extraction():
    results = {}
    for g in TRACE_COUPLINGS:
        params = SystemParams(1.0, g)
        predicted = abs(beat_frequency(params))
        window = 8 * 2 * math.pi / predicted
        n = 4096
        times = np.arange(n) * (window / n)
        signal = np.asarray(normalized_x_fluctuation(params, PSI_P, OSC1, times)) ** 2
        spectrum = np.abs(np.fft.rfft(signal))
        dominant = 1 + int(np.argmax(spectrum[1:]))
        extracted = 2 * math.pi * dominant / window
        bin_width = 2 * math.pi / window
        results[g] = (extracted, predicted, abs(extracted - predicted) <= bin_width)
    ok = all(hit for _, _, hit in results.values())
    detail = ", ".join(
        f"g={g}: extracted {x:.6f} vs |1-eta|w {p:.6f}" for g, (x, p, _) in results.items()
    )
    assert _verdict(7, ok, detail) and ok


def test_criterion_08_fraction_below_noncoupled():
    params = SystemParams(1.0, 0.8)
    stats = period_statistics(params, PSI_P, OSC1, 4096)
    expected = math.acos(uncertainty_sum(params) - 3.0) / math.pi
    dev = abs(stats.fraction_below_nc - expected)
    ok = dev <= 0.01
    detail = (
        f"fraction below 3 = {stats.fraction_below_nc:.4f}, "
        f"arccos form = {expected:.4f}, |diff| = {dev:.2e} (tol 0.01)"
    )
    assert _verdict(8, ok, detail) and ok


def test_criterion_09_coordinate_noise_decreases_with_coupling():
    maxima, minima = [], []
    for g in (0.0, 0.2, 0.4, 0.6, 0.8):
        params = SystemParams(1.0, g)
        t_end = _beat_window(g, 1.0) if g > 0 else 10.0
        tr = trace(params, PSI_P, 0.0, t_end, 4097)
        maxima.append(float(np.max(tr.dx1)))
        minima.append(float(np.min(tr.dx1)))
    max_dec = all(b < a for a, b in zip(maxima, maxima[1:]))
    min_dec = all(b < a for a, b in zip(minima, minima[1:]))
    ok = max_dec and min_dec
    detail = (
        "dx1 maxima " + "->".join(f"{v:.4f}" for v in maxima)
        + ", minima " + "->".join(f"{v:.4f}" for v in minima)
    )
    assert _verdict(9, ok, detail) and ok


def test_criterion_10_momentum_evolution_adjudication(capsys):
    params = SystemParams(1.0, 0.5)
    basis = TwoModeBasis(12)
    system = solve(params, basis)
    good, bad = heisenberg_evolution_check(system, 1.0, 1e-8)

    code = cli.main(["verify"])
    out = capsys.readouterr().out
    in_report = "evolution[canonical]" in out and "evolution[non-canonical]" in out
    ok = good.abs_diff < 1e-8 and bad.abs_diff > 0.1 and in_report and code == 0
    detail = (
        f"canonical dev {good.abs_diff:.2e} (< 1e-8), "
        f"non-canonical dev {bad.abs_diff:.2e} (> 0.1), both in verify report = {in_report}"
    )
    assert _verdict(10, ok, detail) and ok


def test_criterion_11_sampler_envelope_statistics(capsys):
    params = SystemParams(1.0, 0.8)
    n_grid, n_real = 64, 10_000
    dt = 0.4
    values = np.empty((n_real, n_grid))
    for seed in range(n_real):
        config = RealizationConfig(seed=seed, dt=dt, t_max=dt * (n_grid - 1))
        values[seed] = sample_realization(params, PSI_P, OSC1, config).values
    config = RealizationConfig(seed=0, dt=dt, t_max=dt * (n_grid - 1))
    grid = sample_realization(params, PSI_P, OSC1, config).times
    envelope = np.asarray(normalized_x_fluctuation(params, PSI_P, OSC1, grid))
    rel = np.max(np.abs(values.std(axis=0, ddof=1) - envelope) / envelope)

    args = ["sample", "--coupling", "0.8", "--steps", "64", "--seed", "11"]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    ok = rel < 0.05 and first == second and len(first) > 0
    detail = (
        f"worst relative std deviation over {n_real} realizations = {rel:.4f} (tol 0.05); "
        f"fixed-seed rerun byte-identical = {first == second}"
    )
    assert _verdict(11, ok, detail) and ok


def test_criterion_12_cutoff_convergence():
    drifts = {}
    for g in TABLE_COUPLINGS:
        params = SystemParams(1.0, g)
        small = {
            r.label: r.oracle_value for r in table1_check(solve(params, TwoModeBasis(8)), 1e-8)
        }
        large = {
            r.label: r.oracle_value for r in table1_check(solve(params, TwoModeBasis(16)), 1e-8)
        }
        drifts[f"table g={g}"] = max(abs(small[k] - large[k]) for k in small)
    for g in TRACE_COUPLINGS:
        params = SystemParams(1.0, g)
        t_end = _beat_window(g, 2.0)
        times = np.linspace(0.0, t_end, 200)
        small_system = solve(params, TwoModeBasis(8))
        large_system = solve(params, TwoModeBasis(16))
        for state in STATES:
            small = evolve_expectations(small_system, state, times)
            large = evolve_expectations(large_system, state, times)
            drifts[f"trace g={g} {state.value}"] = max(
                float(np.max(np.abs(getattr(small, col) - getattr(large, col))))
                for col in ("dx1", "dx2", "dp1", "dp2")
            )
    ok = all(v < 1e-9 for v in drifts.values())
    detail = "cutoff 8->16 drift " + ", ".join(f"{k}: {v:.2e}" for k, v in drifts.items())
    assert _verdict(12, ok, detail) and ok
