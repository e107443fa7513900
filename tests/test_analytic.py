"""Closed-form amplitudes and period statistics.

Frozen reference numbers were computed through the truncated-Fock-space
oracle (see test_oracle.py for the live comparisons); the sign bookkeeping of
the four (state, oscillator) combinations is exercised exhaustively.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellosc.analytic import (
    FluctuationTrace,
    baseline_nc,
    bell_sign,
    check_trace,
    normalized_p_fluctuation,
    normalized_x_fluctuation,
    period_statistics,
    trace,
    trace_blocks,
    uncertainty_product,
    uncertainty_sum,
)
from bellosc.model import BellState, OscillatorIndex, SystemParams, beat_frequency, eta

PSI_P, PSI_M = BellState.PSI_PLUS, BellState.PSI_MINUS
OSC1, OSC2 = OscillatorIndex.ONE, OscillatorIndex.TWO
SQRT3 = math.sqrt(3.0)

# oracle-derived reference values at omega=1, g=0.8 (bare-basis Fock evolution)
ETA_08 = 1.50996688705415
DX1_08_T0 = 1.5735512575941049
DP1_08_T0 = 1.9335909562930187
S_08 = 2.042604480947467
FRACTION_BELOW_08 = 0.9067504254492597

couplings = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
times_st = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
states_st = st.sampled_from([PSI_P, PSI_M])
osc_st = st.sampled_from([OSC1, OSC2])


class TestBellSign:
    @pytest.mark.parametrize(
        "state, osc, expected",
        [(PSI_P, OSC1, 1), (PSI_P, OSC2, -1), (PSI_M, OSC1, -1), (PSI_M, OSC2, 1)],
    )
    def test_all_four_combinations(self, state, osc, expected):
        assert bell_sign(state, osc) == expected


class TestAmplitudes:
    @pytest.mark.parametrize("t", [0.0, 0.7, 13.0])
    def test_uncoupled_coordinate_levels(self, t):
        params = SystemParams(1.0, 0.0)
        assert normalized_x_fluctuation(params, PSI_P, OSC1, t) == pytest.approx(SQRT3, abs=1e-15)
        assert normalized_x_fluctuation(params, PSI_P, OSC2, t) == pytest.approx(1.0, abs=1e-15)

    def test_uncoupled_momentum_levels(self):
        params = SystemParams(1.0, 0.0)
        assert normalized_p_fluctuation(params, PSI_P, OSC1, 2.0) == pytest.approx(SQRT3, abs=1e-15)
        assert normalized_p_fluctuation(params, PSI_M, OSC1, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_strong_coupling_initial_values(self):
        params = SystemParams(1.0, 0.8)
        assert normalized_x_fluctuation(params, PSI_P, OSC1, 0.0) == pytest.approx(
            DX1_08_T0, abs=1e-12
        )
        assert normalized_p_fluctuation(params, PSI_P, OSC1, 0.0) == pytest.approx(
            DP1_08_T0, abs=1e-12
        )

    @given(g=couplings, t=times_st, state=states_st, osc=osc_st)
    def test_coordinate_amplitude_bounds(self, g, t, state, osc):
        params = SystemParams(1.0, g)
        e = eta(params)
        value = normalized_x_fluctuation(params, state, osc, t)
        lo = math.sqrt(1 + 1 / e - 1 / math.sqrt(e))
        hi = math.sqrt(1 + 1 / e + 1 / math.sqrt(e))
        assert lo - 1e-12 <= value <= hi + 1e-12

    @given(g=couplings, t=times_st, state=states_st)
    def test_swap_symmetry_is_exact(self, g, t, state):
        params = SystemParams(1.0, g)
        other = PSI_M if state is PSI_P else PSI_P
        assert normalized_x_fluctuation(params, state, OSC1, t) == normalized_x_fluctuation(
            params, other, OSC2, t
        )
        assert normalized_p_fluctuation(params, state, OSC1, t) == normalized_p_fluctuation(
            params, other, OSC2, t
        )

    @given(g=couplings, t=times_st, state=states_st)
    def test_sum_rules(self, g, t, state):
        params = SystemParams(1.0, g)
        e = eta(params)
        coord_sum = (
            normalized_x_fluctuation(params, state, OSC1, t) ** 2
            + normalized_x_fluctuation(params, state, OSC2, t) ** 2
        )
        mom_sum = (
            normalized_p_fluctuation(params, state, OSC1, t) ** 2
            + normalized_p_fluctuation(params, state, OSC2, t) ** 2
        )
        assert coord_sum == pytest.approx(2 * (1 + 1 / e), abs=1e-12)
        assert mom_sum == pytest.approx(2 * (1 + e), abs=1e-12)

    def test_accepts_arrays(self):
        params = SystemParams(1.0, 0.5)
        t = np.linspace(0.0, 5.0, 7)
        out = normalized_x_fluctuation(params, PSI_P, OSC1, t)
        assert out.shape == t.shape


class TestUncertaintyProduct:
    def test_uncoupled_levels(self):
        params = SystemParams(1.0, 0.0)
        assert uncertainty_product(params, PSI_P, OSC1, 0.3) == pytest.approx(3.0, abs=1e-15)
        assert uncertainty_product(params, PSI_P, OSC2, 0.3) == pytest.approx(1.0, abs=1e-15)

    def test_strong_coupling_initial_value(self):
        params = SystemParams(1.0, 0.8)
        assert uncertainty_sum(params) == pytest.approx(S_08, abs=1e-12)
        assert uncertainty_product(params, PSI_P, OSC1, 0.0) == pytest.approx(
            S_08 + 1.0, abs=1e-12
        )

    @given(g=couplings, t=times_st, state=states_st, osc=osc_st)
    def test_equals_amplitude_product(self, g, t, state, osc):
        params = SystemParams(1.0, g)
        product = normalized_x_fluctuation(params, state, osc, t) * normalized_p_fluctuation(
            params, state, osc, t
        )
        assert uncertainty_product(params, state, osc, t) == pytest.approx(product, abs=1e-12)

    @given(g=couplings, t=times_st, state=states_st, osc=osc_st)
    def test_heisenberg_bound_with_slack(self, g, t, state, osc):
        params = SystemParams(1.0, g)
        value = uncertainty_product(params, state, osc, t)
        assert value >= uncertainty_sum(params) - 1.0 - 1e-12
        assert value >= 1.0 - 1e-12

    @given(g=couplings, t=times_st, state=states_st)
    def test_noise_transfer_sum_is_constant(self, g, t, state):
        params = SystemParams(1.0, g)
        total = uncertainty_product(params, state, OSC1, t) + uncertainty_product(
            params, state, OSC2, t
        )
        assert total == pytest.approx(2.0 * uncertainty_sum(params), abs=1e-12)


class TestBaseline:
    @pytest.mark.parametrize(
        "state, osc, expected",
        [
            (PSI_P, OSC1, (SQRT3, 3.0)),
            (PSI_P, OSC2, (1.0, 1.0)),
            (PSI_M, OSC1, (1.0, 1.0)),
            (PSI_M, OSC2, (SQRT3, 3.0)),
        ],
    )
    def test_levels(self, state, osc, expected):
        assert baseline_nc(state, osc) == expected


class TestPeriodStatistics:
    @pytest.mark.parametrize("g", [0.0, 1e-300])
    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    @pytest.mark.parametrize("osc", [OSC1, OSC2])
    def test_zero_envelope_reports_the_nc_level(self, g, state, osc):
        # no envelope: every product is exactly its non-coupled level
        stats = period_statistics(SystemParams(1.0, g), state, osc, 64)
        level = baseline_nc(state, osc)[1]
        assert stats.nc_baseline == level
        assert stats.min_product == stats.max_product == stats.mean_product == level
        assert stats.fraction_below_nc == 0.0

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            period_statistics(SystemParams(1.0, 0.5), PSI_P, OSC1, 8)

    def test_mean_converges_to_uncertainty_sum(self):
        params = SystemParams(1.0, 0.8)
        stats = period_statistics(params, PSI_P, OSC1, 4096)
        assert stats.mean_product == pytest.approx(S_08, abs=1e-9)
        assert stats.mean_product < 3.0  # below the non-coupled level on average

    def test_fraction_below_matches_arccos_formula(self):
        stats = period_statistics(SystemParams(1.0, 0.8), PSI_P, OSC1, 4096)
        assert stats.nc_baseline == 3.0
        assert stats.fraction_below_nc == pytest.approx(FRACTION_BELOW_08, abs=2e-3)

    def test_enhanced_pair_never_below_bound(self):
        stats = period_statistics(SystemParams(1.0, 0.8), PSI_P, OSC2, 256)
        assert stats.min_product >= 1.0
        assert stats.fraction_below_nc == 0.0  # baseline 1 is the floor

    @pytest.mark.parametrize("osc", [OSC1, OSC2])
    def test_mean_of_equal_products_stays_within_them(self, osc):
        # at g = 1e150 all 4096 products are equal and np.mean rounds below them
        stats = period_statistics(SystemParams(1.0, 1e150), PSI_P, osc, 4096)
        assert stats.min_product <= stats.mean_product <= stats.max_product

    @given(g=st.floats(min_value=0.01, max_value=2.0), state=states_st, osc=osc_st)
    @settings(max_examples=25)
    def test_invariants(self, g, state, osc):
        stats = period_statistics(SystemParams(1.0, g), state, osc, 256)
        assert stats.min_product <= stats.mean_product <= stats.max_product
        assert stats.min_product >= 1.0
        assert 0.0 <= stats.fraction_below_nc <= 1.0


class TestTrace:
    def test_uncoupled_columns_are_constant(self):
        tr = trace(SystemParams(1.0, 0.0), PSI_P, 0.0, 10.0, 11)
        assert np.allclose(tr.dx1, SQRT3, atol=1e-15)
        assert np.allclose(tr.up1, 3.0, atol=1e-15)
        assert np.allclose(tr.up2, 1.0, atol=1e-15)

    def test_periodicity_endpoints(self):
        params = SystemParams(1.0, 0.2)
        period = 2 * math.pi / abs(beat_frequency(params))
        tr = trace(params, PSI_P, 0.0, period, 101)
        assert tr.dx1[0] == pytest.approx(tr.dx1[-1], abs=1e-9)

    @given(g=st.floats(min_value=0.05, max_value=2.0), t0=st.floats(0.0, 20.0))
    @settings(max_examples=25)
    def test_shift_by_one_period_is_invariant(self, g, t0):
        params = SystemParams(1.0, g)
        period = 2 * math.pi / abs(beat_frequency(params))
        a = trace(params, PSI_P, t0, t0 + 3.0, 17)
        b = trace(params, PSI_P, t0 + period, t0 + period + 3.0, 17)
        for col in ("dx1", "dx2", "dp1", "dp2"):
            assert np.allclose(getattr(a, col), getattr(b, col), atol=1e-8)

    def test_rejects_bad_grid(self):
        params = SystemParams(1.0, 0.5)
        with pytest.raises(ValueError):
            trace(params, PSI_P, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            trace(params, PSI_P, 0.0, 1.0, 1)

    def test_container_rejects_inconsistent_products(self):
        times = np.linspace(0.0, 1.0, 4)
        ones = np.ones(4)
        with pytest.raises(ValueError, match="deviates"):
            FluctuationTrace(
                times=times, dx1=ones, dx2=ones, dp1=ones, dp2=ones,
                up1=2.0 * ones, up2=ones,
            )

    def test_container_rejects_decreasing_times(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="increasing"):
            FluctuationTrace(
                times=np.array([0.0, 2.0, 1.0]), dx1=ones, dx2=ones,
                dp1=ones, dp2=ones, up1=ones, up2=ones,
            )


# Grid ends from the smallest subnormal, where linspace's step underflows to 0,
# to 1e300, with a few that are not powers of ten.
GRID_ENDS = [5e-324, 1e-323, 2.5e-323, 1e-320, 2.2250738585072014e-308, 1 / 3, math.pi, 7.0]
GRID_ENDS += [10.0**k for k in range(-300, 301, 15)]
GRID_BLOCK = 16384


def block_times(t_start, t_end, steps, rows):
    """The times of trace_blocks' blocks, joined; no other column is computed."""
    blocks = trace_blocks(SystemParams(1.0, 0.5), PSI_P, t_start, t_end, steps, rows, ())
    return np.concatenate([block["times"] for block in blocks])


class TestBlockGrid:
    @pytest.mark.parametrize("steps", [2, 3, GRID_BLOCK, GRID_BLOCK + 1, 2 * GRID_BLOCK + 5, 100000])
    def test_blocks_join_into_linspace_bitwise(self, steps):
        for t_max in GRID_ENDS:
            expected = np.linspace(0.0, t_max, steps)
            assert block_times(0.0, t_max, steps, GRID_BLOCK).tobytes() == expected.tobytes(), t_max

    @pytest.mark.parametrize("t_start, t_end", [(-3.5, 2.0), (1e-300, 1.0), (2.0, 2.0 + 1e-12)])
    @pytest.mark.parametrize("steps", [2, 7, 1001])
    def test_matches_linspace_from_any_start(self, t_start, t_end, steps):
        expected = np.linspace(t_start, t_end, steps).tobytes()
        assert block_times(t_start, t_end, steps, 3).tobytes() == expected


class TestTraceBlocks:
    @pytest.mark.parametrize("state", [PSI_P, PSI_M])
    def test_blocks_join_into_trace_bitwise(self, state):
        params = SystemParams(7.0, 0.8)
        whole = trace(params, state, 0.0, 30.0, 40)
        blocks = list(trace_blocks(params, state, 0.0, 30.0, 40, 7))
        assert [len(b["times"]) for b in blocks] == [7] * 5 + [5]
        for name in FluctuationTrace.column_names():
            joined = np.concatenate([b[name] for b in blocks])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name

    def test_computes_only_the_named_columns(self):
        [block] = trace_blocks(SystemParams(1.0, 0.5), PSI_P, 0.0, 1.0, 5, 8, ("up2",))
        assert set(block) == {"times", "up2"}

    @pytest.mark.parametrize("g", [1e7, 1e10, 1e150])
    def test_products_of_a_large_coupling_pass(self, g):
        # The products are of size sqrt(eta) + 1/sqrt(eta) (3.8e3 at g = 1e7): their
        # rounding (1.364e-12 at g = 1e7) is about 4e-16 of that size.
        params, steps = SystemParams(1.0, g), 40000
        trace(params, PSI_P, 0.0, 50.0, steps)
        check_trace(trace_blocks(params, PSI_P, 0.0, 50.0, steps, 1000))

    def test_check_reports_the_whole_trace_deviation(self):
        # the error names the largest relative deviation over every block, here the third's
        params, steps = SystemParams(1.0, 1e7), 4000
        blocks = list(trace_blocks(params, PSI_P, 0.0, 50.0, steps, 1000))
        for k, scale in ((0, 1.0 + 1e-9), (2, 1.0 + 3e-9)):
            blocks[k]["up1"] = blocks[k]["up1"] * scale
        whole = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
        with pytest.raises(ValueError) as joined:
            FluctuationTrace(**whole)
        with pytest.raises(ValueError) as blocked:
            check_trace(blocks)
        assert str(joined.value) == "up1 deviates from dx1*dp1 by 3.000e-09 of its size"
        assert str(blocked.value) == str(joined.value)

    def test_check_sees_decrease_across_a_block_boundary(self):
        ones = np.ones(2)
        blocks = [
            {"times": np.array(t), **{n: ones for n in FluctuationTrace.column_names()[1:]}}
            for t in ([0.0, 1.0], [1.0, 2.0])
        ]
        with pytest.raises(ValueError, match="increasing"):
            check_trace(blocks)
        check_trace(blocks[:1])
