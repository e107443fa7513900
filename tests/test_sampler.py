"""Determinism and envelope statistics of the stochastic sampler."""

import numpy as np
import pytest

from bellosc import analytic
from bellosc.analytic import normalized_x_fluctuation
from bellosc.model import BellState, OscillatorIndex, SystemParams, default_t_max
from bellosc.sampler import RealizationConfig, realization_blocks, sample_realization

PSI_P = BellState.PSI_PLUS
OSC1 = OscillatorIndex.ONE


class TestRealizationConfig:
    def test_grid_covers_t_max(self):
        config = RealizationConfig(seed=1, dt=0.5, t_max=2.0)
        times = sample_realization(SystemParams(1.0, 0.5), PSI_P, OSC1, config).times
        assert np.allclose(times, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1, "dt": 0.1, "t_max": 1.0},
            {"seed": 2**64, "dt": 0.1, "t_max": 1.0},
            {"seed": 1, "dt": 0.0, "t_max": 1.0},
            {"seed": 1, "dt": 0.1, "t_max": 0.0},
            {"seed": 1, "dt": 2.0, "t_max": 1.0},  # one point cannot span [0, t_max]
            {"seed": 1, "dt": 1e-9, "t_max": 100.0},  # trips the point guard
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RealizationConfig(**kwargs)

    def test_point_guard_counts_the_grid(self):
        # 10^7 steps make 10^7 + 1 grid points, one over the guard; no grid is
        # made, so nothing of that size is allocated
        t = 5.0
        with pytest.raises(ValueError, match="point guard"):
            RealizationConfig(seed=1, dt=t / 1e7, t_max=t)
        RealizationConfig(seed=1, dt=t / (1e7 - 1), t_max=t)  # exactly 10^7 points


class TestDeterminism:
    def test_identical_inputs_reproduce_bit_for_bit(self):
        params = SystemParams(1.0, 0.8)
        config = RealizationConfig(seed=424242, dt=0.25, t_max=30.0)
        a = sample_realization(params, PSI_P, OSC1, config)
        b = sample_realization(params, PSI_P, OSC1, config)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.envelope, b.envelope)

    def test_distinct_seeds_differ(self):
        params = SystemParams(1.0, 0.8)
        a = sample_realization(params, PSI_P, OSC1, RealizationConfig(0, 0.25, 10.0))
        b = sample_realization(params, PSI_P, OSC1, RealizationConfig(1, 0.25, 10.0))
        assert not np.array_equal(a.values, b.values)


BLOCK = 8192  # rows per block, so the grids below span one, several and a partial block


class TestBlocks:
    """The realization made a block at a time is the whole-array realization."""

    @pytest.mark.parametrize(
        "n", [BLOCK, 3 * BLOCK, 3 * BLOCK + 1], ids=["one", "multiple", "past"]
    )
    def test_blocks_join_into_sample_realization(self, n):
        params = SystemParams(1.0, 0.8)
        config = RealizationConfig(seed=5, dt=0.5, t_max=0.5 * (n - 1))
        real = sample_realization(params, PSI_P, OSC1, config)
        assert len(real.times) == n
        # the draws of one whole-array call, as before blocks existed
        times = config.dt * np.arange(n)
        envelope = normalized_x_fluctuation(params, PSI_P, OSC1, times)
        rng = np.random.Generator(np.random.Philox(key=5))
        whole = (times, envelope * rng.standard_normal(n), envelope)
        for got, want in zip((real.times, real.values, real.envelope), whole):
            assert got.tobytes() == want.tobytes()
        for rows in (BLOCK, 7, n):
            blocks = list(realization_blocks(params, PSI_P, OSC1, config, rows))
            assert len(blocks) == -(-n // rows)
            for part, want in zip(zip(*blocks), whole):
                assert np.concatenate(part).tobytes() == want.tobytes()

    def test_any_parts_match_the_whole_realization(self):
        params = SystemParams(1.0, 0.5)
        config = RealizationConfig(seed=9, dt=0.25, t_max=0.25 * 40)
        real = sample_realization(params, PSI_P, OSC1, config)
        for parts in [("times",), ("values",), ("envelope", "times"), ("envelope", "envelope")]:
            blocks = list(realization_blocks(params, PSI_P, OSC1, config, 16, parts))
            assert [len(block) for block in blocks] == [len(parts)] * 3
            for i, part in enumerate(parts):
                joined = np.concatenate([block[i] for block in blocks])
                assert joined.tobytes() == getattr(real, part).tobytes()

    def test_times_alone_need_no_envelope(self, monkeypatch):
        def fail(*args):
            raise AssertionError("envelope computed")

        params = SystemParams(1.0, 0.5)
        config = RealizationConfig(seed=9, dt=0.25, t_max=10.0)
        grid = sample_realization(params, PSI_P, OSC1, config).times
        monkeypatch.setattr(analytic, "_beat_cos", fail)
        monkeypatch.setattr(analytic, "_amplitude", fail)
        blocks = realization_blocks(params, PSI_P, OSC1, config, 16, ("times",))
        assert np.concatenate([times for (times,) in blocks]).tobytes() == grid.tobytes()

    @pytest.mark.parametrize("osc", list(OscillatorIndex))
    @pytest.mark.parametrize("g, n", [(0.5, 200), (0.8, 2048), (0.2, 3 * BLOCK + 1)])
    def test_grid_and_envelope_are_the_trace(self, g, n, osc):
        # dt * 199 rounds past t_max at g = 0.5, n = 200; the trace's last point is t_max
        params = SystemParams(1.0, g)
        t = default_t_max(params)
        real = sample_realization(params, PSI_P, osc, RealizationConfig(4, t / (n - 1), t))
        closed = analytic.trace(params, PSI_P, 0.0, t, n)
        assert real.times.tobytes() == closed.times.tobytes()
        assert real.envelope.tobytes() == getattr(closed, f"dx{int(osc)}").tobytes()


class TestEnvelopeStatistics:
    def _empirical_std(self, params, n_realizations, dt, t_max):
        values = np.stack(
            [
                sample_realization(
                    params, PSI_P, OSC1, RealizationConfig(seed, dt, t_max)
                ).values
                for seed in range(n_realizations)
            ]
        )
        return values.std(axis=0, ddof=1), values.mean(axis=0)

    def test_uncoupled_variance_hits_baseline(self):
        # constant envelope sqrt(3): empirical variance within 5 percent
        params = SystemParams(1.0, 0.0)
        std, _ = self._empirical_std(params, 10_000, 1.0, 3.0)
        assert np.max(np.abs(std**2 - 3.0) / 3.0) < 0.05

    def test_envelope_tracked_within_five_percent(self):
        params = SystemParams(1.0, 0.8)
        config = RealizationConfig(0, 0.4, 0.4 * 63)
        std, mean = self._empirical_std(params, 10_000, config.dt, config.t_max)
        times = sample_realization(params, PSI_P, OSC1, config).times
        envelope = normalized_x_fluctuation(params, PSI_P, OSC1, times)
        assert np.max(np.abs(std - envelope) / envelope) < 0.05
        # zero-mean draws: sample mean stays within a few standard errors
        assert np.max(np.abs(mean) / (envelope / np.sqrt(10_000))) < 6.0

    def test_envelope_column_matches_closed_form(self):
        params = SystemParams(1.0, 0.8)
        config = RealizationConfig(7, 0.1, 5.0)
        real = sample_realization(params, PSI_P, OSC1, config)
        expected = normalized_x_fluctuation(params, PSI_P, OSC1, real.times)
        assert np.array_equal(real.envelope, np.asarray(expected))
