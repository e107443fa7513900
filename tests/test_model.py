"""Frequency-ratio and mode-frequency contracts, pinned against the matrix oracle."""

import math
import re
import sys

import pytest
from dense_reference import dense_eigensystem
from hypothesis import given, strategies as st

from bellosc import fock
from bellosc.model import (
    ModeIndex,
    SystemParams,
    beat_frequency,
    default_t_max,
    envelope_period,
    eta,
    mode_frequency,
)

couplings = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
omegas = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def oracle_gaps(params, cutoff=12):
    """Two lowest excitation energies from exact diagonalization."""
    energies = dense_eigensystem(fock.solve(params, fock.TwoModeBasis(cutoff)))[0]
    return energies[1] - energies[0], energies[2] - energies[0]


class TestSystemParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert p.omega == 1.0 and p.coupling_ratio == 0.0

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError):
            SystemParams(omega=omega)

    @pytest.mark.parametrize("g", [-0.1, math.nan, 1e200])
    def test_rejects_bad_coupling(self, g):
        with pytest.raises(ValueError):
            SystemParams(coupling_ratio=g)


    @pytest.mark.parametrize(
        "omega, g, named",
        [
            (1e200, 0.0, "omega 1e+200 is too large"),
            (1e-200, 0.5, "omega 1e-200 is too small"),
            (1e10, 1e150, "(coupling_ratio * omega)^2"),
            (1.3e154, 0.5, "(eta * omega)^2"),
        ],
    )
    def test_rejects_frequencies_whose_squares_leave_the_float_range(self, omega, g, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            SystemParams(omega=omega, coupling_ratio=g)

    @pytest.mark.parametrize(
        "omega, g",
        [(1.5e-154, 0.0), (1.5e-154, 1.4e-8), (1.5e-154, 2.0), (1.3e154, 0.0), (1.0, 1e150)],
    )
    def test_accepted_extremes_keep_default_t_max_normal(self, omega, g):
        # 1.4e-8 is near the smallest g with eta > 1, the slowest envelope
        t_max = default_t_max(SystemParams(omega=omega, coupling_ratio=g))
        assert math.isfinite(t_max) and t_max >= sys.float_info.min


class TestEta:
    def test_no_coupling_is_exactly_one(self):
        assert eta(SystemParams(coupling_ratio=0.0)) == 1.0

    def test_unit_coupling(self):
        assert eta(SystemParams(coupling_ratio=1.0)) == pytest.approx(
            math.sqrt(3.0), abs=1e-15
        )

    def test_matches_eigenfrequency_ratio_of_diagonalized_hamiltonian(self):
        # independent route: ratio of the two lowest excitation gaps
        params = SystemParams(omega=1.0, coupling_ratio=0.8)
        gap_slow, gap_fast = oracle_gaps(params)
        assert gap_fast / gap_slow == pytest.approx(eta(params), abs=1e-9)
        assert eta(params) == pytest.approx(1.50996688705415, abs=1e-12)

    @given(g1=couplings, g2=couplings)
    def test_monotone_in_coupling(self, g1, g2):
        lo, hi = sorted((g1, g2))
        assert eta(SystemParams(coupling_ratio=lo)) <= eta(SystemParams(coupling_ratio=hi))
        assert eta(SystemParams(coupling_ratio=lo)) >= 1.0


class TestModeFrequency:
    def test_slow_mode_is_omega(self):
        assert mode_frequency(SystemParams(1.0, 0.5), ModeIndex.PLUS) == 1.0

    def test_degenerate_at_zero_coupling(self):
        assert mode_frequency(SystemParams(1.0, 0.0), ModeIndex.MINUS) == 1.0

    def test_fast_mode_matches_oracle_eigenfrequency(self):
        params = SystemParams(omega=2.0, coupling_ratio=1.0)
        _, gap_fast = oracle_gaps(params)
        expected = 2.0 * math.sqrt(3.0)
        assert mode_frequency(params, ModeIndex.MINUS) == pytest.approx(expected, abs=1e-12)
        # eigengap carries ~1e-7 truncation error at this coupling and cutoff
        assert gap_fast == pytest.approx(expected, abs=1e-6)

    @given(w=omegas, g=couplings)
    def test_ratio_equals_eta(self, w, g):
        params = SystemParams(w, g)
        ratio = mode_frequency(params, ModeIndex.MINUS) / mode_frequency(params, ModeIndex.PLUS)
        assert ratio == pytest.approx(eta(params), rel=1e-15)

    @given(w=omegas, g=couplings)
    def test_fast_never_below_slow(self, w, g):
        params = SystemParams(w, g)
        assert mode_frequency(params, ModeIndex.MINUS) >= mode_frequency(params, ModeIndex.PLUS)


class TestBeatFrequency:
    def test_zero_without_coupling(self):
        assert beat_frequency(SystemParams(1.0, 0.0)) == 0.0

    def test_unit_coupling_value(self):
        assert beat_frequency(SystemParams(1.0, 1.0)) == pytest.approx(
            1.0 - math.sqrt(3.0), abs=1e-15
        )

    @given(w=omegas, g=couplings)
    def test_is_mode_frequency_difference(self, w, g):
        params = SystemParams(w, g)
        expected = mode_frequency(params, ModeIndex.PLUS) - mode_frequency(params, ModeIndex.MINUS)
        assert beat_frequency(params) == expected
        assert beat_frequency(params) <= 0.0

    @given(w=omegas, g=st.floats(min_value=0.0, max_value=0.999999, exclude_max=False))
    def test_magnitude_below_omega_for_subunit_coupling(self, w, g):
        params = SystemParams(w, g)
        assert abs(beat_frequency(params)) < params.omega


class TestEnvelopePeriod:
    @pytest.mark.parametrize("g", [0.0, 1e-300])
    def test_base_period_without_envelope(self, g):
        assert envelope_period(SystemParams(3.0, g)) == 2.0 * math.pi / 3.0

    def test_beat_period_with_envelope(self):
        params = SystemParams(1.0, 1.0)
        assert envelope_period(params) == 2.0 * math.pi / (math.sqrt(3.0) - 1.0)

    @given(w=omegas, g=couplings)
    def test_default_t_max_is_two_periods(self, w, g):
        params = SystemParams(w, g)
        assert default_t_max(params) == 2.0 * envelope_period(params)
