"""Quantum fluctuations of position-position coupled oscillators in entangled states.

Closed-form fluctuation amplitudes, uncertainty products, and period
statistics for two coupled harmonic oscillators prepared in single-excitation
entangled states, together with a truncated-Fock-space oracle that re-derives
every result from matrix mechanics, a seeded envelope sampler, and a CLI for
verification runs and data export.
"""

from .analytic import (
    DegenerateCouplingError,
    FluctuationTrace,
    PeriodStats,
    baseline_nc,
    bell_sign,
    normalized_p_fluctuation,
    normalized_x_fluctuation,
    period_statistics,
    trace,
    uncertainty_product,
    uncertainty_sum,
)
from .fock import ConvergenceError, SolvedSystem, TwoModeBasis, bell_vector, solve
from .model import (
    BellState,
    ModeIndex,
    OscillatorIndex,
    SystemParams,
    beat_frequency,
    eta,
    mode_frequency,
)
from .oracle import (
    OracleReport,
    commutator_check,
    cross_momentum_scaling_probe,
    evolve_expectations,
    heisenberg_evolution_check,
    table1_check,
)
from .sampler import Realization, RealizationConfig, sample_realization

__version__ = "0.1.0"

__all__ = [
    "BellState",
    "ConvergenceError",
    "DegenerateCouplingError",
    "FluctuationTrace",
    "ModeIndex",
    "OracleReport",
    "OscillatorIndex",
    "PeriodStats",
    "Realization",
    "RealizationConfig",
    "SolvedSystem",
    "SystemParams",
    "TwoModeBasis",
    "baseline_nc",
    "beat_frequency",
    "bell_sign",
    "bell_vector",
    "commutator_check",
    "cross_momentum_scaling_probe",
    "eta",
    "evolve_expectations",
    "heisenberg_evolution_check",
    "mode_frequency",
    "normalized_p_fluctuation",
    "normalized_x_fluctuation",
    "period_statistics",
    "sample_realization",
    "solve",
    "table1_check",
    "trace",
    "uncertainty_product",
    "uncertainty_sum",
    "__version__",
]
