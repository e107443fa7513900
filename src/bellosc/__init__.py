"""Quantum fluctuations of position-position coupled oscillators in entangled states.

Closed-form fluctuation amplitudes, uncertainty products, and period
statistics for two coupled harmonic oscillators prepared in single-excitation
entangled states, together with a truncated-Fock-space oracle that re-derives
every result from matrix mechanics, a seeded envelope sampler, and a CLI for
verification runs and data export.
"""

from .analytic import period_statistics, trace
from .fock import TwoModeBasis, solve
from .model import BellState, OscillatorIndex, SystemParams
from .oracle import evolve_expectations, table1_check

__version__ = "0.1.0"

# The names of the README's library example; everything else is imported from
# its module (bellosc.analytic, .fock, .model, .oracle, .sampler, .cli).
__all__ = [
    "BellState",
    "OscillatorIndex",
    "SystemParams",
    "TwoModeBasis",
    "evolve_expectations",
    "period_statistics",
    "solve",
    "table1_check",
    "trace",
    "__version__",
]
