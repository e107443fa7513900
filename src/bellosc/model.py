"""System parameters and the derived normal-mode frequencies.

Two identical oscillators of natural angular frequency ``omega`` interact
through a position-position coupling of strength ``Omega``.  Everything in
this package derives from the pair ``(omega, g)`` with ``g = Omega / omega``.
Natural units with hbar = 1 are used throughout; all exported amplitudes are
normalized by single-oscillator ground-state values, so the unit choice is
invisible to consumers.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass


class ModeIndex(enum.Enum):
    """Normal modes of the coupled pair.

    PLUS is the slow, symmetric (in-phase) mode; MINUS is the fast,
    antisymmetric (out-of-phase) mode.
    """

    PLUS = "+"
    MINUS = "-"


class BellState(enum.Enum):
    """Single-excitation entangled states (|01> + |10>)/sqrt(2) and (|01> - |10>)/sqrt(2).

    Occupation labels refer to the normal modes, slow mode first.
    """

    PSI_PLUS = "psi-plus"
    PSI_MINUS = "psi-minus"


class OscillatorIndex(enum.IntEnum):
    """Selector for one of the two bare (coupled) oscillators."""

    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class SystemParams:
    """Base frequency and dimensionless coupling ratio.

    Attributes
    ----------
    omega : float
        Natural angular frequency of both oscillators (rad / unit time), > 0.
    coupling_ratio : float
        Dimensionless coupling strength g = Omega / omega, >= 0.
    """

    omega: float = 1.0
    coupling_ratio: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega!r}")
        if not (math.isfinite(self.coupling_ratio) and self.coupling_ratio >= 0):
            raise ValueError(
                f"coupling_ratio must be finite and >= 0, got {self.coupling_ratio!r}"
            )
        if not math.isfinite(eta(self)):
            raise ValueError(
                f"coupling_ratio {self.coupling_ratio!r} is too large: "
                "eta = sqrt(1 + 2 g^2) overflows"
            )
        # The oracle squares omega, g * omega and eta * omega: each square must
        # be finite, and omega^2 (so also (eta * omega)^2) a normal float.
        # (g * omega)^2 may underflow to 0; that coupling then acts like g = 0.
        # These bounds also keep default_t_max finite and normal.
        g, w = self.coupling_ratio, self.omega
        if not math.isfinite(w * w):
            raise ValueError(f"omega {w!r} is too large: omega^2 overflows")
        if w * w < sys.float_info.min:
            raise ValueError(f"omega {w!r} is too small: omega^2 underflows")
        for name, value in (("coupling_ratio * omega", g * w), ("eta * omega", eta(self) * w)):
            if not math.isfinite(value * value):
                raise ValueError(
                    f"coupling_ratio {g!r} is too large for omega {w!r}: ({name})^2 overflows"
                )


def eta(params: SystemParams) -> float:
    """Fast-to-slow frequency ratio sqrt(1 + 2 g^2).

    Equals 1 at zero coupling and grows monotonically with g.
    """
    g = params.coupling_ratio
    return math.sqrt(1.0 + 2.0 * g * g)


def mode_frequency(params: SystemParams, mode: ModeIndex) -> float:
    """Angular frequency of a normal mode: omega for PLUS, eta * omega for MINUS."""
    if mode is ModeIndex.PLUS:
        return params.omega
    return eta(params) * params.omega


def beat_frequency(params: SystemParams) -> float:
    """Signed envelope frequency (1 - eta) * omega of the entangled-state fluctuations.

    Computed as slow minus fast mode frequency so the difference identity is
    exact in floating point.  Kept signed (always <= 0); the formulas only use
    it inside an even cosine, so consumers needing a rate take the absolute
    value.  Its magnitude stays below omega for all couplings g < 1.
    """
    return mode_frequency(params, ModeIndex.PLUS) - mode_frequency(params, ModeIndex.MINUS)


def envelope_period(params: SystemParams) -> float:
    """One envelope period 2 pi / |w_beat|.

    Without an envelope (g = 0, or a coupling so small that eta rounds to 1
    and the beat frequency to 0) it is one base period 2 pi / omega instead.
    """
    beat = abs(beat_frequency(params))
    return 2.0 * math.pi / (beat if beat > 0 else params.omega)


def default_t_max(params: SystemParams) -> float:
    """Two envelope periods, the default end of every time grid."""
    return 2.0 * envelope_period(params)
