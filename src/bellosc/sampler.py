"""Seeded Gaussian realizations of the coordinate-fluctuation envelope.

A realization draws one zero-mean Gaussian value per grid time with standard
deviation equal to the normalized coordinate amplitude at that time (the mean
vanishes because every first moment does).  Draws are independent between
time steps; the sampled traces stay confined by the +-envelope in the usual
Gaussian sense.  The counter-based Philox generator makes output a pure
function of (params, state, oscillator, config), so parallel sweeps with
distinct seeds stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import normalized_x_fluctuation
from .model import BellState, OscillatorIndex, SystemParams

__all__ = ["RealizationConfig", "Realization", "sample_realization"]

MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class RealizationConfig:
    """Seed and uniform time grid of one stochastic realization."""

    seed: int
    dt: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        # grid() holds floor(t_max/dt + 1e-9) + 1 points, which is more than
        # MAX_GRID_POINTS exactly when t_max/dt + 1e-9 reaches it (an integer).
        if self.t_max / self.dt + 1e-9 >= MAX_GRID_POINTS:
            raise ValueError(
                f"t_max/dt = {self.t_max / self.dt:.9g} steps give more grid points "
                f"than the {MAX_GRID_POINTS:.0e} point guard"
            )

    def grid(self) -> np.ndarray:
        """Times 0, dt, 2 dt, ... covering [0, t_max]."""
        n = int(math.floor(self.t_max / self.dt + 1e-9)) + 1
        return self.dt * np.arange(n)


@dataclass(frozen=True)
class Realization:
    """Sampled values together with the +-envelope that confines them."""

    times: np.ndarray
    values: np.ndarray
    envelope: np.ndarray


def sample_realization(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    config: RealizationConfig,
) -> Realization:
    """Draw one realization of the coordinate fluctuations on the config grid.

    Identical inputs reproduce identical output bit for bit.
    """
    times = config.grid()
    envelope = np.asarray(normalized_x_fluctuation(params, state, osc, times), dtype=float)
    rng = np.random.Generator(np.random.Philox(key=int(config.seed)))
    values = envelope * rng.standard_normal(times.size)
    return Realization(times=times, values=values, envelope=envelope)
