"""Seeded Gaussian realizations of the coordinate-fluctuation envelope.

A realization draws one zero-mean Gaussian value per grid time with standard
deviation equal to the normalized coordinate amplitude at that time (the mean
vanishes because every first moment does).  Draws are independent between
time steps; the sampled traces stay confined by the +-envelope in the usual
Gaussian sense.  The counter-based Philox generator makes output a pure
function of (params, state, oscillator, config), so parallel sweeps with
distinct seeds stay reproducible.

The grid and the envelope are ``analytic.trace_blocks``' times and dx column,
so a realization shares its grid with ``trace`` bit for bit; this module adds
only the draw.  ``realization_blocks`` makes a realization in consecutive
blocks of grid points, all drawn from one Philox stream, so a caller that
writes each block out holds O(block) values at any grid size.
``sample_realization`` is the realization as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import trace_blocks
from .model import BellState, OscillatorIndex, SystemParams

__all__ = ["RealizationConfig", "Realization", "realization_blocks", "sample_realization"]

MAX_GRID_POINTS = 10**7
PARTS = ("times", "values", "envelope")  # the fields of Realization, in order


@dataclass(frozen=True)
class RealizationConfig:
    """Seed and time grid of one stochastic realization.

    The grid is ``np.linspace(0, t_max, points)``: ``dt`` sets only the number
    of points, and the step is dt where dt divides t_max (up to rounding), a
    little more where it does not.
    """

    seed: int
    dt: float
    t_max: float

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if not (math.isfinite(self.dt) and 0 < self.dt <= self.t_max):
            raise ValueError(f"dt must be finite and in (0, t_max], got {self.dt!r}")
        # The grid holds floor(t_max/dt + 1e-9) + 1 points, which is more than
        # MAX_GRID_POINTS exactly when t_max/dt + 1e-9 reaches it (an integer).
        if self.t_max / self.dt + 1e-9 >= MAX_GRID_POINTS:
            raise ValueError(
                f"t_max/dt = {self.t_max / self.dt:.9g} steps give more grid points "
                f"than the {MAX_GRID_POINTS:.0e} point guard"
            )

    @property
    def points(self) -> int:
        """Number of grid points."""
        return int(math.floor(self.t_max / self.dt + 1e-9)) + 1


@dataclass(frozen=True)
class Realization:
    """Sampled values together with the +-envelope that confines them."""

    times: np.ndarray
    values: np.ndarray
    envelope: np.ndarray


def realization_blocks(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    config: RealizationConfig,
    rows: int,
    parts: tuple[str, ...] = PARTS,
):
    """Yield the realization in consecutive blocks of at most ``rows`` grid points.

    Each block is a tuple of the named ``parts`` of ``Realization`` for its
    grid points, in the order asked.  A block computes only what those parts
    need: the times alone need no envelope, and only "values" draws random
    numbers.  The draws come from one Philox stream in grid order, so the
    blocks join into ``sample_realization``'s arrays bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=int(config.seed)))
    dx = f"dx{int(osc)}"
    names = (dx,) if "envelope" in parts or "values" in parts else ()
    for block in trace_blocks(params, state, 0.0, config.t_max, config.points, rows, names):
        block["envelope"] = block.get(dx)  # None where no part needs it
        if "values" in parts:
            block["values"] = block[dx] * rng.standard_normal(len(block["times"]))
        yield tuple(block[part] for part in parts)


def sample_realization(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    config: RealizationConfig,
) -> Realization:
    """Draw one realization of the coordinate fluctuations on the config grid.

    Identical inputs reproduce identical output bit for bit.
    """
    (block,) = realization_blocks(params, state, osc, config, config.points)
    return Realization(*block)
