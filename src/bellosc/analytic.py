"""Closed-form fluctuation amplitudes, uncertainty products, and period statistics.

All amplitudes are normalized by the single-oscillator ground-state values
sqrt(1/(2 omega)) for coordinates and sqrt(omega/2) for momenta, so every
quantity here is dimensionless.  The four (state, oscillator) sign variants of
the amplitude formulas funnel through a single helper; the sign stacking is
the most error-prone part of the algebra and is pinned against the Fock-space
oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BellState,
    OscillatorIndex,
    SystemParams,
    beat_frequency,
    envelope_period,
    eta,
)

__all__ = [
    "FluctuationTrace",
    "PeriodStats",
    "bell_sign",
    "normalized_x_fluctuation",
    "normalized_p_fluctuation",
    "uncertainty_product",
    "uncertainty_sum",
    "baseline_nc",
    "period_statistics",
    "check_trace",
    "trace",
    "trace_blocks",
]

SQRT3 = math.sqrt(3.0)

# Largest accepted |up - dx * dp| / (dx * dp).  Relative, because the products
# are of size sqrt(eta) + 1/sqrt(eta), and their rounding grows with it.
PRODUCT_CONSISTENCY_TOL = 1e-12


def bell_sign(state: BellState, osc: OscillatorIndex) -> int:
    """Sign of the oscillating term: +1 for (PSI_PLUS, ONE) and (PSI_MINUS, TWO)."""
    sign = 1 if state is BellState.PSI_PLUS else -1
    return sign if osc is OscillatorIndex.ONE else -sign


def _beat_cos(params: SystemParams, t):
    return np.cos(beat_frequency(params) * np.asarray(t, dtype=float))


def _amplitude(kind: str, params: SystemParams, sign: int, c):
    """Column kind "dx", "dp" or "up" from the Bell sign and c = cos(w_beat t)."""
    e = eta(params)
    if kind == "dx":
        return np.sqrt(1.0 + 1.0 / e + sign * c / math.sqrt(e))
    if kind == "dp":
        return np.sqrt(1.0 + e + sign * math.sqrt(e) * c)
    return uncertainty_sum(params) + sign * c


def normalized_x_fluctuation(params, state, osc, t):
    """Normalized coordinate fluctuation amplitude at time t (scalar or array).

    sqrt(1 + 1/eta + sign * cos(w_beat t) / sqrt(eta)), bounded between
    sqrt(1 + 1/eta - 1/sqrt(eta)) and sqrt(1 + 1/eta + 1/sqrt(eta)).
    """
    return _amplitude("dx", params, bell_sign(state, osc), _beat_cos(params, t))


def normalized_p_fluctuation(params, state, osc, t):
    """Normalized momentum fluctuation amplitude sqrt(1 + eta + sign * sqrt(eta) cos(w_beat t))."""
    return _amplitude("dp", params, bell_sign(state, osc), _beat_cos(params, t))


def uncertainty_sum(params: SystemParams) -> float:
    """sqrt(eta) + 1/sqrt(eta): period-mean of either uncertainty product.

    Also half the (constant) sum of the two products at any instant, the
    quantitative form of the noise-transfer effect.
    """
    root = math.sqrt(eta(params))
    return root + 1.0 / root


def uncertainty_product(params, state, osc, t):
    """Normalized coordinate-momentum uncertainty product for one oscillator.

    The radicand of dx * dp is the perfect square (s + sign * cos)^2 with
    s = sqrt(eta) + 1/sqrt(eta) >= 2, so the product reduces to
    s + sign * cos(w_beat t) and never drops below s - 1 >= 1.
    """
    return _amplitude("up", params, bell_sign(state, osc), _beat_cos(params, t))


def baseline_nc(state: BellState, osc: OscillatorIndex) -> tuple[float, float]:
    """Zero-coupling (amplitude, product) levels: (sqrt(3), 3) or (1, 1).

    The sqrt(3) pairings are (PSI_PLUS, ONE) and (PSI_MINUS, TWO); the other
    two combinations sit at the vacuum level.
    """
    if bell_sign(state, osc) > 0:
        return SQRT3, 3.0
    return 1.0, 1.0


@dataclass(frozen=True)
class FluctuationTrace:
    """Fluctuation amplitudes and uncertainty products on a time grid.

    All columns are dimensionless; ``up1``/``up2`` must agree with the
    products of the amplitude columns to within 1e-12 of their size, so a
    large coupling, whose products are large, is held to the same rounding.
    """

    times: np.ndarray
    dx1: np.ndarray
    dx2: np.ndarray
    dp1: np.ndarray
    dp2: np.ndarray
    up1: np.ndarray
    up2: np.ndarray

    def __post_init__(self) -> None:
        cols = {name: np.asarray(getattr(self, name), dtype=float) for name in self.column_names()}
        n = cols["times"].size
        for name, arr in cols.items():
            if arr.ndim != 1 or arr.size != n:
                raise ValueError(f"column {name} must be 1-d of length {n}")
            object.__setattr__(self, name, arr)
        check_trace([cols])

    @staticmethod
    def column_names() -> tuple[str, ...]:
        return ("times", "dx1", "dx2", "dp1", "dp2", "up1", "up2")


@dataclass(frozen=True)
class PeriodStats:
    """Statistics of one uncertainty product over a full envelope period."""

    min_product: float
    max_product: float
    mean_product: float
    fraction_below_nc: float
    nc_baseline: float

    def __post_init__(self) -> None:
        if not (self.min_product <= self.mean_product <= self.max_product):
            raise ValueError("period statistics must satisfy min <= mean <= max")
        if self.min_product < 1.0 - 1e-12:
            raise ValueError(f"min_product {self.min_product} violates the uncertainty bound")
        if not (0.0 <= self.fraction_below_nc <= 1.0):
            raise ValueError("fraction_below_nc must lie in [0, 1]")


def period_statistics(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    samples_per_period: int = 4096,
) -> PeriodStats:
    """Midpoint-rule statistics of the uncertainty product over one period.

    The grid covers one ``model.envelope_period`` uniformly; the mean
    converges to sqrt(eta) + 1/sqrt(eta) and ``fraction_below_nc`` counts grid
    points strictly below the zero-coupling level.  Without an envelope (g = 0,
    or eta rounding to 1) every product equals that level, so min, max and
    mean are the level and the fraction is 0.
    """
    if samples_per_period < 16:
        raise ValueError(f"samples_per_period must be >= 16, got {samples_per_period}")
    period = envelope_period(params)
    times = (np.arange(samples_per_period) + 0.5) * (period / samples_per_period)
    products = uncertainty_product(params, state, osc, times)
    baseline = baseline_nc(state, osc)[1]
    lo, hi = float(np.min(products)), float(np.max(products))
    # np.mean of equal values can round past them (all 4096 products agree
    # at g = 1e150); the mean of values in [lo, hi] lies in [lo, hi].
    mean = min(max(float(np.mean(products)), lo), hi)
    return PeriodStats(
        min_product=lo,
        max_product=hi,
        mean_product=mean,
        fraction_below_nc=float(np.mean(products < baseline)),
        nc_baseline=baseline,
    )


def trace_blocks(
    params, state, t_start, t_end, n_points, rows, names=("dx1", "dx2", "dp1", "dp2", "up1", "up2")
):
    """Yield the trace in consecutive blocks of at most ``rows`` grid points.

    Each block is a dict of its "times" and of the named columns, which share
    one cos(w_beat t); the blocks join into ``trace``'s arrays bit for bit.
    The grid is checked when the first block is made.
    """
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ValueError(f"need finite t_end > t_start, got [{t_start}, {t_end}]")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    div, delta = n_points - 1, float(t_end) - float(t_start)
    for start in range(0, n_points, rows):
        # np.linspace(t_start, t_end, n_points)[start : start + rows] bit for bit: i * step
        # + t_start, or i / div * delta where the step underflows to 0, and the last t_end
        times = np.arange(start, min(start + rows, n_points), dtype=float)
        times = times / div * delta if delta / div == 0 else times * (delta / div)
        times += t_start
        times[n_points - 1 - start :] = t_end  # empty unless this block holds the last point
        block = {"times": times}
        c = _beat_cos(params, times) if names else None
        for name in names:  # a kind and an oscillator number, "dx1" to "up2"
            sign = bell_sign(state, OscillatorIndex(int(name[2])))
            block[name] = _amplitude(name[:2], params, sign, c)
        yield block


def check_trace(blocks) -> None:
    """Raise the error ``FluctuationTrace`` raises for the columns ``blocks`` join into.

    ``blocks`` yields dicts of every column, as ``trace_blocks`` does.  The time
    steps (across block boundaries too), the other columns' values and the
    products' relative deviations are reduced a block at a time.
    """
    low = dict.fromkeys(FluctuationTrace.column_names(), np.inf)
    dev = {"up1": 0.0, "up2": 0.0}
    last = np.empty(0)
    for cols in blocks:
        times = np.concatenate((last, cols["times"]))
        last = times[-1:]
        for name, values in {**cols, "times": np.diff(times)}.items():
            low[name] = np.minimum(low[name], np.min(values, initial=np.inf))
        for up in dev:  # up1 = dx1 * dp1, up2 = dx2 * dp2
            product = cols["dx" + up[-1]] * cols["dp" + up[-1]]
            with np.errstate(divide="ignore", invalid="ignore"):  # a product <= 0 fails below
                relative = np.abs(cols[up] - product) / np.abs(product)
            dev[up] = np.maximum(dev[up], np.max(relative))
    for name, value in low.items():
        if not value > 0:  # a nan fails here, as it fails np.all(column > 0)
            if name == "times":
                raise ValueError("times must be strictly increasing")
            raise ValueError(f"column {name} must be strictly positive")
    for up, value in dev.items():
        if value > PRODUCT_CONSISTENCY_TOL:
            raise ValueError(
                f"{up} deviates from dx{up[-1]}*dp{up[-1]} by {value:.3e} of its size"
            )


def trace(
    params: SystemParams,
    state: BellState,
    t_start: float,
    t_end: float,
    n_points: int,
) -> FluctuationTrace:
    """Evaluate every closed-form column on a uniform time grid."""
    (whole,) = trace_blocks(params, state, t_start, t_end, n_points, rows=n_points)
    return FluctuationTrace(**whole)
