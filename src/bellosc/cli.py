"""Command-line front end: verification runs and machine-readable data export.

Subcommands
-----------
verify   run the full oracle suite and report one line per check
trace    fluctuation amplitudes and uncertainty products on a time grid
sweep    envelope frequency and period statistics across couplings
sample   one seeded stochastic realization with its envelope
figures  write the standard set of figure data files plus an index

Exit status: 0 success, 1 verification failure, 2 usage or config error.
All numeric output is serialized with 9 significant digits; CSV files are
UTF-8, comma-delimited, with a header row and LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, fock, oracle
from .model import BellState, OscillatorIndex, SystemParams, beat_frequency, default_t_max, eta
from .sampler import MAX_GRID_POINTS, RealizationConfig, sample_realization

__all__ = ["RunConfig", "main"]

FIGURE_COUPLINGS = (0.0, 0.2, 0.8)  # named coupling regimes: none, strong, very strong
FIGURE_SAMPLE_COUPLING = 0.8
SWEEP_SAMPLES_PER_PERIOD = 4096
DEFAULT_SWEEP_GRID = tuple(np.linspace(0.0, 2.0, 81))


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of every CLI knob a subcommand may consume."""

    omega: float = 1.0
    coupling: float = 0.5
    state: BellState = BellState.PSI_PLUS
    oscillator: OscillatorIndex = OscillatorIndex.ONE
    t_max: float | None = None
    steps: int = 200
    cutoff: int = 12
    tolerance: float = 1e-8
    seed: int = 12345
    format: str = "csv"
    output: str = "-"
    out_dir: str = "figures"
    couplings: tuple[float, ...] | None = None

    def params(self) -> SystemParams:
        return SystemParams(omega=self.omega, coupling_ratio=self.coupling)

    def resolved_t_max(self, coupling: float | None = None) -> float:
        """Explicit --t-max, else ``model.default_t_max``: two envelope periods."""
        if self.t_max is not None:
            return self.t_max
        g = self.coupling if coupling is None else coupling
        return default_t_max(SystemParams(omega=self.omega, coupling_ratio=g))


# ---------------------------------------------------------------------------
# serialization helpers

_BLOCK_ROWS = 16384  # rows formatted per call: bounds the size of each formatted string
# List item separator of json.dump(indent=2) at column depth.  A "%.9g" token
# never contains "," or a newline, so the separator also splits tokens apart.
_JSON_ITEM_SEP = ",\n      "
_JSON_ITEM_FMT = "%.9g" + _JSON_ITEM_SEP


def _blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows covering range(n)."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _is_constant(col: np.ndarray) -> bool:
    """True for a nonempty column whose values are bitwise equal (0.0 and -0.0 differ)."""
    bits = col.view(np.uint64)
    return len(bits) > 0 and bool(np.all(bits == bits[0]))


def _json_items(values: np.ndarray) -> str:
    """``values`` rounded to 9 significant digits as JSON numbers joined by _JSON_ITEM_SEP.

    One ``%`` call formats every value as ``%.9g``.  That token is already
    ``repr(float(token))``, the json encoder's output, for a normal value that
    is not within 9 digits of an integer: both have the same digits, a decimal
    point, and exponent notation below 1e-4 only.  The other tokens (zeros,
    subnormals, nan, inf, and integral values, which include every |v| >= 5e7)
    are re-encoded exactly.
    """
    text = ((_JSON_ITEM_FMT * len(values)) % tuple(values.tolist()))[: -len(_JSON_ITEM_SEP)]
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        same = (size >= 1e-300) & (np.abs(values - np.rint(values)) > 1e-8 * size)
    redo = np.flatnonzero(~same).tolist()
    if not redo:
        return text
    tokens = text.split(_JSON_ITEM_SEP)
    for i in redo:
        tokens[i] = json.dumps(float(tokens[i]))
    return _JSON_ITEM_SEP.join(tokens)


def _write_csv(stream, columns: dict[str, np.ndarray]) -> None:
    """Header row, then one row per grid point with every value as ``%.9g``.

    Each block of rows is formatted by a single ``%`` call, which renders a
    float exactly as ``f"{value:.9g}"`` does.  A constant column is formatted
    once, into the row template.
    """
    csv.writer(stream, lineterminator="\n").writerow(columns.keys())
    cols = [np.asarray(col, dtype=float) for col in columns.values()]
    if not cols:
        return
    constant = [_is_constant(col) for col in cols]
    row = ",".join("%.9g" % col[0] if c else "%.9g" for col, c in zip(cols, constant)) + "\n"
    varying = [col for col, c in zip(cols, constant) if not c]
    for rows in _blocks(len(cols[0])):
        n = len(cols[0][rows])
        block = np.column_stack([col[rows] for col in varying]) if varying else np.empty((n, 0))
        stream.write((row * n) % tuple(block.ravel().tolist()))


def _write_json(stream, columns: dict[str, np.ndarray], metadata: dict) -> None:
    """Write ``json.dump({"metadata": ..., "columns": ...}, indent=2)`` and a newline.

    Column values are rounded to 9 significant digits: each value is formatted
    once as ``%.9g`` and only the tokens whose repr may differ are re-encoded
    (see ``_json_items``).  A constant column is formatted once and repeated.
    """
    stream.write('{\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  "))
    stream.write(',\n  "columns": {')
    key_sep = "\n    "
    for name, col in columns.items():
        stream.write(key_sep + json.dumps(name) + ": [")
        col = np.asarray(col, dtype=float)
        token = _json_items(col[:1]) if _is_constant(col) else None
        item_sep = "\n      "
        for rows in _blocks(len(col)):
            if token is None:
                items = _json_items(col[rows])
            else:
                items = _JSON_ITEM_SEP.join([token] * len(col[rows]))
            stream.write(item_sep + items)
            item_sep = _JSON_ITEM_SEP
        stream.write("\n    ]" if len(col) else "]")
        key_sep = ",\n    "
    stream.write("\n  }\n}\n" if columns else "}\n}\n")


def _emit(config: RunConfig, columns: dict[str, np.ndarray], metadata: dict) -> None:
    if config.output == "-":
        _dump(sys.stdout, config, columns, metadata)
        return
    with open(config.output, "w", newline="", encoding="utf-8") as fh:
        _dump(fh, config, columns, metadata)


def _dump(stream, config: RunConfig, columns, metadata) -> None:
    if config.format == "json":
        _write_json(stream, columns, metadata)
    else:
        _write_csv(stream, columns)


def _metadata(config: RunConfig, command: str, **extra) -> dict:
    meta = {
        "command": command,
        "omega": config.omega,
        "coupling": config.coupling,
        "state": config.state.value,
        "oscillator": int(config.oscillator),
        "t_max": config.resolved_t_max() if command in ("trace", "sample") else config.t_max,
        "steps": config.steps,
        "cutoff": config.cutoff,
        "tolerance": config.tolerance,
        "seed": config.seed,
        "format": config.format,
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# subcommands
#
# One column builder per export kind; the subcommands and `figures` all write
# what these return through the same writers.


def _trace_columns(
    params: SystemParams, state: BellState, t_max: float, steps: int
) -> dict[str, np.ndarray]:
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"steps = {steps} exceeds the {MAX_GRID_POINTS:.0e} point guard")
    tr = analytic.trace(params, state, 0.0, t_max, steps)
    amp1_nc, up1_nc = analytic.baseline_nc(state, OscillatorIndex.ONE)
    _, up2_nc = analytic.baseline_nc(state, OscillatorIndex.TWO)
    ones = np.ones_like(tr.times)
    return {
        "t": tr.times,
        "dx1": tr.dx1,
        "dx2": tr.dx2,
        "dp1": tr.dp1,
        "dp2": tr.dp2,
        "up1": tr.up1,
        "up2": tr.up2,
        "dx1_nc": amp1_nc * ones,
        "dp1_nc": amp1_nc * ones,
        "up1_nc": up1_nc * ones,
        "up2_nc": up2_nc * ones,
    }


def _pair_stats(params: SystemParams, state: BellState, osc: OscillatorIndex):
    """(min, max, mean, fraction_below) of one uncertainty product over a period."""
    if beat_frequency(params) == 0:
        level = analytic.baseline_nc(state, osc)[1]
        return level, level, level, 0.0
    st = analytic.period_statistics(params, state, osc, SWEEP_SAMPLES_PER_PERIOD)
    return st.min_product, st.max_product, st.mean_product, st.fraction_below_nc


def _sweep_columns(
    omega: float, state: BellState, couplings: list[float]
) -> dict[str, np.ndarray]:
    if not couplings:
        raise ValueError("couplings list must be nonempty")
    params = [SystemParams(omega=omega, coupling_ratio=g) for g in couplings]
    rows = []
    for p in params:
        stats1 = _pair_stats(p, state, OscillatorIndex.ONE)
        stats2 = _pair_stats(p, state, OscillatorIndex.TWO)
        rows.append((p.coupling_ratio, eta(p), abs(beat_frequency(p)) / omega, *stats1, *stats2))
    data = np.asarray(rows, dtype=float)
    names = (
        "coupling",
        "eta",
        "abs_beat_over_omega",
        "min_up1",
        "max_up1",
        "mean_up1",
        "fraction_below_nc_1",
        "min_up2",
        "max_up2",
        "mean_up2",
        "fraction_below_nc_2",
    )
    return {name: data[:, i] for i, name in enumerate(names)}


def _sample_columns(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    seed: int,
    t_max: float,
    steps: int,
) -> dict[str, np.ndarray]:
    rc = RealizationConfig(seed=seed, dt=t_max / (steps - 1), t_max=t_max)
    real = sample_realization(params, state, osc, rc)
    return {
        "t": real.times,
        "sample": real.values,
        "envelope_plus": real.envelope,
        "envelope_minus": -real.envelope,
    }


def cmd_trace(config: RunConfig) -> int:
    columns = _trace_columns(config.params(), config.state, config.resolved_t_max(), config.steps)
    _emit(config, columns, _metadata(config, "trace"))
    return 0


def cmd_sweep(config: RunConfig, couplings) -> int:
    couplings = [float(g) for g in couplings]
    columns = _sweep_columns(config.omega, config.state, couplings)
    _emit(config, columns, _metadata(config, "sweep", couplings=couplings))
    return 0


def cmd_sample(config: RunConfig) -> int:
    if config.steps < 2:
        raise ValueError(f"sample needs steps >= 2, got {config.steps}")
    columns = _sample_columns(
        config.params(),
        config.state,
        config.oscillator,
        config.seed,
        config.resolved_t_max(),
        config.steps,
    )
    _emit(config, columns, _metadata(config, "sample"))
    return 0


def cmd_figures(config: RunConfig, out_dir: str, couplings=None) -> int:
    if config.steps < 2:
        raise ValueError(f"figures need steps >= 2, got {config.steps}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_grid = [float(g) for g in (couplings if couplings else DEFAULT_SWEEP_GRID)]
    t_max = config.t_max if config.t_max is not None else config.resolved_t_max(
        coupling=min(g for g in FIGURE_COUPLINGS if g > 0)
    ) / 2.0  # one full period of the slowest oscillating curve
    index = []

    def save(name: str, columns: dict, description: dict) -> None:
        path = out / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, columns)
        index.append({"file": name, **description})

    save(
        "fig1.csv",
        _sweep_columns(config.omega, config.state, sweep_grid),
        {
            "figure": 1,
            "quantity": "relative envelope frequency and period statistics vs coupling",
            "state": config.state.value,
        },
    )

    sample_params = SystemParams(omega=config.omega, coupling_ratio=FIGURE_SAMPLE_COUPLING)
    save(
        "fig2.csv",
        _sample_columns(
            sample_params, config.state, OscillatorIndex.ONE, config.seed, t_max, config.steps
        ),
        {
            "figure": 2,
            "quantity": "one seeded realization of the oscillator-1 coordinate fluctuations",
            "state": config.state.value,
            "coupling": FIGURE_SAMPLE_COUPLING,
            "seed": config.seed,
        },
    )

    per_figure = [
        ("fig3.csv", 3, "dx1", "normalized coordinate fluctuation amplitude, oscillator 1"),
        ("fig4.csv", 4, "dp1", "normalized momentum fluctuation amplitude, oscillator 1"),
        ("fig5.csv", 5, "up1", "normalized uncertainty product, oscillator 1"),
        ("fig6.csv", 6, "up2", "normalized uncertainty product, oscillator 2"),
    ]
    traces = {
        g: _trace_columns(
            SystemParams(omega=config.omega, coupling_ratio=g), config.state, t_max, config.steps
        )
        for g in FIGURE_COUPLINGS
    }
    for name, number, column, description in per_figure:
        columns = {"t": traces[FIGURE_COUPLINGS[0]]["t"]}
        for g in FIGURE_COUPLINGS:
            columns[f"{column}_g{g:g}"] = traces[g][column]
        save(
            name,
            columns,
            {
                "figure": number,
                "quantity": description,
                "state": config.state.value,
                "couplings": list(FIGURE_COUPLINGS),
            },
        )

    with open(out / "index.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "omega": config.omega,
                "state": config.state.value,
                "t_max": t_max,
                "steps": config.steps,
                "files": index,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {len(index)} figure data files and index.json to {out}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    tol = config.tolerance
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    params = config.params()
    basis = fock.TwoModeBasis(config.cutoff)
    if basis.dim * config.steps > MAX_GRID_POINTS:
        raise ValueError(
            f"--steps {config.steps} at --cutoff {config.cutoff} would evolve "
            f"{basis.dim} x {config.steps} amplitudes, over the {MAX_GRID_POINTS:.0e} guard"
        )
    # The probe solves its own system; running it first keeps one alive at a time.
    accepted, rejected = oracle.cross_momentum_scaling_probe(params, basis, tol)
    system = fock.solve(params, basis)

    checks: list[oracle.OracleReport] = []
    checks.extend(oracle.commutator_check(system))
    checks.extend(oracle.table1_check(system, tol))
    checks.append(accepted)
    check_time = 1.0 / config.omega
    checks.append(
        oracle.heisenberg_evolution_check(system, check_time, tol, canonical_momentum=True)
    )
    noncanonical = oracle.heisenberg_evolution_check(
        system, check_time, tol, canonical_momentum=False
    )

    t_max = config.resolved_t_max()
    times = np.linspace(0.0, t_max, config.steps)
    for state in (BellState.PSI_PLUS, BellState.PSI_MINUS):
        closed = analytic.trace(params, state, 0.0, t_max, config.steps)
        evolved = oracle.evolve_expectations(system, state, times)
        dev = max(
            float(np.max(np.abs(getattr(closed, col) - getattr(evolved, col))))
            for col in ("dx1", "dx2", "dp1", "dp2")
        )
        checks.append(
            oracle.OracleReport.compare(
                f"trace-match[{state.value}] max dev, {config.steps} pts", 0.0, dev, tol
            )
        )

    for report in checks:
        print(report.line())
    print("INFO negative controls (rejected variants, expected to FAIL):")
    print("INFO " + rejected.line())
    print("INFO " + noncanonical.line())
    failed = [r for r in checks if not r.passed]
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_physics_args(p: argparse.ArgumentParser, coupling: bool = True) -> None:
    p.add_argument("--omega", type=float, default=1.0, help="base angular frequency (default 1)")
    if coupling:
        p.add_argument(
            "--coupling", type=float, default=0.5, help="coupling ratio g (default 0.5)"
        )


def _add_state_args(p: argparse.ArgumentParser, oscillator: bool = False) -> None:
    p.add_argument(
        "--state",
        choices=[s.value for s in BellState],
        default=BellState.PSI_PLUS.value,
        help="entangled state (default psi-plus)",
    )
    if oscillator:
        p.add_argument(
            "--oscillator", type=int, choices=[1, 2], default=1, help="oscillator (default 1)"
        )


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="grid end time (default: two envelope periods)",
    )
    p.add_argument("--steps", type=int, default=200, help="number of grid points (default 200)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")
    p.add_argument("--output", default="-", help="output path, '-' for stdout (default)")


def _parse_couplings(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad couplings list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("couplings list must be nonempty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellosc",
        description=(
            "Quantum fluctuations of two position-position coupled oscillators "
            "in single-excitation entangled states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the oracle suite against the closed forms")
    _add_physics_args(p)
    p.add_argument("--cutoff", type=int, default=12, help="Fock cutoff per oscillator (default 12)")
    p.add_argument("--tolerance", type=float, default=1e-8, help="check tolerance (default 1e-8)")
    _add_grid_args(p)
    p.set_defaults(handler=lambda cfg, args: cmd_verify(cfg))

    p = sub.add_parser("trace", help="export amplitude and uncertainty-product columns")
    _add_physics_args(p)
    _add_state_args(p)
    _add_grid_args(p)
    _add_output_args(p)
    p.set_defaults(handler=lambda cfg, args: cmd_trace(cfg))

    p = sub.add_parser("sweep", help="export period statistics across couplings")
    _add_physics_args(p, coupling=False)
    _add_state_args(p)
    p.add_argument(
        "--couplings",
        type=_parse_couplings,
        default=None,
        help="comma-separated coupling ratios (default 0..2 in steps of 0.025)",
    )
    _add_output_args(p)
    p.set_defaults(
        handler=lambda cfg, args: cmd_sweep(
            cfg, args.couplings if args.couplings else DEFAULT_SWEEP_GRID
        )
    )

    p = sub.add_parser("sample", help="export one seeded stochastic realization")
    _add_physics_args(p)
    _add_state_args(p, oscillator=True)
    _add_grid_args(p)
    p.add_argument("--seed", type=int, default=12345, help="RNG seed (default 12345)")
    _add_output_args(p)
    p.set_defaults(handler=lambda cfg, args: cmd_sample(cfg))

    p = sub.add_parser("figures", help="write the standard figure data files")
    _add_physics_args(p, coupling=False)
    _add_state_args(p)
    _add_grid_args(p)
    p.add_argument("--seed", type=int, default=12345, help="RNG seed for fig2 (default 12345)")
    p.add_argument(
        "--couplings", type=_parse_couplings, default=None, help="fig1 sweep couplings"
    )
    p.add_argument("--out-dir", default="figures", help="output directory (default ./figures)")
    p.set_defaults(handler=lambda cfg, args: cmd_figures(cfg, args.out_dir, args.couplings))

    return parser


_PLAIN_CONFIG_FIELDS = (
    "omega", "coupling", "t_max", "steps", "cutoff",
    "tolerance", "seed", "format", "output", "out_dir",
)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = {name: getattr(args, name) for name in _PLAIN_CONFIG_FIELDS if hasattr(args, name)}
    if hasattr(args, "state"):
        kwargs["state"] = BellState(args.state)
    if hasattr(args, "oscillator"):
        kwargs["oscillator"] = OscillatorIndex(args.oscillator)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.handler(config, args)
    except (ValueError, fock.ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
