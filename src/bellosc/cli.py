"""Command-line front end: verification runs and machine-readable data export.

Subcommands
-----------
verify   run the full oracle suite and report one line per check
trace    fluctuation amplitudes and uncertainty products on a time grid
sweep    envelope frequency and period statistics across couplings
sample   one seeded stochastic realization with its envelope
figures  write the standard set of figure data files plus an index

Exit status: 0 success, 1 verification failure, 2 usage or config error,
141 when the reader of an output pipe goes away (as for a writer ended by
SIGPIPE; nothing more is written and no message is printed).
All numeric output is serialized with 9 significant digits; CSV files are
UTF-8, comma-delimited, with a header row and LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytic, fock, oracle
from .model import (
    BellState, OscillatorIndex, SystemParams, beat_frequency, default_t_max, envelope_period, eta,
)
from .sampler import MAX_GRID_POINTS, RealizationConfig, realization_blocks

__all__ = ["main"]

EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ended
FIGURE_COUPLINGS = (0.0, 0.2, 0.8)  # named coupling regimes: none, strong, very strong
FIGURE_SAMPLE_COUPLING = 0.8
DEFAULT_SWEEP_GRID = tuple(np.linspace(0.0, 2.0, 81))


# Defaults of the options that every export records in its metadata, in key
# order.  Each subparser takes them as its defaults, so a subcommand records
# the default of an option it does not take.
DEFAULTS = {
    "omega": 1.0,
    "coupling": 0.5,
    "state": BellState.PSI_PLUS.value,
    "oscillator": 1,
    "t_max": None,  # two envelope periods, see _t_max
    "steps": 200,
    "cutoff": 12,
    "tolerance": 1e-8,
    "seed": 12345,
    "format": "csv",
}


# ---------------------------------------------------------------------------
# serialization helpers

_BLOCK_ROWS = 16384  # rows per block of a row source, and per writer byte buffer
# Rows of a block written per call, and formatted per call by the JSON writer,
# so that a call's temporaries stay well below the size of a block's byte
# buffer.  The writers make one buffer per block.  glibc maps the first one
# on its own and, when it is freed, raises its heap trim threshold to twice
# that size.  Later blocks whose temporaries stay under it reuse the same
# heap pages; above it, the heap's top goes back to the kernel after every
# block and is faulted in again.  The CSV buffer (68 bytes a row for sample)
# is wide enough to format whole blocks; JSON's (27) is not.
_PIECE_ROWS = 8192
# List item separator of json.dump(indent=2) at column depth.
_JSON_ITEM_SEP = ",\n      "
_TOKEN_BYTES = 16  # widest "%.9g" token: "-1.23456789e-308"
_JSON_TOKEN_BYTES = 19  # widest re-encoded JSON token: "-1234567890000000.0"


def _token_tables():
    """Lookup tables of ``_tokens``' integer path, by decimal exponent x in [-4, 7].

    ``scale[x + 4]`` is ``10**(8 - x)``, exact in float64.  ``layout[x + 4]``
    says how the 9 ASCII digits, a 128-bit little-endian number held in two
    uint64 words, become the unsigned token: the mask of the leading digits
    that stay in place, the shift in bits that moves the others up, and the
    two words of the bytes that fill the gap ("." after x + 1 digits, or "0."
    and -x - 1 zeros in front).  ``mask[9 * (x + 4) + tz]`` holds the two
    words that keep the bytes of a token, sign slot included, whose tz
    trailing zero digits are cut.
    """
    scale, layout, mask = [], [], []
    for x in range(-4, 8):
        scale.append(float(10 ** (8 - x)))
        if x < 0:
            kept, gap, insert = 0, 1 - x, int.from_bytes(b"0." + b"0" * (-x - 1), "little")
        else:
            kept, gap, insert = x + 1, 1, ord(".") << 8 * (x + 1)
        layout.append(((1 << 8 * kept) - 1, 8 * gap, insert & (2**64 - 1), insert >> 64))
        for tz in range(9):
            # cut tz zeros, or all 8 - x fraction digits and the point
            size = 1 + 9 + gap - (tz if tz < 8 - x else 9 - x)
            mask.append(((1 << 8 * min(size, 8)) - 1, (1 << 8 * max(size - 8, 0)) - 1))
    return np.array(scale), np.array(layout, dtype=np.uint64), np.array(mask, dtype=np.uint64)


_SCALE, _LAYOUT, _MASK = _token_tables()


def _nine_digits(v: np.ndarray):
    """``(fast, xi, m)``: where ``fast``, |v| rounded to 9 digits is m * 10**(xi - 12)
    with m in [1e8, 1e9) (see ``_tokens``); elsewhere m is 1e8."""
    with np.errstate(all="ignore"):  # log10(0), nan comparisons, overflow of s
        s = np.abs(v)
        x = np.log10(s)
        np.floor(x, out=x)
        fast = (x >= -4) & (x <= 7)
        x += 4
        x[~fast] = 0
        xi = x.astype(np.intp)
        s *= np.take(_SCALE, xi)
        m = np.rint(s, out=x)
        fast &= s >= 1e8
        fast &= m < 1e9
        s -= m
        fast &= np.abs(s, out=s) < 0.5 - 1e-6
    m[~fast] = 1e8
    return fast, xi, m.astype(np.uint64)


def _ascii_digits(m: np.ndarray):
    """``(lo, hi, tz)``: m in [1e8, 1e9) as 9 ASCII digits in 128-bit little-endian
    words (lo holds bytes 0-7, hi bytes 8-15), and its count of trailing zero digits.

    m is overwritten: it becomes lo."""
    lead = m // 100000000
    w = m  # the other 8 digits, made one byte each of w, in m's place
    w -= lead * 100000000
    q = w // 10000
    w -= q * 10000  # two 4-digit lanes
    w <<= 32
    w |= q
    np.multiply(w, 10486, out=q)  # // 100 in each lane
    q >>= 20
    q &= 0x0000007F0000007F
    w -= q * 100  # four 2-digit lanes
    w <<= 16
    w |= q
    np.multiply(w, 103, out=q)  # // 10 in each lane
    q >>= 10
    q &= 0x000F000F000F000F
    w -= q * 10  # eight 1-digit lanes, most significant first
    w <<= 8
    w |= q
    del q
    # Trailing zero digits are the bytes above w's highest nonzero one; a byte
    # is at most 9, so converting w to float cannot carry into the next byte.
    tz = 8 - (np.frexp(w.astype(float))[1] + 7) // 8
    w |= 0x3030303030303030
    hi = w >> 56
    w <<= 8
    lead += 0x30
    w |= lead
    return w, hi, tz


def _tokens(values: np.ndarray) -> np.ndarray:
    """Each value's ``"%.9g" % v`` token as ASCII bytes, in an (n, 16) uint8 matrix.

    NUL bytes pad each token: one in front of a nonnegative token from the
    integer path, the rest behind it.  The writers drop every NUL.

    Integer path, for a value whose decimal exponent x = floor(log10|v|) is in
    [-4, 7]: s = |v| * 10**(8 - x) is scaled by an exact power of ten (10^12
    down to 10^1), so the product's one rounding error is at most half an
    ulp, 6e-8 for s < 2^30.  When s is in [1e8, 1e9), m = rint(s) < 1e9 and s
    is more than 1e-6 from a rounding tie, that error cannot change the
    rounding, so m holds the 9 digits that ``%.9g`` prints.  They are built as
    ASCII on uint64, eight per word; the point or the "0.000" prefix, the cut
    of trailing zeros and the sign are placed with per-element shifts and
    masks.

    Every other value (zeros, subnormals, nan, inf, |v| outside [1e-4, 1e8),
    near-ties, log10 off by one next to a power of ten, m rounding up to 1e9)
    is written by ``"%.9g" % v`` into its row.

    The steps work in place where they can, so a call's temporaries peak at
    about 60 bytes per value (see _PIECE_ROWS).
    """
    v = np.asarray(values, dtype=float)
    fast, xi, m = _nine_digits(v)
    lo, hi, tz = _ascii_digits(m)
    keep, shift, insert_lo, insert_hi = _LAYOUT.T
    keep = keep[xi]
    rest = lo & ~keep
    lo &= keep
    del keep
    shift = shift[xi]
    hi <<= shift
    hi |= rest >> (64 - shift)
    rest <<= shift
    del shift
    lo |= rest
    del rest
    hi |= insert_hi[xi]
    lo |= insert_lo[xi]
    out = np.empty((len(v), 2), dtype="<u8")
    np.left_shift(hi, 8, out=out[:, 1])
    out[:, 1] |= lo >> 56
    np.left_shift(lo, 8, out=out[:, 0])
    out[:, 0] |= np.signbit(v) * np.uint64(ord("-"))  # the sign slot
    del lo, hi
    xi *= 9
    xi += tz
    out &= np.take(_MASK, xi, axis=0)
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = _ascii_rows(["%.9g" % f for f in v[slow].tolist()], _TOKEN_BYTES)
    return out


def _ascii_rows(tokens: list[str], width: int) -> np.ndarray:
    """ASCII strings as the NUL-padded rows of a (len(tokens), width) uint8 matrix."""
    return np.array(tokens, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _write_bytes(stream, block: np.ndarray) -> None:
    """Write the block's bytes in row order, NULs dropped, _PIECE_ROWS rows at a time."""
    for start in range(0, len(block), _PIECE_ROWS):
        piece = block[start : start + _PIECE_ROWS]
        stream.write(piece.tobytes().translate(None, b"\0").decode("ascii"))


def _blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows covering range(n)."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


class _Rows(NamedTuple):
    """Named equal-length columns that the writers read a block of rows at a time.

    ``blocks(names)`` yields, for consecutive blocks of at most _BLOCK_ROWS
    rows, the values of the named columns in that block, in the order of
    ``names``.  A source computes only the columns it is asked for.
    """

    names: tuple[str, ...]
    blocks: Callable[[tuple[str, ...]], Iterator[list[np.ndarray]]]


def _array_rows(columns: dict[str, np.ndarray]) -> _Rows:
    """Whole arrays as row blocks: every block is a slice (a view) of each column."""
    n = len(next(iter(columns.values()), ()))

    def blocks(names):
        for rows in _blocks(n):
            yield [columns[name][rows] for name in names]

    return _Rows(tuple(columns), blocks)


def _is_constant(col: np.ndarray) -> bool:
    """True for a nonempty column whose values are bitwise equal (0.0 and -0.0 differ)."""
    bits = col.view(np.uint64)
    return len(bits) > 0 and bool(np.all(bits == bits[0]))


def _json_items(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` as JSON numbers rounded to 9 significant digits into ``out``.

    ``out`` is an (n, _JSON_TOKEN_BYTES) uint8 view; each row gets one
    NUL-padded token.  The ``%.9g`` token of ``_tokens`` is already
    ``repr(float(token))``, the json encoder's output, for a normal value that
    is not within 9 digits of an integer: both have the same digits, a decimal
    point, and exponent notation below 1e-4 only.  The other tokens (zeros,
    subnormals, nan, inf, and integral values, which include every |v| >= 5e7)
    are re-encoded exactly.
    """
    out[:, :_TOKEN_BYTES] = _tokens(values)
    out[:, _TOKEN_BYTES:] = 0
    size = np.abs(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.rint(values)
        gap -= values
        same = size >= 1e-300
        size *= 1e-8
        same &= np.abs(gap, out=gap) > size
    redo = np.flatnonzero(~same)
    if len(redo):
        tokens = [json.dumps(float("%.9g" % v)) for v in values[redo].tolist()]
        out[redo] = _ascii_rows(tokens, _JSON_TOKEN_BYTES)


def _write_csv(stream, rows: _Rows) -> None:
    """Header row, then one row per grid point with every value as ``%.9g``.

    One pass over the blocks of ``rows``.  Each block is laid out in one byte
    buffer: every column's tokens (see ``_tokens``) in a slot of its own, each
    slot followed by "," or the newline.  A column that is constant within a
    block is formatted once, into its slot.
    """
    csv.writer(stream, lineterminator="\n").writerow(rows.names)
    if not rows.names:
        return
    for cols in rows.blocks(rows.names):  # one buffer per block: see _PIECE_ROWS
        buffer = np.empty((len(cols[0]), len(cols), _TOKEN_BYTES + 1), dtype=np.uint8)
        buffer[:, :, -1] = ord(",")
        buffer[:, -1, -1] = ord("\n")
        for i, col in enumerate(cols):
            col = np.asarray(col, dtype=float)
            buffer[:, i, :-1] = _tokens(col[:1] if _is_constant(col) else col)
        _write_bytes(stream, buffer)


def _write_json(stream, rows: _Rows, metadata: dict) -> None:
    """Write ``json.dump({"metadata": ..., "columns": ...}, indent=2)`` and a newline.

    Column values are rounded to 9 significant digits (see ``_json_items``).
    One pass over the blocks of ``rows`` per column, which asks the source for
    that column alone.  Each block is laid out in one byte buffer, a separator
    in front of every token, _PIECE_ROWS rows at a time; the first one's comma
    is dropped.  A block of a column that is constant within it is written as
    its one item, separator and token, repeated.
    """
    stream.write('{\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  "))
    stream.write(',\n  "columns": {')
    sep = np.frombuffer(_JSON_ITEM_SEP.encode("ascii"), dtype=np.uint8)
    key_sep = "\n    "
    for name in rows.names:
        stream.write(key_sep + json.dumps(name) + ": [")
        first = True
        for (col,) in rows.blocks((name,)):
            col = np.asarray(col, dtype=float)
            constant = _is_constant(col)
            values = col[:1] if constant else col
            # one buffer per block: see _PIECE_ROWS
            buffer = np.empty((len(values), len(sep) + _JSON_TOKEN_BYTES), dtype=np.uint8)
            buffer[:, : len(sep)] = sep
            slot = buffer[:, len(sep) :]
            for start in range(0, len(values), _PIECE_ROWS):
                piece = slice(start, start + _PIECE_ROWS)
                _json_items(values[piece], slot[piece])
            if constant:
                text = buffer.tobytes().translate(None, b"\0").decode("ascii") * len(col)
                stream.write(text[1:] if first else text)  # no comma before the first item
            else:
                if first:
                    buffer[0, 0] = 0  # no comma before the first item
                _write_bytes(stream, buffer)
            first = False
        stream.write("]" if first else "\n    ]")
        key_sep = ",\n    "
    stream.write("\n  }\n}\n" if rows.names else "}\n}\n")


def _emit(args: argparse.Namespace, rows: _Rows, metadata: dict) -> None:
    """Write ``rows`` as --format to --output, '-' meaning stdout."""
    if args.output == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(args.output, "w", newline="", encoding="utf-8")
    with target as stream:
        if args.format == "json":
            _write_json(stream, rows, metadata)
        else:
            _write_csv(stream, rows)


def _metadata(args: argparse.Namespace, command: str, **extra) -> dict:
    """The command, then every DEFAULTS key as parsed, then ``extra`` (which may override)."""
    return {"command": command, **{key: getattr(args, key) for key in DEFAULTS}, **extra}


def _t_max(args: argparse.Namespace, params: SystemParams) -> float:
    """--t-max, else ``model.default_t_max``: two envelope periods."""
    return default_t_max(params) if args.t_max is None else args.t_max


def _couplings(args: argparse.Namespace) -> list[float]:
    """--couplings, else DEFAULT_SWEEP_GRID."""
    return [float(g) for g in args.couplings or DEFAULT_SWEEP_GRID]


# ---------------------------------------------------------------------------
# subcommands
#
# One column builder per export kind; the subcommands and `figures` all write
# what these return through the same writers.  `sweep` columns are whole
# arrays, handed to the writers as row blocks by `_array_rows`; a trace and a
# sample are made a block at a time as they are written.


def _trace_rows(params: SystemParams, state: BellState, t_max: float, steps: int) -> _Rows:
    """A trace's columns, made a block at a time (``analytic.trace_blocks``) as they are read.

    One pass over the blocks checks the whole trace before this returns, so a
    trace that fails a ``FluctuationTrace`` invariant writes no byte.  The four
    non-coupled baselines are one value each, a zero-stride view per block.
    """
    analytic.check_trace(analytic.trace_blocks(params, state, 0.0, t_max, steps, _BLOCK_ROWS))
    amp1_nc, up1_nc = analytic.baseline_nc(state, OscillatorIndex.ONE)
    up2_nc = analytic.baseline_nc(state, OscillatorIndex.TWO)[1]
    baselines = {"dx1_nc": amp1_nc, "dp1_nc": amp1_nc, "up1_nc": up1_nc, "up2_nc": up2_nc}

    def blocks(names):
        computed = tuple(name for name in names if name not in baselines and name != "t")
        for block in analytic.trace_blocks(params, state, 0.0, t_max, steps, _BLOCK_ROWS, computed):
            block["t"] = block["times"]
            block.update((name, np.broadcast_to(v, len(block["t"]))) for name, v in baselines.items())
            yield [block[name] for name in names]

    return _Rows(("t", *analytic.FluctuationTrace.column_names()[1:], *baselines), blocks)


def _sweep_columns(
    omega: float, state: BellState, couplings: list[float]
) -> dict[str, np.ndarray]:
    if not couplings:
        raise ValueError("couplings list must be nonempty")
    params = [SystemParams(omega=omega, coupling_ratio=g) for g in couplings]
    rows = []
    for p in params:
        row = [p.coupling_ratio, eta(p), abs(beat_frequency(p)) / omega]
        for osc in (OscillatorIndex.ONE, OscillatorIndex.TWO):
            st = analytic.period_statistics(p, state, osc)
            row += [st.min_product, st.max_product, st.mean_product, st.fraction_below_nc]
        rows.append(row)
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


def _figure_rows(traces: dict[float, _Rows], column: str) -> _Rows:
    """The time column, then ``column`` of the trace at each coupling g as ``{column}_g{g:g}``."""
    picks = {"t": (next(iter(traces)), "t"), **{f"{column}_g{g:g}": (g, column) for g in traces}}

    def blocks(names):  # one stream per column; every trace has the same grid
        streams = [traces[g].blocks((name,)) for g, name in map(picks.get, names)]
        for parts in zip(*streams):
            yield [part for (part,) in parts]

    return _Rows(tuple(picks), blocks)


# Column of a sample export -> the part of the realization it shows.
_SAMPLE_PARTS = {
    "t": "times",
    "sample": "values",
    "envelope_plus": "envelope",
    "envelope_minus": "envelope",
}


def _sample_columns(
    params: SystemParams,
    state: BellState,
    osc: OscillatorIndex,
    seed: int,
    t_max: float,
    steps: int,
) -> _Rows:
    rc = RealizationConfig(seed=seed, dt=t_max / (steps - 1), t_max=t_max)

    def blocks(names):
        parts = tuple(_SAMPLE_PARTS[name] for name in names)
        for block in realization_blocks(params, state, osc, rc, _BLOCK_ROWS, parts):
            yield [-part if name == "envelope_minus" else part for name, part in zip(names, block)]

    return _Rows(tuple(_SAMPLE_PARTS), blocks)


def cmd_trace(args: argparse.Namespace) -> int:
    params = SystemParams(args.omega, args.coupling)
    t_max = _t_max(args, params)
    rows = _trace_rows(params, BellState(args.state), t_max, args.steps)
    _emit(args, rows, _metadata(args, "trace", t_max=t_max))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    couplings = _couplings(args)
    columns = _sweep_columns(args.omega, BellState(args.state), couplings)
    _emit(args, _array_rows(columns), _metadata(args, "sweep", couplings=couplings))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    params = SystemParams(args.omega, args.coupling)
    t_max = _t_max(args, params)
    osc = OscillatorIndex(args.oscillator)
    rows = _sample_columns(params, BellState(args.state), osc, args.seed, t_max, args.steps)
    _emit(args, rows, _metadata(args, "sample", t_max=t_max))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    state = BellState(args.state)
    if args.t_max is None:  # one full period of the slowest oscillating curve
        slowest = SystemParams(args.omega, min(g for g in FIGURE_COUPLINGS if g > 0))
        t_max = envelope_period(slowest)
    else:
        t_max = args.t_max

    # Every trace is checked, fig1's columns built and fig2's realization
    # configured before the first file is written, so a config error leaves no
    # partial result.  The traces and the realization are made a block at a
    # time as they are written.
    traces = {
        g: _trace_rows(SystemParams(args.omega, g), state, t_max, args.steps)
        for g in FIGURE_COUPLINGS
    }
    sample_params = SystemParams(args.omega, FIGURE_SAMPLE_COUPLING)
    files = [
        (
            "fig1.csv",
            _array_rows(_sweep_columns(args.omega, state, _couplings(args))),
            {
                "figure": 1,
                "quantity": "relative envelope frequency and period statistics vs coupling",
                "state": args.state,
            },
        ),
        (
            "fig2.csv",
            _sample_columns(
                sample_params, state, OscillatorIndex.ONE, args.seed, t_max, args.steps
            ),
            {
                "figure": 2,
                "quantity": "one seeded realization of the oscillator-1 coordinate fluctuations",
                "state": args.state,
                "coupling": FIGURE_SAMPLE_COUPLING,
                "seed": args.seed,
            },
        ),
    ]
    for number, column, description in (
        (3, "dx1", "normalized coordinate fluctuation amplitude, oscillator 1"),
        (4, "dp1", "normalized momentum fluctuation amplitude, oscillator 1"),
        (5, "up1", "normalized uncertainty product, oscillator 1"),
        (6, "up2", "normalized uncertainty product, oscillator 2"),
    ):
        entry = {
            "figure": number,
            "quantity": description,
            "state": args.state,
            "couplings": list(FIGURE_COUPLINGS),
        }
        files.append((f"fig{number}.csv", _figure_rows(traces, column), entry))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows, _ in files:
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, rows)
    index = {
        "omega": args.omega,
        "state": args.state,
        "t_max": t_max,
        "steps": args.steps,
        "files": [{"file": name, **entry} for name, _, entry in files],
    }
    with open(out / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(files)} figure data files and index.json to {out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = args.tolerance
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    params = SystemParams(args.omega, args.coupling)
    basis = fock.TwoModeBasis(args.cutoff)
    if basis.dim * args.steps > MAX_GRID_POINTS:
        raise ValueError(
            f"--steps {args.steps} at --cutoff {args.cutoff} would evolve "
            f"{basis.dim} x {args.steps} amplitudes, over the {MAX_GRID_POINTS:.0e} guard"
        )
    # The probe solves its own system; running it first keeps one alive at a time.
    try:
        accepted, rejected = oracle.cross_momentum_scaling_probe(params, basis, tol)
    except ValueError as exc:
        probe = "the momentum-scaling probe's second solve at 2 * omega"
        raise ValueError(f"--omega {args.omega:g} is too large for {probe}: {exc}") from exc
    system = fock.solve(params, basis)

    checks: list[oracle.OracleReport] = []
    checks.extend(oracle.commutator_check(system))
    checks.extend(oracle.table1_check(system, tol))
    checks.append(accepted)
    canonical, noncanonical = oracle.heisenberg_evolution_check(system, 1.0 / args.omega, tol)
    checks.append(canonical)

    t_max = _t_max(args, params)
    for state in (BellState.PSI_PLUS, BellState.PSI_MINUS):
        closed = analytic.trace(params, state, 0.0, t_max, args.steps)  # validates t_max
        evolved = oracle.evolve_expectations(system, state, closed.times)
        dev = max(
            float(np.max(np.abs(getattr(closed, col) - getattr(evolved, col))))
            for col in ("dx1", "dx2", "dp1", "dp2")
        )
        checks.append(
            oracle.OracleReport.compare(
                f"trace-match[{state.value}] max dev, {args.steps} pts", 0.0, dev, tol
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


def _parse_couplings(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad couplings list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("couplings list must be nonempty")
    return values


# add_argument keywords of every option; the defaults of the DEFAULTS keys come
# from the subparser (see build_parser).
_OPTIONS = {
    "--omega": {"type": float, "help": "base angular frequency (default %(default)g)"},
    "--coupling": {"type": float, "help": "coupling ratio g (default %(default)s)"},
    "--state": {
        "choices": [s.value for s in BellState],
        "help": "entangled state (default %(default)s)",
    },
    "--oscillator": {"type": int, "choices": [1, 2], "help": "oscillator (default %(default)s)"},
    "--cutoff": {"type": int, "help": "Fock cutoff per oscillator (default %(default)s)"},
    # Written out: %(default)g would print 1e-08.
    "--tolerance": {"type": float, "help": "check tolerance (default 1e-8)"},
    "--t-max": {"type": float, "help": "grid end time (default: two envelope periods)"},
    "--steps": {"type": int, "help": "number of grid points (default %(default)s)"},
    "--seed": {"type": int, "help": "RNG seed (default %(default)s)"},
    "--couplings": {
        "type": _parse_couplings,
        "help": "comma-separated coupling ratios (default 0..2 in steps of 0.025)",
    },
    "--format": {"choices": ["csv", "json"], "help": "output format"},
    "--output": {"default": "-", "help": "output path, '-' for stdout (default)"},
    "--out-dir": {"default": "figures", "help": "output directory (default ./figures)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellosc",
        description=(
            "Quantum fluctuations of two position-position coupled oscillators "
            "in single-excitation entangled states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    physics, output = ["--omega", "--coupling"], ["--format", "--output"]
    grid = ["--t-max", "--steps"]
    # name, summary, options in help order, help texts that differ from _OPTIONS
    for name, summary, options, helps in (
        (
            "verify",
            "run the oracle suite against the closed forms",
            [*physics, "--cutoff", "--tolerance", *grid],
            {},
        ),
        (
            "trace",
            "export amplitude and uncertainty-product columns",
            [*physics, "--state", *grid, *output],
            {},
        ),
        (
            "sweep",
            "export period statistics across couplings",
            ["--omega", "--state", "--couplings", *output],
            {},
        ),
        (
            "sample",
            "export one seeded stochastic realization",
            [*physics, "--state", "--oscillator", *grid, "--seed", *output],
            {},
        ),
        (
            "figures",
            "write the standard figure data files",
            ["--omega", "--state", *grid, "--seed", "--couplings", "--out-dir"],
            {
                "--seed": "RNG seed for fig2 (default %(default)s)",
                "--couplings": "fig1 sweep couplings",
            },
        ),
    ):
        p = sub.add_parser(name, help=summary)
        # The handler is named, not bound: main looks it up when it runs, so a
        # replaced cmd_* module attribute takes effect on a parser built before.
        p.set_defaults(handler=f"cmd_{name}", **DEFAULTS)  # before add_argument, which reads them
        for option in options:
            spec = _OPTIONS[option]
            p.add_argument(option, **{**spec, "help": helps.get(option, spec["help"])})
    return parser


# A negative number, including the forms argparse would take for a flag: -1e-3, -inf, -nan.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--option -value`` into ``--option=-value`` when the value is a negative number.

    argparse reads only ``-digits`` and ``-digits.digits`` as negative numbers,
    so ``--omega -1e-3`` would otherwise fail as a missing argument instead of
    reaching the option's own check.
    """
    joined: list[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if (
            _NEGATIVE_VALUE.match(arg)
            and prev.startswith("--")
            and "=" not in prev
            and not "--help".startswith(prev)
        ):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def _pipe_closed() -> int:
    """Stop quietly after the reader of an output pipe went away.

    Returns the status a shell reports for a writer ended by SIGPIPE.  When
    that pipe is stdout, its descriptor is pointed at /dev/null, because
    Python flushes what stdout still buffers once more at exit.  Signal
    handlers stay as they are, so a caller of ``main`` keeps its own.
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_PIPE_CLOSED


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # not at import, which would put the build in every start-up
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser.parse_args(_attach_negative_values(argv))
        if args.steps < 2:  # every grid has both ends; sweep takes the default
            raise ValueError(f"--steps must be >= 2, got {args.steps}")
        if args.steps > MAX_GRID_POINTS:  # checked before any grid is allocated
            raise ValueError(f"--steps {args.steps} exceeds the {MAX_GRID_POINTS:.0e} point guard")
        return globals()[args.handler](args)
    except BrokenPipeError:
        return _pipe_closed()
    except (ValueError, fock.ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
