"""End-to-end CLI behavior: formats, exit codes, and figure data files."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellosc import analytic, cli
from bellosc.cli import _BLOCK_ROWS, _array_rows, _tokens, _write_csv, _write_json, main
from bellosc.model import BellState, OscillatorIndex, SystemParams, default_t_max
from bellosc.sampler import RealizationConfig, sample_realization

PSI_P = BellState.PSI_PLUS
SRC = Path(__file__).resolve().parents[1] / "src"

TRACE_HEADER = "t,dx1,dx2,dp1,dp2,up1,up2,dx1_nc,dp1_nc,up1_nc,up2_nc"
SWEEP_HEADER = (
    "coupling,eta,abs_beat_over_omega,min_up1,max_up1,mean_up1,fraction_below_nc_1,"
    "min_up2,max_up2,mean_up2,fraction_below_nc_2"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_columns(path) -> dict[str, np.ndarray]:
    """Load a CSV written by the tool back into named float columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    data = np.asarray(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(header)}


def one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def reference_csv(stream, columns):
    """The per-value CSV writer the block writer must reproduce byte for byte."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns.keys())
    for row in zip(*columns.values()):
        writer.writerow(f"{float(v):.9g}" for v in row)


def reference_json(stream, columns, metadata):
    """The per-value JSON writer the block writer must reproduce byte for byte."""
    payload = {
        "metadata": metadata,
        "columns": {k: [float(f"{float(v):.9g}") for v in col] for k, col in columns.items()},
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


EDGE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 1e20, 5e-324, 1 / 3, 2.5e9, 123456789012.0,
    3.0, 1e8, 99999999.95, 2.2250738585072014e-308, 1e16,
]
METADATA = {"command": "trace", "t_max": None, "couplings": [0.0, 0.5], "nested": {}}

# Any float64, mixed with values whose %.9g token and JSON repr part ways:
# integral values and the 1e8, 1e9 and 1e16 notation edges.  Plain float
# draws rarely land in [1e-4, 1e8), where the integer path of _tokens works,
# so values with few digits and 9-digit rounding ties there are drawn too.
_NOTATION_EDGES = st.sampled_from([1e8, 1e9, 1e16])
_INTEGER_PATH_VALUES = st.one_of(
    st.floats(1e-4, 1e8),
    st.builds(lambda m, e: m * 10.0**e, st.integers(1, 10**9 - 1), st.integers(-13, 0)),
    st.builds(
        lambda m, e: (m + 0.5) * 10.0**e, st.integers(10**8, 10**9 - 1), st.integers(-12, 0)
    ),
)
_WRITER_VALUES = st.one_of(
    st.floats(width=64),  # nan, +-inf and subnormals included
    _INTEGER_PATH_VALUES,
    st.integers(-(2**60), 2**60).map(float),
    st.builds(lambda edge, k: edge * (1 + k * 5e-10), _NOTATION_EDGES, st.integers(-30, 30)),
    st.builds(lambda edge, k: edge + k * math.ulp(edge), _NOTATION_EDGES, st.integers(-3, 3)),
)


@st.composite
def writer_columns(draw):
    """1 to 4 equal-length float64 columns, some of them bitwise constant."""
    n = draw(st.integers(0, 30))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["drawn", "constant", "signed-zeros"]))
        if kind == "constant":
            col = np.full(n, draw(st.sampled_from([-0.0, math.nan, 3.0])))
        elif kind == "signed-zeros":  # alternating 0.0 and -0.0 must not share one token
            col = np.where(np.arange(n) % 2 == 1, -0.0, 0.0)
        else:
            col = np.array(draw(st.lists(_WRITER_VALUES, min_size=n, max_size=n)), dtype=float)
        columns[f"c{i}"] = -col if draw(st.booleans()) else col
    return columns


def assert_writers_match_reference(columns):
    expected, actual = io.StringIO(), io.StringIO()
    reference_csv(expected, columns)
    _write_csv(actual, _array_rows(columns))
    assert actual.getvalue() == expected.getvalue()
    expected, actual = io.StringIO(), io.StringIO()
    reference_json(expected, columns, METADATA)
    _write_json(actual, _array_rows(columns), METADATA)
    assert actual.getvalue() == expected.getvalue()


def _neighbours(values):
    """Each value with the float just below and just above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def _kernel_edge_values():
    """Values at the edges of _tokens' integer path, named by class."""
    rng = np.random.default_rng(14)
    exponents = np.arange(-6, 11)
    # 1 to 9 significant digits at every decimal exponent (9-digit integers at x = 8)
    digits = [
        int(rng.integers(10 ** (d - 1), 10**d)) * 10.0 ** float(x - d + 1)
        for x in exponents
        for d in range(1, 10)
    ]
    integers = [float(m) for m in rng.integers(10**8, 10**9, 20)]
    # exact 9-digit ties (m + 0.5) * 10^(x - 8); exact in binary for x >= 8 only
    ties = [
        (int(m) + 0.5) * 10.0 ** float(x - 8)
        for x in exponents
        for m in rng.integers(10**8, 10**9, 4)
    ]
    # ties that binary holds exactly, inside the integer path's range and above it
    ties += [12345678.25, 12345678.75, 1234567.125, 123456.0625, 123456789.5, 123456788.5]
    # powers of ten and the values next to them that round to them at 9 digits
    bounds = [1e-4, 1e8, 1e9, 9.9999999949e-5, 9.999999995e-5, 99999999.949, 99999999.95]
    bounds += [999999999.49, 999999999.5, 1e-5, 1e-3, 1e7, 1e10]
    bounds += [9.9999999996e-4, 0.99999999996, 99999.99996, 99999999.97]
    return {
        "digits": np.array(digits),
        "integers": np.array(integers),
        "ties": _neighbours(ties),
        "boundaries": _neighbours(bounds),
    }


_KERNEL_EDGES = _kernel_edge_values()


class TestWriters:
    @pytest.mark.parametrize("kind", sorted(_KERNEL_EDGES))
    def test_kernel_edges_match_per_value_reference(self, kind):
        values = _KERNEL_EDGES[kind]
        assert_writers_match_reference({"v": values, "minus_v": -values[::-1]})

    def test_tokens_match_percent_format(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                rng.integers(0, 2**64, 20000, dtype=np.uint64).view(float),
                10 ** rng.uniform(-7, 11, 20000) * rng.choice([-1.0, 1.0], 20000),
                *_KERNEL_EDGES.values(),
            ]
        )
        tokens = [row.tobytes().replace(b"\0", b"").decode() for row in _tokens(values)]
        assert tokens == ["%.9g" % v for v in values.tolist()]

    def test_special_values_raise_no_warning(self, capsys):
        specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310])
        columns = {
            "mixed": np.tile(specials, 3),
            "zero": np.zeros(21),
            "minus_zero": np.full(21, -0.0),
            "nan": np.full(21, math.nan),
            "inf": np.full(21, math.inf),
            "subnormal": np.full(21, -5e-324),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_writers_match_reference(columns)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "columns",
        [
            {"a": np.array(EDGE_VALUES), "b": -np.array(EDGE_VALUES[::-1])},
            {},
            {"empty": np.array([])},
            {
                "t": np.linspace(0.0, 1.0, 2 * _BLOCK_ROWS + 3),
                "x": np.random.default_rng(0).standard_normal(2 * _BLOCK_ROWS + 3),
            },
        ],
        ids=["edge-values", "no-columns", "empty-column", "across-blocks"],
    )
    def test_block_writers_match_per_value_reference(self, columns):
        assert_writers_match_reference(columns)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(columns=writer_columns())
    def test_writers_match_reference_on_drawn_columns(self, columns):
        assert_writers_match_reference(columns)


def capture_writers(monkeypatch):
    """Record (path, row source, metadata) of every file the writers fill, then write it."""
    written = []

    def csv_writer(stream, rows):
        written.append((stream.name, rows, None))
        _write_csv(stream, rows)

    def json_writer(stream, rows, metadata):
        written.append((stream.name, rows, metadata))
        _write_json(stream, rows, metadata)

    monkeypatch.setattr(cli, "_write_csv", csv_writer)
    monkeypatch.setattr(cli, "_write_json", json_writer)
    return written


def array_columns(rows):
    """The columns of a row source backed by whole arrays, its block slices joined."""
    blocks = list(rows.blocks(rows.names))
    assert all(part.base is not None for block in blocks for part in block)  # views
    return {name: np.concatenate([b[i] for b in blocks]) for i, name in enumerate(rows.names)}


def sample_columns(coupling, seed, t_max, steps):
    """A `sample` file's columns, from sample_realization's whole arrays."""
    config = RealizationConfig(seed=seed, dt=t_max / (steps - 1), t_max=t_max)
    real = sample_realization(SystemParams(1.0, coupling), PSI_P, OscillatorIndex.ONE, config)
    return {
        "t": real.times,
        "sample": real.values,
        "envelope_plus": real.envelope,
        "envelope_minus": -real.envelope,
    }


def assert_file_matches_reference(path, columns, metadata):
    """The file at ``path`` holds ``columns`` as the per-value reference writers put them."""
    expected = io.StringIO()
    if metadata is None:
        reference_csv(expected, columns)
    else:
        reference_json(expected, columns, metadata)
    with open(path, "rb") as fh:
        assert fh.read().decode("utf-8") == expected.getvalue(), path


_MANY_STEPS = str(2 * _BLOCK_ROWS + 5)


class TestExportIdentity:
    """Exported files equal the per-value reference writers on the same columns."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multi_block_trace(self, fmt, tmp_path, monkeypatch, capsys):
        written = capture_writers(monkeypatch)
        out_file = tmp_path / f"out.{fmt}"
        argv = ("trace", "--coupling", "0.3", "--steps", _MANY_STEPS)
        code, _, err = run(capsys, *argv, "--format", fmt, "--output", str(out_file))
        assert code == 0 and err == ""
        [(path, rows, metadata)] = written
        columns = array_columns(rows)
        assert all(len(col) > 2 * _BLOCK_ROWS for col in columns.values())
        assert_file_matches_reference(path, columns, metadata)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block_rows", [_BLOCK_ROWS, 7])
    def test_streamed_sample(self, block_rows, fmt, tmp_path, monkeypatch, capsys):
        # The reference is built from sample_realization's whole arrays, not
        # from the stream the writers read.
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        written = capture_writers(monkeypatch)
        steps = 2 * block_rows + 5
        out_file = tmp_path / f"sample.{fmt}"
        argv = ("sample", "--coupling", "0.8", "--steps", str(steps), "--seed", "11")
        code, _, err = run(capsys, *argv, "--format", fmt, "--output", str(out_file))
        assert code == 0 and err == ""
        [(path, _, metadata)] = written
        t_max = default_t_max(SystemParams(1.0, 0.8))
        assert_file_matches_reference(path, sample_columns(0.8, 11, t_max, steps), metadata)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_strided_columns_across_blocks(self, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)  # 81 rows in 12 blocks
        monkeypatch.setattr(cli, "_PIECE_ROWS", 3)  # each block in pieces of 3, 3 and 1 rows
        written = capture_writers(monkeypatch)
        out_file = tmp_path / f"sweep.{fmt}"
        code, _, err = run(capsys, "sweep", "--format", fmt, "--output", str(out_file))
        assert code == 0 and err == ""
        [(path, rows, metadata)] = written
        blocks = list(rows.blocks(rows.names))
        assert not any(part.flags.c_contiguous for part in blocks[0])
        assert_file_matches_reference(path, array_columns(rows), metadata)

    def test_figures(self, tmp_path, monkeypatch, capsys):
        written = capture_writers(monkeypatch)
        code = main(["figures", "--out-dir", str(tmp_path), "--steps", "64", "--seed", "3"])
        assert code == 0
        assert [Path(path).name for path, _, _ in written] == [f"fig{i}.csv" for i in range(1, 7)]
        t_max = json.loads((tmp_path / "index.json").read_text())["t_max"]
        for path, rows, metadata in written:
            if Path(path).name == "fig2.csv":
                columns = sample_columns(0.8, 3, t_max, 64)
            else:
                columns = array_columns(rows)
            assert_file_matches_reference(path, columns, metadata)


class TestTrace:
    def test_csv_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "trace", "--coupling", "0.5", "--steps", "37")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 37

    def test_uncoupled_product_columns(self, capsys):
        code, out, _ = run(capsys, "trace", "--coupling", "0", "--steps", "5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        header = TRACE_HEADER.split(",")
        up1 = [float(r[header.index("up1")]) for r in rows]
        up2 = [float(r[header.index("up2")]) for r in rows]
        assert up1 == [3.0] * 5
        assert up2 == [1.0] * 5

    @pytest.mark.parametrize("g", [0.2, 0.8])
    def test_columns_match_closed_forms(self, g, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "trace", "--coupling", str(g), "--steps", "50",
            "--t-max", "20", "--output", str(out_file),
        )
        assert code == 0
        cols = read_columns(out_file)
        params = SystemParams(1.0, g)
        expected = analytic.trace(params, PSI_P, 0.0, 20.0, 50)
        for name in ("dx1", "dx2", "dp1", "dp2", "up1", "up2"):
            rounded = np.array([float(f"{v:.9g}") for v in getattr(expected, name)])
            assert np.array_equal(cols[name], rounded)

    def test_output_agrees_with_oracle_path(self, tmp_path, capsys):
        from bellosc.fock import TwoModeBasis, solve
        from bellosc.oracle import evolve_expectations

        out_file = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "trace", "--coupling", "0.8", "--steps", "40",
            "--t-max", "24", "--output", str(out_file),
        )
        assert code == 0
        cols = read_columns(out_file)
        evolved = evolve_expectations(
            solve(SystemParams(1.0, 0.8), TwoModeBasis(12)), PSI_P, cols["t"]
        )
        for name in ("dx1", "dx2", "dp1", "dp2"):
            assert np.max(np.abs(cols[name] - getattr(evolved, name))) < 1e-6

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--coupling", "0.3", "--steps", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["command"] == "trace"
        assert payload["metadata"]["coupling"] == 0.3
        assert set(payload["columns"]) == set(TRACE_HEADER.split(","))
        assert len(payload["columns"]["dx1"]) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_constant_baselines_hold_no_full_column(self, fmt, tmp_path, capsys):
        # 300 000 rows make 2.4 MB per column.  The seven computed columns and
        # their temporaries peaked at 23.0 (csv) / 21.7 (json) MB here; the four
        # constant baselines as full arrays added about 9.6 MB (32.6 / 28.9 MB).
        path = str(tmp_path / f"trace.{fmt}")
        assert main(["trace", "--steps", "1000", "--format", fmt, "--output", path]) == 0
        tracemalloc.start()
        try:
            code = main(["trace", "--steps", "300000", "--format", fmt, "--output", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 26e6

    def test_bad_steps_is_config_error(self, capsys):
        code, _, err = run(capsys, "trace", "--steps", "1")
        assert code == 2
        assert "error" in err

    def test_steps_above_grid_guard_is_config_error(self, capsys):
        code, _, err = run(capsys, "trace", "--steps", "100000000")
        assert code == 2
        assert one_error_line(err) and "steps" in err


class TestSweep:
    def test_reference_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--couplings", "0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        zero = dict(zip(SWEEP_HEADER.split(","), map(float, lines[1].split(","))))
        one = dict(zip(SWEEP_HEADER.split(","), map(float, lines[2].split(","))))
        assert zero["abs_beat_over_omega"] == 0.0
        assert zero["min_up1"] == zero["max_up1"] == 3.0
        assert zero["fraction_below_nc_1"] == 0.0
        assert one["abs_beat_over_omega"] == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-8)
        assert one["eta"] == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_beat_column_strictly_increasing(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        beat = [float(r[2]) for r in rows]
        assert len(beat) == 81
        assert all(b2 > b1 for b1, b2 in zip(beat, beat[1:]))

    def test_rejects_negative_coupling(self, capsys):
        code, _, err = run(capsys, "sweep", "--couplings", "0.2,-1")
        assert code == 2
        assert "error" in err

    def test_rejects_coupling_whose_eta_overflows(self, capsys):
        code, _, err = run(capsys, "sweep", "--couplings", "0.2,1e200")
        assert code == 2
        assert one_error_line(err) and "1e+200" in err

    def test_huge_coupling_mean_stays_within_min_and_max(self, capsys):
        # every product rounds to the same value there, and np.mean of them
        # rounds below it
        code, out, err = run(capsys, "sweep", "--couplings", "1e150")
        assert code == 0 and err == ""
        row = dict(zip(SWEEP_HEADER.split(","), map(float, out.splitlines()[1].split(","))))
        for pair in ("1", "2"):
            low, mean, high = (row[f"{k}_up{pair}"] for k in ("min", "mean", "max"))
            assert low <= mean <= high

    def test_rejects_empty_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "sweep", "--couplings", ",")
        assert exc.value.code == 2

    def test_json_mirrors_csv_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--couplings", "0,0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["couplings"] == [0.0, 0.5]
        assert set(payload["columns"]) == set(SWEEP_HEADER.split(","))


class TestSample:
    def test_fixed_seed_is_byte_identical(self, capsys):
        args = ("sample", "--coupling", "0.8", "--steps", "64", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_envelope_columns_match_closed_form(self, tmp_path, capsys):
        out_file = tmp_path / "sample.csv"
        code, _, _ = run(
            capsys, "sample", "--coupling", "0.8", "--steps", "33", "--t-max", "16",
            "--seed", "5", "--output", str(out_file),
        )
        assert code == 0
        cols = read_columns(out_file)
        envelope = analytic.normalized_x_fluctuation(
            SystemParams(1.0, 0.8), PSI_P, OscillatorIndex.ONE, cols["t"]
        )
        rounded = np.array([float(f"{v:.9g}") for v in envelope])
        assert np.array_equal(cols["envelope_plus"], rounded)
        assert np.array_equal(cols["envelope_minus"], -rounded)

    def test_gaussian_tail_bound(self, tmp_path, capsys):
        out_file = tmp_path / "big.csv"
        code, _, _ = run(
            capsys, "sample", "--coupling", "0.8", "--steps", "20000",
            "--t-max", "200", "--output", str(out_file),
        )
        assert code == 0
        cols = read_columns(out_file)
        violations = np.sum(np.abs(cols["sample"]) > 4.0 * cols["envelope_plus"])
        assert violations / len(cols["sample"]) < 1e-4

    def test_memory_does_not_grow_with_steps(self, tmp_path, capsys):
        # 300 000 rows make 2.4 MB per column, and whole columns peaked at 13.0
        # MB here; streamed blocks of _BLOCK_ROWS rows peak at 2.9 MB.
        path = str(tmp_path / "sample.csv")
        assert main(["sample", "--steps", "1000", "--output", path]) == 0  # lazy set-up
        tracemalloc.start()
        try:
            code = main(["sample", "--steps", "300000", "--output", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6e6

    def test_steps_above_grid_guard_is_config_error(self, capsys):
        # 10^7 + 1 grid points, one more than trace accepts; rejected before any allocation
        code, out, err = run(capsys, "sample", "--steps", "10000001")
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "point guard" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--coupling", "0.5", "--steps", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["command"] == "sample"
        assert set(payload["columns"]) == {"t", "sample", "envelope_plus", "envelope_minus"}
        assert len(payload["columns"]["sample"]) == 6

    def test_oscillator_selector(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--coupling", "0.8", "--oscillator", "2",
            "--steps", "3", "--t-max", "1",
        )
        assert code == 0
        first = out.splitlines()[1].split(",")
        expected = analytic.normalized_x_fluctuation(
            SystemParams(1.0, 0.8), PSI_P, OscillatorIndex.TWO, 0.0
        )
        assert float(first[2]) == pytest.approx(float(expected), rel=1e-8)


class TestVerify:
    def test_default_config_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        counted = [line for line in out.splitlines() if not line.startswith("INFO")]
        assert not any(line.startswith("FAIL") for line in counted)
        assert "INFO" in out  # adjudication lines are informational, not failures
        assert "X-type variant" in out
        assert "non-canonical" in out

    def test_small_cutoff_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--cutoff", "2")
        assert code == 2
        assert "cutoff" in err

    def test_cutoff_above_ceiling_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--cutoff", "100")
        assert code == 2
        assert one_error_line(err) and "cutoff" in err

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_is_config_error(self, tolerance, capsys):
        code, out, err = run(capsys, "verify", "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "tolerance" in err

    @pytest.mark.parametrize(
        "argv",
        [("--steps", "10000000"), ("--cutoff", "40", "--steps", "6000")],
        ids=["steps-at-default-cutoff", "cutoff-40"],
    )
    def test_evolution_grid_above_guard_is_config_error(self, argv, capsys):
        # (cutoff + 1)^2 * steps evolved amplitudes: 1.7e9 and 1.0e7; only rejected
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "--steps" in err and "--cutoff" in err

    @pytest.mark.parametrize("t_max", ["3e307", "1e308"])
    def test_overflowing_phases_are_config_error(self, t_max, capsys):
        # max|E| * t_max overflows, so the phases E * t would be inf and nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify", "--t-max", t_max)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "overflow" in err
        assert not caught

    def test_unreachable_tolerance_fails_with_diff_reported(self, capsys):
        code, out, _ = run(capsys, "verify", "--cutoff", "8", "--tolerance", "1e-30")
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failing
        assert all("|diff|=" in line for line in failing)


_CHOICES = {"state": ["psi-plus", "psi-minus"], "oscillator": [1, 2], "format": ["csv", "json"]}
_PINNED_DEFAULTS = {
    "omega": 1.0,
    "coupling": 0.5,
    "state": "psi-plus",
    "oscillator": 1,
    "cutoff": 12,
    "tolerance": 1e-8,
    "t_max": None,
    "steps": 200,
    "seed": 12345,
    "couplings": None,
    "format": "csv",
    "output": "-",
    "out_dir": "figures",
}


def _options(*dests):
    """[(dest, (default, choices))] in parser order."""
    return [(d, (_PINNED_DEFAULTS[d], _CHOICES.get(d))) for d in dests]


PINNED_OPTIONS = {
    "verify": _options("omega", "coupling", "cutoff", "tolerance", "t_max", "steps"),
    "trace": _options("omega", "coupling", "state", "t_max", "steps", "format", "output"),
    "sweep": _options("omega", "state", "couplings", "format", "output"),
    "sample": _options(
        "omega", "coupling", "state", "oscillator", "t_max", "steps", "seed", "format", "output"
    ),
    "figures": _options("omega", "state", "t_max", "steps", "seed", "couplings", "out_dir"),
}

# Metadata of a JSON export at the option defaults, in key order; options a
# subcommand does not take are recorded at these defaults too.
PINNED_METADATA = {
    "command": None,
    "omega": 1.0,
    "coupling": 0.5,
    "state": "psi-plus",
    "oscillator": 1,
    "t_max": None,
    "steps": 200,
    "cutoff": 12,
    "tolerance": 1e-08,
    "seed": 12345,
    "format": "json",
}
_DEFAULT_T_MAX = default_t_max(SystemParams(1.0, 0.5))
_SET = ("--omega", "1.3", "--coupling", "0.7", "--state", "psi-minus", "--t-max", "9.5")
_SET_CHANGES = {"omega": 1.3, "coupling": 0.7, "state": "psi-minus", "t_max": 9.5}


class TestSurface:
    """Options, defaults and export metadata that scripts and saved files rely on."""

    def test_subcommand_options(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(PINNED_OPTIONS)
        for name, subparser in sub.choices.items():
            options = [
                (a.dest, (a.default, list(a.choices) if a.choices else None))
                for a in subparser._actions
                if a.dest != "help"
            ]
            assert options == PINNED_OPTIONS[name], name

    def test_help_states_each_default(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        stated = 0
        for name, subparser in sub.choices.items():
            formatter = subparser._get_formatter()
            for action in subparser._actions:
                match = re.search(r"\(default (\S[^)]*)\)", formatter._expand_help(action))
                if action.dest in cli.DEFAULTS and match:
                    text, default = match.group(1), action.default
                    assert text == str(default) or float(text) == default, (name, action.dest)
                    stated += 1
        assert stated == 21

    @pytest.mark.parametrize(
        "argv, changes",
        [
            (("trace",), {"t_max": _DEFAULT_T_MAX}),
            (("sample",), {"t_max": _DEFAULT_T_MAX}),
            (("sweep",), {"couplings": [float(g) for g in np.linspace(0.0, 2.0, 81)]}),
            (("trace", *_SET), _SET_CHANGES),
            (
                ("sample", *_SET, "--oscillator", "2", "--seed", "77"),
                {**_SET_CHANGES, "oscillator": 2, "seed": 77},
            ),
            (
                ("sweep", "--omega", "1.3", "--state", "psi-minus", "--couplings", "0,0.7"),
                {"omega": 1.3, "state": "psi-minus", "couplings": [0.0, 0.7]},
            ),
        ],
        ids=["trace", "sample", "sweep", "trace-set", "sample-set", "sweep-set"],
    )
    def test_json_metadata(self, argv, changes, capsys):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        expected = {**PINNED_METADATA, "command": argv[0], **changes}
        assert list(json.loads(out)["metadata"].items()) == list(expected.items())


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("figs")
    code = main(["figures", "--out-dir", str(out_dir), "--steps", "64", "--seed", "3"])
    assert code == 0
    return out_dir


class TestFigures:
    def test_all_files_written(self, figure_dir):
        names = {p.name for p in figure_dir.iterdir()}
        assert names == {f"fig{i}.csv" for i in range(1, 7)} | {"index.json"}

    def test_index_maps_every_figure(self, figure_dir):
        index = json.loads((figure_dir / "index.json").read_text())
        figures = sorted(entry["figure"] for entry in index["files"])
        assert figures == [1, 2, 3, 4, 5, 6]

    def test_fig1_starts_at_zero_and_rises(self, figure_dir):
        cols = read_columns(figure_dir / "fig1.csv")
        assert cols["coupling"][0] == 0.0
        assert cols["abs_beat_over_omega"][0] == 0.0
        assert np.all(np.diff(cols["abs_beat_over_omega"]) > 0)

    def test_fig5_shows_noise_transfer(self, figure_dir):
        cols = read_columns(figure_dir / "fig5.csv")
        strong = cols["up1_g0.8"]
        assert np.max(strong) > 3.0
        assert np.mean(strong) < 3.0

    def test_fig2_round_trips_through_sampler(self, figure_dir):
        cols = read_columns(figure_dir / "fig2.csv")
        index = json.loads((figure_dir / "index.json").read_text())
        t_max, steps = index["t_max"], index["steps"]
        config = RealizationConfig(seed=3, dt=t_max / (steps - 1), t_max=t_max)
        real = sample_realization(
            SystemParams(1.0, 0.8), PSI_P, OscillatorIndex.ONE, config
        )
        rounded = np.array([float(f"{v:.9g}") for v in real.values])
        assert np.array_equal(cols["sample"], rounded)

    def test_trace_figures_round_trip(self, figure_dir):
        index = json.loads((figure_dir / "index.json").read_text())
        t_max, steps = index["t_max"], index["steps"]
        for name, column in (("fig3.csv", "dx1"), ("fig4.csv", "dp1"), ("fig6.csv", "up2")):
            cols = read_columns(figure_dir / name)
            for g in (0.0, 0.2, 0.8):
                expected = getattr(
                    analytic.trace(SystemParams(1.0, g), PSI_P, 0.0, t_max, steps), column
                )
                rounded = np.array([float(f"{v:.9g}") for v in expected])
                assert np.array_equal(cols[f"{column}_g{g:g}"], rounded)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--t-max", "-1"), "-1"),
            (("--seed", "-1"), "seed"),
            (("--steps", "10000001"), "steps"),
        ],
        ids=["t-max", "seed", "steps"],
    )
    def test_config_error_writes_no_file(self, argv, named, tmp_path, capsys):
        code, out, err = run(capsys, "figures", *argv, "--out-dir", str(tmp_path))
        assert code == 2
        assert out == ""
        assert one_error_line(err) and named in err
        assert list(tmp_path.iterdir()) == []


# Option values for the argv property.  --steps and --cutoff stay small, plus
# values above the size guards, which must be rejected before any allocation.
_WILD_FLOAT_TEXT = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["0", "-0", "1e-300", "1e300", "1e400", "nan", "inf", "x", ""]),
    st.sampled_from(["-1e-3", "-2.5E+2", "-1e400", "-5e-324", "-inf", "-nan", "-.5"]),
)


def _float_text(low, high):
    """A float in [low, high] three times in four, else a wild or malformed one."""
    plausible = st.floats(low, high).map(repr)
    return st.integers(0, 3).flatmap(lambda k: _WILD_FLOAT_TEXT if k == 0 else plausible)


_OPTION_VALUES = {
    "--omega": _float_text(0.1, 10.0),
    "--coupling": _float_text(0.0, 2.0),
    "--t-max": _float_text(0.1, 50.0),
    "--tolerance": _float_text(1e-12, 1e-3),
    "--couplings": st.one_of(
        st.lists(_float_text(0.0, 2.0), min_size=1, max_size=3).map(",".join),
        st.sampled_from([",", "1,,x"]),
    ),
    "--steps": st.one_of(
        st.integers(-2, 40).map(str), st.sampled_from(["10000010", str(10**13), "1.5", "x"])
    ),
    "--cutoff": st.one_of(st.integers(2, 8).map(str), st.sampled_from(["-1", "41", "10000", "x"])),
    "--state": st.sampled_from(["psi-plus", "psi-minus", "phi"]),
    "--oscillator": st.sampled_from(["1", "2", "3"]),
    "--seed": st.sampled_from(["0", "12345", "-1", str(2**64), "x"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
_SUBCOMMAND_OPTIONS = {
    "verify": ("--omega", "--coupling", "--tolerance", "--t-max", "--steps"),
    "trace": ("--omega", "--coupling", "--state", "--t-max", "--steps", "--format"),
    "sweep": ("--omega", "--state", "--couplings", "--format"),
    "sample": (
        "--omega", "--coupling", "--state", "--oscillator", "--t-max", "--steps", "--seed",
        "--format",
    ),
    "figures": ("--omega", "--state", "--t-max", "--steps", "--seed", "--couplings"),
}


@st.composite
def cli_argv(draw, out_dir):
    """A subcommand with drawn options; file outputs go under ``out_dir``."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_OPTIONS)))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(_SUBCOMMAND_OPTIONS[command]), unique=True)):
        value = draw(_OPTION_VALUES[option])
        if draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:  # a negative number as its own word must not be taken for a flag
            argv += [option, value]
    if command == "verify":  # the default cutoff 12 is too slow to draw hundreds of times
        argv.append(f"--cutoff={draw(_OPTION_VALUES['--cutoff'])}")
    elif command == "figures":
        argv.append(f"--out-dir={out_dir / draw(st.sampled_from(['figs', 'no-dir/figs']))}")
    else:
        target = draw(st.sampled_from(["-", "out.txt", "no-dir/out.txt"]))
        argv.append(f"--output={target if target == '-' else out_dir / target}")
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "7"])))
    return argv


class TestExitCodes:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_argv_exits_0_1_or_2_without_traceback(self, data, tmp_path_factory):
        out_dir = tmp_path_factory.getbasetemp() / "argv-property"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "no-dir").touch()  # a file where a directory is expected
        argv = data.draw(cli_argv(out_dir))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ("trace", "--steps", "100000"),
            ("trace", "--steps", "100000", "--format", "json"),
            ("sample", "--steps", "10000000"),  # streamed: stops after its first block
        ],
        ids=["trace-csv", "trace-json", "sample"],
    )
    def test_closed_stdout_stops_quietly(self, argv):
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        with subprocess.Popen(
            [sys.executable, "-m", "bellosc", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            try:
                header = proc.stdout.readline()
                proc.stdout.close()  # the reader goes away, as `| head -1` does
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert header.startswith(b"t,") or header == b"{\n"
        assert proc.returncode == 141
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_output_device_is_config_error(self, capsys):
        code, out, err = run(capsys, "trace", "--steps", "100000", "--output", "/dev/full")
        assert code == 2
        assert out == ""
        assert one_error_line(err) and "No space left" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--nonsense"])
        assert exc.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_figures_single_step_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "figures", "--steps", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "steps" in err

    def test_negative_omega_is_config_error(self, capsys):
        code, _, err = run(capsys, "trace", "--omega", "-1")
        assert code == 2
        assert "omega" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("trace", "--omega", "-1e-3"), "omega must be finite and > 0, got -0.001"),
            (("sample", "--t-max", "-inf"), "t_max must be finite and > 0, got -inf"),
            (("verify", "--cutoff", "6", "--t-max", "-inf"), "need finite t_end > t_start"),
        ],
        ids=["trace-omega", "sample-t-max", "verify-t-max"],
    )
    def test_negative_value_in_exponent_form_reaches_its_check(self, argv, message, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--cutoff", "8"),
            ("trace", "--steps", "5"),
            ("sample", "--steps", "5"),
            ("sweep", "--couplings", "1e-300"),
        ],
        ids=["verify", "trace", "sample", "sweep"],
    )
    def test_coupling_too_small_to_beat_runs_like_zero(self, argv, capsys):
        # eta rounds to 1 and the beat frequency to 0: no envelope, as at g = 0
        if argv[0] != "sweep":
            argv = (*argv, "--coupling", "1e-300")
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("verify", "--omega", "1e10", "--coupling", "1e150"), "coupling_ratio * omega"),
            (("verify", "--omega", "1e-200"), "omega 1e-200"),
            (("trace", "--omega", "1e300", "--coupling", "1e10"), "omega 1e+300"),
        ],
        ids=["verify-coupling-times-omega-overflows", "verify-tiny-omega", "trace-huge-omega"],
    )
    def test_out_of_range_frequencies_are_config_errors(self, argv, named, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert one_error_line(err) and named in err

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
