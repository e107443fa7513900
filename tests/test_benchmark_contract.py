"""The benchmark's tracer must find every function it measures, and its checker
must accept the program's output.

``perfbench/tracer.py`` wraps named functions of the program from outside and
reports a name it cannot find as absent, which leaves that metric out of the
benchmark result.  ``perfbench/checks.py`` parses every line ``verify`` prints
and compares exported cells with its own reference values; a run it rejects
counts as a failed operation; a traced run must report a value for every
per-layer metric.  These tests load both modules by path and read
``BENCHMARK.json`` (and change none of them), so a refactor that drops a
traced function or changes ``verify``'s lines or the export bytes fails here
instead.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bellosc import cli, fock

ROOT = Path(__file__).resolve().parents[1]
UNTRACED_METRICS = {"trace.overhead_s", "cli.bytes_written"}  # measured by the harness itself


def _load(name: str):
    """Import ``perfbench/<name>.py`` as module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
CHECKS = _load("checks")
TRACED = [(mod, func) for mod, funcs in TRACER.TARGETS.items() for func in funcs]
SPANS = {f"{mod}.{func}" for mod, func in TRACED} | {TRACER.OPERATOR_SPAN}


@pytest.mark.parametrize("module, function", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"bellosc.{module}"), function, None))


def test_operator_matrix_validation_is_traceable():
    from bellosc.fock import OperatorMatrix

    assert "__post_init__" in OperatorMatrix.__dict__


def test_every_per_layer_metric_maps_to_a_traced_span():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unmapped = [
        m["name"]
        for m in per_layer
        if m["name"] not in UNTRACED_METRICS
        and TRACER.LAYER_METRICS.get(m["name"], (None,))[0] not in SPANS
    ]
    assert not unmapped


@pytest.mark.parametrize("coupling", [None, "0.05", "0.45"], ids=["default", "0.05", "0.45"])
def test_checker_accepts_verify(coupling, capsys):
    rc = cli.main(["verify"] + ([] if coupling is None else ["--coupling", coupling]))
    outcome = CHECKS.check_verify(capsys.readouterr().out, rc)
    assert outcome.problems == []
    assert outcome.failed == 0


@pytest.mark.parametrize(
    "steps", [2000, 2 * cli._BLOCK_ROWS + 5], ids=["one-block", "three-blocks"]
)
def test_checker_accepts_sample_csv(steps, tmp_path, capsys):
    path, seed = tmp_path / "sample.csv", 7
    rc = cli.main(["sample", "--steps", str(steps), "--seed", str(seed), "--output", str(path)])
    assert rc == 0
    assert CHECKS.check_sample_csv(str(path), steps, seed, row_seed=1) == []


def test_checker_accepts_trace_json(tmp_path, capsys):
    path, steps = tmp_path / "trace.json", 500
    rc = cli.main(["trace", "--steps", str(steps), "--format", "json", "--output", str(path)])
    assert rc == 0
    assert CHECKS.check_trace_json(str(path), steps, row_seed=1) == []


def test_traced_run_reports_every_layer_metric(tmp_path, capsys):
    # the benchmark's traced run installs the tracer around whole CLI calls;
    # its result carries one value per per_layer metric, or the run is refused
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    cmd_verify, bell_vector = cli.cmd_verify, fock.bell_vector
    tracer = TRACER.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        rc = cli.main(["verify"])
        verify_out = capsys.readouterr().out
        trace_path, sample_path = str(tmp_path / "trace.json"), str(tmp_path / "sample.csv")
        assert cli.main(["trace", "--steps", "50", "--format", "json", "--output", trace_path]) == 0
        assert cli.main(["sample", "--steps", "50", "--output", sample_path]) == 0
    finally:
        tracer.uninstall()
    metrics, absent = tracer.layer_metrics(1)
    assert absent == []
    assert set(metrics) == {m["name"] for m in per_layer} - UNTRACED_METRICS
    calls = {name: stats["calls"] for name, stats in tracer.aggregate().items()}
    assert [calls.get(f"cli.cmd_{c}") for c in ("verify", "trace", "sample")] == [1, 1, 1]
    assert metrics["fock.operator_matrix.count"]["value"] == 0  # solve builds plain arrays
    outcome = CHECKS.check_verify(verify_out, rc)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert cli.cmd_verify is cmd_verify and fock.bell_vector is bell_vector  # uninstalled
