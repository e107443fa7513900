"""The benchmark's layer tracer must find every function it measures.

``perfbench/tracer.py`` wraps named functions of the program from outside and
reports a name it cannot find as absent, which leaves that metric out of the
benchmark result.  These tests read the tracer's tables and ``BENCHMARK.json``
(and change neither), so a refactor that drops or renames a traced function
fails here instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
UNTRACED_METRICS = {"trace.overhead_s", "cli.bytes_written"}  # measured by the harness itself


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
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
