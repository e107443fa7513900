"""Outside-in layer tracing for the bellosc benchmark.

The tracer wraps public functions of the program's modules from the
benchmark's own files; nothing under ``src/`` changes.  A wrapper replaces
every module attribute that refers to the original function, because callers
look names up at call time: ``cli`` calls ``analytic.trace`` through the
module, ``sample_realization`` through its own imported alias, and ``fock``
calls its own functions through its globals.  A target that no longer exists
(a later refactor may delete it) is skipped and its metrics are reported as
absent, never as an error.

Spans are kept in memory as (name, start, end, parent, iteration) tuples and
written out once, when the benchmark ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span.  `model` is left out on purpose:
# its functions are scalar arithmetic called thousands of times per run, and a
# wrapper would cost more than the work it measures.
TARGETS = {
    "fock": (
        "hamiltonian_eigensystem",
        "coupled_hamiltonian",
        "bell_vector",
        "bare_quadratures",
        "normal_mode_quadratures",
    ),
    "oracle": (
        "commutator_check",
        "table1_check",
        "heisenberg_evolution_check",
        "evolve_expectations",
        "cross_momentum_scaling_probe",
    ),
    "cli": ("_write_csv", "_write_json", "cmd_verify", "cmd_trace", "cmd_sample"),
    "sampler": ("sample_realization",),
    "analytic": ("trace", "period_statistics"),
}
OPERATOR_SPAN = "fock.operator_matrix"

# Per-layer metric -> (span name, statistic).  Statistics: calls, self_s,
# total_s, and bytes (array bytes computed by the span).
LAYER_METRICS = {
    "fock.hamiltonian_eigensystem.calls": ("fock.hamiltonian_eigensystem", "calls"),
    "fock.hamiltonian_eigensystem.self_s": ("fock.hamiltonian_eigensystem", "self_s"),
    "fock.coupled_hamiltonian.calls": ("fock.coupled_hamiltonian", "calls"),
    "fock.coupled_hamiltonian.self_s": ("fock.coupled_hamiltonian", "self_s"),
    "fock.bell_vector.calls": ("fock.bell_vector", "calls"),
    "fock.bell_vector.total_s": ("fock.bell_vector", "total_s"),
    "fock.bare_quadratures.calls": ("fock.bare_quadratures", "calls"),
    "fock.bare_quadratures.total_s": ("fock.bare_quadratures", "total_s"),
    "fock.normal_mode_quadratures.calls": ("fock.normal_mode_quadratures", "calls"),
    "fock.normal_mode_quadratures.total_s": ("fock.normal_mode_quadratures", "total_s"),
    "fock.operator_matrix.count": (OPERATOR_SPAN, "calls"),
    "fock.operator_matrix.self_s": (OPERATOR_SPAN, "self_s"),
    "fock.operator_matrix.bytes_computed": (OPERATOR_SPAN, "bytes"),
    "oracle.commutator_check.self_s": ("oracle.commutator_check", "self_s"),
    "oracle.table1_check.self_s": ("oracle.table1_check", "self_s"),
    "oracle.heisenberg_evolution_check.self_s": ("oracle.heisenberg_evolution_check", "self_s"),
    "oracle.evolve_expectations.self_s": ("oracle.evolve_expectations", "self_s"),
    "oracle.cross_momentum_scaling_probe.self_s": (
        "oracle.cross_momentum_scaling_probe",
        "self_s",
    ),
    "cli._write_csv.self_s": ("cli._write_csv", "self_s"),
    "cli._write_json.self_s": ("cli._write_json", "self_s"),
    "cli.cmd_verify.self_s": ("cli.cmd_verify", "self_s"),
    "cli.cmd_trace.self_s": ("cli.cmd_trace", "self_s"),
    "cli.cmd_sample.self_s": ("cli.cmd_sample", "self_s"),
    "sampler.sample_realization.total_s": ("sampler.sample_realization", "total_s"),
    "analytic.trace.total_s": ("analytic.trace", "total_s"),
    "analytic.period_statistics.total_s": ("analytic.period_statistics", "total_s"),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "bytes": "bytes"}


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self, package: str = "bellosc"):
        self.package = package
        self.spans: list = []
        self.span_bytes: dict[int, int] = {}
        self.iteration = -1
        self._stack: list[int] = []
        self._restore: list = []
        self.present: set[str] = set()
        self.absent: set[str] = set()

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items()) if n.startswith(prefix) and m]

    def install(self) -> None:
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, funcs in TARGETS.items():
            mod = by_name.get(mod_name)
            for func in funcs:
                span = f"{mod_name}.{func}"
                original = getattr(mod, func, None) if mod is not None else None
                if not callable(original):
                    self.absent.add(span)
                    continue
                self.present.add(span)
                wrapper = self._wrap(span, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        self._install_operator_matrix(by_name.get("fock"))

    def _install_operator_matrix(self, fock) -> None:
        cls = getattr(fock, "OperatorMatrix", None)
        original = getattr(cls, "__dict__", {}).get("__post_init__")
        if original is None:
            self.absent.add(OPERATOR_SPAN)
            return
        self.present.add(OPERATOR_SPAN)
        timed = self._wrap(OPERATOR_SPAN, original, count_bytes=True)
        self._restore.append((cls, "__post_init__", original))
        cls.__post_init__ = timed

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, count_bytes: bool = False):
        spans, stack, span_bytes = self.spans, self._stack, self.span_bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.iteration)
                if count_bytes:
                    span_bytes[idx] = int(getattr(args[0], "matrix").nbytes)

        return wrapper

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and bytes summed over all spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[idx]
            s["bytes"] += self.span_bytes.get(idx, 0)
        return stats

    def layer_metrics(self, iterations: int) -> tuple[dict, list[str]]:
        """Per-iteration layer metrics, and the names absent from this program."""
        stats = self.aggregate()
        metrics, absent = {}, []
        for metric, (span, stat) in LAYER_METRICS.items():
            if span not in self.present:
                absent.append(metric)
                continue
            value = stats[span][stat] if span in stats else 0
            value = value / iterations
            metrics[metric] = {"value": value, "unit": UNITS[stat]}
        return metrics, absent

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, iteration."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, iteration) in enumerate(self.spans):
                record = {
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "iteration": iteration,
                }
                if idx in self.span_bytes:
                    record["bytes"] = self.span_bytes[idx]
                fh.write(json.dumps(record) + "\n")
