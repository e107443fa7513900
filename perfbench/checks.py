"""Output checks that a fast but wrong program cannot pass.

verify: one operation is one check line.  The output must hold the 44 check
lines of the expected families, the two INFO negative controls and a summary
that agrees with them; every verdict must agree with its printed deviation and
tolerance, and the exit code with the FAIL count.  An operation fails when its
verdict is FAIL, or when a negative control PASSes.

export: one operation is one output file.  It fails on a nonzero exit, a
missing file or any mismatch: wrong header or row count, or a cell of a
seed-chosen subset of rows that differs from ``format(v, ".9g")`` of the
benchmark's own reference values (from ``sampler.sample_realization`` and
``analytic.trace``).  Later iterations repeat the same calls, so their files
must be byte-identical to the first iteration's, which is checked in full.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

from bellosc import analytic
from bellosc.model import BellState, OscillatorIndex, SystemParams, beat_frequency
from bellosc.sampler import RealizationConfig, sample_realization

VERIFY_TOLERANCE = 1e-8
COMMUTATOR_TOLERANCE = 1e-12
VERIFY_FAMILIES = (
    ("commutator ", 8),
    ("table[psi-plus] ", 16),
    ("table[psi-minus] ", 16),
    ("<P+P-> momentum-type ", 1),
    ("evolution[canonical] ", 1),
    ("trace-match[psi-plus] ", 1),
    ("trace-match[psi-minus] ", 1),
)
VERIFY_CHECKS = sum(count for _, count in VERIFY_FAMILIES)
NEGATIVE_CONTROLS = ("<P+P-> X-type variant ", "evolution[non-canonical] ")
CONTROL_HEADER = "INFO negative controls (rejected variants, expected to FAIL):"
CHECK_LINE = re.compile(
    r"^(PASS|FAIL) (.+?)\s+analytic=\s*(\S+) oracle=\s*(\S+) \|diff\|=(\S+) tol=(\S+)$"
)

# The export calls rely on these CLI defaults.
EXPORT_PARAMS = SystemParams(omega=1.0, coupling_ratio=0.5)
EXPORT_STATE = BellState.PSI_PLUS
SAMPLE_COLUMNS = ("t", "sample", "envelope_plus", "envelope_minus")
TRACE_COLUMNS = (
    "t", "dx1", "dx2", "dp1", "dp2", "up1", "up2", "dx1_nc", "dp1_nc", "up1_nc", "up2_nc",
)
ROWS_CHECKED = 1000


@dataclass
class Outcome:
    """Operations attempted and failed, and every problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _verdict_agrees(status: str, diff: float, tol: float) -> bool:
    # The printed deviation is rounded to 4 digits, so a value printed equal
    # to the tolerance may carry either verdict.
    if diff == tol:
        return True
    return (status == "PASS") == (diff <= tol)


def check_verify(stdout: str, rc: int, tolerance: float = VERIFY_TOLERANCE) -> Outcome:
    """Check one `verify` call; 44 checks plus 2 negative controls are its operations."""
    problems: list[str] = []
    checks, controls, summary, header = [], [], None, False
    for line in stdout.splitlines():
        if line == CONTROL_HEADER:
            header = True
            continue
        if line.startswith("verify: "):
            summary = line
            continue
        is_control = line.startswith("INFO ")
        match = CHECK_LINE.match(line[5:] if is_control else line)
        if match is None:
            problems.append(f"unexpected line {line!r}")
            continue
        (controls if is_control else checks).append(match)
        status, label, _, _, diff, tol = match.groups()
        try:
            diff_v, tol_v = float(diff), float(tol)
        except ValueError:
            problems.append(f"unparsable numbers in {line!r}")
            continue
        if not (math.isfinite(diff_v) and _verdict_agrees(status, diff_v, tol_v)):
            problems.append(f"verdict disagrees with |diff|={diff} tol={tol}: {label}")
        want_tol = COMMUTATOR_TOLERANCE if label.startswith("commutator ") else tolerance
        if not is_control and not math.isclose(tol_v, want_tol, rel_tol=0.05):
            problems.append(f"tolerance {tol} instead of {want_tol:.1e}: {label}")

    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} check lines, expected {VERIFY_CHECKS}")
    for prefix, count in VERIFY_FAMILIES:
        found = sum(m.group(2).startswith(prefix) for m in checks)
        if found != count:
            problems.append(f"{found} '{prefix.strip()}' checks, expected {count}")
    if not header:
        problems.append("negative-control header missing")
    for prefix in NEGATIVE_CONTROLS:
        found = sum(m.group(2).startswith(prefix) for m in controls)
        if found != 1:
            problems.append(f"{found} '{prefix.strip()}' controls, expected 1")
    if len(controls) != len(NEGATIVE_CONTROLS):
        problems.append(f"{len(controls)} negative controls, expected {len(NEGATIVE_CONTROLS)}")

    fails = sum(m.group(1) == "FAIL" for m in checks)
    want_summary = f"verify: {len(checks) - fails}/{len(checks)} checks passed"
    if summary != want_summary:
        problems.append(f"summary {summary!r}, expected {want_summary!r}")
    if rc != (1 if fails else 0):
        problems.append(f"exit code {rc} with {fails} FAIL lines")

    attempted = VERIFY_CHECKS + len(NEGATIVE_CONTROLS)
    if problems:
        return Outcome(attempted, attempted, problems)
    control_passes = sum(m.group(1) == "PASS" for m in controls)
    return Outcome(attempted, fails + control_passes, [])


def export_t_max(params: SystemParams = EXPORT_PARAMS) -> float:
    """The CLI's default grid end: two envelope periods."""
    return 2.0 * (2.0 * math.pi / abs(beat_frequency(params)))


def chosen_rows(seed: int, name: str, n_rows: int, k: int = ROWS_CHECKED) -> list[int]:
    """Seed-chosen row indices to compare cell for cell, always with the first and last."""
    rng = random.Random(f"rows:{name}:{seed}")
    rows = set(rng.sample(range(n_rows), min(k, n_rows))) if n_rows > 0 else set()
    return sorted(rows | ({0, n_rows - 1} if n_rows > 0 else set()))


def sample_reference(steps: int, seed: int) -> dict:
    t_max = export_t_max()
    config = RealizationConfig(seed=seed, dt=t_max / (steps - 1), t_max=t_max)
    real = sample_realization(EXPORT_PARAMS, EXPORT_STATE, OscillatorIndex.ONE, config)
    return {
        "t": real.times,
        "sample": real.values,
        "envelope_plus": real.envelope,
        "envelope_minus": -real.envelope,
    }


def trace_reference(steps: int) -> dict:
    tr = analytic.trace(EXPORT_PARAMS, EXPORT_STATE, 0.0, export_t_max(), steps)
    amp1_nc, up1_nc = analytic.baseline_nc(EXPORT_STATE, OscillatorIndex.ONE)
    up2_nc = analytic.baseline_nc(EXPORT_STATE, OscillatorIndex.TWO)[1]
    ref = {name: getattr(tr, name) for name in ("dx1", "dx2", "dp1", "dp2", "up1", "up2")}
    ref["t"] = tr.times
    ref.update(dx1_nc=amp1_nc, dp1_nc=amp1_nc, up1_nc=up1_nc, up2_nc=up2_nc)
    return ref


def _cell(ref: dict, name: str, row: int) -> float:
    value = ref[name]
    return float(value if isinstance(value, float) else value[row])


def check_sample_csv(path: str, steps: int, sample_seed: int, row_seed: int) -> list[str]:
    """Problems in a `sample` CSV: header, row count, and chosen rows cell for cell."""
    ref = sample_reference(steps, sample_seed)
    n_ref = len(ref["t"])
    rows = set(chosen_rows(row_seed, "sample", n_ref))
    problems: list[str] = []
    n_rows = 0
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if header != ",".join(SAMPLE_COLUMNS) + "\n":
            problems.append(f"csv header {header!r}")
        for n_rows, line in enumerate(fh, start=1):
            row = n_rows - 1
            if line.count(",") != len(SAMPLE_COLUMNS) - 1 or not line.endswith("\n"):
                problems.append(f"csv row {row} malformed: {line!r}")
            elif row in rows and row < n_ref:
                want = ",".join(format(_cell(ref, c, row), ".9g") for c in SAMPLE_COLUMNS)
                if line != want + "\n":
                    problems.append(f"csv row {row} is {line.rstrip()!r}, expected {want!r}")
            if len(problems) > 10:
                break
    if n_rows != steps or n_rows != n_ref:
        problems.append(f"csv has {n_rows} rows, expected {steps}")
    return problems


def check_trace_json(path: str, steps: int, row_seed: int) -> list[str]:
    """Problems in a `trace --format json` file: metadata, columns, chosen rows."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        meta, columns = payload["metadata"], payload["columns"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"json unreadable: {exc}"]
    problems: list[str] = []
    want_meta = {"command": "trace", "steps": steps, "format": "json", "state": "psi-plus"}
    for key, value in want_meta.items():
        if meta.get(key) != value:
            problems.append(f"json metadata {key}={meta.get(key)!r}, expected {value!r}")
    if list(columns) != list(TRACE_COLUMNS):
        return problems + [f"json columns {list(columns)}"]
    for name in TRACE_COLUMNS:
        if len(columns[name]) != steps:
            problems.append(f"json column {name} has {len(columns[name])} rows, expected {steps}")
    if problems:
        return problems
    ref = trace_reference(steps)
    for row in chosen_rows(row_seed, "trace", steps):
        for name in TRACE_COLUMNS:
            want = float(format(_cell(ref, name, row), ".9g"))
            got = columns[name][row]
            if not isinstance(got, float) or got != want:
                problems.append(f"json {name}[{row}] is {got!r}, expected {want!r}")
                if len(problems) > 10:
                    return problems
    return problems
