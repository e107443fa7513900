"""Self-test of the benchmark's checker and harness.

    python3 perfbench/selftest.py

Part 1 injects faults into real program output and requires the checker to
flag each one: one digit changed in one CSV cell, a dropped CSV row, one digit
changed in a JSON cell, a negative control reported as PASS, and an exit code
that disagrees with the verdicts.  Clean output must pass.

Part 2 runs every workload at its tiny size through run.py, untraced and
traced, and requires a correct result whose metrics match BENCHMARK.json.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import TMP_ROOT  # noqa: E402

SEED = 7
CSV_STEPS = workloads.SAMPLE_STEPS["tiny"]
JSON_STEPS = workloads.TRACE_STEPS["tiny"]


def call(argv: list[str]) -> tuple[int, str]:
    import bellosc.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def bump_digit(text: str, start: int) -> str:
    """Increment, mod 10, the first digit at or after index `start`."""
    for i in range(start, len(text)):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    raise ValueError("no digit to change")


def fault_checks(tmp: Path) -> list[tuple[str, bool]]:
    results = []
    csv_path, json_path = tmp / "sample.csv", tmp / "trace.json"
    seed = workloads.sample_seed(SEED)
    call(["sample", "--steps", str(CSV_STEPS), "--seed", str(seed), "--output", str(csv_path)])
    call(["trace", "--steps", str(JSON_STEPS), "--format", "json", "--output", str(json_path)])

    def csv_problems(text: str) -> list[str]:
        csv_path.write_text(text, encoding="utf-8")
        return checks.check_sample_csv(str(csv_path), CSV_STEPS, seed, SEED)

    clean_csv = csv_path.read_text(encoding="utf-8")
    results.append(("clean CSV passes", csv_problems(clean_csv) == []))

    lines = clean_csv.splitlines(keepends=True)
    row = checks.chosen_rows(SEED, "sample", CSV_STEPS)[1]
    line = lines[row + 1]
    lines[row + 1] = bump_digit(line, line.index(",") + 1)  # inside the `sample` cell
    results.append(("one digit changed in one CSV cell is flagged", csv_problems("".join(lines)) != []))

    lines = clean_csv.splitlines(keepends=True)
    del lines[len(lines) // 2]
    results.append(("dropped CSV row is flagged", csv_problems("".join(lines)) != []))

    clean_json = json_path.read_text(encoding="utf-8")
    results.append(
        ("clean JSON passes", checks.check_trace_json(str(json_path), JSON_STEPS, SEED) == [])
    )
    payload = json.loads(clean_json)
    jrow = checks.chosen_rows(SEED, "trace", JSON_STEPS)[1]
    value = payload["columns"]["dx1"][jrow]
    payload["columns"]["dx1"][jrow] = float(bump_digit(repr(value), 2))
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    results.append(
        (
            "one digit changed in one JSON cell is flagged",
            checks.check_trace_json(str(json_path), JSON_STEPS, SEED) != [],
        )
    )

    rc, stdout = call(["verify", "--coupling", "0.3"])
    clean = checks.check_verify(stdout, rc)
    results.append(("clean verify passes", clean.problems == [] and clean.failed == 0))

    faked = []
    for line in stdout.splitlines():
        if line.startswith("INFO FAIL <P+P-> X-type"):
            head = line.replace("INFO FAIL", "INFO PASS", 1)
            line = head[: head.index("|diff|=")] + "|diff|=0.000e+00 tol=1.0e-08"
        faked.append(line)
    forged = checks.check_verify("\n".join(faked) + "\n", rc)
    results.append(("negative control reported as PASS is flagged", forged.failed > clean.failed))

    wrong_rc = checks.check_verify(stdout, 1)
    results.append(("exit code disagreeing with verdicts is flagged", wrong_rc.problems != []))

    dropped = "\n".join(stdout.splitlines()[1:]) + "\n"
    results.append(("missing check line is flagged", checks.check_verify(dropped, rc).problems != []))
    return results


def tiny_runs() -> list[tuple[str, bool]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    results = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                    "--size", "tiny",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = result["correct"] and set(result["metrics"]) == expected[trace]
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            results.append((f"tiny {name} --trace {trace} runs and checks out", ok))
    return results


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        results = fault_checks(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    results += tiny_runs()
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
