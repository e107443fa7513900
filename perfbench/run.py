"""bellosc benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-strong --seed 1 --seconds 20 --trace 0

A run makes its inputs from --seed, then:

1. starts one untimed fresh process that imports bellosc and makes a small
   call, so a cold page cache after idle does not land in the timings;
2. starts SETUP_PROBES fresh processes that each time ``import bellosc.cli``;
3. starts one fresh worker process (worker.py) that times its own import and
   runs the workload's closed loop in-process for --seconds, then
   SETUP_PROBES more import probes, so set-up is sampled at both ends of the
   run;
4. checks every output of the worker (checks.py) and prints a summary, the
   environment record and, as the last line, the result object.

With --trace 0 the result holds the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of the traced
half of the loop and trace.overhead_s.  The fail ratio is reported as
``failed`` over ``attempted``.  BLAS runs at the library default thread
count, and the count in effect is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
SPAN_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6  # fresh import probes before the worker, and again after it
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
PROBE = (
    "import time; s = time.perf_counter(); import bellosc.cli; "
    "print(time.perf_counter() - s)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and reaped by subprocess.run."""
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )


def warm_up() -> float:
    """Untimed fresh process: import and one small call; returns its wall time."""
    start = time.perf_counter()
    code = "import bellosc.cli as c, sys; sys.exit(c.main(%r))" % (
        ["verify", "--coupling", "0.3", "--cutoff", "6"],
    )
    proc = run_child([sys.executable, "-c", code], PROBE_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"warm-up process failed: {proc.stderr.strip()[-500:]}")
    return time.perf_counter() - start


def setup_probes(n: int) -> list[float]:
    times = []
    for _ in range(n):
        proc = run_child([sys.executable, "-c", PROBE], PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(worker: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_in_effect": worker.get("blas_threads"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def check_iterations(workload: workloads.Workload, iterations: list[dict]):
    """Check every call of every iteration; return (Outcome, {file: sha256})."""
    import checks

    outcome = checks.Outcome()
    shas: dict[str, str] = {}
    first: dict[str, tuple] = {}
    for it in iterations:
        for call in it["calls"]:
            if workload.family == "verify":
                result = checks.check_verify(call["stdout"], call["rc"])
                result.problems = [f"{' '.join(call['argv'])}: {p}" for p in result.problems]
                outcome.add(result)
                continue
            for path, info in call["outputs"].items():
                name = Path(path).name
                problems = []
                if call["rc"] != 0:
                    problems.append(f"exit code {call['rc']}: {call['stderr'].strip()}")
                if info is None:
                    problems.append("output file missing")
                elif it["index"] == 0:
                    first[path] = tuple(info)
                    shas[name] = info[0]
                    kept = call["kept"][path]
                    if name.endswith(".csv"):
                        steps = workloads.SAMPLE_STEPS[workload.size]
                        problems += checks.check_sample_csv(
                            kept, steps, workloads.sample_seed(workload.seed), workload.seed
                        )
                    else:
                        steps = workloads.TRACE_STEPS[workload.size]
                        problems += checks.check_trace_json(kept, steps, workload.seed)
                elif tuple(info) != first.get(path):
                    problems.append("differs from the first iteration's file")
                outcome.add(
                    checks.Outcome(
                        1, 1 if problems else 0, [f"{name}#{it['index']}: {p}" for p in problems]
                    )
                )
    return outcome, shas


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one bellosc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--size",
        choices=workloads.SIZES,
        default="full",
        help="'tiny' shrinks every call to exercise the harness quickly",
    )
    args = ap.parse_args(argv)
    if not (SRC / "bellosc" / "cli.py").is_file():
        print(f"error: no bellosc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir()
    try:
        warmup_s = warm_up()
        probe_times = setup_probes(SETUP_PROBES)
        result_path = tmp / "worker.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--out-dir", str(tmp),
            "--result", str(result_path), "--src", str(SRC),
        ]
        if args.trace:
            SPAN_DIR.mkdir(exist_ok=True)
            cmd += ["--spans", str(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        proc = run_child(cmd, WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker failed:\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            worker = json.load(fh)
        probe_times += setup_probes(SETUP_PROBES)
        workload = workloads.Workload(args.workload, args.seed, args.size, tmp)
        outcome, shas = check_iterations(workload, worker["iterations"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    iterations = worker["iterations"]
    untraced = [it["wall_s"] for it in iterations if not it["traced"]]
    setup_samples = probe_times + [worker["import_s"]]
    wall_q = quartiles(untraced)
    setup_q = quartiles(setup_samples)
    bytes_per_iteration = [
        sum(c["stdout_bytes"] + sum(o[1] for o in c["outputs"].values() if o) for c in it["calls"])
        for it in iterations
    ]

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print(
        f"wall_s median {wall_q[1]:.6f} q1 {wall_q[0]:.6f} q3 {wall_q[2]:.6f} "
        f"over {len(untraced)} untraced iterations of {len(iterations[0]['calls'])} calls"
    )
    print(
        f"setup_s median {setup_q[1]:.6f} q1 {setup_q[0]:.6f} q3 {setup_q[2]:.6f} "
        f"over {len(setup_samples)} fresh imports"
    )
    print(f"peak_rss_mb {worker['peak_rss_mb']:.3f}")
    print(
        f"fail_ratio {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / outcome.attempted:.6f} (ops_total {outcome.attempted})"
    )
    warm = {
        "warmup_process_s": warmup_s,
        "warmup_call_s": worker["warmup_call_s"],
        "first_iteration_s": iterations[0]["wall_s"],
    }
    print("warmup " + json.dumps(warm))
    print("environment " + json.dumps(environment(worker)))
    for name, sha in sorted(shas.items()):
        print(f"sha256 {name} {sha}")
    for problem in outcome.problems[:20]:
        print(f"problem {problem}")

    if args.trace:
        metrics = dict(worker["layer_metrics"])
        traced = [it["wall_s"] for it in iterations if it["traced"]]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced),
            "unit": "s",
        }
        metrics["cli.bytes_written"] = {
            "value": statistics.mean(bytes_per_iteration),
            "unit": "bytes",
        }
        print("absent " + json.dumps(worker["absent"]))
        print("unmeasured layers: model (scalar arithmetic; a wrapper would cost more than it)")
    else:
        metrics = {
            "wall_s": {"value": wall_q[1], "unit": "s"},
            "setup_s": {"value": setup_q[1], "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
