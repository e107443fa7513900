"""One benchmark run in a fresh Python process: import, warm up, closed loop.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It times
``import bellosc.cli``, makes one small untimed call so lazy set-up inside
numpy and BLAS is done, then calls ``bellosc.cli.main(argv)`` in a closed loop
for about the time budget, running at least one iteration.  With
``--trace 1`` the first half of the budget runs untraced and the second half
traced, so the tracing overhead is measured in the same process.

Output checks run in the parent process, so the peak resident memory recorded
here is that of the program's own work.  Verify stdout is returned as text;
export files are hashed after every iteration, and the first iteration's files
are kept for the full check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count OpenBLAS is using in this process, if it can be asked."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_call(cli, call: workloads.Call) -> dict:
    """Run one CLI call with stdout and stderr captured; return its record."""
    for path in call.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(call.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    stdout = out.getvalue()
    return {
        "argv": list(call.argv),
        "rc": rc,
        "wall_s": wall,
        "stdout": stdout,
        "stderr": err.getvalue(),
        "stdout_bytes": len(stdout.encode("utf-8")),
        "outputs": {
            p: (sha256_file(p), os.path.getsize(p)) if os.path.isfile(p) else None
            for p in call.outputs
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--out-dir", required=True, help="directory for export files")
    ap.add_argument("--result", required=True, help="path of the JSON result file")
    ap.add_argument("--spans", default=None, help="path of the span dump (traced runs)")
    ap.add_argument("--src", required=True, help="the src directory bellosc must come from")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import bellosc.cli as cli

    import_s = time.perf_counter() - start
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bellosc imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.Workload(args.workload, args.seed, args.size, Path(args.out_dir))
    warmup = run_call(cli, workload.warmup())

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    untraced_budget = args.seconds / 2 if tracer else args.seconds

    # An iteration starts only if, at the median pace so far, it ends within
    # the budget, so a run lasts about --seconds whatever the iteration length.
    iterations = []
    loop_start = time.perf_counter()
    i = 0
    while True:
        n_traced = sum(it["traced"] for it in iterations)
        pace = statistics.median(it["wall_s"] for it in iterations) if iterations else 0.0
        finish = time.perf_counter() - loop_start + pace
        if not iterations or finish <= untraced_budget:
            traced = False
        elif tracer is not None and (n_traced == 0 or finish <= args.seconds):
            traced = True
        else:
            break
        calls = workload.iteration(i)
        if traced:
            tracer.iteration = i
            tracer.install()
        try:
            records = [run_call(cli, call) for call in calls]
        finally:
            if traced:
                tracer.uninstall()
        if i == 0 and workload.family == "export":
            kept = {}
            for rec in records:
                for path in list(rec["outputs"]):
                    if os.path.isfile(path):
                        first = str(Path(path).with_name("first-" + Path(path).name))
                        os.replace(path, first)
                        kept[path] = first
            for rec in records:
                rec["kept"] = {p: kept.get(p) for p in rec["outputs"]}
        iterations.append(
            {
                "index": i,
                "traced": traced,
                "wall_s": sum(r["wall_s"] for r in records),
                "calls": records,
            }
        )
        i += 1

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "import_s": import_s,
        "warmup_call_s": warmup["wall_s"],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "blas_threads": blas_threads(),
        "iterations": iterations,
    }
    if tracer is not None:
        metrics, absent = tracer.layer_metrics(sum(it["traced"] for it in iterations))
        result["layer_metrics"] = metrics
        result["absent"] = absent
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
