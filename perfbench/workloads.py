"""Workload definitions: the CLI call sequences each benchmark workload makes.

A workload is a closed loop with one caller: each iteration is a fixed-size
sequence of ``bellosc.cli.main(argv)`` calls, and each call starts when the
previous one returns.  Inputs are a pure function of (workload, seed, size,
iteration), so the same seed gives the same calls.  This module imports
nothing from bellosc; the worker and the checker share it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("verify-strong", "verify-default", "export")
SIZES = ("full", "tiny")

# verify-default draws each coupling uniformly from this range; every g in it
# passes all 44 checks at the default cutoff (worst evolution deviation
# 2.7e-9 at g = 0.5 against the 1e-8 tolerance).
DEFAULT_COUPLING_RANGE = (0.05, 0.45)
DEFAULT_CALLS_PER_ITERATION = {"full": 5, "tiny": 2}

STRONG_ARGV = {
    "full": ["verify", "--coupling", "1.5", "--cutoff", "24"],
    "tiny": ["verify", "--coupling", "1.5", "--cutoff", "12"],
}
SAMPLE_STEPS = {"full": 1_000_000, "tiny": 2_000}
TRACE_STEPS = {"full": 100_000, "tiny": 500}

# One small call per workload family, run untimed before the loop so lazy
# set-up inside numpy and BLAS has finished when timing starts.
WARMUP_ARGV = {
    "verify": ["verify", "--coupling", "0.3", "--cutoff", "6"],
    "export": ["trace", "--steps", "200", "--format", "json", "--output", "-"],
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the files it must write."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


def sample_seed(seed: int) -> int:
    """The `sample --seed` value for a benchmark seed (Philox takes 0 <= s < 2**64)."""
    return seed % 2**64


def couplings(seed: int):
    """Endless seeded stream of verify-default couplings, one per call."""
    rng = random.Random(f"verify-default:{seed}")
    lo, hi = DEFAULT_COUPLING_RANGE
    while True:
        yield rng.uniform(lo, hi)


class Workload:
    """Call sequences of one workload; ``iteration(i)`` gives the calls of loop pass i."""

    def __init__(self, name: str, seed: int, size: str, out_dir: Path):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
        self.name, self.seed, self.size = name, seed, size
        self.out_dir = Path(out_dir)
        self._couplings = couplings(seed)

    @property
    def family(self) -> str:
        return "export" if self.name == "export" else "verify"

    def warmup(self) -> Call:
        return Call(tuple(WARMUP_ARGV[self.family]))

    def iteration(self, i: int) -> list[Call]:
        if self.name == "verify-strong":
            return [Call(tuple(STRONG_ARGV[self.size]))]
        if self.name == "verify-default":
            n = DEFAULT_CALLS_PER_ITERATION[self.size]
            return [
                Call(("verify", "--coupling", repr(next(self._couplings)))) for _ in range(n)
            ]
        csv_out, json_out = str(self.out_dir / "sample.csv"), str(self.out_dir / "trace.json")
        return [
            Call(
                (
                    "sample", "--steps", str(SAMPLE_STEPS[self.size]),
                    "--seed", str(sample_seed(self.seed)), "--output", csv_out,
                ),
                (csv_out,),
            ),
            Call(
                (
                    "trace", "--steps", str(TRACE_STEPS[self.size]),
                    "--format", "json", "--output", json_out,
                ),
                (json_out,),
            ),
        ]
