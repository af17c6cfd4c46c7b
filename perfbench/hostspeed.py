"""The host's speed, sampled on the benchmark's own CPU, to rescale job times.

On a shared host the speed of one CPU drifts by tens of percent within
seconds, with user CPU time drifting as much as wall time, so it is not
waiting for a core. A raw wall time then measures the neighbours as much as
the program. The benchmark therefore pins itself, its jobs and a sampler
process to one CPU. Every ``PERIOD_S`` the sampler wakes, takes the CPU from
whatever runs on it, times each part of one fixed reference sample and logs
the times. A timed interval is then reported as

    (wall time - the samples' share of it) * nominal / median sample time

where the sample time sums the parts that match the workload's kind of
work and ``nominal`` sums their ``NOMINAL_S``: seconds at the host speed at
which each part takes its nominal time. The sample is the benchmark's own
code, so a change to the program cannot move it.

    python3 perfbench/hostspeed.py LOG_FILE     # the sampler; runs until killed
                                                # or orphaned
"""
from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.1

_rng = random.Random(0)
_TEXT = "\n".join(
    ",".join(f"{_rng.uniform(0.0, 1e6):.6g}" for _ in range(120)) for _ in range(30)
)
_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
# 8 MB, past the private caches, like the Ward distance matrix.
_SWEEP = np.random.default_rng(1).standard_normal(1_000_000)


def _parse() -> None:
    rows = [[float(x) for x in line.split(",")] for line in _TEXT.splitlines()]
    [sum(col) for col in zip(*rows)]


def _matmul() -> None:
    np.sqrt(np.abs(_MATRIX @ _MATRIX)).argmin()


def _sweep() -> None:
    _SWEEP.min()


PARTS = {"parse": _parse, "matmul": _matmul, "sweep": _sweep}
# Nominal time of each part: about its median, taken while a job runs, on a
# 2-core Xeon container (2.1 GHz). The whole sample is kept near 1.5 ms,
# under a scheduler time slice, so that the job does not take the CPU back
# in the middle of it; a 4-8 ms sample tracked the drift about half as well.
NOMINAL_S = {"parse": 0.0008, "matmul": 0.0002, "sweep": 0.0007}


def sampler(log: Path) -> None:
    """Sample until killed, or until the benchmark that started it is gone."""
    parent = os.getppid()
    with log.open("w") as out:
        while os.getppid() == parent:
            start = time.monotonic()
            times = []
            for part in PARTS.values():
                t = time.monotonic()
                part()
                times.append(time.monotonic() - t)
            out.write(" ".join(map(repr, [start, time.monotonic(), *times])) + "\n")
            out.flush()
            time.sleep(PERIOD_S)


class HostSpeed:
    """The sampler process and the rescaling of intervals by its samples,
    using the sample parts named in ``parts``."""

    def __init__(self, log: Path, env: dict, parts: tuple[str, ...]):
        self.log = log
        self.columns = [2 + list(PARTS).index(part) for part in parts]
        self.nominal = sum(NOMINAL_S[part] for part in parts)
        log.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(log)], env=env)
        while not self.samples():
            self.check()
            time.sleep(0.01)

    def check(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"host speed sampler exited with {self.proc.returncode}")

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()

    def samples(self) -> list[tuple[float, float, float]]:
        """(start, end, time of the chosen parts) of every logged sample."""
        if not self.log.exists():
            return []
        lines = self.log.read_text().split("\n")[:-1]  # the last may be partial
        rows = [[float(x) for x in line.split()] for line in lines]
        return [(row[0], row[1], sum(row[c] for c in self.columns)) for row in rows]

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(rescaled seconds, median sample seconds) of the interval [t0, t1]
        of ``time.monotonic``. An interval too short to hold a sample uses
        the samples within a second of it."""
        self.check()
        samples = self.samples()
        inside = [s for s in samples if s[0] < t1 and s[1] > t0]
        busy = sum(min(end, t1) - max(start, t0) for start, end, _ in inside)
        near = inside or [s for s in samples if s[0] < t1 + 1.0 and s[1] > t0 - 1.0]
        ref = statistics.median(s[2] for s in near or samples[-3:])
        return (t1 - t0 - busy) * self.nominal / ref, ref


if __name__ == "__main__":
    sampler(Path(sys.argv[1]))
