"""The benchmark's own test: every workload at smoke size, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result whose metric names and
units are exactly those declared in BENCHMARK.json, and that the benchmark
refuses to run (non-zero exit, no result) in a directory holding only
BENCHMARK.json and the benchmark's own files. Takes about 10 s on 2 cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(
        [*spec["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: not correct: {proc.stdout[-1500:]}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} or units differ")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload['name']} trace {trace}"
            proc = run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--size", "smoke")
            problems += check_result(proc, declared, label)
            print(f"{label}: exit {proc.returncode}", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    first = spec["workloads"][0]["name"]
    proc = run(bare, "--workload", first, "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("a directory without the sources still produced a result")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
