"""Workload definitions, campaign set-up, the timed CLI job and its output checks."""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from campaign import Shape, wide_config
from pmcpower.cli import TRAIN_FRACTION_DEFAULT
from pmcpower.dataset import Dataset, isolate_dataset, load_manifest, split_dataset
from pmcpower.errors import PmcPowerError
from pmcpower.model import PipelineConfig, load_model, predict_dataset, run_pipeline, save_model
from pmcpower.synth import generate, write_dataset_files

# Runs of the separate draw the eval-long model is trained on during set-up.
EVAL_TRAIN_RUNS = 200
# The eval-long model is trained with this top_k so that set-up, repeated
# for its median, stays within the run budget; at the default of 1000 one
# training takes about 7 s on 120 counters. The eval job's cost depends on
# the model only through its few selected features.
EVAL_TRAIN_TOP_K = 200
# Offset that separates the seed of the eval-long training draw from the
# seed of the campaign it is evaluated on.
EVAL_TRAIN_SEED_OFFSET = 1_000_003

# Files whose bytes must not change between repetitions of one job.
HASHED = {
    "train": ("model.json", "selection_trace.txt", "dendrogram.json", "eval.json"),
    "eval": ("eval.json", "predictions.csv"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the pmcpower subcommand: "train" or "eval"
    full: Shape
    smoke: Shape
    base_current_ma: float = 0.0
    # The host speed sample parts (hostspeed.py) that track the job's work:
    # training sweeps a distance matrix past the private caches; the eval
    # job mostly parses text, and the sweep only adds noise to its scale.
    reference: tuple[str, ...] = ("parse", "matmul", "sweep")


WORKLOADS = {
    w.name: w
    for w in (
        # 240 counters: candidate generation, Ward and selection dominate.
        Workload("train-wide", "train", Shape(40, 6, 300, 10), Shape(3, 6, 30, 3)),
        # 60 counters, 2000 runs: Ward and per-file ingest, few candidates.
        Workload("train-deep", "train", Shape(10, 6, 2000, 10), Shape(2, 6, 60, 3)),
        # The read path: parsing long traces, isolation and prediction only.
        Workload("eval-long", "eval", Shape(20, 6, 200, 60), Shape(2, 6, 30, 6),
                 base_current_ma=40.0, reference=("parse", "matmul")),
    )
}


@dataclass
class Prepared:
    """A campaign on disk (plus the model an eval job reads) and the time
    its generation and writing took."""

    manifest: Path
    model: Path | None
    generate_s: float
    write_s: float


def prepare(workload: Workload, shape: Shape, seed: int, out_dir: Path) -> Prepared:
    """Generate the seeded campaign, write it to ``out_dir`` and, for an eval
    workload, train the model the job reads."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    t0 = time.perf_counter()
    ds, truth = generate(wide_config(shape, seed))
    t1 = time.perf_counter()
    manifest = write_dataset_files(ds, out_dir / "campaign", truth, duration_s=shape.dumps)
    t2 = time.perf_counter()
    model_path = None
    if workload.command == "eval":
        train_shape = Shape(shape.factors, shape.per_family, EVAL_TRAIN_RUNS, shape.dumps)
        train_ds, _ = generate(wide_config(train_shape, seed + EVAL_TRAIN_SEED_OFFSET))
        train_ds, _ = isolate_dataset(train_ds, workload.base_current_ma)
        result = run_pipeline(train_ds, PipelineConfig(top_k=EVAL_TRAIN_TOP_K))
        model_path = out_dir / "model.json"
        save_model(result.model, model_path)
    return Prepared(manifest, model_path, t1 - t0, t2 - t1)


def cli_args(workload: Workload, prepared: Prepared, out_dir: Path) -> list[str]:
    """The ``pmcpower`` command line of the workload's job."""
    args = [workload.command]
    if workload.command == "eval":
        args += ["--model", str(prepared.model)]
    args += ["--manifest", str(prepared.manifest), "--output-dir", str(out_dir)]
    if workload.base_current_ma:
        args += ["--base-current", repr(workload.base_current_ma)]
    return args


def campaign_mb(manifest: Path) -> float:
    """Size of the manifest and every trace file it lists, in MB."""
    runs = json.loads(manifest.read_text())["runs"]
    paths = [manifest] + [manifest.parent / run[key] for run in runs
                          for key in ("counter_file", "power_file")]
    return sum(path.stat().st_size for path in paths) / 1e6


@dataclass
class JobRun:
    start: float  # time.monotonic at spawn
    end: float  # time.monotonic at exit
    returncode: int
    stderr: str
    peak_rss_kb: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


# Starts the job and reports its peak RSS on the last stderr line. Linux
# starts a child's peak RSS at its parent's RSS at spawn, so taken from the
# benchmark process itself it would read the benchmark's own peak whenever
# that is the larger; this launcher is small.
_LAUNCHER = """\
import os, resource, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
sys.stderr.write("\\npeak_rss_kb %d\\n" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def run_job(workload: Workload, prepared: Prepared, out_dir: Path, env: dict) -> JobRun:
    """Run the CLI job in its own process, through the launcher, and time
    it from spawn to exit."""
    argv = [sys.executable, "-I", "-S", "-c", _LAUNCHER, sys.executable, "-m", "pmcpower.cli", *cli_args(workload, prepared, out_dir)]
    t0 = time.monotonic()
    # Its own session, so that the job dies with the launcher if the run stops.
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    end = time.monotonic()
    stderr, _, rss = stderr.rstrip("\n").rpartition("\npeak_rss_kb ")
    return JobRun(t0, end, proc.returncode, stderr, int(rss) if rss.isdigit() else 0)


def file_hashes(workload: Workload, out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in HASHED[workload.command]
    }


def _predicted_column(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()[1:]
    return np.array([float(line.rsplit(",", 1)[1]) for line in lines])


def reference_parts(workload: Workload, prepared: Prepared) -> dict[str, Dataset]:
    """The campaign as the job reads it, keyed by the predictions file that
    covers each part; loaded once per run, untimed."""
    ds, _ = load_manifest(prepared.manifest)
    ds, _ = isolate_dataset(ds, workload.base_current_ma)
    if workload.command == "eval":
        return {"predictions.csv": ds}
    # The CLI splits with the default train fraction and seed 0.
    train, test = split_dataset(ds, TRAIN_FRACTION_DEFAULT, 0)
    return {"predictions_train.csv": train, "predictions_test.csv": test}


def check_job(
    workload: Workload, prepared: Prepared, job: JobRun, out_dir: Path,
    parts: dict[str, Dataset],
) -> list[str]:
    """Problems with one job's outputs; empty when the job is correct."""
    if job.returncode != 0:
        return [f"exit code {job.returncode}: {job.stderr.strip()[-300:]}"]
    model_path = out_dir / "model.json" if workload.command == "train" else prepared.model
    problems = []
    try:
        model = load_model(model_path)
        for name, ds in parts.items():
            if not np.array_equal(_predicted_column(out_dir / name), predict_dataset(model, ds)):
                problems.append(f"{name}: predictions differ from the reloaded model's")
    except (PmcPowerError, OSError, ValueError, IndexError) as exc:
        problems.append(f"outputs do not reload: {exc}")
    problems += [f"{name} missing" for name in HASHED[workload.command]
                 if not (out_dir / name).is_file()]
    return problems

