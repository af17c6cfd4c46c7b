"""Benchmark of the pmcpower CLI jobs on seeded synthetic campaigns written to disk.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run sets up its workload's campaign (median of several
set-ups), runs one untimed warm-up job on a tiny campaign, then repeats the
workload's CLI job, each in a fresh process, for ``--seconds``. Every job's
output is checked. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run alternates untraced jobs
with an in-process traced run of the same job and reports per-layer
metrics instead.
BLAS and OpenMP are pinned to one thread, and the run, its jobs and its
host speed sampler to one CPU. With ``--trace 0`` set-up and job times are
rescaled to a fixed host speed (``hostspeed.py``); per-layer times are
raw. Scratch files go under ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
MIN_TIMED_JOBS = 2  # fewer could not show that outputs repeat

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_mape_pct": "%",
    "test_r2": "R2",
    "ok_frac": "ratio",
}

# Counts taken at layer boundaries; "computed-" units mark values derived
# from sizes rather than observed.
COUNTS = {
    "dataset.files": "count",
    "dataset.rows": "count",
    "dataset.mb_read": "computed-MB",
    "features.counters_retained": "count",
    "features.counters_inverted": "count",
    "features.candidates_possible": "computed-count",
    "features.candidates_kept": "count",
    "features.matrix_columns": "count",
    "clustering.leaves": "count",
    "clustering.clusters": "count",
    "clustering.dist_mb": "computed-MB",
    "selection.clusters_examined": "count",
    "selection.clusters_accepted": "count",
    "selection.members_scored": "computed-count",
}
RATIOS = {
    # name: (numerator, base)
    "features.kept_ratio": ("features.candidates_kept", "features.candidates_possible"),
    "selection.accept_ratio": ("selection.clusters_accepted", "selection.clusters_examined"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny campaigns, for the benchmark's own test")
    return p.parse_args(argv)


def log(line: str) -> None:
    print(line, flush=True)


def environment(affinity: set[int]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(affinity),
        "pinned_cpu": min(affinity),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """One benchmark run of one workload: set-up, jobs, checks, metrics."""

    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.shape = self.workload.full if args.size == "full" else self.workload.smoke
        self.dir = WORK / self.workload.name
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed: set[str] = set()  # ids of jobs and replays with a problem
        self.outputs: dict | None = None  # quality and usage read from the first good job
        self.job_times: list[float] = []  # rescaled when self.speed is set
        self.raw_times: list[float] = []
        self.peak_rss_kb = 0  # of the timed jobs
        self.refs: list[float] = []  # median host speed sample per timed interval
        self.speed = None  # a HostSpeed sampler, for the end-to-end run only
        self.hashes: list[dict] = []

    def start(self):
        """Set up (median of SETUP_REPEATS), then one untimed warm-up job."""
        from workloads import prepare, reference_parts

        runs, self.setup_times = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            runs.append(prepare(self.workload, self.shape, self.args.seed, self.dir / "campaign"))
            self.setup_times.append(self.rescale(t0, time.monotonic()))
        self.prepared = runs[-1]
        self.setups = runs
        self.warm = prepare(self.workload, self.workload.smoke, self.args.seed,
                            self.dir / "warmup")
        self.job(-1)
        self.parts = reference_parts(self.workload, self.prepared)

    def job(self, index: int) -> Path | None:
        """Run, check and hash one CLI job; returns its output dir or None."""
        from workloads import check_job, file_hashes, reference_parts, run_job

        warmup = index < 0
        prepared = self.warm if warmup else self.prepared
        # One output path for every job: the model records it in its run config.
        out = self.dir / ("warmup-job" if warmup else "job")
        shutil.rmtree(out, ignore_errors=True)
        job_id = "warmup-job" if warmup else f"job-{index:03d}"
        run = run_job(self.workload, prepared, out, self.env)
        self.attempted += 1
        parts = reference_parts(self.workload, prepared) if warmup else self.parts
        problems = check_job(self.workload, prepared, run, out, parts)
        if problems:
            for problem in problems:
                self.fail(job_id, problem)
            return None
        if not warmup:
            self.job_times.append(self.rescale(run.start, run.end))
            self.raw_times.append(run.wall_s)
            self.peak_rss_kb = max(self.peak_rss_kb, run.peak_rss_kb)
            hashes = file_hashes(self.workload, out)
            if self.hashes and hashes != self.hashes[0]:
                self.fail(job_id, f"outputs differ from the first good job's: {hashes}")
                return None
            self.hashes.append(hashes)
            self.outputs = self.outputs or self.read_outputs(out)
        return out

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds of the interval, at the fixed host speed when sampled."""
        if self.speed is None:
            return t1 - t0
        seconds, ref = self.speed.scale(t0, t1)
        self.refs.append(ref)
        return seconds

    def close(self) -> None:
        if self.speed is not None:
            self.speed.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def fail(self, job_id: str, problem: str) -> None:
        self.failed.add(job_id)
        self.problems.append(f"{job_id}: {problem}")

    def measure(self) -> dict:
        """Untraced jobs for --seconds (at least MIN_TIMED_JOBS): end-to-end metrics."""
        from hostspeed import HostSpeed

        self.dir.mkdir(parents=True, exist_ok=True)
        self.speed = HostSpeed(self.dir / "hostspeed.log", self.env, self.workload.reference)
        self.start()
        t0 = time.perf_counter()
        i = 0
        while True:
            self.job(i)
            i += 1
            elapsed = time.perf_counter() - t0
            if i >= MIN_TIMED_JOBS and (
                not self.raw_times or elapsed + statistics.median(self.raw_times) > self.args.seconds
            ):
                break
        quality = self.outputs or dict.fromkeys(("mape", "r2", "usage"), float("nan"))
        job_s = statistics.median(self.job_times) if self.job_times else float("nan")
        log(f"job_s: median {job_s:.4f} s of {len(self.job_times)} timed jobs "
            f"(min {min(self.job_times, default=0):.4f}, max {max(self.job_times, default=0):.4f}) "
            f"at the fixed host speed; raw wall median "
            f"{statistics.median(self.raw_times or [float('nan')]):.4f} s, "
            f"host speed sample median {statistics.median(self.refs) * 1e3:.3f} ms")
        log(f"setup_s: median of {len(self.setup_times)} set-ups "
            f"(min {min(self.setup_times):.4f}, max {max(self.setup_times):.4f})")
        log(f"failed_frac = {len(self.failed)}/{self.attempted} jobs")
        log(f"pmc_usage_pct = {quality['usage']} % (reported as per-layer model.pmc_usage_pct)")
        return {
            "job_s": job_s,
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "test_mape_pct": quality["mape"],
            "test_r2": quality["r2"],
            "ok_frac": (self.attempted - len(self.failed)) / self.attempted,
        }

    def read_outputs(self, out: Path) -> dict:
        from pmcpower.model import load_model

        doc = json.loads((out / "eval.json").read_text())
        report = doc["test"] if self.workload.command == "train" else doc["eval"]
        meta = load_model(self.model_path(out)).train_meta
        return {
            "mape": report["mape_mean"],
            "r2": report["r_squared"],
            "usage": float(meta["pmc_usage_percent"]),
        }

    def model_path(self, out: Path) -> Path:
        return out / "model.json" if self.workload.command == "train" else self.prepared.model

    def trace(self) -> dict:
        """Alternate untraced jobs with traced replays: per-layer metrics."""
        from tracing import Tracer, layer_seconds, root_seconds, top_level_seconds
        from workloads import campaign_mb

        self.start()
        tracer = Tracer()
        layers, roots, inside, counts = [], [], [], {}
        t0 = time.perf_counter()
        i = 0
        while True:
            self.job(i)
            tracer.job = i
            counts = dict.fromkeys(COUNTS, 0)
            self.replay(i, tracer, counts)
            layers.append(layer_seconds(tracer, i))
            roots.append(root_seconds(tracer, i))
            inside.append(top_level_seconds(tracer, i))
            i += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (i + 1) / i > self.args.seconds:
                break
        tracer.write(WORK / f"spans-{self.workload.name}-{self.args.seed}.json")

        job_s = statistics.median(self.job_times) if self.job_times else float("nan")
        metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
        counts["dataset.mb_read"] = campaign_mb(self.prepared.manifest)
        metrics.update(counts)
        for name, (num, base) in RATIOS.items():
            metrics[name] = counts[num] / counts[base] if counts[base] else 0.0
        parse_s = metrics["dataset.parse_s"]
        metrics["dataset.parse_mb_per_s"] = counts["dataset.mb_read"] / parse_s if parse_s else 0.0
        metrics["cli.self_s"] = job_s - statistics.median(inside)
        metrics["trace.overhead_s"] = statistics.median(roots) - job_s
        metrics["synth.generate_s"] = statistics.median(s.generate_s for s in self.setups)
        metrics["synth.write_s"] = statistics.median(s.write_s for s in self.setups)
        metrics["model.pmc_usage_pct"] = self.outputs["usage"] if self.outputs else float("nan")
        self.report_roles(metrics, job_s)
        return metrics

    def replay(self, index: int, tracer, counts: dict) -> None:
        """Run the job in-process under the tracer, into the job's own output
        path, and check that it writes the same bytes as the untraced job."""
        from tracing import PIPELINE_SPANS, replay
        from workloads import cli_args, file_hashes

        replay_id = f"replay-{index:03d}"
        out = self.dir / "job"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        code = replay(cli_args(self.workload, self.prepared, out), tracer, counts)
        if code != 0:
            self.fail(replay_id, f"exit code {code}")
            return
        hashes = file_hashes(self.workload, out)
        if not self.hashes:
            self.fail(replay_id, "no good untraced job to compare with")
        elif hashes != self.hashes[0]:
            self.fail(replay_id, f"outputs differ from the untraced jobs': {hashes}")
        if self.workload.command == "eval" and tracer.names(index) & set(PIPELINE_SPANS):
            self.fail(replay_id, "the read path ran a pipeline stage")

    def report_roles(self, m: dict, job_s: float) -> None:
        heavy = m["clustering.ward_s"] + m["features.generate_combined_s"] + m["selection.select_s"]
        log(f"roles: ward+generate_combined+select {heavy:.3f} s = {heavy / job_s:.1%} of job_s; "
            f"generate_combined {m['features.generate_combined_s'] / job_s:.1%}; "
            f"parse {m['dataset.parse_s'] / job_s:.1%} of job_s {job_s:.3f} s")

    def finish(self, metrics: dict, units: dict) -> dict:
        for problem in self.problems:
            log(f"FAILED {problem}")
        if self.hashes:
            for name, digest in self.hashes[0].items():
                log(f"sha256 {name} {digest}")
        for name, value in metrics.items():
            log(f"{self.workload.name} {name} = {value} {units[name]}")
        return {
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


PER_LAYER_UNITS = {
    "dataset.parse_s": "s",
    "dataset.aggregate_s": "s",
    "dataset.isolate_s": "s",
    "dataset.split_s": "s",
    "dataset.parse_mb_per_s": "MB/s",
    "features.drop_zero_variance_s": "s",
    "features.invert_negative_s": "s",
    "features.generate_combined_s": "s",
    "features.build_matrix_s": "s",
    "features.kept_ratio": "ratio",
    "clustering.ward_s": "s",
    "clustering.cut_s": "s",
    "selection.select_s": "s",
    "selection.accept_ratio": "ratio",
    "numerics.final_fit_s": "s",
    "numerics.evaluate_s": "s",
    "model.run_pipeline_s": "s",
    "model.pipeline_glue_s": "s",
    "model.predict_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "model.pmc_usage_pct": "%",
    "cli.self_s": "s",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "trace.overhead_s": "s",
    **COUNTS,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pmcpower" / "__init__.py").is_file():
        print(f"error: no pmcpower sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    log("env " + json.dumps(environment(affinity), sort_keys=True))
    run = Run(args)
    try:
        if args.trace:
            metrics = run.trace()
            result = run.finish(metrics, PER_LAYER_UNITS)
        else:
            metrics = run.measure()
            result = run.finish(metrics, END_TO_END)
    finally:
        run.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
