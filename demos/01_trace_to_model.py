#!/usr/bin/env python3
"""End-to-end walkthrough: counter/power traces on disk -> trained model.

Synthesizes a small benchmark campaign as real CSV trace files, ingests them
through the parsing/aggregation path, isolates the component current, trains
the automatic model, and round-trips it through the model file format. The
campaign lives in a temporary directory that is removed when the demo ends.
"""
import tempfile
from pathlib import Path

from pmcpower.dataset import isolate_dataset, load_manifest, split_dataset
from pmcpower.model import (
    PipelineConfig,
    evaluate_model,
    load_model,
    predict_dataset,
    run_pipeline,
    save_model,
)
from pmcpower.selection import format_trace
from pmcpower.synth import generate, three_factor_config, write_dataset_files


def walkthrough(workdir: Path):
    print(f"=== 1. Synthesize a benchmark campaign under {workdir} ===")
    ds, truth = generate(three_factor_config(n_runs=90, noise_sigma=0.03, seed=7))
    manifest = write_dataset_files(ds, workdir, truth)
    print(f"{len(ds)} runs, {len(ds.counter_names)} counters -> {manifest}")
    print("counters:", ", ".join(ds.counter_names))

    print("\n=== 2. Ingest the CSV traces ===")
    loaded, _ = load_manifest(manifest)
    print(f"{loaded.rates.shape[0]} runs x {loaded.rates.shape[1]} counters of average rates")
    print(f"first run {loaded.meta[0].benchmark_name!r}: "
          f"total {loaded.total_current[0]:.1f} mA, "
          f"alu_events rate {loaded.column('alu_events')[0]:.1f} ev/s")

    print("\n=== 3. Isolate the component current (subtract base power) ===")
    # the generator emits already-isolated current, so base power is 0 here;
    # a real campaign would pass the measured sleep-workload current
    isolated, n_clamped = isolate_dataset(loaded, base_current=0.0)
    print(f"{n_clamped} runs clamped at 0 mA")

    print("\n=== 4. Split and train ===")
    train, test = split_dataset(isolated, train_fraction=2 / 3, seed=0)
    result = run_pipeline(train, PipelineConfig(combined=False))
    model = result.model
    print(f"{result.assignment.n_clusters} clusters over "
          f"{len(result.matrix.specs)} candidate features")
    print(format_trace(result.selection))

    print("=== 5. Evaluate ===")
    for name, split in (("train", train), ("test", test)):
        report = evaluate_model(model, split)
        print(f"{name}: R2 {report.r_squared:.4f}  "
              f"MAE {report.mae_mean:.2f} ({report.mae_median:.2f}) mA  "
              f"MAPE {report.mape_mean:.2f} ({report.mape_median:.2f}) %")

    print("\n=== 6. Persist and reuse ===")
    model_path = workdir / "model.json"
    save_model(model, model_path)
    reloaded = load_model(model_path)
    predicted = predict_dataset(reloaded, test)
    print(f"saved to {model_path}")
    print(f"prediction for {test.meta[0].benchmark_name!r}: "
          f"{predicted[0]:.1f} mA "
          f"(measured {test.target_current[0]:.1f} mA)")


def main():
    with tempfile.TemporaryDirectory(prefix="pmcpower-demo-") as workdir:
        walkthrough(Path(workdir))


if __name__ == "__main__":
    main()
