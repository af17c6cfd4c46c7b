#!/usr/bin/env python3
"""Why counter selection beats both naive extremes.

On a campaign whose counters are riddled with exact conversions, the
all-counters regression wastes features on redundant columns, and picking
the k best-correlated counters wastes the whole budget on copies of the
dominant activity. One representative per cluster matches the all-counters
accuracy at a quarter of the logging cost.
"""
from pmcpower.dataset import split_dataset
from pmcpower.model import (
    PipelineConfig,
    evaluate_model,
    run_pipeline,
    train_all_pmc,
    train_k_top,
    train_util_freq,
    predict_util_freq_dataset,
)
from pmcpower.numerics import evaluate
from pmcpower.synth import collinear_config, generate, generate_instruction_mix


def row(name, n_features, report):
    print(f"{name:<16s} {n_features:>8d} {report.r_squared:8.3f} "
          f"{report.mae_mean:9.2f} {report.mape_mean:8.2f}")


def main():
    print("=== Collinear campaign: 3 real activities behind 12 counters ===")
    ds, truth = generate(collinear_config(n_runs=150, noise_sigma=0.02, seed=3))
    train, test = split_dataset(ds, 2 / 3, seed=7)

    auto = run_pipeline(train, PipelineConfig(combined=False)).model
    all_pmc = train_all_pmc(train)
    k_top = train_k_top(train, len(auto.features))

    print(f"{'model':<16s} {'features':>8s} {'R2':>8s} {'MAE mA':>9s} {'MAPE %':>8s}")
    row("selected", len(auto.features), evaluate_model(auto, test))
    row("all counters", len(all_pmc.features), evaluate_model(all_pmc, test))
    row(f"top-{len(auto.features)} corr", len(k_top.features), evaluate_model(k_top, test))
    print("selected counters:", [s.canonical() for s in auto.features])
    print("top-k wasted its budget on:", [s.canonical() for s in k_top.features])

    print("\n=== Same utilization, different instruction mixes ===")
    mix, _ = generate_instruction_mix(n_runs=120, seed=11)
    mtrain, mtest = split_dataset(mix, 2 / 3, seed=7)
    counters_model = run_pipeline(mtrain, PipelineConfig(combined=False)).model
    uf_model = train_util_freq(mtrain)
    row("counters", len(counters_model.features), evaluate_model(counters_model, mtest))
    uf_report = evaluate(predict_util_freq_dataset(uf_model, mtest), mtest.target_current)
    row("util-freq", len(uf_model.slopes), uf_report)
    print("utilization alone cannot see what kind of work the device is doing.")


if __name__ == "__main__":
    main()
