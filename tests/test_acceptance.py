"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
emitted outside the capture so they always appear.
"""
import json
import time

import numpy as np

from pmcpower.cli import compute_energy_mws, main
from pmcpower.dataset import split_dataset
from pmcpower.features import invert_negative
from pmcpower.model import (
    PipelineConfig,
    evaluate_model,
    run_pipeline,
    train_all_pmc,
    train_k_top,
    train_util_freq,
    predict_util_freq_dataset,
)
from pmcpower.numerics import evaluate, ols_fit, pearson, pearson_p_value
from pmcpower.clustering import ward_cluster
from pmcpower.synth import (
    collinear_config,
    generate,
    generate_instruction_mix,
    generate_util_freq,
    three_factor_config,
    verify_recovery,
    write_dataset_files,
)

from oracles import dendrogram_leafsets, normal_equation_fit, ward_brute_force

LINEAR = PipelineConfig(combined=False)


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_synthetic_recovery(capsys):
    started = time.perf_counter()
    ds, truth = generate(three_factor_config(n_runs=120, seed=42))
    train, test = split_dataset(ds, 2 / 3, seed=7)
    result = run_pipeline(train, LINEAR)
    elapsed = time.perf_counter() - started

    families_colocated = True
    for factor in ("alu", "mem", "tex"):
        ids = {
            int(result.assignment.cluster_of[i])
            for i, spec in enumerate(result.matrix.specs)
            if truth.factor_of_counter[spec.a] == factor
        }
        families_colocated &= len(ids) == 1
    n_accepted = len(result.selection.significant)
    test_r2 = evaluate_model(result.model, test).r_squared

    ok = (
        families_colocated
        and result.assignment.n_clusters == 3
        and n_accepted == 3
        and test_r2 >= 0.999
        and elapsed < 5.0
    )
    report(
        capsys, 1, "synthetic recovery", ok,
        f"clusters={result.assignment.n_clusters} accepted={n_accepted} "
        f"test_r2={test_r2:.6f} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_noise_robustness(capsys):
    good = 0
    worst_mape = 0.0
    for seed in range(20):
        ds, truth = generate(three_factor_config(n_runs=120, noise_sigma=0.05, seed=seed))
        train, test = split_dataset(ds, 2 / 3, seed=seed)
        result = run_pipeline(train, LINEAR)
        mape = evaluate_model(result.model, test).mape_mean
        recovery = verify_recovery(result, truth)
        if mape <= 6.0 and recovery.clusters_pure and recovery.factors_distinct:
            good += 1
        worst_mape = max(worst_mape, mape)
    ok = good >= 19  # 95% of 20 seeds
    report(capsys, 2, "noise robustness", ok,
           f"seeds_ok={good}/20 worst_mape={worst_mape:.2f}%")


def test_criterion_03_ols_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    worst_coef = 0.0
    worst_pred = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        rank_deficient = trial % 3 == 0 and p >= 2
        if rank_deficient:
            X[:, -1] = X[:, 0] * 2.0  # exact collinearity
        y = rng.normal(size=n)
        fit = ols_fit(X, y)
        beta = normal_equation_fit(X, y)
        if rank_deficient:
            pred_mine = fit.intercept + X @ fit.coefficients
            pred_ref = beta[0] + X @ beta[1:]
            scale = max(1.0, float(np.abs(pred_ref).max()))
            worst_pred = max(worst_pred, float(np.abs(pred_mine - pred_ref).max()) / scale)
        else:
            scale = max(1.0, float(np.abs(beta).max()))
            got = np.concatenate([[fit.intercept], fit.coefficients])
            worst_coef = max(worst_coef, float(np.abs(got - beta).max()) / scale)
    ok = worst_coef <= 1e-8 and worst_pred <= 1e-8
    report(capsys, 3, "ols oracle equivalence", ok,
           f"100 instances, worst_coef={worst_coef:.2e} worst_pred={worst_pred:.2e}")


def test_criterion_04_ward_oracle_equivalence(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    sequences_equal = True
    for _ in range(50):
        n_samples = int(rng.integers(1, 7))
        n_features = int(rng.integers(2, 9))
        z = rng.normal(size=(n_samples, n_features))
        names = [f"f{i}" for i in range(n_features)]
        mine = dendrogram_leafsets(ward_cluster(z, names, check_normalized=False))
        reference = ward_brute_force(z, names)
        for (gl, gr, gh), (el, er, eh) in zip(mine, reference):
            sequences_equal &= {gl, gr} == {el, er}
            worst = max(worst, abs(gh - eh) / max(abs(eh), 1e-12))
    ok = sequences_equal and worst <= 1e-9
    report(capsys, 4, "ward oracle equivalence", ok,
           f"50 seeds, sequences_equal={sequences_equal} worst_height_err={worst:.2e}")


def test_criterion_05_p_value_calibration(capsys):
    p_crit = pearson_p_value(0.6319, 10)
    zeros_ok = all(pearson_p_value(0.0, n) == 1.0 for n in (3, 10, 100, 10_000))
    ok = abs(p_crit - 0.050) <= 0.001 and zeros_ok
    report(capsys, 5, "p-value calibration", ok,
           f"p(0.6319, 10)={p_crit:.6f} p(r=0)==1: {zeros_ok}")


# Reference rows (current mA, latency ms, expected energy mWs): five image
# classifier variants, each measured at a low/mid/high clock level.
INFERENCE_TABLE = [
    (242.39, 14.81, 13.86), (454.60, 8.45, 14.82), (659.11, 6.35, 16.15),
    (257.81, 20.17, 20.08), (495.86, 11.45, 21.92), (694.50, 8.62, 23.12),
    (295.06, 27.11, 30.88), (553.73, 15.24, 32.58), (770.68, 11.54, 34.34),
    (317.73, 38.21, 46.87), (596.36, 20.63, 47.48), (834.22, 16.42, 52.88),
    (330.52, 61.54, 78.51), (626.42, 35.19, 85.08), (889.51, 26.99, 92.68),
]
SUPPLY_VOLTAGE = 3.86  # single-parameter least-squares fit over the table


def test_criterion_06_energy_table_reproduction(capsys):
    worst = 0.0
    for current, latency, expected in INFERENCE_TABLE:
        energy = compute_energy_mws(current, SUPPLY_VOLTAGE, latency)
        worst = max(worst, abs(energy - expected) / expected)
    ok = worst <= 0.015
    report(capsys, 6, "energy table reproduction", ok,
           f"15 rows at {SUPPLY_VOLTAGE} V, worst_rel_err={worst * 100:.3f}%")


def test_criterion_07_util_freq_baseline(capsys):
    slopes = {251e6: 100.0, 351e6: 200.0, 471e6: 300.0}
    ds = generate_util_freq(slopes, 50.0, n_per_freq=40, seed=5)
    fitted = train_util_freq(ds)
    slope_err = max(abs(fitted.slopes[f] - s) / s for f, s in slopes.items())
    intercept_err = abs(fitted.intercept - 50.0) / 50.0
    exact = slope_err <= 1e-8 and intercept_err <= 1e-8

    mix, _ = generate_instruction_mix(n_runs=120, seed=11)
    train, test = split_dataset(mix, 2 / 3, seed=7)
    auto_mape = evaluate_model(run_pipeline(train, LINEAR).model, test).mape_mean
    uf = train_util_freq(train)
    uf_mape = evaluate(predict_util_freq_dataset(uf, test), test.target_current).mape_mean
    directional = uf_mape >= 2.0 * auto_mape

    ok = exact and directional
    report(capsys, 7, "utilization-frequency baseline", ok,
           f"slope_err={slope_err:.2e} intercept_err={intercept_err:.2e} "
           f"uf_mape={uf_mape:.2f}% auto_mape={auto_mape:.4g}%")


def test_criterion_08_baseline_ordering(capsys):
    ds, _ = generate(collinear_config(n_runs=150, noise_sigma=0.02, seed=3))
    train, test = split_dataset(ds, 2 / 3, seed=7)

    auto = run_pipeline(train, LINEAR).model
    auto_mape = evaluate_model(auto, test).mape_mean

    all_pmc = train_all_pmc(train)
    all_pmc_mape = evaluate_model(all_pmc, test).mape_mean

    ktop = train_k_top(train, len(auto.features))
    ktop_mape = evaluate_model(ktop, test).mape_mean

    ok = (
        auto_mape <= all_pmc_mape + 1.0
        and len(auto.features) <= len(all_pmc.features) / 3
        and ktop_mape >= auto_mape
    )
    report(capsys, 8, "baseline ordering", ok,
           f"auto={auto_mape:.2f}% ({len(auto.features)} feats) "
           f"all_pmc={all_pmc_mape:.2f}% ({len(all_pmc.features)} feats) "
           f"ktop={ktop_mape:.2f}%")


def test_criterion_09_cli_determinism(capsys, tmp_path):
    ds, truth = generate(three_factor_config(n_runs=60, seed=9))
    manifest = write_dataset_files(ds, tmp_path / "data", truth)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "manifest": str(manifest),
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }))
    tracked = ("model.json", "eval.json", "summary.txt", "selection_trace.txt",
               "predictions_train.csv", "predictions_test.csv", "dendrogram.json")
    assert main(["train", "--config", str(config_path)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes() for name in tracked}
    assert main(["train", "--config", str(config_path)]) == 0
    second = {name: (tmp_path / "out" / name).read_bytes() for name in tracked}
    identical = first == second
    report(capsys, 9, "cli determinism", identical,
           f"{len(tracked)} artifacts byte-compared")


def test_criterion_10_inversion_correctness(capsys):
    rng = np.random.default_rng(55)
    n = 80
    y = rng.uniform(100, 600, n)
    cols = {
        "active": 2.0 * y + rng.normal(0, 30, n),
        "stall_a": 900.0 - y + rng.normal(0, 30, n),
        "stall_b": 1e4 / y + rng.normal(0, 3, n),
        "noise": rng.uniform(0, 100, n),
    }
    from conftest import make_dataset

    ds = make_dataset(cols, y)
    specs = invert_negative(ds, alpha=0.05)
    inverted_specs = [s for s in specs if s.kind == "inv"]
    signs_ok = True
    magnitude_ok = True
    for spec in inverted_specs:
        raw = pearson(ds.column(spec.a), ds.target_current)
        flipped = pearson(-ds.column(spec.a), ds.target_current)
        signs_ok &= flipped > 0.0
        magnitude_ok &= flipped == -raw  # bit-exact flip
    ok = len(inverted_specs) >= 2 and signs_ok and magnitude_ok
    report(capsys, 10, "inversion correctness", ok,
           f"{len(inverted_specs)} inverted, positive_r={signs_ok} "
           f"|r|_preserved_exactly={magnitude_ok}")
