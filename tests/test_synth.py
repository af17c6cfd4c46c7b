import numpy as np
import pytest

from pmcpower.dataset import load_manifest, split_dataset
from pmcpower.errors import ConfigError
from pmcpower.model import (
    PipelineConfig,
    dataset_fingerprint,
    run_pipeline,
    train_all_pmc,
)
from pmcpower.numerics import pearson
from pmcpower.synth import (
    _csv_text,
    LatentFactor,
    NoiseCopy,
    Scale,
    SumOf,
    SynthConfig,
    collinear_config,
    generate,
    generate_instruction_mix,
    three_factor_config,
    verify_recovery,
    write_dataset_files,
)


def one_factor_config(n_runs=40, seed=0):
    return SynthConfig(
        n_runs=n_runs,
        factors=(LatentFactor("load", 10.0, 100.0),),
        coefficients={"load": 2.0},
        intercept=10.0,
        families={"load": (("load_ev", Scale(1.0)), ("load_x8", Scale(8.0)))},
        seed=seed,
    )


class TestGenerate:
    def test_scale_relation_perfectly_correlated(self):
        ds, _ = generate(one_factor_config())
        r = pearson(ds.column("load_ev"), ds.column("load_x8"))
        assert r == 1.0

    def test_sum_of_exact(self):
        ds, _ = generate(three_factor_config(n_runs=50, seed=1))
        total = ds.column("alu_total")
        parts = ds.column("alu_events") + ds.column("alu_beats")
        assert (total == parts).all()

    def test_noiseless_all_pmc_exact_fit(self):
        ds, _ = generate(three_factor_config(n_runs=60, seed=2))
        model = train_all_pmc(ds)
        assert model.train_meta["train_r_squared"] >= 1.0 - 1e-9

    def test_seed_determinism(self):
        cfg = three_factor_config(n_runs=30, noise_sigma=0.05, seed=9)
        ds1, _ = generate(cfg)
        ds2, _ = generate(cfg)
        assert dataset_fingerprint(ds1) == dataset_fingerprint(ds2)
        ds3, _ = generate(three_factor_config(n_runs=30, noise_sigma=0.05, seed=10))
        assert dataset_fingerprint(ds1) != dataset_fingerprint(ds3)

    def test_sum_before_definition_rejected(self):
        cfg = SynthConfig(
            n_runs=10,
            factors=(LatentFactor("f", 1.0, 2.0),),
            coefficients={"f": 1.0},
            intercept=0.0,
            families={"f": (("total", SumOf("a", "b")), ("a", Scale(1.0)))},
        )
        with pytest.raises(ConfigError, match="inconsistent family references"):
            generate(cfg)

    def test_noise_copy_stays_nonnegative(self):
        cfg = SynthConfig(
            n_runs=200,
            factors=(LatentFactor("f", 0.5, 1.0),),
            coefficients={"f": 1.0},
            intercept=0.0,
            families={"f": (("f_ev", Scale(1.0)), ("f_noisy", NoiseCopy(2.0)))},
            seed=3,
        )
        ds, _ = generate(cfg)
        assert (ds.column("f_noisy") >= 0).all()

    def test_ground_truth_covers_counters(self):
        ds, truth = generate(collinear_config(n_runs=30, seed=4))
        assert set(truth.factor_of_counter) == set(ds.counter_names)
        assert truth.scale_of_counter["mem_total"] == pytest.approx(9.0)
        assert truth.scale_of_counter["tex_noisy"] is None


class TestVerifyRecovery:
    def test_noiseless_recovery(self):
        ds, truth = generate(three_factor_config(n_runs=120, seed=5))
        train, _ = split_dataset(ds, 2 / 3, seed=7)
        result = run_pipeline(train, PipelineConfig(combined=False))
        report = verify_recovery(result, truth)
        assert report.clusters_pure
        assert report.factors_distinct
        assert report.coefficient_error is not None
        assert report.coefficient_error < 1e-6
        assert report.intercept_error < 1e-6

    def test_one_factor_single_cluster(self):
        ds, truth = generate(one_factor_config(n_runs=60, seed=6))
        result = run_pipeline(ds, PipelineConfig(combined=False))
        assert len(result.selection.significant) == 1
        report = verify_recovery(result, truth)
        assert report.clusters_pure and report.factors_distinct

    def test_noisy_recovery_maps_distinct_factors(self):
        ds, truth = generate(three_factor_config(n_runs=120, noise_sigma=0.05, seed=7))
        train, _ = split_dataset(ds, 2 / 3, seed=7)
        result = run_pipeline(train, PipelineConfig(combined=False))
        report = verify_recovery(result, truth)
        assert report.clusters_pure
        assert report.factors_distinct


class TestTraceEmission:
    def test_csv_writes_numpy_scalars_as_plain_floats(self):
        rows = [[np.float64(1.5), 0.1], [2.0, np.float64(1e-300)]]
        assert _csv_text(["a", "b"], rows) == "a,b\n1.5,0.1\n2.0,1e-300\n"

    def test_round_trip_through_ingestion(self, tmp_path):
        ds, truth = generate(three_factor_config(n_runs=12, seed=8))
        manifest = write_dataset_files(ds, tmp_path, truth)
        loaded, aux = load_manifest(manifest)
        assert aux is None
        assert loaded.counter_names == ds.counter_names
        assert loaded.rates == pytest.approx(ds.rates, rel=1e-9)
        assert loaded.target_current == pytest.approx(ds.target_current, rel=1e-12)
        assert (tmp_path / "ground_truth.json").is_file()

    def test_utilization_survives_round_trip(self, tmp_path):
        ds, _ = generate_instruction_mix(n_runs=10, seed=9)
        manifest = write_dataset_files(ds, tmp_path)
        loaded, _ = load_manifest(manifest)
        got = [m.utilization for m in loaded.meta]
        want = [m.utilization for m in ds.meta]
        assert got == pytest.approx(want)
