import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcpower.dataset import Dataset, RunMeta, load_manifest, split_dataset
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
    GroundTruth,
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

from oracles import write_dataset_files_reference


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


# Names the csv writer must quote (comma, quote), names with spaces and
# non-ASCII names; the package forbids only "*", "/" and the empty name.
_NAME_CHARS = st.sampled_from(["a", "b", "_", ",", '"', " ", "\u00e9", "\u00b5", "\u8ba1"])
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, 0.1, 1.5, 5e-324, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e308),
)


@st.composite
def writable_campaigns(draw):
    """A small dataset the writer accepts, and the writer's other arguments."""
    names = draw(st.lists(st.text(_NAME_CHARS, min_size=1, max_size=5),
                          min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 4))
    cast = np.float64 if draw(st.booleans()) else float  # numpy-scalar rates
    rates = [[cast(draw(_VALUES)) for _ in names] for _ in range(n)]
    current = [cast(draw(_VALUES)) for _ in range(n)]
    utilization = st.one_of(st.none(), st.floats(0.0, 1.0))
    meta = [RunMeta(f"r\u00e9n {i}", "Other", draw(st.floats(1e-3, 1e9)), draw(utilization))
            for i in range(n)]
    ds = Dataset(tuple(names), rates, meta, current)
    truth = None
    if draw(st.booleans()):
        truth = GroundTruth({name: "f" for name in names}, {name: 1.0 for name in names},
                            {"f": 0.5}, 2.0)
    duration = draw(st.sampled_from([0, 1, 2, 61]))
    return ds, truth, duration


def _tree_bytes(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestWriterMatchesReference:
    """The writer that formats each run once against the frozen per-cell writer."""

    @settings(max_examples=150, deadline=None)
    @given(case=writable_campaigns())
    def test_same_bytes(self, case):
        ds, truth, duration = case
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp, "got"), Path(tmp, "want")
            write_dataset_files(ds, got, truth, duration_s=duration)
            write_dataset_files_reference(ds, want, truth, duration_s=duration)
            assert _tree_bytes(got) == _tree_bytes(want)

    @pytest.mark.parametrize("make", [
        lambda: generate(three_factor_config(n_runs=20, noise_sigma=0.05, seed=3)),
        lambda: generate_instruction_mix(n_runs=12, seed=4, noise_sigma=0.02),
        lambda: generate(collinear_config(n_runs=15, seed=5)),
    ])
    @pytest.mark.parametrize("duration", [0, 1, 10])
    def test_profiles(self, tmp_path, make, duration):
        ds, truth = make()
        write_dataset_files(ds, tmp_path / "got", truth, duration_s=duration)
        write_dataset_files_reference(ds, tmp_path / "want", truth, duration_s=duration)
        assert _tree_bytes(tmp_path / "got") == _tree_bytes(tmp_path / "want")


class TestWriterRejects:
    """A value no trace may hold is refused before any file is created."""

    @pytest.mark.parametrize("where, value, problem", [
        ("rate", np.nan, "run 3 (synth-0003): non-finite rate nan in column 'load_x8'"),
        ("rate", np.inf, "run 3 (synth-0003): non-finite rate inf in column 'load_x8'"),
        ("rate", -np.inf, "run 3 (synth-0003): non-finite rate -inf in column 'load_x8'"),
        ("rate", -2.5, "run 3 (synth-0003): negative rate -2.5 in column 'load_x8'"),
        ("current", np.nan, "run 3 (synth-0003): non-finite current nan in column 'current_ma'"),
        ("current", -1.0, "run 3 (synth-0003): negative current -1.0 in column 'current_ma'"),
    ])
    def test_names_run_and_column(self, tmp_path, where, value, problem):
        ds, _ = generate(one_factor_config(n_runs=8, seed=2))
        rates, current = ds.rates.copy(), ds.target_current.copy()
        if where == "rate":
            rates[3, 1] = value
            rates[5, 0] = -1.0  # a later run is not the one named
        else:
            current[3] = value
        bad = Dataset(ds.counter_names, rates, ds.meta, current)
        with pytest.raises(ConfigError) as info:
            write_dataset_files(bad, tmp_path / "out")
        assert str(info.value) == problem
        assert not (tmp_path / "out").exists()

    def test_rate_named_before_current(self, tmp_path):
        ds, _ = generate(one_factor_config(n_runs=8, seed=2))
        rates, current = ds.rates.copy(), ds.target_current.copy()
        rates[6, 0], current[1] = np.nan, np.nan
        with pytest.raises(ConfigError, match="run 6 .* rate nan in column 'load_ev'"):
            write_dataset_files(Dataset(ds.counter_names, rates, ds.meta, current), tmp_path)

    def test_negative_zero_is_written(self, tmp_path):
        ds, _ = generate(one_factor_config(n_runs=4, seed=2))
        rates = ds.rates.copy()
        rates[0, 0] = -0.0
        manifest = write_dataset_files(Dataset(ds.counter_names, rates, ds.meta,
                                               ds.target_current), tmp_path, duration_s=1)
        lines = (tmp_path / "runs/run-0000.counters.csv").read_text().splitlines()
        assert lines[2].startswith("1000.0,-0.0,")
        assert load_manifest(manifest)[0].rates[0, 0] == 0.0

    def test_negative_duration(self, tmp_path):
        ds, _ = generate(one_factor_config(n_runs=4, seed=2))
        with pytest.raises(ConfigError, match="duration_s must be >= 0, got -1"):
            write_dataset_files(ds, tmp_path / "out", duration_s=-1)
        assert not (tmp_path / "out").exists()
