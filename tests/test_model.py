import re

import numpy as np
import pytest

from pmcpower.dataset import split_dataset
from pmcpower.errors import ConfigError, DegenerateSeriesError, FeatureError, ModelFileError
from pmcpower.features import base, product
from pmcpower.model import (
    PipelineConfig,
    PowerModel,
    dataset_fingerprint,
    evaluate_model,
    load_model,
    model_to_dict,
    predict_dataset,
    predict_util_freq_dataset,
    run_pipeline,
    save_model,
    train_all_pmc,
    train_k_top,
    train_util_freq,
)
from pmcpower.numerics import evaluate
from pmcpower.synth import (
    generate,
    generate_instruction_mix,
    generate_util_freq,
    three_factor_config,
)

from conftest import make_dataset


class TestPredict:
    def test_linear_form(self):
        model = PowerModel((base("c1"),), (2.0,), 10.0)
        ds = make_dataset({"c1": [50.0, 100.0]}, [1.0, 2.0])
        assert predict_dataset(model, ds).tolist() == pytest.approx([110.0, 210.0])

    def test_missing_counter(self):
        model = PowerModel((base("c9"),), (2.0,), 10.0)
        ds = make_dataset({"c1": [50.0]}, [1.0])
        with pytest.raises(FeatureError, match="missing counter c9"):
            predict_dataset(model, ds)

    def test_negative_predictions_reported_as_is(self):
        model = PowerModel((base("c1"),), (-5.0,), 10.0)
        ds = make_dataset({"c1": [50.0]}, [1.0])
        assert predict_dataset(model, ds).tolist() == pytest.approx([-240.0])

    def test_perfect_fit_reproduces_targets(self, rng):
        f = rng.uniform(1, 10, 30)
        ds = make_dataset({"f": f}, 3 * f + 2)
        model = train_all_pmc(ds)
        pred = predict_dataset(model, ds)
        assert pred == pytest.approx(ds.target_current, rel=1e-6)

    def test_terms_added_in_model_order(self, rng):
        # Each prediction rounds as intercept + c1*f1 + c2*f2 + ... summed
        # left to right in Python floats.
        cols = {name: rng.uniform(1, 1e6, 25) for name in ("a", "b", "c")}
        ds = make_dataset(cols, rng.uniform(1, 10, 25))
        specs = (base("b"), product("a", "c"), base("a"))
        coefs = tuple(rng.normal(0, 1e3, 3).tolist())
        model = PowerModel(specs, coefs, 123.456)
        want = []
        for i in range(len(ds)):
            a, b, c = (float(cols[name][i]) for name in ("a", "b", "c"))
            total = 123.456
            for coef, value in zip(coefs, (b, a * c, a)):
                total += coef * value
            want.append(total)
        assert predict_dataset(model, ds).tolist() == want


class TestTrainPipeline:
    def test_noiseless_three_factor_recovery(self):
        ds, _ = generate(three_factor_config(n_runs=120, seed=2))
        train, test = split_dataset(ds, 2 / 3, seed=7)
        model = run_pipeline(train, PipelineConfig(combined=False)).model
        assert len(model.features) == 3
        assert model.train_meta["train_r_squared"] >= 0.999
        assert evaluate_model(model, test).r_squared >= 0.999

    def test_linear_mode_recorded_in_meta(self):
        ds, _ = generate(three_factor_config(n_runs=60, seed=3))
        model = run_pipeline(ds, PipelineConfig(combined=False)).model
        assert model.train_meta["config"]["combined"] is False

    def test_deterministic_serialization(self, tmp_path):
        ds, _ = generate(three_factor_config(n_runs=60, seed=4))
        config = PipelineConfig()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_model(run_pipeline(ds, config).model, path_a)
        save_model(run_pipeline(ds, config).model, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_feature_count_bounded_by_clusters(self):
        ds, _ = generate(three_factor_config(n_runs=80, seed=5))
        result = run_pipeline(ds, PipelineConfig())
        assert len(result.model.features) <= result.assignment.n_clusters

    @pytest.mark.parametrize("field", ["alpha", "cut_factor", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"field '{field}' must be a finite number"):
            PipelineConfig(**{field: value})

    def test_needs_enough_records(self):
        ds, _ = generate(three_factor_config(n_runs=120, seed=6))
        with pytest.raises(ConfigError, match="at least 10"):
            run_pipeline(ds.take(range(5)))


def _near_constant_target(rng):
    """40 runs of two uniform counters whose target is 0.1 mA in 39 runs
    and one unit in the last place above in one: constant up to rounding,
    though not bit for bit."""
    y = np.full(40, 0.1)
    y[17] = 0.1 + 1e-16
    return make_dataset({"a": rng.uniform(1, 2, 40), "b": rng.uniform(1, 2, 40)}, y)


_NEAR_CONSTANT_WORDS = ("degenerate series (zero variance): the target current is constant "
                        "up to rounding, 0.1 to 0.1000000000000001 mA in all 40 training runs")


class TestNearConstantTarget:
    def test_pipeline_rejects_it(self, rng):
        # An OLS fit with an intercept cannot have R^2 below 0; on this
        # target it came out near -3.5 before the variance gate.
        with pytest.raises(DegenerateSeriesError, match=re.escape(_NEAR_CONSTANT_WORDS)):
            run_pipeline(_near_constant_target(rng))


class TestBaselines:
    def test_all_pmc_superset_r2(self):
        ds, _ = generate(three_factor_config(n_runs=90, noise_sigma=0.05, seed=7))
        auto = run_pipeline(ds, PipelineConfig(combined=False)).model
        all_pmc = train_all_pmc(ds)
        assert all_pmc.train_meta["train_r_squared"] >= auto.train_meta["train_r_squared"] - 1e-10
        assert len(all_pmc.features) == 9

    def test_all_pmc_duplicate_counter_invariance(self, rng):
        f = rng.uniform(1, 10, 30)
        g = rng.uniform(1, 10, 30)
        y = 2 * f + g + rng.normal(0, 0.1, 30)
        plain = make_dataset({"f": f, "g": g}, y)
        doubled = make_dataset({"f": f, "f_copy": f, "g": g}, y)
        pred_plain = predict_dataset(train_all_pmc(plain), plain)
        pred_doubled = predict_dataset(train_all_pmc(doubled), doubled)
        assert pred_doubled == pytest.approx(pred_plain, rel=1e-8)

    def test_k_top_equals_all_pmc_at_limit(self, rng):
        f = rng.uniform(1, 10, 40)
        g = rng.uniform(1, 10, 40)
        y = 2 * f + g + rng.normal(0, 0.2, 40)
        ds = make_dataset({"f": f, "g": g}, y)
        k_top = train_k_top(ds, 2)
        all_pmc = train_all_pmc(ds)
        assert predict_dataset(k_top, ds) == pytest.approx(
            predict_dataset(all_pmc, ds), rel=1e-8
        )

    def test_k_top_one_picks_best_single(self, rng):
        y = rng.uniform(100, 500, 50)
        strong = y + rng.normal(0, 5, 50)
        weak = y + rng.normal(0, 200, 50)
        ds = make_dataset({"strong": strong, "weak": weak}, y)
        model = train_k_top(ds, 1)
        assert model.features == (base("strong"),)

    def test_k_top_constant_target_raises_pearsons_error(self, rng):
        ds = make_dataset({"a": rng.uniform(1, 2, 10), "b": rng.uniform(1, 2, 10)},
                          [5.0] * 10)
        with pytest.raises(DegenerateSeriesError, match="zero variance"):
            train_k_top(ds, 1)

    def test_k_top_names_the_constant_target(self, rng):
        ds = make_dataset({"a": rng.uniform(1, 2, 10), "b": rng.uniform(1, 2, 10)},
                          [5.0] * 10)
        with pytest.raises(DegenerateSeriesError, match=re.escape(
                "the target current is constant, 5.0 mA in all 10 training runs")):
            train_k_top(ds, 1)

    def test_k_top_rejects_a_target_constant_up_to_rounding(self, rng):
        ds = _near_constant_target(rng)
        with pytest.raises(DegenerateSeriesError, match=re.escape(_NEAR_CONSTANT_WORDS)):
            train_k_top(ds, 1)

    def test_k_top_validates_k(self, rng):
        ds = make_dataset({"a": rng.uniform(1, 2, 10)}, rng.uniform(1, 2, 10))
        with pytest.raises(ConfigError):
            train_k_top(ds, 0)
        with pytest.raises(ConfigError):
            train_k_top(ds, 5)


class TestUtilFreq:
    def test_exact_recovery(self):
        ds = generate_util_freq({1e6: 100.0, 2e6: 200.0}, 50.0, n_per_freq=20, seed=8)
        model = train_util_freq(ds)
        assert model.slopes[1e6] == pytest.approx(100.0, rel=1e-8)
        assert model.slopes[2e6] == pytest.approx(200.0, rel=1e-8)
        assert model.intercept == pytest.approx(50.0, rel=1e-8)

    def test_single_frequency_degenerates_to_simple_regression(self):
        ds = generate_util_freq({5e6: 120.0}, 30.0, n_per_freq=25, seed=9)
        model = train_util_freq(ds)
        assert set(model.slopes) == {5e6}
        assert model.slopes[5e6] == pytest.approx(120.0, rel=1e-8)

    def test_missing_utilization_rejected(self):
        ds = make_dataset({"c": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="utilization"):
            train_util_freq(ds)

    def test_predict_unknown_frequency(self):
        ds = generate_util_freq({1e6: 100.0}, 50.0, n_per_freq=5, seed=10)
        model = train_util_freq(ds)
        other = generate_util_freq({2e6: 100.0}, 50.0, n_per_freq=5, seed=10)
        with pytest.raises(ConfigError, match="frequency"):
            predict_util_freq_dataset(model, other)

    def test_instruction_mix_defeats_utilization_model(self):
        ds, _ = generate_instruction_mix(n_runs=90, seed=11)
        train, test = split_dataset(ds, 2 / 3, seed=1)
        model = train_util_freq(train)
        report = evaluate(predict_util_freq_dataset(model, test), test.target_current)
        assert report.mape_mean > 5.0  # same utilization, very different mixes


class TestPersistence:
    def build_model(self):
        return PowerModel(
            (base("c1"), product("a", "b")),
            (2.5, -0.125),
            10.75,
            {"trainer": "unit-test", "train_r_squared": 0.5},
        )

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "model.json"
        model = self.build_model()
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.features == model.features
        assert loaded.coefficients == model.coefficients
        assert loaded.intercept == model.intercept
        assert loaded.train_meta == model.train_meta

    def test_round_trip_bytes_stable(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_model(self.build_model(), path_a)
        save_model(load_model(path_a), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_full_precision_floats(self, tmp_path):
        model = PowerModel((base("c"),), (0.1 + 0.2,), 1 / 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.coefficients[0] == model.coefficients[0]
        assert loaded.intercept == model.intercept

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        doc = model_to_dict(self.build_model())
        doc["schema_version"] = 99
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ModelFileError, match="schema version"):
            load_model(path)

    def test_schema_version_true_is_not_1(self, tmp_path):
        path = tmp_path / "model.json"
        doc = model_to_dict(self.build_model())
        doc["schema_version"] = True
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ModelFileError, match="schema version True"):
            load_model(path)

    def test_unknown_feature_kind_named(self, tmp_path):
        path = tmp_path / "model.json"
        doc = model_to_dict(self.build_model())
        doc["features"][0] = "sqrt:c1"
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ModelFileError, match="sqrt"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, index, value, problem",
        [("coefficients", 1, float("nan"), "coefficient of 'prod:a*b' must be a finite number, got nan"),
         ("coefficients", 0, float("-inf"), "coefficient of 'base:c1' must be a finite number, got -inf"),
         ("intercept", None, float("inf"), "intercept must be a finite number, got inf"),
         ("intercept", None, 10**400, "malformed model document"),
         ("coefficients", 0, True, "coefficient of 'base:c1' must be a finite number, got True"),
         ("coefficients", 1, "1.5", "coefficient of 'prod:a*b' must be a finite number, got '1.5'"),
         ("intercept", None, False, "intercept must be a finite number, got False")],
        ids=["nan-coefficient", "inf-coefficient", "inf-intercept", "overflowing-intercept",
             "true-coefficient", "string-coefficient", "false-intercept"],
    )
    def test_non_finite_value_named(self, tmp_path, key, index, value, problem):
        path = tmp_path / "model.json"
        doc = model_to_dict(self.build_model())
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ModelFileError) as info:
            load_model(path)
        assert problem in str(info.value)

    @pytest.mark.parametrize("train_meta", [["trainer", "auto"], None, "auto", 3])
    def test_train_meta_not_an_object_named(self, tmp_path, train_meta):
        path = tmp_path / "model.json"
        doc = model_to_dict(self.build_model())
        doc["train_meta"] = train_meta
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(ModelFileError) as info:
            load_model(path)
        assert str(info.value) == (
            f"model file {path}: 'train_meta' must be a JSON object, got {train_meta!r}")

    def test_counters_of_the_features(self):
        assert self.build_model().counters() == {"c1", "a", "b"}

    def test_fingerprint_sensitivity(self, rng):
        ds1 = make_dataset({"a": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0])
        ds2 = make_dataset({"a": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.1])
        assert dataset_fingerprint(ds1) != dataset_fingerprint(ds2)
        assert dataset_fingerprint(ds1) == dataset_fingerprint(ds1)
