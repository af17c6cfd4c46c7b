import numpy as np
import pytest

from pmcpower.errors import FeatureError
from pmcpower.features import (
    base,
    build_matrix,
    drop_zero_variance,
    evaluate_feature,
    evaluate_spec_on_rates,
    generate_combined,
    invert_negative,
    inverted,
    parse_feature_spec,
    product,
    ratio,
)
from pmcpower.numerics import pearson

from conftest import make_dataset


class TestFeatureSpec:
    def test_canonical_forms(self):
        assert base("c1").canonical() == "base:c1"
        assert inverted("stall").canonical() == "inv:stall"
        assert product("b", "a").canonical() == "prod:a*b"
        assert ratio("num", "den").canonical() == "ratio:num/den"

    def test_product_canonicalizes_order(self):
        assert product("x", "y") == product("y", "x")

    def test_parse_round_trip(self):
        for text in ("base:c1", "inv:stall", "prod:a*b", "ratio:n/d"):
            assert parse_feature_spec(text).canonical() == text

    def test_parse_unknown_kind(self):
        with pytest.raises(FeatureError, match="log"):
            parse_feature_spec("log:c1")

    def test_evaluate_base(self):
        assert evaluate_spec_on_rates(base("c1"), {"c1": 300.0}) == 300.0

    def test_evaluate_inverted(self):
        assert evaluate_spec_on_rates(inverted("stall"), {"stall": 40.0}) == -40.0

    def test_evaluate_product(self):
        assert evaluate_spec_on_rates(product("a", "b"), {"a": 3.0, "b": 7.0}) == 21.0

    def test_evaluate_ratio(self):
        assert evaluate_spec_on_rates(ratio("a", "b"), {"a": 6.0, "b": 3.0}) == 2.0

    def test_zero_denominator_names_spec(self):
        with pytest.raises(FeatureError, match="ratio:a/b"):
            evaluate_spec_on_rates(ratio("a", "b"), {"a": 6.0, "b": 0.0})

    def test_missing_counter_named(self):
        with pytest.raises(FeatureError, match="missing counter c9"):
            evaluate_spec_on_rates(base("c9"), {"c1": 1.0})

    def test_evaluate_feature_on_record(self):
        ds = make_dataset({"c1": [300.0, 200.0]}, [1.0, 2.0])
        assert evaluate_feature(base("c1"), ds.records[0]) == 300.0


class TestDropZeroVariance:
    def test_constant_zero_dropped(self):
        ds = make_dataset(
            {"dead": [0.0, 0.0, 0.0], "live": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0]
        )
        retained, dropped = drop_zero_variance(ds)
        assert retained == ["live"]
        assert dropped == ["dead"]

    def test_constant_nonzero_dropped(self):
        ds = make_dataset(
            {"flat": [5.0, 5.0, 5.0], "live": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0]
        )
        retained, dropped = drop_zero_variance(ds)
        assert dropped == ["flat"]

    def test_varying_retained(self):
        ds = make_dataset({"live": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0])
        assert drop_zero_variance(ds) == (["live"], [])

    def test_all_dropped_errors(self):
        ds = make_dataset({"dead": [0.0, 0.0]}, [1.0, 2.0])
        with pytest.raises(FeatureError, match="no usable counters"):
            drop_zero_variance(ds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rate_names_counter(self, bad):
        ds = make_dataset(
            {"live": [1.0, 2.0, 3.0], "broken": [1.0, bad, 3.0]}, [1.0, 2.0, 3.0]
        )
        with pytest.raises(FeatureError, match="counter broken has a non-finite rate"):
            drop_zero_variance(ds)


class TestInvertNegative:
    def build(self, rng, n=60):
        y = rng.uniform(100, 500, n)
        cols = {
            "pos": y * 2.0 + rng.normal(0, 20, n) + 50,
            "neg_strong": 1200.0 - y + rng.normal(0, 20, n),
            "neg_weak": rng.uniform(0, 100, n) - 0.02 * y,
        }
        return make_dataset(cols, y)

    def test_classification(self, rng):
        ds = self.build(rng)
        y = ds.targets()
        # sanity on the construction itself
        assert pearson(ds.column("neg_strong"), y) < -0.9
        r_weak = pearson(ds.column("neg_weak"), y)
        assert -0.2 < r_weak < 0
        specs = {s.a: s for s in invert_negative(ds, alpha=0.05)}
        assert specs["pos"].kind == "base"
        assert specs["neg_strong"].kind == "inv"
        assert specs["neg_weak"].kind == "base"  # insignificant negative left alone

    def test_one_spec_per_retained_counter(self, rng):
        ds = self.build(rng)
        specs = invert_negative(ds)
        assert sorted(s.a for s in specs) == sorted(ds.counter_names)

    def test_inverted_correlation_flips_exactly(self, rng):
        ds = self.build(rng)
        y = ds.targets()
        for spec in invert_negative(ds):
            if spec.kind != "inv":
                continue
            raw = pearson(ds.column(spec.a), y)
            flipped = pearson(-ds.column(spec.a), y)
            assert flipped == -raw
            assert flipped > 0


class TestGenerateCombined:
    def test_candidate_combinatorics(self, rng):
        # 3 counters -> 3 products + 6 ratios; alpha=1 disables the gate
        cols = {k: rng.uniform(1, 10, 30) for k in ("a", "b", "c")}
        ds = make_dataset(cols, rng.uniform(1, 10, 30))
        specs = generate_combined(ds, [base(k) for k in ("a", "b", "c")],
                                  alpha=1.0, top_k=100)
        combined = [s for s in specs if s.kind in ("prod", "ratio")]
        assert len(combined) == 9
        assert len({s.canonical() for s in combined}) == 9

    def test_no_duplicate_product_orders(self, rng):
        cols = {k: rng.uniform(1, 10, 30) for k in ("a", "b", "c", "d")}
        ds = make_dataset(cols, rng.uniform(1, 10, 30))
        specs = generate_combined(ds, [base(k) for k in cols], alpha=1.0, top_k=1000)
        canon = [s.canonical() for s in specs]
        assert len(canon) == len(set(canon))
        prods = [s for s in specs if s.kind == "prod"]
        assert all(s.a <= s.b for s in prods)

    def test_product_target_ranks_first(self, rng):
        a = rng.uniform(1, 10, 80)
        b = rng.uniform(1, 10, 80)
        c = rng.uniform(1, 10, 80)
        ds = make_dataset({"a": a, "b": b, "c": c}, a * b)
        specs = generate_combined(ds, [base(k) for k in ("a", "b", "c")],
                                  alpha=0.05, top_k=1000)
        combined = [s for s in specs if s.kind in ("prod", "ratio")]
        assert combined[0] == product("a", "b")
        assert pearson(a * b, ds.targets()) > 0.999

    def test_ranking_matches_brute_force(self, rng):
        cols = {k: rng.uniform(1, 10, 50) for k in ("a", "b", "c")}
        y = 2 * cols["a"] * cols["b"] + cols["c"] + rng.normal(0, 1, 50)
        ds = make_dataset(cols, y)
        specs = generate_combined(ds, [base(k) for k in cols], alpha=1.0 - 1e-12,
                                  top_k=1000)
        got = [s.canonical() for s in specs if s.kind in ("prod", "ratio")]
        # independent ranking: score every pair combination directly
        candidates = {}
        names = sorted(cols)
        for i, p in enumerate(names):
            for q in names[i + 1:]:
                candidates[f"prod:{p}*{q}"] = cols[p] * cols[q]
        for p in names:
            for q in names:
                if p != q:
                    candidates[f"ratio:{p}/{q}"] = cols[p] / cols[q]
        expected = sorted(
            candidates, key=lambda k: (-abs(pearson(candidates[k], y)), k)
        )
        assert got == expected

    def test_near_zero_denominator_excluded(self, rng):
        cols = {
            "tiny": np.concatenate([[1e-15], rng.uniform(1, 2, 29)]),
            "big": rng.uniform(1, 10, 30),
        }
        ds = make_dataset(cols, rng.uniform(1, 10, 30))
        specs = generate_combined(ds, [base(k) for k in cols], alpha=1.0, top_k=100)
        kinds = {s.canonical() for s in specs}
        assert "ratio:big/tiny" not in kinds
        assert "ratio:tiny/big" in kinds

    def test_base_specs_always_retained(self, rng):
        cols = {k: rng.uniform(1, 10, 30) for k in ("a", "b")}
        ds = make_dataset(cols, rng.uniform(1, 10, 30))
        base_specs = [base("a"), inverted("b")]
        specs = generate_combined(ds, base_specs, alpha=0.001, top_k=5)
        assert specs[: len(base_specs)] == base_specs


class TestBuildMatrix:
    def test_shape(self, rng):
        ds = make_dataset({"a": [1, 2, 3], "b": [4, 5, 7]}, [1, 2, 3])
        matrix = build_matrix(ds, [base("a"), base("b")])
        assert matrix.values.shape == (3, 2)

    def test_column_lookup_by_spec(self):
        ds = make_dataset({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 7.0]}, [1, 2, 3])
        matrix = build_matrix(ds, [base("b"), product("a", "b")])
        assert matrix.index_of(product("b", "a")) == 1
        assert matrix.column(base("b")).tolist() == [4.0, 5.0, 7.0]
        with pytest.raises(ValueError, match="base:a"):
            matrix.index_of(base("a"))

    def test_duplicate_spec_rejected(self):
        ds = make_dataset({"a": [1, 2, 3]}, [1, 2, 3])
        with pytest.raises(FeatureError, match="duplicate canonical spec"):
            build_matrix(ds, [base("a"), base("a")])

    def test_zscore_view_frozen_example(self):
        ds = make_dataset({"a": [2.0, 4.0, 6.0]}, [1, 2, 3])
        matrix = build_matrix(ds, [base("a")])
        assert matrix.zscored()[:, 0] == pytest.approx([-1.2247448, 0.0, 1.2247448])

    def test_zero_variance_column_dropped(self, rng):
        ds = make_dataset({"a": [1.0, 2.0, 3.0], "b": [2.0, 2.0, 2.0]}, [1, 2, 3])
        matrix = build_matrix(ds, [base("a"), base("b")])
        assert [s.canonical() for s in matrix.specs] == ["base:a"]

    def test_exact_conversion_columns_identical_after_zscore(self, rng):
        beats = rng.uniform(10, 100, 40)
        ds = make_dataset({"bytes": beats / 8.0, "beats": beats}, rng.uniform(1, 5, 40))
        matrix = build_matrix(ds, [base("bytes"), base("beats")])
        z = matrix.zscored()
        assert np.abs(z[:, 0] - z[:, 1]).max() < 1e-9
