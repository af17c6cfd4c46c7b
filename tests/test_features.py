import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcpower import features, numerics
from pmcpower.errors import DegenerateSeriesError, FeatureError, PmcPowerError
from pmcpower.features import (
    FeatureMatrix,
    base,
    build_matrix,
    drop_zero_variance,
    feature_column,
    generate_combined,
    invert_negative,
    inverted,
    parse_feature_spec,
    product,
    ratio,
)
from pmcpower.numerics import pearson, pearson_p_value

from conftest import make_dataset, wide_dataset
from oracles import build_matrix_reference, generate_combined_reference


def outcome(fn, *args, **kwargs):
    """The spec list ``fn`` returns, or the type and message it raises."""
    try:
        return fn(*args, **kwargs)
    except (PmcPowerError, LookupError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(ds, base_specs, **kwargs):
    # The package must not warn; the reference's columns over- or underflow
    # with numpy's warning where the inputs are near 1e+-160.
    got = outcome(generate_combined, ds, base_specs, **kwargs)
    with np.errstate(all="ignore"):
        assert got == outcome(generate_combined_reference, ds, base_specs, **kwargs)
    return got


def n_candidates(ds):
    names = ds.counter_names
    m = len(names)
    safe = sum(
        not np.min(np.abs(ds.column(b))) < features.RATIO_DENOM_EPS * np.max(np.abs(ds.column(b)))
        for b in names
    )
    return m * (m - 1) // 2 + safe * (m - 1)


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

    @staticmethod
    def evaluate(spec, **rates):
        ds = make_dataset({name: [value] for name, value in rates.items()}, [1.0])
        return feature_column(spec, ds).tolist()

    def test_evaluate_base(self):
        assert self.evaluate(base("c1"), c1=300.0) == [300.0]

    def test_evaluate_inverted(self):
        assert self.evaluate(inverted("stall"), stall=40.0) == [-40.0]

    def test_evaluate_product(self):
        assert self.evaluate(product("a", "b"), a=3.0, b=7.0) == [21.0]

    def test_evaluate_ratio(self):
        assert self.evaluate(ratio("a", "b"), a=6.0, b=3.0) == [2.0]

    def test_zero_denominator_names_spec(self):
        with pytest.raises(FeatureError, match="ratio:a/b"):
            self.evaluate(ratio("a", "b"), a=6.0, b=0.0)

    def test_missing_counter_named(self):
        with pytest.raises(FeatureError, match="missing counter c9"):
            self.evaluate(base("c9"), c1=1.0)

    def test_feature_column_on_dataset(self):
        ds = make_dataset({"a": [300.0, 200.0, 8.0], "b": [3.0, 4.0, 0.0]}, [1.0, 2.0, 3.0])
        assert feature_column(base("a"), ds).tolist() == [300.0, 200.0, 8.0]
        assert feature_column(product("a", "b"), ds).tolist() == [900.0, 800.0, 0.0]
        # One zero denominator in any run rejects the whole column.
        with pytest.raises(FeatureError, match="zero denominator evaluating ratio:a/b"):
            feature_column(ratio("a", "b"), ds)
        assert feature_column(ratio("b", "a"), ds).tolist() == [0.01, 0.02, 0.0]


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

    @pytest.mark.parametrize("columns, count", [
        ({}, "there are no counters"),
        ({"dead": [0.0] * 4}, "the only counter is constant"),
        ({"dead": [0.0] * 4, "flat": [2.5] * 4, "idle": [1e-3] * 4}, "all 3 counters are constant"),
    ])
    def test_all_dropped_error_names_the_count(self, columns, count):
        ds = make_dataset(columns, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FeatureError) as err:
            drop_zero_variance(ds)
        assert str(err.value) == f"no usable counters: {count} over 4 runs"

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
        y = ds.target_current
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
        y = ds.target_current
        for spec in invert_negative(ds):
            if spec.kind != "inv":
                continue
            raw = pearson(ds.column(spec.a), y)
            flipped = pearson(-ds.column(spec.a), y)
            assert flipped == -raw
            assert flipped > 0


    @pytest.mark.parametrize("target, problem", [
        ([5.0, 5.0, 5.0], "degenerate series (zero variance)"),
        ([5.0, 6.0], "need at least 3 points"),
    ])
    def test_rejected_target_raises_pearsons_error(self, target, problem):
        cols = {"a": [1.0, 2.0, 4.0][: len(target)], "b": [3.0, 1.0, 2.0][: len(target)]}
        with pytest.raises(DegenerateSeriesError, match=re.escape(problem)):
            invert_negative(make_dataset(cols, target))


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
        assert pearson(a * b, ds.target_current) > 0.999

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
        # A spec's column is its position in matrix.specs.
        assert matrix.specs.index(product("b", "a")) == 1
        assert matrix.values[:, matrix.specs.index(base("b"))].tolist() == [4.0, 5.0, 7.0]
        assert matrix.values[:, 1].tolist() == [4.0, 10.0, 21.0]
        assert base("a") not in matrix.specs

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


def _zscore_outcome(zscore):
    """The bits and layout of the array ``zscore()`` returns, and the
    warnings it raises, in sorted order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z = zscore()
    return z.tobytes(), z.strides, sorted((w.category.__name__, str(w.message)) for w in caught)


@st.composite
def zscore_values(draw):
    """A C- or F-ordered runs x columns array, with constant columns now and
    then (zero, or one value repeated)."""
    n_runs = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_runs, n_cols)) * 10.0 ** draw(st.integers(-6, 6))
    for col in draw(st.lists(st.integers(0, n_cols - 1), max_size=3)):
        values[:, col] = draw(st.sampled_from([0.0, 0.1, -3.0, 1e9]))
    return np.asfortranarray(values) if draw(st.booleans()) else values


class TestZscored:
    @settings(max_examples=200, deadline=None)
    @given(values=zscore_values())
    def test_bits_layout_and_warnings_of_the_plain_expression(self, values):
        matrix = FeatureMatrix(tuple(base(f"c{i}") for i in range(values.shape[1])), values)
        expected = _zscore_outcome(lambda: (values - values.mean(axis=0)) / values.std(axis=0))
        assert _zscore_outcome(matrix.zscored) == expected

    def test_constant_column_warns(self):
        matrix = FeatureMatrix((base("a"), base("b")), np.array([[1.0, 5.0], [2.0, 5.0]]))
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide"):
            z = matrix.zscored()
        assert z[:, 0].tolist() == [-1.0, 1.0]
        assert np.isnan(z[:, 1]).all()

    def test_peak_is_one_matrix_beyond_values(self, rng):
        # The layout build_matrix gives: 1,000 runs x 400 columns, column-major,
        # half the columns 4x copies of the other half.
        half = rng.normal(size=(1000, 200))
        values = np.asfortranarray(np.hstack([half, half * 4.0]))
        matrix = FeatureMatrix(tuple(base(f"c{i}") for i in range(400)), values)
        tracemalloc.start()
        try:
            z = matrix.zscored()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.flags.f_contiguous
        # Slack for the mean and std and numpy's reduction buffers.
        assert peak <= values.nbytes + 128 * 1024


class TestVarianceGateOverflow:
    def test_large_varying_column_is_not_constant(self):
        col = np.array([1.0, 2.0, 3.0, 4.0]) * 1e160
        assert features._near_zero_variance(col[:, None]).tolist() == [False]

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
    def test_large_constant_column_stays_constant(self, scale):
        col = np.array([[1.0], [1.0 + 2.0**-50], [1.0]]) * scale
        assert features._near_zero_variance(col).tolist() == [True]

    def test_decisions_with_finite_sides_unchanged(self, rng):
        # Columns below about 1e-148, whose bound underflows, are decided
        # scaled (TestVarianceGateUnderflow); every other one as before.
        spread = 10.0 ** rng.uniform(-8, 0, 200)
        cols = 1e150 * (1.0 + spread * rng.normal(size=(12, 200)))
        cols[:, :20] = rng.normal(size=(12, 20)) * 10.0 ** rng.uniform(-300, 150, 20)
        got = features._near_zero_variance(np.asfortranarray(cols)).tolist()
        for col, flat in zip(cols.T, got):
            peak = float(np.max(np.abs(col)))
            if 1e-12 * peak * peak >= np.finfo(float).tiny:
                assert flat == (float(np.var(col)) <= 1e-12 * peak * peak)
            else:
                assert not flat  # each column varies

    def test_drop_zero_variance_keeps_a_large_counter(self):
        ds = make_dataset(
            {"big": [1e160, 2e160, 3e160, 4e160], "flat": [1e200] * 4}, [1.0, 2.0, 3.0, 4.0]
        )
        assert drop_zero_variance(ds) == (["big"], ["flat"])


class TestVarianceGateUnderflow:
    def test_tiny_varying_column_is_not_constant(self):
        col = np.array([1.0, 2.0, 3.0, 4.0]) * 1e-165
        assert features._near_zero_variance(col[:, None]).tolist() == [False]

    @pytest.mark.parametrize("value", [1e-165, 5e-324, 0.0, -0.0])
    def test_tiny_constant_column_stays_constant(self, value):
        assert features._near_zero_variance(np.full((4, 1), value)).tolist() == [True]

    def test_drop_zero_variance_keeps_a_tiny_counter(self):
        ds = make_dataset({"tiny": [1e-165, 2e-165, 3e-165, 4e-165], "flat": [1e-200] * 4},
                          [1.0, 2.0, 3.0, 4.0])
        assert drop_zero_variance(ds) == (["tiny"], ["flat"])

    @settings(max_examples=300, deadline=None)
    @given(columns=st.lists(
        st.tuples(st.floats(-320, 300), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8)),
        min_size=1, max_size=6))
    def test_decisions_with_normal_sides_unchanged(self, columns):
        # Each column is a few numbers times a power of ten; every column
        # whose variance and bound are normal floats is decided as
        # variance <= 1e-12 * peak**2 decides it.
        n = max(len(values) for _, values in columns)
        cols = np.array([(values * n)[:n] for _, values in columns], dtype=float).T
        with np.errstate(all="ignore"):
            cols = cols * 10.0 ** np.array([exponent for exponent, _ in columns])
        cols = np.where(np.isfinite(cols), cols, 0.0)
        got = features._near_zero_variance(np.asfortranarray(cols)).tolist()
        tiny = np.finfo(float).tiny
        for col, flat in zip(cols.T, got):
            with np.errstate(all="ignore"):
                peak = float(np.max(np.abs(col)))
                variance, bound = float(np.var(col)), 1e-12 * peak * peak
            if tiny <= variance < np.inf and tiny <= bound < np.inf:
                assert flat == (variance <= bound)


def _matrix_outcome(fn, ds, specs):
    """The matrix ``fn`` builds (specs, value bits and layouts, z-score bits
    and layout), or the type and message it raises."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the frozen loop warns on overflow
        try:
            matrix = fn(ds, specs)
        except (PmcPowerError, LookupError) as exc:
            return type(exc), str(exc)
    z = matrix.zscored()
    return (
        matrix.specs,
        matrix.values.shape, matrix.values.strides, matrix.values.tobytes(),
        z.strides, z.tobytes(),
    )


@st.composite
def matrix_cases(draw):
    """A small dataset, with constant, near-constant, zero and signed-zero
    columns, scales from 1e-75 to 1e75 and the odd NaN or inf, and a list
    of specs over its counters (and now and then a missing one)."""
    n = draw(st.integers(1, 12))
    names = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in names:
        form = draw(st.sampled_from(["uniform", "signed", "constant", "gate", "zeros", "sparse"]))
        scale = 10.0 ** draw(st.sampled_from([-75, -3, 0, 3, 75]))
        if form == "uniform":
            col = rng.uniform(1.0, 10.0, n)
        elif form == "signed":
            col = rng.normal(size=n)
        elif form == "constant":
            col = np.full(n, 7.0)
        elif form == "gate":
            col = 5.0 * (1.0 + 10.0 ** draw(st.floats(-6.5, -5.5)) * rng.normal(size=n))
        elif form == "zeros":
            col = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        else:
            col = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(1.0, 2.0, n))
        col = col * scale
        if draw(st.integers(0, 9)) == 0:
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        columns[name] = col
    ds = make_dataset(columns, rng.uniform(1.0, 5.0, n))
    counters = names + (["zz"] if draw(st.integers(0, 9)) == 0 else [])
    possible = (
        [base(a) for a in counters] + [inverted(a) for a in counters]
        + [product(a, b) for a in counters for b in counters if a <= b]
        + [ratio(a, b) for a in counters for b in counters]
    )
    specs = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=40))
    if draw(st.integers(0, 9)):
        specs = list(dict.fromkeys(specs))  # mostly without duplicates
    return ds, specs


class TestBuildMatrixMatchesReference:
    """Block evaluation, kind by kind, against the frozen one-column loop."""

    @settings(max_examples=200, deadline=None)
    @given(case=matrix_cases(), block=st.sampled_from([1, 2, 3, 7, 64]))
    def test_values_layout_and_errors(self, case, block):
        ds, specs = case
        with mock.patch.object(features, "_BLOCK_FEATURES", block):
            got = _matrix_outcome(build_matrix, ds, specs)
        assert got == _matrix_outcome(build_matrix_reference, ds, specs)

    def test_first_non_finite_value_is_the_earliest_run(self):
        ds = make_dataset(
            {"a": [1.0, 2.0, np.inf], "b": [1.0, np.nan, 3.0], "c": [1.0, 2.0, 4.0]},
            [1.0, 2.0, 3.0],
        )
        specs = [base("c"), base("a"), base("b")]
        for block in (1, 2, 64):
            with mock.patch.object(features, "_BLOCK_FEATURES", block):
                with pytest.raises(FeatureError, match="non-finite value evaluating base:b"):
                    build_matrix(ds, specs)

    def test_negated_zero_keeps_its_sign(self):
        ds = make_dataset({"a": [0.0, 1.0, -0.0, 2.0]}, [1.0, 2.0, 3.0, 4.0])
        values = build_matrix(ds, [inverted("a"), base("a")]).values
        assert np.signbit(values[:, 0]).tolist() == [True, True, False, True]
        assert values[:, 0].tobytes() == feature_column(inverted("a"), ds).tobytes()

    def test_pipeline_matrix(self):
        ds = wide_dataset(6, 80, 4)
        specs = generate_combined(ds, invert_negative(ds))
        assert _matrix_outcome(build_matrix, ds, specs) == _matrix_outcome(
            build_matrix_reference, ds, specs
        )

    def test_no_specs(self):
        ds = make_dataset({"a": [1.0, 2.0, 3.0]}, [1.0, 2.0, 3.0])
        with pytest.raises(FeatureError, match="no usable features"):
            build_matrix(ds, [])

    @pytest.mark.parametrize("specs, problem", [
        ([], "there are no candidate columns over 4 runs"),
        ([base("c")], "the only candidate column is near-constant over 4 runs"),
        ([base("c"), inverted("n"), ratio("c", "c")],
         "all 3 candidate columns are near-constant over 4 runs"),
    ])
    def test_no_usable_features_names_the_counts(self, specs, problem):
        near = [5.0, 5.0 + 1e-9, 5.0, 5.0 - 1e-9]
        ds = make_dataset({"c": [7.0] * 4, "n": near, "a": [1.0, 2.0, 3.0, 4.0]},
                          [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FeatureError) as err:
            build_matrix(ds, specs)
        assert str(err.value) == f"no usable features: {problem}"


class TestGenerateCombinedMatchesReference:
    """Gram scoring, an exact recompute of the candidates that can reach
    the cut and a bisected gate return the spec list scalar scoring of
    every candidate returns, including its errors."""

    @pytest.mark.parametrize("factors,runs,seed", [
        (10, 120, 3), (10, 120, 17), (10, 60, 29), (20, 90, 5), (4, 400, 11),
    ])
    def test_wide_campaigns(self, factors, runs, seed):
        ds = wide_dataset(factors, runs, seed)
        specs = assert_matches_reference(ds, invert_negative(ds))
        assert len(specs) > 6 * factors

    @pytest.mark.parametrize("runs,alpha", [(5, 0.05), (12, 0.05), (60, 1e-40)])
    def test_gate_binds_before_top_k(self, runs, alpha):
        ds = wide_dataset(6, runs, 7)
        base_specs = invert_negative(ds)
        specs = assert_matches_reference(ds, base_specs, alpha=alpha, top_k=1000)
        assert 0 < len(specs) - len(base_specs) < 1000

    @pytest.mark.parametrize("top_k", [0, 1, 2, 10_000])
    def test_top_k_extremes(self, top_k):
        ds = wide_dataset(4, 40, 2)
        base_specs = invert_negative(ds)
        specs = assert_matches_reference(ds, base_specs, alpha=1.0, top_k=top_k)
        if top_k == 10_000:
            assert top_k > n_candidates(ds)
            assert len(specs) > len(base_specs)

    def test_inverted_base_specs(self, rng):
        n = 50
        y = rng.uniform(100, 500, n)
        cols = {
            "up": y + rng.normal(0, 30, n),
            "down": 1000.0 - y + rng.normal(0, 30, n),
            "flat": rng.uniform(1, 10, n),
        }
        ds = make_dataset(cols, y)
        base_specs = invert_negative(ds)
        assert inverted("down") in base_specs
        assert_matches_reference(ds, base_specs, alpha=0.05, top_k=4)
        assert_matches_reference(ds, [inverted(k) for k in cols], alpha=0.05, top_k=100)

    def test_collinear_ties_at_the_cut(self, rng):
        # Power-of-two conversions scale a column exactly, so the products
        # of each family member with "b" share one |r| bit for bit.
        n = 40
        events = rng.uniform(1, 10, n)
        cols = {
            "a_events": events, "a_beats": 8.0 * events, "a_half": 0.5 * events,
            "b": rng.uniform(1, 10, n), "c": rng.uniform(1, 10, n),
        }
        ds = make_dataset(cols, events * cols["b"] + rng.normal(0, 1, n))
        base_specs = [base(k) for k in cols]
        full = generate_combined_reference(ds, base_specs, alpha=1.0, top_k=10_000)
        scores = [abs(pearson(feature_column(s, ds), ds.target_current))
                  for s in full[len(base_specs):]]
        cuts = [k for k in range(1, len(scores)) if scores[k - 1] == scores[k]]
        assert len(cuts) >= 3
        for top_k in cuts:
            assert_matches_reference(ds, base_specs, alpha=1.0, top_k=top_k)

    def test_ties_at_the_cut_under_a_binding_gate(self, rng):
        # Few runs: the gate rejects the weaker candidates, while exact
        # power-of-two copies tie at every cut the gate leaves.
        n = 8
        events = rng.uniform(1, 10, n)
        cols = {"a": events, "a8": 8.0 * events, "a2": 0.5 * events,
                "b": rng.uniform(1, 10, n), "c": rng.uniform(1, 10, n)}
        ds = make_dataset(cols, events * cols["b"] + rng.normal(0, 5, n))
        base_specs = [base(k) for k in cols]
        passing = len(generate_combined_reference(ds, base_specs, top_k=10_000)) - len(cols)
        assert 0 < passing < n_candidates(ds)
        for top_k in range(1, passing + 2):
            assert_matches_reference(ds, base_specs, alpha=0.05, top_k=top_k)

    def test_near_zero_denominators(self, rng):
        n = 30
        cols = {
            "tiny": np.concatenate([[1e-15], rng.uniform(1, 2, n - 1)]),
            "small": rng.uniform(1e-8, 2e-8, n),
            "big": rng.uniform(1, 10, n),
            "zero_crossing": rng.normal(0, 1, n),
        }
        ds = make_dataset(cols, rng.uniform(1, 10, n))
        assert_matches_reference(ds, [base(k) for k in cols], alpha=1.0, top_k=100)

    def test_all_zero_denominator_raises_the_same_error(self, rng):
        n = 20
        cols = {"a": rng.uniform(1, 2, n), "b": np.zeros(n), "c": rng.uniform(1, 2, n)}
        ds = make_dataset(cols, rng.uniform(1, 10, n))
        got = assert_matches_reference(ds, [base(k) for k in cols], alpha=1.0, top_k=5)
        assert got == (FeatureError, "zero denominator evaluating ratio:a/b")

    def test_missing_counter_raises_the_same_error(self, rng):
        ds = make_dataset({"a": rng.uniform(1, 2, 20), "c": rng.uniform(1, 2, 20)},
                          rng.uniform(1, 10, 20))
        got = assert_matches_reference(ds, [base("a"), base("b"), base("c")])
        assert got[0] is KeyError

    def test_constant_product_of_reciprocals(self, rng):
        # x * (c/x) is c up to rounding noise, whose r is whatever the noise
        # gives, or a constant that pearson rejects.
        n = 60
        x = rng.uniform(1, 100, n)
        cols = {"x": x, "c_over_x": 37.0 / x, "w": rng.uniform(1, 5, n), "w3": 3.0 / x}
        ds = make_dataset(cols, rng.uniform(1, 10, n))
        base_specs = [base(k) for k in cols]
        for top_k in (1, 3, 100):
            assert_matches_reference(ds, base_specs, alpha=1.0, top_k=top_k)

    @pytest.mark.filterwarnings("error")
    def test_extreme_scales(self, rng):
        # Columns near 1e+-150 make sxx, syy or their product over- or
        # underflow for many candidates.
        n = 30
        cols = {
            "huge": rng.uniform(1, 10, n) * 1e150,
            "tiny": rng.uniform(1, 10, n) * 1e-150,
            "unit": rng.uniform(1, 10, n),
            "large": rng.uniform(1, 10, n) * 1e100,
        }
        for y_scale in (1.0, 1e10, 1e-100):
            ds = make_dataset(cols, rng.uniform(1, 10, n) * y_scale)
            assert_matches_reference(ds, [base(k) for k in cols], alpha=1.0, top_k=100)

    def test_candidates_across_the_gate(self, rng):
        # prod(b,x0) and prod(b,x1) differ in |r| by about 1e-11, and alpha
        # is the p-value of the lower one: it fails the gate and the higher
        # one passes, so the bisection must end between them.
        n = 40
        b = rng.uniform(1, 10, n)
        x0 = rng.uniform(1, 10, n)
        x1 = x0 * (1.0 + 1e-11 * rng.normal(size=n))
        y = x0 * b + rng.normal(0, 60, n)
        ds = make_dataset({"b": b, "x0": x0, "x1": x1}, y)
        r0, r1 = sorted(abs(pearson(b * x, y)) for x in (x0, x1))
        assert 0 < r1 - r0 < 1e-10
        alpha = pearson_p_value(r0, n)
        assert pearson_p_value(r1, n) < alpha
        specs = assert_matches_reference(ds, [base("b"), base("x0"), base("x1")],
                                         alpha=alpha, top_k=1000)
        assert len(specs) == 4

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_small_random_datasets(self, data):
        n = data.draw(st.integers(3, 24), label="runs")
        n_raw = data.draw(st.integers(1, 4), label="raw columns")
        cols = {}
        for k in range(n_raw):
            values = data.draw(st.lists(st.integers(-3, 20), min_size=n, max_size=n))
            cols[f"r{k}"] = np.array(values, dtype=float)
        for k in range(data.draw(st.integers(0, 3), label="derived columns")):
            source = cols[data.draw(st.sampled_from(sorted(cols)))]
            factor = data.draw(st.sampled_from([1.0, 8.0, 0.5, 3.0, -1.0, 1e-3]))
            cols[f"d{k}"] = source * factor
        y = np.array(data.draw(st.lists(
            st.floats(-50, 500, allow_nan=False), min_size=n, max_size=n)))
        ds = make_dataset(cols, y)
        base_specs = [
            data.draw(st.sampled_from([base, inverted]))(name) for name in cols
        ]
        assert_matches_reference(
            ds, base_specs,
            alpha=data.draw(st.sampled_from([1.0, 0.5, 0.05, 1e-6])),
            top_k=data.draw(st.integers(0, 12)),
        )


class TestGenerateCombinedScoresInBlocks:
    def test_pearson_never_and_p_value_by_bisection(self, monkeypatch):
        ds = wide_dataset(40, 200, 3)  # 240 counters, 86,040 candidates
        base_specs = invert_negative(ds)
        assert n_candidates(ds) == 86_040
        calls = {"pearson": 0, "pearson_p_value": 0}

        def counting(name):
            def wrapped(*args):
                calls[name] += 1
                return getattr(numerics, name)(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(features, name, counting(name))
        specs = generate_combined(ds, base_specs)
        assert len(specs) == len(base_specs) + 1000
        assert calls["pearson"] == 0
        assert calls["pearson_p_value"] <= 20


# The shapes of column the Gram estimate must hand back to the exact path:
# exact multiples (their ratios are constant), a column times a reciprocal
# of it (a product constant up to rounding), near-constant columns, rows
# near 1e+-160 (their Gram sums over- or underflow), all-zero and
# near-zero denominators.
_DERIVED = ("multiple", "multiple", "reciprocal", "near_constant", "huge", "tiny", "zero",
            "near_zero")


@st.composite
def gram_cases(draw):
    """A dataset of a few raw columns and columns derived from them."""
    n = draw(st.integers(3, 30), label="runs")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    cols = {}
    for k in range(draw(st.integers(1, 4), label="raw columns")):
        if draw(st.booleans(), label="drawn values"):
            cols[f"r{k}"] = np.array(draw(st.lists(
                st.floats(-5.0, 1e3, allow_subnormal=False), min_size=n, max_size=n)))
        else:
            cols[f"r{k}"] = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-3, 4)
    raw = sorted(cols)
    for k in range(draw(st.integers(0, 4), label="derived columns")):
        source = cols[draw(st.sampled_from(raw))]
        kind = draw(st.sampled_from(_DERIVED))
        if kind == "multiple":
            column = source * draw(st.sampled_from([8.0, 0.5, -1.0, 3.0]))
        elif kind == "reciprocal":
            column = 37.0 / np.where(np.abs(source) < 1e-3, 1.0, source)
        elif kind == "near_constant":
            column = 5.0 + 1e-12 * source
        elif kind == "huge":
            column = source * 1e160
        elif kind == "tiny":
            column = source * 1e-160
        elif kind == "zero":
            column = np.zeros(n)
        else:
            column = np.where(np.arange(n) == 0, 1e-15, np.abs(source) + 1.0)
        cols[f"d{k}"] = column
    source = cols[draw(st.sampled_from(raw))]
    y = source * rng.uniform(0.5, 2.0) + rng.normal(0.0, draw(st.sampled_from([0.0, 1.0, 1e3])), n)
    if draw(st.booleans(), label="drawn target"):
        y = np.array(draw(st.lists(st.floats(-50, 500), min_size=n, max_size=n)))
    return make_dataset(cols, y * draw(st.sampled_from([1.0, 1e-3, 1e6])))


def _every_candidate_r(ds, names, safe):
    """``correlations`` of every entry of ``_gram_estimates``' arrays."""
    values = np.array([ds.column(name) for name in names]).reshape(len(names), len(ds))
    with np.errstate(all="ignore"):
        products = values[:, None, :] * values[None, :, :]
        ratios = values[:, None, :] / values[safe][None, :, :]
        rows = np.concatenate([products, ratios], axis=1)
        r = numerics.correlations(rows.reshape(-1, len(ds)), ds.target_current)
    return values, r.reshape(rows.shape[:2])


def _safe(values):
    sizes = np.abs(values)
    return np.flatnonzero(~(sizes.min(axis=1) < features.RATIO_DENOM_EPS * sizes.max(axis=1)))


class TestGenerateCombinedFromGramProducts:
    """Candidates are scored from Gram products, and only those that can
    reach the cut are scored again exactly, so the spec list is the scalar
    loop's, whatever the columns."""

    @settings(max_examples=200, deadline=None)
    @given(ds=gram_cases(), data=st.data())
    def test_matches_reference(self, ds, data):
        base_specs = [data.draw(st.sampled_from([base, inverted]))(name)
                      for name in ds.counter_names]
        m = len(base_specs)
        top_k = data.draw(st.sampled_from([0, 1, 2, 3, 7, m * (m - 1) // 2 + m * m]))
        alpha = data.draw(st.sampled_from([1.0, 0.5, 0.05, 1e-6]))
        assert_matches_reference(ds, base_specs, alpha=alpha, top_k=top_k)

    @settings(max_examples=200, deadline=None)
    @given(ds=gram_cases())
    def test_trusted_estimates_within_their_bound(self, ds):
        names = sorted(ds.counter_names)
        values = np.array([ds.column(name) for name in names])
        safe = _safe(values)
        if not values[safe].all():
            return  # an all-zero denominator raises before anything is scored
        estimate, bound = features._gram_estimates(values, ds.target_current, safe)
        _, exact = _every_candidate_r(ds, names, safe)
        trusted = np.isfinite(bound)
        assert np.isfinite(exact[trusted]).all()
        assert (np.abs(estimate - exact)[trusted] <= bound[trusted]).all()
        assert (estimate[~trusted] == 0).all()

    @pytest.mark.parametrize("factors, runs, seed", [(6, 60, 3), (10, 300, 7), (4, 1334, 1)])
    def test_campaign_estimates_within_their_bound(self, factors, runs, seed):
        ds = wide_dataset(factors, runs, seed)
        names = sorted(ds.counter_names)
        values, exact = _every_candidate_r(ds, names, _safe(
            np.array([ds.column(name) for name in names])))
        estimate, bound = features._gram_estimates(values, ds.target_current, _safe(values))
        trusted = np.isfinite(bound)
        assert trusted.mean() > 0.9
        error = np.abs(estimate - exact)[trusted]
        assert (error <= bound[trusted]).all()

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_few_candidates_recomputed(self, monkeypatch, seed):
        # A bound loosened by mistake keeps every output right and quietly
        # recomputes every candidate; about 1.7 % are needed here.
        ds = wide_dataset(40, 300, seed)  # 240 counters, 86,040 candidates
        base_specs = invert_negative(ds)
        assert n_candidates(ds) == 86_040
        rows = []

        def counting(block, y):
            rows.append(len(block))
            return numerics.correlations(block, y)

        monkeypatch.setattr(features, "correlations", counting)
        specs = generate_combined(ds, base_specs)
        assert len(specs) == len(base_specs) + 1000
        assert 1000 <= sum(rows) <= 0.03 * 86_040

    def test_spec_list_does_not_depend_on_blas_threads(self, tmp_path):
        # Which candidates are recomputed may change with the Gram sums'
        # summation order; the spec list may not.
        root = Path(__file__).resolve().parents[1]
        written = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"specs-{threads}.txt"
            subprocess.run([sys.executable, "-c", _WIDE_SPECS, str(root / "perfbench"), str(out)],
                           env=env, check=True)
            written.append(out.read_text())
        assert written[0] == written[1]
        assert written[0].count("\n") == 240 + 1000


# The spec list of the benchmark's train-wide design: 240 counters.
_WIDE_SPECS = """
import sys
sys.path.insert(0, sys.argv[1])
from campaign import Shape, wide_config
from pmcpower.features import generate_combined, invert_negative
from pmcpower.synth import generate
ds, _ = generate(wide_config(Shape(40, 6, 200, 2), 3))
specs = generate_combined(ds, invert_negative(ds))
open(sys.argv[2], "w").write("".join(f"{spec}\\n" for spec in specs))
"""
