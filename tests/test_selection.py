import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcpower import selection
from pmcpower.clustering import ClusterAssignment
from pmcpower.errors import ClusteringError, DegenerateSeriesError, FeatureError
from pmcpower.features import base, build_matrix
from pmcpower.model import PipelineConfig, run_pipeline
from pmcpower.numerics import ols_fit
from pmcpower.selection import (
    R2_TIE_EPS,
    cluster_importance,
    format_trace,
    select_significant,
)

from conftest import make_dataset, wide_dataset
from oracles import best_member_reference, select_significant_reference


def matrix_from(columns, target):
    ds = make_dataset(columns, target)
    return build_matrix(ds, [base(name) for name in columns]), np.asarray(target, float)


class TestClusterImportance:
    def test_exact_fit(self, rng):
        f = rng.uniform(1, 10, 20)
        matrix, y = matrix_from({"f": f}, 3 * f + 2)
        importance, member = cluster_importance([0], matrix, y)
        assert importance == pytest.approx(1.0)
        assert member == 0

    def test_collinear_tie_breaks_by_name(self, rng):
        f = rng.uniform(1, 10, 20)
        matrix, y = matrix_from({"g": 2 * f, "f": f}, 3 * f + 2 + rng.normal(0, 0.5, 20))
        _, member = cluster_importance([0, 1], matrix, y)
        assert matrix.specs[member] == base("f")  # lexicographically smaller

    def test_better_feature_wins(self, rng):
        y = rng.uniform(100, 500, 60)
        good = y + rng.normal(0, 10, 60)
        poor = y + rng.normal(0, 200, 60)
        matrix, target = matrix_from({"poor": poor, "good": good}, y)
        importance, member = cluster_importance([0, 1], matrix, target)
        assert matrix.specs[member] == base("good")
        # importance equals the best member's single-feature fit
        direct = ols_fit(good[:, None], y).r_squared
        assert importance == pytest.approx(direct)


def assignment_of(matrix, groups):
    cluster_of = np.empty(len(matrix.specs), dtype=np.int64)
    for cluster_idx, members in enumerate(groups):
        for name in members:
            cluster_of[matrix.names().index(f"base:{name}")] = cluster_idx
    return ClusterAssignment(cluster_of=cluster_of, n_clusters=len(groups))


class TestSelectSignificant:
    def test_three_independent_factors_all_accepted(self, rng):
        f1 = rng.uniform(1, 10, 50)
        f2 = rng.uniform(1, 10, 50)
        f3 = rng.uniform(1, 10, 50)
        y = 5 * f1 + 3 * f2 + 2 * f3 + 7
        cols = {"f1": f1, "f1b": 2 * f1, "f2": f2, "f2b": 3 * f2, "f3": f3}
        matrix, target = matrix_from(cols, y)
        assignment = assignment_of(matrix, [["f1", "f1b"], ["f2", "f2b"], ["f3"]])
        result = select_significant(assignment, matrix, target)
        assert len(result.significant) == 3
        assert result.r2_trajectory[-1] >= 0.999

    def test_collinear_cluster_rejected(self, rng):
        f = rng.uniform(1, 10, 40)
        y = 2 * f + rng.normal(0, 0.1, 40)
        matrix, target = matrix_from({"f": f, "copy": 8 * f}, y)
        assignment = assignment_of(matrix, [["f"], ["copy"]])
        result = select_significant(assignment, matrix, target)
        assert len(result.significant) == 1
        assert len(result.skipped) == 1

    def test_termination_window(self, rng):
        # 10 singleton clusters; only the strongest explains y
        f = rng.uniform(1, 10, 80)
        cols = {"f0": f}
        for i in range(1, 10):
            cols[f"n{i}"] = rng.uniform(1, 10, 80)
        y = 4 * f + 1
        matrix, target = matrix_from(cols, y)
        assignment = assignment_of(matrix, [[name] for name in cols])
        result = select_significant(assignment, matrix, target, epsilon=0.01, patience=5)
        assert result.significant[0][1] == base("f0")
        # examined: the seed plus the 5-cluster patience window
        assert result.terminated_at == 6
        assert len(result.skipped) == 5

    def test_trajectory_strictly_increasing(self, rng):
        cols = {f"c{i}": rng.uniform(1, 10, 60) for i in range(8)}
        weights = rng.uniform(0.5, 3.0, 8)
        y = sum(w * cols[f"c{i}"] for i, w in enumerate(weights)) + rng.normal(0, 1, 60)
        matrix, target = matrix_from(cols, y)
        assignment = assignment_of(matrix, [[name] for name in cols])
        result = select_significant(assignment, matrix, target, epsilon=1e-6, patience=8)
        diffs = np.diff(result.r2_trajectory)
        assert (diffs > 0).all()

    def test_representative_is_member(self, rng):
        f1 = rng.uniform(1, 10, 50)
        f2 = rng.uniform(1, 10, 50)
        y = f1 + f2
        matrix, target = matrix_from({"a1": f1, "a2": 2 * f1, "b1": f2}, y)
        assignment = assignment_of(matrix, [["a1", "a2"], ["b1"]])
        result = select_significant(assignment, matrix, target)
        members = {0: {"base:a1", "base:a2"}, 1: {"base:b1"}}
        for cluster_id, rep in result.significant:
            assert rep.canonical() in members[cluster_id]

    def test_exhaustive_mode_upper_bounds_strict_mode(self, rng):
        cols = {f"c{i}": rng.uniform(1, 10, 60) for i in range(9)}
        y = (
            3 * cols["c0"]
            + 0.4 * cols["c1"]
            + 0.2 * cols["c2"]
            + rng.normal(0, 2, 60)
        )
        matrix, target = matrix_from(cols, y)
        assignment = assignment_of(matrix, [[name] for name in cols])
        strict = select_significant(assignment, matrix, target, epsilon=0.01, patience=2)
        exhaustive = select_significant(
            assignment, matrix, target, epsilon=1e-12, patience=10_000
        )
        assert exhaustive.r2_trajectory[-1] >= strict.r2_trajectory[-1] - 1e-12

    def test_trace_covers_examined_clusters(self, rng):
        cols = {f"c{i}": rng.uniform(1, 10, 40) for i in range(4)}
        y = 2 * cols["c0"] + cols["c1"] + rng.normal(0, 0.5, 40)
        matrix, target = matrix_from(cols, y)
        assignment = assignment_of(matrix, [[name] for name in cols])
        result = select_significant(assignment, matrix, target)
        assert len(result.trace) == result.terminated_at
        assert all(matrix.specs[step.column] == step.best_member for step in result.trace)
        text = format_trace(result)
        assert text.count("\n") == result.terminated_at + 1
        assert "accept" in text


@st.composite
def selection_cases(draw):
    """A feature matrix whose clusters hold exact duplicates, copies scaled
    by 2^k, members whose R-squared lies near R2_TIE_EPS of another's,
    columns near the variance gate or at 1e+-150, and a target that may be
    constant; with a random assignment of its columns to clusters."""
    n = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.uniform(1.0, 10.0, size=(n, 3))
    columns = {}
    for i in range(draw(st.integers(1, 9))):
        source = factors[:, draw(st.integers(0, 2))]
        form = draw(st.sampled_from(["copy", "pow2", "near_tie", "noisy", "gate", "huge", "tiny"]))
        if form == "copy":
            col = source.copy()
        elif form == "pow2":
            col = source * 2.0 ** draw(st.integers(-4, 4))
        elif form == "near_tie":
            # R-squared moves by about the square of the relative wiggle
            wiggle = 10.0 ** draw(st.floats(-8.0, -5.0))
            col = source + wiggle * rng.normal(size=n)
        elif form == "noisy":
            col = source + rng.normal(0.0, draw(st.floats(0.01, 5.0)), n)
        elif form == "gate":
            # relative spread around 1e-6: variance near 1e-12 of the peak squared
            col = 100.0 * (1.0 + 10.0 ** draw(st.floats(-6.5, -5.5)) * rng.normal(size=n))
        elif form == "huge":
            col = source * 1e150
        else:
            col = source * 1e-150
        columns[f"c{i}"] = col
    if draw(st.booleans()):
        y = np.full(n, draw(st.sampled_from([0.0, 3.5])))
    else:
        y = 2.0 * factors[:, 0] + factors[:, 1] + rng.normal(0.0, draw(st.floats(0.0, 2.0)), n)
    try:
        matrix = build_matrix(make_dataset(columns, y), [base(name) for name in columns])
    except FeatureError:  # every column failed the variance gate
        return None
    k = draw(st.integers(1, len(matrix.specs)))
    cluster_of = rng.integers(0, k, len(matrix.specs))
    cluster_of[:k] = np.arange(k)  # every cluster non-empty
    cluster_of = rng.permutation(cluster_of)
    return matrix, y, ClusterAssignment(cluster_of=cluster_of, n_clusters=k)


def _with_warnings(fn, *args, **kwargs):
    """fn's result and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


class TestSelectionMatchesReference:
    """The pre-scored importance pass against the frozen refit-everything loop."""

    @settings(max_examples=200, deadline=None)
    @given(case=selection_cases(), patience=st.integers(1, 4))
    def test_trace_and_warnings(self, case, patience):
        if case is None:
            return
        matrix, y, assignment = case
        got = _with_warnings(select_significant, assignment, matrix, y, 1e-3, patience)
        expected = _with_warnings(
            select_significant_reference, assignment, matrix, y, 1e-3, patience
        )
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(case=selection_cases())
    def test_cluster_importance(self, case):
        if case is None:
            return
        matrix, y, assignment = case
        for c in range(assignment.n_clusters):
            members = assignment.members(c)
            got = _with_warnings(cluster_importance, members, matrix, y)
            assert got == _with_warnings(best_member_reference, members, [], matrix, y)

    @settings(max_examples=150, deadline=None)
    @given(case=selection_cases())
    def test_bounds_hold(self, case):
        if case is None:
            return
        matrix, y, _ = case
        columns = np.arange(len(matrix.specs))
        bounds = selection._single_fit_bounds(matrix.values, columns, y)
        if bounds is None:
            assert np.ptp(y) == 0.0
            return
        for c, low, high in zip(columns, *bounds):
            score = ols_fit(matrix.values[:, [c]], y).r_squared
            assert low <= score <= high

    @settings(max_examples=150, deadline=None)
    @given(case=selection_cases(), every=st.integers(1, 3))
    def test_result_rests_only_on_upper_bounds(self, case, every):
        # A lower bound set far too high shrinks the refit set; the check
        # against the upper bounds must then refit the whole cluster.
        if case is None:
            return
        matrix, y, assignment = case
        real = selection._single_fit_bounds

        def overstated(values, columns, target):
            bounds = real(values, columns, target)
            if bounds is None:
                return None
            low, high = bounds[0].copy(), bounds[1].copy()
            low[::every] = high[::every] = high[::every] + 0.5
            return low, high

        with mock.patch.object(selection, "_single_fit_bounds", overstated):
            got = _with_warnings(select_significant, assignment, matrix, y, 1e-3, 3)
        assert got == _with_warnings(select_significant_reference, assignment, matrix, y, 1e-3, 3)

    def test_exact_duplicates_tie_to_the_smallest_name(self, rng):
        f = rng.uniform(1, 10, 25)
        y = 3 * f + rng.normal(0, 0.3, 25)
        cols = {f"d{i}": f * 2.0**i for i in range(6)}
        matrix, target = matrix_from(cols, y)
        members = list(range(6))
        got = cluster_importance(members, matrix, target)
        assert got == best_member_reference(members, [], matrix, target)
        assert matrix.specs[got[1]] == base("d0")

    def test_near_tie_straddling_the_tie_epsilon(self, rng):
        # Members whose R-squared differs from the best by about R2_TIE_EPS:
        # refit or not, their tie status is the full loop's.
        f = rng.uniform(1, 10, 40)
        y = 3 * f + rng.normal(0, 1.0, 40)
        cols = {"a": f}
        for i, wiggle in enumerate([3e-7, 1e-6, 3e-6, 1e-5]):
            cols[f"b{i}"] = f + wiggle * rng.normal(size=40)
        matrix, target = matrix_from(cols, y)
        scores = [ols_fit(matrix.values[:, [m]], target).r_squared for m in range(5)]
        gaps = max(scores) - np.array(scores)
        assert (gaps < 10 * R2_TIE_EPS).any() and (gaps > R2_TIE_EPS / 10).any()
        members = list(range(5))
        assert cluster_importance(members, matrix, target) == best_member_reference(
            members, [], matrix, target
        )

    def test_target_of_another_length_rejected_by_ols_fit(self, rng):
        matrix, _ = matrix_from({"f": rng.uniform(1, 10, 10)}, rng.uniform(1, 5, 10))
        with pytest.raises(DegenerateSeriesError, match="target length must match rows"):
            cluster_importance([0], matrix, rng.uniform(1, 5, 9))

    @pytest.mark.parametrize("cluster_of, n_clusters, problem", [
        ([5, 0, 1], 2, "cluster id 5 of column 0 lies outside 0..1"),
        ([0, -1, 1], 2, "cluster id -1 of column 1 lies outside 0..1"),
        ([0.0, 1.0, 1.0], 2, "1-D integer array"),
        ([[0, 1, 1]], 2, "1-D integer array"),
    ])
    def test_assignment_checks_its_ids(self, cluster_of, n_clusters, problem):
        # With the id 5, select_significant would never examine column a.
        with pytest.raises(ClusteringError, match=re.escape(problem)):
            ClusterAssignment(cluster_of=np.array(cluster_of), n_clusters=n_clusters)

    def test_empty_cluster_rejected(self, rng):
        matrix, target = matrix_from({"f": rng.uniform(1, 10, 10)}, rng.uniform(1, 5, 10))
        with pytest.raises(FeatureError, match="cluster must be non-empty"):
            cluster_importance([], matrix, target)
        assignment = ClusterAssignment(cluster_of=np.array([1]), n_clusters=2)
        with pytest.raises(FeatureError, match="cluster must be non-empty"):
            select_significant(assignment, matrix, target)


def _outcome(fn, *args):
    """``_with_warnings`` of fn, or the type and message of what it raised."""
    try:
        return _with_warnings(fn, *args)
    except Exception as exc:  # the reference's own failure, e.g. on a NaN score
        return type(exc), str(exc)


class TestLazyRanking:
    """The importance order is resolved only as far as the greedy pass reads it."""

    def test_refits_only_clusters_that_can_come_next(self):
        ds = wide_dataset(20, 200, 3)
        y = ds.target_current
        single_fits = []

        def counting(X, target):
            if X.shape[1] == 1:
                single_fits.append(1)
            return ols_fit(X, target)

        with mock.patch.object(selection, "ols_fit", counting):
            result = run_pipeline(ds)
        matrix, assignment, trace = result.matrix, result.assignment, result.selection.trace
        config = PipelineConfig()
        expected = select_significant_reference(
            assignment, matrix, y, config.epsilon, config.patience
        )
        assert result.selection == expected
        _, high = selection._single_fit_bounds(matrix.values, np.arange(len(matrix.specs)), y)
        last, _ = best_member_reference(assignment.members(trace[-1].cluster_id), [], matrix, y)
        reach = [members for members in map(assignment.members, range(assignment.n_clusters))
                 if high[members].max() >= last]
        allowed = sum(map(len, reach))
        # 6 of 118 clusters examined; 6 reach, holding 76 of 1,120 members (32 refit)
        assert len(trace) < assignment.n_clusters / 10
        assert allowed < len(matrix.specs) / 10
        assert 0 < len(single_fits) <= allowed

    @staticmethod
    def _tight(values, columns, target):
        """Bounds that are the refit scores themselves: a cluster's bound
        then equals its importance."""
        scores = np.array([ols_fit(values[:, [c]], target).r_squared for c in columns])
        return scores, scores.copy()

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (2, 0, 1)])
    def test_exact_tie_across_clusters_ranks_by_name(self, rng, order, tight):
        f = rng.uniform(1, 10, 30)
        y = 3 * f + rng.normal(0, 0.5, 30)
        cols = {"zeta": f, "alpha": f.copy(), "n1": rng.uniform(1, 10, 30),
                "n2": rng.uniform(1, 10, 30), "n3": rng.uniform(1, 10, 30)}
        matrix, target = matrix_from(cols, y)
        groups = [["zeta", "n1"], ["alpha", "n2"], ["n3"]]
        assignment = assignment_of(matrix, [groups[i] for i in order])
        bounds = self._tight if tight else selection._single_fit_bounds
        with mock.patch.object(selection, "_single_fit_bounds", bounds):
            got = select_significant(assignment, matrix, target, 1e-3, 3)
        assert got == select_significant_reference(assignment, matrix, target, 1e-3, 3)
        cluster = {name: int(assignment.cluster_of[matrix.names().index(f"base:{name}")])
                   for name in ("alpha", "zeta")}
        seed, copy = got.trace[:2]
        assert (seed.cluster_id, copy.cluster_id) == (cluster["alpha"], cluster["zeta"])
        assert seed.best_member == base("alpha")
        zeta = matrix.names().index("base:zeta")
        assert seed.r_squared == cluster_importance([zeta], matrix, target)[0]

    @settings(max_examples=150, deadline=None)
    @given(case=selection_cases(), scale=st.sampled_from([1.0, 1e150, 1e-150, 1e160]),
           spare=st.integers(0, 2))
    def test_every_cluster_examined(self, case, scale, spare):
        # Patience of at least the cluster count examines every cluster, so
        # the lazy order must equal the full sort: with 1e+-150 columns,
        # targets whose sums leave the trusted range, and targets at 1e160,
        # whose squares overflow, so that every fit scores NaN and both raise.
        if case is None:
            return
        matrix, y, assignment = case
        args = (assignment, matrix, y * scale, 1e-3, assignment.n_clusters + spare)
        got = _outcome(select_significant, *args)
        assert got == _outcome(select_significant_reference, *args)
        if not isinstance(got[0], type):
            assert got[0].terminated_at == assignment.n_clusters
