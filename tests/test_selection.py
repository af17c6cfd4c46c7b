import numpy as np
import pytest

from pmcpower.clustering import ClusterAssignment
from pmcpower.features import base, build_matrix
from pmcpower.numerics import ols_fit
from pmcpower.selection import cluster_importance, format_trace, select_significant

from conftest import make_dataset


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
