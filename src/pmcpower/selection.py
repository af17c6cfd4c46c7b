"""Greedy significant-cluster selection.

Each cluster of collinear features is summarized by its importance (the best
single-feature R-squared among its members) and grown into the model set in
descending-importance order: a cluster is accepted only when its best member,
refit jointly with the representatives already selected, raises the running
R-squared. The search stops once the running value has gained less than
epsilon over the last `patience` examined clusters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterAssignment
from .errors import FeatureError
from .features import FeatureMatrix, FeatureSpec
from .numerics import ols_fit

# R-squared values this close are treated as tied and resolved by name, so
# exactly collinear members pick a platform-stable representative.
R2_TIE_EPS = 1e-12

# A cluster must beat the running R-squared by more than this to be accepted;
# gains at the floating-point noise level are not improvements (a cluster
# perfectly collinear with an accepted one must be rejected, not let in on a
# 1e-16 residual wiggle).
R2_GAIN_EPS = 1e-10


@dataclass(frozen=True)
class SelectionStep:
    """Audit-trail entry for one examined cluster: its best member, which is
    column ``column`` of the feature matrix, and that member's R-squared."""

    cluster_id: int
    best_member: FeatureSpec
    column: int
    r_squared: float
    accepted: bool


@dataclass(frozen=True)
class SelectionResult:
    """The examined clusters in order, seed first; everything else about the
    selection is read off them."""

    trace: tuple[SelectionStep, ...]

    @property
    def accepted_steps(self) -> tuple[SelectionStep, ...]:
        return tuple(step for step in self.trace if step.accepted)

    @property
    def significant(self) -> tuple[tuple[int, FeatureSpec], ...]:
        return tuple((step.cluster_id, step.best_member) for step in self.accepted_steps)

    @property
    def r2_trajectory(self) -> tuple[float, ...]:
        return tuple(step.r_squared for step in self.accepted_steps)

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(step.cluster_id for step in self.trace if not step.accepted)

    @property
    def terminated_at(self) -> int:
        """Clusters examined, seed included."""
        return len(self.trace)


def _best_member(
    members: Sequence[int], basis: Sequence[int], matrix: FeatureMatrix, y: np.ndarray
) -> tuple[float, int]:
    """The best R-squared of a member column refit with the ``basis`` columns
    (may be empty), and that member's position; scores within R2_TIE_EPS of
    the best tie, and the smallest canonical name among them wins."""
    scores = [(ols_fit(matrix.values[:, [*basis, m]], y).r_squared, m) for m in members]
    best = max(score for score, _ in scores)
    tied = [m for score, m in scores if score >= best - R2_TIE_EPS]
    return best, min(tied, key=lambda m: matrix.specs[m].canonical())


def cluster_importance(
    members: Sequence[int], matrix: FeatureMatrix, y
) -> tuple[float, int]:
    """Best single-feature fit within one cluster of column positions, on raw
    (unnormalized) values: (importance, position of that member)."""
    if not members:
        raise FeatureError("cluster must be non-empty")
    return _best_member(members, [], matrix, np.asarray(y, dtype=float))


def select_significant(
    assignment: ClusterAssignment,
    matrix: FeatureMatrix,
    y,
    epsilon: float = 0.01,
    patience: int = 5,
) -> SelectionResult:
    """Grow the significant-cluster set over a sorted cluster list.

    The highest-importance cluster seeds the set. For every following
    cluster each member is refit together with the current representatives
    and the best-scoring member stands as the cluster's candidate; the
    cluster joins only if that score beats the running R-squared. Ties in
    the importance ordering and in member scores break on canonical names.
    Patience counts examined clusters (accepted or not), seed included.
    """
    if epsilon <= 0:
        raise FeatureError("epsilon must be > 0")
    if patience < 1:
        raise FeatureError("patience must be >= 1")
    if assignment.n_clusters < 1:
        raise FeatureError("need at least 1 cluster")
    y = np.asarray(y, dtype=float)
    groups = [assignment.members(c) for c in range(assignment.n_clusters)]
    scores = [cluster_importance(members, matrix, y) for members in groups]
    order = sorted(
        range(len(scores)),
        key=lambda c: (-scores[c][0], matrix.specs[scores[c][1]].canonical()),
    )

    seed = order[0]
    r2_sc, representative = scores[seed]
    basis = [representative]
    trace = [SelectionStep(seed, matrix.specs[representative], representative, r2_sc, True)]
    r2_after_examined = [r2_sc]

    for cluster_id in order[1:]:
        best_r2, best = _best_member(groups[cluster_id], basis, matrix, y)
        accepted = best_r2 > r2_sc + R2_GAIN_EPS
        if accepted:
            basis.append(best)
            r2_sc = best_r2
        trace.append(SelectionStep(cluster_id, matrix.specs[best], best, best_r2, accepted))

        r2_after_examined.append(r2_sc)
        if len(r2_after_examined) > patience:
            gain = r2_after_examined[-1] - r2_after_examined[-1 - patience]
            if gain < epsilon:
                break

    return SelectionResult(tuple(trace))


def format_trace(result: SelectionResult) -> str:
    """Selection trace as one line per examined cluster."""
    lines = []
    for step in result.trace:
        verdict = "accept" if step.accepted else "reject"
        lines.append(
            f"cluster {step.cluster_id:4d}  best {step.best_member.canonical():<40s}"
            f"  r2 {step.r_squared:.6f}  {verdict}"
        )
    lines.append(
        f"terminated after {result.terminated_at} examined clusters; "
        f"{len(result.significant)} accepted, {len(result.skipped)} rejected"
    )
    return "\n".join(lines) + "\n"
