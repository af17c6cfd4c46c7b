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
class ClusterInfo:
    members: tuple[FeatureSpec, ...]
    importance: float
    representative: FeatureSpec


@dataclass(frozen=True)
class SelectionStep:
    """Audit-trail entry for one examined cluster."""

    cluster_id: int
    best_member: FeatureSpec
    r_squared: float
    accepted: bool


@dataclass(frozen=True)
class SelectionResult:
    significant: tuple[tuple[int, FeatureSpec], ...]
    r2_trajectory: tuple[float, ...]
    skipped: tuple[int, ...]
    terminated_at: int  # clusters examined, seed included
    trace: tuple[SelectionStep, ...]

    def representatives(self) -> list[FeatureSpec]:
        return [spec for _, spec in self.significant]


def _best_member(
    members: Sequence[FeatureSpec], basis: np.ndarray, matrix: FeatureMatrix, y: np.ndarray
) -> tuple[float, FeatureSpec]:
    """The best R-squared of a member refit with the ``basis`` columns (runs x
    k, k may be 0), and that member; scores within R2_TIE_EPS of the best
    tie, and the smallest canonical name among them wins."""
    scores = [
        (ols_fit(np.column_stack([basis, matrix.column(spec)]), y).r_squared, spec)
        for spec in members
    ]
    best = max(score for score, _ in scores)
    tied = [spec for score, spec in scores if score >= best - R2_TIE_EPS]
    return best, min(tied, key=lambda spec: spec.canonical())


def cluster_importance(
    cluster: Sequence[FeatureSpec], train: FeatureMatrix, y
) -> ClusterInfo:
    """Best single-feature fit within one cluster, on raw (unnormalized) values."""
    members = tuple(cluster)
    if not members:
        raise FeatureError("cluster must be non-empty")
    y = np.asarray(y, dtype=float)
    importance, representative = _best_member(members, np.empty((len(y), 0)), train, y)
    return ClusterInfo(members=members, importance=importance, representative=representative)


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
    groups = [
        [matrix.specs[i] for i in assignment.members(c)] for c in range(assignment.n_clusters)
    ]
    infos = [cluster_importance(members, matrix, y) for members in groups]
    order = sorted(
        range(len(infos)),
        key=lambda c: (-infos[c].importance, infos[c].representative.canonical()),
    )

    seed = order[0]
    selected_cols = [matrix.column(infos[seed].representative)]
    significant = [(seed, infos[seed].representative)]
    r2_sc = infos[seed].importance
    trajectory = [r2_sc]
    skipped: list[int] = []
    trace = [SelectionStep(seed, infos[seed].representative, r2_sc, True)]
    r2_after_examined = [r2_sc]

    for cluster_id in order[1:]:
        best_r2, best_member = _best_member(
            groups[cluster_id], np.column_stack(selected_cols), matrix, y
        )

        accepted = best_r2 > r2_sc + R2_GAIN_EPS
        if accepted:
            significant.append((cluster_id, best_member))
            selected_cols.append(matrix.column(best_member))
            r2_sc = best_r2
            trajectory.append(r2_sc)
        else:
            skipped.append(cluster_id)
        trace.append(SelectionStep(cluster_id, best_member, best_r2, accepted))

        r2_after_examined.append(r2_sc)
        if len(r2_after_examined) > patience:
            gain = r2_after_examined[-1] - r2_after_examined[-1 - patience]
            if gain < epsilon:
                break

    return SelectionResult(
        significant=tuple(significant),
        r2_trajectory=tuple(trajectory),
        skipped=tuple(skipped),
        terminated_at=len(r2_after_examined),
        trace=tuple(trace),
    )


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
