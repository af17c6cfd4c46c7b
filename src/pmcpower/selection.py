"""Greedy significant-cluster selection.

Each cluster of collinear features is summarized by its importance (the best
single-feature R-squared among its members) and grown into the model set in
descending-importance order: a cluster is accepted only when its best member,
refit jointly with the representatives already selected, raises the running
R-squared. The search stops once the running value has gained less than
epsilon over the last `patience` examined clusters.

Clusters are ranked lazily, and only the clusters the greedy pass can
reach are refit. Each member's single-column R-squared is pre-scored as r^2
from one centred product, and bounded by a margin of
2^-49 (n + rho_x + rho_y) (``_single_fit_bounds`` derives it); a cluster's
upper bound is the largest of its members'. A cluster's importance is
resolved only when its upper bound reaches the importance of the best
resolved cluster not yet examined (``_ranked``), so the clusters come out in
the order that sorting every importance gives, and a cluster whose bound
lies below the last examined importance is never refit. On the benchmark
campaigns only the examined clusters are resolved, 6 of 105 on train-deep
and 6 of 143 on train-wide.

Resolving a cluster refits with ``ols_fit`` only the members whose upper
bound reaches the best lower bound in the cluster, less R2_TIE_EPS; on
the benchmark campaigns, its exact ties among bit-equal columns. The refit scores must put every
other member's upper bound below the tie line, or the rest of the cluster
is refit too, so importance and its tie-break are those of refitting every
member, bit for bit. A column whose pre-score cannot be trusted, and
every column when there are no bounds (a constant target, say), is refit
before the first cluster is examined. The greedy pass refits every member
of each examined cluster jointly with the basis.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _pick(scores: list[tuple[float, int]], matrix: FeatureMatrix) -> tuple[float, int]:
    """The best of (R-squared, position) scores and the member it names:
    scores within R2_TIE_EPS of the best tie, and the smallest canonical
    name among them wins."""
    best = max(score for score, _ in scores)
    tied = [m for score, m in scores if score >= best - R2_TIE_EPS]
    return best, min(tied, key=lambda m: matrix.specs[m].canonical())


def _best_member(
    members: Sequence[int], basis: Sequence[int], matrix: FeatureMatrix, y: np.ndarray
) -> tuple[float, int]:
    """The best R-squared of a member column refit with the ``basis`` columns
    (may be empty), and that member's position, as ``_pick`` chooses it."""
    return _pick(
        [(ols_fit(matrix.values[:, [*basis, m]], y).r_squared, m) for m in members], matrix
    )


# Columns pre-scored at once; this bounds the pre-score's temporaries.
_SCORE_COLUMNS = 64

# A pre-score is trusted only while its sums lie in this range, far from
# overflow and underflow, and the condition number of the design [1, x]
# is at most _MAX_CONDITION by the bound (n + |x|^2) / sqrt(n sxx).
_SUM_RANGE = (2.0**-900, 2.0**900)
_MAX_CONDITION = 2.0**24


def _single_fit_bounds(
    values: np.ndarray, columns: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Bounds (low, high) on ``ols_fit``'s R-squared of ``y`` on each of
    ``columns`` alone, or None when every member is to be refit: the
    target is constant (``ols_fit`` then warns on every fit), its sum of
    squares is out of range, or it does not fit ``values`` (``ols_fit``
    then raises).

    The pre-score is r^2 = sxy^2 / (sxx syy) from centred products; in
    exact arithmetic it is the least-squares R-squared. The margin is
    2^-49 (n + rho_x + rho_y), with rho_x = |x| / |x - mean x| and rho_y
    likewise, u = 2^-53 and 2^-49 = 16u. The upper side, on which the
    result rests, holds because:

    * for any coefficients beta the exact residual |y - A beta|^2 is at
      least the least-squares minimum ss_tot (1 - r^2), so only rounding
      can lift ``ols_fit``'s R-squared above r^2;
    * computing y - A beta rounds each element by at most
      3u (|y| + |A| |beta|); at the exact solution that sums to at most
      6u (rho_y + rho_x) sqrt(ss_tot), which moves R-squared by at most
      12u (rho_y + rho_x);
    * lstsq's solution differs from the exact one, but with the condition
      number at most 2^24 the rounding of the part A (beta - beta*) is
      covered by the rise of the exact residual it causes, up to a
      relative 2^-58;
    * the pre-score's sums and ``ols_fit``'s ss_res and ss_tot each carry
      a relative error of at most about n u.

    Measured on the benchmark campaigns the two differ by under 2e-15.
    A column whose sums are out of range or whose design is worse
    conditioned gets (-inf, inf) and is always refit.
    """
    n = y.size
    if y.shape != (values.shape[0],) or n < 2:
        return None
    mean_y = float(y.mean())
    dy = y - mean_y
    syy = float(np.dot(dy, dy))  # ols_fit's ss_tot, to the bit
    if not _SUM_RANGE[0] < syy < _SUM_RANGE[1]:
        return None
    rho_y = math.sqrt(1.0 + n * mean_y * mean_y / syy)
    low = np.full(columns.size, -np.inf)
    high = np.full(columns.size, np.inf)
    for start in range(0, columns.size, _SCORE_COLUMNS):
        part = slice(start, start + _SCORE_COLUMNS)
        x = values[:, columns[part]]
        with np.errstate(all="ignore"):  # untrusted columns are refit
            mean = x.mean(axis=0)
            dx = x - mean
            sxx = np.einsum("ij,ij->j", dx, dx)
            norm2 = sxx + n * mean * mean  # |x|^2
            r = (dy @ dx) / (np.sqrt(sxx) * math.sqrt(syy))
            condition = (n + norm2) / np.sqrt(n * sxx)
            margin = 2.0**-49 * (n + np.sqrt(norm2 / sxx) + rho_y)
        trusted = (
            (sxx > _SUM_RANGE[0]) & (norm2 < _SUM_RANGE[1])
            & (condition <= _MAX_CONDITION) & np.isfinite(r)
        )
        low[part] = np.where(trusted, r * r - margin, -np.inf)
        high[part] = np.where(trusted, r * r + margin, np.inf)
    return low, high


def _resolve(
    members: Sequence[int], low: Sequence[float], high: Sequence[float],
    matrix: FeatureMatrix, y: np.ndarray,
) -> tuple[float, int]:
    """``_best_member(members, [], matrix, y)``, given each member's bounds
    (``low``, ``high``), refitting only the members whose pre-score can
    reach the cluster's ties.

    A member is refit when its upper bound reaches the cluster's best lower
    bound less R2_TIE_EPS. After the refits, every other member's upper
    bound must lie below the best refit score less R2_TIE_EPS, so that it
    can neither be the best nor tie with it; where one does not, the other
    members are refit too. The result rests only on the upper bounds.
    """
    floor = max(low) - R2_TIE_EPS
    refit = [bound >= floor for bound in high]
    scores = [(ols_fit(matrix.values[:, [m]], y).r_squared, m)
              for m, chosen in zip(members, refit) if chosen]
    best = max(score for score, _ in scores)
    if any(not chosen and bound >= best - R2_TIE_EPS for chosen, bound in zip(refit, high)):
        fitted = iter(scores)
        scores = [next(fitted) if chosen else (ols_fit(matrix.values[:, [m]], y).r_squared, m)
                  for m, chosen in zip(members, refit)]
    return _pick(scores, matrix)


def _ranked(
    groups: Sequence[Sequence[int]], matrix: FeatureMatrix, y: np.ndarray
) -> Iterator[tuple[int, float, int]]:
    """(cluster, importance, best member) of every group, in the order of
    (-importance, canonical name of the best member), each importance
    ``_best_member(members, [], matrix, y)``. A cluster is resolved only
    when it might be the next one yielded.

    A cluster's upper bound is the largest upper bound of its members. The
    unresolved clusters wait in a heap keyed by it; the best resolved
    cluster is yielded once every unresolved bound lies strictly below its
    importance, and a cluster whose bound reaches it is resolved first. So
    the order rests only on upper bounds and exact scores. Without bounds
    (``_single_fit_bounds`` gives None) every column's are (-inf, inf), so
    every cluster is refit whole, in cluster order, before the first is
    yielded. No importance is NaN, so the heap's order is the sort's:
    ``max`` passes over a NaN score unless it comes first, and then
    ``_pick`` finds no tie and raises, as refitting everything does. Only
    an untrusted column can score NaN, and its cluster's bound is inf, so
    that raises before anything is yielded.
    """
    if any(len(members) == 0 for members in groups):
        raise FeatureError("cluster must be non-empty")
    columns = np.concatenate([np.asarray(members, dtype=np.intp) for members in groups])
    bounds = _single_fit_bounds(matrix.values, columns, y)
    if bounds is None:
        bounds = np.full(columns.size, -np.inf), np.full(columns.size, np.inf)
    starts = np.cumsum([0, *map(len, groups)])
    upper = np.maximum.reduceat(bounds[1], starts[:-1])
    low, high = (bound.tolist() for bound in bounds)
    starts = starts.tolist()
    pending = list(zip((-upper).tolist(), range(len(groups))))
    heapq.heapify(pending)
    # (-importance, name of the best member, cluster, importance, best member)
    ready: list[tuple[float, str, int, float, int]] = []
    while pending or ready:
        while pending and (not ready or -pending[0][0] >= ready[0][3]):
            c = heapq.heappop(pending)[1]
            part = slice(starts[c], starts[c + 1])
            score, member = _resolve(groups[c], low[part], high[part], matrix, y)
            heapq.heappush(ready, (-score, matrix.specs[member].canonical(), c, score, member))
        _, _, c, score, member = heapq.heappop(ready)
        yield c, score, member


def cluster_importance(
    members: Sequence[int], matrix: FeatureMatrix, y
) -> tuple[float, int]:
    """Best single-feature fit within one cluster of column positions, on raw
    (unnormalized) values: (importance, position of that member)."""
    _, importance, member = next(_ranked([list(members)], matrix, np.asarray(y, dtype=float)))
    return importance, member


def select_significant(
    assignment: ClusterAssignment,
    matrix: FeatureMatrix,
    y,
    epsilon: float = 0.01,
    patience: int = 5,
) -> SelectionResult:
    """Grow the significant-cluster set over the clusters in order of
    importance, read lazily from ``_ranked`` until patience stops the pass.

    The highest-importance cluster seeds the set. For every following
    cluster each member is refit together with the current representatives
    and the best-scoring member stands as the cluster's candidate; the
    cluster joins only if that score beats the running R-squared. Ties in
    the importance ordering and in member scores break on canonical names.
    Patience counts examined clusters (accepted or not), seed included.
    A cluster's members are refit alone only when its upper bound reaches
    the last examined cluster's importance, and the result is that of
    ranking every cluster first.
    """
    if epsilon <= 0:
        raise FeatureError("epsilon must be > 0")
    if patience < 1:
        raise FeatureError("patience must be >= 1")
    if assignment.n_clusters < 1:
        raise FeatureError("need at least 1 cluster")
    y = np.asarray(y, dtype=float)
    # assignment.members(c) of every cluster, from one sort
    by_cluster = np.argsort(assignment.cluster_of, kind="stable")
    edges = np.searchsorted(
        assignment.cluster_of[by_cluster], np.arange(assignment.n_clusters + 1)
    ).tolist()
    groups = [by_cluster[lo:hi].tolist() for lo, hi in zip(edges, edges[1:])]
    ranked = _ranked(groups, matrix, y)

    seed, r2_sc, representative = next(ranked)
    basis = [representative]
    trace = [SelectionStep(seed, matrix.specs[representative], representative, r2_sc, True)]
    r2_after_examined = [r2_sc]

    for cluster_id, _, _ in ranked:
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
