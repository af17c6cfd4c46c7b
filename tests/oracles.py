"""Independent brute-force references the implementation is checked against.

Nothing here shares code with src/: least squares goes through the normal
equations, Ward merges recompute every pairwise SSE increase from raw
coordinates at every step, and the t-distribution CDF comes from scipy.
The one exception is ``ward_reference``, a frozen copy of the full-matrix
Ward loop that ``pmcpower.clustering.ward_cluster`` replaced; it reuses
only the package's Dendrogram/Merge containers and error type, so its
output can be compared with the fast loop's byte for byte.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import stats

from pmcpower.clustering import Dendrogram, Merge
from pmcpower.errors import ClusteringError


def normal_equation_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares via pinv of the normal equations.

    Returns [intercept, coefficients...].
    """
    A = np.hstack([np.ones((len(y), 1)), np.asarray(X, dtype=float)])
    return np.linalg.pinv(A.T @ A) @ (A.T @ y)


def t_two_tailed_p(r: float, n: int) -> float:
    t = abs(r) * np.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stats.t.sf(t, n - 2))


def ward_delta_sse(points: np.ndarray, a: list[int], b: list[int]) -> float:
    """SSE increase of merging clusters a and b, from raw member coordinates."""
    mu_a = points[a].mean(axis=0)
    mu_b = points[b].mean(axis=0)
    d = mu_a - mu_b
    return len(a) * len(b) / (len(a) + len(b)) * float(d @ d)


def ward_brute_force(z_matrix: np.ndarray, names: list[str]):
    """Full Ward agglomeration by exhaustive recomputation.

    Returns one (left_leafset, right_leafset, height) triple per merge,
    with the same equal-height tie rule as the implementation: the pair
    whose (smaller label, larger label) sorts first wins, where a cluster's
    label is its lexicographically smallest member name.
    """
    points = np.asarray(z_matrix, dtype=float).T  # rows are feature coordinates
    clusters: list[list[int]] = [[i] for i in range(points.shape[0])]
    labels = [names[i] for i in range(points.shape[0])]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                delta = ward_delta_sse(points, clusters[i], clusters[j])
                pair = tuple(sorted((labels[i], labels[j])))
                key = (delta, pair)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (height, _), i, j = best
        left, right = (i, j) if labels[i] <= labels[j] else (j, i)
        merges.append(
            (frozenset(clusters[left]), frozenset(clusters[right]), height)
        )
        clusters[i] = clusters[i] + clusters[j]
        labels[i] = min(labels[i], labels[j])
        del clusters[j], labels[j]
    return merges


def dendrogram_leafsets(dendrogram):
    """Expand a dendrogram's merges into (left_leafset, right_leafset, height)."""
    n = len(dendrogram.leaves)
    members: dict[int, frozenset[int]] = {i: frozenset([i]) for i in range(n)}
    out = []
    for k, merge in enumerate(dendrogram.merges):
        left = members[merge.left]
        right = members[merge.right]
        members[n + k] = left | right
        out.append((left, right, merge.height))
    return out


def ward_reference(
    z_matrix,
    names: Sequence[str] | None = None,
    *,
    check_normalized: bool = True,
) -> Dendrogram:
    """Cluster the columns of a z-scored sample matrix bottom-up.

    Pairwise SSE increases start at half the squared Euclidean distance
    between columns and are maintained through the Lance-Williams recurrence
    for Ward's method, so every recorded height equals the exact
    delta-SSE of its merge. Equal heights break toward the pair whose
    (smaller name, larger name) label pair sorts first, which makes the
    tree independent of column order.

    ``check_normalized`` rejects columns whose mean is not ~0; disable it
    to cluster raw coordinates (used by low-level tests).
    """
    z = np.asarray(z_matrix, dtype=float)
    if z.ndim != 2:
        raise ClusteringError("expected a 2-D n_samples x n_features matrix")
    n_samples, n_features = z.shape
    if n_features < 2:
        raise ClusteringError("need at least 2 features to cluster")
    if names is None:
        names = tuple(f"f{i:05d}" for i in range(n_features))
    else:
        names = tuple(names)
        if len(names) != n_features:
            raise ClusteringError("one name per feature column required")
        if len(set(names)) != n_features:
            raise ClusteringError("feature names must be unique")
    if check_normalized:
        means = z.mean(axis=0)
        bad = np.flatnonzero(np.abs(means) > 1e-6)
        if bad.size:
            raise ClusteringError(
                f"column {names[bad[0]]!r} is not z-scored (mean {means[bad[0]]:.3g})"
            )

    points = z.T  # (n_features, n_samples)
    dist = np.full((n_features, n_features), np.inf)
    for i in range(n_features):
        diff = points[i] - points
        dist[i] = 0.5 * np.einsum("ij,ij->i", diff, diff)
    np.fill_diagonal(dist, np.inf)

    active = np.ones(n_features, dtype=bool)
    size = np.ones(n_features, dtype=np.int64)
    label = list(names)  # lexicographically smallest member name per slot
    node_id = list(range(n_features))

    merges: list[Merge] = []
    for step in range(n_features - 1):
        height = float(dist.min())
        ii, jj = np.nonzero(dist == height)
        best = None
        for i, j in zip(ii.tolist(), jj.tolist()):
            if i >= j:
                continue
            key = (min(label[i], label[j]), max(label[i], label[j]))
            if best is None or key < best[0]:
                best = (key, i, j)
        assert best is not None
        _, i, j = best
        left_slot, right_slot = (i, j) if label[i] <= label[j] else (j, i)
        merged_size = int(size[i] + size[j])
        merges.append(Merge(node_id[left_slot], node_id[right_slot], height, merged_size))

        others = active.copy()
        others[i] = others[j] = False
        k = np.flatnonzero(others)
        if k.size:
            s_i, s_j, s_k = size[i], size[j], size[k]
            updated = (
                (s_i + s_k) * dist[i, k] + (s_j + s_k) * dist[j, k] - s_k * height
            ) / (s_i + s_j + s_k)
            updated = np.maximum(updated, 0.0)
            dist[i, k] = updated
            dist[k, i] = updated
        size[i] = merged_size
        label[i] = min(label[i], label[j])
        node_id[i] = n_features + step
        active[j] = False
        dist[j, :] = np.inf
        dist[:, j] = np.inf

    return Dendrogram(leaves=names, merges=tuple(merges))
