"""Agglomerative clustering of feature columns with Ward linkage.

Features are points in n_samples-dimensional space; each merge joins the
pair of clusters whose union increases the total within-cluster sum of
squared distances to centroids the least. Merge heights record that SSE
increase directly (not its square root): for z-scored columns it grows
linearly with the number of samples, which is what makes a cut threshold
proportional to the sample count dimensionally sensible.

The merge loop is Müllner's "generic" algorithm (Müllner 2011, §3): every
active row caches its exact minimum distance and the first slot at it, so
a merge step costs O(n) plus a rescan of the few rows whose cached minimum
involved the merged pair, instead of a scan of the whole matrix. The
leaves take their slots in sorted name order, and a merged cluster keeps
the smaller of its two slots along with the smaller of the two labels (a
cluster's label is its smallest member name), so slot order is label order
at every step. Equal heights break toward the pair whose (smaller label,
larger label) sorts first; in slot order that is the first row at the
minimum and the first slot in that row, the first index argmin returns.
The nearest-neighbour-chain algorithm would be cheaper still, but exactly
collinear counters produce many zero-height ties at once and the chain
does not merge them in this tie order, so the tree (and every cut of it)
would depend on how the chain walked.

The initial distances are computed once per pair of distinct columns, in
the input's memory order, and then expanded to every pair. Counters of one
family counted at power-of-two scales, and the products and ratios built
from them, z-score to bit-equal columns; in the synthetic campaigns about
half the leaves are bit-equal to another. A pair's distance depends only
on the bits of its two columns, so the expansion changes none. The memory
order is kept because einsum sums a row in the order its operand is laid
out. Distances are not taken from a Gram matrix (|a|^2 + |b|^2 - 2 a.b):
cancellation leaves exactly collinear columns a small nonzero distance
apart, which breaks the zero-height tie order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClusteringError

DEFAULT_CUT_FACTOR = 0.05

# Rows of the distance matrix a rescan reads at once.
_RESCAN_ROWS = 64


@dataclass(frozen=True)
class Merge:
    """One agglomeration step; left/right are node ids, height is the SSE increase."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Ward merge tree: leaves 0..n-1 are features, merge k creates node n+k."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        if len(self.merges) != len(self.leaves) - 1:
            raise ClusteringError("a dendrogram over n leaves needs n-1 merges")

    def to_dict(self) -> dict:
        return {
            "leaves": list(self.leaves),
            "merges": [[m.left, m.right, m.height, m.size] for m in self.merges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ClusterAssignment:
    cluster_of: np.ndarray
    n_clusters: int

    def members(self, cluster: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.cluster_of == cluster)]


def default_cut_threshold(n_samples: int, factor: float = DEFAULT_CUT_FACTOR) -> float:
    """Cut height used throughout: factor (default 0.05) times the sample count."""
    return factor * n_samples


def _initial_distances(points: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Half the squared Euclidean distance between every two rows of
    ``points``, slot ``s`` holding row ``order[s]``, with inf on the diagonal.

    A pair's distance depends only on the bits of its two rows (swapping
    them only negates the difference), so the triangle is computed once
    per pair of distinct rows and expanded; bit-equal rows are +0.0 apart,
    as their difference would give. The distinct rows keep the memory
    order of ``points``: einsum sums a row in the order its operand is laid
    out, and a copy in the other order can change a distance in the last
    bit. ``order`` is applied only in the expansion, for the same reason.
    """
    width = points.shape[1]
    as_bytes = np.ascontiguousarray(points).view(np.dtype((np.void, width * points.itemsize)))
    _, first, inverse = np.unique(as_bytes.ravel(), return_index=True, return_inverse=True)
    distinct = points[first]  # C order
    if abs(points.strides[0]) < abs(points.strides[1]):  # column-major points
        distinct = np.asfortranarray(distinct)
    small = np.zeros((first.size, first.size))
    for i in range(first.size - 1):
        # The slice keeps row i itself so einsum always sees at least two
        # rows: a single-row operand takes a different summation path whose
        # rounding can differ in the last bit.
        diff = distinct[i] - distinct[i:]
        row = 0.5 * np.einsum("ij,ij->i", diff, diff)[1:]
        small[i, i + 1 :] = row
        small[i + 1 :, i] = row
    slots = inverse[order]
    dist = small[np.ix_(slots, slots)]
    np.fill_diagonal(dist, np.inf)
    return dist


def ward_cluster(
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
    tree independent of column order; a cluster's label is its smallest
    member name.

    The columns take their slots in sorted name order, and a merge keeps
    the smaller slot, so slot order stays label order and the tie rule is
    index order: each row caches its exact minimum and the first slot at
    it, and a merge joins the first row at the global minimum with its
    cached slot. After a merge only rows whose cached minimum equalled
    their old distance to either merged cluster are rescanned; every other
    row just compares its cache against its one new distance. The initial
    distances are computed once per pair of distinct columns, in the
    input's memory order, and expanded (see ``_initial_distances``); the
    result is bit for bit that of computing every pair. Rescans read blocks
    of rows, so no n x n array is allocated besides the distance matrix and
    the distinct-column triangle it is expanded from.

    ``check_normalized`` rejects columns whose mean is not ~0; disable it
    to cluster raw coordinates (used by low-level tests).
    """
    z = np.asarray(z_matrix, dtype=float)
    if z.ndim != 2:
        raise ClusteringError("expected a 2-D n_samples x n_features matrix")
    n_samples, n_features = z.shape
    if n_features < 2:
        raise ClusteringError("need at least 2 features to cluster")
    if n_samples < 1:
        raise ClusteringError("need at least 1 sample to cluster")
    if names is None:
        names = tuple(f"f{i:05d}" for i in range(n_features))
    else:
        names = tuple(names)
        if len(names) != n_features:
            raise ClusteringError("one name per feature column required")
        if len(set(names)) != n_features:
            raise ClusteringError("feature names must be unique")
    if not np.isfinite(z).all():
        raise ClusteringError("feature matrix holds non-finite values")
    if check_normalized:
        means = z.mean(axis=0)
        bad = np.flatnonzero(np.abs(means) > 1e-6)
        if bad.size:
            raise ClusteringError(
                f"column {names[bad[0]]!r} is not z-scored (mean {means[bad[0]]:.3g})"
            )

    order = sorted(range(n_features), key=names.__getitem__)
    dist = _initial_distances(z.T, order)  # rows of z.T are the features
    row_min = np.empty(n_features)
    row_best = np.empty(n_features, dtype=np.int64)

    def rescan(rows: np.ndarray) -> None:
        for start in range(0, rows.size, _RESCAN_ROWS):
            block_rows = rows[start : start + _RESCAN_ROWS]
            block = dist[block_rows]
            best = block.argmin(axis=1)
            row_best[block_rows] = best
            row_min[block_rows] = block[np.arange(block_rows.size), best]

    rescan(np.arange(n_features))

    active = np.ones(n_features, dtype=bool)
    size = np.ones(n_features, dtype=np.int64)
    node_id = order

    merges: list[Merge] = []
    for step in range(n_features - 1):
        # i < j: a partner c < i at this height would make row c an earlier
        # row at the global minimum.
        i = int(row_min.argmin())
        j = int(row_best[i])
        height = float(row_min[i])
        merged_size = int(size[i] + size[j])
        merges.append(Merge(node_id[i], node_id[j], height, merged_size))

        others = active.copy()
        others[i] = others[j] = False
        k = np.flatnonzero(others)
        if k.size:
            d_ik, d_jk = dist[i, k], dist[j, k]
            s_i, s_j, s_k = size[i], size[j], size[k]
            updated = (
                (s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * height
            ) / (s_i + s_j + s_k)
            updated = np.maximum(updated, 0.0)
            dist[i, k] = updated
            dist[k, i] = updated
            dist[j, :] = np.inf
            dist[:, j] = np.inf
            row_min[j] = np.inf

            first = int(updated.argmin())
            row_min[i] = updated[first]
            row_best[i] = k[first]

            # Ward is reducible: in exact arithmetic the new distance is never
            # below min(d_ik, d_jk), so a row that is not stale changes only
            # when rounding brings the new value down to its minimum.
            mins, best = row_min[k], row_best[k]
            stale = (mins == d_ik) | (mins == d_jk)
            closer = updated < mins
            tied = updated == mins
            row_min[k] = np.where(closer, updated, mins)
            row_best[k] = np.where(closer, i, np.where(tied, np.minimum(best, i), best))
            rescan(k[stale])
        size[i] = merged_size
        node_id[i] = n_features + step
        active[j] = False

    return Dendrogram(leaves=names, merges=tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, threshold: float) -> ClusterAssignment:
    """Flatten the tree: apply every merge with height strictly below threshold.

    Clusters are the connected components that remain; indices are dense
    and ordered by each cluster's first feature.
    """
    if threshold < 0:
        raise ClusteringError("threshold must be >= 0")
    n = len(dendrogram.leaves)
    parent = list(range(n + len(dendrogram.merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, merge in enumerate(dendrogram.merges):
        if merge.height < threshold:
            node = n + k
            parent[find(merge.left)] = find(node)
            parent[find(merge.right)] = find(node)

    roots: dict[int, int] = {}
    cluster_of = np.empty(n, dtype=np.int64)
    for leaf in range(n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)
        cluster_of[leaf] = roots[root]
    return ClusterAssignment(cluster_of=cluster_of, n_clusters=len(roots))
