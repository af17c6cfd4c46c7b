"""Agglomerative clustering of feature columns with Ward linkage.

Features are points in n_samples-dimensional space; each merge joins the
pair of clusters whose union increases the total within-cluster sum of
squared distances to centroids the least. Merge heights record that SSE
increase directly (not its square root): for z-scored columns it grows
linearly with the number of samples, which is what makes a cut threshold
proportional to the sample count dimensionally sensible.

The merge loop is Müllner's "generic" algorithm (Müllner 2011, §3): every
active row caches its exact minimum distance and the tie key of its best
partner, so a merge step costs O(n) plus a rescan of the few rows whose
cached minimum involved the merged pair, instead of a scan of the whole
matrix. Tie keys are (smaller label, larger label) encoded through each
name's rank in sorted order. The nearest-neighbour-chain algorithm would
be cheaper still, but exactly collinear counters produce many zero-height
ties at once and the chain does not merge them in this tie order, so the
tree (and every cut of it) would depend on how the chain walked.

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


def _initial_distances(points: np.ndarray) -> np.ndarray:
    """Half the squared Euclidean distance between every two rows of
    ``points``, with inf on the diagonal.

    A pair's distance depends only on the bits of its two rows (swapping
    them only negates the difference), so the triangle is computed once
    per pair of distinct rows and expanded; bit-equal rows are +0.0 apart,
    as their difference would give. The distinct rows keep the memory
    order of ``points``: einsum sums a row in the order its operand is laid
    out, and a copy in the other order can change a distance in the last bit.
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
    dist = small[np.ix_(inverse, inverse)]
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
    member name and the merged cluster keeps the smaller slot index.

    Each merge is picked from per-row caches (exact row minimum, smallest
    tie key among that row's partners at the minimum) rather than from the
    full matrix. After a merge only rows whose cached minimum equalled
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

    dist = _initial_distances(z.T)  # rows of z.T are the features

    # rank[s] is the position of slot s's label in sorted(names); a pair's
    # tie key lo * n_features + hi orders pairs exactly as (smaller label,
    # larger label).
    slot_of_rank = np.array(
        sorted(range(n_features), key=names.__getitem__), dtype=np.int64
    )
    rank = np.empty(n_features, dtype=np.int64)
    rank[slot_of_rank] = np.arange(n_features)
    row_min = np.empty(n_features)
    row_key = np.empty(n_features, dtype=np.int64)

    def pair_keys(rank_a, rank_b):
        return np.minimum(rank_a, rank_b) * n_features + np.maximum(rank_a, rank_b)

    def rescan(rows: np.ndarray) -> None:
        for start in range(0, rows.size, _RESCAN_ROWS):
            block_rows = rows[start : start + _RESCAN_ROWS]
            block = dist[block_rows]
            lows = block.min(axis=1)
            r, c = np.nonzero(block == lows[:, None])
            keys = pair_keys(rank[block_rows[r]], rank[c])
            row_starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            row_min[block_rows] = lows
            row_key[block_rows] = np.minimum.reduceat(keys, row_starts)

    rescan(np.arange(n_features))

    active = np.ones(n_features, dtype=bool)
    size = np.ones(n_features, dtype=np.int64)
    node_id = list(range(n_features))

    merges: list[Merge] = []
    for step in range(n_features - 1):
        height = float(row_min.min())
        key = int(row_key[row_min == height].min())
        left_slot = int(slot_of_rank[key // n_features])
        right_slot = int(slot_of_rank[key % n_features])
        i, j = sorted((left_slot, right_slot))
        merged_size = int(size[i] + size[j])
        merges.append(Merge(node_id[left_slot], node_id[right_slot], height, merged_size))

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

            rank[i] = min(rank[i], rank[j])
            slot_of_rank[rank[i]] = i
            new_keys = pair_keys(rank[k], rank[i])
            low = updated.min()
            row_min[i] = low
            row_key[i] = new_keys[updated == low].min()

            # Ward is reducible: in exact arithmetic the new distance is never
            # below min(d_ik, d_jk), so a row that is not stale changes only
            # when rounding brings the new value down to its minimum.
            mins, keys = row_min[k], row_key[k]
            stale = (mins == d_ik) | (mins == d_jk)
            closer = updated < mins
            tied = updated == mins
            row_min[k] = np.where(closer, updated, mins)
            row_key[k] = np.where(
                closer, new_keys, np.where(tied, np.minimum(keys, new_keys), keys)
            )
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
