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

The initial distances are computed once per pair of distinct columns.
Counters of one family counted at power-of-two scales, and the products
and ratios built from them, z-score to bit-equal columns; in the synthetic
campaigns about half the leaves are bit-equal to another. The triangle
comes from one Gram product, d = |a|^2/2 + |b|^2/2 - a.b, with the near
pairs computed again from their difference. For columns of w samples, u
the unit roundoff and gamma_w = w u / (1 - w u), each of the two norms and
the inner product is computed within gamma_w h of its exact value, where
h = (|a|^2 + |b|^2)/2 >= |a.b| (Higham 2002, §3.1), plus w u tiny for
products that underflow (tiny the smallest normal float), at most w u h
while the norms are normal. With the two roundings that combine them, the
Gram distance is within eps h of the exact one, eps = gamma_(4w+6). Where
two columns are nearly collinear, d is far below h and that error swamps
it: cancellation would leave exactly collinear columns a small nonzero
distance apart and break the zero-height tie order. So a pair is computed
again, by subtracting the two columns and summing the squares with einsum
in the input's memory order, when its Gram value is not finite or at most
tau h, tau = 2 eps / rho, or when either squared norm is not finite or is
below 2 tiny / tau. Every pair kept from the product then has d > tau h,
so it is within rho = 2^-32 of the exact distance, relative (the factor 2
covers the rounding of h), and above 2 tiny: no kept pair is 0 apart or
under the collapse guard below, by either route. A recomputed pair
depends only on the bits of its two columns, which is why the memory order
is kept (einsum sums a row in the order its operand is laid out); a kept
pair can differ in its last bits from one BLAS build to another. On
columns of 1,334 samples tau is 5.1e-3; on 200, 7.7e-4.

Bit-equal columns are 0 apart, and the loop's first merges join them: each
group merges completely into its first slot, member by member in slot
order, the groups in order of first slot. Those zero-height merges are
collapsed before the loop, one Lance-Williams chain per group over the
distinct columns, and the loop then runs over one slot per distinct column
with the same distances, bit for bit. The guard is that every two distinct
columns are at least the smallest normal float apart; then no other pair
reaches height 0 while the groups merge. Columns that differ only in the
sign of a zero, or by an amount whose square underflows, fail it, and the
distances are expanded to every pair of columns for the loop to merge them
all.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ClusteringError

DEFAULT_CUT_FACTOR = 0.05

# Rows read at once: of an array's points while they are grouped and
# copied, and of the distance matrix in a rescan and while it is put in
# slot order.
_BLOCK_ROWS = 64

# Bytes of working arrays the distance triangle holds at once: a row
# block's near-pair mask and indices, then the difference rows of its near
# pairs (at least two rows). Enough that few numpy calls are made, small
# enough to stay in a core's private cache.
_DIFF_BYTES = 512 * 1024

# A distance kept from the Gram product is within this of the exact
# distance, relative (see the module docstring).
_GRAM_RTOL = 2.0**-32


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
    """The cluster of each feature column, ``cluster_of``, an id in
    ``0..n_clusters-1``; a cluster may be empty."""

    cluster_of: np.ndarray
    n_clusters: int

    def __post_init__(self):
        ids = np.asarray(self.cluster_of)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ClusteringError("cluster ids must be a 1-D integer array")
        outside = np.flatnonzero((ids < 0) | (ids >= self.n_clusters))
        if outside.size:
            raise ClusteringError(f"cluster id {ids[outside[0]]} of column {outside[0]} lies "
                                  f"outside 0..{self.n_clusters - 1}")
        object.__setattr__(self, "cluster_of", ids)

    def members(self, cluster: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.cluster_of == cluster)]


def default_cut_threshold(n_samples: int, factor: float = DEFAULT_CUT_FACTOR) -> float:
    """Cut height used throughout: factor (default 0.05) times the sample count."""
    return factor * n_samples


def _near_rule(width: int) -> tuple[float, float]:
    """The recompute rule for rows of ``width`` values: ``tau``, and the
    smallest squared norm the Gram product is trusted with (see the module
    docstring)."""
    unit = np.finfo(float).eps / 2
    k = 4 * width + 6
    tau = 2 * (k * unit / (1 - k * unit)) / _GRAM_RTOL
    return tau, 2 * np.finfo(float).tiny / tau


def _exact_pairs(small: np.ndarray, distinct: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """Write ``small[i, j]`` by subtracting the two rows and summing the
    squares with einsum, a block of pairs at a time.

    The difference rows are laid out in ``distinct``'s memory order, as
    einsum sums a row in the order its operand is laid out, and a block
    holds at least two rows: a single-row operand takes a different
    summation path whose rounding can differ in the last bit. A pair's
    value then depends only on the bits of its two rows.
    """
    column_major = not distinct.flags.c_contiguous

    def rows_of(index: np.ndarray) -> np.ndarray:
        if column_major:  # gather columns of the transpose, keeping the layout
            return np.take(distinct.T, index, axis=1).T
        return np.take(distinct, index, axis=0)

    pairs = max(2, _DIFF_BYTES // (2 * distinct.itemsize * max(distinct.shape[1], 1)))
    for start in range(0, i.size, pairs):
        a, b = i[start : start + pairs], j[start : start + pairs]
        if a.size == 1:
            a, b = a.repeat(2), b.repeat(2)
        diff = rows_of(a)
        diff -= rows_of(b)
        small[a, b] = 0.5 * np.einsum("ij,ij->i", diff, diff)


def _row_blocks(points) -> Iterator[np.ndarray]:
    """The rows of ``points`` in order, a block at a time: views of
    ``_BLOCK_ROWS`` rows of a 2-D array, or the blocks a row source such as
    ``FeatureMatrix.zscored_rows()`` gives."""
    if isinstance(points, np.ndarray):
        return (points[lo : lo + _BLOCK_ROWS] for lo in range(0, points.shape[0], _BLOCK_ROWS))
    return iter(points)


def _group_rows(
    points, check: Callable[[int, np.ndarray], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first row of each distinct row of ``points``, in
    order, and the index of each row's distinct row, from one pass over
    its blocks; ``check(start, block)`` sees each block first.

    Rows are grouped by their bytes, so ``-0.0`` and ``+0.0`` tell two rows
    apart, and the distinct rows are numbered in order of first occurrence.
    The grouping's keys (one bytes object per distinct row) are freed on
    return.
    """
    seen: dict[bytes, int] = {}
    first_of = np.empty(points.shape[0], dtype=np.intp)
    start = 0
    for block in _row_blocks(points):
        if check is not None:
            check(start, block)
        for k, row in enumerate(block, start):
            first_of[k] = seen.setdefault(row.tobytes(), k)
        start += block.shape[0]
    del seen
    return np.unique(first_of, return_inverse=True)


def _copy_rows(points, first: np.ndarray) -> np.ndarray:
    """The rows ``first`` (ascending) of ``points``, copied block by block
    in the memory order of ``points``: column-major for a 2-D array laid
    out so, else row-major, as a row source's blocks are."""
    column_major = (isinstance(points, np.ndarray)
                    and abs(points.strides[0]) < abs(points.strides[1]))
    rows = np.empty((first.size, points.shape[1]), order="F" if column_major else "C")
    stop = 0
    for block in _row_blocks(points):
        start, stop = stop, stop + block.shape[0]
        lo, hi = np.searchsorted(first, [start, stop])
        rows[lo:hi] = block[first[lo:hi] - start]
    return rows


def _distinct_distances(
    points, check: Callable[[int, np.ndarray], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Half the squared Euclidean distance between every two distinct rows
    of ``points``, with inf on the diagonal, and the index of each row's
    distinct row.

    ``points`` is a 2-D array or a row source (see ``_row_blocks``), read
    only a block of rows at a time: once by ``_group_rows``, which hands
    each block to ``check``, and once more to copy the distinct rows, in
    the memory order of ``points``, after the grouping's keys are freed.

    The triangle is taken from one Gram product written into the result,
    ``|a|^2/2 + |b|^2/2 - a.b``, and every near pair (see the module
    docstring) is computed again by ``_exact_pairs``: those keep the bits
    of subtracting the two rows, so rows of equal value (zero signs aside)
    are +0.0 apart and every pair under the smallest normal float is found
    as the differences give it. The near pairs are found one block of rows
    at a time over the upper triangle, which is then mirrored. Besides the
    result and the inverse, this allocates the grouping's keys (about the
    distinct rows' size, freed before the copy), the distinct rows, their
    norms and working arrays of about ``_DIFF_BYTES``, and one block of
    rows (a row source's, or ``_BLOCK_ROWS`` gathered rows) while the rows
    are read: never a copy of the whole input, and no second n x n array.
    """
    first, inverse = _group_rows(points, check)
    distinct = _copy_rows(points, first)
    n, width = distinct.shape
    small = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # such pairs are recomputed
        np.dot(distinct, distinct.T, out=small)
        norms = np.einsum("ij,ij->i", distinct, distinct)
    half = 0.5 * norms
    tau, smallest_norm = _near_rule(width)
    untrusted = ~((norms >= smallest_norm) & (norms < np.inf))
    # A block's bound (8 bytes an entry), masks and near-pair indices (up
    # to 16 bytes an entry) stay within _DIFF_BYTES.
    rows = max(1, _DIFF_BYTES // (32 * max(n, 1)))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = small[lo:hi, lo:]
        bound = half[lo:hi, None] + half[lo:]
        with np.errstate(invalid="ignore"):  # inf - inf where a norm overflows
            np.subtract(bound, block, out=block)
        bound *= tau
        near = ~((bound < block) & (block < np.inf))  # also catches NaN
        del bound
        near[untrusted[lo:hi]] = True
        near[:, untrusted[lo:]] = True
        near &= np.arange(lo, n) > np.arange(lo, hi)[:, None]
        i, j = np.nonzero(near)
        del near
        _exact_pairs(small, distinct, lo + i, lo + j)
        # The rows' finished upper triangle, mirrored into their lower part.
        lower = np.arange(hi) < np.arange(lo, hi)[:, None]
        np.copyto(small[lo:hi, :hi], small[:hi, lo:hi].T, where=lower)
    np.fill_diagonal(small, np.inf)
    return small, inverse


def _collapse_bit_equal(
    small: np.ndarray, slots: np.ndarray, order: Sequence[int]
) -> tuple[list[Merge], np.ndarray, np.ndarray, list[int]] | None:
    """The zero-height merges of the generic loop, done group by group.

    ``slots[s]`` is the distinct column of the leaf in slot ``s`` (slots in
    name order). When every two distinct columns are at least the smallest
    normal float apart, the loop's first merges join the bit-equal leaves:
    the global minimum is 0 and its first row is the first slot of the group
    that starts earliest, so each group merges completely into its first
    slot, member by member in slot order, and the groups go in order of
    first slot. Every other cluster's distance to the group is then the
    loop's Lance-Williams chain with height 0, one vector operation per
    member over the distinct columns: each distinct column is one active
    cluster at every step, and all members of a group share their row.
    A chain value is at least the smaller of its two inputs up to rounding,
    and the weights make up for the rounding, so no value falls to 0 and no
    other pair is merged at height 0 before the groups are done.

    Returns the merges, the distances between the remaining clusters (one
    per distinct column, in slot order, inf on the diagonal: ``small``
    itself, permuted in place), their sizes and node ids; or None when the
    guard fails. Each distinct column is one remaining cluster, so the
    slot order is a permutation of ``small``'s rows.
    """
    if small.size and small.min() < np.finfo(float).tiny:
        return None
    n = slots.size
    _, first, counts = np.unique(slots, return_index=True, return_counts=True)
    by_column = np.split(np.argsort(slots, kind="stable"), np.cumsum(counts)[:-1])
    firsts = np.sort(first)
    columns = slots[firsts]  # the distinct column of each remaining cluster
    size = np.ones(columns.size, dtype=np.int64)  # by distinct column
    node_of = {}
    merges: list[Merge] = []
    for u in columns[counts[columns] > 1].tolist():
        members = by_column[u].tolist()
        others = np.r_[0:u, u + 1 : columns.size]
        # The loop's update with i the group (size t), j its next member
        # and height 0: ((t + s_k) d + (1 + s_k) d0 - s_k 0.0) / (t + 1 + s_k)
        # clipped at 0. The sizes are exact as floats, subtracting +0.0
        # and the clip (the guard keeps every value positive) change no
        # bit, and the second term is the same at every step.
        d0 = small[u, others]
        s_k = size[others].astype(float)
        fixed = (1 + s_k) * d0
        d = d0
        node = order[members[0]]
        for t, slot in enumerate(members[1:], start=1):
            weight = t + s_k
            d = (weight * d + fixed) / (weight + 1)
            merges.append(Merge(node, order[slot], 0.0, t + 1))
            node = n + len(merges) - 1
        small[u, others] = d
        small[others, u] = d
        size[u] = len(members)
        node_of[u] = node
    node_id = [node_of.get(u, order[s]) for u, s in zip(columns.tolist(), firsts.tolist())]
    _permute_in_place(small, columns)
    return merges, small, size[columns], node_id


def _permute_in_place(square: np.ndarray, perm: np.ndarray) -> None:
    """Turn the square C-ordered ``square`` into ``square[np.ix_(perm,
    perm)]`` without a second copy of it: each block of ``_BLOCK_ROWS``
    rows gathers its columns, then rows move along the cycles of ``perm``
    with one row of scratch. Only values are copied, so every bit is kept."""
    for lo in range(0, perm.size, _BLOCK_ROWS):
        block = square[lo : lo + _BLOCK_ROWS]
        block[:] = block[:, perm]
    done = perm == np.arange(perm.size)
    scratch = np.empty(perm.size)
    for start in np.flatnonzero(~done).tolist():
        if done[start]:
            continue
        scratch[:] = square[start]
        at = start
        while (source := int(perm[at])) != start:
            square[at] = square[source]
            done[at] = True
            at = source
        square[at] = scratch
        done[at] = True


def _merge_loop(
    dist: np.ndarray, size: np.ndarray, node_id: list[int], n_leaves: int, step0: int
) -> list[Merge]:
    """Müllner's generic loop over the clusters in ``dist``'s slots (slot
    order is label order), numbering new nodes from ``n_leaves + step0``.
    ``dist`` (inf on the diagonal), ``size`` and ``node_id`` are consumed."""
    n = dist.shape[0]
    row_min = np.empty(n)
    row_best = np.empty(n, dtype=np.int64)

    def rescan(rows: np.ndarray) -> None:
        for start in range(0, rows.size, _BLOCK_ROWS):
            block_rows = rows[start : start + _BLOCK_ROWS]
            block = dist[block_rows]
            best = block.argmin(axis=1)
            row_best[block_rows] = best
            row_min[block_rows] = block[np.arange(block_rows.size), best]

    rescan(np.arange(n))
    active = np.ones(n, dtype=bool)

    merges: list[Merge] = []
    for step in range(step0, step0 + n - 1):
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
        node_id[i] = n_leaves + step
        active[j] = False
    return merges


def _check_finite(small: np.ndarray, inverse: np.ndarray, names: Sequence[str]) -> None:
    """Raise naming the first two columns, in input order, whose distance
    in ``small`` (inf on the diagonal) overflows: finite input near the
    largest float can overflow it, and the loop would then merge a cluster
    with itself at height inf and compute NaN heights. One reduction reads
    the distances; only a failing check reads them again, a row at a time."""
    np.fill_diagonal(small, 0.0)
    if not np.isfinite(small.max()):  # NaN when any distance is
        for i, row in enumerate(inverse.tolist()):
            bad = np.flatnonzero(~np.isfinite(small[row, inverse]))
            if bad.size:
                raise ClusteringError(f"distance between columns {names[i]!r} and "
                                      f"{names[bad[0]]!r} overflows: values too large")
    np.fill_diagonal(small, np.inf)


def ward_cluster(
    z_matrix,
    names: Sequence[str] | None = None,
    *,
    check_normalized: bool = True,
) -> Dendrogram:
    """Cluster the columns of a z-scored sample matrix bottom-up.

    ``z_matrix`` is a 2-D n_samples x n_features array, or the features
    given as rows by a row source: an object, not an array, with ``shape``
    (n_features, n_samples) whose iteration gives the rows in blocks, such
    as ``FeatureMatrix.zscored_rows()``, which z-scores a block of columns
    at a time so that the whole z-scored matrix is never held.

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
    distances are computed once per pair of distinct columns, from one Gram
    product with the near pairs computed again from their differences (see
    ``_distinct_distances``). Groups of bit-equal columns are merged first,
    each in one pass (see ``_collapse_bit_equal``), and the loop goes on
    over one slot per distinct column; when two distinct columns are closer
    than the smallest normal float, the distances are expanded to every
    pair of columns and the loop does all the merges. Either way the result
    is, given the triangle, bit for bit that of the loop over every pair.
    The input is not modified, and it is not copied. The features are read
    a block of rows at a time, twice: once to check them and group the
    bit-equal ones by their bytes, and once to copy the distinct ones.
    Besides one block of rows, Ward holds the grouping's keys (about the
    distinct columns' size) until the grouping ends; then one copy of the
    distinct columns with working arrays of about ``_DIFF_BYTES`` while the
    triangle is built; and one distance matrix over the distinct columns,
    which the collapse puts into slot order in place, with blocks of
    ``_BLOCK_ROWS`` distance rows while a rescan runs. Only when the groups
    cannot be collapsed is a second matrix, over every pair of columns,
    made. The finiteness check reads each block's minimum and maximum,
    which are NaN when any value is; finite values whose distance
    overflows are rejected too (see ``_check_finite``).

    ``check_normalized`` rejects columns whose mean is not ~0; disable it
    to cluster raw coordinates (used by low-level tests).
    """
    if isinstance(z_matrix, np.ndarray) or not hasattr(z_matrix, "shape"):
        z = np.asarray(z_matrix, dtype=float)
        if z.ndim != 2:
            raise ClusteringError("expected a 2-D n_samples x n_features matrix")
        points = z.T  # rows of z.T are the features
    else:
        points = z_matrix
    n_features, n_samples = points.shape
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
    not_zscored: list[tuple[int, float]] = []  # the first column whose mean is not ~0

    def check(start: int, block: np.ndarray) -> None:
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise ClusteringError("feature matrix holds non-finite values")
        if check_normalized and not not_zscored:
            means = block.mean(axis=1)
            bad = np.flatnonzero(np.abs(means) > 1e-6)
            if bad.size:
                not_zscored.append((start + int(bad[0]), float(means[bad[0]])))

    small, inverse = _distinct_distances(points, check)
    if not_zscored:
        column, mean = not_zscored[0]
        raise ClusteringError(f"column {names[column]!r} is not z-scored (mean {mean:.3g})")
    order = sorted(range(n_features), key=names.__getitem__)
    _check_finite(small, inverse, names)
    slots = inverse[order]
    collapsed = _collapse_bit_equal(small, slots, order)
    if collapsed is None:
        np.fill_diagonal(small, 0.0)  # bit-equal columns are +0.0 apart
        dist = small[np.ix_(slots, slots)]
        np.fill_diagonal(dist, np.inf)
        merges = []
        size = np.ones(n_features, dtype=np.int64)
        node_id = list(order)
    else:
        merges, dist, size, node_id = collapsed
    merges += _merge_loop(dist, size, node_id, n_features, len(merges))
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
