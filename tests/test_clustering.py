import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcpower import clustering
from pmcpower.clustering import (
    _DIFF_BYTES,
    _GRAM_RTOL,
    _collapse_bit_equal,
    _distinct_distances,
    _exact_pairs as exact_pairs,
    _merge_loop,
    _near_rule,
    cut_dendrogram,
    default_cut_threshold,
    ward_cluster,
)
from pmcpower import features as ft
from pmcpower.errors import ClusteringError
from pmcpower.synth import collinear_config, generate

from oracles import (
    dendrogram_leafsets,
    distinct_distances_reference,
    ward_brute_force,
    ward_reference,
)


def one_dim_tree():
    # 1-D analog: four features at coordinates 0, 0.1, 5, 5.1 (single sample)
    z = np.array([[0.0, 0.1, 5.0, 5.1]])
    return ward_cluster(z, names=list("abcd"), check_normalized=False)


class TestWardCluster:
    def test_one_dim_heights(self):
        tree = one_dim_tree()
        heights = sorted(m.height for m in tree.merges)
        assert heights[0] == pytest.approx(0.005, rel=1e-9)
        assert heights[1] == pytest.approx(0.005, rel=1e-9)
        # (2*2/4) * (5.05 - 0.05)^2 = 25
        assert heights[2] == pytest.approx(25.0, rel=1e-9)

    def test_one_dim_structure(self):
        tree = one_dim_tree()
        leafsets = dendrogram_leafsets(tree)
        low = {frozenset(pair) for pair, _, h in
               [(l | r, None, h) for l, r, h in leafsets if h < 1.0]}
        assert frozenset({0, 1}) in low
        assert frozenset({2, 3}) in low

    def test_identical_columns_merge_at_zero(self, rng):
        col = rng.normal(size=6)
        col = (col - col.mean()) / col.std()
        z = np.column_stack([col, col, rng.normal(size=6)])
        z[:, 2] = (z[:, 2] - z[:, 2].mean()) / z[:, 2].std()
        tree = ward_cluster(z, names=["a", "b", "c"])
        assert tree.merges[0].height == 0.0
        assert {tree.merges[0].left, tree.merges[0].right} == {0, 1}

    def test_two_features_one_merge(self, rng):
        z = rng.normal(size=(5, 2))
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        tree = ward_cluster(z)
        assert len(tree.merges) == 1

    def test_rejects_non_zscored(self, rng):
        z = rng.normal(size=(5, 3)) + 10.0
        with pytest.raises(ClusteringError, match="not z-scored"):
            ward_cluster(z)

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(20):
            n_samples = int(rng.integers(2, 7))
            n_features = int(rng.integers(2, 9))
            z = rng.normal(size=(n_samples, n_features))
            names = [f"f{i}" for i in range(n_features)]
            mine = dendrogram_leafsets(ward_cluster(z, names, check_normalized=False))
            reference = ward_brute_force(z, names)
            assert len(mine) == len(reference)
            for (gl, gr, gh), (el, er, eh) in zip(mine, reference):
                assert {gl, gr} == {el, er}
                assert gh == pytest.approx(eh, rel=1e-9, abs=1e-12)

    def test_permutation_invariant_partition(self, rng):
        n_samples, n_features = 8, 6
        z = rng.normal(size=(n_samples, n_features))
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        names = [f"f{i}" for i in range(n_features)]
        tree = ward_cluster(z, names)
        cut = cut_dendrogram(tree, default_cut_threshold(n_samples))
        partition = {
            frozenset(names[i] for i in cut.members(c)) for c in range(cut.n_clusters)
        }
        perm = rng.permutation(n_features)
        tree_p = ward_cluster(z[:, perm], [names[i] for i in perm])
        cut_p = cut_dendrogram(tree_p, default_cut_threshold(n_samples))
        partition_p = {
            frozenset(names[perm[i]] for i in cut_p.members(c))
            for c in range(cut_p.n_clusters)
        }
        assert partition == partition_p

    def test_heights_nonnegative_and_sizes(self, rng):
        z = rng.normal(size=(6, 7))
        tree = ward_cluster(z, check_normalized=False)
        assert all(m.height >= 0 for m in tree.merges)
        assert tree.merges[-1].size == 7

    def test_dump_round_trips(self, rng):
        z = rng.normal(size=(4, 3))
        tree = ward_cluster(z, ["x", "y", "z"], check_normalized=False)
        doc = tree.to_dict()
        assert doc["leaves"] == ["x", "y", "z"]
        assert len(doc["merges"]) == 2


def _zscore(z):
    std = z.std(axis=0)
    return (z - z.mean(axis=0)) / np.where(std > 0, std, 1.0)


def _tied_matrix(rng, n_samples, n_features):
    """Random columns, about a third of them overwritten by exact duplicates
    or exact multiples of others: many merges at height zero at once."""
    z = rng.normal(size=(n_samples, n_features))
    n_copies = n_features // 3
    src = rng.integers(0, n_features, n_copies)
    dst = rng.integers(0, n_features, n_copies)
    z[:, dst] = z[:, src] * rng.choice([1.0, 2.0, 8.0, 0.5], n_copies)
    return _zscore(z)


def _collinear_matrix(seed):
    """The pipeline's z-scored matrix and names on a collinear-profile
    campaign: many bit-equal and nearly collinear columns."""
    ds, _ = generate(collinear_config(n_runs=60, noise_sigma=0.02, seed=seed))
    matrix = ft.build_matrix(ds, ft.generate_combined(ds, ft.invert_negative(ds)))
    return matrix.zscored(), matrix.names()


def reference_given_triangle(z, names, **kwargs):
    """``ward_reference``'s merge loop from ``ward_cluster``'s own
    distinct-column triangle, expanded to every pair of columns through
    ``inverse``: the collapse and the merge loop compared alone."""
    small, inverse = _distinct_distances(np.asarray(z, dtype=float).T)
    np.fill_diagonal(small, 0.0)  # bit-equal columns are +0.0 apart
    return ward_reference(z, names, distances=small[np.ix_(inverse, inverse)], **kwargs)


class TestWardMatchesReference:
    """The cached-minimum merge loop against the frozen full-scan loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_features", [2, 3, 5, 17, 64, 150, 300])
    def test_random_and_tied_columns(self, seed, n_features):
        rng = np.random.default_rng(1000 * seed + n_features)
        n_samples = int(rng.integers(3, 40))
        names = [f"c{int(i)}" for i in rng.permutation(n_features)]
        random_cols = _zscore(rng.normal(size=(n_samples, n_features)))
        coarse = _zscore(np.round(rng.normal(size=(n_samples, n_features)), 1))
        for z in (random_cols, coarse, _tied_matrix(rng, n_samples, n_features)):
            assert ward_cluster(z, names).to_json() == reference_given_triangle(z, names).to_json()

    def test_fortran_ordered_raw_coordinates(self, rng):
        z = np.asfortranarray(_tied_matrix(rng, 9, 120) * 3.0 + 1.0)
        names = [f"x{i:03d}" for i in range(120)]
        got = ward_cluster(z, names, check_normalized=False).to_json()
        assert got == reference_given_triangle(z, names, check_normalized=False).to_json()

    @pytest.mark.parametrize("n_samples", [7, 199, 200])
    def test_pipeline_layout_tied_columns(self, n_samples):
        # The pipeline z-scores a Fortran-ordered matrix, so the features are
        # C-contiguous rows of z.T.
        rng = np.random.default_rng(n_samples)
        n_features = int(rng.integers(150, 301))
        z = np.asfortranarray(_tied_matrix(rng, n_samples, n_features))
        names = [f"c{int(i)}" for i in rng.permutation(n_features)]
        assert ward_cluster(z, names).to_json() == reference_given_triangle(z, names).to_json()

    @pytest.mark.parametrize("name_order", ["sorted", "reversed", "shuffled"])
    def test_all_columns_bit_equal(self, rng, name_order):
        # Every merge is at height 0, so the tree is the tie rule alone.
        col = _zscore(rng.normal(size=(11, 1)))
        z = np.repeat(col, 40, axis=1)
        names = [f"c{i:02d}" for i in range(40)]
        if name_order == "reversed":
            names.reverse()
        elif name_order == "shuffled":
            names = [names[i] for i in rng.permutation(40)]
        tree = ward_cluster(z, names)
        assert all(m.height == 0.0 for m in tree.merges)
        assert tree.to_json() == reference_given_triangle(z, names).to_json()

    def test_all_columns_distinct(self, rng):
        z = np.asfortranarray(_zscore(rng.normal(size=(30, 120))))
        assert np.unique(z.T, axis=0).shape[0] == 120
        names = [f"c{i:03d}" for i in range(120)]
        assert ward_cluster(z, names).to_json() == reference_given_triangle(z, names).to_json()

    def test_columns_differing_only_in_zero_sign(self, rng):
        # Equal values, different bytes: every column is its own distinct row,
        # and the six copies of base are still 0.0 apart.
        base = np.array([0.0, 1.5, 0.0, -2.0, 0.0, 0.5])
        zeros = np.flatnonzero(base == 0.0)
        copies = np.repeat(base[:, None], 6, axis=1)
        for col in range(1, 6):
            flipped = zeros[[(col >> bit) & 1 == 1 for bit in range(zeros.size)]]
            copies[flipped, col] = -0.0
        z = np.column_stack([copies, rng.normal(size=(6, 3))])
        assert np.unique(z.T.view(np.int64), axis=0).shape[0] == 9
        names = [f"r{i}" for i in range(9)]
        tree = ward_cluster(z, names, check_normalized=False)
        assert [m.height for m in tree.merges[:5]] == [0.0] * 5
        expected = reference_given_triangle(z, names, check_normalized=False)
        assert tree.to_json() == expected.to_json()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_collinear_profile_pipeline_matrix(self, seed):
        z, names = _collinear_matrix(seed)
        tree = ward_cluster(z, names)
        assert sum(m.height == 0.0 for m in tree.merges) > 10
        assert tree.to_json() == reference_given_triangle(z, names).to_json()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_collinear_profile_tree_matches_exact_distances(self, seed):
        # The Gram product changes heights in their last bits at most: the
        # merge topology and the cut at the default threshold are those of
        # the loop over every pair's difference.
        z, names = _collinear_matrix(seed)
        tree, exact = ward_cluster(z, names), ward_reference(z, names)
        assert [(m.left, m.right, m.size) for m in tree.merges] == [
            (m.left, m.right, m.size) for m in exact.merges]
        assert [m.height for m in tree.merges] == pytest.approx(
            [m.height for m in exact.merges], rel=1e-9)
        threshold = default_cut_threshold(z.shape[0])
        got, expected = cut_dendrogram(tree, threshold), cut_dendrogram(exact, threshold)
        assert got.n_clusters == expected.n_clusters
        assert got.cluster_of.tolist() == expected.cluster_of.tolist()

    def test_rounding_tie_with_a_non_stale_row_minimum(self):
        # Ten leaves 1.69 apart up to rounding, at the distances their
        # differences give; the Gram product rounds them otherwise, so the
        # loop is fed them directly. Leaf 0's cached nearest is leaf 8 until
        # node 16 forms (slot 1); its Lance-Williams distance to node 16
        # rounds to exactly that cached minimum while row 0 is not stale, so
        # only the tie rule (the smaller slot) makes node 16 its partner, as
        # the full scan does.
        z = np.full((12, 10), 0.1)
        z[range(10), range(10)] = [
            1.4000000000000006, 1.3999999999999997, 1.4000000000000001, 1.4000000000000001,
            1.4000000000000001, 1.4000000000000001, 1.4000000000000001, 1.4000000000000001,
            1.4000000000000004, 1.4000000000000001,
        ]
        names = [f"c{i}" for i in range(10)]  # slot order is column order
        small, inverse = distinct_distances_reference(z.T)
        dist = small[np.ix_(inverse, inverse)]
        merges = _merge_loop(dist.copy(), np.ones(10, dtype=np.int64), list(range(10)), 10, 0)
        assert (merges[-2].left, merges[-2].right) == (0, 16)
        expected = ward_reference(z, names, check_normalized=False, distances=dist)
        assert merges == list(expected.merges)

    def test_rejects_no_samples(self):
        with pytest.raises(ClusteringError, match="at least 1 sample"):
            ward_cluster(np.empty((0, 3)), check_normalized=False)

    def test_rejects_non_finite(self):
        z = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0]])
        with pytest.raises(ClusteringError, match="non-finite"):
            ward_cluster(z, check_normalized=False)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 2), (1, 0), (2, 1)])
    def test_rejects_each_non_finite_kind(self, value, at):
        z = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [-1.0, 5.0, 4.0]])
        z[at] = value
        with pytest.raises(ClusteringError, match="^feature matrix holds non-finite values$"):
            ward_cluster(z, check_normalized=False)

    def test_rejects_an_overflowing_distance(self):
        # Finite values whose distance overflows: the loop merged leaf 0
        # with itself at height inf, then at height NaN.
        z = np.array([[1e160, -1e160, 0.0], [2e160, 1.0, 3.0]])
        with pytest.raises(ClusteringError,
                           match="^distance between columns 'f00000' and 'f00001' overflows"):
            ward_cluster(z, check_normalized=False)
        # The first pair in input order is named, copies aside.
        with pytest.raises(ClusteringError, match="'a' and 'c' overflows"):
            ward_cluster(z[:, [2, 0, 0, 1]], ["a", "c", "d", "b"], check_normalized=False)


def _takes_collapse(z, names) -> bool:
    """Whether ward_cluster merges z's bit-equal columns before its loop."""
    order = sorted(range(len(names)), key=names.__getitem__)
    small, inverse = _distinct_distances(np.asarray(z, dtype=float).T)
    return _collapse_bit_equal(small, inverse[order], order) is not None


@st.composite
def grouped_columns(draw):
    """A z-scored matrix of groups of 2-5 columns that z-score to the same
    bits (copies, or copies scaled by a power of two), beside single
    columns, under names whose sorted order interleaves the groups."""
    n_samples = draw(st.integers(2, 12))
    n_distinct = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_samples, n_distinct))
    if draw(st.booleans()):
        raw = np.round(raw, 1)  # coarse values: rounding ties between groups
    columns = []
    for col in range(n_distinct):
        size = draw(st.sampled_from([1, 2, 3, 4, 5]))
        for _ in range(size):
            columns.append(raw[:, col] * 2.0 ** draw(st.integers(-3, 3)))
    values = np.column_stack(columns)
    if draw(st.booleans()):
        values = np.asfortranarray(values)  # the layout build_matrix gives
    std = values.std(axis=0)
    z = (values - values.mean(axis=0)) / np.where(std > 0, std, 1.0)
    names = [f"c{int(i):02d}" for i in rng.permutation(z.shape[1])]
    return z, names


class TestWardCollapse:
    """Groups of bit-equal columns merged in one pass against the frozen
    full-scan loop."""

    @settings(max_examples=150, deadline=None)
    @given(case=grouped_columns())
    def test_groups_match_reference(self, case):
        z, names = case
        if z.shape[1] < 2:
            return
        assert ward_cluster(z, names).to_json() == reference_given_triangle(z, names).to_json()

    @settings(max_examples=60, deadline=None)
    @given(case=grouped_columns())
    def test_collapse_taken_when_columns_are_apart(self, case):
        z, names = case
        distinct = np.unique(z.T, axis=0)
        gaps = [
            0.5 * np.sum((a - b) ** 2) for i, a in enumerate(distinct) for b in distinct[i + 1 :]
        ]
        if z.shape[1] >= 2 and min(gaps, default=np.inf) >= np.finfo(float).tiny:
            assert _takes_collapse(z, names)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        copies=st.integers(2, 5),
        flips=st.integers(1, 4),
        underflow=st.booleans(),
    )
    def test_distinct_columns_zero_apart_take_the_fallback(self, seed, copies, flips, underflow):
        # Columns that differ only in the sign of a zero, or by an amount
        # whose square underflows, are distinct yet +0.0 apart: the loop
        # must merge them, in its own order, beside the bit-equal groups.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=8)
        base[[1, 4]] = 0.0
        columns = [base] * copies
        for k in range(flips):
            other = base.copy()
            other[[1, 4][k % 2]] = 1e-300 * (k + 1) if underflow else -0.0
            columns.append(other)
        columns += list(rng.normal(size=(3, 8)))
        z = np.column_stack(columns)
        names = [f"r{int(i):02d}" for i in rng.permutation(z.shape[1])]
        assert not _takes_collapse(z, names)
        got = ward_cluster(z, names, check_normalized=False).to_json()
        assert got == reference_given_triangle(z, names, check_normalized=False).to_json()


@st.composite
def distance_points(draw):
    """Rows for ``_distinct_distances``, C- or F-ordered: distinct rows (some
    a 2^k multiple of another, another with a zero's sign flipped, or
    another moved by a few units in the last place, a near pair), each
    repeated 1-3 times, shuffled. Wide rows make a block of near pairs
    ``pairs`` long, and the near pairs' count falls around its edges, so a
    block of one pair occurs."""
    pairs = draw(st.sampled_from([2, 3, 4, 7]))
    if draw(st.booleans()):
        width = draw(st.integers(_DIFF_BYTES // (16 * (pairs + 1)) + 1, _DIFF_BYTES // (16 * pairs)))
        n_distinct = draw(st.integers(1, 6))
    else:
        width = draw(st.integers(1, 12))
        n_distinct = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.normal(size=(n_distinct, width))
    if draw(st.booleans()):
        distinct = np.round(distinct, 1)  # zeros, and rounding ties between rows
    for k in range(1, n_distinct):
        source = distinct[rng.integers(0, k)]
        form = draw(st.sampled_from(["own", "scaled", "signed zero", "near"]))
        if form == "scaled":
            distinct[k] = source * 2.0 ** draw(st.integers(-3, 3))
        elif form == "signed zero":
            distinct[k] = source
            distinct[k, rng.integers(0, width)] = -0.0
        elif form == "near":
            distinct[k] = source * (1 + rng.integers(-4, 5, width) * 2.0**-52)
    copies = rng.integers(1, 4, n_distinct)
    points = np.repeat(distinct, copies, axis=0)[rng.permutation(copies.sum())]
    return np.asfortranarray(points) if draw(st.booleans()) else points


def _gamma(k: int) -> float:
    unit = np.finfo(float).eps / 2
    return k * unit / (1 - k * unit)


def check_against_reference(points):
    """``_distinct_distances(points)`` against ``distinct_distances_reference``:
    the same grouping, first-occurrence numbering, an exactly symmetric
    triangle, the reference's bits on every pair ``_exact_pairs`` computed
    and the derived bound on every other pair. Returns the triangle, the
    reference's in the same numbering, and the recomputed pairs' mask."""
    calls = []

    def spy(small, distinct, i, j):
        calls.append((i.copy(), j.copy()))
        exact_pairs(small, distinct, i, j)

    before = points.tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_exact_pairs", spy)
        small, inverse = _distinct_distances(points)
    assert points.tobytes() == before
    ref_small, ref_inverse = distinct_distances_reference(points)
    assert ((inverse[:, None] == inverse) == (ref_inverse[:, None] == ref_inverse)).all()
    # Distinct rows are numbered in order of first occurrence.
    n = small.shape[0]
    assert list(dict.fromkeys(inverse.tolist())) == list(range(n))
    to_ref = np.empty(n, dtype=np.intp)
    to_ref[inverse] = ref_inverse
    ref = ref_small[np.ix_(to_ref, to_ref)]
    assert small.tobytes() == small.T.tobytes()
    assert np.isinf(small.diagonal()).all()
    assert not np.isnan(small).any()
    recomputed = np.zeros((n, n), dtype=bool)
    for i, j in calls:
        assert (i < j).all()
        recomputed[i, j] = recomputed[j, i] = True
    assert small[recomputed].tobytes() == ref[recomputed].tobytes()
    # A kept pair is within _GRAM_RTOL of the exact distance, relative, and
    # the reference within gamma(2w + 2) of it (underflow included).
    kept = ~recomputed & ~np.eye(n, dtype=bool)
    width = points.shape[1]
    bound = (_GRAM_RTOL + 2 * _gamma(2 * width + 3)) * ref[kept]
    assert (np.abs(small[kept] - ref[kept]) <= bound).all()
    return small, ref, recomputed


class TestDistinctDistances:
    """Rows grouped by their bytes and the triangle taken from a Gram
    product with the near pairs computed again, against the frozen
    np.unique grouping with every pair taken from its difference."""

    @settings(max_examples=200, deadline=None)
    @given(points=distance_points())
    def test_every_pair_matches_reference(self, points):
        check_against_reference(points)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_near_pairs_across_row_blocks(self, rng, order):
        # About 700 distinct rows take over 20 row blocks; half are a few
        # units in the last place from another row, and some differ from
        # another only in a zero's sign, so near pairs fall in every block
        # and straddle them.
        base = np.round(rng.normal(size=(350, 5)), 1)
        near = base * (1 + rng.integers(-3, 4, base.shape) * 2.0**-52)
        signed = base[:40].copy()
        signed[signed == 0.0] = -0.0
        points = np.asarray(np.vstack([base, near, signed])[rng.permutation(740)], order=order)
        small, _, recomputed = check_against_reference(points)
        n = small.shape[0]
        assert n >= 20 * (_DIFF_BYTES // (32 * n))  # at least 20 row blocks
        assert recomputed.sum() // 2 >= 350

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_near_pair(self, rng, order):
        # A block of one near pair: einsum sums a single column-major row in
        # another order than the rows of a taller operand, which changes
        # the last bit of most such sums.
        for _ in range(8):
            points = rng.normal(size=(4, 100))
            points[3] = points[0] * (1 + 1e-9 * rng.normal(size=100))
            _, _, recomputed = check_against_reference(np.asarray(points, order=order))
            assert np.flatnonzero(recomputed[0]).tolist() == [3]
            assert recomputed.sum() == 2

    def test_gram_product_error_is_within_bound_only_with_the_recompute(self, rng):
        # Rows 1e-9 apart relative: the Gram product alone cancels to a
        # relative error far above _GRAM_RTOL, so these pairs must be the
        # recomputed ones.
        base = rng.normal(size=(8, 300))
        points = np.vstack([base, base * (1 + 1e-9 * rng.normal(size=base.shape))])
        half = 0.5 * np.einsum("ij,ij->i", points, points)
        gram = half[:, None] + half - points @ points.T
        _, ref, recomputed = check_against_reference(points)
        pairs = (np.arange(8), np.arange(8) + 8)
        assert (np.abs(gram[pairs] - ref[pairs]) > _GRAM_RTOL * ref[pairs]).any()
        assert recomputed[pairs].all()

    def test_peak_holds_no_copy_of_the_input(self, rng):
        # Ward's points for a 1,000-run x 400-feature matrix whose second half
        # of columns copies the first: 400 rows of 1,000, 200 distinct.
        half = rng.normal(size=(200, 1000))
        points = np.vstack([half, half])[rng.permutation(400)]
        tracemalloc.start()
        try:
            small, _ = _distinct_distances(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert small.shape == (200, 200)
        # The distinct rows, the triangle and one block buffer, with slack for
        # numpy's own buffers; the grouping's keys (about the distinct rows'
        # size) are freed before the triangle.
        bound = half.nbytes + small.nbytes + _DIFF_BYTES + 128 * 1024
        assert peak <= bound < points.nbytes


@st.composite
def edge_points(draw):
    """Rows whose Gram product cannot be trusted: rows scaled by 2^-531 or
    2^531 (near 1e-160 and 1e160, where a squared norm underflows or
    overflows), each at one or more 2^k multiples, beside twins a few
    units in the last place away, rows that differ from another only in a
    zero's sign, all-zero rows of either sign, and plain rows at scale 1."""
    width = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        base = rng.normal(size=width)
        base[rng.integers(0, width)] = 0.0
        scale = draw(st.sampled_from([2.0**-531, 2.0**531, 1.0]))
        for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
            rows.append(base * scale * 2.0**k)
        form = draw(st.sampled_from(["none", "twin", "signed zero"]))
        if form == "twin":
            rows.append(rows[-1] * (1 + rng.integers(-3, 4, width) * 2.0**-52))
        elif form == "signed zero":
            flipped = rows[-1].copy()
            flipped[flipped == 0.0] = -0.0
            rows.append(flipped)
    for sign in draw(st.lists(st.sampled_from([1.0, -1.0]), max_size=2)):
        rows.append(np.full(width, sign * 0.0))
    points = np.array(rows)[rng.permutation(len(rows))]
    return np.asfortranarray(points) if draw(st.booleans()) else points


def _untrusted(points: np.ndarray) -> np.ndarray:
    """Which pairs of distinct rows the recompute rule must take whatever
    their Gram value: a norm outside the trusted range, or rows of equal
    value (zero signs aside), whose exact distance is 0."""
    _, inverse = _distinct_distances(points)
    first = np.unique(inverse, return_index=True)[1]
    distinct = points[first]
    with np.errstate(over="ignore", under="ignore"):
        norms = np.einsum("ij,ij->i", distinct, distinct)
    _, smallest_norm = _near_rule(points.shape[1])
    odd = ~((norms >= smallest_norm) & (norms < np.inf))
    equal = (distinct[:, None, :] == distinct[None, :, :]).all(axis=2)
    pairs = odd[:, None] | odd[None, :] | equal
    np.fill_diagonal(pairs, False)
    return pairs


class TestRecomputeRule:
    """The pairs whose Gram value cannot be trusted are computed again."""

    @settings(max_examples=200, deadline=None)
    @given(points=edge_points())
    def test_edge_pairs_keep_the_reference_bits(self, points):
        small, ref, recomputed = check_against_reference(points)
        must = _untrusted(points)
        assert recomputed[must].all()
        # The collapse decides on the triangle as it does on the reference.
        n = small.shape[0]
        slots, order = np.arange(n), list(range(n))
        with np.errstate(all="ignore"):  # Lance-Williams chains over 1e160 rows
            taken = _collapse_bit_equal(small.copy(), slots, order) is not None
            ref_taken = _collapse_bit_equal(ref.copy(), slots, order) is not None
        assert taken == ref_taken


# A train-deep-shaped Ward input: 1,334 z-scored samples of 1,060 columns
# in the pipeline's column-major layout. 100 columns with four copies each
# 1e-7 apart (near pairs), ten copies 2 % apart of ten of them, and 2^k
# multiples of 460 of those, which z-score to bit-equal columns: 1,060
# leaves, 600 distinct.
_TRAIN_DEEP_SHAPED = """
import sys
import numpy as np
from pmcpower.clustering import ward_cluster
rng = np.random.default_rng(3)
latent = rng.uniform(50.0, 400.0, (1334, 100))
near = [latent * (1 + 1e-7 * rng.normal(size=latent.shape)) for _ in range(4)]
loose = [latent[:, :10] * (1 + 0.02 * rng.normal(size=(1334, 10))) for _ in range(10)]
distinct = np.hstack([latent, *near, *loose])
copies = distinct[:, :460] * 2.0 ** rng.integers(1, 4, 460)
values = np.asfortranarray(np.hstack([distinct, copies]))
z = (values - values.mean(axis=0)) / values.std(axis=0)
tree = ward_cluster(z, [f"c{i:04d}" for i in rng.permutation(z.shape[1])])
open(sys.argv[1], "w").write(tree.to_json())
"""


def test_dendrogram_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The Gram product's summation order per entry does not change with
    # OpenBLAS's thread count, so neither does any height.
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"dendrogram-{threads}.json"
        subprocess.run([sys.executable, "-c", _TRAIN_DEEP_SHAPED, str(out)], env=env, check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert len(written[0]) > 1059 * 20


class TestCutDendrogram:
    def test_one_dim_cut_at_one(self):
        cut = cut_dendrogram(one_dim_tree(), 1.0)
        assert cut.n_clusters == 2
        assert cut.cluster_of[0] == cut.cluster_of[1]
        assert cut.cluster_of[2] == cut.cluster_of[3]
        assert cut.cluster_of[0] != cut.cluster_of[2]

    def test_threshold_zero_all_singletons(self):
        cut = cut_dendrogram(one_dim_tree(), 0.0)
        assert cut.n_clusters == 4

    def test_above_max_single_cluster(self):
        cut = cut_dendrogram(one_dim_tree(), 1e9)
        assert cut.n_clusters == 1

    def test_cluster_count_monotone_in_threshold(self, rng):
        z = rng.normal(size=(10, 8))
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        tree = ward_cluster(z)
        counts = [
            cut_dendrogram(tree, t).n_clusters
            for t in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 1e6]
        ]
        assert counts == sorted(counts, reverse=True)

    def test_proportional_columns_co_cluster(self, rng):
        base_col = rng.uniform(1, 100, 20)
        cols = np.column_stack([base_col, 8.0 * base_col, rng.uniform(1, 100, 20)])
        z = (cols - cols.mean(axis=0)) / cols.std(axis=0)
        tree = ward_cluster(z, ["bytes", "beats", "other"])
        assert tree.merges[0].height <= 1e-9
        cut = cut_dendrogram(tree, 1e-6)
        assert cut.cluster_of[0] == cut.cluster_of[1]

    def test_default_threshold_value(self):
        assert default_cut_threshold(120) == pytest.approx(6.0)
