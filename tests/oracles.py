"""Independent brute-force references the implementation is checked against.

Nothing here shares code with src/: least squares goes through the normal
equations, Ward merges recompute every pairwise SSE increase from raw
coordinates at every step, and the t-distribution CDF comes from scipy.
The exceptions are frozen copies of code the package replaced, kept so the
fast paths can be compared with them exactly:

* ``ward_reference``, the full-matrix Ward loop that
  ``pmcpower.clustering.ward_cluster`` replaced; it reuses only the
  package's Dendrogram/Merge containers and error type, so its output can
  be compared with the fast loop's byte for byte, from its own distances
  or, given the initial distances, the merge loop alone;
* ``distinct_distances_reference``, the distinct-row distance triangle
  that grouped rows with ``np.unique`` over a void view and took every
  pair from the two rows' difference, in a fresh array per row, before
  ``pmcpower.clustering._distinct_distances`` grouped them by their bytes
  in order of first occurrence and took the triangle from one Gram
  product; the pairs that computes again must keep the reference's bits,
  and the others must lie within the Gram product's error bound of it;
* ``generate_combined_reference``, the candidate loop that scored every
  product and ratio with the scalar ``pearson`` and ``pearson_p_value``
  before ``pmcpower.features.generate_combined`` scored them in blocks
  with ``correlations``, and later estimated them from Gram products and
  scored exactly only those that can reach the cut; it reuses the
  package's spec constructors and statistics, and keeps its own copy of
  the package's former ``_spec_column``, so the two must return equal
  spec lists;
* ``parse_counter_trace_reference`` and ``parse_power_trace_reference``
  with their helpers, the csv line parser that read every trace before
  ``pmcpower.dataset`` gained its numpy fast path; they build the
  package's CounterTrace/PowerTrace, so the two parsers' results and
  errors can be compared exactly;
* ``build_matrix_reference``, which evaluated the specs one
  ``feature_column`` call at a time and ran the variance gate one
  ``np.var`` per column, before ``pmcpower.features.build_matrix``
  evaluated them in blocks, kind by kind; it reuses the package's
  ``feature_column``, FeatureMatrix and the wording of its variance-gate
  error, so values, layout and errors can be compared exactly;
* ``select_significant_reference`` with ``best_member_reference``, the
  greedy selection that refit every member of every cluster with
  ``ols_fit`` to rank the clusters, before ``pmcpower.selection`` refit
  only the members its pre-score cannot rule out; it reuses the package's
  ``ols_fit``, tie constants and result containers, so the two traces can
  be compared bit for bit;
* ``load_manifest_reference``, the loader that read, checked and
  aggregated one run at a time, converting every cell of every trace,
  before ``pmcpower.dataset.load_manifest`` took runs in blocks and read
  only the counters a caller asks for; it keeps its own copy of the one-run
  aggregation (``aggregate_run_reference``) and reuses the package's
  manifest-entry check and trace parsers, so the two loaders' datasets can
  be compared bit for bit and their errors word for word;
* ``write_dataset_files_reference``, the campaign writer that put every
  row of every trace through the csv writer with one ``repr`` per cell,
  before ``pmcpower.synth.write_dataset_files`` formatted each run's rate
  row once and joined the files' text; the two must write the same bytes.

``aggregate_run_reference`` sums each counter's window-weighted counts as
one ``np.dot`` of two contiguous vectors, the BLAS ddot, so a rate does not
depend on which other counters the trace holds. It replaced one gemv of the
fractions with the whole count table, whose summation order follows the
table's width.
"""
from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy import stats

from pmcpower.clustering import ClusterAssignment, Dendrogram, Merge
from pmcpower.dataset import (
    CounterTrace,
    Dataset,
    PowerTrace,
    _manifest_run,
    parse_counter_trace,
    parse_power_trace,
)
from pmcpower.errors import (
    AggregationError,
    ClusteringError,
    DegenerateSeriesError,
    FeatureError,
    ParseError,
)
from pmcpower.features import (
    RATIO_DENOM_EPS,
    FeatureMatrix,
    FeatureSpec,
    _none_varies,
    feature_column,
    product,
    ratio,
)
from pmcpower.numerics import ols_fit, pearson, pearson_p_value
from pmcpower.selection import R2_GAIN_EPS, R2_TIE_EPS, SelectionResult, SelectionStep


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
    distances: np.ndarray | None = None,
) -> Dendrogram:
    """Cluster the columns of a z-scored sample matrix bottom-up.

    Pairwise SSE increases start at half the squared Euclidean distance
    between columns and are maintained through the Lance-Williams recurrence
    for Ward's method, so every recorded height equals the exact
    delta-SSE of its merge. Equal heights break toward the pair whose
    (smaller name, larger name) label pair sorts first, which makes the
    tree independent of column order.

    ``check_normalized`` rejects columns whose mean is not ~0; disable it
    to cluster raw coordinates (used by low-level tests). ``distances``,
    an n_features x n_features matrix, replaces the initial distances the
    loop would take from the columns' differences (its diagonal is
    ignored), so the merge loop can be compared alone.
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

    if distances is None:
        points = z.T  # (n_features, n_samples)
        dist = np.full((n_features, n_features), np.inf)
        for i in range(n_features):
            diff = points[i] - points
            dist[i] = 0.5 * np.einsum("ij,ij->i", diff, diff)
    else:
        dist = np.array(distances, dtype=float)
        if dist.shape != (n_features, n_features):
            raise ClusteringError("one initial distance per pair of features required")
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


def distinct_distances_reference(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half the squared Euclidean distance between every two distinct rows
    of ``points``, with inf on the diagonal, and the index of each row's
    distinct row; the distinct rows in byte order.

    A pair's distance depends only on the bits of its two rows (swapping
    them only negates the difference), so the triangle is computed once per
    pair of distinct rows; bit-equal rows are +0.0 apart, as their
    difference would give. The distinct rows keep the memory order of
    ``points``: einsum sums a row in the order its operand is laid out, and
    a copy in the other order can change a distance in the last bit.
    """
    width = points.shape[1]
    as_bytes = np.ascontiguousarray(points).view(np.dtype((np.void, width * points.itemsize)))
    _, first, inverse = np.unique(as_bytes.ravel(), return_index=True, return_inverse=True)
    distinct = points[first]  # C order
    if abs(points.strides[0]) < abs(points.strides[1]):  # column-major points
        distinct = np.asfortranarray(distinct)
    small = np.full((first.size, first.size), np.inf)
    for i in range(first.size - 1):
        # The slice keeps row i itself so einsum always sees at least two
        # rows: a single-row operand takes a different summation path whose
        # rounding can differ in the last bit.
        diff = distinct[i] - distinct[i:]
        row = 0.5 * np.einsum("ij,ij->i", diff, diff)[1:]
        small[i, i + 1 :] = row
        small[i + 1 :, i] = row
    return small, inverse.ravel()


def _spec_column(spec: FeatureSpec, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    for name in spec.counters():
        if name not in columns:
            raise FeatureError(f"missing counter {name}")
    if spec.kind == "base":
        return columns[spec.a]
    if spec.kind == "inv":
        return -columns[spec.a]
    if spec.kind == "prod":
        return columns[spec.a] * columns[spec.b]
    den = columns[spec.b]
    if np.any(den == 0.0):
        raise FeatureError(f"zero denominator evaluating {spec.canonical()}")
    return columns[spec.a] / den


def generate_combined_reference(
    ds: Dataset,
    base_specs: Sequence[FeatureSpec],
    alpha: float = 0.05,
    top_k: int = 1000,
) -> list[FeatureSpec]:
    """Append the strongest pairwise product/ratio features to the base set.

    Candidates are every unordered pair's product and every ordered pair's
    ratio over the base counters. Ratios whose denominator column comes
    within RATIO_DENOM_EPS of zero (relative to its peak) anywhere are
    excluded up front. Survivors are ranked by |Pearson r| against the
    target, gated at p < alpha, and capped at top_k; ties break on the
    canonical spec name so the ranking is platform-stable.
    """
    if top_k < 0:
        raise FeatureError("top_k must be >= 0")
    if any(spec.kind not in ("base", "inv") for spec in base_specs):
        raise FeatureError("combined candidates build on base/inverted specs only")
    names = sorted({spec.a for spec in base_specs})
    columns = {name: ds.column(name) for name in ds.counter_names}
    y = ds.target_current
    n = len(ds)

    unsafe_denominator = {
        name: bool(np.min(np.abs(columns[name])) < RATIO_DENOM_EPS * np.max(np.abs(columns[name])))
        for name in names
    }

    candidates: list[FeatureSpec] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            candidates.append(product(a, b))
    for a in names:
        for b in names:
            if a != b and not unsafe_denominator[b]:
                candidates.append(ratio(a, b))

    scored: list[tuple[float, str, FeatureSpec]] = []
    for spec in candidates:
        col = _spec_column(spec, columns)
        try:
            r = pearson(col, y)
        except DegenerateSeriesError:
            continue  # constant candidate column, e.g. x * (c/x)
        if pearson_p_value(r, n) < alpha:
            scored.append((abs(r), spec.canonical(), spec))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return list(base_specs) + [spec for _, _, spec in scored[:top_k]]


def _near_zero_variance_reference(col: np.ndarray) -> bool:
    peak = float(np.max(np.abs(col))) if col.size else 0.0
    return float(np.var(col)) <= 1e-12 * peak * peak


def build_matrix_reference(ds: Dataset, specs) -> FeatureMatrix:
    """Evaluate every spec on every run and drop degenerate columns."""
    specs = list(specs)
    seen = set()
    for spec in specs:
        key = spec.canonical()
        if key in seen:
            raise FeatureError(f"duplicate canonical spec {key}")
        seen.add(key)
    values = np.column_stack([feature_column(spec, ds) for spec in specs])
    if not np.isfinite(values).all():
        bad = specs[int(np.argwhere(~np.isfinite(values))[0][1])]
        raise FeatureError(f"non-finite value evaluating {bad.canonical()}")
    keep = [i for i in range(values.shape[1]) if not _near_zero_variance_reference(values[:, i])]
    if not keep:
        why = _none_varies(len(specs), "candidate column", "near-constant", len(ds))
        raise FeatureError(f"no usable features: {why}")
    return FeatureMatrix(tuple(specs[i] for i in keep), values[:, keep])


def best_member_reference(
    members: Sequence[int], basis: Sequence[int], matrix: FeatureMatrix, y: np.ndarray
) -> tuple[float, int]:
    """The best R-squared of a member column refit with the ``basis`` columns
    (may be empty), and that member's position; scores within R2_TIE_EPS of
    the best tie, and the smallest canonical name among them wins."""
    scores = [(ols_fit(matrix.values[:, [*basis, m]], y).r_squared, m) for m in members]
    best = max(score for score, _ in scores)
    tied = [m for score, m in scores if score >= best - R2_TIE_EPS]
    return best, min(tied, key=lambda m: matrix.specs[m].canonical())


def select_significant_reference(
    assignment: ClusterAssignment,
    matrix: FeatureMatrix,
    y,
    epsilon: float = 0.01,
    patience: int = 5,
) -> SelectionResult:
    """Grow the significant-cluster set over a sorted cluster list, every
    member of every cluster refit by ``ols_fit``."""
    if epsilon <= 0:
        raise FeatureError("epsilon must be > 0")
    if patience < 1:
        raise FeatureError("patience must be >= 1")
    if assignment.n_clusters < 1:
        raise FeatureError("need at least 1 cluster")
    y = np.asarray(y, dtype=float)
    groups = [assignment.members(c) for c in range(assignment.n_clusters)]
    scores = []
    for members in groups:
        if not members:
            raise FeatureError("cluster must be non-empty")
        scores.append(best_member_reference(members, [], matrix, y))
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
        best_r2, best = best_member_reference(groups[cluster_id], basis, matrix, y)
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


def _parse_rows(text: str, expected_first: str) -> tuple[list[str], list[int], np.ndarray]:
    """The header, the line number of every sample row, and the rows as a
    float table; ragged, malformed and non-finite rows are named by line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file") from None
    header = [h.strip() for h in header]
    if not header or header[0] != expected_first:
        raise ParseError(f"line 1: expected '{expected_first}' as first column")
    linenos, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(
                f"line {lineno}: column mismatch "
                f"(expected {len(header)} values, got {len(row)})"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed row {row!r}") from None
        linenos.append(lineno)
    if not rows:
        raise ParseError("no samples")
    table = np.array(rows)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(f"line {linenos[i]}: non-finite value in column {header[j]!r}")
    return header, linenos, table


def _reject_rows(bad: np.ndarray, linenos: list[int], problem: str) -> None:
    """Raise for the first row flagged in ``bad``, naming its line."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ParseError(f"line {linenos[rows[0]]}: {problem}")


def _check_monotone(ts: np.ndarray, linenos: list[int]) -> None:
    rows = np.flatnonzero(np.diff(ts) <= 0)
    if rows.size:
        raise ParseError(f"non-monotone timestamp at line {linenos[rows[0] + 1]}")


def _check_counter_names(names: list[str]) -> None:
    """Counter names must be unique and must survive the canonical feature
    syntax (``prod:a*b``, ``ratio:a/b``) unchanged."""
    seen = set()
    for name in names:
        if not name:
            raise ParseError("line 1: empty counter name")
        for reserved in "*/":
            if reserved in name:
                raise ParseError(f"line 1: counter name {name!r} contains {reserved!r}")
        if name in seen:
            raise ParseError(f"line 1: duplicate counter column {name!r}")
        seen.add(name)


def parse_counter_trace_reference(text: str) -> CounterTrace:
    """Parse counter-trace CSV: header ``ts_ms,<c1>,<c2>,...``, delta counts per row."""
    header, linenos, table = _parse_rows(text, "ts_ms")
    if len(header) < 2:
        raise ParseError("line 1: counter trace needs at least one counter column")
    _check_counter_names(header[1:])
    # Contiguous copies: BLAS may sum a strided operand of aggregate_run's
    # products in another order, and the rates would change in the last bit.
    ts = table[:, 0].copy()
    counts = table[:, 1:].copy()
    _check_monotone(ts, linenos)
    _reject_rows((counts < 0).any(axis=1), linenos, "negative count")
    return CounterTrace(tuple(header[1:]), ts, counts)


def parse_power_trace_reference(text: str) -> PowerTrace:
    """Parse power-trace CSV: header ``ts_ms,current_ma[,voltage_v]``."""
    header, linenos, table = _parse_rows(text, "ts_ms")
    if len(header) not in (2, 3) or header[1] != "current_ma":
        raise ParseError("line 1: expected header ts_ms,current_ma[,voltage_v]")
    if len(header) == 3 and header[2] != "voltage_v":
        raise ParseError("line 1: third column must be voltage_v")
    ts = table[:, 0].copy()
    cur = table[:, 1].copy()
    _check_monotone(ts, linenos)
    _reject_rows(cur < 0, linenos, "negative current")
    voltage = None
    if len(header) == 3:
        volts = table[:, 2]
        if np.any(np.abs(volts - volts[0]) > 1e-6 * max(1.0, abs(volts[0]))):
            raise ParseError("voltage column is not constant")
        voltage = float(volts[0])
    return PowerTrace(ts, cur, voltage)


def aggregate_run_reference(counters: CounterTrace, power: PowerTrace) -> tuple[np.ndarray, float]:
    """One run's average event rates and mean current over the overlap of
    its traces; counter intervals that straddle a window edge count pro-rata
    and the current is the time-weighted mean of its step function."""
    c_ts = counters.timestamps_ms
    p_ts = power.timestamps_ms
    w0 = max(c_ts[0], p_ts[0])
    w1 = min(c_ts[-1], p_ts[-1])
    if w1 <= w0:
        raise AggregationError("no temporal overlap")
    if w1 - w0 < 1000.0:
        raise AggregationError(
            f"overlap shorter than 1 second ({(w1 - w0) / 1000.0:.3f} s)"
        )
    duration_s = (w1 - w0) / 1000.0
    starts = c_ts[:-1]
    ends = c_ts[1:]
    frac = (np.minimum(ends, w1) - np.maximum(starts, w0)) / (ends - starts)
    frac = np.clip(frac, 0.0, 1.0)
    counts = counters.counts[1:]
    totals = np.array([np.dot(frac, counts[:, j].copy()) for j in range(counts.shape[1])])
    rates = totals / duration_s
    seg_ends = np.append(p_ts[1:], w1)
    dur = np.maximum(0.0, np.minimum(seg_ends, w1) - np.maximum(p_ts, w0))
    return rates, float(np.dot(power.current_ma, dur) / (w1 - w0))


def _read_trace_reference(parse, path: Path, what: str):
    if path.is_dir():
        raise IsADirectoryError(f"{what} is a directory: {path}")
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte offset {exc.start} "
                         f"({exc.reason})") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _aggregate_reference(trace, power, where: str):
    try:
        return aggregate_run_reference(trace, power)
    except AggregationError as exc:
        raise AggregationError(f"{where}: {exc}") from None


def load_manifest_reference(path) -> tuple[Dataset, Dataset | None]:
    """Build a dataset, and the aux dataset when the runs list aux counter
    traces, from a JSON run manifest, one run at a time. Two runs that list
    one counter trace are rejected before any trace is read."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest {path}: not UTF-8 text at byte offset {exc.start} "
                         f"({exc.reason})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path}: {exc}") from None
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ParseError(f"manifest {path}: expected a non-empty 'runs' list")

    counter_files = {}
    for i, entry in enumerate(runs):
        if isinstance(entry, dict) and isinstance(entry.get("counter_file"), str):
            name = entry["counter_file"]
            first = counter_files.setdefault(os.path.normpath(name), i)
            if first != i:
                raise ParseError(f"{path}: manifest run {i}: lists counter_file {name!r}, "
                                 f"as manifest run {first} does")

    base_dir = path.parent
    metas, rates, currents = [], [], []
    aux_rates, aux_currents = [], []
    counter_names = aux_names = None
    for i, entry in enumerate(runs):
        run = _manifest_run(entry, path, i)
        where = f"{path}: manifest run {i} ({run.meta.benchmark_name!r})"
        trace = _read_trace_reference(parse_counter_trace, base_dir / run.counter_file,
                                      "counter trace")
        power = _read_trace_reference(parse_power_trace, base_dir / run.power_file,
                                      "power trace")
        if counter_names is None:
            counter_names = trace.counter_names
        elif trace.counter_names != counter_names:
            raise ParseError(f"{where}: counter columns differ from the first run")
        row, current = _aggregate_reference(trace, power, where)
        metas.append(run.meta)
        rates.append(row)
        currents.append(current)
        if i and (run.aux_counter_file is None) != (aux_names is None):
            raise ParseError(
                f"{where}: lists {'an' if run.aux_counter_file else 'no'} "
                "aux_counter_file, unlike the first run"
            )
        if run.aux_counter_file is None:
            continue
        aux_trace = _read_trace_reference(
            parse_counter_trace, base_dir / run.aux_counter_file, "aux counter trace"
        )
        if aux_names is None:
            aux_names = aux_trace.counter_names
        elif aux_trace.counter_names != aux_names:
            raise ParseError(f"{where}: aux counter columns differ from the first run")
        aux_row, aux_current = _aggregate_reference(aux_trace, power, where)
        aux_rates.append(aux_row)
        aux_currents.append(aux_current)
    ds = Dataset(counter_names, np.array(rates), tuple(metas), np.array(currents))
    if aux_names is None:
        return ds, None
    return ds, Dataset(aux_names, np.array(aux_rates), tuple(metas), np.array(aux_currents))


def _csv_text_reference(header: list[str], rows: list[list[float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_dataset_files_reference(ds: Dataset, out_dir, truth=None, duration_s: int = 10) -> Path:
    """Emit per-run counter/power CSV traces plus a manifest (and ground-truth
    sidecar), writing every cell of every row through the csv writer."""
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    timestamps = [1000.0 * t for t in range(duration_s + 1)]

    manifest_runs = []
    for i, (meta, rates, target) in enumerate(
        zip(ds.meta, ds.rates.tolist(), ds.target_current.tolist())
    ):
        counter_rows = [[timestamps[0]] + [0.0] * len(ds.counter_names)]
        counter_rows += [[ts] + rates for ts in timestamps[1:]]
        power_rows = [[ts, target] for ts in timestamps]

        counter_file = f"runs/run-{i:04d}.counters.csv"
        power_file = f"runs/run-{i:04d}.power.csv"
        (out_dir / counter_file).write_text(
            _csv_text_reference(["ts_ms", *ds.counter_names], counter_rows)
        )
        (out_dir / power_file).write_text(
            _csv_text_reference(["ts_ms", "current_ma"], power_rows)
        )
        entry = {
            "counter_file": counter_file,
            "power_file": power_file,
            "benchmark": meta.benchmark_name,
            "workload_type": meta.workload_type,
            "frequency_hz": meta.frequency_hz,
        }
        if meta.utilization is not None:
            entry["utilization"] = meta.utilization
        manifest_runs.append(entry)

    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps({"runs": manifest_runs}, sort_keys=True, indent=2) + "\n"
    )
    if truth is not None:
        (out_dir / "ground_truth.json").write_text(
            json.dumps(
                {
                    "factor_of_counter": truth.factor_of_counter,
                    "scale_of_counter": truth.scale_of_counter,
                    "true_coefficients": truth.true_coefficients,
                    "true_intercept": truth.true_intercept,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    return manifest_path
