"""Candidate feature construction from raw counter columns.

Counters that never vary are dropped, counters that correlate significantly
negatively with the target are negated (so stalls and similar events read as
positive contributions), and pairwise products/ratios are synthesized and
ranked, since the product or ratio of two counters sometimes correlates
with the target far better than either input does on its own.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DegenerateSeriesError, FeatureError
from .numerics import NormStats, compute_norm_stats, pearson, pearson_p_value

KINDS = ("base", "inv", "prod", "ratio")

# Denominator columns with any sample this close to zero never become ratios.
RATIO_DENOM_EPS = 1e-9

# Largest gap allowed between a candidate's block pre-score and its exact
# |r|, with a factor 4 to spare. The two differ by summation order only:
# at most a few n*eps for a trusted column of n runs, and under 1e-15 on
# the benchmark campaigns (200 and 1,334 runs). A walked candidate further
# apart than PRESCORE_MARGIN / 4 makes generate_combined score every
# candidate exactly.
PRESCORE_MARGIN = 1e-9
# A pre-score is untrusted when the column's variance is at most this share
# of its square sum: the centred sums have lost most of their digits.
PRESCORE_MIN_VARIANCE_SHARE = 1e-10
# A pre-score is untrusted when sxx*syy is outside this range, where
# pearson's own sxx*syy may over- or underflow.
_PRESCORE_SCALE_RANGE = (2.0**-960, 2.0**960)


@dataclass(frozen=True)
class FeatureSpec:
    """Symbolic model input: a counter, its negation, or a pair combination.

    ``prod`` stores its two counter names in lexicographic order so a
    feature set never contains both orderings of the same product.
    """

    kind: str
    a: str
    b: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FeatureError(f"unknown feature kind {self.kind!r}")
        if self.kind in ("base", "inv") and self.b is not None:
            raise FeatureError(f"{self.kind} feature takes a single counter")
        if self.kind in ("prod", "ratio") and self.b is None:
            raise FeatureError(f"{self.kind} feature takes two counters")
        if self.kind == "prod" and self.b < self.a:  # type: ignore[operator]
            raise FeatureError("product counters must be in lexicographic order")

    def canonical(self) -> str:
        if self.kind == "base":
            return f"base:{self.a}"
        if self.kind == "inv":
            return f"inv:{self.a}"
        if self.kind == "prod":
            return f"prod:{self.a}*{self.b}"
        return f"ratio:{self.a}/{self.b}"

    def counters(self) -> tuple[str, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def __str__(self) -> str:
        return self.canonical()


def base(name: str) -> FeatureSpec:
    return FeatureSpec("base", name)


def inverted(name: str) -> FeatureSpec:
    return FeatureSpec("inv", name)


def product(name_a: str, name_b: str) -> FeatureSpec:
    lo, hi = sorted((name_a, name_b))
    return FeatureSpec("prod", lo, hi)


def ratio(numerator: str, denominator: str) -> FeatureSpec:
    return FeatureSpec("ratio", numerator, denominator)


def parse_feature_spec(text: str) -> FeatureSpec:
    """Inverse of FeatureSpec.canonical()."""
    kind, sep, rest = text.partition(":")
    if not sep:
        raise FeatureError(f"malformed feature spec {text!r}")
    if kind == "base":
        return base(rest)
    if kind == "inv":
        return inverted(rest)
    if kind == "prod":
        a, sep, b = rest.partition("*")
        if not sep or not a or not b:
            raise FeatureError(f"malformed product spec {text!r}")
        return product(a, b)
    if kind == "ratio":
        num, sep, den = rest.partition("/")
        if not sep or not num or not den:
            raise FeatureError(f"malformed ratio spec {text!r}")
        return ratio(num, den)
    raise FeatureError(f"unknown feature kind {kind!r} in {text!r}")


def feature_column(spec: FeatureSpec, ds: Dataset) -> np.ndarray:
    """The spec's value in every run of ``ds``.

    This is the only place a spec kind becomes arithmetic. Raises when a
    counter is missing, or when a ratio's denominator is zero in any run.
    """
    try:
        columns = [ds.column(name) for name in spec.counters()]
    except KeyError as exc:
        raise FeatureError(f"missing counter {exc.args[0]}") from None
    if spec.kind == "base":
        return columns[0]
    if spec.kind == "inv":
        return -columns[0]
    if spec.kind == "prod":
        return columns[0] * columns[1]
    if np.any(columns[1] == 0.0):
        raise FeatureError(f"zero denominator evaluating {spec.canonical()}")
    return columns[0] / columns[1]


def _near_zero_variance(col: np.ndarray) -> bool:
    peak = float(np.max(np.abs(col))) if col.size else 0.0
    return float(np.var(col)) <= 1e-12 * peak * peak


def drop_zero_variance(ds: Dataset) -> tuple[list[str], list[str]]:
    """Split counters into (retained, dropped) by rate variance across runs.

    Counters that are constant over every run (always-zero counters
    included) carry no information and would break correlation math.
    A counter with a NaN or infinite rate is rejected by name.
    """
    if len(ds) < 2:
        raise DegenerateSeriesError("need at least 2 records")
    retained, dropped = [], []
    for name in ds.counter_names:
        column = ds.column(name)
        if not np.isfinite(column).all():
            raise FeatureError(f"counter {name} has a non-finite rate")
        (dropped if _near_zero_variance(column) else retained).append(name)
    if not retained:
        raise FeatureError("no usable counters")
    return retained, dropped


def invert_negative(ds: Dataset, alpha: float = 0.05) -> list[FeatureSpec]:
    """One spec per retained counter: Inverted when its correlation with the
    target is negative and significant at level alpha, Base otherwise.

    Negation flips the correlation sign with identical magnitude, keeps the
    model linear, and is defined at zero, so an inverted counter always has
    a positive correlation with the target afterwards.
    """
    retained, _ = drop_zero_variance(ds)
    y = ds.target_current
    specs = []
    for name in retained:
        r = pearson(ds.column(name), y)
        if r < 0 and pearson_p_value(r, len(ds)) < alpha:
            specs.append(inverted(name))
        else:
            specs.append(base(name))
    return specs


def _prescore(block: np.ndarray, dy: np.ndarray, syy: float) -> tuple[np.ndarray, np.ndarray]:
    """|Pearson r| of each row of ``block`` against the centred target ``dy``,
    and whether that value may stand in for ``pearson``'s when ranking.

    The rows are summed in a different order than ``pearson`` sums a
    single column, so the two agree only to rounding. A row is untrusted
    when its variance is a tiny share of its square sum (the centred sums
    have then lost their digits, as in a constant ``x*(c/x)`` column), when
    sxx*syy leaves the range ``pearson`` computes it in, or when any of its
    values is not finite (NaN fails every comparison below).
    """
    with np.errstate(all="ignore"):
        centred = block - block.mean(axis=1, keepdims=True)
        sxx = np.einsum("ij,ij->i", centred, centred)
        ssq = np.einsum("ij,ij->i", block, block)
        scale = sxx * syy
        r = np.minimum(np.abs(centred @ dy) / np.sqrt(scale), 1.0)
    lo, hi = _PRESCORE_SCALE_RANGE
    trusted = (sxx > PRESCORE_MIN_VARIANCE_SHARE * ssq) & (scale > lo) & (scale < hi)
    return r, trusted


def _prescore_candidates(values: np.ndarray, safe: np.ndarray, y: np.ndarray):
    """``_prescore`` of every product, then every ratio, of the rows of
    ``values`` (counters x runs), one block per numerator counter; ratios
    take their denominators from the rows listed in ``safe``."""
    m = values.shape[0]
    dy = y - y.mean()
    syy = float(np.dot(dy, dy))
    pre, trusted = [], []
    denominators = values[safe]
    with np.errstate(all="ignore"):  # non-finite values end up untrusted
        for i in range(m - 1):  # products of counter i with every later one
            r, ok = _prescore(values[i] * values[i + 1 :], dy, syy)
            pre.append(r)
            trusted.append(ok)
        for i in range(m):  # ratios of counter i over every other safe one
            r, ok = _prescore(values[i] / denominators, dy, syy)
            keep = safe != i
            pre.append(r[keep])
            trusted.append(ok[keep])
    return np.concatenate(pre), np.concatenate(trusted)


def _exact_score(spec: FeatureSpec, ds: Dataset, y: np.ndarray, alpha: float):
    """(|r|, passes the alpha gate) of one candidate, or None when its
    column is degenerate."""
    try:
        r = pearson(feature_column(spec, ds), y)
    except DegenerateSeriesError:
        return None  # constant candidate column, e.g. x * (c/x)
    return abs(r), pearson_p_value(r, len(ds)) < alpha


def generate_combined(
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

    Every candidate is first pre-scored with numpy, one block of products
    and one of ratios per numerator counter. Only candidates that can reach
    the output are then scored exactly with ``pearson`` and
    ``pearson_p_value``, in descending pre-score order, so the result is
    the one scoring every candidate exactly would give:

    * candidates whose pre-score is untrusted (see ``_prescore``) are
      always scored exactly;
    * the walk stops when top_k candidates have passed the gate and the
      next pre-score is below the k-th exact |r| minus PRESCORE_MARGIN,
      or is below a gate failure's exact |r| minus PRESCORE_MARGIN (p is
      monotone in |r|, so those fail too);
    * if a walked candidate's exact |r| differs from its pre-score by more
      than PRESCORE_MARGIN / 4, every candidate is scored exactly instead.
    """
    if top_k < 0:
        raise FeatureError("top_k must be >= 0")
    if any(spec.kind not in ("base", "inv") for spec in base_specs):
        raise FeatureError("combined candidates build on base/inverted specs only")
    names = sorted({spec.a for spec in base_specs})
    columns = {name: ds.column(name) for name in names}  # KeyError if missing
    y = ds.target_current

    unsafe_denominator = {
        name: bool(np.min(np.abs(columns[name])) < RATIO_DENOM_EPS * np.max(np.abs(columns[name])))
        for name in names
    }

    # Candidates as (numerator, denominator) indices into names: every
    # product, then every ratio, in the order of the canonical loops.
    m = len(names)
    safe = np.array([j for j, b in enumerate(names) if not unsafe_denominator[b]], dtype=np.intp)
    prod_a, prod_b = np.triu_indices(m, k=1)
    ratio_a = np.repeat(np.arange(m), safe.size)
    ratio_b = np.tile(safe, m)
    not_self = ratio_a != ratio_b
    cand_a = np.concatenate([prod_a, ratio_a[not_self]])
    cand_b = np.concatenate([prod_b, ratio_b[not_self]])
    n_products = prod_a.size

    def spec_of(c: int) -> FeatureSpec:
        make = product if c < n_products else ratio
        return make(names[cand_a[c]], names[cand_b[c]])

    if cand_a.size:
        values = np.array([columns[name] for name in names])  # counters x runs
        pre, trusted = _prescore_candidates(values, safe, y)
    else:
        pre, trusted = np.empty(0), np.empty(0, dtype=bool)

    scored: list[tuple[float, str, FeatureSpec]] = []
    best: list[float] = []  # min-heap of the top_k largest passing |r|
    highest_failure = -math.inf  # largest exact |r| that failed the gate

    def score(c: int):
        nonlocal highest_failure
        spec = spec_of(c)
        result = _exact_score(spec, ds, y, alpha)
        if result is not None:
            r, passed = result
            if not passed:
                highest_failure = max(highest_failure, r)
            elif top_k:
                scored.append((r, spec.canonical(), spec))
                (heapq.heappush if len(best) < top_k else heapq.heappushpop)(best, r)
        return result

    for c in np.flatnonzero(~trusted):
        score(c)
    walk = np.flatnonzero(trusted)
    walk = walk[np.argsort(-pre[walk], kind="stable")]
    for c in walk:
        if len(best) < top_k:
            kth = -math.inf
        else:
            kth = best[0] if best else math.inf  # top_k == 0 admits nothing
        if pre[c] < max(kth, highest_failure) - PRESCORE_MARGIN:
            break
        result = score(c)
        if result is None or abs(result[0] - pre[c]) > PRESCORE_MARGIN / 4:
            scored = []
            for spec in map(spec_of, range(cand_a.size)):
                result = _exact_score(spec, ds, y, alpha)
                if result is not None and result[1]:
                    scored.append((result[0], spec.canonical(), spec))
            break
    scored.sort(key=lambda item: (-item[0], item[1]))
    return list(base_specs) + [spec for _, _, spec in scored[:top_k]]


@dataclass(frozen=True)
class FeatureMatrix:
    """Evaluated feature columns plus the stats for their z-scored view."""

    specs: tuple[FeatureSpec, ...]
    values: np.ndarray
    norm: NormStats
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[FeatureSpec, int] = {}
        for i, spec in enumerate(self.specs):
            index.setdefault(spec, i)
        object.__setattr__(self, "_index", index)

    def zscored(self) -> np.ndarray:
        return (self.values - self.norm.mean) / self.norm.std

    def names(self) -> list[str]:
        return [spec.canonical() for spec in self.specs]

    def index_of(self, spec: FeatureSpec) -> int:
        try:
            return self._index[spec]
        except KeyError:
            raise ValueError(f"{spec} is not a column of this matrix") from None

    def column(self, spec: FeatureSpec) -> np.ndarray:
        return self.values[:, self.index_of(spec)]


def build_matrix(ds: Dataset, specs: Iterable[FeatureSpec]) -> FeatureMatrix:
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
    keep = [i for i in range(values.shape[1]) if not _near_zero_variance(values[:, i])]
    if not keep:
        raise FeatureError("no usable features")
    kept_specs = tuple(specs[i] for i in keep)
    kept_values = values[:, keep]
    return FeatureMatrix(kept_specs, kept_values, compute_norm_stats(kept_values))
