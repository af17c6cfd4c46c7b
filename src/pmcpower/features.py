"""Candidate feature construction from raw counter columns.

Counters that never vary are dropped, counters that correlate significantly
negatively with the target are negated (so stalls and similar events read as
positive contributions), and pairwise products/ratios are synthesized and
ranked, since the product or ratio of two counters sometimes correlates
with the target far better than either input does on its own.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DegenerateSeriesError, FeatureError
from .numerics import correlations, pearson, pearson_p_value

KINDS = ("base", "inv", "prod", "ratio")

# Denominator columns with any sample this close to zero never become ratios.
RATIO_DENOM_EPS = 1e-9

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


def counter_correlations(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    """``pearson`` of each named counter against the target, from one
    row-wise call; raises pearson's error for the first counter it rejects."""
    rows = np.array([ds.column(name) for name in names])
    y = ds.target_current
    r = correlations(rows, y)
    rejected = np.flatnonzero(np.isnan(r))
    if rejected.size:
        pearson(rows[rejected[0]], y)  # raises that counter's error
    return r


def invert_negative(ds: Dataset, alpha: float = 0.05) -> list[FeatureSpec]:
    """One spec per retained counter: Inverted when its correlation with the
    target is negative and significant at level alpha, Base otherwise.

    Negation flips the correlation sign with identical magnitude, keeps the
    model linear, and is defined at zero, so an inverted counter always has
    a positive correlation with the target afterwards.
    """
    retained, _ = drop_zero_variance(ds)
    specs = []
    for name, r in zip(retained, counter_correlations(ds, retained).tolist()):
        if r < 0 and pearson_p_value(r, len(ds)) < alpha:
            specs.append(inverted(name))
        else:
            specs.append(base(name))
    return specs


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

    Every candidate is scored with ``correlations``, one block of products
    and one of ratios per numerator counter, so each r is the one
    ``pearson`` gives its column, bit for bit; a candidate ``pearson``
    rejects (a constant column such as x * (c/x)) is dropped. p is a
    function of |r| and the gate holds on a prefix of the candidates in
    descending |r|, so the end of that prefix is found by bisection with
    ``pearson_p_value``. Only the candidates that can make the cut, the
    ``top_k`` largest |r| and any tied with the k-th, are sorted.
    """
    if top_k < 0:
        raise FeatureError("top_k must be >= 0")
    if any(spec.kind not in ("base", "inv") for spec in base_specs):
        raise FeatureError("combined candidates build on base/inverted specs only")
    names = sorted({spec.a for spec in base_specs})
    m = len(names)
    # counters x runs; ds.column raises KeyError for a missing counter
    values = np.array([ds.column(name) for name in names]).reshape(m, len(ds))
    y = ds.target_current

    # Candidates as (numerator, denominator) indices into names: every
    # product, then every ratio over a safe denominator, in the order of
    # the canonical loops.
    sizes = np.abs(values)
    safe = np.flatnonzero(~(sizes.min(axis=1) < RATIO_DENOM_EPS * sizes.max(axis=1)))
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

    # A safe denominator may still hold a zero (an all-zero column); the
    # first ratio over one raises, as evaluating it would.
    zero_ratios = np.flatnonzero(~values.all(axis=1)[cand_b[n_products:]])
    if zero_ratios.size:
        raise FeatureError(f"zero denominator evaluating {spec_of(n_products + zero_ratios[0])}")
    scores = [np.empty(0)]  # so that no candidates concatenate too
    denominators = values[safe]
    with np.errstate(all="ignore"):  # correlations rejects non-finite rows
        for i in range(m - 1):  # products of counter i with every later one
            scores.append(correlations(values[i] * values[i + 1 :], y))
        for i in range(m):  # ratios of counter i over every other safe one
            scores.append(correlations(values[i] / denominators, y)[safe != i])
    r = np.concatenate(scores)

    scored = np.flatnonzero(~np.isnan(r))
    if 0 < top_k < scored.size:
        strength = np.abs(r[scored])
        kth = strength[np.argpartition(-strength, top_k - 1)[top_k - 1]]
        scored = scored[strength >= kth]
    order = scored[np.argsort(-np.abs(r[scored]), kind="stable")]
    magnitude = np.abs(r[order])
    passed = bisect.bisect_left(
        magnitude, True, key=lambda v: not pearson_p_value(float(v), len(ds)) < alpha
    )
    if not (top_k and passed):
        return list(base_specs)
    # Candidates tied with the k-th passing |r| compete for the cut by name.
    cut = np.count_nonzero(magnitude[:passed] >= magnitude[min(top_k, passed) - 1])
    kept = sorted(
        zip(magnitude[:cut].tolist(), map(spec_of, order[:cut].tolist())),
        key=lambda item: (-item[0], item[1].canonical()),
    )
    return list(base_specs) + [spec for _, spec in kept[:top_k]]


@dataclass(frozen=True)
class FeatureMatrix:
    """Evaluated feature columns: column ``i`` of ``values`` holds ``specs[i]``
    in every run. A feature is addressed by that position from here on."""

    specs: tuple[FeatureSpec, ...]
    values: np.ndarray

    def zscored(self) -> np.ndarray:
        """Each column less its mean, over its population std (ddof=0)."""
        return (self.values - self.values.mean(axis=0)) / self.values.std(axis=0)

    def names(self) -> list[str]:
        return [spec.canonical() for spec in self.specs]


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
    return FeatureMatrix(tuple(specs[i] for i in keep), values[:, keep])
