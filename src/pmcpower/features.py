"""Candidate feature construction from raw counter columns.

Counters that never vary are dropped, counters that correlate significantly
negatively with the target are negated (so stalls and similar events read as
positive contributions), and pairwise products/ratios are synthesized and
ranked, since the product or ratio of two counters sometimes correlates
with the target far better than either input does on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DegenerateSeriesError, FeatureError
from .numerics import NormStats, compute_norm_stats, pearson, pearson_p_value

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


def evaluate_spec_on_rates(spec: FeatureSpec, rates: Mapping[str, float]) -> float:
    """Evaluate one spec on a rate mapping; raises when a counter is missing."""
    for name in spec.counters():
        if name not in rates:
            raise FeatureError(f"missing counter {name}")
    if spec.kind == "base":
        return rates[spec.a]
    if spec.kind == "inv":
        return -rates[spec.a]
    if spec.kind == "prod":
        return rates[spec.a] * rates[spec.b]
    den = rates[spec.b]
    if den == 0.0:
        raise FeatureError(f"zero denominator evaluating {spec.canonical()}")
    return rates[spec.a] / den


def evaluate_feature(spec: FeatureSpec, record) -> float:
    """Evaluate one spec on a run record."""
    return evaluate_spec_on_rates(spec, record.rates)


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


def _dataset_columns(ds: Dataset) -> dict[str, np.ndarray]:
    matrix = ds.rates_matrix()
    return {name: matrix[:, i] for i, name in enumerate(ds.counter_names)}


def _near_zero_variance(col: np.ndarray) -> bool:
    peak = float(np.max(np.abs(col))) if col.size else 0.0
    return float(np.var(col)) <= 1e-12 * peak * peak


def drop_zero_variance(ds: Dataset) -> tuple[list[str], list[str]]:
    """Split counters into (retained, dropped) by rate variance across runs.

    Counters that are constant over every run (always-zero counters
    included) carry no information and would break correlation math.
    A counter with a NaN or infinite rate is rejected by name.
    """
    if len(ds.records) < 2:
        raise DegenerateSeriesError("need at least 2 records")
    retained, dropped = [], []
    columns = _dataset_columns(ds)
    for name in ds.counter_names:
        if not np.isfinite(columns[name]).all():
            raise FeatureError(f"counter {name} has a non-finite rate")
        (dropped if _near_zero_variance(columns[name]) else retained).append(name)
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
    y = ds.targets()
    specs = []
    for name in retained:
        r = pearson(ds.column(name), y)
        if r < 0 and pearson_p_value(r, len(ds.records)) < alpha:
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
    """
    if top_k < 0:
        raise FeatureError("top_k must be >= 0")
    if any(spec.kind not in ("base", "inv") for spec in base_specs):
        raise FeatureError("combined candidates build on base/inverted specs only")
    names = sorted({spec.a for spec in base_specs})
    columns = _dataset_columns(ds)
    y = ds.targets()
    n = len(ds.records)

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
    """Evaluate every spec on every record and drop degenerate columns."""
    specs = list(specs)
    seen = set()
    for spec in specs:
        key = spec.canonical()
        if key in seen:
            raise FeatureError(f"duplicate canonical spec {key}")
        seen.add(key)
    columns = _dataset_columns(ds)
    values = np.column_stack([_spec_column(spec, columns) for spec in specs])
    if not np.isfinite(values).all():
        bad = specs[int(np.argwhere(~np.isfinite(values))[0][1])]
        raise FeatureError(f"non-finite value evaluating {bad.canonical()}")
    keep = [i for i in range(values.shape[1]) if not _near_zero_variance(values[:, i])]
    if not keep:
        raise FeatureError("no usable features")
    kept_specs = tuple(specs[i] for i in keep)
    kept_values = values[:, keep]
    return FeatureMatrix(kept_specs, kept_values, compute_norm_stats(kept_values))
