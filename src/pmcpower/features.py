"""Candidate feature construction from raw counter columns.

Counters that never vary are dropped, counters that correlate significantly
negatively with the target are negated (so stalls and similar events read as
positive contributions), and pairwise products/ratios are synthesized and
ranked, since the product or ratio of two counters sometimes correlates
with the target far better than either input does on its own.
"""
from __future__ import annotations

import bisect
import math
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


# The arithmetic of each kind, in KINDS order, on two counters' values (a
# single-counter kind ignores the second); the only place a spec kind
# becomes arithmetic.
_KIND_OPS = (
    lambda x, _: x,
    lambda x, _: -x,
    np.multiply,
    np.divide,
)


def feature_column(spec: FeatureSpec, ds: Dataset) -> np.ndarray:
    """The spec's value in every run of ``ds``.

    Raises ``_plan``'s error when a counter is missing, or when a ratio's
    denominator is zero in any run.
    """
    (kind,), (a,), (b,) = _plan(ds, [spec])
    return _KIND_OPS[kind](ds.rates[:, a], ds.rates[:, b])


def _near_zero_variance(values: np.ndarray) -> np.ndarray:
    """Which columns of a finite runs x columns array are constant up to
    rounding: population variance at most 1e-12 times the squared peak.

    The variances are one axis-0 ``np.var``, which sums each column as
    ``np.var`` of that column alone does. Where the variance or the bound
    overflows (a column near 1e154 or above), or the bound underflows to a
    subnormal or zero though the column is not all zeros (a column near
    1e-148 or below), the column is decided again scaled by the power of
    two that brings its peak into [0.5, 1), which scales both sides alike
    and takes only the overflow or underflow out. Every column whose two
    sides are normal floats keeps its decision.
    """
    peak = np.abs(values).max(axis=0, initial=0.0)
    with np.errstate(over="ignore", under="ignore"):
        variance = values.var(axis=0)
        bound = 1e-12 * peak * peak
    flat = variance <= bound
    odd = np.flatnonzero((variance == np.inf) | (bound == np.inf)
                         | ((bound < np.finfo(float).tiny) & (peak > 0)))
    if odd.size:
        exponent = np.frexp(peak[odd])[1]
        scaled_peak = np.ldexp(peak[odd], -exponent)
        scaled = np.ldexp(values[:, odd], -exponent)
        flat[odd] = scaled.var(axis=0) <= 1e-12 * scaled_peak * scaled_peak
    return flat


def drop_zero_variance(ds: Dataset) -> tuple[list[str], list[str]]:
    """Split counters into (retained, dropped) by rate variance across runs.

    Counters that are constant over every run (always-zero counters
    included) carry no information and would break correlation math.
    A counter with a NaN or infinite rate is rejected by name.
    """
    if len(ds) < 2:
        raise DegenerateSeriesError("need at least 2 records")
    finite = np.isfinite(ds.rates).all(axis=0)
    if not finite.all():
        name = ds.counter_names[int(np.argmin(finite))]
        raise FeatureError(f"counter {name} has a non-finite rate")
    flat = _near_zero_variance(np.asfortranarray(ds.rates)).tolist()
    retained = [name for name, drop in zip(ds.counter_names, flat) if not drop]
    dropped = [name for name, drop in zip(ds.counter_names, flat) if drop]
    if not retained:
        why = _none_varies(len(dropped), "counter", "constant", len(ds))
        raise FeatureError(f"no usable counters: {why}")
    return retained, dropped


def _none_varies(count: int, noun: str, state: str, runs: int) -> str:
    """Why none of ``count`` columns passed the variance gate, with the counts."""
    why = {0: f"there are no {noun}s", 1: f"the only {noun} is {state}"}.get(
        count, f"all {count} {noun}s are {state}")
    return f"{why} over {runs} runs"


def counter_correlations(ds: Dataset, names: Sequence[str]) -> np.ndarray:
    """``pearson`` of each named counter against the target, from one
    row-wise call. A target that is constant up to rounding (the variance
    gate of ``_near_zero_variance``) raises, naming its value or range and
    the number of runs; else pearson's error for the first counter it
    rejects."""
    rows = np.array([ds.column(name) for name in names])
    y = ds.target_current
    if y.size >= 3 and np.isfinite(y).all() and _near_zero_variance(y[:, None])[0]:
        low, high = float(y.min()), float(y.max())
        value = f", {low!r} mA" if low == high else f" up to rounding, {low!r} to {high!r} mA"
        raise DegenerateSeriesError(
            f"degenerate series (zero variance): the target current is constant{value} "
            f"in all {y.size} training runs")
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


# Bytes of candidate rows the exact recompute builds at once: enough that
# few numpy calls are made, small enough to stay in a core's private cache.
_RECOMPUTE_BYTES = 512 * 1024

# A Gram estimate is trusted only where every factor of its three sums (a
# counter, a safe denominator's reciprocal, the centred target) has its
# nonzero magnitudes within this power of two of 1 (see _gram_estimates).
_GRAM_RANGE = 2.0**150


def _in_gram_range(rows: np.ndarray) -> np.ndarray:
    """Which rows have every nonzero magnitude in [1/_GRAM_RANGE, _GRAM_RANGE]
    (so no NaN or infinity either)."""
    size = np.abs(rows)
    return ((size == 0.0) | ((size >= 1.0 / _GRAM_RANGE) & (size <= _GRAM_RANGE))).all(axis=-1)


def _gram_estimates(values: np.ndarray, y: np.ndarray, safe: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of the Pearson r ``correlations`` gives each product and
    ratio of the counter rows ``values`` (m x n) against ``y``, and a bound
    on each estimate's distance from it: two m x (m + s) arrays, s the
    number of ``safe`` denominators, rows that hold no zero. Entry (i, j)
    is the product of counters i and j for j < m, and the ratio of counter
    i over ``safe[j - m]`` for j >= m. An estimate that cannot be trusted
    is 0 with bound inf.

    The sums behind every r come from three BLAS products of X = ``values``
    with B, the counter rows followed by the reciprocals of the safe
    denominators: S1 = sum c from X B', S2 = sum c^2 from (X o X)(B o B)'
    and Sy = sum c dy from (X o dy) B', where dy = y - mean(y) as
    ``_correlate`` takes it and o is the elementwise product. Then
    var = S2 - S1^2/n, cov = Sy - (S1/n) sum dy (the exact path centres c,
    and sum dy is not exactly 0) and r = cov / (sqrt(var) sqrt(dy.dy)).

    The bound. Let c be the column the exact path builds, x_a * x_b or
    x_a / x_b in floats, T2 = sum c^2, V = sum (c - mean c)^2 and
    Syy = sum dy^2 in exact arithmetic, r* = (sum c dy - mean c sum dy) /
    sqrt(V Syy), and kappa = T2 / V, the factor by which the one-pass
    variance loses digits to cancellation (Chan, Golub & LeVeque 1983).
    With u = 2^-53 and g = gamma_(n+8) = (n+8)u / (1 - (n+8)u):

    * Each term of a Gram sum is the matching term of c, c^2 or c dy to
      within gamma_6, the few roundings by which x_a (1/x_b) and the
      squares differ from the exact path's x_a / x_b and its square. An
      inner product of n terms, in any order and with or without fused
      multiply-adds, is within gamma_n of the sum of their magnitudes
      (Higham 2002, §3.1). So S2 is within g T2 of T2, S1 within
      g sum |c| <= g sqrt(n T2), and Sy within g sqrt(T2 Syy).
    * Then var, with its three roundings, is within 4g T2 of V. The
      estimate's mean is within 2g sqrt(T2/n) of mean c, and the computed
      sum dy within g sqrt(n Syy) of the exact one, whose size is at most
      sqrt(n Syy); so cov is within 5g sqrt(T2 Syy) of r* sqrt(V Syy).
      While 4g kappa <= 1/4, the two square roots, the product and the
      quotient then put r within 4g kappa + 10g sqrt(kappa) + 2g of r*.
    * The exact path rounds too: its mean of c is within 2g sqrt(T2/n),
      its sxx within 2g V of V, and its sxy within
      (2g + 2g sqrt(kappa)) sqrt(V Syy) of r* sqrt(V Syy); so its r is
      within 7g + 4g sqrt(kappa) of r* (the clip to [-1, 1] only brings
      it nearer).

    So the estimate is within g (4 kappa + 14 sqrt(kappa) + 9) of the
    r ``correlations`` returns. kappa is bounded from above by
    h / (var - 4g h), h = (1 + 3g) S2 >= T2, and the estimate is trusted
    only where var > 20 g h, five times its error bound, so that
    4g kappa <= 1/4. The bound is evaluated with that upper bound of
    kappa; the few roundings of evaluating it are far inside the margins
    taken above.

    Underflow breaks the relative error of a product, so a sum that could
    hold a subnormal term is not trusted. Where every factor's nonzero
    magnitudes lie in [2^-150, 2^150], every term of the three sums and
    every value of c is a normal float, and no sum of fewer than 2^60
    terms overflows, nor do the exact path's sxx, sxy and sxx * syy. A
    trusted candidate has V > 16 g S2 >= 16 g 2^-600 and Syy >= 2^-300, so
    its sxx * syy is far above tiny, the smallest normal float. The exact
    path's differences c - mean c may still square to subnormals, but each
    adds at most u tiny, and n u tiny is far below g V. A target with fewer
    than 3 runs, no variance or a value of dy outside that range trusts
    nothing.
    """
    m, n = values.shape
    u = 2.0**-53
    g = (n + 8) * u / (1.0 - (n + 8) * u)
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        dy = y - y.mean()
        syy = float(np.dot(dy, dy))
        # A safe denominator holds no zero, so its reciprocal is in range
        # exactly where the denominator is.
        in_range = _in_gram_range(values)
        trusted = in_range[:, None] & np.concatenate([in_range, in_range[safe]])
        second = np.concatenate([values, 1.0 / values[safe]])
        sums = values @ second.T
        r = (values * dy) @ second.T
        squares = np.square(values) @ np.square(second, out=second).T
        del second
        trusted &= n >= 3 and syy > 0.0 and bool(_in_gram_range(dy))
        var = np.square(sums)
        var /= n
        np.subtract(squares, var, out=var)
        sums /= n  # the mean of c
        sums *= dy.sum()
        r -= sums  # cov
        squares *= 1.0 + 3.0 * g  # h
        trusted &= var > 20.0 * g * squares
        np.multiply(squares, 4.0 * g, out=sums)
        np.subtract(var, sums, out=sums)
        np.divide(squares, sums, out=sums)  # kappa's upper bound
        bound = np.sqrt(sums)
        bound *= 14.0
        sums *= 4.0
        bound += sums
        bound += 9.0
        bound *= g
        np.sqrt(var, out=var)
        var *= math.sqrt(syy)
        r /= var
        trusted &= np.isfinite(r) & np.isfinite(bound)
    r[~trusted] = 0.0
    bound[~trusted] = np.inf
    return r, bound


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

    Every candidate's r is first estimated from three BLAS products of the
    counter rows, with a bound on its distance from the r ``pearson`` gives
    the candidate's column (``_gram_estimates``). Only the candidates whose
    upper bound reaches the ``top_k``-th largest lower bound, and those
    whose estimate is not trusted, are scored again with ``correlations``,
    their columns built with the arithmetic ``feature_column`` uses, so
    each of their r is ``pearson``'s, bit for bit; any other candidate is
    surely below the ``top_k`` strongest and cannot reach the output. The
    rest runs on those exact values alone: a candidate ``pearson`` rejects
    (a constant column such as x * (c/x)) is dropped; p is a function of
    |r| and the gate holds on a prefix of the candidates in descending
    |r|, so the end of that prefix is found by bisection with
    ``pearson_p_value``; only the candidates that can make the cut, the
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

    # The denominators a ratio may have, and the first ratio, in the order
    # of the canonical loops, over one that still holds a zero (an all-zero
    # column): it raises, as evaluating it would.
    sizes = np.abs(values)
    safe = np.flatnonzero(~(sizes.min(axis=1) < RATIO_DENOM_EPS * sizes.max(axis=1)))
    zero = safe[~values[safe].all(axis=1)]
    if m > 1 and zero.size:
        # Counter 0 is the first numerator, unless counter 0 itself is the
        # only such denominator; then it is counter 1 over counter 0.
        others = zero[zero != 0]
        a, b = (0, others[0]) if others.size else (1, 0)
        raise FeatureError(f"zero denominator evaluating {ratio(names[a], names[b])}")
    if m < 2 or not top_k:
        return list(base_specs)

    # Entry (i, j) of the estimates is the product of counters i and j
    # (j < m) or the ratio of i over safe[j - m]; the candidates are the
    # products with i < j and the ratios with i not over itself.
    estimate, bound = _gram_estimates(values, y, safe)
    candidate = np.zeros(estimate.shape, dtype=bool)
    candidate[:, :m] = np.arange(m)[:, None] < np.arange(m)
    candidate[:, m:] = safe != np.arange(m)[:, None]
    np.abs(estimate, out=estimate)
    lower = estimate - bound
    lower[~candidate] = -np.inf
    lower = lower.ravel()
    floor = -np.inf  # the top_k-th largest lower bound
    if top_k <= lower.size:
        floor = np.partition(lower, lower.size - top_k)[lower.size - top_k]
    estimate += bound  # the upper bounds
    recompute = np.flatnonzero(candidate & (estimate >= floor))
    num, j = np.divmod(recompute, m + safe.size)
    is_ratio = j >= m
    den = np.concatenate([np.arange(m), safe])[j]

    # The exact r of those candidates, their columns a block of rows at a time.
    r = np.empty(recompute.size)
    step = max(1, _RECOMPUTE_BYTES // (8 * len(ds)))
    with np.errstate(all="ignore"):  # correlations rejects non-finite rows
        for op, kind in ((np.multiply, ~is_ratio), (np.divide, is_ratio)):
            at = np.flatnonzero(kind)
            for start in range(0, at.size, step):
                block = at[start : start + step]
                r[block] = correlations(op(values[num[block]], values[den[block]]), y)

    def spec_of(c: int) -> FeatureSpec:
        make = ratio if is_ratio[c] else product
        return make(names[num[c]], names[den[c]])

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
    if not passed:
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
        """Each column less its mean, over its population std (ddof=0), in
        the memory order of ``values``; a column whose std is 0 warns as
        the division does.

        The bits are those of ``(values - mean) / std``, but ``std``, which
        centres its own copy, is taken first and the division is done in
        place, so one array the size of ``values`` is live at a time: that
        copy, then the result.
        """
        std = self.values.std(axis=0)
        z = self.values - self.values.mean(axis=0)
        z /= std
        return z

    def names(self) -> list[str]:
        return [spec.canonical() for spec in self.specs]


def _plan(ds: Dataset, specs: Sequence[FeatureSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each spec's kind (its index in KINDS) and the positions of its two
    counters in ``ds`` (a single-counter spec repeats its one).

    Raises for the first spec, in order, that cannot be evaluated: a
    missing counter, or a ratio over a counter that is zero in some run.
    ``feature_column`` evaluates through it, so it raises the same words.
    """
    index = {name: i for i, name in enumerate(ds.counter_names)}
    has_zero = (~ds.rates.all(axis=0)).tolist()
    kind = np.empty(len(specs), dtype=np.intp)
    a = np.empty(len(specs), dtype=np.intp)
    b = np.empty(len(specs), dtype=np.intp)
    for c, spec in enumerate(specs):
        try:
            positions = [index[name] for name in spec.counters()]
        except KeyError as exc:
            raise FeatureError(f"missing counter {exc.args[0]}") from None
        if spec.kind == "ratio" and has_zero[positions[1]]:
            raise FeatureError(f"zero denominator evaluating {spec.canonical()}")
        kind[c] = KINDS.index(spec.kind)
        a[c] = positions[0]
        b[c] = positions[-1]
    return kind, a, b


# Features build_matrix evaluates and checks at once; this bounds its
# temporaries to a few blocks of this many columns.
_BLOCK_FEATURES = 64


def build_matrix(ds: Dataset, specs: Iterable[FeatureSpec]) -> FeatureMatrix:
    """Evaluate every spec on every run and drop degenerate columns.

    The specs are evaluated a block at a time, kind by kind, with the
    arithmetic ``feature_column`` uses, on rows of the transposed rates, so
    every value has the bits ``feature_column`` gives it. A block is
    checked for non-finite values and put through the variance gate
    (``_near_zero_variance``) at once, and its surviving features are
    stored as rows of one array whose transpose is the column-major
    ``values``; ``zscored()`` and Ward's distances read that layout. The
    first non-finite value named is the one in the earliest run, then the
    first feature, as a row-major scan finds it.
    """
    specs = list(specs)
    seen = set()
    for spec in specs:
        key = spec.canonical()
        if key in seen:
            raise FeatureError(f"duplicate canonical spec {key}")
        seen.add(key)
    kind, a, b = _plan(ds, specs)
    counters = np.ascontiguousarray(ds.rates.T)  # one row per counter
    rows = np.empty((len(specs), len(ds)))  # kept features, in order
    kept: list[int] = []
    first_bad = None  # (run, feature) of the first non-finite value
    for start in range(0, len(specs), _BLOCK_FEATURES):
        stop = min(start + _BLOCK_FEATURES, len(specs))
        block = np.empty((stop - start, len(ds)))
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            for code, op in enumerate(_KIND_OPS):
                at = np.flatnonzero(kind[start:stop] == code)
                if at.size:
                    block[at] = op(counters[a[start + at]], counters[b[start + at]])
        bad = ~np.isfinite(block)
        if bad.any():
            run = int(bad.any(axis=0).argmax())
            here = (run, start + int(bad[:, run].argmax()))
            first_bad = here if first_bad is None else min(first_bad, here)
        if first_bad is not None:
            continue
        keep = np.flatnonzero(~_near_zero_variance(block.T))
        rows[len(kept) : len(kept) + keep.size] = block[keep]
        kept.extend((start + keep).tolist())
    if first_bad is not None:
        raise FeatureError(f"non-finite value evaluating {specs[first_bad[1]].canonical()}")
    if not kept:
        why = _none_varies(len(specs), "candidate column", "near-constant", len(ds))
        raise FeatureError(f"no usable features: {why}")
    return FeatureMatrix(tuple(specs[i] for i in kept), rows[: len(kept)].T)
