"""Statistical primitives: correlation with significance, least squares, error metrics.

Conventions pinned here so every downstream result is reproducible:

* standard deviations use the population convention (divisor n);
* rank-deficient least squares returns the minimum-norm solution;
* p-values come from the exact two-tailed t-distribution CDF, evaluated
  through the regularized incomplete beta function.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError


@dataclass(frozen=True)
class Regression:
    coefficients: np.ndarray
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class EvalReport:
    """Prediction-error summary; MAE in mA, MAPE in percent."""

    r_squared: float
    mae_mean: float
    mae_median: float
    mape_mean: float
    mape_median: float
    n: int
    n_mape_excluded: int = 0

    def to_dict(self) -> dict:
        return {
            "r_squared": self.r_squared,
            "mae_mean": self.mae_mean,
            "mae_median": self.mae_median,
            "mape_mean": self.mape_mean,
            "mape_median": self.mape_median,
            "n": self.n,
            "n_mape_excluded": self.n_mape_excluded,
        }


# Why pearson rejects a series, in the order it checks; a row's code in
# _correlate indexes this tuple, 0 meaning it is not rejected.
_REJECTIONS = (
    None,
    "need at least 3 points",
    "series holds a non-finite value",
    "degenerate series (zero variance)",
    "correlation is not finite",
)


def _correlate(rows, y) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r of each row of ``rows`` against ``y`` (NaN where rejected),
    and each row's index in _REJECTIONS."""
    # A strided row would reach a different BLAS kernel than a contiguous
    # one, and round differently; C order gives every row the one kernel.
    rows = np.ascontiguousarray(rows, dtype=float)
    y = np.asarray(y, dtype=float)
    if rows.ndim != 2 or y.shape != rows.shape[1:]:
        raise DegenerateSeriesError("rows must be 2-D and as long as the target")
    if y.size < 3:
        return np.full(len(rows), np.nan), np.full(len(rows), 1)
    # A non-finite or huge input makes numpy warn before the checks below
    # reject it; the checks are the report.
    with np.errstate(all="ignore"):
        dx = rows - rows.mean(axis=1, keepdims=True)
        dy = y - y.mean()
        # vecdot takes each row's sum with the BLAS dot that np.dot uses.
        sxx = np.vecdot(dx, dx)
        syy = float(np.dot(dy, dy))
        variance_product = sxx * syy
        # Both sums are finite, but their product may overflow; the root is
        # split only then, so every other r keeps its bits.
        scale = np.where(
            variance_product == np.inf,
            np.sqrt(sxx) * math.sqrt(syy),
            np.sqrt(variance_product),
        )
        r = np.vecdot(dx, dy) / scale
    # Only the sums are checked: a NaN or inf anywhere in a series reaches
    # them, and the clamp below would otherwise turn a NaN r into 1.0. The
    # checks are applied last to first, so a row keeps pearson's first.
    rejection = np.zeros(len(rows), dtype=np.intp)
    rejection[~np.isfinite(r)] = 4
    rejection[(sxx == 0.0) | (syy == 0.0)] = 3
    rejection[~(np.isfinite(sxx) & math.isfinite(syy))] = 2
    return np.where(rejection, np.nan, np.clip(r, -1.0, 1.0)), rejection


def correlations(rows, y) -> np.ndarray:
    """``pearson`` of each row of ``rows`` against ``y``, bit for bit, with
    NaN wherever ``pearson`` raises."""
    return _correlate(rows, y)[0]


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length series.

    Raises DegenerateSeriesError when either series has zero variance,
    fewer than 3 points or a non-finite value. Negating one input flips the
    sign of the result bit-exactly, which the feature-inversion step relies on.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DegenerateSeriesError("series must be 1-D and equal length")
    r, rejection = _correlate(x[None], y)
    if rejection[0]:
        raise DegenerateSeriesError(_REJECTIONS[rejection[0]])
    return float(r[0])


def _incomplete_beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to better than 1e-8 relative for a, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Continued fraction converges fast only on one side of the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _incomplete_beta_cf(a, b, x) / a
    return 1.0 - front * _incomplete_beta_cf(b, a, 1.0 - x) / b


def pearson_p_value(r: float, n: int) -> float:
    """Two-tailed p-value for a Pearson correlation from n samples.

    Uses t = r * sqrt((n-2) / (1-r^2)) against the t-distribution with
    n-2 degrees of freedom. |r| = 1 returns 0 exactly (limit case).
    """
    if not math.isfinite(r):
        raise DegenerateSeriesError(f"correlation {r} is not finite")
    if n < 3:
        raise DegenerateSeriesError("need at least 3 samples for a p-value")
    if abs(r) >= 1.0:
        return 0.0
    if r == 0.0:
        return 1.0
    df = n - 2
    t_sq = r * r * df / (1.0 - r * r)
    x = df / (df + t_sq)
    p = regularized_incomplete_beta(df / 2.0, 0.5, x)
    return max(0.0, min(1.0, p))


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        # Constant target: a perfect fit scores 1, anything else 0.
        warnings.warn("constant target in regression", stacklevel=3)
        return 1.0 if ss_res <= 1e-12 * (1.0 + float(np.dot(y, y))) else 0.0
    return 1.0 - ss_res / ss_tot


def ols_fit(X, y) -> Regression:
    """Least-squares fit of y on X with an intercept column.

    Rank-deficient design matrices yield the minimum-norm coefficient
    vector, so exactly collinear features split their weight instead of
    blowing up.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if n < 2:
        raise DegenerateSeriesError("need at least 2 rows to fit")
    if p < 1:
        raise DegenerateSeriesError("need at least 1 feature")
    if y.shape != (n,):
        raise DegenerateSeriesError("target length must match rows")
    # A is C-ordered whatever the layout of X, so A @ beta sums in the
    # same order for a column block such as values[:, cols] (F-ordered).
    A = np.empty((n, p + 1))
    A[:, 0] = 1.0
    A[:, 1:] = X
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    residuals = y - A @ beta
    return Regression(
        coefficients=beta[1:].copy(),
        intercept=float(beta[0]),
        r_squared=_r_squared(y, residuals),
    )


def evaluate(predictions, truth) -> EvalReport:
    """MAE, MAPE (mean and median), and R-squared of predictions vs truth.

    Samples whose true value is zero are excluded from the MAPE terms and
    counted in n_mape_excluded; a truth series that is entirely zero has no
    defined MAPE and raises.
    """
    pred = np.asarray(predictions, dtype=float)
    true = np.asarray(truth, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size < 1:
        raise DegenerateSeriesError("series must be 1-D, equal length, non-empty")
    abs_err = np.abs(pred - true)
    nonzero = true > 0.0
    if not nonzero.any():
        raise DegenerateSeriesError("all truth values zero: MAPE undefined")
    mape_terms = 100.0 * abs_err[nonzero] / true[nonzero]
    residuals = true - pred
    return EvalReport(
        r_squared=_r_squared(true, residuals),
        mae_mean=float(abs_err.mean()),
        mae_median=float(np.median(abs_err)),
        mape_mean=float(mape_terms.mean()),
        mape_median=float(np.median(mape_terms)),
        n=int(true.size),
        n_mape_excluded=int(true.size - nonzero.sum()),
    )
