import numpy as np
import pytest

from pmcpower.errors import DegenerateSeriesError, PmcPowerError
from pmcpower.features import FeatureMatrix, base
from pmcpower.numerics import (
    evaluate,
    ols_fit,
    pearson,
    pearson_p_value,
    regularized_incomplete_beta,
)

from oracles import normal_equation_fit, t_two_tailed_p


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anti_linear(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # deviations give cov*n = 8 and var*n = 10 for each series
        assert pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_raises(self):
        with pytest.raises(DegenerateSeriesError):
            pearson([1.0, 2.0], [3.0, 4.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, bad):
        # The [-1, 1] clamp used to turn the NaN r of such a series into 1.0.
        with pytest.raises(DegenerateSeriesError, match="non-finite"):
            pearson([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateSeriesError, match="non-finite"):
            pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0])

    def test_variance_product_underflow_raises(self):
        # Both sums are positive but their product underflows to 0.
        tiny = [0.0, 1e-160, 2e-160]
        with pytest.raises(DegenerateSeriesError, match="not finite"):
            pearson(tiny, tiny)

    def test_variance_product_overflow(self):
        # Both sums are finite but sxx * syy overflows to inf.
        huge = [0.0, 1e100, 2e100, 3e100]
        assert pearson(huge, huge) == 1.0
        assert pearson(huge, [-v for v in huge]) == -1.0
        expected = pearson([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0, 5.0])
        assert pearson(huge, [1e100, 3e100, 2e100, 5e100]) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert pearson(x, y) == pearson(y, x)

    def test_negation_flips_sign_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=13)
            y = rng.normal(size=13)
            assert pearson(-x, y) == -pearson(x, y)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=17)
            y = rng.normal(size=17)
            a = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            b = rng.normal()
            expected = np.sign(a) * pearson(x, y)
            assert pearson(a * x + b, y) == pytest.approx(expected, rel=1e-12)


class TestPValue:
    def test_zero_correlation_is_one(self):
        for n in (3, 10, 500):
            assert pearson_p_value(0.0, n) == 1.0

    def test_tabulated_five_percent_point(self):
        # t = 2.306 at 8 degrees of freedom is the 5% two-tailed critical value
        assert pearson_p_value(0.6319, 10) == pytest.approx(0.050, abs=0.001)

    def test_strong_correlation_tiny_p(self):
        assert pearson_p_value(0.99, 100) < 1e-10

    def test_limit_case_r_one(self):
        assert pearson_p_value(1.0, 10) == 0.0
        assert pearson_p_value(-1.0, 10) == 0.0

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_non_finite_r_raises_package_error(self, r):
        with pytest.raises(PmcPowerError) as info:
            pearson_p_value(r, 10)
        assert isinstance(info.value, DegenerateSeriesError)

    def test_matches_t_cdf_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = float(rng.uniform(-0.999, 0.999))
            n = int(rng.integers(3, 400))
            if r == 0.0:
                continue
            expected = t_two_tailed_p(r, n)
            assert pearson_p_value(r, n) == pytest.approx(expected, rel=1e-8)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.5, 0.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.5, 0.5, 1.0) == 1.0


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([3.0, 5.0, 7.0]))
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_duplicated_column_minimum_norm(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(1, 10, 12)
        y = 3.0 * x + 2.0
        single = ols_fit(x[:, None], y)
        doubled = ols_fit(np.column_stack([x, x]), y)
        pred_single = single.intercept + x * single.coefficients[0]
        pred_double = doubled.intercept + np.column_stack([x, x]) @ doubled.coefficients
        assert pred_double == pytest.approx(pred_single, rel=1e-8)
        # minimum-norm splits the weight across the twin columns
        assert doubled.coefficients[0] == pytest.approx(doubled.coefficients[1], rel=1e-6)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(6, 21))
            p = int(rng.integers(1, 5))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            fit = ols_fit(X, y)
            beta = normal_equation_fit(X, y)
            assert fit.intercept == pytest.approx(beta[0], rel=1e-8, abs=1e-10)
            assert fit.coefficients == pytest.approx(beta[1:], rel=1e-8, abs=1e-10)

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        fit = ols_fit(X, y)
        residuals = y - (fit.intercept + X @ fit.coefficients)
        scale = float(np.linalg.norm(y))
        assert abs(residuals.sum()) <= 1e-8 * scale
        for j in range(4):
            assert abs(residuals @ X[:, j]) <= 1e-8 * scale * np.linalg.norm(X[:, j])

    def test_r_squared_monotone_in_features(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 5))
        y = rng.normal(size=25)
        previous = -np.inf
        for p in range(1, 6):
            r2 = ols_fit(X[:, :p], y).r_squared
            assert r2 >= previous - 1e-10
            previous = r2

    def test_constant_target_warns(self):
        with pytest.warns(UserWarning, match="constant target"):
            fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
        assert fit.r_squared == 1.0  # flat line fits a constant exactly

    def test_memory_layout_does_not_change_bits(self):
        # A column block such as values[:, cols] is F-ordered; the fit must
        # round exactly as it does on a C-ordered copy of the same matrix.
        # Offset columns and target make the residuals' last bits reach R².
        rng = np.random.default_rng(14)
        for _ in range(300):
            n, p = int(rng.integers(5, 200)), int(rng.integers(1, 6))
            X = 100.0 + rng.normal(size=(n, p))
            y = 100.0 + X @ rng.normal(size=p) + rng.normal(size=n)
            c_fit = ols_fit(np.ascontiguousarray(X), y)
            f_fit = ols_fit(np.asfortranarray(X), y)
            assert f_fit.coefficients.tobytes() == c_fit.coefficients.tobytes()
            assert f_fit.intercept == c_fit.intercept
            assert f_fit.r_squared == c_fit.r_squared

    def test_too_few_rows(self):
        with pytest.raises(DegenerateSeriesError):
            ols_fit(np.array([[1.0]]), np.array([2.0]))


class TestEvaluate:
    def test_identity(self):
        report = evaluate([100.0, 200.0], [100.0, 200.0])
        assert report.mae_mean == 0.0
        assert report.mape_mean == 0.0
        assert report.r_squared == pytest.approx(1.0)

    def test_hand_mape(self):
        report = evaluate([110.0, 180.0], [100.0, 200.0])
        assert report.mape_mean == pytest.approx(10.0)

    def test_hand_mae(self):
        report = evaluate([110.0, 180.0, 330.0], [100.0, 200.0, 300.0])
        assert report.mae_mean == pytest.approx(20.0)
        assert report.mae_median == pytest.approx(20.0)

    def test_zero_truth_excluded_with_count(self):
        report = evaluate([10.0, 0.0, 30.0], [10.0, 0.0, 20.0])
        assert report.n == 3
        assert report.n_mape_excluded == 1
        assert report.mape_mean == pytest.approx(25.0)  # only (10, 30/20) terms

    def test_all_zero_truth_raises(self):
        with pytest.raises(DegenerateSeriesError, match="MAPE"):
            evaluate([1.0, 2.0], [0.0, 0.0])

    def test_mape_scale_invariance(self):
        rng = np.random.default_rng(8)
        truth = rng.uniform(50, 500, 20)
        pred = truth * rng.uniform(0.8, 1.2, 20)
        base = evaluate(pred, truth)
        scaled = evaluate(7.3 * pred, 7.3 * truth)
        assert scaled.mape_mean == pytest.approx(base.mape_mean, rel=1e-12)
        assert scaled.mape_median == pytest.approx(base.mape_median, rel=1e-12)


def zscored(values):
    """FeatureMatrix.zscored() of a single column."""
    return FeatureMatrix((base("v"),), np.asarray(values, dtype=float)[:, None]).zscored()[:, 0]


class TestZscore:
    def test_frozen_example(self):
        # mean 4, population std sqrt(8/3)
        assert zscored([2.0, 4.0, 6.0]) == pytest.approx([-1.2247448, 0.0, 1.2247448])

    def test_standardizes_to_unit_moments(self):
        rng = np.random.default_rng(9)
        z = zscored(rng.uniform(0, 100, 50))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(0, 10, 30)
        assert zscored(values + 123.0) == pytest.approx(zscored(values), abs=1e-9)

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(11)
        z = zscored(rng.normal(size=40))
        assert zscored(z) == pytest.approx(z, abs=1e-9)
