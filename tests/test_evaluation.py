import numpy as np
import pytest
from scipy.integrate import quad

from trdre.estimator import TrimConfig
from trdre.evaluation import (
    auc_tnr_tpr,
    differential_precision_matrix,
    error_scaling,
    ratio_curve_error,
    support_curve,
    support_metrics,
    true_gaussian_log_ratio,
)
from trdre.ratio_model import LinearFeatures, PairwiseQuadraticFeatures, featurize, log_ratios
from trdre.synthetic import gen_gaussian_mn_pair, sample_gaussian


class TestTrueGaussianLogRatio:
    def test_hand_values(self):
        # mu_p=0, mu_q=-0.75: slope 0.75, intercept (mu_q^2 - mu_p^2)/2
        assert true_gaussian_log_ratio(0.0, 0.0, -0.75) == 0.28125
        assert true_gaussian_log_ratio(1.0, 0.5, -0.5) == 1.0
        assert true_gaussian_log_ratio(0.0, 1.0, 1.0) == 0.0

    def test_matches_density_quotient(self):
        def logpdf(x, mu):
            return -0.5 * (x - mu) ** 2 - 0.5 * np.log(2 * np.pi)

        for x in (-1.3, 0.0, 2.1):
            expected = logpdf(x, 0.3) - logpdf(x, -0.9)
            assert abs(true_gaussian_log_ratio(x, 0.3, -0.9) - expected) < 1e-12

    def test_ratio_integrates_to_one_against_q(self):
        # E_q[p/q] = 1 whenever p is a density: quadrature oracle.
        mu_p, mu_q = 0.4, -0.6

        def integrand(x):
            q = np.exp(-0.5 * (x - mu_q) ** 2) / np.sqrt(2 * np.pi)
            return np.exp(true_gaussian_log_ratio(x, mu_p, mu_q)) * q

        val, _ = quad(integrand, -12, 12)
        assert abs(val - 1.0) < 1e-9

    def test_vectorized(self):
        out = true_gaussian_log_ratio(np.array([0.0, 1.0]), 0.0, -0.75)
        assert out.shape == (2,)
        assert out[0] == 0.28125


class TestDifferentialPrecision:
    def test_known_coefficients(self):
        # d=2 features are (x1^2, x1 x2, x2^2); exponent convention is
        # <delta, phi(x)> = -1/2 x^T D x with the full double sum.
        D = differential_precision_matrix(np.array([-1.0, 0.6, 0.0]), 2)
        assert np.array_equal(D, [[2.0, -0.6], [-0.6, 0.0]])
        assert np.array_equal(D, D.T)

    def test_round_trip_through_quadratic_form(self):
        rng = np.random.default_rng(0)
        d = 4
        delta = rng.standard_normal(d * (d + 1) // 2)
        D = differential_precision_matrix(delta, d)
        iu = np.triu_indices(d)
        for _ in range(10):
            x = rng.standard_normal(d)
            feats = np.outer(x, x)[iu]
            assert abs(float(delta @ feats) - (-0.5 * x @ D @ x)) < 1e-10

    def test_recovers_a_generator_pair(self):
        # Least-squares quadratic coefficients of log p/q, evaluated by
        # scipy's Gaussian densities, read back as theta_p - theta_q.
        from scipy.stats import multivariate_normal

        d = 4
        pair = gen_gaussian_mn_pair(d, 3, seed=8)
        x = np.random.default_rng(9).standard_normal((60, d))
        log_ratio = multivariate_normal(cov=np.linalg.inv(pair.theta_p)).logpdf(x) - multivariate_normal(
            cov=np.linalg.inv(pair.theta_q)
        ).logpdf(x)
        design = np.column_stack([featurize(x, PairwiseQuadraticFeatures()), np.ones(len(x))])
        coef = np.linalg.lstsq(design, log_ratio, rcond=None)[0]
        D = differential_precision_matrix(coef[:-1], d)
        assert np.allclose(D, pair.delta_star, atol=1e-9)
        assert np.any(pair.delta_star != 0.0)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            differential_precision_matrix(np.zeros(4), 3)


class TestSupportMetrics:
    def test_perfect_recovery(self):
        ds = np.array([[0.0, 0.3], [0.3, 0.0]])
        assert support_metrics(ds.copy(), ds, 1e-6) == (1.0, 1.0)

    def test_hand_confusion(self):
        ds = np.zeros((3, 3))
        ds[0, 1] = ds[1, 0] = 0.3
        ds[1, 2] = ds[2, 1] = -0.3
        dh = np.zeros((3, 3))
        dh[0, 1] = dh[1, 0] = 0.2   # true positive
        dh[0, 0] = 0.5              # false positive
        # upper triangle has 6 cells: 2 positives (one found), 4 negatives
        # (one flagged)
        tpr, tnr = support_metrics(dh, ds, 1e-6)
        assert (tpr, tnr) == (0.5, 0.75)

    def test_matches_brute_force_confusion(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            ds = np.round(rng.standard_normal((d, d)), 1)
            ds = np.triu(ds) + np.triu(ds, 1).T
            dh = np.round(rng.standard_normal((d, d)), 1)
            dh = np.triu(dh) + np.triu(dh, 1).T
            thr = float(rng.uniform(0.0, 1.5))
            tp = fp = tn = fn = 0
            for i in range(d):
                for j in range(i, d):
                    pos = ds[i, j] != 0.0
                    det = abs(dh[i, j]) > thr
                    tp += pos and det
                    fn += pos and not det
                    fp += (not pos) and det
                    tn += (not pos) and not det
            if tp + fn == 0 or tn + fp == 0:
                continue
            tpr, tnr = support_metrics(dh, ds, thr)
            assert tpr == tp / (tp + fn)
            assert tnr == tn / (tn + fp)

    def test_degenerate_truths_rejected(self):
        with pytest.raises(ValueError):
            support_metrics(np.zeros((2, 2)), np.zeros((2, 2)), 0.1)
        with pytest.raises(ValueError):
            support_metrics(np.zeros((2, 2)), np.ones((2, 2)), 0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_bad_threshold_rejected(self, threshold):
        ds = np.array([[0.0, 0.3], [0.3, 0.0]])
        with pytest.raises(ValueError, match="threshold must be a finite nonnegative real"):
            support_metrics(ds, ds, threshold)


class TestAuc:
    def test_anchors_alone_give_half(self):
        assert auc_tnr_tpr([]) == 0.5

    def test_perfect_corner(self):
        assert auc_tnr_tpr([(1.0, 1.0)]) == 1.0

    def test_worst_corner(self):
        assert auc_tnr_tpr([(0.0, 0.0)]) == 0.0

    def test_known_trapezoid(self):
        # anchors + (0.5, 0.8): area = 0.45 + 0.2 = 0.65
        assert abs(auc_tnr_tpr([(0.5, 0.8)]) - 0.65) < 1e-12

    def test_bounded_and_order_free(self):
        rng = np.random.default_rng(2)
        pts = [(float(t), float(p)) for t, p in rng.random((20, 2))]
        a = auc_tnr_tpr(pts)
        rng.shuffle(pts)
        assert auc_tnr_tpr(pts) == a
        assert 0.0 <= a <= 1.0


@pytest.fixture(scope="module")
def mn_data():
    pair = gen_gaussian_mn_pair(6, 3, seed=8)
    Xp = sample_gaussian(pair.theta_p, 300, seed=9)
    Xq = sample_gaussian(pair.theta_q, 300, seed=10)
    fmap = PairwiseQuadraticFeatures()
    return pair, featurize(Xp, fmap), featurize(Xq, fmap)


class TestSupportCurve:
    def test_lambda_sweep_shape_and_extremes(self, mn_data):
        pair, PhiP, PhiQ = mn_data
        cfg = TrimConfig(eta0=0.1, max_iter=400)
        curve = support_curve(PhiP, PhiQ, pair.delta_star, lambda_grid=[1e-3, 1e-1, 10.0], cfg=cfg)
        assert len(curve.points) == 3
        assert [lam for _, _, lam in curve.points] == [1e-3, 1e-1, 10.0]
        # a crushing penalty zeroes delta: nothing detected
        tnr, tpr, _ = curve.points[-1]
        assert (tnr, tpr) == (1.0, 0.0)
        assert 0.0 <= curve.auc <= 1.0

    def test_grid_validation(self, mn_data):
        pair, PhiP, PhiQ = mn_data
        cfg = TrimConfig()
        with pytest.raises(ValueError):
            support_curve(PhiP, PhiQ, pair.delta_star, [], cfg)
        with pytest.raises(ValueError):
            support_curve(PhiP, PhiQ, pair.delta_star, [0.1, 0.01], cfg)

    def test_only_a_diverged_fit_is_annotated(self, mn_data):
        pair, PhiP, PhiQ = mn_data
        with pytest.raises(RuntimeError, match="fit failed at lambda=0.1: objective became non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            support_curve(PhiP, PhiQ, pair.delta_star, [0.1], TrimConfig(eta0=1e308))
        with pytest.raises(ValueError, match="matching feature dimension"):
            support_curve(PhiP, PhiQ[:, :-1], pair.delta_star, [0.1], TrimConfig())

    @pytest.mark.parametrize("on", [True, False])
    def test_first_diverged_lambda_is_named(self, mn_data, forking, on):
        # A penalty above every gradient entry keeps delta at 0, so only the
        # two small lambdas diverge.
        pair, PhiP, PhiQ = mn_data
        forking(on)
        with pytest.raises(RuntimeError, match=r"fit failed at lambda=0\.001: objective became non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            support_curve(PhiP, PhiQ, pair.delta_star, [1e-3, 1e-2, 1e3], TrimConfig(eta0=1e308))

    def test_forked_equals_serial(self, mn_data, forking):
        pair, PhiP, PhiQ = mn_data
        cfg = TrimConfig(nu=0.9, eta0=0.1, max_iter=300)
        grid = [1e-3, 1e-2, 5e-2, 1e-1, 1.0]
        forked = forking(True)
        curve = support_curve(PhiP, PhiQ, pair.delta_star, grid, cfg)
        assert forked == [3]
        assert not forking(False)
        assert support_curve(PhiP, PhiQ, pair.delta_star, grid, cfg) == curve


class TestRatioCurveError:
    def test_zero_for_matching_model(self):
        # delta = [0.75] with intercept absorbed: compare against the same
        # normalized model, not the unnormalized analytic line.
        rng = np.random.default_rng(3)
        xq = rng.normal(-0.75, 1.0, size=(4000, 1))
        grid = np.linspace(-2, 2, 101)
        fmap = LinearFeatures()
        lr = log_ratios(np.array([0.75]), featurize(grid, fmap), featurize(xq, fmap))
        err = ratio_curve_error(lr, lr.copy())
        assert err == 0.0

    def test_sup_dominates_l2(self):
        rng = np.random.default_rng(4)
        xq = rng.normal(-0.75, 1.0, size=(4000, 1))
        grid = np.linspace(-2, 2, 101)
        fmap = LinearFeatures()
        lr = log_ratios(np.array([0.6]), featurize(grid, fmap), featurize(xq, fmap))
        truth = true_gaussian_log_ratio(grid, 0.0, -0.75)
        sup = ratio_curve_error(lr, truth, norm="sup")
        l2 = ratio_curve_error(lr, truth, norm="l2")
        assert sup >= l2 > 0.0

    def test_bad_norm_and_grid(self):
        with pytest.raises(ValueError):
            ratio_curve_error([0.0], [0.0], norm="l1")
        with pytest.raises(ValueError):
            ratio_curve_error([], [])
        with pytest.raises(ValueError):
            ratio_curve_error([0.0, 1.0], [0.0])


class TestErrorScaling:
    def test_truncation_protocol_runs_and_shrinks(self):
        table = error_scaling("truncation", [100, 3000], repeats=3, seed=0)
        assert [n for n, _ in table] == [100, 3000]
        assert table[1][1] < table[0][1]
        assert all(e >= 0.0 for _, e in table)

    def test_outlier_protocol_is_deterministic(self):
        a = error_scaling("outlier", [200], repeats=2, seed=1)
        b = error_scaling("outlier", [200], repeats=2, seed=1)
        assert a == b

    @pytest.mark.parametrize("protocol", ["truncation", "outlier"])
    def test_forked_equals_serial(self, forking, protocol):
        forked = forking(True)
        table = error_scaling(protocol, [100, 300], repeats=3, seed=4)
        assert forked == [3]
        assert not forking(False)
        assert error_scaling(protocol, [100, 300], repeats=3, seed=4) == table

    def test_validation(self):
        with pytest.raises(ValueError):
            error_scaling("bootstrap", [100], 1, 0)
        with pytest.raises(ValueError):
            error_scaling("truncation", [300, 100], 1, 0)
        with pytest.raises(ValueError):
            error_scaling("truncation", [100], 0, 0)
