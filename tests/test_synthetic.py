import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from trdre.synthetic import (
    GaussianMNPair,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
    sample_truncated_gaussian,
)


class TestInverseNormalCdf:
    # The normal quantile is scipy's ndtri, which returns +-inf or nan outside
    # (0, 1) instead of raising; gen_truncation_1d guards its only call.
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            gen_truncation_1d(100, p, seed=0)


class TestGaussianMNPair:
    def test_shapes_and_symmetry(self):
        pair = gen_gaussian_mn_pair(8, 3, seed=0)
        assert isinstance(pair, GaussianMNPair)
        for M in (pair.theta_p, pair.theta_q, pair.delta_star):
            assert M.shape == (8, 8)
            assert np.array_equal(M, M.T)

    def test_both_positive_definite(self):
        for seed in range(5):
            pair = gen_gaussian_mn_pair(12, 4, seed=seed)
            assert np.min(np.linalg.eigvalsh(pair.theta_p)) > 0.0
            assert np.min(np.linalg.eigvalsh(pair.theta_q)) > 0.0

    def test_delta_star_support_matches_changed_edges(self):
        pair = gen_gaussian_mn_pair(10, 5, seed=3)
        assert len(pair.changed_edges) == 5
        assert pair.changed_edges == sorted(pair.changed_edges)
        nz = {(i, j) for i, j in zip(*np.nonzero(pair.delta_star)) if i < j}
        assert nz == set(pair.changed_edges)
        assert np.array_equal(np.diag(pair.delta_star), np.zeros(10))
        off = pair.delta_star[pair.delta_star != 0.0]
        assert set(np.round(np.abs(off), 12)) == {0.3}

    def test_deterministic_in_seed(self):
        a = gen_gaussian_mn_pair(9, 3, seed=11)
        b = gen_gaussian_mn_pair(9, 3, seed=11)
        assert np.array_equal(a.theta_p, b.theta_p)
        assert np.array_equal(a.theta_q, b.theta_q)
        assert a.changed_edges == b.changed_edges

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_gaussian_mn_pair(1, 0, seed=0)
        with pytest.raises(ValueError):
            gen_gaussian_mn_pair(4, 7, seed=0)  # > d(d-1)/2 pairs


class TestSampleGaussian:
    def test_covariance_matches_precision_inverse(self):
        pair = gen_gaussian_mn_pair(2, 1, seed=5)
        X = sample_gaussian(pair.theta_p, 100_000, seed=6)
        target = np.linalg.inv(pair.theta_p)
        emp = np.cov(X.T, bias=True)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_same_seed_identical(self):
        P = np.eye(3) * 2.0
        assert np.array_equal(sample_gaussian(P, 50, seed=1), sample_gaussian(P, 50, seed=1))

    def test_shape(self):
        assert sample_gaussian(np.eye(4), 7, seed=0).shape == (7, 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_gaussian(np.eye(2), 0, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(np.ones((2, 3)), 5, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(np.array([[1.0, 2.0], [0.0, 1.0]]), 5, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(-np.eye(2), 5, seed=0)


class TestInjectOutliers:
    def test_appends_copies(self):
        X = np.arange(6.0).reshape(3, 2)
        out = inject_outliers(X, [10.0, 10.0], 2)
        assert out.shape == (5, 2)
        assert np.array_equal(out[:3], X)
        assert np.array_equal(out[3:], np.full((2, 2), 10.0))

    def test_zero_count_copies_input(self):
        X = np.ones((2, 2))
        out = inject_outliers(X, [0.0, 0.0], 0)
        assert np.array_equal(out, X) and out is not X

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inject_outliers(np.ones((2, 2)), [1.0], 1)
        with pytest.raises(ValueError):
            inject_outliers(np.ones((2, 2)), [1.0, 1.0], -1)


class TestGenOutlier1d:
    def test_sizes_and_blob_location(self):
        xp, xq = gen_outlier_1d(400, 100, b=5.0, seed=0, n_q=400)
        assert xp.shape == (500, 1) and xq.shape == (400, 1)
        in_blob = np.sum((xp >= 4.6) & (xp <= 5.4))
        # all 100 blob draws land in [b - 0.4, b + 0.4]; a few of the 400
        # inliers cannot reach past 4.6
        assert in_blob == 100

    def test_n_q_override(self):
        _, xq = gen_outlier_1d(50, 10, b=8.0, seed=1, n_q=333)
        assert xq.shape == (333, 1)

    def test_denominator_location(self):
        _, xq = gen_outlier_1d(200, 0, b=8.0, seed=2, n_q=200_000)
        assert abs(float(xq.mean()) + 0.75) < 0.02

    def test_deterministic_and_shuffled(self):
        a_p, a_q = gen_outlier_1d(100, 25, b=6.0, seed=9, n_q=100)
        b_p, b_q = gen_outlier_1d(100, 25, b=6.0, seed=9, n_q=100)
        assert np.array_equal(a_p, b_p) and np.array_equal(a_q, b_q)
        # shuffle means the blob is not simply appended at the end
        tail = a_p[-25:, 0]
        assert not np.all((tail >= 5.6) & (tail <= 6.4))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_outlier_1d(0, 5, b=1.0, seed=0, n_q=5)
        with pytest.raises(ValueError):
            gen_outlier_1d(5, -1, b=1.0, seed=0, n_q=5)


class TestTruncatedGaussian:
    def test_respects_upper_bound(self):
        x = sample_truncated_gaussian(0.0, 1.0, upper=0.3, n=10_000, seed=0)
        assert x.shape == (10_000, 1)
        assert float(x.max()) <= 0.3

    def test_matches_analytic_mean(self):
        # E[X | X <= u] = mu - sigma * phi(a) / Phi(a), a = (u - mu) / sigma
        mu, sigma2, upper = -0.5, 1.0, 0.0
        a = (upper - mu) / np.sqrt(sigma2)
        analytic = mu - np.sqrt(sigma2) * np.exp(-0.5 * a * a) / np.sqrt(2 * np.pi) / ndtr(a)
        x = sample_truncated_gaussian(mu, sigma2, upper, n=200_000, seed=1)
        se = float(x.std()) / np.sqrt(x.size)
        assert abs(float(x.mean()) - analytic) < 3 * se + 1e-4

    def test_loose_truncation_recovers_plain_gaussian(self):
        x = sample_truncated_gaussian(2.0, 4.0, upper=2.0 + 40 * 2.0, n=100_000, seed=2)
        assert abs(float(x.mean()) - 2.0) < 3 * 2.0 / np.sqrt(100_000.0) + 1e-3

    def test_underflow_raises(self):
        with pytest.raises(ValueError):
            sample_truncated_gaussian(0.0, 1.0, upper=-40.0, n=10, seed=0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_truncated_gaussian(0.0, 0.0, upper=1.0, n=10, seed=0)
        with pytest.raises(ValueError):
            sample_truncated_gaussian(0.0, 1.0, upper=1.0, n=0, seed=0)


class TestGenTruncation1d:
    def test_shapes_and_cut_point(self):
        xp, xq = gen_truncation_1d(5000, 0.5, seed=0)
        assert xp.shape == (5000, 1) and xq.shape == (5000, 1)
        assert float(xq.max()) <= ndtri(0.5)

    def test_numerator_is_standard_normal(self):
        xp, _ = gen_truncation_1d(100_000, 0.3, seed=4)
        assert abs(float(xp.mean())) < 0.02
        assert abs(float(xp.std()) - 1.0) < 0.02

    def test_independent_streams(self):
        xp, xq = gen_truncation_1d(1000, 0.9, seed=7)
        assert not np.array_equal(xp[:10], xq[:10])

    def test_rejects_degenerate_nu(self):
        for nu in (0.0, 1.0):
            with pytest.raises(ValueError):
                gen_truncation_1d(100, nu, seed=0)
