import math

import numpy as np
import pytest

from trdre.baselines import enumerate_weight_vertices
from trdre.estimator import TrimConfig, ascend, maxmin_1d


class TestEnumerateVertices:
    def test_counts_follow_binomial(self):
        assert len(enumerate_weight_vertices(3, 2.0 / 3.0)) == 3  # C(3,2)
        assert len(enumerate_weight_vertices(5, 0.6)) == 10       # C(5,3)
        assert len(enumerate_weight_vertices(4, 1.0)) == 1        # C(4,4)

    def test_vertex_structure(self):
        for v in enumerate_weight_vertices(5, 0.6):
            assert v.shape == (5,)
            assert np.all((v == 0.0) | (v == 0.2))
            assert abs(v.sum() - 0.6) < 1e-12

    def test_all_vertices_distinct(self):
        vs = enumerate_weight_vertices(6, 0.5)
        assert len({tuple(v) for v in vs}) == len(vs)

    def test_guard_on_large_n(self):
        with pytest.raises(ValueError):
            enumerate_weight_vertices(13, 0.5)
        with pytest.raises(ValueError):
            enumerate_weight_vertices(0, 0.5)


class TestBruteForce1d:
    def test_symmetric_instance_peaks_at_zero(self):
        x = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        d, v = maxmin_1d(x, x, TrimConfig())
        assert abs(d) < 1e-9
        assert abs(v) < 1e-12

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(0)
        xp = rng.standard_normal((6, 1))
        xq = rng.standard_normal((6, 1)) * 1.5
        cfg = TrimConfig(nu=0.5)
        d1, v1 = maxmin_1d(xp, xq, cfg)
        d2, v2 = maxmin_1d(-xp, -xq, cfg)
        assert abs(v1 - v2) < 1e-12
        assert abs(d1 + d2) < 1e-9

    def test_nu_one_matches_untrimmed_fit(self):
        rng = np.random.default_rng(1)
        xp = rng.standard_normal((8, 1)) * 0.7 + 0.4
        xq = rng.standard_normal((10, 1)) * 1.2
        _, v = maxmin_1d(xp, xq, TrimConfig())
        res = ascend(xp, xq, TrimConfig(max_iter=20000))
        assert abs(res.objective_best - v) < 1e-3

    # On this pair f(delta) = 0.15 delta - log cosh(0.3 delta) - lam R(delta).
    XP = np.array([[0.2], [0.1]])
    XQ = np.array([[-0.3], [0.3]])

    def test_value_at_known_delta(self):
        # f' = 0.15 - 0.3 tanh(0.3 delta) vanishes at atanh(1/2) / 0.3.
        d, v = maxmin_1d(self.XP, self.XQ, TrimConfig())
        d_star = math.atanh(0.5) / 0.3
        assert abs(d - d_star) < 1e-12
        assert abs(v - (0.15 * d_star - math.log(math.cosh(0.3 * d_star)))) < 1e-12

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.15, 0.3])
    def test_l1_penalty(self, lam):
        # f' = 0.15 - lam - 0.3 tanh(0.3 delta) on delta > 0; from lam = 0.15 on, delta = 0.
        d, v = maxmin_1d(self.XP, self.XQ, TrimConfig(lam=lam, regularizer="l1"))
        d_star = math.atanh(max(0.15 - lam, 0.0) / 0.3) / 0.3
        assert abs(d - d_star) < 1e-12
        assert abs(v - (0.15 * d_star - math.log(math.cosh(0.3 * d_star)) - lam * d_star)) < 1e-12

    def test_l2sq_penalty(self):
        lam = 0.05
        d, v = maxmin_1d(self.XP, self.XQ, TrimConfig(lam=lam, regularizer="l2sq"))
        assert 0.0 < d < math.atanh(0.5) / 0.3
        assert abs(0.15 - 0.3 * math.tanh(0.3 * d) - 2.0 * lam * d) < 1e-15
        assert abs(v - (0.15 * d - math.log(math.cosh(0.3 * d)) - lam * d * d)) < 1e-12

    def test_no_finite_maximizer(self):
        # Every x_p lies above every x_q: f grows without bound as delta -> +inf.
        xp = np.array([[2.0], [3.0], [2.5]])
        xq = np.array([[-1.0], [1.0], [0.0]])
        assert maxmin_1d(xp, xq, TrimConfig(nu=2.0 / 3.0)) == (math.inf, math.inf)
        assert maxmin_1d(-xp, -xq, TrimConfig(nu=2.0 / 3.0)) == (-math.inf, math.inf)
        # With l2sq any lam > 0 bounds it. l1 needs lam above A - nu_eff max x_q = 1.5 - 2/3,
        # where A = (2 + 2.5) / 3 is the kept sum over n_p.
        d, _ = maxmin_1d(xp, xq, TrimConfig(nu=2.0 / 3.0, lam=0.01, regularizer="l2sq"))
        assert 0.0 < d < math.inf
        assert maxmin_1d(xp, xq, TrimConfig(nu=2.0 / 3.0, lam=0.8, regularizer="l1"))[0] == math.inf
        assert 0.0 < maxmin_1d(xp, xq, TrimConfig(nu=2.0 / 3.0, lam=0.9, regularizer="l1"))[0] < math.inf

    def test_finite_maximum_where_the_log_ratios_overflow(self):
        # Keeping 2 and 2.5 of x_p, the slope at infinity is c = 1.5 - (2/3) * 1,
        # so under l2sq the maximum is c^2 / (4 lam), up to a term of order 1.
        # The maximizer, 8.3e307, is a float, but 3 times it is not.
        xp = np.array([[2.0], [3.0], [2.5]])
        xq = np.array([[-1.0], [1.0], [0.0]])
        lam = 5e-309
        c = 1.5 - 2.0 / 3.0
        with np.errstate(over="raise", invalid="raise"):
            d, v = maxmin_1d(xp, xq, TrimConfig(nu=2.0 / 3.0, lam=lam, regularizer="l2sq"))
        assert d == pytest.approx(c / (2.0 * lam), rel=1e-12)
        assert v == pytest.approx(c * c / (4.0 * lam), rel=1e-12)
        assert math.isfinite(3.0 * v) and not math.isfinite(3.0 * d)

    def test_needs_one_column(self):
        with pytest.raises(ValueError, match="one feature column"):
            maxmin_1d(np.ones((3, 2)), np.ones((3, 2)), TrimConfig())
