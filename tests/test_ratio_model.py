import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trdre.estimator import _data_gradient
from trdre.ratio_model import (
    GaussianKernelFeatures,
    LinearFeatures,
    PairwiseQuadraticFeatures,
    as_sample_matrix,
    build_ratio_model,
    feature_map_from_name,
    featurize,
    log_normalizer,
    log_ratios,
    median_pairwise_distance,
    softmax_weights,
)

LN2 = math.log(2.0)
# Hand arithmetic for PhiQ = {[1], [-1]}, delta = [ln 2]:
# exp(ln2) = 2, exp(-ln2) = 0.5, mean = 1.25.
HAND_LOGN = math.log(2.5 / 2.0)


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


class TestSampleMatrix:
    def test_accepts_2d_and_1d(self):
        X = as_sample_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert X.shape == (2, 2)
        assert as_sample_matrix([1.0, 2.0, 3.0]).shape == (3, 1)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_sample_matrix(np.empty((0, 2)))
        with pytest.raises(ValueError):
            as_sample_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_sample_matrix([[np.inf]])


class TestFeaturize:
    def test_linear_is_identity(self):
        X = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(featurize(X, LinearFeatures()), X)

    def test_quadratic_values_and_order(self):
        Phi = featurize(np.array([[2.0, 3.0]]), PairwiseQuadraticFeatures())
        # row-major upper triangle: x1*x1, x1*x2, x2*x2
        assert np.allclose(Phi, [[4.0, 6.0, 9.0]])

    def test_quadratic_dim(self):
        X = np.ones((3, 5))
        assert featurize(X, PairwiseQuadraticFeatures()).shape == (3, 15)

    def test_gaussian_kernel_at_center_is_one(self):
        fmap = GaussianKernelFeatures(basis=np.array([[1.0, 2.0]]), bandwidth=0.7)
        Phi = featurize(np.array([[1.0, 2.0]]), fmap)
        assert Phi.shape == (1, 1) and Phi[0, 0] == 1.0

    def test_gaussian_kernel_decays(self):
        fmap = GaussianKernelFeatures(basis=np.array([[0.0]]), bandwidth=1.0)
        Phi = featurize(np.array([[0.0], [1.0], [2.0]]), fmap)
        assert Phi[0, 0] > Phi[1, 0] > Phi[2, 0]
        assert np.isclose(Phi[1, 0], math.exp(-0.5))

    def test_gaussian_kernel_dim_mismatch(self):
        fmap = GaussianKernelFeatures(basis=np.ones((2, 3)), bandwidth=1.0)
        with pytest.raises(ValueError):
            featurize(np.ones((4, 2)), fmap)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianKernelFeatures(basis=np.ones((2, 1)), bandwidth=0.0)

    def test_bandwidth_default_median_heuristic(self):
        basis = np.array([[0.0], [1.0], [3.0]])
        fmap = GaussianKernelFeatures(basis=basis)
        assert fmap.bandwidth == median_pairwise_distance(basis) == 2.0

    def test_median_heuristic_degenerate_fallback(self):
        assert median_pairwise_distance(np.array([[1.0]])) == 1.0
        assert median_pairwise_distance(np.array([[1.0], [1.0]])) == 1.0

    def test_row_locality(self):
        # each output row depends only on its input row
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        for fmap in (LinearFeatures(), PairwiseQuadraticFeatures(),
                     GaussianKernelFeatures(basis=rng.standard_normal((4, 3)))):
            full = featurize(X, fmap)
            perm = rng.permutation(6)
            assert np.array_equal(featurize(X[perm], fmap), full[perm])

    def test_factory_names(self):
        assert isinstance(feature_map_from_name("linear"), LinearFeatures)
        assert isinstance(feature_map_from_name("quadratic"), PairwiseQuadraticFeatures)
        rbf = feature_map_from_name("rbf", basis=np.ones((2, 2)), bandwidth=1.5)
        assert isinstance(rbf, GaussianKernelFeatures)
        with pytest.raises(ValueError):
            feature_map_from_name("cubic")
        with pytest.raises(ValueError):
            feature_map_from_name("rbf")


class TestLogNormalizer:
    def test_zero_delta_is_zero(self):
        PhiQ = np.random.default_rng(1).standard_normal((7, 3))
        assert log_normalizer(np.zeros(3), PhiQ) == 0.0

    def test_single_row_reduces_to_dot(self):
        assert np.isclose(log_normalizer(np.array([2.0, -1.0]), np.array([[0.5, 1.0]])), 0.0)

    def test_hand_value(self):
        val = log_normalizer(np.array([LN2]), np.array([[1.0], [-1.0]]))
        assert abs(val - HAND_LOGN) < 1e-12
        assert abs(val - 0.2231435513) < 1e-9

    def test_overflow_safe(self):
        PhiQ = np.array([[700.0], [0.0]])
        val = log_normalizer(np.array([1.0]), PhiQ)
        assert np.isfinite(val) and abs(val - (700.0 - math.log(2.0))) < 1e-9

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            log_normalizer(np.zeros(2), np.empty((0, 2)))
        with pytest.raises(ValueError):
            log_normalizer(np.zeros(3), np.ones((4, 2)))

    @given(
        arrays(float, (5, 2), elements=finite_floats(-3, 3)),
        arrays(float, (2,), elements=finite_floats(-2, 2)),
        arrays(float, (2,), elements=finite_floats(-2, 2)),
    )
    @settings(max_examples=50, deadline=None)
    def test_convex_in_delta(self, PhiQ, d1, d2):
        mid = log_normalizer((d1 + d2) / 2.0, PhiQ)
        assert mid <= (log_normalizer(d1, PhiQ) + log_normalizer(d2, PhiQ)) / 2.0 + 1e-9


class TestLogRatio:
    def test_hand_value(self):
        model = build_ratio_model(np.array([LN2]), LinearFeatures(), np.array([[1.0], [-1.0]]))
        assert abs(model.log_ratio(np.array([1.0])) - (LN2 - HAND_LOGN)) < 1e-12
        assert abs(model.log_ratio(np.array([1.0])) - 0.4700036292) < 1e-9

    def test_zero_delta_gives_zero(self):
        rng = np.random.default_rng(2)
        model = build_ratio_model(np.zeros(3), LinearFeatures(), rng.standard_normal((5, 3)))
        assert model.log_ratio(rng.standard_normal(3)) == 0.0

    def test_shift_invariance(self):
        # adding a constant feature column shifts <delta, phi> and log N
        # identically, leaving the log ratio unchanged
        rng = np.random.default_rng(3)
        Xq = rng.standard_normal((40, 2))
        x = rng.standard_normal((8, 2))
        delta = rng.standard_normal(3)
        shift = 2.5

        def with_const(X, c):
            return np.column_stack([X, np.full(len(X), c)])

        lr1 = log_ratios(delta, with_const(x, 1.0), with_const(Xq, 1.0))
        lr2 = log_ratios(delta, with_const(x, 1.0 + shift / delta[2]), with_const(Xq, 1.0 + shift / delta[2]))
        assert np.allclose(lr1, lr2, atol=1e-9)

    def test_normalizer_cache_matches_recompute(self):
        rng = np.random.default_rng(4)
        Xq = rng.standard_normal((30, 2))
        delta = rng.standard_normal(3)
        model = build_ratio_model(delta, PairwiseQuadraticFeatures(), Xq)
        recomputed = log_normalizer(delta, featurize(Xq, PairwiseQuadraticFeatures()))
        assert abs(model.log_norm - recomputed) < 1e-12


class TestSoftmax:
    def test_uniform_at_zero(self):
        w = softmax_weights(np.zeros(2), np.random.default_rng(5).standard_normal((4, 2)) * 0)
        assert np.allclose(w, 0.25)

    def test_single_row(self):
        assert softmax_weights(np.array([3.0]), np.array([[2.0]])) == np.array([1.0])

    def test_hand_value(self):
        w = softmax_weights(np.array([LN2]), np.array([[1.0], [-1.0]]))
        assert np.allclose(w, [0.8, 0.2], atol=1e-12)

    @given(
        arrays(float, (6, 2), elements=finite_floats(-30, 30)),
        arrays(float, (2,), elements=finite_floats(-10, 10)),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_nonnegative(self, PhiQ, delta):
        w = softmax_weights(delta, PhiQ)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


class TestSubnormalFlush:
    """Weights that underflow below the smallest normal double become 0."""

    TINY = np.finfo(float).tiny

    @pytest.fixture(scope="class")
    def case(self):
        # Exponents 0 .. -800 in steps of about 20.5: some weights are
        # normal, two are subnormal, the rest underflow to 0.
        rng = np.random.default_rng(7)
        PhiQ = np.column_stack([-np.linspace(0.0, 800.0, 40), 1.0 + rng.uniform(size=40)])
        PhiP = rng.uniform(size=(30, 2))
        delta = np.array([1.0, 0.0])
        z = PhiQ @ delta
        e = np.exp(z - np.max(z))
        unflushed = e / np.sum(e)
        unflushed /= unflushed.sum()
        assert np.any((unflushed > 0.0) & (unflushed < self.TINY))
        return PhiP, PhiQ, delta, unflushed

    def test_no_subnormal_weights(self, case):
        _, PhiQ, delta, _ = case
        w = softmax_weights(delta, PhiQ)
        assert not np.any((w > 0.0) & (w < self.TINY))
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_gradient_unchanged_bitwise(self, case):
        PhiP, PhiQ, delta, unflushed = case
        w_p = np.full(PhiP.shape[0], 1.0 / PhiP.shape[0])
        expected = PhiP.T @ w_p - 1.0 * (PhiQ.T @ unflushed)
        got = _data_gradient(PhiP, PhiQ, w_p, softmax_weights(delta, PhiQ), 1.0)
        assert got.tobytes() == expected.tobytes()


class TestSelfNormalization:
    def test_mean_ratio_is_one_over_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 8))
            n_q = int(rng.integers(1, 60))
            PhiQ = rng.standard_normal((n_q, d)) * rng.uniform(0.2, 3.0)
            delta = rng.standard_normal(d)
            ratios = np.exp(log_ratios(delta, PhiQ, PhiQ))
            assert abs(ratios.mean() - 1.0) < 1e-10
