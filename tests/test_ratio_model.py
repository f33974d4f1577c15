import math
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from trdre import estimator, ratio_model
from trdre.estimator import _cpus, _data_gradient, _DotWorker
from trdre.ratio_model import (
    GaussianKernelFeatures,
    LinearFeatures,
    PairwiseQuadraticFeatures,
    _dot_pair,
    _evaluate,
    _pairwise_distances,
    as_sample_matrix,
    featurize,
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

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="X must be a 2-D sample matrix, got ndim=3"):
            as_sample_matrix(np.zeros((2, 2, 2)))


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

    def test_gaussian_kernel_past_a_float_square(self):
        # Squared norms beyond the largest float: the kernel values 1 at a
        # point that is its centre and 0 elsewhere are exact, and every
        # entry between ordinary points keeps the bits it has without them.
        rows = np.random.default_rng(3).standard_normal((6, 2))
        far = np.array([[1e200, 0.5], [-3e200, 2e155]])
        Phi = featurize(np.vstack([rows, far]), GaussianKernelFeatures(np.vstack([rows, far]), 1.0))
        small = featurize(rows, GaussianKernelFeatures(rows, 1.0))
        assert Phi[:6, :6].tobytes() == small.tobytes()
        assert np.array_equal(Phi[6:, 6:], np.eye(2))
        assert not Phi[6:, :6].any() and not Phi[:6, 6:].any()

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

    @given(
        n=st.integers(2, 60),
        d=st.integers(1, 40),
        n_dup=st.integers(0, 10),
        log10_scale=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_median_heuristic_matches_pdist_bitwise(self, n, d, n_dup, log10_scale, seed):
        # scipy is the reference here only; the package computes the
        # distances in numpy in pdist's summation order
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 10.0**log10_scale
        X[rng.integers(0, n, n_dup)] = X[rng.integers(0, n, n_dup)]
        ref = pdist(X)
        assert _pairwise_distances(X).tobytes() == ref.tobytes()
        expected = float(np.median(ref))
        assert median_pairwise_distance(X) == (expected if expected > 0.0 else 1.0)

    def test_median_heuristic_matches_pdist_at_fit_scale(self):
        X = np.random.default_rng(11).standard_normal((1500, 5)) * 1.7 + 0.3
        ref = pdist(X)
        assert _pairwise_distances(X).tobytes() == ref.tobytes()
        assert median_pairwise_distance(X) == float(np.median(ref))

    def test_row_locality(self):
        # each output row depends only on its input row
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        for fmap in (LinearFeatures(), PairwiseQuadraticFeatures(),
                     GaussianKernelFeatures(basis=rng.standard_normal((4, 3)))):
            full = featurize(X, fmap)
            perm = rng.permutation(6)
            assert np.array_equal(featurize(X[perm], fmap), full[perm])


def reference_rbf(X, basis, bandwidth):
    """GaussianKernelFeatures.transform as it was before it worked in
    place by blocks of rows, with three n-by-m buffers: frozen as the
    reference."""
    xx, bb = np.sum(X**2, axis=1), np.sum(basis**2, axis=1)
    sq = xx[:, None] + bb[None, :] - 2.0 * (X @ basis.T)
    if xx.max() + bb.max() > 2.0**1022:
        i, j = np.nonzero(~np.isfinite(sq))
        sq[i, j] = np.sum((X[i] - basis[j]) ** 2, axis=1)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * bandwidth**2))


class TestGaussianKernelTransform:
    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 30),
        d=st.integers(1, 6),
        log10_scale=st.sampled_from([-150, -3, 0, 2, 153, 154, 200]),
        bandwidth=st.sampled_from([1e-150, 1e-3, 0.7, 1.0, 3.3, 1e150]),
        block=st.sampled_from([1, 7, 40, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_frozen_reference(self, n, m, d, log10_scale, bandwidth, block, seed):
        # scales from 1e153 on take the overflow fix-up; shared rows put
        # points at their centres; small blocks split the rows unevenly
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 10.0**log10_scale
        basis = np.vstack([X[: m // 2], rng.standard_normal((m - m // 2, d)) * 10.0**log10_scale])
        fmap = GaussianKernelFeatures(basis, bandwidth)
        with mock.patch.object(ratio_model, "_PAIR_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            got = fmap.transform(X)
            want = reference_rbf(X, basis, bandwidth)
        assert got.tobytes() == want.tobytes()

    def test_bitwise_equal_to_frozen_reference_at_fit_scale(self):
        # 1500 rows against 1200 centres: 28 blocks of 54 rows
        rng = np.random.default_rng(7)
        X, basis = rng.standard_normal((1500, 5)), rng.standard_normal((1200, 5))
        fmap = GaussianKernelFeatures(basis)
        assert fmap.transform(X).tobytes() == reference_rbf(X, basis, fmap.bandwidth).tobytes()

    def test_peak_is_one_buffer_and_a_block(self):
        rng = np.random.default_rng(5)
        X, basis = rng.standard_normal((1500, 5)), rng.standard_normal((1200, 5))
        fmap = GaussianKernelFeatures(basis, 1.0)
        buffer = X.shape[0] * basis.shape[0] * 8
        tracemalloc.start()
        try:
            fmap.transform(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= buffer + 2**20


def log_normalizer(delta, PhiQ):
    """log mean_j exp <delta, PhiQ_j>: minus the log ratio at the zero feature vector."""
    return -log_ratios(delta, np.zeros((1, np.shape(PhiQ)[-1])), PhiQ)[0]


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
        (lr,) = log_ratios(np.array([LN2]), np.array([[1.0]]), np.array([[1.0], [-1.0]]))
        assert abs(lr - (LN2 - HAND_LOGN)) < 1e-12
        assert abs(lr - 0.4700036292) < 1e-9

    def test_zero_delta_gives_zero(self):
        rng = np.random.default_rng(2)
        PhiQ = featurize(rng.standard_normal((5, 3)), LinearFeatures())
        assert np.array_equal(log_ratios(np.zeros(3), rng.standard_normal((1, 3)), PhiQ), [0.0])

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


class TestSoftmax:
    def test_uniform_at_zero(self):
        w = softmax_weights(np.zeros(2), np.random.default_rng(5).standard_normal((4, 2)) * 0)
        assert np.allclose(w, 0.25)

    def test_single_row(self):
        assert softmax_weights(np.array([3.0]), np.array([[2.0]])) == np.array([1.0])

    def test_hand_value(self):
        w = softmax_weights(np.array([LN2]), np.array([[1.0], [-1.0]]))
        assert np.allclose(w, [0.8, 0.2], atol=1e-12)

    @pytest.mark.parametrize("fn", [log_normalizer, softmax_weights, lambda d, Q: log_ratios(d, Q, Q)],
                             ids=["log_normalizer", "softmax_weights", "log_ratios"])
    def test_rejects_column_delta(self, fn):
        with pytest.raises(ValueError, match=r"delta has shape \(2, 1\), expected \(2,\)"):
            fn(np.zeros((2, 1)), np.ones((4, 2)))

    @given(
        arrays(float, (6, 2), elements=finite_floats(-30, 30)),
        arrays(float, (2,), elements=finite_floats(-10, 10)),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_nonnegative(self, PhiQ, delta):
        w = softmax_weights(delta, PhiQ)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


class TestSubnormalWeights:
    """Weights that underflow below the smallest normal double keep their bits."""

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

    def test_weights_are_the_unflushed_bits(self, case):
        _, PhiQ, delta, unflushed = case
        assert softmax_weights(delta, PhiQ).tobytes() == unflushed.tobytes()

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


def _dot_threads() -> list[threading.Thread]:
    """The live threads of estimator's overlap workers."""
    return [t for t in threading.enumerate() if t.name.startswith("trdre-dot")]


class TestDotPair:
    """estimator's worker thread returns np.dot's bits and np.dot's errors,
    as the serial pair _dot_pair does, and _evaluate gives the same bits
    with either pair."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(8)
        Xp, Xq = rng.standard_normal((70, 4)) + 0.4, rng.standard_normal((90, 4))
        fmap = GaussianKernelFeatures(Xq[:30])
        return featurize(Xp, fmap), featurize(Xq, fmap), rng.standard_normal(30)

    @pytest.fixture()
    def worker(self):
        worker = _DotWorker()
        yield worker
        worker.stop()
        assert not _dot_threads()

    def products(self, pair, PhiP, PhiQ, delta):
        w = np.full(PhiP.shape[0], 1.0 / PhiP.shape[0])
        sm = softmax_weights(delta, PhiQ)
        return [
            *pair(PhiQ, delta, PhiP, delta),
            *pair(PhiP.T, w, PhiQ.T, sm),
            *pair(np.asfortranarray(PhiQ), delta, np.asfortranarray(PhiP), delta),
            *_evaluate(delta, PhiP, PhiQ, pair),
            *_evaluate(delta, PhiQ, PhiQ, pair),
            *_evaluate(delta, np.asfortranarray(PhiP), np.asfortranarray(PhiQ), pair),
        ]

    def test_threaded_equals_serial(self, data, overlap, worker):
        ran = overlap(True)
        threaded = self.products(worker.pair, *data)
        assert len(ran) == 6
        serial = self.products(_dot_pair, *data)
        assert len(threaded) == len(serial)
        for a, b in zip(threaded, serial):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(serial[0], np.dot(data[1], data[2]))

    def test_errors_are_np_dots(self, data, overlap, worker):
        PhiP, PhiQ, delta = data
        ran = overlap(True)
        # The first product's error, as the serial order raises it.
        with pytest.raises(ValueError, match=r"\(70,30\) and \(29,\)"):
            worker.pair(PhiP, delta[:-1], PhiQ, delta[:-2])
        with pytest.raises(ValueError, match=r"\(90,30\) and \(28,\)"):
            worker.pair(PhiP, delta, PhiQ, delta[:-2])
        assert len(ran) == 2
        # The worker serves the next pair as before.
        zp, zq = worker.pair(PhiP, delta, PhiQ, delta)
        assert zp.tobytes() == np.dot(PhiP, delta).tobytes()
        assert zq.tobytes() == np.dot(PhiQ, delta).tobytes()

    @pytest.mark.parametrize("threaded", [False, True])
    def test_float_errors_follow_the_callers_errstate(self, data, overlap, worker, threaded):
        PhiP, PhiQ, delta = data
        ran = overlap(True)
        pair = worker.pair if threaded else _dot_pair
        huge = np.full(PhiP.shape, 1e300)  # only the first product overflows
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            pair(huge, huge[0], PhiQ, delta)
        assert len(ran) == threaded

    def test_late_worker_is_overtaken(self, data, overlap, monkeypatch):
        PhiP, PhiQ, delta = data
        ran = overlap(True)
        monkeypatch.setattr(estimator, "_LATE", 1.25)
        resume = threading.Event()

        class StalledOnWorker:
            """PhiP, but converting it stalls the worker thread, as if its CPU were taken."""

            def __array__(self, dtype=None, copy=None):
                if threading.current_thread().name.startswith("trdre-dot"):
                    resume.wait(30.0)
                return PhiP

        def settle():
            deadline = time.monotonic() + 30.0
            while not worker.idle and time.monotonic() < deadline:
                time.sleep(0.01)
            assert worker.idle

        worker = _DotWorker()
        try:
            start = time.perf_counter()
            zp, zq = worker.pair(StalledOnWorker(), delta, PhiQ, delta)
            assert time.perf_counter() - start < 10.0  # computed here, not waited for
            assert zp.tobytes() == np.dot(PhiP, delta).tobytes()
            assert zq.tobytes() == np.dot(PhiQ, delta).tobytes()
            # While the worker is held up, pairs run serially.
            assert not worker.idle
            zp, _ = worker.pair(PhiP, delta, PhiQ, delta)
            assert len(ran) == 1 and zp.tobytes() == np.dot(PhiP, delta).tobytes()
            resume.set()
            settle()
            worker.pair(PhiP, delta, PhiQ, delta)
            assert len(ran) == 2  # the idle worker takes pairs again
            # stop waits for a product the caller dropped, then ends the thread.
            # The caller may have overtaken the last product too: wait for it,
            # so that the worker takes the next one.
            settle()
            resume.clear()
            worker.pair(StalledOnWorker(), delta, PhiQ, delta)
            assert len(ran) == 3 and not worker.idle
            timer = threading.Timer(0.2, resume.set)
            timer.start()
            worker.stop()
            assert resume.is_set() and not _dot_threads()
            timer.join(10.0)
        finally:
            resume.set()
            worker.stop()

    @pytest.mark.parametrize("env,single", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        # OpenBLAS skips a variable that holds no positive integer.
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, False),
    ])
    def test_blas_thread_count_from_environment(self, monkeypatch, env, single):
        # One CPU unless OpenBLAS is pinned to one thread; then the affinity mask's count.
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _cpus() == (3 if single else 1)

    @pytest.mark.parametrize("mask,count", [({0}, 1), ({1, 3}, 2), (set(range(5)), 5), (None, 4)])
    def test_cpus_counts_the_affinity_mask(self, monkeypatch, mask, count):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        if mask is None:  # an OS without affinity masks: every CPU counts
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 4)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        assert _cpus() == count
