import json
import math
import os
import pickle
import sys
import threading
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trdre import estimator, experiments
from trdre.baselines import enumerate_weight_vertices
from trdre.estimator import (
    STOP_REASONS,
    UNBOUNDED_SLACK,
    FitDivergedError,
    TrimConfig,
    _penalty,
    _reg_value,
    _trim,
    ascend,
    assign_weights,
    fit,
    fit_featurized,
    fit_kliep,
    fit_many,
    fit_result_to_dict,
    gradient,
    keep_count,
    kkt_check,
    maxmin_1d,
    objective,
    soft_threshold,
    unbounded_threshold,
)
from trdre.ratio_model import (
    GaussianKernelFeatures,
    LinearFeatures,
    PairwiseQuadraticFeatures,
    _evaluate,
    featurize,
    log_ratios,
    softmax_weights,
)
from trdre.storage import json_text
from trdre.synthetic import gen_truncation_1d


def straight_line_objective(delta, w, PhiP, PhiQ, lam, regularizer):
    """Plain-Python re-evaluation of the objective, no shared code paths."""
    n_q = len(PhiQ)
    logN = math.log(
        math.fsum(math.exp(math.fsum(d * v for d, v in zip(delta, row))) for row in PhiQ) / n_q
    )
    total = 0.0
    for wi, row in zip(w, PhiP):
        total += wi * (math.fsum(d * v for d, v in zip(delta, row)) - logN)
    if regularizer == "l1":
        total -= lam * math.fsum(abs(d) for d in delta)
    elif regularizer == "l2sq":
        total -= lam * math.fsum(d * d for d in delta)
    return total


def fd_gradient(delta, w, PhiP, PhiQ, h=1e-6):
    cfg = TrimConfig()
    g = np.zeros_like(delta)
    for k in range(delta.size):
        e = np.zeros_like(delta)
        e[k] = h
        g[k] = (objective(delta + e, w, PhiP, PhiQ, cfg) - objective(delta - e, w, PhiP, PhiQ, cfg)) / (2 * h)
    return g


class TestTrimConfig:
    def test_defaults_valid(self):
        cfg = TrimConfig()
        assert cfg.nu == 1.0 and cfg.regularizer == "none"
        assert len(fields(TrimConfig)) == 5

    def test_window_tolerance_is_not_a_setting(self):
        with pytest.raises(TypeError, match="tol"):
            TrimConfig(tol=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0}, {"nu": 1.5}, {"lam": -0.1}, {"regularizer": "ridge"},
            {"eta0": 0.0}, {"max_iter": 0}, {"nu": -0.5}, {"nu": float("inf")},
            {"eta0": -1.0},
            {"nu": True}, {"lam": True, "regularizer": "l1"}, {"eta0": True}, {"max_iter": -1},
            {"nu": np.True_}, {"lam": np.True_, "regularizer": "l1"},
            {"eta0": np.True_}, {"max_iter": np.True_}, {"lam": float("-inf"), "regularizer": "l2sq"},
            {"lam": 0.5}, {"lam": 0.5, "regularizer": "none"},
            {"nu": float("nan")}, {"lam": float("nan"), "regularizer": "l1"},
            {"lam": float("inf"), "regularizer": "l1"}, {"eta0": float("nan")}, {"eta0": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # The message names the field: the first one given.
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must"):
            TrimConfig(**kwargs)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, float("inf"), float("nan"), "3", None, True])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            TrimConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_is_accepted(self):
        cfg = TrimConfig(max_iter=np.int64(3))
        res = fit_featurized(np.ones((4, 2)), np.ones((5, 2)), cfg)
        assert res.iterations_run == 3 and res.stop_reason == "max_iter"
        assert json.loads(json_text(fit_result_to_dict(res, cfg)))["config"]["max_iter"] == 3

    def test_numbers_are_stored_as_python_numbers(self):
        cfg = TrimConfig(
            nu=np.float64(0.8), lam=np.float32(0.1), regularizer="l1", eta0=np.float32(0.5),
            max_iter=np.int32(3),
        )
        assert [type(getattr(cfg, n)) for n in ("nu", "lam", "eta0", "max_iter")] == [float, float, float, int]
        assert cfg.lam == float(np.float32(0.1))
        res = fit_featurized(np.ones((4, 1)), np.ones((5, 1)), cfg)
        config = json.loads(json_text(fit_result_to_dict(res, cfg)))["config"]
        assert config["lambda"] == cfg.lam and config["max_iter"] == 3


class TestKeepCount:
    def test_half_up_rounding(self):
        assert keep_count(0.5, 5) == 3
        assert keep_count(0.6, 5) == 3
        assert keep_count(1.0, 7) == 7
        assert keep_count(2.0 / 3.0, 3) == 2

    def test_zero_keep_is_error(self):
        with pytest.raises(ValueError):
            keep_count(0.01, 10)

    @pytest.mark.parametrize("nu", [1.7, 1.0 + 1e-12, 0.0, -0.5, math.nan, math.inf])
    def test_nu_outside_unit_interval_is_error(self, nu):
        lr = np.array([0.5, -1.0, 2.0, 0.0])
        for call in (
            lambda: keep_count(nu, 4),
            lambda: assign_weights(lr, nu),
            lambda: enumerate_weight_vertices(4, nu),
            lambda: maxmin_1d(lr, lr + 0.5, TrimConfig(nu=nu)),
        ):
            with pytest.raises(ValueError, match=r"nu must lie in \(0, 1\]"):
                call()


class TestAssignWeights:
    def test_spec_examples(self):
        w = assign_weights(np.array([0.5, -1.0, 2.0, 0.0]), 0.5)
        assert np.array_equal(w, [0.0, 0.25, 0.0, 0.25])
        assert np.array_equal(assign_weights(np.array([3.0, 1.0]), 1.0), [0.5, 0.5])

    def test_tie_break_by_index(self):
        w = assign_weights(np.array([1.0, 1.0, 1.0]), 2.0 / 3.0)
        assert np.allclose(w, [1 / 3, 1 / 3, 0.0])

    def test_rejects_empty_and_tiny_nu(self):
        with pytest.raises(ValueError):
            assign_weights(np.array([]), 0.5)
        with pytest.raises(ValueError):
            assign_weights(np.array([1.0, 2.0]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            assign_weights(np.array([0.5, bad, -1.0]), 0.5)

    @given(
        arrays(float, st.integers(1, 9).map(lambda n: (n,)),
               elements=st.floats(-50, 50, allow_nan=False)),
        st.floats(0.15, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, lr, nu):
        n_p = lr.size
        try:
            k = keep_count(nu, n_p)
        except ValueError:
            return
        w = assign_weights(lr, nu)
        assert set(np.round(w * n_p, 12)) <= {0.0, 1.0}
        assert abs(w.sum() - k / n_p) < 1e-12
        # kept values never exceed dropped values
        kept = lr[w > 0]
        dropped = lr[w == 0]
        if kept.size and dropped.size:
            assert kept.max() <= dropped.min() + 1e-12

    def test_matches_enumerated_minimum(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_p = int(rng.integers(2, 9))
            lr = rng.standard_normal(n_p)
            nu = float(rng.uniform(0.3, 1.0))
            try:
                w = assign_weights(lr, nu)
            except ValueError:
                continue
            values = [float(v @ lr) for v in enumerate_weight_vertices(n_p, nu)]
            assert float(w @ lr) <= min(values) + 1e-12


def stable_argsort_trim(lr, k):
    """Reference ranking: the first k indices of a stable argsort."""
    kept = np.argsort(lr, kind="stable")[:k]
    w = np.zeros(lr.size)
    w[kept] = 1.0 / lr.size
    return w, lr[kept]


def assert_trim_matches_reference(lr):
    for k in range(1, lr.size + 1):
        w, low = _trim(lr, k)
        ref_w, ref_low = stable_argsort_trim(lr, k)
        assert w.tobytes() == ref_w.tobytes()
        assert low.tobytes() == ref_low.tobytes()
        # t_hat, including the sign of a zero threshold.
        assert np.float64(low[-1]).tobytes() == np.float64(ref_low[-1]).tobytes()


class TestTrim:
    """_trim ranks by a value sort and O(n) masks; it must select what a
    stable argsort selects."""

    @given(
        arrays(float, st.integers(1, 40).map(lambda n: (n,)),
               elements=st.sampled_from([-np.inf, -0.0, 0.0, np.inf])
               | st.integers(-3, 3).map(float)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort(self, lr):
        assert_trim_matches_reference(lr)

    def test_signed_zeros_at_scale(self):
        rng = np.random.default_rng(28)
        assert_trim_matches_reference(rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=300))


class TestObjective:
    def test_zero_delta_is_zero(self):
        rng = np.random.default_rng(11)
        PhiP, PhiQ = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
        w = np.full(5, 0.2)
        assert objective(np.zeros(2), w, PhiP, PhiQ, TrimConfig()) == 0.0

    def test_hand_value(self):
        # X_p = X_q = {[1], [-1]}, nu=1, delta=[ln 2]: weighted ratio terms
        # cancel and only -log N = -log 1.25 remains.
        Phi = np.array([[1.0], [-1.0]])
        val = objective(np.array([math.log(2.0)]), np.array([0.5, 0.5]), Phi, Phi, TrimConfig())
        assert abs(val - (-math.log(1.25))) < 1e-12
        assert abs(val - (-0.2231435513)) < 1e-9

    def test_matches_straight_line_evaluator(self):
        rng = np.random.default_rng(12)
        for reg in ("none", "l1", "l2sq"):
            for _ in range(25):
                n_p, n_q, d = (int(rng.integers(1, 7)) for _ in range(3))
                PhiP = rng.standard_normal((n_p, d))
                PhiQ = rng.standard_normal((n_q, d))
                delta = rng.standard_normal(d)
                w = assign_weights(rng.standard_normal(n_p), 1.0 if n_p < 2 else 0.5)
                lam = float(rng.uniform(0, 2)) if reg != "none" else 0.0
                cfg = TrimConfig(lam=lam, regularizer=reg)
                expected = straight_line_objective(delta, w, PhiP, PhiQ, lam, reg)
                assert abs(objective(delta, w, PhiP, PhiQ, cfg) - expected) < 1e-10


class TestGradient:
    def test_zero_at_matched_means(self):
        rng = np.random.default_rng(13)
        Phi = rng.standard_normal((8, 3))
        w = np.full(8, 1.0 / 8.0)
        g = gradient(np.zeros(3), w, Phi, Phi)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_hand_value(self):
        g = gradient(np.zeros(1), np.array([0.5, 0.5]), np.array([[1.0], [3.0]]), np.array([[0.0], [2.0]]))
        assert np.allclose(g, [1.0], atol=1e-12)

    def test_softmax_bits_are_the_kernels(self):
        rng = np.random.default_rng(15)
        PhiP, PhiQ = rng.standard_normal((30, 3)), rng.standard_normal((40, 3))
        delta, w = rng.standard_normal(3), assign_weights(rng.standard_normal(30), 0.8)
        _, sm = _evaluate(delta, PhiP, PhiQ)
        want = np.dot(PhiP.T, w) - float(np.sum(w)) * np.dot(PhiQ.T, sm)
        assert gradient(delta, w, PhiP, PhiQ).tobytes() == want.tobytes()

    @pytest.mark.parametrize("oracle", ["gradient", "objective"])
    @pytest.mark.parametrize(
        "m_p, m_q, named",
        [(1, 2, r"\(1,\) for PhiP of shape \(3, 1\)"), (3, 2, r"\(3,\) for PhiP of shape \(3, 3\)"),
         (2, 1, r"\(1,\) for PhiQ of shape \(3, 1\)")],
        ids=["PhiP_1", "PhiP_3", "PhiQ_1"],
    )
    def test_features_not_matching_delta_raise(self, oracle, m_p, m_q, named):
        # PhiP^T w of one column would broadcast against two coefficients;
        # objective shares gradient's check.
        args = (np.zeros(2), np.full(3, 1 / 3), np.ones((3, m_p)), np.ones((3, m_q)))
        with pytest.raises(ValueError, match=rf"^delta has shape \(2,\), expected {named}$"):
            gradient(*args) if oracle == "gradient" else objective(*args, TrimConfig())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(1, 11))
            n_p = int(rng.integers(2, 51))
            n_q = int(rng.integers(2, 51))
            PhiP = rng.standard_normal((n_p, d))
            PhiQ = rng.standard_normal((n_q, d))
            delta = rng.standard_normal(d) * 0.5
            w = assign_weights(rng.standard_normal(n_p), float(rng.uniform(0.5, 1.0)))
            g = gradient(delta, w, PhiP, PhiQ)
            g_fd = fd_gradient(delta, w, PhiP, PhiQ)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            assert rel < 1e-5


class TestRegularizer:
    def test_values(self):
        delta = np.array([1.5, 0.0, -2.0])
        values = [_reg_value(delta, TrimConfig(regularizer=reg)) for reg in ("none", "l1", "l2sq")]
        assert values == [0.0, 3.5, 6.25]

    @pytest.mark.parametrize("lam", [0.0, 1e-310, 1e-305, 0.3, 7.0])
    def test_penalty_is_lam_times_value_where_the_square_is_finite(self, lam):
        rng = np.random.default_rng(3)
        for scale in (1e-200, 1e-3, 1.0, 1e100, 1e154):
            delta = rng.standard_normal(4) * scale
            for reg in ("l1", "l2sq"):
                cfg = TrimConfig(lam=lam, regularizer=reg)
                assert _penalty(delta, cfg) == lam * _reg_value(delta, cfg)

    def test_l2sq_penalty_finite_past_the_square_overflow(self):
        # |delta| = 4.17e304: delta**2 overflows, lam * delta**2 = 1.7e304 does not.
        xp, xq = np.array([[2.0], [3.0], [2.5]]), np.array([[-1.0], [1.0], [0.0]])
        cfg = TrimConfig(nu=2.0 / 3.0, lam=1e-305, regularizer="l2sq")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, value = maxmin_1d(xp, xq, cfg)
            res = fit_featurized(xp, xq, cfg)
        # Keeping 2 and 2.5, F(d) = (2.5 d + 2 log 3) / 3 - lam d^2, at its top d = 2.5 / (6 lam).
        assert d == pytest.approx(2.5 / 6e-305, rel=1e-12)
        assert value == pytest.approx((2.5 * d + 2.0 * math.log(3.0)) / 3.0 - (1e-305 * d) * d, rel=1e-12)
        assert res.stop_reason == "certified" and res.objective_best == value
        assert _penalty(np.array([d, -d]), cfg) == pytest.approx(2.0 * (1e-305 * d) * d, rel=1e-15)


class TestProx:
    def test_soft_threshold(self):
        assert np.array_equal(soft_threshold(np.array([3.0, -0.5, 0.2]), 1.0), [2.0, 0.0, 0.0])


class TestFit:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((50, 3))
        res = fit(X, X, LinearFeatures(), TrimConfig())
        assert np.max(np.abs(res.delta_best)) < 1e-3
        assert abs(res.objective_best) < 1e-9
        assert res.converged

    def test_objective_best_is_trace_max(self):
        xp, xq = gen_truncation_1d(400, 0.5, seed=1)
        res = ascend(featurize(xp, LinearFeatures()), featurize(xq, LinearFeatures()), TrimConfig(nu=0.5))
        assert res.iterations_run > 50
        assert res.objective_best == max(v for _, v in res.trace)

    def test_t_hat_is_kth_smallest_log_ratio(self):
        xp, xq = gen_truncation_1d(400, 0.5, seed=2)
        cfg = TrimConfig(nu=0.5)
        res = fit(xp, xq, LinearFeatures(), cfg)
        fmap = LinearFeatures()
        lr = log_ratios(res.delta_best, featurize(xp, fmap), featurize(xq, fmap))
        k = keep_count(cfg.nu, len(lr))
        assert abs(res.t_hat - np.sort(lr)[k - 1]) < 1e-12
        assert len(res.kept_indices) == k

    def test_truncation_protocol_recovers_half(self):
        xp, xq = gen_truncation_1d(5000, 0.5, seed=7)
        res = fit(xp, xq, LinearFeatures(), TrimConfig(nu=0.5))
        assert abs(res.delta_best[0] - 0.5) < 0.1

    def test_tiny_instance_matches_grid_oracle(self):
        # Chosen so the trimmed objective is bounded (the kept-third mean of
        # x_p stays inside the range of x_q in both tail directions) and the
        # maximizer is finite, at |delta| < 4.9. The loop, against the exact solver.
        xp = np.array([[0.5], [1.0], [1.4], [1.9], [2.5]])
        xq = np.array([[-2.0], [-0.9], [0.0], [0.8], [2.2]])
        cfg = TrimConfig(nu=0.6, max_iter=20000)
        res = ascend(xp, xq, cfg)
        d_star, oracle = maxmin_1d(xp, xq, cfg)
        assert abs(d_star) < 4.9
        assert abs(res.objective_best - oracle) < 1e-3
        assert abs(res.delta_best[0] - d_star) < 1e-2

    def test_permutation_of_rows_same_delta(self):
        rng = np.random.default_rng(17)
        xp = rng.standard_normal((60, 2))
        xq = rng.standard_normal((70, 2)) + 0.3
        cfg = TrimConfig(nu=0.8)
        res = fit(xp, xq, LinearFeatures(), cfg)
        res_p = fit(xp[rng.permutation(60)], xq[rng.permutation(70)], LinearFeatures(), cfg)
        assert np.allclose(res.delta_best, res_p.delta_best, atol=1e-12)

    def test_huge_max_iter_allocates_nothing_up_front(self):
        rng = np.random.default_rng(16)
        res = fit_featurized(rng.standard_normal((30, 2)) + 0.5, rng.standard_normal((40, 2)),
                             TrimConfig(nu=0.9, max_iter=10**12))
        assert res.stop_reason == "window"

    def test_diverged_fit_raises(self):
        # The gradient is bounded by the feature magnitudes, so divergence
        # needs a step large enough that eta * g itself overflows. Two
        # columns: the loop runs, where one would be solved exactly.
        rng = np.random.default_rng(18)
        xp = rng.standard_normal((20, 2)) + 3.0
        xq = rng.standard_normal((20, 2))
        with pytest.raises(FitDivergedError, match="non-finite"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            fit(xp, xq, LinearFeatures(), TrimConfig(eta0=1e308))

    def test_diverged_error_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(FitDivergedError(3, 1e300)))
        assert type(exc) is FitDivergedError
        assert (exc.iteration, exc.delta_norm) == (3, 1e300)
        assert str(exc) == str(FitDivergedError(3, 1e300))

    def test_large_l1_penalty_gives_exact_zeros(self):
        rng = np.random.default_rng(19)
        xp = rng.standard_normal((40, 2)) + 0.2
        xq = rng.standard_normal((40, 2))
        res = fit(xp, xq, LinearFeatures(), TrimConfig(lam=10.0, regularizer="l1"))
        assert np.array_equal(res.delta_best, np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones((3, 2)), np.ones((3, 3)), LinearFeatures(), TrimConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_features_rejected(self, side, bad):
        # One bad entry in a row the trimming drops would only surface one
        # iteration later, as a FitDivergedError blaming eta0.
        rng = np.random.default_rng(21)
        PhiP, PhiQ = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
        (PhiP if side == "p" else PhiQ)[3, 1] = bad
        with pytest.raises(ValueError, match=f"Phi{side.upper()} contains non-finite entries"):
            fit_featurized(PhiP, PhiQ, TrimConfig(nu=0.8))

    @pytest.mark.parametrize("side", ["PhiP", "PhiQ"])
    def test_matrix_without_rows_rejected(self, side):
        # An empty PhiQ failed inside the loop with "math domain error".
        Phi = {"PhiP": np.ones((4, 2)), "PhiQ": np.ones((5, 2))}
        Phi[side] = np.empty((0, 2))
        with pytest.raises(ValueError, match=f"{side} must contain at least one sample and one column"):
            fit_featurized(Phi["PhiP"], Phi["PhiQ"], TrimConfig())

    @pytest.mark.parametrize("solver", [fit_featurized, ascend, maxmin_1d])
    def test_matrices_without_columns_rejected(self, solver):
        # fit_featurized ran the loop on them, and stopped "window" with an empty delta.
        with pytest.raises(ValueError, match=r"PhiP must contain .* one column, got shape \(5, 0\)"):
            solver(np.zeros((5, 0)), np.zeros((3, 0)), TrimConfig())

    def test_vector_features_are_one_column(self):
        rng = np.random.default_rng(22)
        xp, xq = rng.standard_normal(40) + 0.5, rng.standard_normal(50)
        cfg = TrimConfig(nu=0.8)
        res = fit_featurized(xp, xq, cfg)
        assert res.stop_reason == "certified"
        assert TestFitMany.bits([res]) == TestFitMany.bits([fit_featurized(xp[:, None], xq[:, None], cfg)])


def _unbounded_1d(seed=33):
    """Every x_p lies beyond every x_q: the objective grows without bound
    along delta > 0 for any nu, with no penalty or an l1 penalty."""
    rng = np.random.default_rng(seed)
    return rng.uniform(5.0, 6.0, (80, 1)), rng.standard_normal((120, 1))


class TestUnboundedStop:
    @pytest.mark.parametrize(
        "cfg",
        [TrimConfig(), TrimConfig(nu=0.8), TrimConfig(nu=0.9, lam=0.1, regularizer="l1"),
         TrimConfig(regularizer="l2sq")],
        ids=["none", "trimmed", "l1", "l2sq_lam0"],
    )
    def test_stops_within_a_few_iterations(self, cfg):
        PhiP, PhiQ = _unbounded_1d()
        res = fit_featurized(PhiP, PhiQ, cfg)
        assert res.stop_reason == "unbounded" and not res.converged
        assert res.iterations_run <= 5
        # The loop stops at its first objective above the ceiling, and at no earlier one.
        ceiling = unbounded_threshold(cfg, 80, 120)
        assert ceiling == keep_count(cfg.nu, 80) / 80 * math.log(120) + UNBOUNDED_SLACK
        *before, (_, last) = res.trace
        assert res.objective_best == last > ceiling >= max(v for _, v in before)
        # The certificate's ray: the objective keeps growing along delta_best.
        delta = res.delta_best
        values = []
        for d in (delta, 2.0 * delta, 4.0 * delta):
            w = assign_weights(log_ratios(d, PhiP, PhiQ), cfg.nu)
            values.append(objective(d, w, PhiP, PhiQ, cfg))
        assert values[0] == pytest.approx(res.objective_best, abs=1e-12)
        assert values[0] < values[1] < values[2]

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0])
    def test_l2sq_penalty_is_never_unbounded(self, lam):
        PhiP, PhiQ = _unbounded_1d()
        cfg = TrimConfig(nu=0.9, lam=lam, regularizer="l2sq")
        assert unbounded_threshold(cfg, 80, 120) == math.inf
        assert fit_featurized(PhiP, PhiQ, cfg).stop_reason == "certified"
        assert ascend(PhiP, PhiQ, cfg).stop_reason in ("window", "max_iter")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from([0.7, 0.9, 1.0]))
    def test_bounded_problems_stay_under_the_ceiling(self, seed, nu):
        # x_q covers x_p on both sides, so a finite maximizer exists and no
        # iterate may cross nu log n_q.
        rng = np.random.default_rng(seed)
        PhiP = rng.standard_normal((40, 2))
        PhiQ = 2.0 * rng.standard_normal((60, 2))
        PhiQ[:4] = [[9.0, 9.0], [-9.0, 9.0], [9.0, -9.0], [-9.0, -9.0]]
        res = fit_featurized(PhiP, PhiQ, TrimConfig(nu=nu, max_iter=300))
        assert res.stop_reason in ("window", "max_iter")
        nu_eff = keep_count(nu, 40) / 40
        assert max(v for _, v in res.trace) <= nu_eff * math.log(60)


class TestKliep:
    def test_nu_one_reduction_bit_for_bit(self):
        rng = np.random.default_rng(20)
        xp = rng.standard_normal((200, 2)) + 0.5
        xq = rng.standard_normal((250, 2))
        cfg = TrimConfig(nu=1.0)
        a = fit(xp, xq, LinearFeatures(), cfg)
        b = fit_kliep(xp, xq, LinearFeatures(), replace(cfg, nu=0.7))
        assert np.array_equal(a.delta_best, b.delta_best)
        assert np.array_equal(a.w_best, b.w_best)
        assert a.objective_best == b.objective_best
        assert a.trace == b.trace
        assert a.t_hat == b.t_hat

    def test_gaussian_shift_recovery(self):
        rng = np.random.default_rng(21)
        xp = rng.standard_normal((5000, 1))
        xq = rng.normal(-0.75, 1.0, size=(5000, 1))
        res = fit_kliep(xp, xq, LinearFeatures(), TrimConfig())
        assert abs(res.delta_best[0] - 0.75) < 0.1


class TestConcavity:
    def test_inner_min_value_concave_in_delta(self):
        rng = np.random.default_rng(22)
        PhiP = rng.standard_normal((12, 2))
        PhiQ = rng.standard_normal((15, 2))
        cfg = TrimConfig(nu=0.5)

        def F(delta):
            lr = log_ratios(delta, PhiP, PhiQ)
            return objective(delta, assign_weights(lr, cfg.nu), PhiP, PhiQ, cfg)

        for _ in range(50):
            d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
            assert F((d1 + d2) / 2.0) >= (F(d1) + F(d2)) / 2.0 - 1e-9


class TestKKT:
    def test_trimmed_fit_passes(self):
        xp, xq = gen_truncation_1d(800, 0.5, seed=23)
        cfg = TrimConfig(nu=0.5)
        PhiP, PhiQ = featurize(xp, LinearFeatures()), featurize(xq, LinearFeatures())
        res = fit_featurized(PhiP, PhiQ, cfg)
        report = kkt_check(res, PhiP, PhiQ, cfg)
        assert report.weight_ok
        assert report.stationarity < 0.05

    def test_nu_one_vacuously_passes_weights(self):
        rng = np.random.default_rng(24)
        xp, xq = rng.standard_normal((30, 1)), rng.standard_normal((30, 1))
        cfg = TrimConfig()
        PhiP, PhiQ = featurize(xp, LinearFeatures()), featurize(xq, LinearFeatures())
        res = fit_featurized(PhiP, PhiQ, cfg)
        assert kkt_check(res, PhiP, PhiQ, cfg).weight_ok

    def test_hand_built_violation_is_flagged(self):
        rng = np.random.default_rng(25)
        PhiP, PhiQ = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
        cfg = TrimConfig(nu=0.5)
        res = fit_featurized(PhiP, PhiQ, cfg)
        bad_w = res.w_best.copy()
        kept = res.kept_indices
        dropped = np.setdiff1d(np.arange(6), kept)
        bad_w[kept[0]], bad_w[dropped[-1]] = 0.0, 1.0 / 6.0  # swap a kept/dropped pair
        bad = replace(res, w_best=bad_w)
        report = kkt_check(bad, PhiP, PhiQ, cfg)
        assert not report.weight_ok
        assert report.max_weight_violation >= 1.0 / 6.0 - 1e-12


def straight_line_stationarity(delta, w, PhiP, PhiQ, lam, regularizer):
    """Plain-Python sup-norm KKT residual of the outer problem at delta."""
    z = [math.fsum(d * v for d, v in zip(delta, row)) for row in PhiQ]
    zmax = max(z)
    e = [math.exp(v - zmax) for v in z]
    total = math.fsum(e)
    sm = [v / total for v in e]
    nu = math.fsum(w)
    residual = 0.0
    for k, dk in enumerate(delta):
        gk = math.fsum(wi * row[k] for wi, row in zip(w, PhiP)) - nu * math.fsum(
            s * row[k] for s, row in zip(sm, PhiQ)
        )
        if regularizer == "l1":
            rk = abs(gk - lam * math.copysign(1.0, dk)) if dk != 0.0 else max(abs(gk) - lam, 0.0)
        elif regularizer == "l2sq":
            rk = abs(gk - 2.0 * lam * dk)
        else:
            rk = abs(gk)
        residual = max(residual, rk)
    return residual


class TestSharedKernel:
    """The oracles and kkt_check evaluate the loop's own iterate the same way."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(27)
        PhiP = rng.standard_normal((60, 3)) + np.array([0.8, 0.0, 0.0])
        PhiP[:5] += 4.0
        PhiQ = rng.standard_normal((70, 3))
        return PhiP, PhiQ

    @pytest.mark.parametrize("regularizer,lam", [("none", 0.0), ("l1", 0.1), ("l2sq", 0.05)])
    def test_objective_and_stationarity_match_fit(self, data, regularizer, lam):
        PhiP, PhiQ = data
        cfg = TrimConfig(nu=0.8, lam=lam, regularizer=regularizer)
        res = fit_featurized(PhiP, PhiQ, cfg)
        delta = res.delta_best
        if regularizer == "l1":
            assert np.any(delta == 0.0) and np.any(delta != 0.0)
        assert abs(objective(delta, res.w_best, PhiP, PhiQ, cfg) - res.objective_best) < 1e-12
        expected = straight_line_stationarity(delta, res.w_best, PhiP, PhiQ, lam, regularizer)
        assert abs(kkt_check(res, PhiP, PhiQ, cfg).stationarity - expected) < 1e-10


class TestOverlapBitIdentity:
    """A fit's worker thread changes no bit of the fit, nor of an oracle or
    kkt_check, which run serially."""

    CONFIGS = [
        TrimConfig(nu=nu, lam=lam, regularizer=reg, max_iter=300)
        for reg, lam in (("none", 0.0), ("l1", 0.05), ("l2sq", 0.05))
        for nu in (0.85, 1.0)
    ]

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(29)
        Xp = rng.standard_normal((80, 4)) + np.array([0.6, 0.0, 0.0, 0.0])
        Xp[:8] += 3.0
        Xq = rng.standard_normal((90, 4))
        fmap = PairwiseQuadraticFeatures()
        return featurize(Xp, fmap), featurize(Xq, fmap)

    def outputs(self, PhiP, PhiQ):
        out, iterations, steps = [], 0, 0
        for cfg in self.CONFIGS:
            res = fit_featurized(PhiP, PhiQ, cfg)
            iterations += res.iterations_run
            # The iteration that stops a fit by the window or unbounded rule takes no step.
            steps += res.iterations_run - (res.stop_reason != "max_iter")
            d = res.delta_best
            out += [
                res.delta_best.tobytes(), res.w_best.tobytes(), res.objective_best, res.t_hat,
                res.trace, res.iterations_run, res.stop_reason,
                objective(d, res.w_best, PhiP, PhiQ, cfg),
                gradient(d, res.w_best, PhiP, PhiQ).tobytes(),
                log_ratios(d, PhiP, PhiQ).tobytes(),
                kkt_check(res, PhiP, PhiQ, cfg),
            ]
        return out, iterations, steps

    def test_threaded_equals_serial(self, data, overlap):
        ran = overlap(True)
        threaded, iterations, steps = self.outputs(*data)
        # Every iteration evaluates through the worker, and every step hands
        # it the gradient's pair too: two pairs per step.
        assert len(ran) == iterations + steps
        assert iterations - len(self.CONFIGS) <= steps <= iterations
        assert iterations > 50 * len(self.CONFIGS)
        ran = overlap(False)
        serial, *_ = self.outputs(*data)
        assert not ran
        assert threaded == serial

    def test_threaded_fit_keeps_the_callers_errstate(self, data, overlap):
        ran = overlap(True)
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(FitDivergedError):
                fit_featurized(*data, replace(self.CONFIGS[0], eta0=1e308))
        assert ran
        assert [w.message for w in caught] == []

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("errors", ["warn", "raise"])
    def test_diverged_fit_raises_fit_diverged_under_any_errstate(self, data, overlap, threaded, errors):
        # The loop ignores its own overflows on both threads, and its check
        # reports them, whatever the caller's errstate.
        ran = overlap(threaded)
        with warnings.catch_warnings(), np.errstate(over=errors, invalid=errors):
            warnings.simplefilter("error")
            with pytest.raises(FitDivergedError):
                fit_featurized(*data, replace(self.CONFIGS[0], eta0=1e308))
        assert bool(ran) == threaded

    def test_mismatched_weights_still_raise(self, data, overlap):
        PhiP, PhiQ = data
        delta = np.full(PhiP.shape[1], 0.01)
        ran = overlap(True)
        with pytest.raises(ValueError):
            gradient(delta, np.ones(PhiP.shape[0] - 1), PhiP, PhiQ)
        assert not ran  # single evaluations run serially
        w = np.full(PhiP.shape[0], 1.0 / PhiP.shape[0])
        threaded = gradient(delta, w, PhiP, PhiQ)
        overlap(False)
        assert threaded.tobytes() == gradient(delta, w, PhiP, PhiQ).tobytes()

    def test_concurrent_fits_equal_serial(self, data, overlap):
        # Two user threads fit at once, each with its own worker thread:
        # four threads on at most two cores, switching often.
        PhiP, PhiQ = data
        cfgs = self.CONFIGS[:2]
        ran = overlap(True)
        got = [None] * len(cfgs)

        def run(i):
            got[i] = fit_featurized(PhiP, PhiQ, cfgs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(ran) > sum(r.iterations_run for r in got)
        overlap(False)
        for cfg, res in zip(cfgs, got):
            assert TestFitMany.bits([res]) == TestFitMany.bits([fit_featurized(PhiP, PhiQ, cfg)])


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestFitMany:
    """fit_many returns, bit for bit, what a serial loop of fit_featurized
    returns or raises, whether or not it forks, and leaves no process
    behind."""

    CONFIGS = TestOverlapBitIdentity.CONFIGS

    @pytest.fixture(scope="class")
    def tasks(self):
        rng = np.random.default_rng(31)
        out = []
        for cfg in self.CONFIGS:
            Xp = rng.standard_normal((70, 3)) + np.array([0.5, 0.0, 0.0])
            Xp[:6] += 3.0
            Xq = rng.standard_normal((80, 3))
            fmap = PairwiseQuadraticFeatures()
            out.append((featurize(Xp, fmap), featurize(Xq, fmap), cfg))
        return out

    @staticmethod
    def parent_starts_late(monkeypatch):
        """The calling process takes its first task 0.3 s after forking, so
        the children take the first tasks and send back their outcomes."""
        parent, work = os.getpid(), estimator._work

        def late(tasks, queue):
            if os.getpid() == parent:
                time.sleep(0.3)
            return work(tasks, queue)

        monkeypatch.setattr(estimator, "_work", late)

    @staticmethod
    def bits(results):
        return [
            (r.delta_best.tobytes(), r.w_best.tobytes(), r.objective_best, r.t_hat, r.trace,
             r.iterations_run, r.stop_reason)
            for r in results
        ]

    def test_forked_equals_serial(self, tasks, forking):
        forked = forking(True)
        in_processes = self.bits(fit_many(tasks))
        assert forked == [3]
        _no_children_left()
        assert not forking(False)
        assert self.bits(fit_many(tasks)) == in_processes
        assert in_processes == self.bits([fit_featurized(*t) for t in tasks])
        assert fit_many([]) == []

    @pytest.mark.parametrize("on", [True, False])
    def test_first_failing_task_in_task_order_raises(self, tasks, forking, monkeypatch, on):
        (P0, Q0, cfg), (P2, Q2, _) = tasks[0], tasks[2]
        batch = [tasks[0], (P0, Q0, replace(cfg, eta0=1e308)), tasks[1],
                 (P2, Q2, replace(cfg, eta0=1e308)), tasks[2]]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FitDivergedError) as serial:
                fit_featurized(*batch[1])
            with pytest.raises(FitDivergedError) as fourth:
                fit_featurized(*batch[3])
            assert str(serial.value) != str(fourth.value)
            forking(on)
            if on:
                self.parent_starts_late(monkeypatch)  # a child's error crosses the pipe
            with pytest.raises(FitDivergedError) as raised:
                fit_many(batch)
        assert str(raised.value) == str(serial.value)
        assert (raised.value.iteration, raised.value.task_index) == (serial.value.iteration, 1)
        _no_children_left()

    def test_rounds_keep_task_order(self, tasks, forking, monkeypatch):
        monkeypatch.setattr(estimator, "_ROUND", 4)  # 11 tasks: rounds of 4, 4 and 3
        batch = (tasks * 2)[:11]
        forked = forking(True)
        assert self.bits(fit_many(batch)) == self.bits([fit_featurized(*t) for t in batch])
        assert forked == [3, 3, 3]
        P, Q, cfg = batch[6]
        batch[6] = (P, Q, replace(cfg, eta0=1e308))
        with pytest.raises(FitDivergedError) as raised, np.errstate(over="ignore", invalid="ignore"):
            fit_many(batch)
        assert raised.value.task_index == 6
        assert forked == [3, 3, 3, 3, 3]  # no third round after the failure
        _no_children_left()

    def test_child_that_dies_is_named(self, tasks, forking, monkeypatch):
        parent, real = os.getpid(), estimator.fit_featurized

        def die_in_children(*task):
            if os.getpid() != parent:
                os._exit(7)
            return real(*task)

        monkeypatch.setattr(estimator, "fit_featurized", die_in_children)
        self.parent_starts_late(monkeypatch)
        forking(True)
        with pytest.raises(RuntimeError, match="task 0 of fit_many got no result") as raised:
            fit_many(tasks[:3])
        assert raised.value.task_index == 0
        _no_children_left()

    def test_interrupted_parent_kills_its_children(self, tasks, forking, monkeypatch):
        parent = os.getpid()

        def interrupt(*task):
            if os.getpid() != parent:
                time.sleep(60)
            time.sleep(0.2)
            raise KeyboardInterrupt

        monkeypatch.setattr(estimator, "fit_featurized", interrupt)
        forking(True)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fit_many(tasks[:3])
        assert time.monotonic() - start < 30.0
        _no_children_left()

    def test_a_large_task_keeps_its_batch_serial(self, tasks, overlap, monkeypatch):
        # The two parallel paths never nest: a batch that holds a large fit
        # runs in this process, where each large fit starts its worker thread.
        floor = estimator._OVERLAP_MIN_SIZE
        overlap(True)
        rounds, workers, parent = [], [], os.getpid()
        run_round, worker = estimator._fit_round, estimator._DotWorker

        def counted_round(batch, processes):
            rounds.append(processes)
            return run_round(batch, processes)

        class CountedWorker(worker):
            def __init__(self):
                workers.append(os.getpid())
                super().__init__()

        monkeypatch.setattr(estimator, "_fit_round", counted_round)
        monkeypatch.setattr(estimator, "_DotWorker", CountedWorker)
        serial = self.bits([fit_featurized(*t) for t in tasks[:3]])
        assert workers == [parent] * 3
        workers.clear()
        assert self.bits(fit_many(tasks[:3])) == serial  # every task is large
        assert rounds == [1] and workers == [parent] * 3
        # Only the middle task is large: the batch still runs serially.
        (P1, Q1, c1), (P, Q, c), (P2, Q2, c2) = tasks[:3]
        batch = [(P1[:35], Q1[:40], c1), (P, Q, c), (P2[:35], Q2[:40], c2)]
        monkeypatch.setattr(estimator, "_OVERLAP_MIN_SIZE", min(P.size, Q.size))
        serial = self.bits([fit_featurized(*t) for t in batch])
        rounds.clear()
        workers.clear()
        assert self.bits(fit_many(batch)) == serial
        assert rounds == [1] and workers == [parent]
        # At the real floor no task is large, and the same batch forks on the
        # two CPUs _cpus() reads.
        monkeypatch.setattr(estimator, "_OVERLAP_MIN_SIZE", floor)
        rounds.clear()
        assert self.bits(fit_many(batch)) == serial
        assert rounds == [2] and workers == [parent]
        _no_children_left()

    def test_no_thread_outlives_a_fit(self, tasks, overlap, monkeypatch):
        floor = estimator._OVERLAP_MIN_SIZE
        ran = overlap(True)  # every fit starts a worker thread; _cpus() reads 2
        before = threading.active_count()
        fit_featurized(*tasks[0])
        assert ran and threading.active_count() == before
        P, Q, cfg = tasks[0]
        with pytest.raises(FitDivergedError), np.errstate(over="ignore", invalid="ignore"):
            fit_featurized(P, Q, replace(cfg, eta0=1e308))
        assert threading.active_count() == before
        # So the next sweep of small fits forks.
        monkeypatch.setattr(estimator, "_OVERLAP_MIN_SIZE", floor)
        forked, run_round = [], estimator._fit_round

        def counted(tasks, processes):
            forked.append(processes)
            return run_round(tasks, processes)

        monkeypatch.setattr(estimator, "_fit_round", counted)
        assert self.bits(fit_many(tasks[:2])) == self.bits([fit_featurized(*t) for t in tasks[:2]])
        assert forked == [2]
        _no_children_left()

    def test_one_column_batches_run_in_the_caller(self, tasks, monkeypatch):
        # An exact one-column fit costs less than a fork: a batch of them runs
        # serially on two CPUs, and one task with more columns forks it.
        monkeypatch.setattr(estimator, "_cpus", lambda: 2)
        rounds, run_round = [], estimator._fit_round

        def counted(batch, processes):
            rounds.append(processes)
            return run_round(batch, processes)

        monkeypatch.setattr(estimator, "_fit_round", counted)
        narrow = [(P[:, :1], Q[:, :1], cfg) for P, Q, cfg in tasks[:3]]
        for batch, processes in ((narrow, 1), (tasks[:3], 2), (narrow[:2] + tasks[2:3], 2)):
            rounds.clear()
            assert self.bits(fit_many(batch)) == self.bits([fit_featurized(*t) for t in batch])
            assert rounds == [processes]
        _no_children_left()


class TestSerialization:
    def test_round_trip_fields(self):
        xp, xq = gen_truncation_1d(120, 0.5, seed=26)
        cfg = TrimConfig(nu=0.5, max_iter=200)
        res = fit(xp, xq, LinearFeatures(), cfg)
        d = fit_result_to_dict(res, cfg)
        assert set(d) == {
            "delta", "kept_indices", "t_hat", "objective_best", "trace",
            "iterations_run", "stop_reason", "config",
        }
        assert d["config"]["nu"] == 0.5 and d["config"]["lambda"] == 0.0
        assert d["kept_indices"] == [int(i) for i in res.kept_indices]
        assert len(d["trace"]) == res.iterations_run
        assert d["stop_reason"] == res.stop_reason in STOP_REASONS
        assert res.converged == (res.stop_reason in ("certified", "window"))

    def test_config_echoes_every_trim_config_field(self):
        cfg = TrimConfig(nu=0.7, lam=0.25, regularizer="l2sq", eta0=0.5, max_iter=60)
        res = fit_featurized(np.ones((5, 1)), np.ones((5, 1)), cfg)
        config = fit_result_to_dict(res, cfg)["config"]
        names = [f.name for f in fields(TrimConfig)]
        assert set(config) == {"lambda" if n == "lam" else n for n in names}
        for n in names:
            assert config["lambda" if n == "lam" else n] == getattr(cfg, n)


# The ascent loop as it was written with the @ operator and an
# out-of-place softmax, frozen as the reference for the np.dot loop: every
# field of the result must match it bit for bit.


def _ref_log_mean_exp_and_softmax(z):
    m = float(np.max(z))
    e = np.exp(z - m)
    s = float(np.sum(e))
    w = e / s
    return m + np.log(s / z.size), w


def _ref_trim(lr, k):
    n = lr.size
    low = np.sort(lr)[:k]
    t = low[-1]
    keep = lr <= t
    surplus = np.count_nonzero(keep) - k
    if surplus:
        keep[np.flatnonzero(lr == t)[-surplus:]] = False
    if low[0] <= 0.0 <= t:
        i, j = np.searchsorted(low, 0.0, "left"), np.searchsorted(low, 0.0, "right")
        low[i:j] = lr[lr == 0.0][: j - i]
    return keep / n, low


def _ref_reg(delta, cfg):
    if cfg.regularizer == "none":
        return 0.0, np.zeros_like(delta)
    if cfg.regularizer == "l1":
        return float(np.sum(np.abs(delta))), np.sign(delta)
    return float(np.sum(delta**2)), 2.0 * delta


def reference_fit(PhiP, PhiQ, cfg):
    n_p, m = PhiP.shape
    k = min(int(math.floor(cfg.nu * n_p + 0.5)), n_p)
    nu_eff = k / n_p
    delta = np.zeros(m)
    trace = []
    best_hist = np.empty(cfg.max_iter)
    best_obj, delta_best, w_best, t_hat = -np.inf, delta.copy(), np.zeros(n_p), np.nan
    converged, iterations = False, 0
    linear = cfg.regularizer != "l2sq" or cfg.lam == 0.0
    ceiling = nu_eff * math.log(PhiQ.shape[0]) + 1e-6 if linear else math.inf
    for it in range(cfg.max_iter):
        logN, sm = _ref_log_mean_exp_and_softmax(PhiQ @ delta)
        lr = PhiP @ delta - logN
        w, low = _ref_trim(lr, k)
        reg_val, reg_sub = _ref_reg(delta, cfg)
        obj = float(np.sum(low) / n_p - cfg.lam * reg_val)
        trace.append((it, obj))
        if obj > best_obj:
            best_obj, delta_best, w_best, t_hat = obj, delta.copy(), w, float(low[-1])
        best_hist[it] = best_obj
        iterations = it + 1
        if obj > ceiling:
            break
        if it >= 50 and best_hist[it] - best_hist[it - 50] < 1e-7:
            converged = True
            break
        eta = cfg.eta0 / math.sqrt(it + 1.0)
        g = PhiP.T @ w - nu_eff * (PhiQ.T @ sm)
        if cfg.regularizer == "l1":
            delta = soft_threshold(delta + eta * g, eta * cfg.lam)
        else:
            delta = delta + eta * (g - cfg.lam * reg_sub)
    return delta_best, w_best, best_obj, t_hat, trace, iterations, converged


def _pinned_cases():
    rng = np.random.default_rng(31)
    xp1 = np.concatenate([rng.standard_normal(400), rng.uniform(2.6, 3.4, 100)])
    xq1 = rng.normal(-0.75, 1.0, 500)
    # Exact zeros among the scores exercise _trim's signed-zero refill.
    xp1[::37] = 0.0
    Xp = rng.standard_normal((150, 5))
    Xq = 1.2 * rng.standard_normal((160, 5))
    quad, lin = PairwiseQuadraticFeatures(), LinearFeatures()
    rbf = GaussianKernelFeatures(Xq[:40])
    # Integer-valued 1-D data: the cut of nu = 0.75 falls inside a block of
    # equal values.
    rng = np.random.default_rng(5)
    xp_int = np.concatenate([rng.integers(-3, 4, 400), rng.integers(4, 6, 100)]).astype(float)
    xq_int = rng.integers(-4, 3, 500).astype(float)
    # Outliers first, so that at delta = 0 (every log-ratio tied) the lowest
    # indices keep them; steps large enough that delta is thresholded back to
    # exactly 0 once it has left it, and leaves 0 again.
    rng = np.random.default_rng(12)
    xp_l1 = np.concatenate([rng.uniform(2.6, 3.4, 30), rng.normal(0.4, 1.0, 270)])
    xq_l1 = rng.normal(0.0, 1.0, 300)
    # One row of X_q far below the rest: as delta nears 0.79, that row's
    # softmax weight, about exp(-920 delta), is subnormal.
    xq_far = xq1.copy()
    xq_far[0] = -920.0
    return {
        "linear_m1_nu0.8": (xp1, xq1, lin, TrimConfig(nu=0.8)),
        "linear_m1_nu1": (xp1, xq1, lin, TrimConfig(nu=1.0)),
        "linear_m1_negative_slope": (-xp1, -xq1, lin, TrimConfig(nu=0.8)),
        "linear_m1_negative_slope_nu1": (-xp1, -xq1, lin, TrimConfig(nu=1.0)),
        "linear_m1_integer_ties": (xp_int, xq_int, lin, TrimConfig(nu=0.75)),
        "linear_m1_subnormal_weight": (xp1, xq_far, lin, TrimConfig(nu=0.8)),
        "linear_m1_l1_back_to_zero": (
            xp_l1, xq_l1, lin, TrimConfig(nu=0.9, lam=0.02, regularizer="l1", eta0=8.0)
        ),
        "quadratic_l1": (Xp, Xq, quad, TrimConfig(nu=0.9, lam=0.05, regularizer="l1", max_iter=600)),
        "linear_l2sq": (Xp, Xq, lin, TrimConfig(nu=0.85, lam=0.1, regularizer="l2sq", max_iter=600)),
        "rbf": (Xp[:60], Xq, rbf, TrimConfig(nu=0.9, max_iter=300)),
    }


def _steps_of(case, monkeypatch):
    """Run the loop on a pinned case and return the delta of every
    iteration, and the fit's features."""
    xp, xq, fmap, cfg = _pinned_cases()[case]
    PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
    steps, evaluate = [], estimator._evaluate

    def evaluated(delta, *args):
        steps.append(delta.copy())
        return evaluate(delta, *args)

    with monkeypatch.context() as m:
        m.setattr(estimator, "_evaluate", evaluated)
        res = ascend(PhiP, PhiQ, cfg)
    assert len(steps) == res.iterations_run
    return steps, PhiP, PhiQ, cfg


class TestLoopMatchesFrozenReference:
    """np.dot products, the in-place softmax and the gradient carried from
    step to step leave every bit of the loop's fit as it was. The loop is
    called directly: fit_featurized solves the one-column cases exactly."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", list(_pinned_cases()))
    def test_fit_fields_bitwise_equal(self, case, order):
        xp, xq, fmap, cfg = _pinned_cases()[case]
        PhiP = np.asarray(featurize(xp, fmap), order=order)
        PhiQ = np.asarray(featurize(xq, fmap), order=order)
        res = ascend(PhiP, PhiQ, cfg)
        delta, w, obj, t_hat, trace, iterations, converged = reference_fit(PhiP, PhiQ, cfg)
        assert res.iterations_run > 50
        assert res.delta_best.tobytes() == delta.tobytes()
        assert res.w_best.tobytes() == w.tobytes()
        assert np.float64(res.objective_best).tobytes() == np.float64(obj).tobytes()
        assert np.float64(res.t_hat).tobytes() == np.float64(t_hat).tobytes()
        assert np.array(res.trace).tobytes() == np.array(trace).tobytes()
        assert (res.iterations_run, res.converged) == (iterations, converged)

    def test_unbounded_stop_bitwise_equal(self):
        # The same stop rule ends both loops at the same iterate; with no
        # finite maximizer, fit_featurized runs the loop.
        PhiP, PhiQ = _unbounded_1d()
        cfg = TrimConfig(nu=0.9, lam=0.05, regularizer="l1")
        res = fit_featurized(PhiP, PhiQ, cfg)
        delta, w, obj, t_hat, trace, iterations, converged = reference_fit(PhiP, PhiQ, cfg)
        assert res.stop_reason == "unbounded" and iterations < cfg.max_iter
        assert res.delta_best.tobytes() == delta.tobytes()
        assert res.w_best.tobytes() == w.tobytes()
        assert np.float64(res.objective_best).tobytes() == np.float64(obj).tobytes()
        assert np.float64(res.t_hat).tobytes() == np.float64(t_hat).tobytes()
        assert np.array(res.trace).tobytes() == np.array(trace).tobytes()
        assert (res.iterations_run, res.converged) == (iterations, converged)

    def test_pinned_cases_reach_their_paths(self, monkeypatch):
        # The l1 case's delta is thresholded back to exactly 0 once it has
        # left it, and leaves 0 again.
        steps, *_ = _steps_of("linear_m1_l1_back_to_zero", monkeypatch)
        zero = [not d.any() for d in steps]
        assert zero[0] and any(zero[zero.index(False):]) and not zero[-1]
        # The reference's softmax is the kernel's, subnormal weights and all.
        steps, _, PhiQ, _ = _steps_of("linear_m1_subnormal_weight", monkeypatch)
        subnormal = 0
        for delta in steps:
            _, sm = _ref_log_mean_exp_and_softmax(PhiQ @ delta)
            assert sm.tobytes() == softmax_weights(delta, PhiQ).tobytes()
            subnormal += bool(np.any((sm > 0.0) & (sm < np.finfo(float).tiny)))
        assert subnormal > 0


def _one_column_cases():
    cases = {name: case for name, case in _pinned_cases().items() if name.startswith("linear_m1")}
    xp, xq, fmap, _ = cases["linear_m1_nu0.8"]
    cases["linear_m1_l2sq"] = (xp, xq, fmap, TrimConfig(nu=0.8, lam=0.1, regularizer="l2sq"))
    return cases


class TestExactOneColumn:
    """fit_featurized solves a one-column fit that has a finite maximizer
    exactly: maxmin_1d's delta, bit for bit, with the weights, threshold
    and objective a loop step would compute there."""

    @pytest.mark.parametrize("case", list(_one_column_cases()))
    def test_fit_is_maxmin_1d_certified(self, case):
        xp, xq, fmap, cfg = _one_column_cases()[case]
        PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
        res = fit_featurized(PhiP, PhiQ, cfg)
        d, value = maxmin_1d(PhiP, PhiQ, cfg)
        assert res.stop_reason == "certified" and res.converged
        assert res.delta_best.tobytes() == np.array([d]).tobytes()
        assert (res.objective_best, res.trace, res.iterations_run) == (value, [(0, value)], 1)
        w, low = stable_argsort_trim(log_ratios(res.delta_best, PhiP, PhiQ), keep_count(cfg.nu, PhiP.shape[0]))
        assert res.w_best.tobytes() == w.tobytes()
        assert np.float64(res.t_hat).tobytes() == np.float64(low[-1]).tobytes()
        assert objective(res.delta_best, res.w_best, PhiP, PhiQ, cfg) == pytest.approx(value, abs=1e-12)
        # The loop, a second solver, gets no higher.
        assert value - 1e-6 < ascend(PhiP, PhiQ, cfg).objective_best <= value + 1e-12

    def test_loop_settings_are_ignored(self):
        xp, xq, fmap, cfg = _pinned_cases()["linear_m1_nu0.8"]
        PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
        bits = TestFitMany.bits([fit_featurized(PhiP, PhiQ, cfg)])
        assert TestFitMany.bits([fit_featurized(PhiP, PhiQ, replace(cfg, eta0=1e308, max_iter=1))]) == bits

    @pytest.mark.parametrize("cfg", [TrimConfig(nu=0.9), TrimConfig(nu=0.9, lam=0.05, regularizer="l1")])
    def test_unbounded_problem_runs_the_loop(self, cfg):
        PhiP, PhiQ = _unbounded_1d()
        assert maxmin_1d(PhiP, PhiQ, cfg) == (math.inf, math.inf)
        res = fit_featurized(PhiP, PhiQ, cfg)
        assert res.stop_reason == "unbounded" and 1 < res.iterations_run < cfg.max_iter
        assert TestFitMany.bits([res]) == TestFitMany.bits([ascend(PhiP, PhiQ, cfg)])

    def test_maximizer_past_the_largest_float_runs_the_loop(self):
        # A vanishing l2sq penalty bounds the objective only far beyond the
        # largest float: the bracket's top passes it, with no float error
        # even where overflow raises, and the loop fits instead.
        xp, xq = np.array([[2.0], [3.0], [2.5]]), np.array([[-1.0], [1.0], [0.0]])
        cfg = TrimConfig(nu=2.0 / 3.0, lam=1e-310, regularizer="l2sq", max_iter=50)
        with np.errstate(over="raise"):
            assert maxmin_1d(xp, xq, cfg) == (math.inf, math.inf)
            res = fit_featurized(xp, xq, cfg)
        assert res.stop_reason == "max_iter" and np.isfinite(res.delta_best).all()
        assert TestFitMany.bits([res]) == TestFitMany.bits([ascend(xp, xq, cfg)])

    def test_maximizer_whose_objective_overflows_runs_the_loop(self):
        # The maximizer, about 8.3e307, is a float, but 2.5 and 3 times it
        # are not: two log-ratios there overflow, so the objective does not
        # evaluate to a float, and the loop fits instead. The maximum itself,
        # about 3.5e307, is a float, and maxmin_1d reports it.
        xp, xq = np.array([[2.0], [3.0], [2.5]]), np.array([[-1.0], [1.0], [0.0]])
        cfg = TrimConfig(nu=2.0 / 3.0, lam=5e-309, regularizer="l2sq")
        with np.errstate(over="raise", invalid="raise"):
            d, value = maxmin_1d(xp, xq, cfg)
            res = fit_featurized(xp, xq, cfg)
            loop = ascend(xp, xq, cfg)
        assert 8e307 < d < math.inf and value == pytest.approx(3.4722e307, rel=1e-4)
        assert TestFitMany.bits([res]) == TestFitMany.bits([loop])
        assert res.stop_reason == "max_iter" and math.isfinite(res.objective_best) and math.isfinite(res.t_hat)
        # The two smallest log-ratios at any delta > 0 are rows 0 and 2.
        assert res.kept_indices.tolist() == [0, 2]

    def test_half_line_sum_past_the_largest_float_is_taken_as_a_mean(self):
        # The sum of PhiP is inf - inf, its mean 0: the objective is that of
        # PhiP = 0, whose maximizer lies on the negative half-line. The
        # log-ratios there overflow in the trimmed sum, so the fit is not
        # certified, and the loop reports its divergence.
        xq = np.array([[0.0], [1.0], [2.0]])
        huge = np.array([[-1e308]] * 4 + [[1e308]] * 4)
        cfg = TrimConfig(lam=0.1, regularizer="l2sq")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, value = maxmin_1d(huge, xq, cfg)
            with pytest.raises(FitDivergedError):
                fit_featurized(huge, xq, cfg)
        d0, value0 = maxmin_1d(np.zeros((8, 1)), xq, cfg)
        assert d == d0 < 0.0 and value == pytest.approx(value0, rel=1e-12)

    # x_q - max x_q overflows to -inf, so the slope at delta = 0 is nan. The
    # search took that for a positive slope and certified delta = 5e-324,
    # whose objective, -5.0e-17, lies below the 0 at delta = 0.
    OVERFLOWED_SLOPE = np.array([0.0, 1.0, 2.0]), np.array([-1e308, 1e308, 0.0])

    def test_overflowed_start_slope_runs_the_loop(self):
        with pytest.raises(FitDivergedError):
            fit_featurized(*self.OVERFLOWED_SLOPE, TrimConfig())

    def test_maxmin_1d_rejects_an_overflowed_start_slope(self):
        with pytest.raises(ValueError, match="slope at delta = 0 overflows"):
            maxmin_1d(*self.OVERFLOWED_SLOPE, TrimConfig())


def _slope_calls(mp):
    """Routes estimator._slope, the one helper that computes the exact 1-D
    solver's slope and its derivative, through a recorder; returns the
    list of each call's (t, half-line) arguments."""
    calls, real = [], estimator._slope

    def recorded(t, *half_line):
        calls.append((t, half_line))
        return real(t, *half_line)

    mp.setattr(estimator, "_slope", recorded)
    return calls


def _half_lines(calls):
    """The half-lines _exact evaluated, in order (delta > 0 first), each
    known by its dq array."""
    lines = []
    for _, half_line in calls:
        if not any(half_line[0] is seen[0] for seen in lines):
            lines.append(half_line)
    return lines


def _doubling_bisection(f, bounded):
    """The search the Newton one replaced: double from 1 while the top is
    open, then bisect to adjacent floats; its hi."""
    lo, hi, mid = 0.0, math.inf, 1.0
    while bounded and lo < mid < hi:
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        mid = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    return hi


def _calls_per_fit(mp, **kwargs):
    """The slope evaluations of run_outlier1d(**kwargs), as (nu, count)
    per fit in sweep order."""
    fits, real, calls = [], estimator._exact, _slope_calls(mp)

    def counted(PhiP, PhiQ, cfg):
        start = len(calls)
        out = real(PhiP, PhiQ, cfg)
        fits.append((cfg.nu, len(calls) - start))
        return out

    mp.setattr(estimator, "_exact", counted)
    experiments.run_outlier1d(**kwargs)
    return fits


# (PhiP, PhiQ, cfg, probes the doubling-and-bisection search took,
#  probes the Newton search took before its end-game rule)
_COUNTED_1D = {
    # f(0) rounds to just above 0, and the computed slope is 0 or noise
    # across a band about 1e-16 wide (see test_baselines' l1 instance).
    "flat_root": ([[0.2], [0.1]], [[-0.3], [0.3]], TrimConfig(lam=0.15, regularizer="l1"), 105, 55),
    # The computed slope is exactly 0 from the root on for at least 2**27 ulps.
    "zero_band": ([[0.25]], [[-0.5], [0.125]], TrimConfig(lam=0.4375 - 2.0**-30, regularizer="l1"), 81, 71),
    # The slope decays like exp(-t) to its limit -1e-100: the root lies
    # near t = 230, where Newton steps from below advance by about 1.
    "far_tail": ([[-1e-100]], [[0.0], [-1.0]], TrimConfig(), 62, 33),
    # The maximizer lies beyond the largest float.
    "past_top": ([[2.0], [3.0], [2.5]], [[-1.0], [1.0], [0.0]],
                 TrimConfig(nu=2.0 / 3.0, lam=1e-310, regularizer="l2sq"), 1025, 5),
}


class TestExactSearch:
    """The one-column solver's search: a certificate on adjacent floats,
    found in few slope evaluations."""

    def test_outlier1d_fits_take_at_most_10_evaluations_each(self, monkeypatch):
        fits = _calls_per_fit(monkeypatch)
        # The doubling-and-bisection search took 55.1 per fit, the Newton
        # search before its end-game rule 12.07.
        assert len(fits) == 14 and sum(count for _, count in fits) <= 10 * len(fits)

    def test_converged_hi_closes_in_at_most_12_evaluations(self, monkeypatch):
        # Fit 8 of seed 5 (b = 3, untrimmed): hi reaches a slope of exactly 0
        # at the 7th evaluation, and every later Newton point from lo lands
        # about 1% of the bracket past it; without the end-game rule the
        # search bisected up from lo, 41 evaluations in all.
        nu, count = _calls_per_fit(monkeypatch, seed=5)[7]
        assert nu == 1.0 and count <= 12

    @pytest.mark.parametrize("case", list(_COUNTED_1D))
    def test_hard_instances_take_at_most_twice_the_bisection_count(self, case, monkeypatch):
        xp, xq, cfg, bisection, newton = _COUNTED_1D[case]
        calls = _slope_calls(monkeypatch)
        d, _ = maxmin_1d(np.array(xp), np.array(xq), cfg)
        assert len(calls) <= 2 * bisection
        # The end-game rule saves probes on smooth slopes and costs at most
        # half again where the computed slope is flat or noisy.
        assert len(calls) <= 1.5 * newton
        [line] = _half_lines(calls)
        if case == "past_top":
            assert d == math.inf
            return
        assert 0.0 < d < math.inf
        f = lambda t: estimator._slope(t, *line)[0]  # noqa: E731
        assert f(d) <= 0.0 < f(math.nextafter(d, 0.0))
        assert _doubling_bisection(f, True) == pytest.approx(d, rel=1e-6, abs=1e-15)
        if case == "zero_band":
            ulps = d + np.arange(0.0, 2.0**27, 2.0**17) * math.ulp(d)
            assert [f(t) for t in ulps] == [0.0] * ulps.size

    @pytest.mark.parametrize(
        "root", [1e-300, 1.0, 2.0**1000, 1.5 * 2.0**1022, 2.0**1023, math.nextafter(2.0**1023, math.inf), 1e308]
    )
    def test_bracket_top_is_the_largest_power_of_two(self, root):
        # A slope falling linearly through 0 at root: the search returns +inf
        # exactly where the doubling-and-bisection search did, for a root past 2**1023.
        slope = lambda t: (1.0 - t / root, -1.0 / root)  # noqa: E731
        d = estimator._root(slope, 1.0, -1.0 / root)
        assert math.isinf(d) == (root > 2.0**1023) == math.isinf(_doubling_bisection(lambda t: slope(t)[0], True))
        if math.isfinite(d):
            assert slope(d)[0] <= 0.0 < slope(math.nextafter(d, 0.0))[0]

    @settings(max_examples=150, deadline=None)
    # Maximizers near 1e308 at which a log-ratio overflows: the fit declines
    # them, and maxmin_1d reports the maximum, with no float warning.
    @example(seed=3000, n_p=3000, n_q=3000, shift=3.0, grid=False, nu=1.0, penalty=("l2sq", 1e-310))
    @example(seed=125, n_p=1842, n_q=1842, shift=-2.78125, grid=False, nu=0.5, penalty=("l2sq", 1e-310))
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(2, 3000),
        n_q=st.integers(2, 3000),
        shift=st.floats(-3.0, 3.0),
        grid=st.booleans(),
        nu=st.sampled_from([1.0, 0.9, 0.5, 0.25]),
        penalty=st.sampled_from([("none", 0.0), ("l1", 0.05), ("l1", 0.5), ("l1", 2.0),
                                 ("l2sq", 0.01), ("l2sq", 1.0), ("l2sq", 1e-305), ("l2sq", 1e-310)]),
    )
    def test_certificate_on_adjacent_floats(self, seed, n_p, n_q, shift, grid, nu, penalty):
        rng = np.random.default_rng(seed)
        PhiP = rng.standard_normal((n_p, 1)) * rng.uniform(0.1, 3.0) + shift
        PhiQ = rng.standard_normal((n_q, 1)) * rng.uniform(0.1, 3.0)
        if grid:  # ties, and slopes that cancel exactly
            PhiP, PhiQ = np.round(4.0 * PhiP) / 4.0, np.round(4.0 * PhiQ) / 4.0
        cfg = TrimConfig(nu=nu, lam=penalty[1], regularizer=penalty[0])
        with pytest.MonkeyPatch.context() as mp:
            calls = _slope_calls(mp)
            d, value = maxmin_1d(PhiP, PhiQ, cfg)
        # A value is finite, or inf where no finite maximum exists.
        assert math.isfinite(value) or value == math.inf
        lines = _half_lines(calls)
        with np.errstate(over="ignore"):  # the old search doubles t to 2**1023
            f0 = [estimator._slope(0.0, *line)[0] for line in lines]
            if d == 0.0:
                # delta = 0 exactly when both one-sided slopes at 0 are <= 0.
                assert len(lines) == 2 and max(f0) <= 0.0
                return
            used = 0 if d > 0.0 else 1
            assert f0[used] > 0.0 and (d > 0.0 or f0[0] <= 0.0)
            line = lines[used]
            f = lambda t: estimator._slope(t, *line)[0]  # noqa: E731
            _, _, limit, _, l2 = line
            # +-inf exactly where the doubling-and-bisection search returned it.
            assert math.isinf(d) == math.isinf(_doubling_bisection(f, l2 > 0.0 or limit < 0.0))
            if math.isfinite(d):
                t = abs(d)
                assert f(t) <= 0.0 < f(math.nextafter(t, 0.0))
