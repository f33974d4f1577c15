import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trdre.baselines import brute_force_maxmin_1d, enumerate_weight_vertices
from trdre.estimator import (
    FitDivergedError,
    FitResult,
    TrimConfig,
    _trim,
    assign_weights,
    fit,
    fit_featurized,
    fit_kliep,
    fit_result_to_dict,
    gradient,
    keep_count,
    kkt_check,
    objective,
    reg_value_and_subgradient,
    soft_threshold,
)
from trdre.ratio_model import LinearFeatures, featurize, log_ratios
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
        assert cfg.nu == 1.0 and cfg.regularizer == "none" and cfg.seed == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0}, {"nu": 1.5}, {"lam": -0.1}, {"regularizer": "ridge"},
            {"eta0": 0.0}, {"max_iter": 0}, {"tol": 0.0}, {"tol": float("nan")},
            {"tol": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrimConfig(**kwargs)


class TestKeepCount:
    def test_half_up_rounding(self):
        assert keep_count(0.5, 5) == 3
        assert keep_count(0.6, 5) == 3
        assert keep_count(1.0, 7) == 7
        assert keep_count(2.0 / 3.0, 3) == 2

    def test_zero_keep_is_error(self):
        with pytest.raises(ValueError):
            keep_count(0.01, 10)


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
    """_trim ranks by a value sort; it must select what a stable argsort selects."""

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
        lr = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=300)
        assert_trim_matches_reference(lr)


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
                lam = float(rng.uniform(0, 2))
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
    def test_values_and_subgradients(self):
        delta = np.array([1.5, 0.0, -2.0])
        v, s = reg_value_and_subgradient(delta, TrimConfig(regularizer="none"))
        assert v == 0.0 and np.array_equal(s, np.zeros(3))
        v, s = reg_value_and_subgradient(delta, TrimConfig(regularizer="l1"))
        assert v == 3.5 and np.array_equal(s, [1.0, 0.0, -1.0])
        v, s = reg_value_and_subgradient(delta, TrimConfig(regularizer="l2sq"))
        assert v == 6.25 and np.array_equal(s, [3.0, 0.0, -4.0])


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
        res = fit(xp, xq, LinearFeatures(), TrimConfig(nu=0.5))
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
        # maximizer is interior to the oracle's [-5, 5] grid.
        xp = np.array([[0.5], [1.0], [1.4], [1.9], [2.5]])
        xq = np.array([[-2.0], [-0.9], [0.0], [0.8], [2.2]])
        cfg = TrimConfig(nu=0.6, max_iter=20000, tol=1e-15)
        res = fit(xp, xq, LinearFeatures(), cfg)
        d_star, oracle = brute_force_maxmin_1d(xp, xq, 0.6)
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

    def test_diverged_fit_raises(self):
        # The gradient is bounded by the feature magnitudes, so divergence
        # needs a step large enough that eta * g itself overflows.
        rng = np.random.default_rng(18)
        xp = rng.standard_normal((20, 1)) + 3.0
        xq = rng.standard_normal((20, 1))
        with pytest.raises(FitDivergedError, match="non-finite"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            fit(xp, xq, LinearFeatures(), TrimConfig(eta0=1e308))

    def test_large_l1_penalty_gives_exact_zeros(self):
        rng = np.random.default_rng(19)
        xp = rng.standard_normal((40, 2)) + 0.2
        xq = rng.standard_normal((40, 2))
        res = fit(xp, xq, LinearFeatures(), TrimConfig(lam=10.0, regularizer="l1"))
        assert np.array_equal(res.delta_best, np.zeros(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones((3, 2)), np.ones((3, 3)), LinearFeatures(), TrimConfig())


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
        bad = FitResult(
            delta_best=res.delta_best, w_best=bad_w, objective_best=res.objective_best,
            t_hat=res.t_hat, trace=res.trace, iterations_run=res.iterations_run,
            converged=res.converged,
        )
        report = kkt_check(bad, PhiP, PhiQ, cfg, ratio_tol=1e-6)
        assert not report.weight_ok
        assert report.first_bad_index is not None
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


class TestSerialization:
    def test_round_trip_fields(self):
        xp, xq = gen_truncation_1d(120, 0.5, seed=26)
        cfg = TrimConfig(nu=0.5, max_iter=200)
        res = fit(xp, xq, LinearFeatures(), cfg)
        d = fit_result_to_dict(res, cfg)
        assert set(d) == {
            "delta", "kept_indices", "t_hat", "objective_best", "trace",
            "iterations_run", "converged", "config",
        }
        assert d["config"]["nu"] == 0.5 and d["config"]["lambda"] == 0.0
        assert d["kept_indices"] == [int(i) for i in res.kept_indices]
        assert len(d["trace"]) == res.iterations_run
