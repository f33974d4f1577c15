import inspect
import io
import json
import sys

import numpy as np
import pytest

from trdre import experiments, ratio_model
from trdre.estimator import TrimConfig
from trdre.experiments import _child_seeds, run_mnchange, run_outlier1d, run_truncation1d


class TestChildSeeds:
    def test_deterministic_and_distinct(self):
        a = _child_seeds(42, 8)
        assert a == _child_seeds(42, 8)
        assert len(set(a)) == 8
        assert a != _child_seeds(43, 8)
        assert all(0 <= s < 2**63 for s in a)


@pytest.mark.parametrize("runner", [run_truncation1d, run_outlier1d, run_mnchange])
def test_fit_defaults_are_trim_config_defaults(runner):
    params = inspect.signature(runner).parameters
    names = ["seed", "eta0", "max_iter", "tol"]
    if runner is run_mnchange:
        names.remove("eta0")  # a documented 0.1: a unit first step overshoots there
        assert params["eta0"].default == 0.1
    for name in names:
        assert params[name].default == getattr(TrimConfig, name), name


class TestTruncationRunner:
    def test_summary_fields_and_curve_files(self):
        summary, files = run_truncation1d(n=500, max_iter=400, seed=5)
        assert abs(summary["delta_hat"] - summary["delta_star"]) < 0.3
        assert summary["kkt_weight_ok"] is True
        assert 0.5 - 1 / 500 <= summary["kept_fraction"] <= 0.5 + 1 / 500
        curve = np.loadtxt(io.StringIO(files["ratio_curve.csv"]), delimiter=",", skiprows=2)
        assert curve.shape == (401, 3)
        assert sorted(files) == ["fit_result.json", "ratio_curve.csv", "summary.json"]
        assert json.loads(files["summary.json"]) == summary
        assert summary["stop_reason"] in ("window", "max_iter")
        assert summary["converged"] == (summary["stop_reason"] == "window")


@pytest.mark.parametrize("runner,kwargs", [
    (run_outlier1d, dict(n_good=160, n_out=40, n_q=200, b_grid=(0.0, 3.0, 6.0), max_iter=300)),
    (run_mnchange, dict(d_values=(4, 5), n=40, n_changed=2, lambda_grid=(1e-3, 0.1, 0.5), max_iter=100)),
])
def test_files_do_not_depend_on_forking(runner, kwargs, forking):
    forked = forking(True)
    summary, files = runner(**kwargs)
    assert forked
    assert not forking(False)
    assert runner(**kwargs) == (summary, files)


class TestMnchangeUnboundedCounts:
    def test_counts_match_the_fits(self):
        # The outlier at 10 lies beyond every x_q, so the untrimmed fit on
        # contaminated data has no maximizer at a tiny lambda (the heat-map
        # fit and the first grid point); trimming drops it. lambda = 5
        # bounds every fit.
        summary, _ = run_mnchange(d_values=(4,), n=30, n_changed=2, lambda_grid=(1e-3, 5.0),
                                  lam_heatmap=1e-3, max_iter=300)
        assert summary["unbounded_fits"] == {"4": {"dre_outlier": 2, "trdre_outlier": 0, "dre_gold": 0}}


class TestOutlierRunner:
    def test_bad_b_rejected_before_the_first_fit(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit started before the b grid was checked")

        monkeypatch.setattr(experiments, "fit_many", no_fit)
        monkeypatch.chdir(tmp_path)  # a runner writes nothing, not even beside itself
        with pytest.raises(ValueError, match="b must be finite"):
            run_outlier1d(n_good=40, n_out=10, n_q=50, b_grid=(1.0, float("inf")))
        assert not any(tmp_path.iterdir())


class TestMnchangeFeaturizesOnce:
    def test_three_featurize_calls_per_d(self, monkeypatch):
        # xq, the contaminated and the clean numerator: each featurized once
        # and shared by the heat-map fit and the support curve.
        calls = []
        original = ratio_model.featurize

        def counting(X, feature_map):
            calls.append(np.shape(X))
            return original(X, feature_map)

        for name, mod in list(sys.modules.items()):
            if name == "trdre" or name.startswith("trdre."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        run_mnchange(d_values=(4, 5), n=40, n_changed=2, lambda_grid=(0.1, 0.3), max_iter=10)
        assert len(calls) == 3 * 2
