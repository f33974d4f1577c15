import inspect
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
    def test_summary_fields_and_curve_files(self, tmp_path):
        summary = run_truncation1d(tmp_path, n=500, max_iter=400, seed=5)
        assert abs(summary["delta_hat"] - summary["delta_star"]) < 0.3
        assert summary["kkt_weight_ok"] is True
        assert 0.5 - 1 / 500 <= summary["kept_fraction"] <= 0.5 + 1 / 500
        curve = np.loadtxt(tmp_path / "ratio_curve.csv", delimiter=",", skiprows=2)
        assert curve.shape == (401, 3)
        assert (tmp_path / "fit_result.json").exists()


class TestOutlierRunner:
    def test_bad_b_rejected_before_the_first_fit(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit started before the b grid was checked")

        monkeypatch.setattr(experiments, "fit_featurized", no_fit)
        with pytest.raises(ValueError, match="b must be finite"):
            run_outlier1d(tmp_path, n_good=40, n_out=10, n_q=50, b_grid=(1.0, float("inf")))
        assert not any(tmp_path.iterdir())


class TestMnchangeFeaturizesOnce:
    def test_three_featurize_calls_per_d(self, tmp_path, monkeypatch):
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
        run_mnchange(tmp_path, d_values=(4, 5), n=40, n_changed=2,
                     lambda_grid=(0.1, 0.3), max_iter=10)
        assert len(calls) == 3 * 2
