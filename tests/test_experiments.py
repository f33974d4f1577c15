import inspect
import io
import json
import sys

import numpy as np
import pytest

from trdre import experiments, ratio_model, synthetic
from trdre.estimator import FitDivergedError, TrimConfig
from trdre.evaluation import support_curve
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
    assert params["seed"].default == synthetic.DEFAULT_SEED
    if runner is not run_mnchange:
        # One-column fits are solved exactly: they take no loop settings.
        assert not {"eta0", "max_iter", "tol"} & set(params)
        return
    assert "tol" not in params
    assert params["eta0"].default == 0.1  # a documented 0.1: a unit first step overshoots there
    assert params["max_iter"].default == TrimConfig.max_iter


class TestTruncationRunner:
    def test_summary_fields_and_curve_files(self):
        summary, files = run_truncation1d(n=500, seed=5)
        assert abs(summary["delta_hat"] - summary["delta_star"]) < 0.3
        assert summary["kkt_weight_ok"] is True
        assert 0.5 - 1 / 500 <= summary["kept_fraction"] <= 0.5 + 1 / 500
        curve = np.loadtxt(io.StringIO(files["ratio_curve.csv"]), delimiter=",", skiprows=2)
        assert curve.shape == (401, 3)
        assert sorted(files) == ["fit_result.json", "ratio_curve.csv", "summary.json"]
        assert json.loads(files["summary.json"]) == summary
        assert summary["stop_reason"] == "certified" and summary["iterations_run"] == 1
        assert "converged" not in summary
        # The fit records how it ended once, and no seed it did not use.
        fit_record = json.loads(files["fit_result.json"])
        assert "converged" not in fit_record and "seed" not in fit_record["config"]
        assert summary["config"]["seed"] == 5


@pytest.mark.parametrize("runner,kwargs", [
    (run_outlier1d, dict(n_good=160, n_out=40, n_q=200, b_grid=(0.0, 3.0, 6.0))),
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

    def test_rows_record_both_stop_reasons(self):
        # One x_q: log-mean-exp is linear in delta, so neither fit has a
        # finite maximizer, and each delta is a point on a ray.
        summary, files = run_outlier1d(n_good=40, n_out=10, n_q=1, b_grid=[6.0])
        [row] = summary["rows"]
        assert (row["stop_reason_trdre"], row["stop_reason_kliep"]) == ("unbounded", "unbounded")
        assert "stop_reason" not in files["results.csv"]  # the table stays numeric

    def test_default_fits_are_all_certified(self):
        summary, _ = run_outlier1d()
        reasons = [row[f"stop_reason_{tag}"] for row in summary["rows"] for tag in ("trdre", "kliep")]
        assert reasons == ["certified"] * 14


class TestMnchangeChecksUpFront:
    @pytest.mark.parametrize(
        "d_values, n_changed, message",
        [((6, 1), 2, "d must be at least 2, got 1"), ((6, 3), 4, r"n_changed must lie in \[0, 3\] for d=3, got 4")],
    )
    def test_every_d_checked_before_the_first_fit(self, monkeypatch, d_values, n_changed, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit started before every d was checked")

        monkeypatch.setattr(experiments, "fit_many", no_fit)
        with pytest.raises(ValueError, match=message):
            run_mnchange(d_values=d_values, n=40, n_changed=n_changed, lambda_grid=(0.1, 0.3), max_iter=10)


class TestMnchangeBatches:
    """Each d's three heat-map fits and its three l1 paths are one
    fit_many batch; a path fit's divergence names its lambda."""

    SMALL = dict(d_values=(4, 5), n=40, n_changed=2, lambda_grid=(1e-3, 0.1, 0.5), max_iter=100)
    # The contaminated pair at which a penalty of 1e3 keeps every fit at
    # delta = 0 even with eta0 = 1e308, while smaller ones diverge.
    DIVERGING = dict(d_values=(6,), n=300, n_changed=3, max_iter=100, eta0=1e308)

    def test_one_fit_many_call_per_d(self, monkeypatch):
        real, sizes = experiments.fit_many, []

        def counted(tasks):
            sizes.append(len(tasks))
            return real(tasks)

        monkeypatch.setattr(experiments, "fit_many", counted)
        run_mnchange(**self.SMALL)
        assert sizes == [3 + 3 * 3] * 2

    def test_forked_equals_serial(self, forking):
        forked = forking(True)
        summary, files = run_mnchange(**self.SMALL)
        assert forked == [3, 3]
        assert not forking(False)
        assert run_mnchange(**self.SMALL) == (summary, files)

    def test_only_a_diverged_fit_is_annotated(self, monkeypatch):
        with pytest.raises(RuntimeError, match="fit failed at lambda=0.1: objective became non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_mnchange(lam_heatmap=1e3, lambda_grid=(0.1,), **self.DIVERGING)
        # A heat-map fit is not on the path: its error is raised as it is.
        with pytest.raises(FitDivergedError, match="^objective became non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_mnchange(lam_heatmap=0.1, lambda_grid=(0.1,), **self.DIVERGING)
        real = experiments.fit_many

        def mismatched_paths(tasks):
            return real(tasks[:3] + [(P, Q[:, :-1], cfg) for P, Q, cfg in tasks[3:]])

        monkeypatch.setattr(experiments, "fit_many", mismatched_paths)
        with pytest.raises(ValueError, match="PhiP and PhiQ disagree on feature count"):
            run_mnchange(**self.SMALL)

    @pytest.mark.parametrize("on", [True, False])
    def test_first_diverged_lambda_is_named(self, forking, on):
        # A penalty above every gradient entry keeps delta at 0, so only the
        # paths' two small lambdas diverge.
        forking(on)
        with pytest.raises(RuntimeError, match=r"fit failed at lambda=0\.001: objective became non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_mnchange(lam_heatmap=1e3, lambda_grid=(1e-3, 1e-2, 1e3), **self.DIVERGING)


class TestMnchangeCurves:
    def test_curve_files_hold_support_curves_rows(self, monkeypatch):
        real, batches = experiments.fit_many, []

        def kept(tasks):
            batches.append(real(tasks))
            return batches[-1]

        monkeypatch.setattr(experiments, "fit_many", kept)
        grid = (1e-3, 0.1, 0.5)
        summary, files = run_mnchange(d_values=(4,), n=40, n_changed=2, lambda_grid=grid, max_iter=100)
        [fits] = batches
        delta_star = np.loadtxt(io.StringIO(files["delta_star_d4.csv"]), delimiter=",", ndmin=2)
        for i, name in enumerate(("dre_outlier", "trdre_outlier", "dre_gold")):
            rows, auc = support_curve(fits[3 + 3 * i:6 + 3 * i], grid, delta_star)
            text = files[f"curve_{name}_d4.csv"].splitlines()
            assert text[1] == "lambda,tnr,tpr"
            assert [tuple(float(v) for v in line.split(",")) for line in text[2:]] == rows
            assert summary["auc"]["4"][name] == auc


class TestMnchangeProtocol:
    """The contamination and the detection threshold are the protocol's
    constants, not parameters, and every file still records them."""

    def test_files_echo_the_outlier_value_and_threshold(self):
        summary, files = run_mnchange(d_values=(4,), n=40, n_changed=2, lambda_grid=(0.3,), max_iter=20)
        config = json.loads(files["summary.json"])["config"]
        assert (config["outlier_value"], config["threshold"], config["n_outliers"]) == (10.0, 1e-06, 1)
        for name, text in files.items():
            if name.endswith(".csv"):
                assert {"outlier_value=10.0", "threshold=1e-06"} <= set(text.splitlines()[0].split()), name

    def test_neither_is_a_parameter(self):
        params = inspect.signature(run_mnchange).parameters
        assert not {"outlier_value", "threshold"} & set(params) and len(params) == 9
        assert experiments.MN_OUTLIER_VALUE == 10.0


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
