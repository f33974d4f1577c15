import argparse
import hashlib
import inspect
import json

import numpy as np
import pytest

from trdre import cli, estimator, experiments
from trdre.cli import main
from trdre.storage import read_numeric_csv, write_csv


@pytest.fixture()
def sample_csvs(tmp_path):
    rng = np.random.default_rng(0)
    xp = tmp_path / "xp.csv"
    xq = tmp_path / "xq.csv"
    write_csv(xp, rng.standard_normal((80, 1)) + 0.3, header=["x1"])
    write_csv(xq, rng.standard_normal((90, 1)), header=["x1"])
    return xp, xq


class TestFitCommand:
    def test_identical_inputs_give_zero_delta(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_csv(x, np.random.default_rng(1).standard_normal((60, 2)))
        out = tmp_path / "out"
        rc = main(["fit", "--xp", str(x), "--xq", str(x), "--out", str(out)])
        assert rc == 0
        assert "[trdre] seed=42 (default)" in capsys.readouterr().out
        payload = json.loads((out / "fit_result.json").read_text())
        assert max(abs(v) for v in payload["delta"]) < 1e-3
        assert payload["config"]["nu"] == 1.0
        assert payload["inputs"]["features"] == "linear"

    def test_kept_and_trimmed_indices_partition(self, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        out = tmp_path / "out"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.75",
                    "--out", str(out)])
        assert rc == 0
        kept = read_numeric_csv(out / "kept_indices.csv").ravel().astype(int)
        trimmed = read_numeric_csv(out / "trimmed_indices.csv").ravel().astype(int)
        assert kept.size == 60  # round(0.75 * 80)
        assert sorted(np.concatenate([kept, trimmed])) == list(range(80))
        # integer cells carry no decimal point
        assert (out / "kept_indices.csv").read_text().splitlines()[1].isdigit()

    def test_seed_echo_non_default(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--seed", "7",
                    "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[trdre] seed=7" in out and "(default)" not in out

    def test_verify_prints_self_checks(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                    "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[verify] weight structure PASS" in out
        assert "[verify] self-normalization PASS" in out
        assert "[verify] 1-d grid oracle PASS" in out

    def test_rerun_is_byte_identical(self, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.9",
                          "--out", str(out)]) == 0
        for name in ("fit_result.json", "kept_indices.csv", "trimmed_indices.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_inputs_recorded_by_content_not_path(self, sample_csvs, tmp_path, monkeypatch):
        xp, xq = sample_csvs
        (tmp_path / "sub").mkdir()
        # The same fit, typed from the inputs' directory and from a subdirectory.
        for cwd, prefix, out in ((tmp_path, "", "a"), (tmp_path / "sub", "../", "../b")):
            monkeypatch.chdir(cwd)
            assert main(["fit", "--xp", prefix + xp.name, "--xq", prefix + xq.name, "--nu", "0.9",
                         "--out", out]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for name in ("fit_result.json", "kept_indices.csv", "trimmed_indices.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        inputs = json.loads((a / "fit_result.json").read_text())["inputs"]
        data = xp.read_bytes()
        assert inputs["xp"] == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        assert inputs["xq"]["bytes"] == xq.stat().st_size

    def test_missing_input_exits_2_naming_file(self, tmp_path, capsys):
        rc = main(["fit", "--xp", str(tmp_path / "absent.csv"),
                    "--xq", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_directory_input_exits_2_naming_it(self, sample_csvs, tmp_path, capsys):
        _, xq = sample_csvs
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(folder), "--xq", str(xq), "--out", str(out)])
        assert rc == 2
        assert str(folder) in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_exits_2_naming_it(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        out = tmp_path / "taken"
        out.write_text("keep\n")
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\nbroken_cell_没\n")
        rc = main(["fit", "--xp", str(bad), "--xq", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv:3" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exits_2_with_line(self, sample_csvs, tmp_path, capsys, cell):
        xp, _ = sample_csvs
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x\n1.0\n{cell}\n")
        rc = main(["fit", "--xp", str(bad), "--xq", str(xp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["linear", "rbf"])
    def test_column_mismatch_exits_2_naming_both_files(self, tmp_path, capsys, features):
        rng = np.random.default_rng(3)
        xp, xq = tmp_path / "one_col.csv", tmp_path / "six_cols.csv"
        write_csv(xp, rng.standard_normal((40, 1)))
        write_csv(xq, rng.standard_normal((40, 6)))
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--features", features, "--out", str(out)])
        assert rc == 2
        assert f"column counts differ: {xp} has 1, {xq} has 6" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_combination_exits_2(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "1.5",
                    "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nu" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["linear", "quadratic"])
    def test_rbf_bandwidth_without_rbf_exits_2_before_writing(self, sample_csvs, tmp_path, capsys, features):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--features", features,
                   "--rbf-bandwidth", "2.5", "--out", str(out)])
        assert rc == 2
        assert "--rbf-bandwidth applies only to --features rbf" in capsys.readouterr().err
        assert not out.exists()
        # checked before the inputs are read
        rc = main(["fit", "--xp", str(tmp_path / "absent.csv"), "--xq", str(xq),
                   "--features", features, "--rbf-bandwidth", "2.5", "--out", str(out)])
        assert rc == 2
        assert "--rbf-bandwidth" in capsys.readouterr().err

    def test_lambda_without_penalty_exits_2_before_reading(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        for flags in (["--lambda", "0.5"], ["--lambda", "0.5", "--regularizer", "none"]):
            rc = main(["fit", "--xp", str(tmp_path / "absent.csv"), "--xq", str(xq), *flags,
                       "--out", str(out)])
            assert rc == 2
            assert "--lambda applies only to --regularizer l1 or l2sq" in capsys.readouterr().err
            assert not out.exists()
        # a zero penalty needs no regularizer
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--lambda", "0", "--out", str(out)]) == 0

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, sample_csvs, tmp_path, capsys, tol):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--tol", tol,
                    "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    def test_diverged_fit_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.standard_normal((20, 1)) + 3.0)
        write_csv(xq, rng.standard_normal((20, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["fit", "--xp", str(xp), "--xq", str(xq),
                        "--eta0", "1e308", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_unbounded_fit_exits_0_with_certificate(self, tmp_path, capsys):
        # Every x_p lies beyond every x_q: no finite maximizer exists.
        rng = np.random.default_rng(3)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.uniform(5.0, 6.0, (60, 1)))
        write_csv(xq, rng.standard_normal((70, 1)))
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.9",
                    "--out", str(out), "--verify"])
        assert rc == 0
        payload = json.loads((out / "fit_result.json").read_text())
        assert payload["stop_reason"] == "unbounded" and payload["converged"] is False
        printed = capsys.readouterr().out
        assert f"[trdre] stop_reason=unbounded after {payload['iterations_run']} iterations" in printed
        assert "[verify] no finite maximizer: objective" in printed
        # The optimum checks have no optimum to judge; the others still run.
        assert "FAIL" not in printed
        assert "[verify] stationarity n/a (no finite maximizer)" in printed
        assert "[verify] 1-d grid oracle n/a (no finite maximizer)" in printed
        assert "[verify] weight structure PASS" in printed
        assert "[verify] self-normalization PASS" in printed

    def test_bounded_fit_prints_stop_reason_without_certificate(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                     "--out", str(out), "--verify"]) == 0
        payload = json.loads((out / "fit_result.json").read_text())
        assert payload["stop_reason"] == "window"
        printed = capsys.readouterr().out
        assert "[trdre] stop_reason=window after" in printed
        assert "no finite maximizer" not in printed

    def test_huge_max_iter_exits_0(self, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                     "--max-iter", "100000000000", "--out", str(out)]) == 0
        assert json.loads((out / "fit_result.json").read_text())["stop_reason"] == "window"

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["fit", "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestGenCommand:
    def test_truncation_pair_readable_and_bounded(self, tmp_path):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        rc = main(["gen", "truncation1d", "--n", "500", "--nu", "0.5",
                    "--out-xp", str(xp), "--out-xq", str(xq)])
        assert rc == 0
        p = read_numeric_csv(xp)
        q = read_numeric_csv(xq)
        assert p.shape == (500, 1) and q.shape == (500, 1)
        assert float(q.max()) <= 0.0  # Phi^{-1}(0.5) = 0

    def test_outlier_pair_with_nq(self, tmp_path):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        rc = main(["gen", "outlier1d", "--n-good", "100", "--n-out", "20",
                    "--b", "6.0", "--n-q", "150",
                    "--out-xp", str(xp), "--out-xq", str(xq)])
        assert rc == 0
        assert read_numeric_csv(xp).shape == (120, 1)
        assert read_numeric_csv(xq).shape == (150, 1)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--b", "inf"], "b must be finite"),
            (["--b", "nan"], "b must be finite"),
            (["--n-q", "0"], "n_q must be at least 1"),
        ],
        ids=["b_inf", "b_nan", "nq_0"],
    )
    def test_bad_outlier_args_exit_2_before_writing(self, tmp_path, capsys, flags, message):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        # argparse keeps the last value of a repeated flag
        rc = main(["gen", "outlier1d", "--n-good", "100", "--n-out", "20", "--b", "3", *flags,
                   "--out-xp", str(xp), "--out-xq", str(xq)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not xp.exists() and not xq.exists()

    def test_mnpair_then_samples(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        rc = main(["gen", "mnpair", "--d", "6", "--n-changed", "3",
                    "--out", str(pair_path)])
        assert rc == 0
        pair = json.loads(pair_path.read_text())
        assert len(pair["theta_p"]) == 6 and len(pair["changed_edges"]) == 3

        samples = tmp_path / "xq.csv"
        rc = main(["gen", "mnsamples", "--pair", str(pair_path), "--which", "q",
                    "--n", "40", "--out", str(samples)])
        assert rc == 0
        assert read_numeric_csv(samples).shape == (40, 6)

    def test_mnsamples_missing_theta_exits_2(self, tmp_path, capsys):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text('{"d": 3}\n')
        out = tmp_path / "x.csv"
        rc = main(["gen", "mnsamples", "--pair", str(pair_path), "--which", "q",
                    "--n", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "pair.json" in err and "theta_q" in err
        assert not out.exists()

    def test_mnsamples_directory_pair_exits_2_naming_it(self, tmp_path, capsys):
        folder = tmp_path / "pair.json"
        folder.mkdir()
        out = tmp_path / "x.csv"
        rc = main(["gen", "mnsamples", "--pair", str(folder), "--which", "q",
                   "--n", "5", "--out", str(out)])
        assert rc == 2
        assert str(folder) in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_from_precision_csv(self, tmp_path):
        prec = tmp_path / "prec.csv"
        write_csv(prec, np.eye(3) * 2.0)
        out = tmp_path / "x.csv"
        rc = main(["gen", "gaussian", "--precision", str(prec), "--n", "25",
                    "--out", str(out)])
        assert rc == 0
        assert read_numeric_csv(out).shape == (25, 3)

    def test_non_pd_precision_exits_2(self, tmp_path, capsys):
        prec = tmp_path / "prec.csv"
        write_csv(prec, -np.eye(2))
        rc = main(["gen", "gaussian", "--precision", str(prec), "--n", "5",
                    "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "positive definite" in capsys.readouterr().err


class TestExperimentCommand:
    def test_truncation_smoke(self, tmp_path):
        out = tmp_path / "trunc"
        rc = main(["experiment", "truncation1d", "--n", "400", "--max-iter", "300",
                    "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["delta_hat"] - 0.5) < 0.25
        curve = read_numeric_csv(out / "ratio_curve.csv")
        assert curve.shape[1] == 3

    def test_outlier_smoke(self, tmp_path):
        out = tmp_path / "outl"
        rc = main(["experiment", "outlier1d", "--n-good", "200", "--n-out", "50",
                    "--n-q", "250", "--b-grid", "3,6", "--max-iter", "300",
                    "--out", str(out)])
        assert rc == 0
        table = read_numeric_csv(out / "results.csv")
        assert table.shape[0] == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["b_grid"] == "3.0,6.0"
        assert [row["b"] for row in summary["rows"]] == [3.0, 6.0]

    def test_mnchange_smoke(self, tmp_path):
        out = tmp_path / "mn"
        rc = main(["experiment", "mnchange", "--d-list", "6", "--n", "120",
                    "--n-changed", "4", "--lambda-grid", "0.05,0.3",
                    "--max-iter", "200", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        aucs = summary["auc"]["6"]
        assert set(aucs) == {"dre_outlier", "trdre_outlier", "dre_gold"}
        assert all(0.0 <= v <= 1.0 for v in aucs.values())
        assert (out / "delta_star_d6.csv").exists()
        assert (out / "curve_dre_gold_d6.csv").exists()
        curve = read_numeric_csv(out / "curve_trdre_outlier_d6.csv")
        assert curve.shape == (2, 3)
        # one heat-map fit and two grid fits per condition
        counts = summary["unbounded_fits"]["6"]
        assert set(counts) == set(aucs)
        assert all(0 <= v <= 3 for v in counts.values())

    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        rc = main(["experiment", "truncation1d", "--n", "200", "--max-iter", "50",
                   "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("grid", ["0.3,0.05", ""])
    def test_bad_lambda_grid_exits_2_before_writing(self, tmp_path, capsys, grid):
        out = tmp_path / "mn"
        rc = main(["experiment", "mnchange", "--d-list", "6", "--lambda-grid", grid,
                    "--out", str(out)])
        assert rc == 2
        assert "lambda_grid must be nonempty, positive, and ascending" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("grid", ["0.1,inf", "0.1,nan"])
    def test_non_finite_lambda_grid_exits_2_before_writing(self, tmp_path, capsys, grid):
        out = tmp_path / "mn"
        rc = main(["experiment", "mnchange", "--d-list", "6", "--lambda-grid", grid,
                   "--out", str(out)])
        assert rc == 2
        assert "lambda_grid must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d-list", "6", "--nu", "1.5"], "nu must lie in (0, 1]"),
            (["--d-list", "6", "--nu", "0.001"], "keeps no samples"),
            (["--d-list", "6,1"], "d must be at least 2"),
            (["--d-list", ""], "d_values must be nonempty"),
            (["--d-list", "6", "--threshold", "nan"], "threshold must be a finite nonnegative real"),
            (["--d-list", "6", "--threshold", "inf"], "threshold must be a finite nonnegative real"),
            (["--d-list", "6", "--threshold", "-1"], "threshold must be a finite nonnegative real"),
            (["--d-list", "6", "--n-changed", "0"], "n_changed must be at least 1"),
        ],
        ids=["nu", "nu_keeps_none", "d", "empty", "threshold_nan", "threshold_inf", "threshold_negative",
             "n_changed_0"],
    )
    def test_bad_mnchange_args_exit_2_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "mn"
        # The case's flags come last so they override the defaults here.
        rc = main(["experiment", "mnchange", "--n", "60", "--n-changed", "4", "--lambda-grid", "0.3",
                   "--max-iter", "20", *flags, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_empty_b_grid_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "o1"
        rc = main(["experiment", "outlier1d", "--n-good", "80", "--n-out", "20", "--n-q", "100",
                   "--b-grid", "", "--max-iter", "20", "--out", str(out)])
        assert rc == 2
        assert "b_grid must be nonempty" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--b-grid", "1,inf"], "b must be finite"),
            (["--b-grid", "1,nan"], "b must be finite"),
            (["--n-q", "0"], "n_q must be at least 1"),
        ],
        ids=["b_inf", "b_nan", "nq_0"],
    )
    def test_bad_outlier_args_exit_2_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o1"
        rc = main(["experiment", "outlier1d", "--n-good", "80", "--n-out", "20", "--n-q", "100",
                   "--b-grid", "1,3", *flags, "--max-iter", "20", "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestAllFilesOrNone:
    """A failure at a command's last output leaves every output as it was."""

    @pytest.fixture()
    def inputs(self, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        pair, prec = tmp_path / "pair.json", tmp_path / "prec.csv"
        assert main(["gen", "mnpair", "--d", "4", "--n-changed", "2", "--out", str(pair)]) == 0
        write_csv(prec, np.eye(2) * 2.0)
        return {"xp": xp, "xq": xq, "pair": pair, "prec": prec}

    @staticmethod
    def _listing(out):
        return sorted((str(p.relative_to(out)), p.is_dir()) for p in out.rglob("*"))

    @pytest.mark.parametrize(
        "argv, first, last",
        [
            ("fit --xp {xp} --xq {xq} --nu 0.8 --out {out}", "fit_result.json", "trimmed_indices.csv"),
            ("experiment truncation1d --n 200 --max-iter 50 --out {out}", "summary.json", "fit_result.json"),
            ("experiment outlier1d --n-good 80 --n-out 20 --n-q 100 --b-grid 3 --max-iter 50 --out {out}",
             "results.csv", "summary.json"),
            ("experiment mnchange --d-list 4,5 --n 40 --n-changed 2 --lambda-grid 0.3 --max-iter 20 --out {out}",
             "delta_star_d4.csv", "summary.json"),
            ("gen mnpair --d 4 --n-changed 2 --out {out}/pair.json", None, "pair.json"),
            ("gen mnsamples --pair {pair} --which q --n 5 --out {out}/s.csv", None, "s.csv"),
            ("gen gaussian --precision {prec} --n 5 --out {out}/g.csv", None, "g.csv"),
            ("gen outlier1d --n-good 8 --n-out 2 --b 3 --out-xp {out}/xp.csv --out-xq {out}/xq.csv",
             "xp.csv", "xq.csv"),
            ("gen truncation1d --n 10 --out-xp {out}/xp.csv --out-xq {out}/xq.csv", "xp.csv", "xq.csv"),
        ],
        ids=["fit", "truncation1d", "outlier1d", "mnchange", "mnpair", "mnsamples", "gaussian",
             "gen_outlier1d", "gen_truncation1d"],
    )
    def test_directory_at_last_output_exits_2_writing_nothing(self, inputs, tmp_path, capsys, argv, first, last):
        out = tmp_path / "out"
        (out / last).mkdir(parents=True)
        if first is not None:
            (out / first).write_text("older\n")
        before = self._listing(out)
        rc = main(argv.format(out=out, **inputs).split())
        assert rc == 2
        assert str(out / last) in capsys.readouterr().err
        assert self._listing(out) == before
        if first is not None:
            assert (out / first).read_text() == "older\n"

    def test_mnchange_failure_at_second_d_exits_3_writing_nothing(self, tmp_path, monkeypatch, capsys):
        real = experiments.fit_many
        calls = []

        def diverge_after_first_d(tasks):
            calls.append(len(tasks))
            if len(calls) > 1:  # one batch of three heat-map fits per d: the second is d = 5's
                raise estimator.FitDivergedError(1, float("inf"))
            return real(tasks)

        monkeypatch.setattr(experiments, "fit_many", diverge_after_first_d)
        out = tmp_path / "mn"
        rc = main(["experiment", "mnchange", "--d-list", "4,5", "--n", "40", "--n-changed", "2",
                   "--lambda-grid", "0.3", "--max-iter", "20", "--out", str(out)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert calls == [3, 3]
        assert not out.exists()


def _typed(kwargs):
    # repr tells 1 from 1.0 and [6, 8] from [6.0, 8.0]
    return {k: repr(v) for k, v in kwargs.items()}


RUN_FLAGS = ["--seed", "7", "--eta0", "0.5", "--max-iter", "300", "--tol", "1e-06"]
RUN_KWARGS = {"seed": 7, "eta0": 0.5, "max_iter": 300, "tol": 1e-06}


class TestFlagsReachParameters:
    """Each flag arrives under the name of the parameter it feeds, parsed;
    an unset flag stays out, so the library default applies."""

    @pytest.fixture()
    def runner_calls(self, monkeypatch):
        calls = []
        for name in ("truncation1d", "outlier1d", "mnchange"):
            real = getattr(experiments, f"run_{name}")

            def record(*args, _real=real, _name=name, **kwargs):
                inspect.signature(_real).bind(*args, **kwargs)
                calls.append((_name, args, kwargs))
                return {}, {}

            monkeypatch.setattr(experiments, f"run_{name}", record)
        return calls

    @pytest.mark.parametrize("name", ["truncation1d", "outlier1d", "mnchange"])
    def test_only_out_reaches_runner_with_seed(self, runner_calls, tmp_path, name):
        out = str(tmp_path / "o")
        assert main(["experiment", name, "--out", out]) == 0
        assert runner_calls == [(name, (), {"seed": 42})]

    @pytest.mark.parametrize(
        "name, flags, expected",
        [
            ("truncation1d", ["--n", "300", "--nu", "0.4"], {"n": 300, "nu": 0.4}),
            (
                "outlier1d",
                ["--n-good", "40", "--n-out", "10", "--n-q", "50", "--b-grid", "1,2", "--nu", "0.7"],
                {"n_good": 40, "n_out": 10, "n_q": 50, "b_grid": [1.0, 2.0], "nu": 0.7},
            ),
            (
                "mnchange",
                ["--d-list", "6,8", "--n", "60", "--n-changed", "4", "--nu", "0.8", "--lambda", "0.05",
                 "--lambda-grid", "0.1,0.3", "--outlier-value", "8", "--threshold", "1e-05"],
                {"d_values": [6, 8], "n": 60, "n_changed": 4, "nu": 0.8, "lam_heatmap": 0.05,
                 "lambda_grid": [0.1, 0.3], "outlier_value": 8.0, "threshold": 1e-05},
            ),
        ],
    )
    def test_every_flag_reaches_its_parameter(self, runner_calls, tmp_path, name, flags, expected):
        out = str(tmp_path / "o")
        assert main(["experiment", name, *flags, *RUN_FLAGS, "--out", out]) == 0
        [(called, args, kwargs)] = runner_calls
        assert (called, args) == (name, ())
        assert _typed(kwargs) == _typed({**expected, **RUN_KWARGS})

    @pytest.fixture()
    def trim_configs(self, monkeypatch):
        calls = []

        def record(**kwargs):
            calls.append(kwargs)
            return estimator.TrimConfig(**kwargs)

        monkeypatch.setattr(cli, "TrimConfig", record)
        return calls

    def test_fit_without_flags_builds_default_config(self, trim_configs, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--out", str(tmp_path / "o")]) == 0
        assert trim_configs == [{"seed": 42}]

    def test_fit_flags_reach_trim_config(self, trim_configs, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8", "--lambda", "0.1",
                   "--regularizer", "l2sq", *RUN_FLAGS, "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        [kwargs] = trim_configs
        assert _typed(kwargs) == _typed({"nu": 0.8, "lam": 0.1, "regularizer": "l2sq", **RUN_KWARGS})


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def test_every_command_defaults_seed_to_trim_config():
    leaves = list(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 9  # fit, three experiments, five generators
    for leaf in leaves:
        [seed] = [a for a in leaf._actions if a.dest == "seed"]
        assert seed.default == estimator.TrimConfig.seed, leaf.prog
