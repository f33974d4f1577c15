import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from trdre import cli, estimator, experiments, synthetic
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


def _strict_json(path):
    """The JSON file at path, parsed with NaN and Infinity refused."""

    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which strict JSON has not")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestFitCommand:
    def test_identical_inputs_give_zero_delta(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_csv(x, np.random.default_rng(1).standard_normal((60, 2)))
        out = tmp_path / "out"
        rc = main(["fit", "--xp", str(x), "--xq", str(x), "--out", str(out)])
        assert rc == 0
        assert "seed" not in capsys.readouterr().out  # a fit draws no data
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

    def test_verify_prints_self_checks(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                    "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[verify] weight structure PASS" in out
        assert "[verify] self-normalization PASS" in out
        # The fit is certified exact, and the ascent loop agrees with it.
        assert "[trdre] stop_reason=certified after 1 iterations" in out
        assert "[verify] ascent loop cross-check PASS (loop delta " in out

    @pytest.mark.parametrize("regularizer", ["l1", "l2sq"])
    def test_verify_judges_penalized_1d_fits(self, sample_csvs, tmp_path, capsys, regularizer):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8", "--regularizer", regularizer,
                   "--lambda", "0.05", "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[verify] ascent loop cross-check PASS (loop delta " in out
        assert "FAIL" not in out

    def test_verify_reports_a_loop_that_diverges(self, sample_csvs, tmp_path, capsys):
        # The fit is solved exactly and written; the loop, run only to
        # cross-check it, diverges at this step size.
        xp, xq = sample_csvs
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8", "--eta0", "1e308",
                       "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        assert json.loads((tmp_path / "o" / "fit_result.json").read_text())["stop_reason"] == "certified"
        assert "[verify] ascent loop cross-check FAIL (objective became non-finite" in capsys.readouterr().out

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
        assert inputs["xp"] == {"sha256": hashlib.sha256(read_numeric_csv(xp).tobytes()).hexdigest(), "shape": [80, 1]}
        assert inputs["xq"]["shape"] == [90, 1]

    def test_inputs_record_the_numbers_fit(self, sample_csvs, tmp_path, monkeypatch):
        # The file is replaced once it has been parsed: the record names the
        # numbers that were fit, not the new bytes.
        xp, xq = sample_csvs
        fitted = read_numeric_csv(xp)
        read = cli.read_numeric_csv

        def read_then_replace(path):
            X = read(path)
            if Path(path) == xp:
                write_csv(xp, fitted + 1.0)
            return X

        monkeypatch.setattr(cli, "read_numeric_csv", read_then_replace)
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--out", str(tmp_path / "o")]) == 0
        inputs = json.loads((tmp_path / "o" / "fit_result.json").read_text())["inputs"]
        assert inputs["xp"]["sha256"] == hashlib.sha256(fitted.tobytes()).hexdigest()
        assert inputs["xp"]["sha256"] != hashlib.sha256(read_numeric_csv(xp).tobytes()).hexdigest()

    def test_line_endings_and_bom_do_not_change_the_result(self, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        outputs = []
        for name, edit in (("plain", bytes), ("crlf", lambda b: b.replace(b"\n", b"\r\n")),
                           ("bom", lambda b: b"\xef\xbb\xbf" + b)):
            copies = []
            for path in (xp, xq):
                copy = tmp_path / name / path.name
                copy.parent.mkdir(exist_ok=True)
                copy.write_bytes(edit(path.read_bytes()))
                copies.append(str(copy))
            out = tmp_path / name / "out"
            assert main(["fit", "--xp", copies[0], "--xq", copies[1], "--nu", "0.9", "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("fit_result.json", "kept_indices.csv",
                                                              "trimmed_indices.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

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

    @pytest.mark.parametrize("bandwidth", ["nan", "-1", "0", "inf", "1e-200", "1e200"])
    def test_bad_rbf_bandwidth_exits_2_naming_the_flag(self, sample_csvs, tmp_path, capsys, bandwidth):
        """A bandwidth whose doubled square is not a normal float is
        rejected, where it used to divide by zero or overflow."""
        xp, xq = sample_csvs
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--features", "rbf",
                   "--rbf-bandwidth", bandwidth, "--out", str(out)])
        assert rc == 2
        message = f"error: --rbf-bandwidth: bandwidth must lie in [1e-150, 1e150], got {float(bandwidth)}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "features, huge, message",
        [
            ("quadratic", "xp", "featurization produced non-finite values"),
            ("rbf", "xq", "median pairwise distance of the basis must lie in [1e-150, 1e150], got inf"),
        ],
        ids=["quadratic_xp", "rbf_xq"],
    )
    def test_overflowing_features_exit_2_naming_the_csv(self, tmp_path, capsys, features, huge, message):
        """A cell whose square overflows is an input error that names its
        file, and raises no float warning (the suite makes it an error)."""
        paths = {"xp": tmp_path / "xp.csv", "xq": tmp_path / "xq.csv"}
        rows = np.random.default_rng(3).standard_normal((6, 2))
        for key, path in paths.items():
            write_csv(path, rows * [1e200, 1.0] if key == huge else rows)
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(paths["xp"]), "--xq", str(paths["xq"]), "--features", features,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {paths[huge]}: {message}\n"
        assert not out.exists()

    def test_rbf_kernel_underflowing_to_zero_fits(self, tmp_path):
        """A numerator point too far from every centre for its squared
        distance to be a float has kernel values of exactly 0."""
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        rows = np.random.default_rng(3).standard_normal((6, 2))
        write_csv(xp, np.vstack([rows, [[1e200, 0.5]]]))
        write_csv(xq, rows)
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--features", "rbf", "--out", str(tmp_path / "o")]) == 0

    def test_rbf_kernel_on_centres_beyond_a_float_square_fits(self, tmp_path):
        """Centres whose squared norm is not a float still have float
        kernel values: 1 at the centre itself, 0 at every other point."""
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        rows = np.random.default_rng(3).standard_normal((6, 2))
        write_csv(xp, rows)
        write_csv(xq, rows * [1e200, 1.0])
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--features", "rbf", "--rbf-bandwidth", "1",
                     "--out", str(out)]) == 0
        # Every numerator feature is 0, so the objective grows without bound.
        assert json.loads((out / "fit_result.json").read_text())["stop_reason"] == "unbounded"

    def test_lambda_without_penalty_exits_2_before_reading(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        for flags in (["--lambda", "0.5"], ["--lambda", "0.5", "--regularizer", "none"]):
            rc = main(["fit", "--xp", str(tmp_path / "absent.csv"), "--xq", str(xq), *flags,
                       "--out", str(out)])
            assert rc == 2
            assert "lam must be 0 with regularizer 'none', got 0.5" in capsys.readouterr().err
            assert not out.exists()
        # a zero penalty needs no regularizer
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--lambda", "0", "--out", str(out)]) == 0

    def test_diverged_fit_exits_3(self, tmp_path, capsys):
        # Two columns: the loop runs, where one would be solved exactly.
        rng = np.random.default_rng(2)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.standard_normal((20, 2)) + 3.0)
        write_csv(xq, rng.standard_normal((20, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["fit", "--xp", str(xp), "--xq", str(xq),
                        "--eta0", "1e308", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_linear_fit_exits_3_without_float_warnings(self, tmp_path, capsys):
        """The loop's products overflow on a cell of 1e200: that is a
        diverged fit, reported with the hint at --eta0, not a float error."""
        xp, xq = tmp_path / "big.csv", tmp_path / "q.csv"
        xp.write_text("1e200,0.5\n0.1,0.2\n")
        xq.write_text("0.1,0.2\n-0.3,1.0\n0.7,-0.4\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: objective became non-finite at iteration 1") and "Warning" not in err
        assert err.endswith("; try a smaller eta0\n")
        assert not out.exists()

    def test_one_column_fit_whose_start_slope_overflows_exits_3(self, tmp_path, capsys):
        """x_q - max x_q overflows, so no exact fit is certified: the loop
        runs and diverges. Before, the fit was certified at delta = 5e-324."""
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        xp.write_text("0\n1\n2\n")
        xq.write_text("-1e308\n1e308\n0\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: objective became non-finite")
        assert not out.exists()

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
        assert payload["stop_reason"] == "unbounded" and "converged" not in payload
        printed = capsys.readouterr().out
        assert f"[trdre] stop_reason=unbounded after {payload['iterations_run']} iterations" in printed
        assert "[verify] no finite maximizer: objective" in printed
        # The optimum checks have no optimum to judge; the others still run.
        assert "FAIL" not in printed
        assert "[verify] stationarity n/a (no finite maximizer)" in printed
        assert re.search(r"\[verify\] ascent loop cross-check PASS \(loop delta [0-9.]+, no finite maximizer\)", printed)
        assert "[verify] weight structure PASS" in printed
        assert "[verify] self-normalization PASS" in printed

    def test_verify_fails_a_fit_that_misses_unboundedness(self, tmp_path, capsys):
        # The pair above, with too few iterations for the loop to prove what
        # the exact solver found: that no finite maximizer exists.
        rng = np.random.default_rng(3)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.uniform(5.0, 6.0, (60, 1)))
        write_csv(xq, rng.standard_normal((70, 1)))
        out = tmp_path / "o"
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.9", "--max-iter", "1",
                   "--out", str(out), "--verify"])
        assert rc == 0
        assert json.loads((out / "fit_result.json").read_text())["stop_reason"] == "max_iter"
        printed = capsys.readouterr().out
        assert "[verify] ascent loop cross-check FAIL (loop delta 0.0, no finite maximizer)" in printed

    def test_certified_zero_verifies_without_fail(self, tmp_path, capsys):
        # delta = 0 at a kink: the exact maximizer, whose vertex weights are not
        # the optimal dual weights, so the vertex residual is large.
        x = tmp_path / "x.csv"
        x.write_text("".join(f"{i}\n" for i in range(1, 11)))
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(x), "--xq", str(x), "--nu", "0.8", "--out", str(out), "--verify"]) == 0
        printed = capsys.readouterr().out
        assert "[trdre] stop_reason=certified after 1 iterations" in printed
        assert "FAIL" not in printed
        assert "[verify] stationarity n/a (certified one-column maximizer; vertex residual 0.8)" in printed
        assert "[verify] ascent loop cross-check PASS (loop delta 0.0, |objective gap| = 0)" in printed
        assert json.loads((out / "fit_result.json").read_text())["delta"] == [0.0]

    @pytest.mark.parametrize(
        "flags, verdict",
        [([], r"PASS \(loop delta [0-9.]+, no finite maximizer\)"),
         (["--max-iter", "1"], r"FAIL \(loop delta 0\.0, no finite maximizer\)")],
        ids=["unbounded", "max_iter"],
    )
    def test_uncertified_one_column_fit_runs_the_loop_once(self, tmp_path, capsys, monkeypatch, flags, verdict):
        # The exact test finds no finite maximizer, so the fit is the loop's
        # result, and --verify judges that result instead of rerunning the loop.
        rng = np.random.default_rng(3)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.uniform(5.0, 6.0, (60, 1)))
        write_csv(xq, rng.standard_normal((70, 1)))
        calls = []
        real = estimator._ascend

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(estimator, "_ascend", counted)
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.9", *flags,
                     "--out", str(tmp_path / "o"), "--verify"]) == 0
        assert len(calls) == 1
        assert re.search(r"\[verify\] ascent loop cross-check " + verdict, capsys.readouterr().out)

    def test_maximizer_beyond_the_largest_float_is_named(self, tmp_path, capsys):
        # A positive l2sq penalty bounds the objective, but this one only far
        # beyond the largest float: the loop fits instead, and cannot reach it.
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        xp.write_text("2\n3\n2.5\n")
        xq.write_text("-1\n1\n0\n")
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", repr(2.0 / 3.0),
                     "--regularizer", "l2sq", "--lambda", "1e-310", "--max-iter", "50",
                     "--out", str(tmp_path / "o"), "--verify"]) == 0
        printed = capsys.readouterr().out
        assert "[trdre] stop_reason=max_iter after 50 iterations" in printed
        assert re.search(
            r"\[verify\] ascent loop cross-check FAIL"
            r" \(loop delta [0-9.]+, maximizer or its objective beyond the largest float\)",
            printed,
        )
        assert "no finite maximizer" not in printed
        _strict_json(tmp_path / "o" / "fit_result.json")

    def test_objective_beyond_the_largest_float_is_not_certified(self, tmp_path, capsys):
        # Under this penalty the maximizer, about 8.3e307, is a float, but
        # two log-ratios there are not, nor is the objective: the loop fits
        # instead, and the file holds no Infinity.
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        xp.write_text("2\n3\n2.5\n")
        xq.write_text("-1\n1\n0\n")
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", repr(2.0 / 3.0),
                     "--regularizer", "l2sq", "--lambda", "5e-309", "--out", str(tmp_path / "o"), "--verify"]) == 0
        printed = capsys.readouterr().out
        assert "[trdre] stop_reason=max_iter after 5000 iterations" in printed
        assert "maximizer or its objective beyond the largest float" in printed
        payload = _strict_json(tmp_path / "o" / "fit_result.json")
        # The two smallest log-ratios at any delta > 0 are rows 0 and 2.
        assert payload["kept_indices"] == [0, 2] and payload["stop_reason"] == "max_iter"

    def test_bounded_fit_prints_stop_reason_without_certificate(self, sample_csvs, tmp_path, capsys):
        xp, xq = sample_csvs
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                     "--out", str(out), "--verify"]) == 0
        payload = json.loads((out / "fit_result.json").read_text())
        assert payload["stop_reason"] == "certified" and "converged" not in payload
        assert "seed" not in payload["config"]
        printed = capsys.readouterr().out
        assert "[trdre] stop_reason=certified after 1 iterations" in printed
        assert "no finite maximizer" not in printed

    def test_huge_max_iter_exits_0(self, tmp_path):
        # Two columns: the loop runs, where one would be solved exactly.
        rng = np.random.default_rng(0)
        xp, xq = tmp_path / "p.csv", tmp_path / "q.csv"
        write_csv(xp, rng.standard_normal((80, 2)) + 0.3)
        write_csv(xq, rng.standard_normal((90, 2)))
        out = tmp_path / "o"
        assert main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8",
                     "--max-iter", "100000000000", "--out", str(out)]) == 0
        assert json.loads((out / "fit_result.json").read_text())["stop_reason"] == "window"

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["fit", "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestGenCommand:
    def test_seed_echo_non_default(self, tmp_path, capsys):
        argv = ["gen", "truncation1d", "--n", "20", "--out-xp", str(tmp_path / "xp.csv"),
                "--out-xq", str(tmp_path / "xq.csv")]
        assert main(argv) == 0
        assert "[trdre] seed=42 (default)" in capsys.readouterr().out
        assert main([*argv, "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[trdre] seed=7" in out and "(default)" not in out

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

    def test_outlier_pair_records_n_q(self, tmp_path):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        assert main(["gen", "outlier1d", "--n-good", "10", "--n-out", "2", "--n-q", "15", "--b", "6",
                     "--out-xp", str(xp), "--out-xq", str(xq)]) == 0
        for path in (xp, xq):
            assert path.read_text().splitlines()[0] == "# b=6.0 n_good=10 n_out=2 n_q=15 seed=42"

    def test_outlier_pair_defaults_to_the_experiments_sizes(self, tmp_path):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        assert main(["gen", "outlier1d", "--b", "3", "--out-xp", str(xp), "--out-xq", str(xq)]) == 0
        assert read_numeric_csv(xp).shape == (synthetic.OUTLIER_N_GOOD + synthetic.OUTLIER_N_OUT, 1)
        assert read_numeric_csv(xq).shape == (synthetic.OUTLIER_N_Q, 1)
        assert inspect.signature(experiments.run_outlier1d).parameters["n_q"].default == synthetic.OUTLIER_N_Q

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

    def test_bad_truncation_size_exits_2_before_writing(self, tmp_path, capsys):
        xp, xq = tmp_path / "xp.csv", tmp_path / "xq.csv"
        assert main(["gen", "truncation1d", "--n", "-3", "--out-xp", str(xp), "--out-xq", str(xq)]) == 2
        assert capsys.readouterr().err == "error: n must be at least 1, got -3\n"
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
        # a pair file with a byte-order mark gives the same samples
        bom_path = tmp_path / "bom.json"
        bom_path.write_bytes(b"\xef\xbb\xbf" + pair_path.read_bytes())
        rc = main(["gen", "mnsamples", "--pair", str(bom_path), "--which", "q",
                   "--n", "40", "--out", str(tmp_path / "bom.csv")])
        assert rc == 0
        assert (tmp_path / "bom.csv").read_bytes() == samples.read_bytes()

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "Expecting value: line 1 column 1 (char 0)"),
            ('{"theta_q": "abc"}', "theta_q is not a numeric matrix: could not convert string to float"),
            ('{"theta_q": {"a": 1}}', "theta_q is not a numeric matrix: float() argument"),
            ('{"theta_q": [1.0, 2.0]}', "theta_q is not a numeric matrix: shape (2,)"),
            ('{"theta_q": [[1.0, NaN], [NaN, 1.0]]}', "theta_q: precision matrix contains non-finite entries"),
        ],
        ids=["empty", "string", "object", "vector", "nan"],
    )
    def test_mnsamples_bad_pair_exits_2_naming_it(self, tmp_path, capsys, text, message):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(text)
        out = tmp_path / "x.csv"
        rc = main(["gen", "mnsamples", "--pair", str(pair_path), "--which", "q",
                   "--n", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {pair_path}: {message}")
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

    @pytest.mark.parametrize("generator", ["gaussian", "mnsamples"])
    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1.0, 0.0]], "precision must be square, got shape (1, 2)"),
            ([[2.0, 1.0], [0.0, 2.0]], "precision matrix is not symmetric"),
            ([[-1.0, 0.0], [0.0, -1.0]], "precision matrix is not positive definite"),
        ],
        ids=["not_square", "not_symmetric", "not_pd"],
    )
    def test_bad_precision_exits_2_naming_it(self, tmp_path, capsys, generator, matrix, message):
        if generator == "gaussian":
            source = tmp_path / "prec.csv"
            write_csv(source, np.array(matrix))
            flags, named = ["--precision", str(source)], f"{source}"
        else:
            source = tmp_path / "pair.json"
            source.write_text(json.dumps({"theta_q": matrix}))
            flags, named = ["--pair", str(source), "--which", "q"], f"{source}: theta_q"
        out = tmp_path / "x.csv"
        assert main(["gen", generator, *flags, "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}: {message}\n"
        assert not out.exists()

    def test_bad_sample_count_is_not_the_files_error(self, tmp_path, capsys):
        prec = tmp_path / "prec.csv"
        write_csv(prec, np.eye(2))
        out = tmp_path / "x.csv"
        assert main(["gen", "gaussian", "--precision", str(prec), "--n", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n must be at least 1, got 0\n"
        assert not out.exists()


class TestRemovedFlags:
    """The window tolerance is a constant, the 1-D experiments, whose
    one-column fits are solved exactly, take no loop settings, a fit,
    which draws no data, takes no seed, and mnchange's outlier point and
    detection threshold are fixed by its protocol: each such flag is a
    usage error, and the command writes nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            "fit --xp {xp} --xq {xq} --tol 1e-6",
            "experiment truncation1d --n 200 --tol 1e-6",
            "experiment outlier1d --n-good 80 --n-out 20 --n-q 100 --b-grid 3 --tol 1e-6",
            "experiment mnchange --d-list 4 --n 40 --n-changed 2 --lambda-grid 0.3 --tol 1e-6",
            "experiment truncation1d --n 200 --eta0 0.5",
            "experiment truncation1d --n 200 --max-iter 300",
            "experiment outlier1d --n-good 80 --n-out 20 --n-q 100 --b-grid 3 --eta0 0.5",
            "experiment outlier1d --n-good 80 --n-out 20 --n-q 100 --b-grid 3 --max-iter 300",
            "fit --xp {xp} --xq {xq} --seed 1",
            "experiment mnchange --d-list 4 --n 40 --n-changed 2 --lambda-grid 0.3 --outlier-value 8",
            "experiment mnchange --d-list 4 --n 40 --n-changed 2 --lambda-grid 0.3 --threshold 1e-5",
        ],
        ids=["fit_tol", "truncation1d_tol", "outlier1d_tol", "mnchange_tol", "truncation1d_eta0",
             "truncation1d_max_iter", "outlier1d_eta0", "outlier1d_max_iter", "fit_seed",
             "mnchange_outlier_value", "mnchange_threshold"],
    )
    def test_exits_2_writing_nothing(self, sample_csvs, tmp_path, capsys, argv):
        xp, xq = sample_csvs
        out = tmp_path / "out"
        assert main(f"{argv} --out {out}".format(xp=xp, xq=xq).split()) == 2
        assert "unrecognized arguments: " + argv.split()[-2] in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommand:
    def test_truncation_smoke(self, tmp_path):
        out = tmp_path / "trunc"
        rc = main(["experiment", "truncation1d", "--n", "400", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["delta_hat"] - 0.5) < 0.25
        curve = read_numeric_csv(out / "ratio_curve.csv")
        assert curve.shape[1] == 3

    def test_outlier_smoke(self, tmp_path):
        out = tmp_path / "outl"
        rc = main(["experiment", "outlier1d", "--n-good", "200", "--n-out", "50",
                    "--n-q", "250", "--b-grid", "3,6", "--out", str(out)])
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
        rc = main(["experiment", "truncation1d", "--n", "200", "--out", str(out)])
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
            (["--d-list", "6,3"], "n_changed must lie in [0, 3] for d=3, got 4"),
            (["--d-list", ""], "d_values must be nonempty"),
            (["--d-list", "4,4"], "d_values must not repeat a dimension, got 4,4"),
            (["--d-list", "6", "--n-changed", "0"], "n_changed must be at least 1"),
        ],
        ids=["nu", "nu_keeps_none", "d", "n_changed_over_d", "empty", "d_repeated", "n_changed_0"],
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
                   "--b-grid", "", "--out", str(out)])
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
                   "--b-grid", "1,3", *flags, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("b", ["1e300", "1e308"])
    def test_diverged_outlier_fit_exits_3_naming_no_flag_it_lacks(self, tmp_path, capsys, b):
        """The loop's sums overflow at such a b: a diverged fit, reported
        with no float warning and with no hint at an --eta0 that
        outlier1d does not take."""
        out = tmp_path / "o1"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["experiment", "outlier1d", "--n-good", "10", "--n-out", "2", "--n-q", "5",
                       "--b-grid", b, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: objective became non-finite at iteration 1 \(\|\|delta\|\|_inf = \S+\)\n", err)
        assert not out.exists()


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
            ("experiment truncation1d --n 200 --out {out}", "summary.json", "fit_result.json"),
            ("experiment outlier1d --n-good 80 --n-out 20 --n-q 100 --b-grid 3 --out {out}",
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

    @pytest.mark.parametrize("argv", [
        "gen truncation1d --n 5 --out-xp a.csv --out-xq ./a.csv",
        "gen outlier1d --b 3 --out-xp a.csv --out-xq a.csv",
    ], ids=["two_spellings", "one_spelling"])
    def test_outputs_naming_one_file_exit_2_writing_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 2
        assert f"two outputs name the same file: {tmp_path.resolve() / 'a.csv'}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_mnchange_failure_at_second_d_exits_3_writing_nothing(self, tmp_path, monkeypatch, capsys):
        real = experiments.fit_many
        calls = []

        def diverge_after_first_d(tasks):
            calls.append(len(tasks))
            if len(calls) > 1:  # one batch of three heat-map fits and three paths per d: the second is d = 5's
                exc = estimator.FitDivergedError(1, float("inf"))
                exc.task_index = 3  # as fit_many sets it: the first path's fit
                raise exc
            return real(tasks)

        monkeypatch.setattr(experiments, "fit_many", diverge_after_first_d)
        out = tmp_path / "mn"
        rc = main(["experiment", "mnchange", "--d-list", "4,5", "--n", "40", "--n-changed", "2",
                   "--lambda-grid", "0.3", "--max-iter", "20", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "fit failed at lambda=0.3: objective became non-finite" in err
        assert err.endswith("; try a smaller eta0\n")  # mnchange takes --eta0
        assert calls == [6, 6]
        assert not out.exists()


def _typed(kwargs):
    # repr tells 1 from 1.0 and [6, 8] from [6.0, 8.0]
    return {k: repr(v) for k, v in kwargs.items()}


# The ascent loop's settings, which fit and mnchange take; the 1-D experiments take none.
LOOP_FLAGS = ["--eta0", "0.5", "--max-iter", "300"]
LOOP_KWARGS = {"eta0": 0.5, "max_iter": 300}


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
                 "--lambda-grid", "0.1,0.3", *LOOP_FLAGS],
                {"d_values": [6, 8], "n": 60, "n_changed": 4, "nu": 0.8, "lam_heatmap": 0.05,
                 "lambda_grid": [0.1, 0.3], **LOOP_KWARGS},
            ),
        ],
    )
    def test_every_flag_reaches_its_parameter(self, runner_calls, tmp_path, name, flags, expected):
        out = str(tmp_path / "o")
        assert main(["experiment", name, *flags, "--seed", "7", "--out", out]) == 0
        [(called, args, kwargs)] = runner_calls
        assert (called, args) == (name, ())
        assert _typed(kwargs) == _typed({**expected, "seed": 7})

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
        assert trim_configs == [{}]

    def test_fit_flags_reach_trim_config(self, trim_configs, sample_csvs, tmp_path):
        xp, xq = sample_csvs
        rc = main(["fit", "--xp", str(xp), "--xq", str(xq), "--nu", "0.8", "--lambda", "0.1",
                   "--regularizer", "l2sq", *LOOP_FLAGS, "--out", str(tmp_path / "o"), "--verify"])
        assert rc == 0
        [kwargs] = trim_configs
        assert _typed(kwargs) == _typed({"nu": 0.8, "lam": 0.1, "regularizer": "l2sq", **LOOP_KWARGS})


class TestParserReuse:
    SMALL = ["experiment", "outlier1d", "--n-good", "40", "--n-out", "10", "--n-q", "50", "--b-grid", "0,3"]
    COMMANDS = [
        [*SMALL, "--seed", "1", "--out", "a"],
        [*SMALL, "--seed", "2", "--out", "b"],
        [*SMALL, "--n-good", "x", "--out", "c"],  # usage error
        ["fit", "--help"],
        [*SMALL, "--seed", "1", "--out", "d"],
    ]

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, monkeypatch, capsys):
        """main builds its parser once, and each call's exit code, output
        and files equal those of the same command in a fresh interpreter."""
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
        cli._parser.cache_clear()
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        try:
            runs = []
            for argv in self.COMMANDS:
                rc = main(argv)
                runs.append((rc, *capsys.readouterr()))
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert [rc for rc, _, _ in runs] == [0, 0, 2, 0, 0]

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv, run in zip(self.COMMANDS, runs):
            done = subprocess.run([sys.executable, "-m", "trdre.cli", *argv], cwd=fresh, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stdout, done.stderr) == run, argv
        assert "usage: trdre experiment outlier1d" in runs[2][2] and "--n-good" in runs[2][2]
        assert runs[3][1].startswith("usage: trdre fit")
        for name in ("a", "b", "d"):
            for path in sorted((fresh / name).iterdir()):
                assert (here / name / path.name).read_bytes() == path.read_bytes(), path
        assert not (here / "c").exists()
        a, d = ({p.name: p.read_bytes() for p in (here / n).iterdir()} for n in ("a", "d"))
        assert a == d and len(a) == 2


def _leaf_parsers(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def test_every_command_defaults_seed_to_default_seed():
    leaves = list(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 9  # fit, three experiments, five generators
    for leaf in leaves:
        seeds = [a.default for a in leaf._actions if a.dest == "seed"]
        # a fit draws no data, so it takes no seed
        assert seeds == ([] if leaf.prog == "trdre fit" else [synthetic.DEFAULT_SEED]), leaf.prog


@pytest.mark.parametrize(
    "argv, written",
    [
        (["experiment", "truncation1d", "--n", "40", "--out", "o"], ["o"]),
        (["gen", "truncation1d", "--n", "40", "--out-xp", "xp.csv", "--out-xq", "xq.csv"], ["xp.csv", "xq.csv"]),
    ],
    ids=["experiment", "gen"],
)
def test_negative_seed_exits_2_writing_nothing(tmp_path, monkeypatch, capsys, argv, written):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", "-1"]) == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in written)
