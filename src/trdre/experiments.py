"""Reference experiments behind the `trdre experiment` subcommand.

Each runner writes plot-ready CSVs plus a summary JSON into an output
directory and returns the summary dict. Every file embeds the resolved
configuration (JSON as an object, CSV as a leading '#' comment line), and
reruns with identical arguments produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimator import TrimConfig, fit_featurized, fit_result_to_dict, keep_count, kkt_check
from .evaluation import (
    DETECTION_THRESHOLD,
    differential_precision_matrix,
    ratio_curve_error,
    support_curve,
    true_gaussian_log_ratio,
    validate_lambda_grid,
    validate_threshold,
)
from .ratio_model import LinearFeatures, PairwiseQuadraticFeatures, featurize, log_ratios
from .storage import write_csv, write_json
from .synthetic import (
    OUTLIER_MU_Q,
    OUTLIER_N_GOOD,
    OUTLIER_N_OUT,
    TRUNCATION_MU_Q,
    TRUNCATION_N,
    TRUNCATION_NU,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
)

CURVE_GRID = np.linspace(-3.0, 3.0, 401)
ERROR_BAND = 2.0  # curve errors are reported on |x| <= ERROR_BAND


def _child_seeds(seed: int, count: int) -> list[int]:
    """Reproducible per-task seeds derived from one master seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)]


def _config_comment(cfg: dict) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def run_truncation1d(
    out_dir,
    n: int = TRUNCATION_N,
    nu: float = TRUNCATION_NU,
    seed: int = TrimConfig.seed,
    eta0: float = TrimConfig.eta0,
    max_iter: int = TrimConfig.max_iter,
    tol: float = TrimConfig.tol,
) -> dict:
    """Fit a half-truncated denominator; the analytic target is
    -TRUNCATION_MU_Q = 0.5."""
    out = Path(out_dir)
    config = {
        "experiment": "truncation1d", "n": n, "nu": nu, "seed": seed,
        "eta0": eta0, "max_iter": max_iter, "tol": tol, "lambda": 0.0,
    }
    cfg = TrimConfig(nu=nu, eta0=eta0, max_iter=max_iter, tol=tol, seed=seed)
    xp, xq = gen_truncation_1d(n, nu=nu, seed=seed)
    fmap = LinearFeatures()
    PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
    res = fit_featurized(PhiP, PhiQ, cfg)
    report = kkt_check(res, PhiP, PhiQ, cfg)

    lr_hat = log_ratios(res.delta_best, featurize(CURVE_GRID, fmap), PhiQ)
    lr_true = true_gaussian_log_ratio(CURVE_GRID, 0.0, TRUNCATION_MU_Q)
    band = np.abs(CURVE_GRID) <= ERROR_BAND
    summary = {
        "config": config,
        "delta_hat": float(res.delta_best[0]),
        "delta_star": -TRUNCATION_MU_Q,
        "t_hat": res.t_hat,
        "objective_best": res.objective_best,
        "kept_fraction": len(res.kept_indices) / n,
        "converged": res.converged,
        "iterations_run": res.iterations_run,
        "curve_error_sup": ratio_curve_error(lr_hat[band], lr_true[band], "sup"),
        "curve_error_l2": ratio_curve_error(lr_hat[band], lr_true[band], "l2"),
        "kkt_weight_ok": report.weight_ok,
        "kkt_stationarity": report.stationarity,
    }
    write_json(out / "summary.json", summary)
    write_csv(
        out / "ratio_curve.csv",
        np.column_stack([CURVE_GRID, np.exp(lr_hat), np.exp(lr_true)]),
        header=["x", "r_hat", "r_true"],
        comment=_config_comment(config),
    )
    write_json(out / "fit_result.json", fit_result_to_dict(res, cfg))
    return summary


def run_outlier1d(
    out_dir,
    n_good: int = OUTLIER_N_GOOD,
    n_out: int = OUTLIER_N_OUT,
    n_q: int = 5000,
    b_grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    nu: float = 0.8,
    seed: int = TrimConfig.seed,
    eta0: float = TrimConfig.eta0,
    max_iter: int = TrimConfig.max_iter,
    tol: float = TrimConfig.tol,
) -> dict:
    """Sweep the outlier location b; trimmed and untrimmed fits per b.

    The denominator is N(OUTLIER_MU_Q, 1), so a clean numerator would
    give a natural-parameter difference of -OUTLIER_MU_Q = 0.75 under
    identity features.
    """
    out = Path(out_dir)
    bs = [float(b) for b in b_grid]
    if not bs:
        raise ValueError("b_grid must be nonempty")
    # The generator rejects a bad b too, but only when its turn comes: check
    # the whole grid before the first fit (a bad n_q fails on the first b).
    bad = [b for b in bs if not np.isfinite(b)]
    if bad:
        raise ValueError(f"outlier location b must be finite, got {bad[0]}")
    config = {
        "experiment": "outlier1d", "n_good": n_good, "n_out": n_out, "n_q": n_q,
        "b_grid": ",".join(repr(b) for b in bs), "nu": nu, "seed": seed,
        "eta0": eta0, "max_iter": max_iter, "tol": tol, "lambda": 0.0,
    }
    base = TrimConfig(nu=nu, eta0=eta0, max_iter=max_iter, tol=tol, seed=seed)
    seeds = _child_seeds(seed, len(bs))
    fmap = LinearFeatures()
    band = CURVE_GRID[np.abs(CURVE_GRID) <= ERROR_BAND]
    phi_band = featurize(band, fmap)
    lr_true = true_gaussian_log_ratio(band, 0.0, OUTLIER_MU_Q)

    rows = []
    for b, s in zip(bs, seeds):
        xp, xq = gen_outlier_1d(n_good, n_out, b, seed=s, n_q=n_q)
        PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
        trimmed = fit_featurized(PhiP, PhiQ, base)
        plain = fit_featurized(PhiP, PhiQ, replace(base, nu=1.0))
        row = {"b": b}
        for tag, res in (("trdre", trimmed), ("kliep", plain)):
            lr_hat = log_ratios(res.delta_best, phi_band, PhiQ)
            row[f"delta_{tag}"] = float(res.delta_best[0])
            row[f"err_sup_{tag}"] = ratio_curve_error(lr_hat, lr_true, "sup")
            row[f"err_l2_{tag}"] = ratio_curve_error(lr_hat, lr_true, "l2")
        row["t_hat_trdre"] = trimmed.t_hat
        rows.append(row)
    cols = [
        "b", "delta_trdre", "delta_kliep", "t_hat_trdre",
        "err_sup_trdre", "err_l2_trdre", "err_sup_kliep", "err_l2_kliep",
    ]
    write_csv(
        out / "results.csv",
        [[row[c] for c in cols] for row in rows],
        header=cols,
        comment=_config_comment(config),
    )
    summary = {"config": config, "delta_star": -OUTLIER_MU_Q, "rows": rows}
    write_json(out / "summary.json", summary)
    return summary


DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4.0, 0.0, 30))
MN_OUTLIERS = 1  # copies of the outlier point appended to the contaminated numerator


def run_mnchange(
    out_dir,
    d_values=(20, 25, 36),
    n: int = 500,
    n_changed: int = 20,
    nu: float = 0.9,
    lam_heatmap: float = 0.0938,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    outlier_value: float = 10.0,
    threshold: float = DETECTION_THRESHOLD,
    seed: int = TrimConfig.seed,
    eta0: float = 0.1,
    max_iter: int = TrimConfig.max_iter,
    tol: float = TrimConfig.tol,
) -> dict:
    """Structure change detection between two Gaussian MNs.

    Three conditions per dimension d: the untrimmed fit on contaminated
    data, the trimmed fit on the same data, and the untrimmed fit on
    clean data as a gold standard. Emits one recovered-difference heat
    map per condition at lam_heatmap and one support curve over
    lambda_grid, plus a summary JSON with the AUCs. Each of the three
    samples of a d is featurized once, and the heat-map fit and the
    support curve share the matrices.

    eta0 defaults to 0.1 here (not the TrimConfig default 1.0): a unit
    first step overshoots on quadratic features, and if no later iterate
    beats the delta=0 objective within the 50-iteration stop window the
    fit returns the zero vector.
    """
    out = Path(out_dir)
    ds = [int(d) for d in d_values]
    if not ds:
        raise ValueError("d_values must be nonempty")
    grid = validate_lambda_grid(lambda_grid)
    validate_threshold(threshold)
    config = {
        "experiment": "mnchange", "d_values": ",".join(str(d) for d in ds), "n": n,
        "n_changed": n_changed, "nu": nu, "lam_heatmap": lam_heatmap,
        "lambda_grid_size": len(grid), "lambda_grid_min": min(grid),
        "lambda_grid_max": max(grid), "outlier_value": outlier_value,
        "n_outliers": MN_OUTLIERS, "threshold": threshold, "seed": seed,
        "eta0": eta0, "max_iter": max_iter, "tol": tol,
    }
    base = TrimConfig(eta0=eta0, max_iter=max_iter, tol=tol, seed=seed, regularizer="l1", lam=lam_heatmap)
    # Every config, pair and sample is checked or drawn before the first
    # write, so bad arguments exit without leaving partial output.
    trimmed = replace(base, nu=nu)
    keep_count(nu, n + MN_OUTLIERS)
    samples = []
    for d, s in zip(ds, _child_seeds(seed, len(ds))):
        data_seeds = _child_seeds(s, 2)
        pair = gen_gaussian_mn_pair(d, n_changed, seed=s)
        xp_clean = sample_gaussian(pair.theta_p, n, seed=data_seeds[0])
        xq = sample_gaussian(pair.theta_q, n, seed=data_seeds[1])
        xp_out = inject_outliers(xp_clean, [outlier_value] * d, MN_OUTLIERS)
        samples.append((d, pair, xp_out, xp_clean, xq))

    fmap = PairwiseQuadraticFeatures()
    comment = _config_comment(config)
    aucs: dict[str, dict[str, float]] = {}
    for d, pair, xp_out, xp_clean, xq in samples:
        PhiQ = featurize(xq, fmap)
        phi_out = featurize(xp_out, fmap)
        conditions = [
            ("dre_outlier", phi_out, base),
            ("trdre_outlier", phi_out, trimmed),
            ("dre_gold", featurize(xp_clean, fmap), base),
        ]
        write_csv(out / f"delta_star_d{d}.csv", pair.delta_star, comment=comment)
        aucs[str(d)] = {}
        for name, PhiP, cfg in conditions:
            heat = fit_featurized(PhiP, PhiQ, cfg)
            curve = support_curve(PhiP, PhiQ, pair.delta_star, grid, cfg, threshold)
            write_csv(
                out / f"delta_hat_{name}_d{d}.csv",
                differential_precision_matrix(heat.delta_best, d),
                comment=comment,
            )
            write_csv(
                out / f"curve_{name}_d{d}.csv",
                [[lam, tnr, tpr] for tnr, tpr, lam in curve.points],
                header=["lambda", "tnr", "tpr"],
                comment=comment,
            )
            aucs[str(d)][name] = curve.auc

    summary = {"config": config, "auc": aucs}
    write_json(out / "summary.json", summary)
    return summary
