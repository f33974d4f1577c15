"""Reference experiments behind the `trdre experiment` subcommand.

Each runner writes plot-ready CSVs plus a summary JSON into an output
directory and returns the summary dict. Every file embeds the resolved
configuration (JSON as an object, CSV as a leading '#' comment line), and
reruns with identical arguments produce byte-identical files.

Independent fits inside a sweep can run on a small thread pool; set the
environment variable TRDRE_THREADS (default 1). Results are assembled in
grid order, so the thread count never changes the output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimator import TrimConfig, fit_featurized, fit_result_to_dict, kkt_check
from .evaluation import (
    differential_precision_matrix,
    ratio_curve_error,
    support_curve,
    true_gaussian_log_ratio,
)
from .ratio_model import LinearFeatures, PairwiseQuadraticFeatures, build_ratio_model, featurize
from .storage import write_csv, write_json, write_matrix_csv
from .synthetic import (
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
)

CURVE_GRID = np.linspace(-3.0, 3.0, 401)
ERROR_BAND = 2.0  # curve errors are reported on |x| <= ERROR_BAND


def thread_count() -> int:
    raw = os.environ.get("TRDRE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_indexed(tasks):
    """Evaluate a list of thunks, possibly on a thread pool, in order."""
    workers = thread_count()
    if workers == 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def _child_seeds(seed: int, count: int) -> list[int]:
    """Reproducible per-task seeds derived from one master seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)]


def _config_comment(cfg: dict) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def run_truncation1d(
    out_dir,
    n: int = 5000,
    nu: float = 0.5,
    seed: int = 42,
    eta0: float = 1.0,
    max_iter: int = 5000,
    tol: float = 1e-7,
) -> dict:
    """Fit a half-truncated denominator; the analytic target is 0.5."""
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

    model = build_ratio_model(np.array([res.delta_best[0]]), fmap, xq)
    truth = lambda x: true_gaussian_log_ratio(x, 0.0, -0.5)
    band = CURVE_GRID[np.abs(CURVE_GRID) <= ERROR_BAND]
    summary = {
        "config": config,
        "delta_hat": float(res.delta_best[0]),
        "delta_star": 0.5,
        "t_hat": res.t_hat,
        "objective_best": res.objective_best,
        "kept_fraction": len(res.kept_indices) / n,
        "converged": res.converged,
        "iterations_run": res.iterations_run,
        "curve_error_sup": ratio_curve_error(model, truth, band, "sup"),
        "curve_error_l2": ratio_curve_error(model, truth, band, "l2"),
        "kkt_weight_ok": report.weight_ok,
        "kkt_stationarity": report.stationarity,
    }
    write_json(out / "summary.json", summary)
    r_hat = np.exp(model.log_ratio_samples(CURVE_GRID[:, None]))
    r_true = np.exp(truth(CURVE_GRID))
    write_csv(
        out / "ratio_curve.csv",
        np.column_stack([CURVE_GRID, r_hat, r_true]),
        header=["x", "r_hat", "r_true"],
        comment=_config_comment(config),
    )
    write_json(out / "fit_result.json", fit_result_to_dict(res, cfg))
    return summary


def run_outlier1d(
    out_dir,
    n_good: int = 4000,
    n_out: int = 1000,
    n_q: int = 5000,
    b_grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    nu: float = 0.8,
    seed: int = 42,
    eta0: float = 1.0,
    max_iter: int = 5000,
    tol: float = 1e-7,
) -> dict:
    """Sweep the outlier location b; trimmed and untrimmed fits per b.

    The denominator is N(-0.75, 1), so a clean numerator would give a
    natural-parameter difference of 0.75 under identity features.
    """
    out = Path(out_dir)
    bs = [float(b) for b in b_grid]
    config = {
        "experiment": "outlier1d", "n_good": n_good, "n_out": n_out, "n_q": n_q,
        "b_grid": ",".join(repr(b) for b in bs), "nu": nu, "seed": seed,
        "eta0": eta0, "max_iter": max_iter, "tol": tol, "lambda": 0.0,
    }
    base = TrimConfig(nu=nu, eta0=eta0, max_iter=max_iter, tol=tol, seed=seed)
    seeds = _child_seeds(seed, len(bs))
    fmap = LinearFeatures()
    truth = lambda x: true_gaussian_log_ratio(x, 0.0, -0.75)
    band = CURVE_GRID[np.abs(CURVE_GRID) <= ERROR_BAND]

    def one(b: float, s: int):
        xp, xq = gen_outlier_1d(n_good, n_out, b, seed=s, n_q=n_q)
        PhiP, PhiQ = featurize(xp, fmap), featurize(xq, fmap)
        trimmed = fit_featurized(PhiP, PhiQ, base)
        plain = fit_featurized(PhiP, PhiQ, replace(base, nu=1.0))
        row = {"b": b}
        for tag, res in (("trdre", trimmed), ("kliep", plain)):
            model = build_ratio_model(np.array([res.delta_best[0]]), fmap, xq)
            row[f"delta_{tag}"] = float(res.delta_best[0])
            row[f"err_sup_{tag}"] = ratio_curve_error(model, truth, band, "sup")
            row[f"err_l2_{tag}"] = ratio_curve_error(model, truth, band, "l2")
        row["t_hat_trdre"] = trimmed.t_hat
        return row

    rows = _run_indexed([lambda b=b, s=s: one(b, s) for b, s in zip(bs, seeds)])
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
    summary = {"config": config, "delta_star": 0.75, "rows": rows}
    write_json(out / "summary.json", summary)
    return summary


DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4.0, 0.0, 30))


def run_mnchange(
    out_dir,
    d_values=(20, 25, 36),
    n: int = 500,
    n_changed: int = 20,
    nu: float = 0.9,
    lam_heatmap: float = 0.0938,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    outlier_value: float = 10.0,
    n_outliers: int = 1,
    threshold: float = 1e-6,
    seed: int = 42,
    eta0: float = 0.1,
    max_iter: int = 5000,
    tol: float = 1e-7,
) -> dict:
    """Structure change detection between two Gaussian MNs.

    Three conditions per dimension d: the untrimmed fit on contaminated
    data, the trimmed fit on the same data, and the untrimmed fit on
    clean data as a gold standard. Emits one recovered-difference heat
    map per condition at lam_heatmap and one support curve over
    lambda_grid, plus a summary JSON with the AUCs.

    eta0 defaults to 0.1 here (not the TrimConfig default 1.0): a unit
    first step overshoots on quadratic features, and if no later iterate
    beats the delta=0 objective within the 50-iteration stop window the
    fit returns the zero vector.
    """
    out = Path(out_dir)
    ds = [int(d) for d in d_values]
    grid = [float(v) for v in lambda_grid]
    config = {
        "experiment": "mnchange", "d_values": ",".join(str(d) for d in ds), "n": n,
        "n_changed": n_changed, "nu": nu, "lam_heatmap": lam_heatmap,
        "lambda_grid_size": len(grid), "lambda_grid_min": min(grid),
        "lambda_grid_max": max(grid), "outlier_value": outlier_value,
        "n_outliers": n_outliers, "threshold": threshold, "seed": seed,
        "eta0": eta0, "max_iter": max_iter, "tol": tol,
    }
    base = TrimConfig(eta0=eta0, max_iter=max_iter, tol=tol, seed=seed, regularizer="l1", lam=lam_heatmap)
    fmap = PairwiseQuadraticFeatures()
    comment = _config_comment(config)
    aucs: dict[str, dict[str, float]] = {}

    for d, s in zip(ds, _child_seeds(seed, len(ds))):
        data_seeds = _child_seeds(s, 2)
        pair = gen_gaussian_mn_pair(d, n_changed, seed=s)
        xp_clean = sample_gaussian(pair.theta_p, n, seed=data_seeds[0])
        xq = sample_gaussian(pair.theta_q, n, seed=data_seeds[1])
        xp_out = inject_outliers(xp_clean, [outlier_value] * d, n_outliers)
        conditions = [
            ("dre_outlier", xp_out, 1.0),
            ("trdre_outlier", xp_out, nu),
            ("dre_gold", xp_clean, 1.0),
        ]
        write_matrix_csv(out / f"delta_star_d{d}.csv", pair.delta_star, comment=comment)
        PhiQ = featurize(xq, fmap)

        def one(xp, cond_nu):
            heat = fit_featurized(featurize(xp, fmap), PhiQ, replace(base, nu=cond_nu))
            curve = support_curve(xp, xq, pair.delta_star, cond_nu, grid, base, threshold)
            return heat, curve

        results = _run_indexed(
            [lambda xp=xp, cn=cond_nu: one(xp, cn) for _, xp, cond_nu in conditions]
        )
        aucs[str(d)] = {}
        for (name, _, _), (heat, curve) in zip(conditions, results):
            write_matrix_csv(
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
