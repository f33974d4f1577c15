"""Reference experiments behind the `trdre experiment` subcommand.

Every sweep's fits run here, through estimator.fit_many, and the
evaluation module scores them. Each runner writes nothing: it returns
the summary dict and the texts of its plot-ready CSVs and summary JSON
as {file name: text}, which the CLI commits to an output directory, all
files or none. Every file embeds the resolved configuration (JSON as an
object, CSV as a leading '#' comment line), and reruns with identical
arguments produce byte-identical texts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .estimator import FitDivergedError, TrimConfig, fit_featurized, fit_many, fit_result_to_dict, kkt_check
from .evaluation import (
    DETECTION_THRESHOLD,
    differential_precision_matrix,
    ratio_curve_error,
    support_curve,
    true_gaussian_log_ratio,
    validate_lambda_grid,
)
from .ratio_model import LinearFeatures, PairwiseQuadraticFeatures, featurize, log_ratios
from .storage import csv_text, json_text
from .synthetic import (
    DEFAULT_SEED,
    OUTLIER_MU_Q,
    OUTLIER_N_GOOD,
    OUTLIER_N_OUT,
    OUTLIER_N_Q,
    TRUNCATION_MU_Q,
    TRUNCATION_N,
    TRUNCATION_NU,
    _child_seeds,
    check_mn_pair_args,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
)

CURVE_GRID = np.linspace(-3.0, 3.0, 401)
ERROR_BAND = 2.0  # curve errors are reported on |x| <= ERROR_BAND


def _config_comment(cfg: dict) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def run_truncation1d(
    n: int = TRUNCATION_N,
    nu: float = TRUNCATION_NU,
    seed: int = DEFAULT_SEED,
) -> tuple[dict, dict[str, str]]:
    """Fit a half-truncated denominator; the analytic target is
    -TRUNCATION_MU_Q = 0.5. Its one-column fit takes no loop settings: it
    is exact, or runs the loop at TrimConfig's defaults where that declines."""
    config = {"experiment": "truncation1d", "n": n, "nu": nu, "seed": seed, "lambda": 0.0}
    cfg = TrimConfig(nu=nu)
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
        "stop_reason": res.stop_reason,
        "iterations_run": res.iterations_run,
        "curve_error_sup": ratio_curve_error(lr_hat[band], lr_true[band], "sup"),
        "curve_error_l2": ratio_curve_error(lr_hat[band], lr_true[band], "l2"),
        "kkt_weight_ok": report.weight_ok,
        "kkt_stationarity": report.stationarity,
    }
    curve = np.column_stack([CURVE_GRID, np.exp(lr_hat), np.exp(lr_true)])
    return summary, {
        "summary.json": json_text(summary),
        "ratio_curve.csv": csv_text(curve, header=["x", "r_hat", "r_true"], comment=_config_comment(config)),
        "fit_result.json": json_text(fit_result_to_dict(res, cfg)),
    }


def run_outlier1d(
    n_good: int = OUTLIER_N_GOOD,
    n_out: int = OUTLIER_N_OUT,
    n_q: int = OUTLIER_N_Q,
    b_grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    nu: float = 0.8,
    seed: int = DEFAULT_SEED,
) -> tuple[dict, dict[str, str]]:
    """Sweep the outlier location b; trimmed and untrimmed fits per b.

    The denominator is n_q draws from N(OUTLIER_MU_Q, 1), OUTLIER_N_Q of
    them by default as in `trdre gen outlier1d`, so a clean numerator would
    give a natural-parameter difference of -OUTLIER_MU_Q = 0.75 under
    identity features. Every b's sample is drawn first, and the
    2 * len(b_grid) fits are one estimator.fit_many batch. Being
    one-column fits, they run in the calling process and take no loop
    settings, as in run_truncation1d. Each summary row records both fits'
    stop reasons: after "unbounded" a delta is a point on a ray, not an
    estimate.
    """
    bs = [float(b) for b in b_grid]
    if not bs:
        raise ValueError("b_grid must be nonempty")
    config = {
        "experiment": "outlier1d", "n_good": n_good, "n_out": n_out, "n_q": n_q,
        "b_grid": ",".join(repr(b) for b in bs), "nu": nu, "seed": seed, "lambda": 0.0,
    }
    base = TrimConfig(nu=nu)
    seeds = _child_seeds(seed, len(bs))
    fmap = LinearFeatures()
    band = CURVE_GRID[np.abs(CURVE_GRID) <= ERROR_BAND]
    phi_band = featurize(band, fmap)
    lr_true = true_gaussian_log_ratio(band, 0.0, OUTLIER_MU_Q)

    samples = []
    for b, s in zip(bs, seeds):
        xp, xq = gen_outlier_1d(n_good, n_out, b, seed=s, n_q=n_q)
        samples.append((featurize(xp, fmap), featurize(xq, fmap)))
    fits = fit_many([(PhiP, PhiQ, cfg) for PhiP, PhiQ in samples for cfg in (base, replace(base, nu=1.0))])

    rows = []
    for b, (_, PhiQ), trimmed, plain in zip(bs, samples, fits[0::2], fits[1::2]):
        row = {"b": b}
        for tag, res in (("trdre", trimmed), ("kliep", plain)):
            lr_hat = log_ratios(res.delta_best, phi_band, PhiQ)
            row[f"delta_{tag}"] = float(res.delta_best[0])
            row[f"err_sup_{tag}"] = ratio_curve_error(lr_hat, lr_true, "sup")
            row[f"err_l2_{tag}"] = ratio_curve_error(lr_hat, lr_true, "l2")
            row[f"stop_reason_{tag}"] = res.stop_reason
        row["t_hat_trdre"] = trimmed.t_hat
        rows.append(row)
    cols = [
        "b", "delta_trdre", "delta_kliep", "t_hat_trdre",
        "err_sup_trdre", "err_l2_trdre", "err_sup_kliep", "err_l2_kliep",
    ]
    summary = {"config": config, "delta_star": -OUTLIER_MU_Q, "rows": rows}
    table = csv_text([[row[c] for c in cols] for row in rows], header=cols, comment=_config_comment(config))
    return summary, {"results.csv": table, "summary.json": json_text(summary)}


_SCALING_PROTOCOLS = ("truncation", "outlier")


def error_scaling(protocol: str, n_grid, repeats: int, seed: int) -> list[tuple[int, float]]:
    """Mean |delta_hat - delta_star| of 1-D fits as sample size grows.

    protocol "truncation" draws gen_truncation_1d and fits at nu =
    TRUNCATION_NU (delta_star = -TRUNCATION_MU_Q, 0.5); "outlier"
    contaminates 20% of gen_outlier_1d's numerator with a uniform blob at
    b=6 and fits at nu=0.8 (delta_star = -OUTLIER_MU_Q, 0.75). Fits are
    exact, or run the loop at TrimConfig's defaults where that declines.
    Child seeds come from _child_seeds(seed), so the table is reproducible.
    All samples are drawn first, and the fits are one estimator.fit_many
    batch. Being one-column fits, they run in the calling process.
    """
    if protocol not in _SCALING_PROTOCOLS:
        raise ValueError(f"protocol must be one of {_SCALING_PROTOCOLS}, got {protocol!r}")
    ns = [int(n) for n in n_grid]
    if not ns or any(n < 2 for n in ns) or sorted(ns) != ns:
        raise ValueError("n_grid must be nonempty, ascending, with entries >= 2")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")

    seeds = _child_seeds(seed, len(ns) * repeats)
    fmap = LinearFeatures()
    target = -TRUNCATION_MU_Q if protocol == "truncation" else -OUTLIER_MU_Q
    tasks = []
    for i, n in enumerate(ns):
        for s in seeds[i * repeats:(i + 1) * repeats]:
            if protocol == "truncation":
                xp, xq = gen_truncation_1d(n, nu=TRUNCATION_NU, seed=s)
                nu = TRUNCATION_NU
            else:
                n_out = max(1, int(round(0.2 * n)))
                xp, xq = gen_outlier_1d(n - n_out, n_out, b=6.0, seed=s, n_q=n)
                nu = (n - n_out) / n
            tasks.append((featurize(xp, fmap), featurize(xq, fmap), TrimConfig(nu=nu)))
    errs = [abs(float(res.delta_best[0]) - target) for res in fit_many(tasks)]
    return [(n, float(np.mean(errs[i * repeats:(i + 1) * repeats]))) for i, n in enumerate(ns)]


DEFAULT_LAMBDA_GRID = tuple(float(v) for v in np.logspace(-4.0, 0.0, 30))
MN_OUTLIERS = 1  # copies of the outlier point appended to the contaminated numerator
MN_OUTLIER_VALUE = 10.0  # every coordinate of that point


def run_mnchange(
    d_values=(20, 25, 36),
    n: int = 500,
    n_changed: int = 20,
    nu: float = 0.9,
    lam_heatmap: float = 0.0938,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    seed: int = DEFAULT_SEED,
    eta0: float = 0.1,
    max_iter: int = TrimConfig.max_iter,
) -> tuple[dict, dict[str, str]]:
    """Structure change detection between two Gaussian MNs.

    Three conditions per dimension d: the untrimmed fit on contaminated
    data, the trimmed fit on the same data, and the untrimmed fit on
    clean data as a gold standard. The protocol is fixed: the contaminated
    numerator is the clean one plus MN_OUTLIERS copies of the point whose
    every coordinate is MN_OUTLIER_VALUE, and an edge counts as detected
    where |delta_hat| > evaluation.DETECTION_THRESHOLD. The config echo
    records both values. Emits one recovered-difference heat
    map per condition at lam_heatmap and one support curve over
    lambda_grid, plus a summary JSON with the AUCs and, per d and
    condition, the number of the 1 + len(lambda_grid) fits that stopped
    "unbounded" (no finite maximizer, see FitResult). Each of the three
    samples of a d is featurized once, and the heat-map fit and the
    support curve share the matrices. A d's three heat-map fits and then
    its three l1 paths over lambda_grid are one estimator.fit_many batch,
    so they may run on several CPUs; the files do not depend on it. A
    path fit that diverges is re-raised annotated with its lambda.

    eta0 defaults to 0.1 here (not the TrimConfig default 1.0): a unit
    first step overshoots on quadratic features, and if no later iterate
    beats the delta=0 objective within the 50-iteration stop window the
    fit returns the zero vector.
    """
    ds = [int(d) for d in d_values]
    d_text = ",".join(str(d) for d in ds)
    if not ds:
        raise ValueError("d_values must be nonempty")
    if len(set(ds)) < len(ds):
        # Each d names its files and its auc entry: a repeat would overwrite them.
        raise ValueError(f"d_values must not repeat a dimension, got {d_text}")
    grid = validate_lambda_grid(lambda_grid)
    if n_changed < 1:
        raise ValueError(f"n_changed must be at least 1 (TPR needs a changed edge), got {n_changed}")
    for d in ds:
        check_mn_pair_args(d, n_changed)
    config = {
        "experiment": "mnchange", "d_values": d_text, "n": n,
        "n_changed": n_changed, "nu": nu, "lam_heatmap": lam_heatmap,
        "lambda_grid_size": len(grid), "lambda_grid_min": min(grid),
        "lambda_grid_max": max(grid), "outlier_value": MN_OUTLIER_VALUE,
        "n_outliers": MN_OUTLIERS, "threshold": DETECTION_THRESHOLD, "seed": seed,
        "eta0": eta0, "max_iter": max_iter,
    }
    base = TrimConfig(eta0=eta0, max_iter=max_iter, regularizer="l1", lam=lam_heatmap)
    trimmed = replace(base, nu=nu)
    fmap = PairwiseQuadraticFeatures()
    comment = _config_comment(config)
    files: dict[str, str] = {}
    aucs: dict[str, dict[str, float]] = {}
    unbounded: dict[str, dict[str, int]] = {}
    for d, s in zip(ds, _child_seeds(seed, len(ds))):
        data_seeds = _child_seeds(s, 2)
        pair = gen_gaussian_mn_pair(d, n_changed, seed=s)
        xp_clean = sample_gaussian(pair.theta_p, n, seed=data_seeds[0])
        xq = sample_gaussian(pair.theta_q, n, seed=data_seeds[1])
        xp_out = inject_outliers(xp_clean, [MN_OUTLIER_VALUE] * d, MN_OUTLIERS)
        PhiQ = featurize(xq, fmap)
        phi_out = featurize(xp_out, fmap)
        conditions = [
            ("dre_outlier", phi_out, base),
            ("trdre_outlier", phi_out, trimmed),
            ("dre_gold", featurize(xp_clean, fmap), base),
        ]
        files[f"delta_star_d{d}.csv"] = csv_text(pair.delta_star, comment=comment)
        aucs[str(d)], unbounded[str(d)] = {}, {}
        tasks = [(PhiP, PhiQ, cfg) for _, PhiP, cfg in conditions]
        tasks += [(PhiP, PhiQ, replace(cfg, lam=lam)) for _, PhiP, cfg in conditions for lam in grid]
        try:
            fits = fit_many(tasks)
        except FitDivergedError as exc:
            path_index = exc.task_index - len(conditions)
            if path_index < 0:
                raise
            raise RuntimeError(f"fit failed at lambda={grid[path_index % len(grid)]}: {exc}") from exc
        heats, paths = fits[:len(conditions)], fits[len(conditions):]
        for i, ((name, _, _), heat) in enumerate(zip(conditions, heats)):
            path = paths[i * len(grid):(i + 1) * len(grid)]
            rows, aucs[str(d)][name] = support_curve(path, grid, pair.delta_star)
            files[f"delta_hat_{name}_d{d}.csv"] = csv_text(
                differential_precision_matrix(heat.delta_best, d), comment=comment
            )
            files[f"curve_{name}_d{d}.csv"] = csv_text(rows, header=["lambda", "tnr", "tpr"], comment=comment)
            unbounded[str(d)][name] = sum(res.stop_reason == "unbounded" for res in [heat, *path])

    summary = {"config": config, "auc": aucs, "unbounded_fits": unbounded}
    files["summary.json"] = json_text(summary)
    return summary, files
