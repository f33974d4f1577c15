"""Evaluation utilities: analytic truths, support recovery, error scaling.

The metrics take what the caller already holds: support_curve the
feature matrices of both samples, ratio_curve_error the fitted and true
log-ratios on one grid (the fitted ones from ratio_model.log_ratios).
Nothing here featurizes raw samples except error_scaling, which draws
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import FitDivergedError, TrimConfig, fit_many
from .ratio_model import LinearFeatures, featurize
from .synthetic import OUTLIER_MU_Q, TRUNCATION_MU_Q, TRUNCATION_NU, _child_seeds, gen_outlier_1d, gen_truncation_1d

DETECTION_THRESHOLD = 1e-6  # |delta_hat| above it counts as a detected edge


def true_gaussian_log_ratio(x, mu_p: float, mu_q: float):
    """log N(mu_p, 1)(x) / N(mu_q, 1)(x) = (mu_p - mu_q) x + (mu_q^2 - mu_p^2)/2."""
    x = np.asarray(x, dtype=float)
    out = (mu_p - mu_q) * x + (mu_q**2 - mu_p**2) / 2.0
    return float(out) if out.ndim == 0 else out


def differential_precision_matrix(delta: np.ndarray, d: int) -> np.ndarray:
    """Recover the symmetric precision difference from quadratic-feature
    coefficients.

    The fitted exponent sum_{i<=j} delta_ij x_i x_j estimates
    log p/q = -1/2 x^T D x + c with D = theta_p - theta_q, so D has
    diagonal -2 delta_ii and off-diagonal entries -delta_ij placed
    symmetrically: D = -(A + A^T) with A the upper triangle of delta.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (d * (d + 1) // 2,):
        raise ValueError(f"delta has shape {delta.shape}, expected ({d * (d + 1) // 2},)")
    A = np.zeros((d, d))
    A[np.triu_indices(d)] = delta
    return -(A + A.T)


def support_metrics(
    delta_hat: np.ndarray, delta_star: np.ndarray, threshold: float
) -> tuple[float, float]:
    """(TPR, TNR) of |delta_hat| > threshold against delta_star != 0.

    Both matrices are compared on the upper triangle including the
    diagonal. Degenerate truths (no nonzeros, or no zeros) are rejected
    since the corresponding rate is undefined, and so is a threshold that
    is not a finite nonnegative real (NaN detects nothing, a negative
    value everything).
    """
    validate_threshold(threshold)
    dh = np.asarray(delta_hat, dtype=float)
    ds = np.asarray(delta_star, dtype=float)
    if dh.shape != ds.shape or dh.ndim != 2 or dh.shape[0] != dh.shape[1]:
        raise ValueError(f"matrices must be square and same shape, got {dh.shape} vs {ds.shape}")
    iu = np.triu_indices(dh.shape[0])
    detected = np.abs(dh[iu]) > threshold
    truth = ds[iu] != 0.0
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0:
        raise ValueError("delta_star has no nonzero entries; TPR is undefined")
    if n_neg == 0:
        raise ValueError("delta_star has no zero entries; TNR is undefined")
    tpr = float(np.sum(detected & truth)) / n_pos
    tnr = float(np.sum(~detected & ~truth)) / n_neg
    return tpr, tnr


def auc_tnr_tpr(points) -> float:
    """Trapezoidal area under a TNR-TPR curve.

    The curve is closed with anchors (tnr=0, tpr=1) and (tnr=1, tpr=0)
    before integrating over TNR, so the result lies in [0, 1] and is
    comparable across methods.
    """
    pts = [(0.0, 1.0), (1.0, 0.0)] + [(float(t), float(p)) for t, p in points]
    pts.sort(key=lambda tp: (tp[0], -tp[1]))
    xs = np.array([t for t, _ in pts])
    ys = np.array([p for _, p in pts])
    return float(np.trapezoid(ys, xs))


@dataclass(frozen=True)
class SupportCurve:
    """Sweep results: one (tnr, tpr, lambda) triple and one fit stop
    reason per grid point."""

    points: tuple[tuple[float, float, float], ...]
    auc: float
    stop_reasons: tuple[str, ...]


def validate_lambda_grid(lambda_grid) -> list[float]:
    """The penalty grid as floats; raises ValueError unless it is
    finite, nonempty, positive and ascending."""
    grid = [float(v) for v in lambda_grid]
    bad = [v for v in grid if not np.isfinite(v)]
    if bad:
        raise ValueError(f"lambda_grid must be finite, got {bad[0]}")
    if not grid or any(v <= 0.0 for v in grid) or sorted(grid) != grid:
        raise ValueError("lambda_grid must be nonempty, positive, and ascending")
    return grid


def validate_threshold(threshold: float) -> None:
    """Raise ValueError unless the detection threshold is finite and >= 0."""
    if not (0.0 <= threshold < np.inf):
        raise ValueError(f"threshold must be a finite nonnegative real, got {threshold}")


def support_curve(
    PhiP: np.ndarray,
    PhiQ: np.ndarray,
    delta_star: np.ndarray,
    lambda_grid,
    cfg: TrimConfig,
    threshold: float = DETECTION_THRESHOLD,
) -> SupportCurve:
    """Trace support recovery across an ascending l1 penalty grid.

    PhiP and PhiQ are the pairwise quadratic features of the two samples
    (PairwiseQuadraticFeatures), so each fitted delta reads as a
    precision difference. Each grid point runs one l1 fit and scores the
    recovered precision difference against delta_star at the fixed
    detection threshold. Each fit keeps cfg's nu, eta0 and stopping rule,
    and its stop reason is recorded. The fits are one estimator.fit_many
    batch, so they may run on several CPUs; the curve does not depend on
    it. A diverged fit is re-raised annotated with the first lambda, in
    grid order, at which one occurred.
    """
    grid = validate_lambda_grid(lambda_grid)
    d = np.asarray(delta_star).shape[0]

    try:
        fits = fit_many([(PhiP, PhiQ, replace(cfg, lam=lam, regularizer="l1")) for lam in grid])
    except FitDivergedError as exc:
        raise RuntimeError(f"fit failed at lambda={grid[exc.task_index]}: {exc}") from exc
    points, reasons = [], []
    for lam, res in zip(grid, fits):
        dh = differential_precision_matrix(res.delta_best, d)
        tpr, tnr = support_metrics(dh, delta_star, threshold)
        points.append((tnr, tpr, lam))
        reasons.append(res.stop_reason)
    return SupportCurve(
        points=tuple(points), auc=auc_tnr_tpr([(t, p) for t, p, _ in points]), stop_reasons=tuple(reasons)
    )


def ratio_curve_error(log_ratio_hat, log_ratio_true, norm: str = "sup") -> float:
    """Distance between fitted and true ratio curves on one grid.

    Both arguments are log-ratios at the same grid points; the comparison
    happens on the ratio scale. norm is "sup" (max absolute difference)
    or "l2" (root mean square difference).
    """
    lr_hat = np.asarray(log_ratio_hat, dtype=float).ravel()
    lr_true = np.asarray(log_ratio_true, dtype=float).ravel()
    if lr_hat.size < 1 or lr_hat.shape != lr_true.shape:
        raise ValueError(
            f"log-ratios must be nonempty and of equal size, got {lr_hat.size} and {lr_true.size}"
        )
    diff = np.exp(lr_hat) - np.exp(lr_true)
    if norm == "sup":
        return float(np.max(np.abs(diff)))
    if norm == "l2":
        return float(np.sqrt(np.mean(diff**2)))
    raise ValueError(f"norm must be 'sup' or 'l2', got {norm!r}")


_SCALING_PROTOCOLS = ("truncation", "outlier")


def error_scaling(protocol: str, n_grid, repeats: int, seed: int) -> list[tuple[int, float]]:
    """Mean |delta_hat - delta_star| of 1-D fits as sample size grows.

    protocol "truncation" draws gen_truncation_1d and fits at nu =
    TRUNCATION_NU (delta_star = -TRUNCATION_MU_Q, 0.5); "outlier"
    contaminates 20% of gen_outlier_1d's numerator with a uniform blob at
    b=6 and fits at nu=0.8 (delta_star = -OUTLIER_MU_Q, 0.75). Each fit
    runs at most 2000 iterations. Child seeds come from _child_seeds(seed),
    so the whole table is reproducible. All samples are drawn first, and
    the fits are one estimator.fit_many batch, which may run them on
    several CPUs without changing the table.
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
            tasks.append((featurize(xp, fmap), featurize(xq, fmap), TrimConfig(nu=nu, max_iter=2000)))
    errs = [abs(float(res.delta_best[0]) - target) for res in fit_many(tasks)]
    return [(n, float(np.mean(errs[i * repeats:(i + 1) * repeats]))) for i, n in enumerate(ns)]
