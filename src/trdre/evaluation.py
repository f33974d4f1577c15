"""Evaluation utilities: analytic truths, support recovery, curve errors.

Every metric scores what the caller hands it and runs no fit:
support_curve the fits of an l1 path, ratio_curve_error the fitted and
true log-ratios on one grid (the fitted ones from ratio_model.log_ratios).
"""

from __future__ import annotations

import numpy as np

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
    if not (0.0 <= threshold < np.inf):
        raise ValueError(f"threshold must be a finite nonnegative real, got {threshold}")
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


def support_curve(fits, lambda_grid, delta_star: np.ndarray) -> tuple[list[tuple[float, float, float]], float]:
    """Score support recovery along an ascending l1 penalty grid: one
    (lambda, tnr, tpr) row per grid point, the curve CSV's columns, and
    the area under the TNR-TPR curve.

    fits[i] is the l1 fit at lambda_grid[i] on pairwise quadratic features
    (PairwiseQuadraticFeatures), so each fitted delta reads as a precision
    difference. Each is scored against delta_star at DETECTION_THRESHOLD.
    """
    grid = validate_lambda_grid(lambda_grid)
    fits = list(fits)
    if len(fits) != len(grid):
        raise ValueError(f"got {len(fits)} fits for {len(grid)} lambdas")
    d = np.asarray(delta_star).shape[0]
    rows = []
    for lam, res in zip(grid, fits):
        tpr, tnr = support_metrics(differential_precision_matrix(res.delta_best, d), delta_star, DETECTION_THRESHOLD)
        rows.append((lam, tnr, tpr))
    return rows, auc_tnr_tpr([(tnr, tpr) for _, tnr, tpr in rows])


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
