"""Synthetic data generators for the reference experiments.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so any
function called twice with the same seed returns identical samples.

scipy is imported inside the three functions that need it
(sample_gaussian: solve_triangular; sample_truncated_gaussian and
gen_truncation_1d: ndtr, ndtri), not at module level, so importing
trdre loads numpy alone and only the Gaussian MN and truncation
generators pay scipy's import time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratio_model import as_sample_matrix

_MAX_PD_TRIES = 100

# The two 1-D protocols draw Xp's inliers from N(0, 1) and Xq from
# N(mu_q, 1), so under identity features the analytic natural-parameter
# difference is delta_star = -mu_q. The sizes are the paper-scale
# defaults of the 1-D experiments and of `trdre gen`.
OUTLIER_MU_Q = -0.75
OUTLIER_N_GOOD, OUTLIER_N_OUT = 4000, 1000
TRUNCATION_MU_Q = -0.5
TRUNCATION_N, TRUNCATION_NU = 5000, 0.5


@dataclass(frozen=True)
class GaussianMNPair:
    """A pair of Gaussian MN precision matrices differing on a few edges.

    delta_star = theta_p - theta_q is nonzero exactly on the changed
    off-diagonal entries; changed_edges lists them as (i, j) with i < j.
    """

    theta_p: np.ndarray
    theta_q: np.ndarray
    delta_star: np.ndarray
    changed_edges: list[tuple[int, int]]


def gen_gaussian_mn_pair(d: int, n_changed: int, seed: int) -> GaussianMNPair:
    """Random sparse precision pair (theta_p, theta_q), both checked PD.

    theta_q gets each off-diagonal edge with probability 2/d and weight
    +/-0.3, and diagonal entries equal to the row's off-diagonal l1 mass
    plus 0.5 (diagonally dominant, hence PD). theta_p copies theta_q and
    perturbs n_changed randomly chosen pairs (existing or new edges) by
    +/-0.3, leaving the diagonal untouched; the construction is resampled
    until theta_p is also PD (at most 100 tries).
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    n_pairs = d * (d - 1) // 2
    if not (0 <= n_changed <= n_pairs):
        raise ValueError(f"n_changed must lie in [0, {n_pairs}] for d={d}, got {n_changed}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(d, k=1)

    for _ in range(_MAX_PD_TRIES):
        present = rng.random(n_pairs) < 2.0 / d
        weights = rng.choice([-0.3, 0.3], size=n_pairs) * present
        theta_q = np.zeros((d, d))
        theta_q[rows, cols] = weights
        theta_q += theta_q.T
        theta_q[np.diag_indices(d)] = np.sum(np.abs(theta_q), axis=1) + 0.5

        chosen = rng.choice(n_pairs, size=n_changed, replace=False)
        signs = rng.choice([-0.3, 0.3], size=n_changed)
        theta_p = theta_q.copy()
        for idx, s in zip(chosen, signs):
            i, j = int(rows[idx]), int(cols[idx])
            theta_p[i, j] += s
            theta_p[j, i] += s

        if np.min(np.linalg.eigvalsh(theta_p)) > 0.0 and np.min(np.linalg.eigvalsh(theta_q)) > 0.0:
            edges = sorted((int(rows[idx]), int(cols[idx])) for idx in chosen)
            return GaussianMNPair(
                theta_p=theta_p,
                theta_q=theta_q,
                delta_star=theta_p - theta_q,
                changed_edges=edges,
            )
    raise RuntimeError(f"no positive definite pair found in {_MAX_PD_TRIES} tries (d={d})")


def sample_gaussian(precision: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw n samples from N(0, precision^{-1}) via the Cholesky factor.

    With precision = L L^T, solving L^T z = eps for standard normal eps
    gives Cov(z) = precision^{-1} without forming the inverse.
    """
    from scipy.linalg import solve_triangular

    P = np.asarray(precision, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"precision must be square, got shape {P.shape}")
    if not np.allclose(P, P.T, rtol=1e-10, atol=1e-12):
        raise ValueError("precision matrix is not symmetric")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    try:
        L = np.linalg.cholesky((P + P.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ValueError("precision matrix is not positive definite") from exc
    eps = np.random.default_rng(seed).standard_normal((P.shape[0], n))
    return solve_triangular(L.T, eps, lower=False).T


def inject_outliers(X, point, count: int) -> np.ndarray:
    """Append `count` copies of a fixed point to a sample matrix."""
    X = as_sample_matrix(X)
    point = np.asarray(point, dtype=float).ravel()
    if point.size != X.shape[1]:
        raise ValueError(f"outlier has dimension {point.size}, samples have {X.shape[1]}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return X.copy()
    return np.vstack([X, np.tile(point, (count, 1))])


def gen_outlier_1d(
    n_good: int, n_out: int, b: float, seed: int, n_q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Contaminated 1-D pair: Xp mixes inliers with a uniform blob at b.

    Xp shuffles n_good draws from N(0, 1) with n_out draws from
    U(b - 0.4, b + 0.4); Xq holds draws from N(OUTLIER_MU_Q, 1) =
    N(-0.75, 1), n_good of them unless n_q is given. Against this q the
    clean numerator has analytic natural-parameter difference
    -OUTLIER_MU_Q = 0.75 under identity features.
    """
    if n_good < 1 or n_out < 0:
        raise ValueError("need n_good >= 1 and n_out >= 0")
    if n_q is not None and n_q < 1:
        raise ValueError(f"n_q must be at least 1, got {n_q}")
    if not np.isfinite(b):
        raise ValueError(f"outlier location b must be finite, got {b}")
    rng = np.random.default_rng(seed)
    good = rng.standard_normal(n_good)
    bad = rng.uniform(b - 0.4, b + 0.4, size=n_out)
    xp = rng.permutation(np.concatenate([good, bad]))
    xq = rng.normal(OUTLIER_MU_Q, 1.0, size=n_good if n_q is None else n_q)
    return xp[:, None], xq[:, None]


def sample_truncated_gaussian(
    mu: float, sigma2: float, upper: float, n: int, seed: int
) -> np.ndarray:
    """Inverse-CDF sampler for N(mu, sigma2) truncated to (-inf, upper].

    Maps u ~ U(0, 1) through x = mu + sigma * Phi^{-1}((1 - u) * F) with
    F = Phi((upper - mu) / sigma); the (1 - u) form keeps the quantile
    argument strictly positive. Raises when F underflows to zero (upper
    too many sigmas below mu to represent).
    """
    from scipy.special import ndtr, ndtri

    if sigma2 <= 0.0 or not np.isfinite(sigma2):
        raise ValueError(f"sigma2 must be a positive real, got {sigma2}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    sigma = float(np.sqrt(sigma2))
    F = float(ndtr((upper - mu) / sigma))
    if F <= 0.0:
        raise ValueError(f"truncation mass underflowed to 0 for upper={upper}")
    u = np.random.default_rng(seed).random(n)
    x = mu + sigma * ndtri((1.0 - u) * F)
    return np.minimum(x, upper)[:, None]


def gen_truncation_1d(n: int, nu: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncation pair: Xp ~ N(0,1), Xq ~ N(TRUNCATION_MU_Q, 1) =
    N(-0.5, 1) cut at its nu-quantile measured under Xp's distribution
    (upper = Phi^{-1}(nu)).

    Xq uses seed + 1 so the two samples are independent. The analytic
    natural-parameter difference under identity features is
    -TRUNCATION_MU_Q = 0.5.
    """
    from scipy.special import ndtri

    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1) for a proper truncation, got {nu}")
    xp = np.random.default_rng(seed).standard_normal(n)[:, None]
    upper = float(ndtri(nu))
    xq = sample_truncated_gaussian(TRUNCATION_MU_Q, 1.0, upper, n, seed + 1)
    return xp, xq
