"""Small brute-force solvers used to cross-check the main estimator."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .estimator import keep_count
from .ratio_model import as_sample_matrix

_MAX_ENUM = 12
_GRID_LO, _GRID_HI = -5.0, 5.0  # delta range searched by brute_force_maxmin_1d


def enumerate_weight_vertices(n_p: int, nu: float) -> list[np.ndarray]:
    """All vertices of {w in [0, 1/n_p]^n_p : sum w = k_keep/n_p}.

    Each vertex puts weight 1/n_p on one k_keep-subset of indices. Guarded
    to n_p <= 12 since the count grows as C(n_p, k_keep).
    """
    if n_p < 1 or n_p > _MAX_ENUM:
        raise ValueError(f"n_p must lie in [1, {_MAX_ENUM}] for enumeration, got {n_p}")
    k = keep_count(nu, n_p)
    vertices = []
    for combo in itertools.combinations(range(n_p), k):
        w = np.zeros(n_p)
        w[list(combo)] = 1.0 / n_p
        vertices.append(w)
    return vertices


def brute_force_maxmin_1d(
    Xp,
    Xq,
    nu: float,
    grid_step: float = 1e-3,
) -> tuple[float, float]:
    """Grid-search the scalar max-min trimmed objective with f(x) = x.

    The grid spans delta in [-5, 5] with spacing grid_step, which covers
    the analytic targets of the 1-D protocols (0.5 and 0.75). For each
    grid delta the inner minimum is evaluated exactly as the mean of the
    k_keep smallest log-ratios over 1/n_p-weighted samples. Returns
    (argmax delta, max value). Unregularized.
    """
    xp = as_sample_matrix(Xp, "Xp").ravel()
    xq = as_sample_matrix(Xq, "Xq").ravel()
    n_p = xp.size
    k = keep_count(nu, n_p)
    n_grid = int(round((_GRID_HI - _GRID_LO) / grid_step)) + 1
    grid = np.linspace(_GRID_LO, _GRID_HI, n_grid)

    best_val = -math.inf
    best_delta = grid[0]
    block = 256
    for start in range(0, n_grid, block):
        g = grid[start : start + block]
        zq = g[:, None] * xq[None, :]
        mx = zq.max(axis=1, keepdims=True)
        logN = mx[:, 0] + np.log(np.mean(np.exp(zq - mx), axis=1))
        lr = g[:, None] * xp[None, :] - logN[:, None]
        vals = np.sort(lr, axis=1)[:, :k].sum(axis=1) / n_p
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_delta = float(g[j])
    return best_delta, best_val
