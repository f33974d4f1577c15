"""Small exact solvers used to cross-check the main estimator.

On one feature column the kept set is fixed on each half-line (delta > 0
keeps the k smallest entries of PhiP, delta < 0 the k largest), so there
the objective is smooth and concave, and maxmin_1d bisects its monotone
derivative. It shares only ratio_model's log-mean-exp/softmax with the loop.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .estimator import TrimConfig, _reg_value, keep_count
from .ratio_model import _log_mean_exp_and_softmax, as_sample_matrix

_MAX_ENUM = 12


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


def maxmin_1d(PhiP, PhiQ, cfg: TrimConfig) -> tuple[float, float]:
    """(delta, value) at the maximum of the trimmed objective on one
    feature column, delta to adjacent floats; (+-inf, inf) where no finite
    maximizer exists and the objective grows without bound that way."""
    p, q = as_sample_matrix(PhiP, "PhiP"), as_sample_matrix(PhiQ, "PhiQ")
    if p.shape[1] != 1 or q.shape[1] != 1:
        raise ValueError(f"maxmin_1d needs one feature column, got {p.shape[1]} and {q.shape[1]}")
    p, q = np.sort(p[:, 0]), q[:, 0]
    k = keep_count(cfg.nu, p.size)
    nu_eff = k / p.size
    l1, l2 = (cfg.lam, 0.0) if cfg.regularizer == "l1" else (0.0, cfg.lam)
    # delta = s * t with t >= 0 keeps the k smallest entries of s * PhiP.
    for s, a, qs in ((1.0, p[:k].sum() / p.size, q), (-1.0, -p[-k:].sum() / p.size, -q)):
        dq = qs - qs.max()
        # The slope in t tends to limit without l2sq, and equals it once the softmax saturates.
        limit = a - nu_eff * qs.max() - l1

        def slope(t: float) -> float:
            _, sm = _log_mean_exp_and_softmax(t * dq)
            return limit - nu_eff * float(sm @ dq) - 2.0 * l2 * t

        if slope(0.0) <= 0.0:
            continue
        if l2 == 0.0 and limit >= 0.0:
            return s * math.inf, math.inf
        # Double the bracket from 1 while its top is open, then bisect to adjacent floats.
        lo, hi, mid = 0.0, math.inf, 1.0
        while lo < mid < hi:
            lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
            mid = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        lme, _ = _log_mean_exp_and_softmax(hi * qs)
        return s * hi, hi * a - nu_eff * lme - cfg.lam * _reg_value(np.array([hi]), cfg)
    return 0.0, 0.0
