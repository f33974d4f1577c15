"""Brute-force oracle used to cross-check the main estimator.

enumerate_weight_vertices lists every vertex of the inner problem's weight
polytope for a tiny n_p, so a test can take the inner minimum over all of
them and compare it with the estimator's assign_weights.
"""

from __future__ import annotations

import itertools

import numpy as np

from .estimator import keep_count

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
