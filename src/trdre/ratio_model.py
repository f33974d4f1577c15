"""Log-linear density ratio model with empirical self-normalization.

The ratio of two unknown densities p and q is modelled as

    rhat(x; delta) = exp(<delta, f(x)> - log Nhat(delta)),
    Nhat(delta)    = (1/n_q) sum_j exp <delta, f(x_q_j)>,

where the normalizer is computed over a sample drawn from q, so the
empirical mean of rhat over that sample is exactly 1 regardless of delta.
Three feature transforms f are provided: identity, pairwise products
x_i * x_j over the upper triangle (i <= j, row-major), and Gaussian
kernels centred on a fixed basis set.

Every normalizer/softmax computation subtracts the maximum exponent
before exponentiating (log-sum-exp), so inner products of magnitude up
to several hundred are handled without overflow.

Softmax weights that underflow below the smallest normal double
(np.finfo(float).tiny) are flushed to exactly 0. Subnormal operands make
the PhiQ.T @ softmax matvec of every ascent step several times slower
(about 8x, measured on x86-64 with OpenBLAS), while the mass they carry,
under n_q * tiny in total, cannot change a sum of normal-sized terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist


def as_sample_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and return a 2-D float sample matrix (rows are samples).

    1-D input is treated as a single column of scalar samples. Empty or
    non-finite input is rejected.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D sample matrix, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{name} must contain at least one sample and one column, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


@dataclass(frozen=True)
class LinearFeatures:
    """Identity features f(x) = x."""

    def output_dim(self, d: int) -> int:
        return d

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.array(X, dtype=float)


@dataclass(frozen=True)
class PairwiseQuadraticFeatures:
    """All pairwise products x_i * x_j for i <= j, row-major upper triangle.

    For d input coordinates the output has d*(d+1)/2 features ordered
    (1,1), (1,2), ..., (1,d), (2,2), ..., (d,d).
    """

    def output_dim(self, d: int) -> int:
        return d * (d + 1) // 2

    def transform(self, X: np.ndarray) -> np.ndarray:
        d = X.shape[1]
        rows, cols = np.triu_indices(d)
        return X[:, rows] * X[:, cols]


def median_pairwise_distance(points: np.ndarray) -> float:
    """Median Euclidean distance between distinct rows (median heuristic).

    Falls back to 1.0 when there are fewer than two rows or all rows
    coincide, so the result is always a valid bandwidth.
    """
    points = as_sample_matrix(points, "points")
    if points.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(points)))
    return med if med > 0.0 else 1.0


@dataclass(frozen=True)
class GaussianKernelFeatures:
    """Gaussian kernels f_k(x) = exp(-||x - b_k||^2 / (2 * bandwidth^2)).

    ``basis`` holds one centre per row. A missing bandwidth is filled in
    with the median pairwise distance of the basis.
    """

    basis: np.ndarray
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        basis = as_sample_matrix(self.basis, "basis")
        bw = self.bandwidth
        if bw is None:
            bw = median_pairwise_distance(basis)
        bw = float(bw)
        if not np.isfinite(bw) or bw <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {bw}")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "bandwidth", bw)

    def output_dim(self, d: int) -> int:
        return self.basis.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.basis.shape[1]:
            raise ValueError(
                f"sample dimension {X.shape[1]} does not match basis dimension {self.basis.shape[1]}"
            )
        # ||x - b||^2 expanded; clip tiny negatives from cancellation.
        sq = (
            np.sum(X**2, axis=1)[:, None]
            + np.sum(self.basis**2, axis=1)[None, :]
            - 2.0 * (X @ self.basis.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.bandwidth**2))


FeatureMap = LinearFeatures | PairwiseQuadraticFeatures | GaussianKernelFeatures


def feature_map_from_name(
    name: str, basis: np.ndarray | None = None, bandwidth: float | None = None
) -> FeatureMap:
    """Build a feature map from its CLI name: linear, quadratic, or rbf."""
    if name == "linear":
        return LinearFeatures()
    if name == "quadratic":
        return PairwiseQuadraticFeatures()
    if name == "rbf":
        if basis is None:
            raise ValueError("rbf features need a basis set")
        return GaussianKernelFeatures(basis=basis, bandwidth=bandwidth)
    raise ValueError(f"unknown feature map {name!r} (expected linear, quadratic, or rbf)")


def featurize(X, feature_map: FeatureMap) -> np.ndarray:
    """Apply a feature map row-wise: (n, d) samples -> (n, m) features."""
    X = as_sample_matrix(X)
    Phi = feature_map.transform(X)
    if not np.all(np.isfinite(Phi)):
        raise ValueError("featurization produced non-finite values")
    return Phi


_TINY = np.finfo(float).tiny


def _log_mean_exp_and_softmax(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (log mean exp(z), softmax(z)) with max subtraction.

    Softmax weights below the smallest normal double are set to exactly
    0 (see the module docstring).
    """
    m = float(np.max(z))
    e = np.exp(z - m)
    s = float(np.sum(e))
    w = e / s
    w /= w.sum()
    w[w < _TINY] = 0.0
    return m + np.log(s / z.size), w


def log_normalizer(delta: np.ndarray, PhiQ: np.ndarray) -> float:
    """log of the empirical normalizer: log mean_j exp <delta, PhiQ_j>."""
    delta = np.asarray(delta, dtype=float)
    PhiQ = np.asarray(PhiQ, dtype=float)
    if PhiQ.ndim != 2 or PhiQ.shape[0] < 1:
        raise ValueError("PhiQ must be a nonempty 2-D feature matrix")
    if delta.shape != (PhiQ.shape[1],):
        raise ValueError(f"delta has shape {delta.shape}, expected ({PhiQ.shape[1]},)")
    value, _ = _log_mean_exp_and_softmax(PhiQ @ delta)
    return value


def softmax_weights(delta: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """softmax_j(<delta, PhiQ_j>): nonnegative, sums to 1, overflow-safe.

    Weights below np.finfo(float).tiny are returned as exact zeros, so no
    weight is subnormal.
    """
    delta = np.asarray(delta, dtype=float)
    PhiQ = np.asarray(PhiQ, dtype=float)
    if PhiQ.ndim != 2 or PhiQ.shape[0] < 1:
        raise ValueError("PhiQ must be a nonempty 2-D feature matrix")
    _, w = _log_mean_exp_and_softmax(PhiQ @ delta)
    return w


def log_ratios(delta: np.ndarray, Phi: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """Log density ratio at each row of Phi, normalized over PhiQ."""
    logN = log_normalizer(delta, PhiQ)
    return Phi @ np.asarray(delta, dtype=float) - logN


@dataclass(frozen=True)
class RatioModel:
    """A fitted ratio rhat(x) = exp(<delta, f(x)> - log_norm).

    The normalizer is cached for the (delta, X_q) pair the model was
    built from; building a model with a new delta recomputes it.
    """

    delta: np.ndarray
    features: FeatureMap
    log_norm: float

    def log_ratio(self, phi: np.ndarray) -> np.ndarray | float:
        """Log ratio at a single feature vector or a feature matrix."""
        phi = np.asarray(phi, dtype=float)
        if phi.ndim == 1:
            return float(phi @ self.delta - self.log_norm)
        return phi @ self.delta - self.log_norm

    def log_ratio_samples(self, X) -> np.ndarray:
        """Featurize raw samples, then evaluate the log ratio."""
        return featurize(X, self.features) @ self.delta - self.log_norm


def build_ratio_model(delta: np.ndarray, feature_map: FeatureMap, Xq) -> RatioModel:
    """Assemble a RatioModel, computing the normalizer over Xq."""
    delta = np.asarray(delta, dtype=float)
    PhiQ = featurize(Xq, feature_map)
    return RatioModel(delta=delta.copy(), features=feature_map, log_norm=log_normalizer(delta, PhiQ))
