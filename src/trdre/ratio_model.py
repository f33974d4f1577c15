"""Log-linear density ratio model with empirical self-normalization.

The ratio of two unknown densities p and q is modelled as

    rhat(x; delta) = exp(<delta, f(x)> - log Nhat(delta)),
    Nhat(delta)    = (1/n_q) sum_j exp <delta, f(x_q_j)>,

where the normalizer is computed over a sample drawn from q, so the
empirical mean of rhat over that sample is exactly 1 regardless of delta.
Three feature transforms f are provided: identity, pairwise products
x_i * x_j over the upper triangle (i <= j, row-major), and Gaussian
kernels centred on a fixed basis set.

A fitted ratio is the pair (delta, PhiQ) and nothing more: log_ratios
evaluates log rhat at the rows of any feature matrix, so new points are
featurized once with the fit's feature map and passed in,

    log_ratios(delta, featurize(X, feature_map), PhiQ).

It returns the first output of _evaluate, the one log-ratio kernel, which
the estimator's loop, oracles and kkt_check share.

Every normalizer/softmax computation subtracts the maximum exponent
before exponentiating (log-sum-exp), so inner products of magnitude up
to several hundred are handled without overflow.

Products of a feature matrix with delta use np.dot, not @: for an n-by-1
matrix (identity features on 1-D data) numpy's matmul skips BLAS and
takes about 7x as long at n = 5000 (numpy 2.4, x86-64 OpenBLAS), while
np.dot gives the same bits on C- and Fortran-ordered matrices (a strided
view may differ in the last bit; featurize never returns one).
tests/test_estimator.py checks the ascent loop bit for bit against a
frozen copy of its @ form.

Softmax weights that underflow below the smallest normal double
(np.finfo(float).tiny) are flushed to exactly 0. Subnormal operands make
the PhiQ.T @ softmax matvec of every ascent step several times slower
(about 8x, measured on x86-64 with OpenBLAS), while the mass they carry,
under n_q * tiny in total, cannot change a sum of normal-sized terms.
The flush builds its mask only when the smallest weight lies below tiny;
otherwise the mask would change nothing. On the 2-vCPU Xeon guest with
numpy 2.4 the check and the mask each cost about 3 us at n_q = 5000, so
the check is worth little there.

The rbf bandwidth heuristic (median_pairwise_distance) computes the
pairwise distances in numpy, summing the squared coordinate differences
one column at a time from zero, the order scipy.spatial.distance.pdist
sums in. Its distances, and so the median bandwidth and every rbf fit,
are bit-for-bit those of pdist (tests/test_ratio_model.py checks this),
and this module imports no scipy: scipy.spatial takes about 0.45 s to
import and adds about 38 MB of resident memory (Python 3.11, scipy 1.17,
x86-64), more than a 1-D experiment at paper scale spends fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.array(X, dtype=float)


@dataclass(frozen=True)
class PairwiseQuadraticFeatures:
    """All pairwise products x_i * x_j for i <= j, row-major upper triangle.

    For d input coordinates the output has d*(d+1)/2 features ordered
    (1,1), (1,2), ..., (1,d), (2,2), ..., (d,d).
    """

    def transform(self, X: np.ndarray) -> np.ndarray:
        d = X.shape[1]
        rows, cols = np.triu_indices(d)
        return X[:, rows] * X[:, cols]


_PAIR_BLOCK = 1 << 16  # pairs per block of rows: temporaries of about 0.5 MB


def _pairwise_distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows i < j, in pdist's order and bits.

    Each distance is sqrt(((x_j1 - x_i1)^2 + (x_j2 - x_i2)^2) + ...),
    added left to right from zero as pdist adds them (numpy's pairwise
    sum over a row differs in the last bit from d = 8 on). Rows are
    taken a block at a time so the temporaries stay small.
    """
    n = X.shape[0]
    cols = np.ascontiguousarray(X.T)
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    step = max(1, _PAIR_BLOCK // n)
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        acc = np.zeros((b - a, n - a - 1))
        for c in cols:
            diff = c[None, a + 1:] - c[a:b, None]
            diff *= diff
            acc += diff
        np.sqrt(acc, out=acc)
        # row i = a + r pairs with j = i + 1, ..., n - 1: columns r onwards
        for r in range(b - a):
            out[pos:pos + n - a - 1 - r] = acc[r, r:]
            pos += n - a - 1 - r
    return out


def median_pairwise_distance(points: np.ndarray) -> float:
    """Median Euclidean distance between distinct rows (median heuristic).

    Equal bit for bit to np.median(scipy.spatial.distance.pdist(points)),
    without importing scipy. Falls back to 1.0 when there are fewer than
    two rows or all rows coincide, so the result is always a valid
    bandwidth.
    """
    points = as_sample_matrix(points, "points")
    if points.shape[0] < 2:
        return 1.0
    med = float(np.median(_pairwise_distances(points)))
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
    0 (see the module docstring); the mask is built only when the
    smallest weight is below it. One buffer holds z - max, its exp and
    the weights; z itself is left unchanged.
    """
    m = float(z.max())
    w = z - m
    np.exp(w, out=w)
    s = float(w.sum())
    w /= s
    w /= w.sum()
    if w.min() < _TINY:
        w[w < _TINY] = 0.0
    return m + np.log(s / z.size), w


def _checked(delta, PhiQ) -> tuple[np.ndarray, np.ndarray]:
    """delta and PhiQ as float arrays, once they are known to fit together."""
    delta = np.asarray(delta, dtype=float)
    PhiQ = np.asarray(PhiQ, dtype=float)
    if PhiQ.ndim != 2 or PhiQ.shape[0] < 1:
        raise ValueError("PhiQ must be a nonempty 2-D feature matrix")
    if delta.shape != (PhiQ.shape[1],):
        raise ValueError(f"delta has shape {delta.shape}, expected ({PhiQ.shape[1]},)")
    return delta, PhiQ


def _dot_pair(A, x, B, y) -> tuple[np.ndarray, np.ndarray]:
    """(np.dot(A, x), np.dot(B, y)) on the calling thread: the serial pair."""
    return np.dot(A, x), np.dot(B, y)


def _evaluate(
    delta: np.ndarray, Phi: np.ndarray, PhiQ: np.ndarray, pair=_dot_pair
) -> tuple[np.ndarray, np.ndarray]:
    """log rhat(x; delta) at every row of Phi, and softmax(PhiQ delta); no checks.

    pair computes the two products; the ascent loop may pass one that runs
    them on two threads (see the estimator docstring).
    """
    zq, lr = pair(PhiQ, delta, Phi, delta)
    logN, sm = _log_mean_exp_and_softmax(zq)
    lr -= logN
    return lr, sm


def softmax_weights(delta: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """softmax_j(<delta, PhiQ_j>): nonnegative, sums to 1, overflow-safe.

    Weights below np.finfo(float).tiny are returned as exact zeros, so no
    weight is subnormal.
    """
    delta, PhiQ = _checked(delta, PhiQ)
    _, w = _log_mean_exp_and_softmax(np.dot(PhiQ, delta))
    return w


def log_ratios(delta: np.ndarray, Phi: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """log rhat at each row of Phi: Phi @ delta - log mean_j exp <delta, PhiQ_j>.

    The one evaluator of a fitted ratio outside the ascent loop, and the
    first output of the loop's own kernel _evaluate; Phi holds the
    features of the points to evaluate, PhiQ those of the sample from q
    the fit was normalized over.
    """
    delta, PhiQ = _checked(delta, PhiQ)
    lr, _ = _evaluate(delta, Phi, PhiQ)
    return lr
