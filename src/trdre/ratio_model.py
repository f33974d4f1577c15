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


_PAIR_BLOCK = 1 << 16  # pairs (of points, or of a point and a centre) per block of rows: about 0.5 MB


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
    two rows or all rows coincide, and is inf when the median distance
    overflows.
    """
    points = as_sample_matrix(points, "points")
    if points.shape[0] < 2:
        return 1.0
    with np.errstate(over="ignore"):
        med = float(np.median(_pairwise_distances(points)))
    return med if med > 0.0 else 1.0


@dataclass(frozen=True)
class GaussianKernelFeatures:
    """Gaussian kernels f_k(x) = exp(-||x - b_k||^2 / (2 * bandwidth^2)).

    ``basis`` holds one centre per row. A missing bandwidth is filled in
    with the median pairwise distance of the basis. transform writes the
    kernel values over the cross products, a block of rows at a time: at
    its peak it holds one n-by-m float buffer, its output, and a block of
    about 0.5 MB.
    """

    basis: np.ndarray
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        basis = as_sample_matrix(self.basis, "basis")
        bw = median_pairwise_distance(basis) if self.bandwidth is None else float(self.bandwidth)
        if not 1e-150 <= bw <= 1e150:  # so that 2 * bw**2 is a normal float
            what = "bandwidth" if self.bandwidth is not None else "median pairwise distance of the basis"
            raise ValueError(f"{what} must lie in [1e-150, 1e150], got {bw}")
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
        xx, bb = np.sum(X**2, axis=1), np.sum(self.basis**2, axis=1)
        # |2 x.b| <= |x|^2 + |b|^2, so no term overflows unless two squared
        # norms sum past 2**1022. Then the expansion may be inf - inf or +-inf
        # where the kernel value is a float (1 at a point that is its centre,
        # 0 far from it): those entries alone are summed from the differences,
        # so every other entry keeps its bits.
        far = xx.max() + bb.max() > 2.0**1022
        K = X @ self.basis.T
        K *= 2.0
        # (-sq) / c and sq / (-c) are the same IEEE quotient
        scale = -(2.0 * self.bandwidth**2)
        # A block of rows at a time, so that each pass over it stays in cache
        step = max(1, _PAIR_BLOCK // K.shape[1])
        buf = np.empty((min(step, K.shape[0]), K.shape[1]))
        for a in range(0, K.shape[0], step):
            rows = K[a:a + step]
            sq = np.add(xx[a:a + step, None], bb, out=buf[: rows.shape[0]])
            sq -= rows
            if far:
                i, j = np.nonzero(~np.isfinite(sq))
                sq[i, j] = np.sum((X[a + i] - self.basis[j]) ** 2, axis=1)
            np.maximum(sq, 0.0, out=sq)
            sq /= scale
            np.exp(sq, out=rows)
        return K


FeatureMap = LinearFeatures | PairwiseQuadraticFeatures | GaussianKernelFeatures


def featurize(X, feature_map: FeatureMap) -> np.ndarray:
    """Apply a feature map row-wise: (n, d) samples -> (n, m) features."""
    X = as_sample_matrix(X)
    # An overflow is rejected below as a non-finite value, but for an rbf
    # distance beyond the largest float, whose kernel value 0 is exact.
    with np.errstate(over="ignore", invalid="ignore"):
        Phi = feature_map.transform(X)
    if not np.all(np.isfinite(Phi)):
        raise ValueError("featurization produced non-finite values")
    return Phi


def _log_mean_exp_and_softmax(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (log mean exp(z), softmax(z)) with max subtraction.

    One buffer holds z - max, its exp and the weights; z itself is left
    unchanged.
    """
    m = float(z.max())
    w = z - m
    np.exp(w, out=w)
    s = float(w.sum())
    w /= s
    return m + np.log(s / z.size), w


def _checked(delta, **matrices) -> tuple[np.ndarray, ...]:
    """delta and each named matrix as float arrays, once every matrix is
    known to be nonempty 2-D with a column per entry of delta; shapes
    only, so the check costs nothing next to a product."""
    delta = np.asarray(delta, dtype=float)
    arrays = [delta]
    for name, M in matrices.items():
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] < 1:
            raise ValueError(f"{name} must be a nonempty 2-D feature matrix")
        if delta.shape != (M.shape[1],):
            raise ValueError(
                f"delta has shape {delta.shape}, expected ({M.shape[1]},) for {name} of shape {M.shape}"
            )
        arrays.append(M)
    return tuple(arrays)


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
    """softmax_j(<delta, PhiQ_j>): nonnegative, sums to 1, overflow-safe."""
    delta, PhiQ = _checked(delta, PhiQ=PhiQ)
    _, w = _log_mean_exp_and_softmax(np.dot(PhiQ, delta))
    return w


def log_ratios(delta: np.ndarray, Phi: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """log rhat at each row of Phi: Phi @ delta - log mean_j exp <delta, PhiQ_j>.

    The one evaluator of a fitted ratio outside the ascent loop, and the
    first output of the loop's own kernel _evaluate; Phi holds the
    features of the points to evaluate, PhiQ those of the sample from q
    the fit was normalized over. Both are checked as the fits check theirs.
    """
    Phi, PhiQ = as_sample_matrix(Phi, "Phi"), as_sample_matrix(PhiQ, "PhiQ")
    lr, _ = _evaluate(*_checked(delta, Phi=Phi, PhiQ=PhiQ))
    return lr
