"""Trimmed density ratio estimation by gradient ascent and trimming.

The estimator solves the convex max-min program

    max_delta  min_w  sum_i w_i * log rhat(x_p_i; delta)  -  lam * R(delta)
    s.t.       w in [0, 1/n_p]^{n_p},  <1, w> = nu,

where rhat is the self-normalized log-linear ratio model and nu in (0, 1]
is the fraction of numerator samples trusted to be inliers. For any fixed
delta the inner minimum is attained at a polytope vertex: weight 1/n_p on
the k_keep = round(nu * n_p) samples with the smallest log-ratio, weight 0
elsewhere. The outer loop therefore alternates, per iteration:

    1. rank X_p by log-ratio under the current delta,
    2. assign the extreme-point weights w,
    3. step delta along the (sub)gradient with rate eta0 / sqrt(it + 1),

while tracking the best (objective, delta, w) triple visited. With nu = 1
every weight is 1/n_p and the procedure is exactly the classical
unconstrained KLIEP fit, exposed as ``fit_kliep``.

The loop stops for one of three reasons (FitResult.stop_reason):
"window" when the best objective gained less than tol over the last
50 iterations, "max_iter" when the budget ran out, and "unbounded" when
an iterate certified that no finite maximizer exists. The certificate:
the objective is F(delta) = (sum of the k smallest entries of
PhiP delta) / n_p - nu LME(PhiQ delta) - lam R(delta), and log-mean-exp
satisfies LME(z) >= max(z) - log n_q and LME(s z) <= s max(z)
for s > 0, while the trimmed sum and an l1 penalty scale linearly along
a ray, so the objective F obeys

    F(s delta) >= s (F(delta) - nu log n_q)        for s > 0.

Once F(delta) exceeds nu log n_q, F grows without bound along delta.
Conversely, on a problem with a finite maximizer F never exceeds
nu log n_q, so the check never stops such a fit and its iterates are
unchanged. The check applies to the penalties that scale linearly:
"none", "l1", and "l2sq" at lam = 0. An unbounded problem whose iterates
never cross the ceiling ends by one of the other two rules.

Regularizers: "none", "l1" (R = sum |delta_i|), "l2sq" (R = sum delta_i^2).
The l1 step is proximal (soft-thresholding after the gradient step) so
coefficients reach exact zeros; the other two fold the regularizer's
gradient into the step ("none" has the zero gradient).

The loop, the oracles (objective, gradient, assign_weights) and
kkt_check all evaluate delta through one kernel, ratio_model._evaluate
(log_ratios returns its first output), and rank through one helper,
_trim, so the oracles check the loop's own arithmetic. Every
feature-matrix product goes through np.dot, for the reason the
ratio_model docstring gives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ratio_model import FeatureMap, _evaluate, as_sample_matrix, featurize

REGULARIZERS = ("none", "l1", "l2sq")
STOP_REASONS = ("window", "max_iter", "unbounded")
# Added to nu log n_q before the unbounded check fires. A bounded problem
# has F <= nu log n_q exactly, and the slack absorbs the rounding of the
# computed objective (a mean of log-ratios, each a few ulps off) should an
# iterate of such a problem come that close to the ceiling.
UNBOUNDED_SLACK = 1e-6
STATIONARITY_TOL = 1e-2  # kkt_check's pass mark for the stationarity residual
RATIO_TOL = 1e-2  # half-width of kkt_check's band around t_hat


@dataclass(frozen=True)
class TrimConfig:
    """Hyperparameters for a trimmed ratio fit.

    nu is the kept-weight budget (1 = no trimming), lam scales the
    regularizer, eta0 the base step size. The loop stops at max_iter,
    once the best objective improves by less than tol over a 50-iteration
    window, or once an iterate proves that no finite maximizer exists
    (see the module docstring). seed is carried along for provenance in
    serialized results; the fit itself is deterministic.
    """

    nu: float = 1.0
    lam: float = 0.0
    regularizer: str = "none"
    eta0: float = 1.0
    max_iter: int = 5000
    tol: float = 1e-7
    seed: int = 42

    def __post_init__(self) -> None:
        _check_nu(self.nu)
        if self.lam < 0.0 or not np.isfinite(self.lam):
            raise ValueError(f"lam must be a finite nonnegative real, got {self.lam}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}, got {self.regularizer!r}")
        if self.eta0 <= 0.0 or not np.isfinite(self.eta0):
            raise ValueError(f"eta0 must be a positive real, got {self.eta0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be a finite positive real, got {self.tol}")


class FitDivergedError(RuntimeError):
    """Objective became non-finite; usually eta0 is too large."""

    def __init__(self, iteration: int, delta_norm: float):
        self.iteration = iteration
        self.delta_norm = delta_norm
        super().__init__(
            f"objective became non-finite at iteration {iteration} "
            f"(||delta||_inf = {delta_norm:.3g}); try a smaller eta0"
        )


@dataclass
class FitResult:
    """Best iterate of a trimmed fit.

    trace holds one (iteration, objective) pair per iteration actually
    run, where the objective is the inner-minimized max-min value at that
    iterate; objective_best is its running maximum. t_hat is the largest
    kept log-ratio under delta_best (the trimming threshold).

    stop_reason is one of STOP_REASONS. On "unbounded", delta_best is a
    certificate: objective_best exceeds unbounded_threshold, so the
    objective grows without bound along delta_best and the returned
    coefficients are a point on that ray, not an optimum. converged is
    true only for "window".
    """

    delta_best: np.ndarray
    w_best: np.ndarray
    objective_best: float
    t_hat: float
    trace: list[tuple[int, float]] = field(repr=False)
    iterations_run: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "window"

    @property
    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.w_best > 0.0)


def _check_nu(nu: float) -> None:
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"nu must lie in (0, 1], got {nu}")


def keep_count(nu: float, n_p: int) -> int:
    """Number of kept samples: nu * n_p rounded half-up, must be >= 1.

    nu must lie in (0, 1] (so the count never exceeds n_p); a NaN is
    rejected like any other value outside that interval.
    """
    _check_nu(nu)
    k = int(math.floor(nu * n_p + 0.5))
    if k < 1:
        raise ValueError(f"nu={nu} keeps no samples out of n_p={n_p}")
    return k


def _trim(lr: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights 1/n_p on the k smallest log-ratios, and those k values in
    ascending order.

    Ties at the threshold t = k-th smallest value go to the lower index:
    every lr <= t is kept, then the surplus indices where lr == t are
    dropped from the highest index down, which leaves the kept set of a
    stable argsort. A value sort plus these O(n) masks costs a fraction
    of the argsort (about 8x less at n = 5000). The vectorized sort may
    permute or duplicate signed zeros, so a block of zeros among the k
    values is refilled from lr in index order. The values are then
    bitwise those of lr at the stable argsort's first k indices, and the
    last one is lr at the last kept index tied at t. lr must be NaN-free.
    The weights are keep * (1 / n): 1.0 * fl(1/n) is fl(1/n), the bits of
    keep / n, for a multiply in place of a divide.
    """
    low = np.sort(lr)[:k]
    t = low[-1]
    keep = lr <= t
    surplus = np.count_nonzero(keep) - k
    if surplus:
        keep[np.flatnonzero(lr == t)[-surplus:]] = False
    if low[0] <= 0.0 <= t:
        i, j = low.searchsorted(0.0, "left"), low.searchsorted(0.0, "right")
        if j > i:
            low[i:j] = lr[lr == 0.0][: j - i]
    return keep * (1.0 / lr.size), low


def _data_gradient(
    PhiP: np.ndarray, PhiQ: np.ndarray, w: np.ndarray, sm: np.ndarray, nu: float
) -> np.ndarray:
    """Phi_p^T w - nu * Phi_q^T sm, the gradient of the weighted log-ratio sum."""
    return np.dot(PhiP.T, w) - nu * np.dot(PhiQ.T, sm)


def assign_weights(log_ratio_values: np.ndarray, nu: float) -> np.ndarray:
    """Inner-minimizing weights: 1/n_p on the k_keep smallest log-ratios.

    Ties are broken by ascending sample index, so the result is
    deterministic. Raises if nu keeps no samples or a log-ratio is not
    finite (a NaN has no rank).
    """
    lr = np.asarray(log_ratio_values, dtype=float)
    if lr.ndim != 1 or lr.size < 1:
        raise ValueError("log_ratio_values must be a nonempty vector")
    if not np.all(np.isfinite(lr)):
        raise ValueError("log_ratio_values must be finite")
    w, _ = _trim(lr, keep_count(nu, lr.size))
    return w


def _reg_value(delta: np.ndarray, cfg: TrimConfig) -> float:
    if cfg.regularizer == "none":
        return 0.0
    if cfg.regularizer == "l1":
        return float(np.abs(delta).sum())
    return float((delta**2).sum())


def _reg_subgradient(delta: np.ndarray, cfg: TrimConfig) -> np.ndarray:
    """One element of the subdifferential of R at delta (sign(0) = 0 for l1)."""
    if cfg.regularizer == "none":
        return np.zeros_like(delta)
    if cfg.regularizer == "l1":
        return np.sign(delta)
    return 2.0 * delta


def objective(
    delta: np.ndarray, w: np.ndarray, PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig
) -> float:
    """sum_i w_i * log rhat(x_p_i; delta) - lam * R(delta)."""
    delta = np.asarray(delta, dtype=float)
    w = np.asarray(w, dtype=float)
    lr, _ = _evaluate(delta, PhiP, PhiQ)
    return float(w @ lr - cfg.lam * _reg_value(delta, cfg))


def gradient(delta: np.ndarray, w: np.ndarray, PhiP: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """d/d delta of the weighted log-ratio sum at fixed weights.

    Equals Phi_p^T w - nu * Phi_q^T softmax(PhiQ delta) with nu = sum(w);
    the regularizer term is not included.
    """
    delta = np.asarray(delta, dtype=float)
    w = np.asarray(w, dtype=float)
    _, sm = _evaluate(delta, PhiP, PhiQ)
    return _data_gradient(PhiP, PhiQ, w, sm, float(np.sum(w)))


def unbounded_threshold(nu_eff: float, n_q: int) -> float:
    """nu_eff * log n_q plus UNBOUNDED_SLACK: an objective above it proves
    that no finite maximizer exists (see the module docstring)."""
    return nu_eff * math.log(n_q) + UNBOUNDED_SLACK


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_featurized(PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> FitResult:
    """Run the ascent-and-trimming loop on already-featurized samples.

    Non-finite features raise ValueError before the loop starts, so
    FitDivergedError always means the iterates ran away. The result's
    stop_reason says why the loop ended (see FitResult).
    """
    PhiP = np.asarray(PhiP, dtype=float)
    PhiQ = np.asarray(PhiQ, dtype=float)
    if PhiP.ndim != 2 or PhiQ.ndim != 2 or PhiP.shape[1] != PhiQ.shape[1]:
        raise ValueError("PhiP and PhiQ must be 2-D with matching feature dimension")
    if not (np.all(np.isfinite(PhiP)) and np.all(np.isfinite(PhiQ))):
        raise ValueError("PhiP and PhiQ must be finite")
    n_p, m = PhiP.shape
    k = keep_count(cfg.nu, n_p)
    nu_eff = k / n_p

    delta = np.zeros(m)
    trace: list[tuple[int, float]] = []
    best_hist = np.empty(cfg.max_iter)
    best_obj = -np.inf
    delta_best = delta.copy()
    w_best = np.zeros(n_p)
    t_hat = np.nan
    stop_reason = "max_iter"
    # The certificate needs a penalty that scales linearly along a ray.
    linear = cfg.regularizer != "l2sq" or cfg.lam == 0.0
    ceiling = unbounded_threshold(nu_eff, PhiQ.shape[0]) if linear else math.inf

    for it in range(cfg.max_iter):
        lr, sm = _evaluate(delta, PhiP, PhiQ)
        w, low = _trim(lr, k)
        obj = float(low.sum() / n_p - cfg.lam * _reg_value(delta, cfg))
        if not math.isfinite(obj):
            raise FitDivergedError(it, float(np.max(np.abs(delta))))

        trace.append((it, obj))
        if obj > best_obj:
            best_obj = obj
            delta_best = delta.copy()
            w_best = w
            t_hat = float(low[-1])
        best_hist[it] = best_obj
        if obj > ceiling:
            stop_reason = "unbounded"
            break
        if it >= 50 and best_hist[it] - best_hist[it - 50] < cfg.tol:
            stop_reason = "window"
            break

        eta = cfg.eta0 / math.sqrt(it + 1.0)
        # nu_eff = k / n_p, not sum(w): the two can differ in the last bit.
        g = _data_gradient(PhiP, PhiQ, w, sm, nu_eff)
        # "none" has the zero gradient: g - lam * 0 is g, bit for bit.
        if cfg.regularizer == "l1":
            delta = soft_threshold(delta + eta * g, eta * cfg.lam)
        elif cfg.regularizer == "l2sq":
            delta = delta + eta * (g - cfg.lam * _reg_subgradient(delta, cfg))
        else:
            delta = delta + eta * g

    return FitResult(
        delta_best=delta_best,
        w_best=w_best,
        objective_best=best_obj,
        t_hat=t_hat,
        trace=trace,
        iterations_run=len(trace),
        stop_reason=stop_reason,
    )


def fit(Xp, Xq, feature_map: FeatureMap, cfg: TrimConfig) -> FitResult:
    """Fit the trimmed ratio estimator on raw samples."""
    Xp = as_sample_matrix(Xp, "Xp")
    Xq = as_sample_matrix(Xq, "Xq")
    if Xp.shape[1] != Xq.shape[1]:
        raise ValueError(f"Xp and Xq disagree on dimension: {Xp.shape[1]} vs {Xq.shape[1]}")
    return fit_featurized(featurize(Xp, feature_map), featurize(Xq, feature_map), cfg)


def fit_kliep(Xp, Xq, feature_map: FeatureMap, cfg: TrimConfig) -> FitResult:
    """Untrimmed baseline: the same fit with nu forced to 1."""
    return fit(Xp, Xq, feature_map, replace(cfg, nu=1.0))


@dataclass(frozen=True)
class KKTReport:
    """Optimality diagnostics for a fitted (delta, w) pair.

    Weight structure: entries with log-ratio below t_hat - RATIO_TOL must
    carry weight 1/n_p, entries above t_hat + RATIO_TOL must carry 0;
    entries inside the band may take any value in [0, 1/n_p]. Stationarity
    is the sup-norm distance of the data gradient from lam times the
    regularizer's subdifferential (minimal-norm element at zeros).
    """

    weight_ok: bool
    max_weight_violation: float
    first_bad_index: int | None
    stationarity: float
    stationarity_ok: bool


def kkt_check(result: FitResult, PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> KKTReport:
    """Check the saddle-point conditions at result.delta_best.

    The weight band has half-width RATIO_TOL; stationarity passes when
    the residual is at most STATIONARITY_TOL.
    """
    delta = result.delta_best
    w = np.asarray(result.w_best, dtype=float)
    lr, sm = _evaluate(delta, PhiP, PhiQ)

    # w_i must lie in [lo_i, hi_i]: {1/n_p} below the band, {0} above it.
    cap = 1.0 / PhiP.shape[0]
    lo = np.where(lr < result.t_hat - RATIO_TOL, cap, 0.0)
    hi = np.where(lr > result.t_hat + RATIO_TOL, 0.0, cap)
    viol = np.maximum(np.maximum(lo - w, w - hi), 0.0)
    max_viol = float(np.max(viol))
    weight_ok = max_viol <= 1e-12
    first_bad = int(np.argmax(viol > 1e-12)) if not weight_ok else None

    g = _data_gradient(PhiP, PhiQ, w, sm, float(np.sum(w)))
    per_coord = np.abs(g - cfg.lam * _reg_subgradient(delta, cfg))
    if cfg.regularizer == "l1":
        # At a zero coordinate the subdifferential is [-lam, lam].
        per_coord = np.where(delta != 0.0, per_coord, np.maximum(np.abs(g) - cfg.lam, 0.0))
    stationarity = float(np.max(per_coord))

    return KKTReport(
        weight_ok=weight_ok,
        max_weight_violation=max_viol,
        first_bad_index=first_bad,
        stationarity=stationarity,
        stationarity_ok=stationarity <= STATIONARITY_TOL,
    )


def fit_result_to_dict(result: FitResult, cfg: TrimConfig) -> dict:
    """JSON-ready view of a FitResult with the config echoed (lam as "lambda")."""
    config = asdict(cfg)
    config["lambda"] = config.pop("lam")
    return {
        "delta": [float(v) for v in result.delta_best],
        "kept_indices": [int(i) for i in result.kept_indices],
        "t_hat": float(result.t_hat),
        "objective_best": float(result.objective_best),
        "trace": [[int(it), float(obj)] for it, obj in result.trace],
        "iterations_run": int(result.iterations_run),
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
        "config": config,
    }
