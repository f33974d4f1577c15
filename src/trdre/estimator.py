"""Trimmed density ratio estimation by gradient ascent and trimming.

The estimator solves the convex max-min program

    max_delta  min_w  sum_i w_i * log rhat(x_p_i; delta)  -  lam * R(delta)
    s.t.       w in [0, 1/n_p]^{n_p},  <1, w> = nu,

where rhat is the self-normalized log-linear ratio model and nu in (0, 1]
is the fraction of numerator samples trusted to be inliers. For any fixed
delta the inner minimum is attained at a polytope vertex: weight 1/n_p on
the k_keep = round(nu * n_p) samples with the smallest log-ratio, weight 0
elsewhere.

On one feature column the kept set is fixed on each half-line (delta > 0
keeps the k smallest entries of PhiP, delta < 0 the k largest), so the
objective is smooth and concave on each. There fit_featurized solves the
program exactly (maxmin_1d) and stops "certified": a Newton search on the
objective's slope along the half-line, safeguarded by a bracket, returns
adjacent floats lo < hi with computed slope > 0 at lo and <= 0 at hi, and
hi is the maximizer (see _root), in 9.1 slope evaluations per fit on the
14 default outlier1d fits. Every other fit, and a one-column fit
with no finite maximizer, one beyond the largest float or one where the
objective or its slope at 0 does not evaluate to a finite float, runs the
ascent loop (ascend), which alternates, per iteration:

    1. rank X_p by log-ratio under the current delta;
    2. assign the extreme-point weights w;
    3. step delta along the (sub)gradient with rate eta0 / sqrt(it + 1),

while tracking the best (objective, delta, w) triple visited. With nu = 1
every weight is 1/n_p and the procedure is exactly the classical
unconstrained KLIEP fit, exposed as ``fit_kliep``.

The loop stops for one of three reasons (FitResult.stop_reason):
"window" when the best objective gained less than WINDOW_TOL over the
last 50 iterations, "max_iter" when the budget ran out, and "unbounded"
when an iterate certified that no finite maximizer exists. The certificate:
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

Regularizers: "none" (lam must be 0), "l1" (R = sum |delta_i|) and "l2sq"
(R = sum delta_i^2). The l1 step is proximal (soft-thresholding after the
gradient step) so coefficients reach exact zeros; the other two fold the
regularizer's gradient into the step ("none" has the zero gradient).

The loop, the exact fit, the oracles (objective, gradient, assign_weights)
and kkt_check all evaluate delta through one kernel, ratio_model._evaluate
(log_ratios returns its first output; gradient takes its softmax alone,
from the same np.dot(PhiQ, delta)), so the oracles check the fits' own
arithmetic. The fits and assign_weights rank through one helper, _trim;
both fits evaluate a point through _point, and the loop, gradient and
kkt_check form the data gradient through _data_gradient. Every
feature-matrix product goes through np.dot.

Both parallel paths below pass one gate and one size rule. _cpus() is
the number of CPUs in the affinity mask where the environment pins
OpenBLAS to one thread per call, and 1 otherwise: a multi-threaded BLAS
already uses the other CPUs, two such calls at once oversubscribe them,
and its thread pool would be forked mid-use. A fit is large
(_large(PhiP, PhiQ)) when both matrices have at least 2**20 entries.

Each ascent step computes two pairs of independent products, PhiQ delta
with PhiP delta, and PhiP^T w with PhiQ^T softmax. A large fit runs the
two of each pair on two threads (np.dot releases the GIL) when _cpus()
is 2 or more. fit_featurized then starts one worker thread (_DotWorker)
and stops it before it returns or raises, so no thread outlives a fit;
the oracles and kkt_check, single evaluations, run serially. Each
product is the same np.dot call whichever thread runs it, so no output
bit depends on the path. Measured on a 2-vCPU KVM guest
(Intel Xeon, OpenBLAS 0.3.31, one BLAS thread), handing a product to the
worker and back costs about 15-20 us: a 5000-by-1 pair took 7-10 us
serially and 21-30 us overlapped. A 1500-by-1500 pair took 1.6-1.7 ms
serially and 0.9-1.0 ms overlapped while the host left the second vCPU
free, and 2-8% longer than serially while it did not. At 501 by 325
overlap won in one window (98 against 64 us) and lost in another (112
against 135 us); break-even lies at about 0.5-1M entries, and the floor
sits above it. A caller never waits long for a worker whose CPU is
taken (see _DotWorker): without that rule, 3 of 10 benchmark runs of a
1500-by-1500 rbf fit were slower than serial, one by a factor of 2.2.
Starting the worker, handing it one 5000-by-1 pair and stopping it took
a median 0.11 ms on the same guest.

fit_many runs a list of independent fits, the experiments' sweeps, and
returns their results in task order. Where the machine allows, it
spreads them over this process and forked children, one process per CPU
that _cpus() counts (see _processes). A batch runs serially if all its
fits have one column (each is solved exactly in less time than a fork
costs) or if one is large, so a forked round never holds a fit that
could start a worker thread and the two paths never nest. Each fit is
the same single-threaded fit_featurized call whichever process runs it,
so no output bit depends on the number of CPUs.
"""

from __future__ import annotations

import contextvars
import math
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ratio_model import FeatureMap, _checked, _dot_pair, _evaluate, as_sample_matrix, featurize, softmax_weights

REGULARIZERS = ("none", "l1", "l2sq")
STOP_REASONS = ("certified", "window", "max_iter", "unbounded")
# Added to nu log n_q before the unbounded check fires. A bounded problem
# has F <= nu log n_q exactly, and the slack absorbs the rounding of the
# computed objective (a mean of log-ratios, each a few ulps off) should an
# iterate of such a problem come that close to the ceiling.
UNBOUNDED_SLACK = 1e-6
STATIONARITY_TOL = 1e-2  # kkt_check's pass mark for the stationarity residual
WINDOW_TOL = 1e-7  # the least gain of the best objective over 50 iterations that keeps the loop going
RATIO_TOL = 1e-2  # half-width of kkt_check's band around t_hat
# fit --verify's pass marks: |mean ratio over X_q - 1|, and the objective gap
# between a certified one-column fit and the ascent loop run on its data
NORMALIZATION_TOL = 1e-10
CROSS_CHECK_TOL = 1e-2


@dataclass(frozen=True)
class TrimConfig:
    """Hyperparameters for a trimmed ratio fit.

    nu is the kept-weight budget (1 = no trimming), lam scales the
    regularizer (and is 0 with "none"), eta0 the base step size. The loop
    stops at max_iter, once the best objective improves by less than
    WINDOW_TOL over a 50-iteration window, or once an iterate proves that
    no finite maximizer exists (see the module docstring). A one-column
    fit with a finite maximizer and objective is solved exactly and ignores
    eta0 and max_iter. The fit is deterministic, so it takes no seed.
    """

    nu: float = 1.0
    lam: float = 0.0
    regularizer: str = "none"
    eta0: float = 1.0
    max_iter: int = 5000

    def __post_init__(self) -> None:
        kinds = {"nu": float, "lam": float, "eta0": float, "max_iter": int}
        for name in kinds:
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
        _check_nu(self.nu)
        if self.lam < 0.0 or not np.isfinite(self.lam):
            raise ValueError(f"lam must be a finite nonnegative real, got {self.lam}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}, got {self.regularizer!r}")
        if self.lam > 0.0 and self.regularizer == "none":
            raise ValueError(f"lam must be 0 with regularizer 'none', got {self.lam}")
        if self.eta0 <= 0.0 or not np.isfinite(self.eta0):
            raise ValueError(f"eta0 must be a positive real, got {self.eta0}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        # Stored as Python numbers: a numpy scalar would not serialize to JSON.
        for name, kind in kinds.items():
            object.__setattr__(self, name, kind(getattr(self, name)))


class FitDivergedError(RuntimeError):
    """Objective became non-finite; usually eta0 is too large."""

    def __init__(self, iteration: int, delta_norm: float):
        self.iteration = iteration
        self.delta_norm = delta_norm
        super().__init__(f"objective became non-finite at iteration {iteration} (||delta||_inf = {delta_norm:.3g})")

    def __reduce__(self):
        # The default rebuilds from self.args, the message alone.
        return type(self), (self.iteration, self.delta_norm)


@dataclass
class FitResult:
    """Best iterate of a trimmed fit.

    trace holds one (iteration, objective) pair per iteration actually
    run, where the objective is the inner-minimized max-min value at that
    iterate; objective_best is its running maximum. t_hat is the largest
    kept log-ratio under delta_best (the trimming threshold).

    stop_reason is one of STOP_REASONS. On "certified", delta_best is
    maxmin_1d's exact maximizer of a one-column fit, objective_best and
    t_hat are finite, and the trace is its one evaluation. On "unbounded",
    delta_best is a certificate: objective_best exceeds
    unbounded_threshold, so the objective grows without bound along
    delta_best and the returned coefficients are a point on that ray, not an
    optimum. converged, true for "certified" and "window", is not serialized.
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
        return self.stop_reason in ("certified", "window")

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
    of the argsort (about 8x less at n = 5000). The weights are
    keep * (1 / n): 1.0 * fl(1/n) is fl(1/n), the bits of keep / n, for a
    multiply in place of a divide.

    The vectorized sort may permute signed zeros, so a block of zeros
    among the k values is refilled from lr in index order. The values are
    then bitwise those of lr at the stable argsort's first k indices, and
    the last one is lr at the last kept index tied at t. lr must be
    NaN-free.
    """
    low = np.sort(lr)[:k]
    t = low[-1]
    keep = lr <= t
    surplus = np.count_nonzero(keep) - k
    if surplus:
        keep[np.flatnonzero(lr == t)[-surplus:]] = False
    if low[0] <= 0.0 <= t:
        i = low.searchsorted(0.0, "left")
        if low[i] == 0.0:
            j = low.searchsorted(0.0, "right")
            low[i:j] = lr[lr == 0.0][: j - i]
    return keep * (1.0 / lr.size), low


def _data_gradient(
    PhiP: np.ndarray, PhiQ: np.ndarray, w: np.ndarray, sm: np.ndarray, nu: float, pair=_dot_pair
) -> np.ndarray:
    """Phi_p^T w - nu * Phi_q^T sm, the gradient of the weighted log-ratio
    sum; pair computes the two products, as in ratio_model._evaluate."""
    gp, gq = pair(PhiP.T, w, PhiQ.T, sm)
    return gp - nu * gq


def _point(
    delta: np.ndarray, PhiP: np.ndarray, PhiQ: np.ndarray, k: int, cfg: TrimConfig, pair=_dot_pair
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(objective, w, low, sm) at delta for both fits: the k smallest
    log-ratios summed over n_p (w and low from _trim) minus the penalty,
    which may be inf or nan, and the softmax of PhiQ delta."""
    lr, sm = _evaluate(delta, PhiP, PhiQ, pair)
    w, low = _trim(lr, k)
    return float(low.sum() / PhiP.shape[0] - _penalty(delta, cfg)), w, low, sm


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


def _penalty(delta: np.ndarray, cfg: TrimConfig) -> float:
    """lam * R(delta), finite wherever that product is: delta**2 overflows
    past |delta| = 1.34e154, where a tiny l2sq lam can still bring it back
    into range, so there the square is taken of delta / max|delta|."""
    if cfg.regularizer != "l2sq":
        return cfg.lam * _reg_value(delta, cfg)
    with np.errstate(over="ignore"):
        r = _reg_value(delta, cfg)
    if r < math.inf:
        return cfg.lam * r
    s = float(np.abs(delta).max())
    return cfg.lam * s * s * float(((delta / s) ** 2).sum())


def objective(
    delta: np.ndarray, w: np.ndarray, PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig
) -> float:
    """sum_i w_i * log rhat(x_p_i; delta) - lam * R(delta)."""
    delta, PhiP, PhiQ = _checked(delta, PhiP=PhiP, PhiQ=PhiQ)
    w = np.asarray(w, dtype=float)
    lr, _ = _evaluate(delta, PhiP, PhiQ)
    return float(w @ lr - _penalty(delta, cfg))


def gradient(delta: np.ndarray, w: np.ndarray, PhiP: np.ndarray, PhiQ: np.ndarray) -> np.ndarray:
    """d/d delta of the weighted log-ratio sum at fixed weights.

    Equals Phi_p^T w - nu * Phi_q^T softmax(PhiQ delta) with nu = sum(w);
    the regularizer term is not included. The softmax is the loop's, from
    np.dot(PhiQ, delta) alone.
    """
    delta, PhiP, PhiQ = _checked(delta, PhiP=PhiP, PhiQ=PhiQ)
    w = np.asarray(w, dtype=float)
    return _data_gradient(PhiP, PhiQ, w, softmax_weights(delta, PhiQ), float(np.sum(w)))


def unbounded_threshold(cfg: TrimConfig, n_p: int, n_q: int) -> float:
    """The loop's ceiling on n_p and n_q samples: nu_eff * log n_q plus
    UNBOUNDED_SLACK, with nu_eff = keep_count(cfg.nu, n_p) / n_p. An
    objective above it proves that no finite maximizer exists (see the
    module docstring). inf for l2sq with lam > 0: that penalty does not
    scale linearly along a ray, and the objective always has a maximizer."""
    if cfg.regularizer == "l2sq" and cfg.lam > 0.0:
        return math.inf
    return keep_count(cfg.nu, n_p) / n_p * math.log(n_q) + UNBOUNDED_SLACK


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


_OVERLAP_MIN_SIZE = 1 << 20  # entries each matrix of a large fit has


def _large(PhiP, PhiQ) -> bool:
    """Whether a fit on these matrices is large (see the module docstring)."""
    return min(np.size(PhiP), np.size(PhiQ)) >= _OVERLAP_MIN_SIZE


def _cpus() -> int:
    """CPUs a fit or sweep may use: those in the affinity mask (all, where
    the OS has none) if the environment pins OpenBLAS to one thread per
    call, else 1. OpenBLAS takes its thread count from the first of the
    variables below that holds a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 1:
            return 1
        if n == 1:
            try:
                return len(os.sched_getaffinity(0))
            except AttributeError:
                return os.cpu_count() or 1
    return 1


_LATE = 1.25  # a worker product this many times the caller's expected time is late


class _DotWorker:
    """A thread that computes np.dot(A, x) while its caller computes a
    second product; np.dot releases the GIL inside the BLAS. The caller
    starts it, passes pair where a pair function is taken, and stops it.
    Each product runs in a copy of the caller's context at that call, so
    the caller's np.errstate (the loop's own, in a fit) applies on both
    threads.

    A worker whose CPU is taken by other work can fall far behind, and a
    caller that waited for it would run at that CPU's speed. So the caller
    waits only until the worker's product is late: until it has taken
    _LATE times the caller's own product time, scaled by the two matrices'
    sizes. Past that the caller computes the product itself and drops the
    worker's copy, and it runs later pairs serially until the worker is
    idle again.
    """

    def __init__(self) -> None:
        # Imported here, not with the module: concurrent.futures (with the
        # logging it loads) takes about 5 ms, and only a large fit needs it.
        from concurrent.futures import ThreadPoolExecutor, TimeoutError

        self._pool = ThreadPoolExecutor(1, thread_name_prefix="trdre-dot")
        self._late = TimeoutError  # not the builtin TimeoutError before Python 3.11
        self._job = None  # the last product handed to the thread

    @property
    def idle(self) -> bool:
        return self._job is None or self._job.done()

    def pair(self, A, x, B, y) -> tuple[np.ndarray, np.ndarray]:
        if not self.idle:
            return _dot_pair(A, x, B, y)
        self._job = job = self._pool.submit(contextvars.copy_context().run, np.dot, A, x)
        start = time.perf_counter()
        try:
            second = np.dot(B, y)
        except Exception as exc:  # raised once the first product is in, as the serial order would
            second = exc
        now = time.perf_counter()
        due = start + _LATE * (now - start) * np.size(A) / max(np.size(B), 1)
        try:
            first = job.result(timeout=max(due - now, 0.0))
        except self._late:
            first = np.dot(A, x)
        if isinstance(second, Exception):
            raise second
        return first, second

    def stop(self) -> None:
        """Wait for the product in hand, if any, then end the thread."""
        self._pool.shutdown(wait=True)


def fit_featurized(PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> FitResult:
    """Fit on already-featurized samples, exactly where one column has a
    finite maximizer and objective, else by ascend (see the module docstring).

    Non-finite features raise ValueError before any fit starts, so
    FitDivergedError always means the iterates ran away. The result's
    stop_reason says why the fit ended (see FitResult).
    """
    PhiP, PhiQ = _features(PhiP, PhiQ)
    exact = _exact(PhiP, PhiQ, cfg)[2] if PhiP.shape[1] == 1 else None
    return _ascend(PhiP, PhiQ, cfg) if exact is None else exact


def ascend(PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> FitResult:
    """The ascent loop alone, on any column count (see the module docstring)."""
    return _ascend(*_features(PhiP, PhiQ), cfg)


def _features(PhiP, PhiQ) -> tuple[np.ndarray, np.ndarray]:
    """PhiP and PhiQ as sample matrices (as_sample_matrix: a vector is one
    column, and an empty or non-finite matrix is refused) with one feature
    count."""
    PhiP, PhiQ = as_sample_matrix(PhiP, "PhiP"), as_sample_matrix(PhiQ, "PhiQ")
    if PhiP.shape[1] != PhiQ.shape[1]:
        raise ValueError(f"PhiP and PhiQ disagree on feature count: {PhiP.shape[1]} vs {PhiQ.shape[1]}")
    return PhiP, PhiQ


@np.errstate(over="ignore", invalid="ignore")
def _exact(PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> tuple[float, float, FitResult | None]:
    """A one-column fit's maximizer d, to adjacent floats, the maximum, and
    the fit there, evaluated as a loop step would. The fit is None where the
    objective grows without bound that way or its maximizer lies beyond the
    largest float (d and the maximum are then +-inf and inf), where the
    slope at 0 is not a finite float (both are then nan), and where the
    objective at d is not a finite float. There the maximum is taken in the
    slope's shifted form, which is inf only where the maximum passes the
    largest float. Float errors raise nothing: dq * dq may overflow, and so
    may a log-ratio at d, where the fit then declines; a half-line sum that
    overflows is taken as a mean instead."""
    n_p = PhiP.shape[0]
    p, q = np.sort(PhiP[:, 0]), PhiQ[:, 0]
    k = keep_count(cfg.nu, n_p)
    nu_eff = k / n_p
    l1, l2 = (cfg.lam, 0.0) if cfg.regularizer == "l1" else (0.0, cfg.lam)
    d = 0.0
    # delta = s * t with t >= 0 keeps the k smallest entries of s * PhiP.
    for s, kept, qs in ((1.0, p[:k], q), (-1.0, -p[-k:], -q)):
        a = kept.sum() / n_p
        if not math.isfinite(a):  # the sum overflows, and may be inf - inf; the mean does not
            a = (kept / n_p).sum()
        dq = qs - qs.max()
        # The slope in t tends to limit without l2sq, and equals it once the softmax saturates.
        limit = float(a - nu_eff * qs.max() - l1)
        # Where dq * dq overflows, its mean under the softmax is inf or nan:
        # it only steers the search, through a derivative no Newton step takes.
        dq2 = dq * dq
        f0, fp0 = _slope(0.0, dq, dq2, limit, nu_eff, l2)
        if not math.isfinite(f0):  # finite for finite inputs: an overflow, and no bracket
            return math.nan, math.nan, None
        if f0 <= 0.0:
            continue
        # Without l2sq, a limit >= 0 leaves the bracket's top open: no finite maximizer.
        bounded = l2 > 0.0 or limit < 0.0
        d = s * (_root(lambda t: _slope(t, dq, dq2, limit, nu_eff, l2), f0, fp0) if bounded else math.inf)
        break
    if not math.isfinite(d):
        return d, math.inf, None
    delta = np.array([d])
    # A log-ratio may overflow at a maximizer past about 1e308 / max|PhiP|.
    obj, w, low, _ = _point(delta, PhiP, PhiQ, k, cfg)
    if not math.isfinite(obj):
        # d != 0 (at 0 every log-ratio is 0), so the loop above broke out on
        # d's half-line: F = t (limit - l2 t) + nu_eff (log n_q - log sum exp(t dq)).
        t = abs(d)
        tail = math.log(qs.size) - math.log(float(np.exp(t * dq).sum()))
        return d, float(t * (limit - l2 * t) + nu_eff * tail), None
    return d, obj, FitResult(delta, w, obj, float(low[-1]), [(0, obj)], 1, "certified")


def _slope(t: float, dq, dq2, limit: float, nu_eff: float, l2: float) -> tuple[float, float]:
    """(f, f') at t on one half-line of a one-column fit: the objective's
    slope f = limit - nu_eff E[dq] - 2 l2 t and its derivative
    f' = -nu_eff (E[dq^2] - E[dq]^2) - 2 l2, both under the softmax of t * dq
    from one exp; dq2 is dq * dq. f is the sign _root trusts, f' only steers."""
    e = np.exp(t * dq)  # dq <= 0: t * dq can only overflow to -inf, where e is the limit 0
    z = float(e.sum())
    m1 = float(np.dot(e, dq)) / z
    m2 = float(np.dot(e, dq2)) / z
    return limit - nu_eff * m1 - 2.0 * l2 * t, -nu_eff * (m2 - m1 * m1) - 2.0 * l2


_TOP = 2.0**1023  # the largest power of two: the bracket's top goes no higher


def _root(slope, f0: float, fp0: float) -> float:
    """hi of adjacent floats 0 <= lo < hi where the computed slope changes
    sign, f(lo) > 0 >= f(hi); inf if f(_TOP) > 0. slope(t) returns (f, f'),
    and slope(0) is (f0, fp0) with f0 > 0.

    The sign of f alone moves the bracket [lo, hi], so the answer is a
    certificate whatever f' is. f' steers: each probe is a Newton step from
    the bracket end whose step is shorter, kept two ulps inside the bracket,
    so a step that has converged closes the bracket on its other side.
    An end where f is 0, or where f' is not finite and negative, takes no
    step: it says nothing about where the sign changes. The step is taken
    only while the search makes progress: the bracket's width has at least
    halved over the last two probes, or while its top is open, lo has
    doubled or the Newton step halved. Otherwise the probe doubles lo (from
    1 while lo is 0) while the top is open, and bisects once it is closed.

    The end-game: hi often converges first, to a point where f is exactly
    0, and then only lo steps; where f bends down, each of lo's Newton
    points lands past hi. One that passes hi by less than half the bracket
    is taken as saying that hi has converged, and the probe goes two ulps
    inside hi, which closes the bracket if so. A probe there that finds
    f <= 0 only moves hi two ulps, so the next point past hi bisects unless
    it lies within two ulps: where f is 0 or noise over many ulps below hi,
    the search does not crawl down them two at a time. lo needs no such
    rule: f(lo) > 0, so lo steps unless its f' is unusable.
    """
    lo, hi = 0.0, math.inf
    at_lo, at_hi = (0.0, f0, fp0), None  # (t, f, f') at each end probed
    back = [(math.inf, 0.0, math.inf)] * 2  # (width, lo, Newton step) at the last two probes
    missed = False  # the last probe went two ulps inside hi and found f <= 0
    while True:
        if hi < math.inf:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return hi
        elif lo == _TOP:
            return math.inf
        else:
            mid = min(2.0 * lo, _TOP) if lo > 0.0 else 1.0
        n, step = math.nan, math.inf
        for x, f, fp in filter(None, (at_lo, at_hi)):
            if f != 0.0 and -math.inf < fp < 0.0:
                m = min(x - f / fp, _TOP)
                if abs(m - x) < step:
                    n, step = m, abs(m - x)
        width2, lo2, step2 = back[0]
        if hi < math.inf:
            progress = hi - lo <= 0.5 * width2
        else:
            progress = lo >= 2.0 * lo2 or 0.0 < step <= 0.5 * step2
        back = [back[1], (hi - lo, lo, step)]
        t, near = mid, False
        if progress and math.isfinite(n):
            if not missed and hi <= n < hi + 0.5 * (hi - lo):
                n, near = hi, True
            c = 2.0 * math.ulp(n)
            if lo - c < n < hi + c:
                n = min(max(n, lo + c), hi - c, _TOP)
                if lo < n < hi:
                    t = n
        f, fp = slope(t)
        missed = near and f <= 0.0
        if f > 0.0:
            lo, at_lo = t, (t, f, fp)
        else:
            hi, at_hi = t, (t, f, fp)


def maxmin_1d(PhiP, PhiQ, cfg: TrimConfig) -> tuple[float, float]:
    """(delta, value) at the maximum of the trimmed objective on one
    feature column, as fit_featurized reports them where the fit is
    certified; (+-inf, inf) where the objective grows without bound that
    way, or its maximizer lies beyond the largest float (as it can under a
    tiny l2sq penalty). Where the maximizer delta is a float but a
    log-ratio there overflows, value is the maximum taken in the slope's
    shifted form (see _exact): inf only where the maximum passes the
    largest float. Raises ValueError where the slope at 0 overflows."""
    p, q = _features(PhiP, PhiQ)
    if p.shape[1] != 1:
        raise ValueError(f"maxmin_1d needs one feature column, got {p.shape[1]}")
    d, value, _ = _exact(p, q, cfg)
    if math.isnan(d):
        raise ValueError("the objective's slope at delta = 0 overflows: no bracket starts there")
    return d, value


# A product or sum of a running-away iterate may overflow: the loop reports
# that as FitDivergedError, on either thread, not as a float error.
@np.errstate(over="ignore", invalid="ignore")
def _ascend(PhiP: np.ndarray, PhiQ: np.ndarray, cfg: TrimConfig) -> FitResult:
    n_p, m = PhiP.shape
    k = keep_count(cfg.nu, n_p)
    nu_eff = k / n_p

    delta = np.zeros(m)
    trace: list[tuple[int, float]] = []
    # The running best of the last 51 iterations: the window rule compares
    # this iteration's with the one 50 iterations back.
    best_hist: deque[float] = deque(maxlen=51)
    best_obj = -np.inf
    delta_best = delta.copy()
    w_best = np.zeros(n_p)
    t_hat = np.nan
    stop_reason = "max_iter"
    ceiling = unbounded_threshold(cfg, n_p, PhiQ.shape[0])

    # This fit's worker thread, where the rule in the module docstring holds.
    worker = _DotWorker() if _large(PhiP, PhiQ) and _cpus() >= 2 else None
    pair = _dot_pair if worker is None else worker.pair
    try:
        for it in range(cfg.max_iter):
            obj, w, low, sm = _point(delta, PhiP, PhiQ, k, cfg, pair)
            if not math.isfinite(obj):
                raise FitDivergedError(it, float(np.max(np.abs(delta))))

            trace.append((it, obj))
            if obj > best_obj:
                best_obj = obj
                delta_best = delta.copy()
                w_best = w
                t_hat = float(low[-1])
            best_hist.append(best_obj)
            if obj > ceiling:
                stop_reason = "unbounded"
                break
            if it >= 50 and best_hist[-1] - best_hist[0] < WINDOW_TOL:
                stop_reason = "window"
                break

            eta = cfg.eta0 / math.sqrt(it + 1.0)
            # nu_eff = k / n_p, not sum(w): the two can differ in the last bit.
            g = _data_gradient(PhiP, PhiQ, w, sm, nu_eff, pair)
            if cfg.regularizer == "l1":
                delta = soft_threshold(delta + eta * g, eta * cfg.lam)
            elif cfg.regularizer == "l2sq":
                delta = delta + eta * (g - cfg.lam * (2.0 * delta))
            else:
                delta = delta + eta * g
    finally:
        if worker is not None:
            worker.stop()

    return FitResult(delta_best, w_best, best_obj, t_hat, trace, len(trace), stop_reason)


def _processes(tasks: list) -> int:
    """How many processes fit_many runs tasks on: one per CPU that _cpus()
    counts, at most one per task, or 1 for a serial loop.

    It forks only where that is safe and pays: os.fork exists, some task
    has more than one column (an exact one-column fit costs less than a
    fork), no task is _large (a large fit takes a second CPU with its
    worker thread instead, so the two paths never nest), and this process
    runs one thread (a fork copies only the calling thread, so a lock
    another thread holds stays held in the child forever).
    """
    if (
        not hasattr(os, "fork")
        or all(np.shape(P)[1:] == (1,) for P, _, _ in tasks)
        or threading.active_count() != 1
        or any(_large(P, Q) for P, Q, _ in tasks)
    ):
        return 1
    return min(_cpus(), len(tasks))


def _take(queue: int) -> int | None:
    """The next task index off the queue pipe; None once it is empty."""
    got = os.read(queue, 1)
    return got[0] if got else None


def _work(tasks: list, queue: int) -> dict[int, FitResult | Exception]:
    """Run the tasks whose indices this process takes off the queue.

    A fit that raises ends the work: its exception is the outcome, and
    the rest of the queue is emptied so that no process starts a later
    task, as a serial loop would stop there.
    """
    done: dict[int, FitResult | Exception] = {}
    for i in iter(lambda: _take(queue), None):
        try:
            done[i] = fit_featurized(*tasks[i])
        except Exception as exc:  # the serial loop's error, handed to the caller
            done[i] = exc
            while _take(queue) is not None:
                pass
    return done


def _child(tasks: list, queue: int, out: int) -> None:
    """A forked worker: run tasks off the queue, write the pickled
    outcomes to out, and end the process without returning."""
    code = 1
    try:
        with open(out, "wb") as f:
            pickle.dump(_work(tasks, queue), f, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


# One byte names a task on the queue pipe, and a round's queue is written
# whole before the first fork: 256 bytes fit in any pipe's buffer.
_ROUND = 256


def _fit_round(tasks: list, processes: int) -> dict[int, FitResult | Exception]:
    """Outcomes of tasks (at most _ROUND) run on this process and
    processes - 1 forked children, keyed by index.

    Every process takes the next index off one queue pipe whenever it is
    free, so a CPU that other work slows holds up only its own tasks.
    Children inherit the tasks at the fork and send back their outcomes
    once the queue is empty. An index missing from the result was taken
    by a child that ended without sending it. Children are reaped before
    this returns, and killed first if it raises.
    """
    fds, children = [], {}  # children: pid -> read end of its result pipe
    try:
        queue, w = os.pipe()
        fds.append(queue)
        os.write(w, bytes(range(len(tasks))))
        os.close(w)
        for _ in range(processes - 1):
            try:
                r, w = os.pipe()
            except OSError:  # out of descriptors: run on the processes there are
                break
            fds.append(r)
            try:
                pid = os.fork()
            except OSError:  # out of processes, likewise
                os.close(w)
                break
            if pid == 0:
                _child(tasks, queue, w)
            os.close(w)
            children[pid] = r
        done = _work(tasks, queue)
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as f:
                data = f.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status == 0:  # a child writes all its outcomes, then exits 0
                done.update(pickle.loads(data))
        return done
    except BaseException:
        import signal  # here, so that importing trdre does not load it (about 1 ms)

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def fit_many(tasks) -> list[FitResult]:
    """fit_featurized(PhiP, PhiQ, cfg) for each task (PhiP, PhiQ, cfg),
    the results in task order.

    When _processes allows, the fits run on this process and forked
    children, each on whichever process is free; otherwise one after
    another. Either way each result is the one fit_featurized returns for
    that task in a serial loop, bit for bit, since every fit runs the
    same single-threaded code. So is the error: the exception of the
    first task in task order that fails, with the same type and message,
    and no later task starts once a process has seen it fail. Its
    position in the list is stored as the exception's task_index. A task
    whose forked process ended without sending its outcome raises
    RuntimeError naming the task.
    """
    tasks = list(tasks)
    results: list[FitResult] = []
    for start in range(0, len(tasks), _ROUND):
        batch = tasks[start:start + _ROUND]
        done = _fit_round(batch, _processes(batch))
        for i in range(len(batch)):
            outcome = done.get(i)
            if not isinstance(outcome, FitResult):
                if outcome is None:
                    outcome = RuntimeError(
                        f"task {start + i} of fit_many got no result: the forked process that took it ended early"
                    )
                outcome.task_index = start + i
                raise outcome
            results.append(outcome)
    return results


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
    is the sup-norm distance of the data gradient at w_best from lam times
    the regularizer's subdifferential (minimal-norm element at zeros), a
    reported number: an exact optimum at a kink (delta = 0) can fail it.
    """

    weight_ok: bool
    max_weight_violation: float
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

    g = _data_gradient(PhiP, PhiQ, w, sm, float(np.sum(w)))
    # "none" has lam = 0: its residual is |g|, bit for bit.
    subgradient = 2.0 * delta if cfg.regularizer == "l2sq" else np.sign(delta)
    per_coord = np.abs(g - cfg.lam * subgradient)
    if cfg.regularizer == "l1":
        # At a zero coordinate the subdifferential is [-lam, lam].
        per_coord = np.where(delta != 0.0, per_coord, np.maximum(np.abs(g) - cfg.lam, 0.0))
    stationarity = float(np.max(per_coord))

    return KKTReport(weight_ok, max_viol, stationarity, stationarity <= STATIONARITY_TOL)


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
        "stop_reason": result.stop_reason,
        "config": config,
    }
