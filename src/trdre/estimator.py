"""Trimmed density ratio estimation by gradient ascent and trimming.

The estimator solves the convex max-min program

    max_delta  min_w  sum_i w_i * log rhat(x_p_i; delta)  -  lam * R(delta)
    s.t.       w in [0, 1/n_p]^{n_p},  <1, w> = nu,

where rhat is the self-normalized log-linear ratio model and nu in (0, 1]
is the fraction of numerator samples trusted to be inliers. For any fixed
delta the inner minimum is attained at a polytope vertex: weight 1/n_p on
the k_keep = round(nu * n_p) samples with the smallest log-ratio, weight 0
elsewhere. The outer loop therefore alternates, per iteration:

    1. rank X_p by log-ratio under the current delta: by the order of
       X_p's rows the loop carries, while it ranks the log-ratios with
       no tie at the cut, else by a value sort;
    2. assign the extreme-point weights w;
    3. step delta along the (sub)gradient with rate eta0 / sqrt(it + 1),
       reusing the last step's PhiP^T w when the kept set is unchanged,

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
(log_ratios returns its first output; gradient takes its softmax alone,
from the same np.dot(PhiQ, delta)), so the oracles check the loop's own
arithmetic. The loop and assign_weights rank through one helper, _trim.
Every feature-matrix product goes through np.dot.

Once delta settles, the kept set stops changing: in one pass of the
outlier_1d benchmark (56 fits at n_p = 5000) it repeated on 3,646 of
3,674 steps. So the loop carries, from step to step, the weights w its
last step took and PhiP^T w. A step whose kept set equals the last
step's computes PhiQ^T softmax alone. The first time that happens, the
loop also takes one np.argsort of the log-ratios as its order of X_p's
rows, if that order has no tie at the cut. From then on _trim first
tries the order: where the log-ratios taken in that order are
non-decreasing with no tie at the cut, the k smallest are the first k of
them and the kept set is the order's first k, so no sort runs and w is
the last step's. The first time the order fails, the fit drops it and
sorts on every later step. Every value, weight and product is the one the
value sort gives, bit for bit: the order's values are the same numbers,
its kept set is the stable argsort's, and a reused product was computed
from equal weights. A fit whose ranking changes every step (the rbf and
quadratic benchmark fits) pays at most one argsort and one O(n_p)
comparison of the weights per step.

Each ascent step computes two pairs of independent products, PhiQ delta
with PhiP delta, and PhiP^T w with PhiQ^T softmax. A fit runs the two of
each pair on two threads (np.dot releases the GIL) when all of these
hold: both matrices have at least 2**20 entries, the process may run on
two CPUs, and the environment pins OpenBLAS to one thread per call (a
multi-threaded BLAS already uses the second CPU, and two such calls at
once oversubscribe it). fit_featurized then starts one worker thread
(_DotWorker) and stops it before it returns or raises, so no thread
outlives a fit; the oracles and kkt_check, single evaluations, run
serially. Each product is the same np.dot call whichever thread runs
it, so no output bit depends on the path. Measured on a 2-vCPU KVM guest
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

fit_many runs a list of independent fits, the sweeps of the experiments
and evaluation modules, and returns their results in task order. Where
the machine allows, it spreads them over this process and forked
children, one process per allowed CPU (see _processes). Each fit is the
same single-threaded fit_featurized call whichever process runs it, so
no output bit depends on the number of CPUs.
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

from .ratio_model import FeatureMap, _dot_pair, _evaluate, as_sample_matrix, featurize, softmax_weights

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
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
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


def _trim(
    lr: np.ndarray, k: int, order: np.ndarray | None = None, w: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Weights 1/n_p on the k smallest log-ratios, those k values in
    ascending order, and whether order ranked them.

    Ties at the threshold t = k-th smallest value go to the lower index:
    every lr <= t is kept, then the surplus indices where lr == t are
    dropped from the highest index down, which leaves the kept set of a
    stable argsort. A value sort plus these O(n) masks costs a fraction
    of the argsort (about 8x less at n = 5000). The weights are
    keep * (1 / n): 1.0 * fl(1/n) is fl(1/n), the bits of keep / n, for a
    multiply in place of a divide.

    order, if given, is a permutation of lr's indices, and w the weights
    of its first k. Where g = lr.take(order) is non-decreasing with no tie
    at the cut (g[k] > g[k - 1], or k = n), the k smallest values are
    g[:k] and the kept set is order[:k], which no other index ties with:
    w itself is returned, no sort runs, and the flag is True. Otherwise
    the value sort runs, and the flag is False.

    Either way the vectorized sort or the order may permute signed zeros,
    so a block of zeros among the k values is refilled from lr in index
    order. The values are then bitwise those of lr at the stable
    argsort's first k indices, and the last one is lr at the last kept
    index tied at t. A NaN fails the order's checks; on the sort path lr
    must be NaN-free.
    """
    n = lr.size
    held = False
    if order is not None:
        g = lr.take(order)
        held = (k == n or g[k] > g[k - 1]) and bool((g[1:] >= g[:-1]).all())
    if held:
        low = g[:k]
    else:
        low = np.sort(lr)[:k]
        t = low[-1]
        keep = lr <= t
        surplus = np.count_nonzero(keep) - k
        if surplus:
            keep[np.flatnonzero(lr == t)[-surplus:]] = False
        w = keep * (1.0 / n)
    if low[0] <= 0.0 <= low[-1]:
        i = low.searchsorted(0.0, "left")
        if low[i] == 0.0:
            j = low.searchsorted(0.0, "right")
            low[i:j] = lr[lr == 0.0][: j - i]
    return w, low, held


def _data_gradient(
    PhiP: np.ndarray, PhiQ: np.ndarray, w: np.ndarray, sm: np.ndarray, nu: float
) -> np.ndarray:
    """Phi_p^T w - nu * Phi_q^T sm, the gradient of the weighted log-ratio
    sum; the ascent loop forms the same difference from its own products."""
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
    w, _, _ = _trim(lr, keep_count(nu, lr.size))
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
    the regularizer term is not included. The softmax is the loop's, from
    np.dot(PhiQ, delta) alone.
    """
    delta = np.asarray(delta, dtype=float)
    w = np.asarray(w, dtype=float)
    if PhiP.shape[1:] != delta.shape:
        # PhiP^T w has PhiP's column count, and one column would broadcast.
        raise ValueError(f"delta has shape {delta.shape}, expected ({PhiP.shape[1]},)")
    return _data_gradient(PhiP, PhiQ, w, softmax_weights(delta, PhiQ), float(np.sum(w)))


def unbounded_threshold(nu_eff: float, n_q: int) -> float:
    """nu_eff * log n_q plus UNBOUNDED_SLACK: an objective above it proves
    that no finite maximizer exists (see the module docstring)."""
    return nu_eff * math.log(n_q) + UNBOUNDED_SLACK


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


_OVERLAP_MIN_SIZE = 1 << 20  # entries each matrix needs before a fit overlaps its products
# OpenBLAS takes its thread count from the first of these holding a positive integer.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_single_threaded() -> bool:
    """Whether the environment pins OpenBLAS to one thread per call."""
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n == 1
    return False


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_LATE = 1.25  # a worker product this many times the caller's expected time is late


class _DotWorker:
    """A thread that computes np.dot(A, x) while its caller computes a
    second product; np.dot releases the GIL inside the BLAS. The caller
    starts it, passes pair where a pair function is taken, and stops it.
    Each product runs in a copy of the caller's context at that call, so
    the caller's np.errstate applies on both threads.

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


# True while a round of forked fits is out; forked children inherit it.
# Every fit then runs its products serially: the CPUs are taken.
_round_out = False


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
    # The running best of the last 51 iterations: the window rule compares
    # this iteration's with the one 50 iterations back.
    best_hist: deque[float] = deque(maxlen=51)
    best_obj = -np.inf
    delta_best = delta.copy()
    w_best = np.zeros(n_p)
    t_hat = np.nan
    stop_reason = "max_iter"
    # The certificate needs a penalty that scales linearly along a ray.
    linear = cfg.regularizer != "l2sq" or cfg.lam == 0.0
    ceiling = unbounded_threshold(nu_eff, PhiQ.shape[0]) if linear else math.inf

    # This fit's worker thread, where the rule in the module docstring holds.
    worker = None
    if (
        not _round_out
        and min(PhiP.size, PhiQ.size) >= _OVERLAP_MIN_SIZE
        and _cpu_count() >= 2
        and _blas_single_threaded()
    ):
        worker = _DotWorker()
    pair = _dot_pair if worker is None else worker.pair
    # Carried from step to step (see the module docstring): the weights the
    # last step took and PhiP^T times them, and the order of X_p's rows.
    w_step = gp = order = None
    may_order = True
    try:
        for it in range(cfg.max_iter):
            lr, sm = _evaluate(delta, PhiP, PhiQ, pair)
            w, low, held = _trim(lr, k, order, w_step)
            if not held:
                order = None
            obj = float(low.sum() / n_p - cfg.lam * _reg_value(delta, cfg))
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
            if it >= 50 and best_hist[-1] - best_hist[0] < cfg.tol:
                stop_reason = "window"
                break

            eta = cfg.eta0 / math.sqrt(it + 1.0)
            if w is w_step or w_step is not None and (w == w_step).all():
                # The last step's kept set: gp is PhiP^T w still.
                gq = np.dot(PhiQ.T, sm)
                if may_order:
                    # Any argsort: the order is used only while it has no tie at the cut.
                    may_order = False
                    order = np.argsort(lr)
                    if k < n_p and not lr[order[k]] > lr[order[k - 1]]:
                        order = None
            else:
                gp, gq = pair(PhiP.T, w, PhiQ.T, sm)
                w_step = w
            # nu_eff = k / n_p, not sum(w): the two can differ in the last bit.
            g = gp - nu_eff * gq
            # "none" has the zero gradient: g - lam * 0 is g, bit for bit.
            if cfg.regularizer == "l1":
                delta = soft_threshold(delta + eta * g, eta * cfg.lam)
            elif cfg.regularizer == "l2sq":
                delta = delta + eta * (g - cfg.lam * _reg_subgradient(delta, cfg))
            else:
                delta = delta + eta * g
    finally:
        if worker is not None:
            worker.stop()

    return FitResult(
        delta_best=delta_best,
        w_best=w_best,
        objective_best=best_obj,
        t_hat=t_hat,
        trace=trace,
        iterations_run=len(trace),
        stop_reason=stop_reason,
    )


def _processes(n_tasks: int) -> int:
    """How many processes fit_many runs n_tasks fits on: one per CPU in
    the affinity mask, at most n_tasks, or 1 for a serial loop.

    It forks only where that is safe and pays: os.fork exists, there are
    two tasks or more, the process may use two CPUs or more, OpenBLAS is
    pinned to one thread per call (_blas_single_threaded; a
    multi-threaded BLAS already fills the CPUs, and its thread pool would
    be forked mid-use), and this process runs one thread (a fork copies
    only the calling thread, so a lock another thread holds stays held in
    the child forever).
    """
    if (
        not hasattr(os, "fork")
        or n_tasks < 2
        or threading.active_count() != 1
        or not _blas_single_threaded()
    ):
        return 1
    return min(_cpu_count(), n_tasks)


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
    global _round_out
    fds, children = [], {}  # children: pid -> read end of its result pipe
    round_out = _round_out
    if processes > 1:
        _round_out = True
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
        _round_out = round_out


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
        done = _fit_round(batch, _processes(len(batch)))
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
