"""Per-layer tracing for the benchmark's traced run.

Layers are the modules of trdre. A Tracer wraps the public functions of
each layer from the outside (every module-level name bound to the function
is rebound while tracing) and records one span per outermost call of a
layer: nested calls into the same layer are folded into the outer span. A
span's self time is its duration minus its direct children. After a traced
pass, the recorded fits are replayed to time the steps of one ascent
iteration that the loop runs inline (softmax, ranking, gradient, proximal
step).

Which end-to-end metric each layer metric should move, and where:

- ratio_model: featurize.*, bandwidth.s -> wall_s, peak_rss_mb on fit_rbf_csv;
  softmax.* -> wall_s on mn_path (the only workload whose softmax underflows).
- estimator: fit.* -> wall_s, stationarity on mn_path; rank.us -> wall_s and
  op_s_p50 on outlier_1d; grad.us -> mn_path and fit_rbf_csv; prox.us ->
  mn_path; kkt.s.
- evaluation: eval.s (support metrics and AUC on mn_path, ratio-curve error
  inside outlier_1d).
- storage: read.*, write.* -> fit_rbf_csv (reads and writes) and outlier_1d
  (writes).
- synthetic: gen.s -> outlier_1d.
- experiments: experiment.* -> outlier_1d.
- cli: cli.* -> outlier_1d and fit_rbf_csv.

iter.flops and iter.bytes are computed from array shapes (not counted by
hardware), per ascent iteration: the four matvecs with PhiP and PhiQ plus
the O(n) vector work, and each matrix read twice.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import trdre.cli
import trdre.estimator
import trdre.evaluation
import trdre.experiments
import trdre.ratio_model
import trdre.storage
import trdre.synthetic
from trdre.estimator import assign_weights, gradient, soft_threshold
from trdre.ratio_model import log_ratios, softmax_weights

TINY = np.finfo(float).tiny
REPLAY_REPEATS = 7

# (layer, functions): every call of one of these functions is a span of the
# layer. These are the public functions the three workloads reach.
LAYERS = (
    ("cli", (trdre.cli.main,)),
    ("experiment", (trdre.experiments.run_outlier1d,)),
    ("gen", (trdre.synthetic.gen_outlier_1d,)),
    ("featurize", (trdre.ratio_model.featurize,)),
    ("bandwidth", (trdre.ratio_model.median_pairwise_distance,)),
    ("fit", (trdre.estimator.fit_featurized,)),
    ("kkt", (trdre.estimator.kkt_check,)),
    ("eval", (trdre.evaluation.differential_precision_matrix, trdre.evaluation.support_metrics,
              trdre.evaluation.auc_tnr_tpr, trdre.evaluation.ratio_curve_error)),
    ("read", (trdre.storage.read_numeric_csv,)),
    ("write", (trdre.storage.write_text_atomic,)),
)

# Per-layer metrics, as (name, unit); the order of BENCHMARK.json.
METRICS = (
    ("featurize.s", "s"), ("featurize.calls", "count"), ("featurize.bytes", "byte"),
    ("bandwidth.s", "s"),
    ("softmax.us", "us"), ("softmax.subnormal_frac", "ratio"), ("softmax.zero_frac", "ratio"),
    ("softmax.subnormal_fit_share", "ratio"),
    ("fit.s", "s"), ("fit.calls", "count"), ("fit.iters", "count"), ("fit.us_per_iter", "us"),
    ("fit.maxiter_frac", "ratio"), ("fit.zero_delta", "count"),
    ("rank.us", "us"), ("grad.us", "us"), ("prox.us", "us"), ("kkt.s", "s"),
    ("iter.flops", "flop"), ("iter.bytes", "byte"), ("iter.flops_per_byte", "flop/byte"),
    ("eval.s", "s"), ("read.s", "s"), ("read.bytes", "byte"), ("write.s", "s"),
    ("write.bytes", "byte"), ("gen.s", "s"), ("experiment.s", "s"), ("experiment.self_s", "s"),
    ("cli.s", "s"), ("cli.self_s", "s"), ("trace.overhead_frac", "ratio"),
)


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


class Tracer:
    """Spans and counts of one traced pass; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, float] = {}
        self.fits: list[tuple] = []
        self.patched: list[tuple] = []

    def reset(self) -> None:
        self.spans, self.stack, self.counts, self.fits = [], [], {}, []

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(s.layer == layer for s in self.stack):
                return fn(*args, **kwargs)
            span = Span(layer, time.perf_counter())
            self.stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child_s += span.end - span.start
                self.spans.append(span)
            self._observe(layer, args, out)
            return out

        return traced

    def _observe(self, layer: str, args, out) -> None:
        if layer == "featurize":
            self._count("featurize.calls", 1)
            self._count("featurize.bytes", out.nbytes)
        elif layer == "fit":
            self.fits.append((*args[:3], out))
        elif layer == "read":
            self._count("read.bytes", os.path.getsize(args[0]))
        elif layer == "write":
            self._count("write.bytes", len(args[1].encode("utf-8")))

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "trdre" or name.startswith("trdre.")]
        for layer, fns in LAYERS:
            for fn in fns:
                wrapper = self._wrap(layer, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched = []

    def pass_metrics(self) -> dict[str, float]:
        """Span totals and counts of the pass since the last reset."""
        out = {f"{layer}.s": 0.0 for layer, _ in LAYERS}
        out.update({"cli.self_s": 0.0, "experiment.self_s": 0.0})
        for span in self.spans:
            dur = span.end - span.start
            out[f"{span.layer}.s"] += dur
            if span.layer in ("cli", "experiment"):
                out[f"{span.layer}.self_s"] += dur - span.child_s
        for key in ("featurize.calls", "featurize.bytes", "read.bytes", "write.bytes"):
            out[key] = self.counts.get(key, 0.0)
        fits = self.fits
        out["fit.calls"] = len(fits)
        iters = sum(res.iterations_run for *_, res in fits)
        out["fit.iters"] = iters
        out["fit.us_per_iter"] = out["fit.s"] / iters * 1e6 if iters else 0.0
        stopped = sum(res.iterations_run == cfg.max_iter and not res.converged for _, _, cfg, res in fits)
        out["fit.maxiter_frac"] = stopped / len(fits) if fits else 0.0
        out["fit.zero_delta"] = sum(not np.any(res.delta_best) for *_, res in fits)
        flops = sum(res.iterations_run * _iter_flops(P, Q) for P, Q, _, res in fits)
        nbytes = sum(res.iterations_run * _iter_bytes(P, Q) for P, Q, _, res in fits)
        out["iter.flops"] = flops / iters if iters else 0.0
        out["iter.bytes"] = nbytes / iters if iters else 0.0
        out["iter.flops_per_byte"] = flops / nbytes if nbytes else 0.0
        return out


def _iter_flops(PhiP, PhiQ) -> float:
    (n_p, m), n_q = PhiP.shape, PhiQ.shape[0]
    return 4.0 * m * (n_p + n_q) + 5.0 * n_q + 2.0 * n_p + 4.0 * m


def _iter_bytes(PhiP, PhiQ) -> float:
    (n_p, m), n_q = PhiP.shape, PhiQ.shape[0]
    return 8.0 * (2.0 * m * (n_p + n_q) + 4.0 * n_q + 4.0 * n_p + 4.0 * m)


def _replay_us(fn, *args) -> float:
    """Median wall time of REPLAY_REPEATS calls, in microseconds."""
    times = []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def replay_metrics(fits) -> dict[str, float]:
    """Replay one iteration's steps at each recorded fit's delta_best.

    Times are medians over fits; the softmax fractions pool the weights of
    all fits.
    """
    soft, rank, grad, prox, sub_share = [], [], [], [], []
    n_weights = n_sub = n_zero = 0
    for PhiP, PhiQ, cfg, res in fits:
        delta = res.delta_best
        sm = softmax_weights(delta, PhiQ)
        sub = int(np.count_nonzero((sm > 0.0) & (sm < TINY)))
        n_weights += sm.size
        n_sub += sub
        n_zero += int(np.count_nonzero(sm == 0.0))
        sub_share.append(sub > 0)
        soft.append(_replay_us(softmax_weights, delta, PhiQ))
        rank.append(_replay_us(assign_weights, log_ratios(delta, PhiP, PhiQ), cfg.nu))
        grad.append(_replay_us(gradient, delta, res.w_best, PhiP, PhiQ))
        if cfg.regularizer == "l1":
            eta = cfg.eta0 / math.sqrt(res.iterations_run)
            step = delta + eta * gradient(delta, res.w_best, PhiP, PhiQ)
            prox.append(_replay_us(soft_threshold, step, eta * cfg.lam))

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "softmax.us": med(soft),
        "softmax.subnormal_frac": n_sub / n_weights if n_weights else 0.0,
        "softmax.zero_frac": n_zero / n_weights if n_weights else 0.0,
        "softmax.subnormal_fit_share": sum(sub_share) / len(sub_share) if sub_share else 0.0,
        "rank.us": med(rank),
        "grad.us": med(grad),
        "prox.us": med(prox),
    }


# Predicted split of one iteration's cost (from measurements in the issue
# that defined the benchmark): which replayed step dominates, and whether
# the softmax holds subnormal weights.
PREDICTED = {
    "mn_path": ("grad", True),
    "outlier_1d": ("rank", False),
    "fit_rbf_csv": ("grad", False),
}


def split_verdict(workload: str, metrics: dict[str, float]) -> dict:
    steps = {k: metrics[f"{k}.us"] for k in ("softmax", "rank", "grad", "prox")}
    dominant = max(steps, key=steps.get)
    subnormal = metrics["softmax.subnormal_fit_share"] > 0.0
    want_dominant, want_subnormal = PREDICTED[workload]
    return {
        "predicted_dominant": want_dominant,
        "observed_dominant": dominant,
        "predicted_subnormal": want_subnormal,
        "observed_subnormal": subnormal,
        "holds": dominant == want_dominant and subnormal == want_subnormal,
    }
