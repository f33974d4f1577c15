"""trdre benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload mn_path --seed 44 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process
    python3 bench/run.py --self-check            # the checks catch a delta = 0 fit

Run from a source checkout (the package is imported from ./src). Workloads
(see workloads.py): mn_path, outlier_1d, fit_rbf_csv. Each is a closed
loop, one client issuing operations back to back; a pass is the
workload's fixed list of operations, and passes repeat until --seconds
is used up.

End-to-end metrics (--trace 0, nothing wrapped):
  wall_s       time of one pass: per operation the median over passes, summed
  op_s_p50     median time of one operation over every operation run
  setup_s      median of several set-ups: importing trdre (in a fresh
               interpreter), generating inputs, writing input CSVs, warm-up
  peak_rss_mb  peak resident set of this process

Per-layer metrics (--trace 1; see layers.py) come from a separate traced
run: the first half of --seconds runs untraced, the second half traced,
and trace.overhead_frac = traced wall_s / untraced wall_s - 1.

Every operation's outputs are checked (see workloads.py); a failed check
counts the operation as failed. Before the result, one JSON line reports
the environment, the output fingerprint (not gated), fail_frac with its
counts, the median stationarity residual of the fits, and the
workload-specific quality numbers (auc_margin on mn_path, delta_err on
outlier_1d). The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; correct is false when a check
failed or the outputs differed between passes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TRDRE_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("mn_path", "outlier_1d", "fit_rbf_csv")
SETUP_REPEATS = 7
DEFAULT_SEED = 44
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import trdre, trdre.cli, trdre.experiments; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import trdre in a fresh interpreter (the set-up every CLI user pays)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TRDRE_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Section:
    """Closed-loop timed section: whole passes until `seconds` is used up."""

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.times: list[list[float]] = []
        self.failures: dict[str, int] = {}
        self.failed = 0
        self.stationarity: list[float] = []
        self.outcomes = []

    def run_pass(self) -> None:
        times, outputs = [], []
        for op in self.ops:
            t0 = time.perf_counter()
            out = op.run()
            times.append(time.perf_counter() - t0)
            fails, stationarity = op.check(out)
            outputs.append(out)
            self.stationarity += stationarity
            for reason in fails:
                self.failures[reason] = self.failures.get(reason, 0) + 1
            self.failed += bool(fails)
        self.times.append(times)
        self.outcomes.append(self.workload.outcome(outputs))

    def run(self, seconds: float, after_pass=None) -> "Section":
        start = time.perf_counter()
        while True:
            self.run_pass()
            if after_pass is not None:
                after_pass()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(self.times) > seconds:
                return self

    @property
    def attempted(self) -> int:
        return len(self.times) * len(self.ops)

    def wall_s(self) -> float:
        return sum(statistics.median(col) for col in zip(*self.times))

    def op_s_p50(self) -> float:
        return statistics.median(t for row in self.times for t in row)


def load_workloads():
    """Import the workloads module, which imports trdre from ./src."""
    if not (SRC / "trdre").is_dir():
        raise SystemExit(f"error: no trdre package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def remove_work(work: Path) -> None:
    """Delete a run's scratch directory, and the parent once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def measure_plain(workload, ops, seconds: float, setups: list[float], report: dict):
    """End-to-end metrics from one untraced section."""
    section = Section(workload, ops).run(seconds)
    report["op_labels"] = [op.label for op in ops]
    report["op_s"] = section.times
    metrics = {
        "wall_s": section.wall_s(),
        "setup_s": statistics.median(setups),
        "op_s_p50": section.op_s_p50(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"wall_s": "s", "setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
    return metrics, units, [section]


def measure_traced(workload, ops, seconds: float, report: dict):
    """Per-layer metrics: half the time untraced, half traced, then replays."""
    import layers

    plain = Section(workload, ops).run(seconds / 2)
    tracer = layers.Tracer()
    per_pass, fits = [], []

    def after_pass():
        per_pass.append(tracer.pass_metrics())
        fits[:] = tracer.fits
        tracer.reset()

    tracer.install()
    try:
        traced = Section(workload, ops).run(seconds / 2, after_pass)
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(layers.replay_metrics(fits))
    metrics["trace.overhead_frac"] = traced.wall_s() / plain.wall_s() - 1.0
    metrics = {name: metrics[name] for name, _ in layers.METRICS}
    report["split"] = layers.split_verdict(workload.name, metrics)
    report["passes"] = {"untraced": len(plain.times), "traced": len(traced.times)}
    return metrics, dict(layers.METRICS), [plain, traced]


def run_workload(args) -> int:
    workload = load_workloads().WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imp = import_seconds()
            t0 = time.perf_counter()
            workload.prepare(args.seed, work)
            setups.append(imp + time.perf_counter() - t0)
        ops = workload.ops()
        if args.trace:
            metrics, units, sections = measure_traced(workload, ops, args.seconds, report)
        else:
            metrics, units, sections = measure_plain(workload, ops, args.seconds, setups, report)
    finally:
        remove_work(work)

    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections)
    fingerprints = sorted({o.fingerprint for s in sections for o in s.outcomes})
    stationarity = [x for s in sections for x in s.stationarity]
    failures: dict[str, int] = {}
    for s in sections:
        for reason, n in s.failures.items():
            failures[reason] = failures.get(reason, 0) + n
    report.update({
        "environment": environment(),
        "fail_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                      "reasons": failures},
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "stationarity_p50": statistics.median(stationarity) if stationarity else None,
        "quality": sections[-1].outcomes[-1].quality,
        "setup_s_samples": setups,
    })
    print(json.dumps(report, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and len(fingerprints) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def self_check() -> int:
    """The RBF fit with eta0 = 1 returns delta = 0 and must count as failed."""
    workload = load_workloads().FitRbfCsv(eta0=1.0)
    work = WORK / f"self-check-{os.getpid()}"
    try:
        workload.prepare(DEFAULT_SEED, work)
        op = workload.ops()[0]
        fails, _ = op.check(op.run())
    finally:
        remove_work(work)
    caught = "zero delta" in fails
    print(f"self-check: fit_rbf_csv with eta0=1 -> failures {fails}; "
          f"{'counted as failed' if caught else 'NOT caught'}")
    return 0 if caught else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = []
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
