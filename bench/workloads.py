"""The three benchmark workloads: input generation, operations, output checks.

Each workload is a closed loop: one client issues its operations back to
back, and a *pass* is the workload's fixed list of operations. Inputs come
only from the workload seed. Checks run after each operation, outside its
timing, and every failed check marks that operation as failed:

- the self-normalization identity |mean over X_q of r_hat - 1| < 1e-10;
- the KKT weight structure: the kept set is the k smallest log-ratios,
  split at t_hat;
- a zero coefficient vector (a fit that silently returned delta = 0);
- a nonzero exit code from the CLI;
- on outlier_1d, test_07's tolerance |delta_trimmed - 0.75| < 0.15 at b >= 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

# Calls go through the module attributes, so the traced run (layers.py) sees them.
from trdre import cli, estimator, evaluation, ratio_model, storage
from trdre.estimator import TrimConfig

# Bound by name so the checks' own data regeneration stays out of the trace.
from trdre.synthetic import gen_outlier_1d

SELF_NORM_TOL = 1e-10
OUTLIER_TOL = 0.15  # test_07's tolerance on the trimmed coefficient at b >= 3


@dataclass
class Op:
    """One operation. `run` is timed; `check(output)` is not, and returns
    the failure reasons plus the stationarity residuals of the fits."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[float]]]


@dataclass
class Outcome:
    """What one pass produced, for the report (not timed)."""

    fingerprint: str
    quality: dict


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)]


def _keep_count(nu: float, n: int) -> int:
    return min(n, int(math.floor(nu * n + 0.5)))


def check_fit(zp, zq, delta, nu, t_hat=None, kept=None) -> list[str]:
    """Failure reasons for one fit, from its scores zp = PhiP delta and
    zq = PhiQ delta, computed without the library. The weight structure is
    checked when t_hat is given: against the kept indices when those are
    given too, otherwise by counting log-ratios on each side of t_hat.
    """
    fails = []
    if not np.any(delta):
        fails.append("zero delta")
    m = float(np.max(zq))
    log_norm = m + math.log(float(np.mean(np.exp(zq - m))))
    if not abs(float(np.mean(np.exp(zq - log_norm))) - 1.0) < SELF_NORM_TOL:
        fails.append("self-normalization")
    if t_hat is not None:
        lr = zp - log_norm
        n = lr.size
        k = _keep_count(nu, n)
        tol = 1e-9 * (1.0 + abs(t_hat))
        if kept is None:
            ok = np.sum(lr < t_hat - tol) <= k <= np.sum(lr <= t_hat + tol)
        else:
            mask = np.zeros(n, dtype=bool)
            mask[kept] = True
            ok = (
                int(mask.sum()) == k
                and float(np.max(lr[mask])) <= t_hat + tol
                and (k == n or float(np.min(lr[~mask])) >= t_hat - tol)
            )
        if not ok:
            fails.append("kkt weight structure")
    return fails


def stationarity_unregularized(PhiP, PhiQ, delta, nu) -> float:
    """max |PhiP^T w - nu_eff PhiQ^T softmax(PhiQ delta)| with w on the k smallest log-ratios."""
    n = PhiP.shape[0]
    k = _keep_count(nu, n)
    zq = PhiQ @ delta
    e = np.exp(zq - np.max(zq))
    kept = np.argsort(PhiP @ delta, kind="stable")[:k]
    g = PhiP[kept].sum(axis=0) / n - (k / n) * (PhiQ.T @ (e / e.sum()))
    return float(np.max(np.abs(g)))


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _run_cli(argv: list[str]) -> int:
    """Run the trdre CLI in-process with its stdout discarded; return the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# mn_path: test_08's Gaussian MN protocol on the library, one l1 path per
# condition. The network pair is test_08's seed-44 pair (untrimmed fits have
# no finite maximizer, so their softmax underflows); --seed draws the samples.
# The generator is a copy of the one in trdre.synthetic at the time the
# benchmark was written, so a change there cannot silently change the load.

MN_D, MN_N, MN_CHANGED = 25, 500, 20
MN_PAIR_SEED = _child_seeds(44, 3)[0]
MN_GRID = (1e-3, 3e-2, 1.0)
MN_NU = 0.9


def mn_pair(d: int, n_changed: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse precision pair (theta_p, theta_q), both positive definite."""
    rng = np.random.default_rng(seed)
    n_pairs = d * (d - 1) // 2
    rows, cols = np.triu_indices(d, k=1)
    for _ in range(100):
        present = rng.random(n_pairs) < 2.0 / d
        theta_q = np.zeros((d, d))
        theta_q[rows, cols] = rng.choice([-0.3, 0.3], size=n_pairs) * present
        theta_q += theta_q.T
        theta_q[np.diag_indices(d)] = np.sum(np.abs(theta_q), axis=1) + 0.5
        chosen = rng.choice(n_pairs, size=n_changed, replace=False)
        signs = rng.choice([-0.3, 0.3], size=n_changed)
        theta_p = theta_q.copy()
        for idx, s in zip(chosen, signs):
            i, j = int(rows[idx]), int(cols[idx])
            theta_p[i, j] += s
            theta_p[j, i] += s
        if np.min(np.linalg.eigvalsh(theta_p)) > 0.0 and np.min(np.linalg.eigvalsh(theta_q)) > 0.0:
            return theta_p, theta_q
    raise RuntimeError("no positive definite pair found")


def mn_sample(precision: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n draws from N(0, precision^-1) through the Cholesky factor."""
    L = np.linalg.cholesky(precision)
    eps = np.random.default_rng(seed).standard_normal((precision.shape[0], n))
    return solve_triangular(L.T, eps, lower=False).T


class MnPath:
    name = "mn_path"

    def prepare(self, seed: int, work: Path) -> None:
        theta_p, theta_q = mn_pair(MN_D, MN_CHANGED, MN_PAIR_SEED)
        self.delta_star = theta_p - theta_q
        ss = _child_seeds(seed, 3)
        xp_clean = mn_sample(theta_p, MN_N, ss[1])
        xq = mn_sample(theta_q, MN_N, ss[2])
        xp_out = np.vstack([xp_clean, np.full((1, MN_D), 10.0)])
        fmap = ratio_model.PairwiseQuadraticFeatures()
        self.PhiQ = ratio_model.featurize(xq, fmap)
        phi_out, phi_clean = ratio_model.featurize(xp_out, fmap), ratio_model.featurize(xp_clean, fmap)
        self.conditions = (
            ("dre_outlier", phi_out, 1.0),
            ("trdre_outlier", phi_out, MN_NU),
            ("dre_gold", phi_clean, 1.0),
        )
        warm = TrimConfig(eta0=0.1, max_iter=20, regularizer="l1", lam=MN_GRID[0])
        estimator.kkt_check(estimator.fit_featurized(phi_out, self.PhiQ, warm), phi_out, self.PhiQ, warm)

    def ops(self) -> list[Op]:
        ops = []
        for name, PhiP, nu in self.conditions:
            for lam in MN_GRID:
                cfg = TrimConfig(nu=nu, lam=lam, regularizer="l1", eta0=0.1, max_iter=2000)

                def run(PhiP=PhiP, cfg=cfg):
                    res = estimator.fit_featurized(PhiP, self.PhiQ, cfg)
                    return res, estimator.kkt_check(res, PhiP, self.PhiQ, cfg)

                def check(out, PhiP=PhiP, nu=nu):
                    res, report = out
                    d = res.delta_best
                    fails = check_fit(PhiP @ d, self.PhiQ @ d, d, nu, res.t_hat, res.kept_indices)
                    return fails, [report.stationarity]

                ops.append(Op(f"{name}@{lam:g}", run, check))
        return ops

    def outcome(self, outputs: list) -> Outcome:
        """Fingerprint of the delta_best bytes, and the AUC of each condition."""
        h = hashlib.sha256()
        for res, _ in outputs:
            h.update(res.delta_best.tobytes())
        aucs = {}
        per = len(MN_GRID)
        for c, (name, _, _) in enumerate(self.conditions):
            points = []
            for res, _ in outputs[c * per:(c + 1) * per]:
                dh = evaluation.differential_precision_matrix(res.delta_best, MN_D)
                tpr, tnr = evaluation.support_metrics(dh, self.delta_star, 1e-6)
                points.append((tnr, tpr))
            aucs[name] = evaluation.auc_tnr_tpr(points)
        margin = aucs["trdre_outlier"] - aucs["dre_outlier"]
        return Outcome(h.hexdigest(), {"auc": aucs, "auc_margin": margin})


# ---------------------------------------------------------------------------
# outlier_1d: `trdre experiment outlier1d` at the paper's scale, in-process,
# one command per derived seed.

O1_SEEDS_PER_PASS = 4
O1_N_GOOD, O1_N_OUT, O1_N_Q, O1_NU = 4000, 1000, 5000, 0.8
O1_ARGS = ["--n-good", str(O1_N_GOOD), "--n-out", str(O1_N_OUT), "--n-q", str(O1_N_Q),
           "--b-grid", "0,1,2,3,4,5,6", "--nu", str(O1_NU)]


class Outlier1d:
    name = "outlier_1d"

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        self.seeds = [s % 2**31 for s in _child_seeds(seed, O1_SEEDS_PER_PASS)]
        rc = _run_cli(["experiment", "outlier1d", "--n-good", "400", "--n-out", "100",
                       "--n-q", "500", "--b-grid", "3", "--out", str(work / "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up command exited with {rc}")

    def _out(self, seed: int) -> Path:
        return self.work / f"outlier1d-{seed}"

    def ops(self) -> list[Op]:
        return [
            Op(
                f"seed={s}",
                lambda s=s: _run_cli(["experiment", "outlier1d", *O1_ARGS,
                                      "--seed", str(s), "--out", str(self._out(s))]),
                lambda rc, s=s: self._check(rc, s),
            )
            for s in self.seeds
        ]

    def _check(self, rc: int, seed: int) -> tuple[list[str], list[float]]:
        """Regenerates each b's data the way the sweep documents it (child
        seeds of the master seed) and checks both fits against it."""
        if rc != 0:
            return [f"exit code {rc}"], []
        rows = json.loads((self._out(seed) / "summary.json").read_text())["rows"]
        fails, stationarity = [], []
        for row, child in zip(rows, _child_seeds(seed, len(rows))):
            xp, xq = gen_outlier_1d(O1_N_GOOD, O1_N_OUT, row["b"], seed=child, n_q=O1_N_Q)
            for tag, nu, t_hat in (("trdre", O1_NU, row["t_hat_trdre"]), ("kliep", 1.0, None)):
                delta = np.array([row[f"delta_{tag}"]])
                fails += check_fit(xp @ delta, xq @ delta, delta, nu, t_hat)
                stationarity.append(stationarity_unregularized(xp, xq, delta, nu))
            if row["b"] >= 3 and not abs(row["delta_trdre"] - 0.75) < OUTLIER_TOL:
                fails.append("outlier tolerance")
        return fails, stationarity

    def outcome(self, outputs: list) -> Outcome:
        """Fingerprint of the written files, and the largest trimmed error at b >= 3."""
        files = [self._out(s) / f for s in self.seeds for f in ("results.csv", "summary.json")]
        errs = [
            abs(row["delta_trdre"] - 0.75)
            for s in self.seeds
            for row in json.loads((self._out(s) / "summary.json").read_text())["rows"]
            if row["b"] >= 3
        ]
        return Outcome(_sha256_files(files), {"delta_err": max(errs)})


# ---------------------------------------------------------------------------
# fit_rbf_csv: `trdre fit --features rbf --verify` on d=5 CSVs written during
# set-up, two data sets per pass. 10% of X_p are gross outliers.

RBF_N, RBF_D, RBF_OUT_FRAC = 1500, 5, 0.1
RBF_SETS_PER_PASS = 2
RBF_ARGS = ["--features", "rbf", "--nu", "0.9", "--max-iter", "400", "--verify"]


def rbf_kernel(X: np.ndarray, basis: np.ndarray, bandwidth: float) -> np.ndarray:
    sq = np.sum(X**2, axis=1)[:, None] + np.sum(basis**2, axis=1)[None, :] - 2.0 * (X @ basis.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * bandwidth**2))


def rbf_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n_out = int(RBF_N * RBF_OUT_FRAC)
    xq = rng.standard_normal((RBF_N, RBF_D))
    inliers = rng.normal(0.3, 1.0, size=(RBF_N - n_out, RBF_D))
    outliers = rng.uniform(5.5, 6.5, size=(n_out, RBF_D))
    return rng.permutation(np.vstack([inliers, outliers])), xq


class FitRbfCsv:
    name = "fit_rbf_csv"

    def __init__(self, eta0: float = 0.1):
        self.eta0 = eta0

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        self.sets = []
        for i, s in enumerate(_child_seeds(seed, RBF_SETS_PER_PASS)):
            xp, xq = rbf_pair(s)
            paths = (work / f"xp{i}.csv", work / f"xq{i}.csv")
            storage.write_csv(paths[0], xp, comment=f"seed={s}")
            storage.write_csv(paths[1], xq, comment=f"seed={s}")
            self.sets.append((xp, xq, paths))
        xp_path, xq_path = self.sets[0][2]
        rc = _run_cli(["fit", "--xp", str(xp_path), "--xq", str(xq_path), "--features", "rbf",
                       "--max-iter", "5", "--out", str(work / "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up command exited with {rc}")

    def ops(self) -> list[Op]:
        ops = []
        for i, (_, _, (xp_path, xq_path)) in enumerate(self.sets):
            argv = ["fit", "--xp", str(xp_path), "--xq", str(xq_path), *RBF_ARGS,
                    "--eta0", repr(self.eta0), "--out", str(self.work / f"fit{i}")]
            ops.append(Op(f"set={i}", lambda argv=argv: _run_cli(argv), lambda rc, i=i: self._check(rc, i)))
        return ops

    def _check(self, rc: int, i: int) -> tuple[list[str], list[float]]:
        """Rebuilds both kernel matrices from the CSV data and the reported
        bandwidth, and checks fit_result.json against them."""
        if rc != 0:
            return [f"exit code {rc}"], []
        xp, xq, _ = self.sets[i]
        res = json.loads((self.work / f"fit{i}" / "fit_result.json").read_text())
        delta = np.asarray(res["delta"])
        bw = res["inputs"]["rbf_bandwidth"]
        PhiP, PhiQ = rbf_kernel(xp, xq, bw), rbf_kernel(xq, xq, bw)
        nu = res["config"]["nu"]
        fails = check_fit(PhiP @ delta, PhiQ @ delta, delta, nu,
                          res["t_hat"], np.asarray(res["kept_indices"], dtype=int))
        return fails, [stationarity_unregularized(PhiP, PhiQ, delta, nu)]

    def outcome(self, outputs: list) -> Outcome:
        """Fingerprint of the written files."""
        files = [self.work / f"fit{i}" / f for i in range(len(self.sets))
                 for f in ("fit_result.json", "kept_indices.csv", "trimmed_indices.csv")]
        return Outcome(_sha256_files(files), {})


WORKLOADS = {w.name: w for w in (MnPath, Outlier1d, FitRbfCsv)}
