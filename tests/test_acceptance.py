"""Acceptance gate: eleven end-to-end checks with pinned tolerances.

Each test prints exactly one line

    ACCEPTANCE NN PASS|FAIL <name>: <detail>

before asserting, so a plain ``pytest tests/test_acceptance.py -s`` shows
the full scoreboard. The checks are ordered from algebraic identities to
full experiment reproductions; later ones take minutes.
"""

import filecmp
import inspect
from dataclasses import replace

import numpy as np

from trdre.baselines import enumerate_weight_vertices
from trdre.cli import main
from trdre.estimator import (
    TrimConfig,
    ascend,
    assign_weights,
    fit,
    fit_featurized,
    fit_kliep,
    fit_many,
    gradient,
    keep_count,
    kkt_check,
    maxmin_1d,
    objective,
)
from trdre.evaluation import support_curve
from trdre.experiments import error_scaling, run_outlier1d, run_truncation1d
from trdre.ratio_model import LinearFeatures, PairwiseQuadraticFeatures, featurize, log_ratios
from trdre.synthetic import (
    _child_seeds,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    inject_outliers,
    sample_gaussian,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_01_self_normalization():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        n_q = int(rng.integers(5, 200))
        Xq = rng.standard_normal((n_q, d)) * float(rng.uniform(0.5, 2.0))
        delta = rng.standard_normal(d)
        PhiQ = featurize(Xq, LinearFeatures())
        gap = abs(float(np.mean(np.exp(log_ratios(delta, PhiQ, PhiQ)))) - 1.0)
        worst = max(worst, gap)
    _report(1, "self-normalization", worst < 1e-10,
            f"max |mean_q r_hat - 1| = {worst:.3e} over 100 pairs (tol 1e-10)")


def test_02_gradient_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        n_p = int(rng.integers(2, 51))
        n_q = int(rng.integers(2, 51))
        PhiP = rng.standard_normal((n_p, d))
        PhiQ = rng.standard_normal((n_q, d))
        delta = rng.standard_normal(d) * 0.5
        w = assign_weights(rng.standard_normal(n_p), float(rng.uniform(0.5, 1.0)))
        g = gradient(delta, w, PhiP, PhiQ)
        cfg = TrimConfig()
        g_fd = np.zeros(d)
        h = 1e-6
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            g_fd[k] = (
                objective(delta + e, w, PhiP, PhiQ, cfg)
                - objective(delta - e, w, PhiP, PhiQ, cfg)
            ) / (2 * h)
        rel = float(np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12))
        worst = max(worst, rel)
    _report(2, "gradient-oracle", worst < 1e-5,
            f"max relative error vs central differences = {worst:.3e} over 100 instances (tol 1e-5)")


def test_03_inner_solver_oracle():
    rng = np.random.default_rng(42)
    failures = 0
    for i in range(1000):
        if i % 5 == 0:
            # dyadic tie instances: values j/8 with n_p a power of two make
            # every subset sum exact, so tied vertices agree bit for bit
            n_p = int(rng.choice([2, 4, 8]))
            lr = rng.integers(-8, 9, size=n_p) / 8.0
        else:
            n_p = int(rng.integers(2, 9))
            lr = rng.standard_normal(n_p)
        nu = float(rng.uniform(0.3, 1.0))
        try:
            keep_count(nu, n_p)
        except ValueError:
            nu = 1.0
        w = assign_weights(lr, nu)
        best = min(float(v @ lr) for v in enumerate_weight_vertices(n_p, nu))
        if float(w @ lr) != best:
            failures += 1
    _report(3, "inner-solver-oracle", failures == 0,
            f"{failures} of 1000 instances missed the enumerated vertex minimum (exact equality)")


def test_04_maxmin_oracle():
    # X_q mixes four N(0, 1.5^2) draws with anchors at +-4 so the trimmed
    # objective is bounded in both tail directions and the maximizer stays
    # at |delta| < 4.9. The ascent loop is run directly: fit would solve
    # these one-column instances exactly.
    rng = np.random.default_rng(42)
    worst = 0.0
    interior = True
    cfg = TrimConfig(nu=0.5, max_iter=20000)
    for _ in range(20):
        xp = (1.5 + rng.standard_normal(6))[:, None]
        xq = np.concatenate([[-4.0, 4.0], 1.5 * rng.standard_normal(4)])[:, None]
        d_star, v_star = maxmin_1d(xp, xq, cfg)
        interior = interior and abs(d_star) < 4.9
        res = ascend(xp, xq, cfg)
        worst = max(worst, abs(res.objective_best - v_star))
    _report(4, "maxmin-oracle", worst < 1e-3 and interior,
            f"max |objective gap| vs the exact 1-d oracle = {worst:.3e} over 20 instances (tol 1e-3)")


def test_05_nu_one_reduction():
    rng = np.random.default_rng(42)
    xp = rng.standard_normal((5000, 1))
    xq = rng.normal(-0.75, 1.0, size=(5000, 1))
    a = fit(xp, xq, LinearFeatures(), TrimConfig(nu=1.0))
    b = fit_kliep(xp, xq, LinearFeatures(), TrimConfig(nu=0.5))
    identical = (
        np.array_equal(a.delta_best, b.delta_best)
        and np.array_equal(a.w_best, b.w_best)
        and a.objective_best == b.objective_best
        and a.trace == b.trace
        and a.t_hat == b.t_hat
    )
    err = abs(float(a.delta_best[0]) - 0.75)
    _report(5, "nu-one-reduction", identical and err < 0.1,
            f"bit-for-bit match = {identical}, |delta_hat - 0.75| = {err:.4f} (tol 0.1)")


def test_06_truncation_recovery():
    n = 5000
    xp, xq = gen_truncation_1d(n, 0.5, seed=42)
    cfg = TrimConfig(nu=0.5)
    PhiP = featurize(xp, LinearFeatures())
    PhiQ = featurize(xq, LinearFeatures())
    res = fit_featurized(PhiP, PhiQ, cfg)
    err = abs(float(res.delta_best[0]) - 0.5)
    report = kkt_check(res, PhiP, PhiQ, cfg)
    kept_frac = len(res.kept_indices) / n
    ok = err < 0.1 and report.weight_ok and abs(kept_frac - 0.5) <= 1.0 / n
    _report(6, "truncation-recovery", ok,
            f"|delta_hat - 0.5| = {err:.4f} (tol 0.1), weight structure ok = {report.weight_ok}, "
            f"kept fraction = {kept_frac:.4f} (target 0.5 +- {1.0 / n:g})")


def test_07_outlier_robustness():
    seeds = range(42, 47)
    bs = (3.0, 4.0, 5.0, 6.0)
    cfg = TrimConfig(nu=0.8, max_iter=2000)
    errs = {b: [] for b in bs}
    kliep_excess = []
    for s in seeds:
        for b in bs:
            xp, xq = gen_outlier_1d(4000, 1000, b, seed=s, n_q=5000)
            res = fit(xp, xq, LinearFeatures(), cfg)
            errs[b].append(abs(float(res.delta_best[0]) - 0.75))
            if b == 6.0:
                k = fit_kliep(xp, xq, LinearFeatures(), TrimConfig(max_iter=2000))
                kliep_excess.append(float(k.delta_best[0]) - 0.75)
    tr_ok = all(e < 0.15 for e in errs[6.0])
    kliep_ok = all(x > 0.3 for x in kliep_excess)
    meds = [float(np.median(errs[b])) for b in bs]
    # 5e-3 slack absorbs trial noise in the median across only 5 seeds
    mono_ok = all(meds[i + 1] <= meds[i] + 5e-3 for i in range(len(bs) - 1))
    _report(7, "outlier-robustness", tr_ok and kliep_ok and mono_ok,
            f"trimmed errors at b=6 max {max(errs[6.0]):.3f} (tol 0.15), "
            f"untrimmed excess min {min(kliep_excess):.3f} (needs > 0.3), "
            f"median errors over b=3..6 = {[round(m, 4) for m in meds]} (non-increasing, slack 5e-3)")


def test_08_mn_change_detection():
    d, n, n_changed = 25, 500, 20
    grid = [float(v) for v in np.logspace(-3.0, 0.0, 12)]
    base = TrimConfig(eta0=0.1, max_iter=2000)
    paths, tasks = [], []  # paths: (condition, delta_star) of each l1 path, in task order
    for seed in range(42, 47):
        ss = np.random.default_rng(seed).integers(0, 2**63 - 1, size=3)
        pair = gen_gaussian_mn_pair(d, n_changed, seed=int(ss[0]))
        xp_clean = sample_gaussian(pair.theta_p, n, seed=int(ss[1]))
        xq = sample_gaussian(pair.theta_q, n, seed=int(ss[2]))
        xp_out = inject_outliers(xp_clean, [10.0] * d, 1)
        fmap = PairwiseQuadraticFeatures()
        PhiQ, phi_out = featurize(xq, fmap), featurize(xp_out, fmap)
        for name, PhiP, nu in (
            ("dre_outlier", phi_out, 1.0),
            ("trdre_outlier", phi_out, 0.9),
            ("dre_gold", featurize(xp_clean, fmap), 1.0),
        ):
            tasks += [(PhiP, PhiQ, replace(base, nu=nu, lam=lam, regularizer="l1")) for lam in grid]
            paths.append((name, pair.delta_star))
    # All 180 fits are one batch, as run_mnchange launches a d's fits.
    fits = fit_many(tasks)
    aucs = {name: [] for name, _ in paths}
    for i, (name, delta_star) in enumerate(paths):
        aucs[name].append(support_curve(fits[i * len(grid):(i + 1) * len(grid)], grid, delta_star)[1])
    med = {k: float(np.median(v)) for k, v in aucs.items()}
    margin = med["trdre_outlier"] - med["dre_outlier"]
    gap = med["dre_gold"] - med["trdre_outlier"]
    ok = margin >= 0.1 and gap <= 0.1
    _report(8, "mn-change-detection", ok,
            f"median AUCs over 5 seeds: contaminated untrimmed {med['dre_outlier']:.3f}, "
            f"contaminated trimmed {med['trdre_outlier']:.3f}, clean gold {med['dre_gold']:.3f}; "
            f"robustness margin {margin:.3f} (needs >= 0.1), gold gap {gap:.3f} (needs <= 0.1)")


def test_09_error_scaling():
    table = error_scaling("truncation", [250, 1000, 4000], repeats=10, seed=42)
    errs = [e for _, e in table]
    ok = errs[0] > errs[1] > errs[2]
    _report(9, "error-scaling", ok,
            "mean |delta_hat - 0.5| strictly decreasing over n=250,1000,4000: "
            + ", ".join(f"{e:.4f}" for e in errs))


def test_10_cli_determinism(tmp_path):
    runs = {
        "truncation1d": ["experiment", "truncation1d", "--n", "400"],
        "outlier1d": ["experiment", "outlier1d", "--n-good", "200", "--n-out", "50",
                      "--n-q", "250", "--b-grid", "3,6"],
        "mnchange": ["experiment", "mnchange", "--d-list", "6", "--n", "120",
                     "--n-changed", "4", "--lambda-grid", "0.05,0.3", "--max-iter", "200"],
    }
    diffs = []
    for name, argv in runs.items():
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        if files_a != files_b:
            diffs.append(f"{name}: file sets differ")
            continue
        match, mismatch, errors = filecmp.cmpfiles(a, b, files_a, shallow=False)
        if mismatch or errors:
            diffs.append(f"{name}: {mismatch + errors}")
    n_files = sum(len(list((tmp_path / name / 'a').iterdir())) for name in runs)
    _report(10, "cli-determinism", not diffs,
            f"3 experiments re-run, {n_files} files byte-compared"
            + (f"; mismatches: {diffs}" if diffs else ", all identical"))


def test_11_exact_1d_oracle():
    # Every fit of the 1-D experiments at their defaults: outlier1d's 14
    # (trimmed at its nu and untrimmed, at each b) and truncation1d's one.
    # Each must be certified at the exact maximizer, and the ascent loop,
    # run directly, must come close to it. The loop's bounds were fixed from
    # the worst cases first measured, a shortfall of 2.1e-8 and a |delta|
    # distance of 4.7e-4, both on truncation1d.
    o = {k: v.default for k, v in inspect.signature(run_outlier1d).parameters.items()}
    t = {k: v.default for k, v in inspect.signature(run_truncation1d).parameters.items()}
    cases = []
    for b, s in zip(o["b_grid"], _child_seeds(o["seed"], len(o["b_grid"]))):
        xp, xq = gen_outlier_1d(o["n_good"], o["n_out"], float(b), seed=s, n_q=o["n_q"])
        cases += [(xp, xq, TrimConfig(nu=nu)) for nu in (o["nu"], 1.0)]
    xp, xq = gen_truncation_1d(t["n"], nu=t["nu"], seed=t["seed"])
    cases.append((xp, xq, TrimConfig(nu=t["nu"])))
    shortfall = distance = 0.0
    certified = 0
    for xp, xq, cfg in cases:
        PhiP, PhiQ = featurize(xp, LinearFeatures()), featurize(xq, LinearFeatures())
        d_star, v_star = maxmin_1d(PhiP, PhiQ, cfg)
        fitted = fit_featurized(PhiP, PhiQ, cfg)
        certified += fitted.stop_reason == "certified" and fitted.delta_best.tobytes() == np.array([d_star]).tobytes()
        res = ascend(PhiP, PhiQ, cfg)
        shortfall = max(shortfall, v_star - res.objective_best)
        distance = max(distance, abs(float(res.delta_best[0]) - d_star))
    _report(11, "exact-1d-oracle", certified == len(cases) and shortfall <= 1e-7 and distance <= 1e-3,
            f"{certified} of {len(cases)} default 1-D experiment fits certified at the exact maximizer; "
            f"the ascent loop's objective falls short of the exact maximum by at most {shortfall:.3e} "
            f"(tol 1e-7) and its delta lies within {distance:.3e} of the maximizer (tol 1e-3)")
