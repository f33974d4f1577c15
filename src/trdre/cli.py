"""Command line interface: fit, experiment, gen.

Every command that draws data prints the resolved seed on stdout
(default 42). Every command writes all its output files or none of
them, and is deterministic: identical flags and seed give byte-identical
files. Exit codes: 0 all requested outputs written, 2 bad usage,
unreadable input or unwritable output (message names the file, and the
line of a bad CSV cell), 3 runtime failure such as a diverging fit;
after 2 or 3 every existing output is as it was.

A flag of fit or experiment left unset takes the library default: the
TrimConfig field for fit, the keyword default of
trdre.experiments.run_<name> for each experiment.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments
from .estimator import (
    CROSS_CHECK_TOL,
    NORMALIZATION_TOL,
    REGULARIZERS,
    STATIONARITY_TOL,
    UNBOUNDED_SLACK,
    FitDivergedError,
    TrimConfig,
    ascend,
    fit_featurized,
    fit_result_to_dict,
    kkt_check,
    unbounded_threshold,
)
from .ratio_model import GaussianKernelFeatures, LinearFeatures, PairwiseQuadraticFeatures, featurize, log_ratios
from .storage import commit, csv_text, json_text, read_numeric_csv
from .synthetic import (
    DEFAULT_SEED,
    OUTLIER_N_GOOD,
    OUTLIER_N_OUT,
    OUTLIER_N_Q,
    TRUNCATION_N,
    TRUNCATION_NU,
    gen_gaussian_mn_pair,
    gen_outlier_1d,
    gen_truncation_1d,
    sample_gaussian,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_TRIM_FIELDS = frozenset(f.name for f in fields(TrimConfig))
# Appended to a diverged fit's message by the commands that take --eta0: fit and mnchange.
_ETA0_HINT = "; try a smaller eta0"


def float_list(text: str) -> list[float]:
    """Comma separated floats; empty items are skipped."""
    return [float(v) for v in text.split(",") if v != ""]


def int_list(text: str) -> list[int]:
    """Comma separated ints; empty items are skipped."""
    return [int(v) for v in text.split(",") if v != ""]


def seed(text: str) -> int:
    """A seed for numpy.random.default_rng, which takes no negative one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trdre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # An unset flag stays out of the namespace, and each flag's dest names the
    # TrimConfig field or runner keyword it feeds.
    unset = argparse.SUPPRESS
    # Every command that draws data, so every one but fit, takes --seed and echoes it.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    # fit and every experiment write to a directory.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", required=True, help="output directory")
    # The ascent loop's settings, on the commands whose multi-column fits run
    # it; a one-column fit is solved exactly, so the 1-D experiments take none.
    looped = argparse.ArgumentParser(add_help=False, argument_default=unset, parents=[run])
    looped.add_argument("--eta0", type=float, help="base step size")
    looped.add_argument("--max-iter", type=int)

    p_fit = sub.add_parser(
        "fit", help="fit the trimmed ratio estimator on two CSV samples", argument_default=unset, parents=[looped]
    )
    p_fit.add_argument("--xp", required=True, help="numerator sample CSV (rows = samples)")
    p_fit.add_argument("--xq", required=True, help="denominator sample CSV")
    p_fit.add_argument("--features", choices=["linear", "quadratic", "rbf"], default="linear")
    p_fit.add_argument(
        "--rbf-bandwidth",
        type=float,
        default=None,
        help="rbf kernel bandwidth (default: median pairwise distance of the basis, which is Xq)",
    )
    p_fit.add_argument("--nu", type=float, help="kept-weight fraction in (0, 1], 1 = no trimming")
    p_fit.add_argument("--lambda", dest="lam", type=float, help="regularizer scale")
    p_fit.add_argument("--regularizer", choices=REGULARIZERS)
    p_fit.add_argument(
        "--verify", action="store_true", default=False, help="run optimality self-checks and print results"
    )

    p_exp = sub.add_parser("experiment", help="run a reference experiment")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    e_tr = exp_sub.add_parser("truncation1d", argument_default=unset, parents=[seeded, run])
    e_tr.add_argument("--n", type=int)
    e_tr.add_argument("--nu", type=float)

    e_out = exp_sub.add_parser("outlier1d", argument_default=unset, parents=[seeded, run])
    e_out.add_argument("--n-good", type=int)
    e_out.add_argument("--n-out", type=int)
    e_out.add_argument("--n-q", type=int)
    e_out.add_argument("--b-grid", type=float_list, help="comma separated outlier locations")
    e_out.add_argument("--nu", type=float)

    e_mn = exp_sub.add_parser("mnchange", argument_default=unset, parents=[seeded, looped])
    e_mn.add_argument("--d-list", dest="d_values", metavar="D_LIST", type=int_list, help="comma separated dimensions")
    e_mn.add_argument("--n", type=int)
    e_mn.add_argument("--n-changed", type=int)
    e_mn.add_argument("--nu", type=float)
    e_mn.add_argument("--lambda", dest="lam_heatmap", metavar="LAM", type=float, help="penalty for the heat maps")
    e_mn.add_argument(
        "--lambda-grid",
        type=float_list,
        help="comma separated ascending penalties for the sweep (default: 30 log points in [1e-4, 1])",
    )

    p_gen = sub.add_parser("gen", help="export synthetic datasets")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_pair = gen_sub.add_parser("mnpair", parents=[seeded])
    g_pair.add_argument("--d", type=int, required=True)
    g_pair.add_argument("--n-changed", type=int, required=True)
    g_pair.add_argument("--out", required=True, help="output JSON path")

    g_samp = gen_sub.add_parser("mnsamples", parents=[seeded])
    g_samp.add_argument("--pair", required=True, help="mnpair JSON path")
    g_samp.add_argument("--which", choices=["p", "q"], required=True)
    g_samp.add_argument("--n", type=int, required=True)
    g_samp.add_argument("--out", required=True, help="output CSV path")

    g_gauss = gen_sub.add_parser("gaussian", parents=[seeded])
    g_gauss.add_argument("--precision", required=True, help="precision matrix CSV")
    g_gauss.add_argument("--n", type=int, required=True)
    g_gauss.add_argument("--out", required=True)

    g_o1 = gen_sub.add_parser("outlier1d", parents=[seeded])
    g_o1.add_argument("--n-good", type=int, default=OUTLIER_N_GOOD)
    g_o1.add_argument("--n-out", type=int, default=OUTLIER_N_OUT)
    g_o1.add_argument("--b", type=float, required=True)
    g_o1.add_argument("--n-q", type=int, default=OUTLIER_N_Q)
    g_o1.add_argument("--out-xp", required=True)
    g_o1.add_argument("--out-xq", required=True)

    g_t1 = gen_sub.add_parser("truncation1d", parents=[seeded])
    g_t1.add_argument("--n", type=int, default=TRUNCATION_N)
    g_t1.add_argument("--nu", type=float, default=TRUNCATION_NU)
    g_t1.add_argument("--out-xp", required=True)
    g_t1.add_argument("--out-xq", required=True)

    return parser


def _naming(source, build, *args):
    """build(*args), with the input file or flag a ValueError stems from named in it."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def cmd_fit(args) -> int:
    cfg = TrimConfig(**{k: v for k, v in vars(args).items() if k in _TRIM_FIELDS})
    # A flag combination is checked before the inputs are read, so it exits 2 first.
    bandwidth = args.rbf_bandwidth
    if bandwidth is not None and args.features != "rbf":
        raise ValueError(f"--rbf-bandwidth applies only to --features rbf, got --features {args.features}")
    Xp = read_numeric_csv(args.xp)
    Xq = read_numeric_csv(args.xq)
    if Xp.shape[1] != Xq.shape[1]:
        raise ValueError(f"column counts differ: {args.xp} has {Xp.shape[1]}, {args.xq} has {Xq.shape[1]}")
    if args.features == "rbf":  # kernels centred on the rows of Xq, which a missing bandwidth comes from
        fmap = _naming(args.xq if bandwidth is None else "--rbf-bandwidth", GaussianKernelFeatures, Xq, bandwidth)
    else:
        fmap = LinearFeatures() if args.features == "linear" else PairwiseQuadraticFeatures()
    PhiP, PhiQ = _naming(args.xp, featurize, Xp, fmap), _naming(args.xq, featurize, Xq, fmap)
    result = fit_featurized(PhiP, PhiQ, cfg)

    import hashlib  # imported here, so that `import trdre.cli` does not load it
    out = Path(args.out)
    payload = fit_result_to_dict(result, cfg)
    payload["inputs"] = {"features": args.features, "rbf_bandwidth": getattr(fmap, "bandwidth", None)}
    for key, X in (("xp", Xp), ("xq", Xq)):  # the matrices fit: a second read could see other bytes
        data = np.ascontiguousarray(X, dtype="<f8").tobytes()
        payload["inputs"][key] = {"sha256": hashlib.sha256(data).hexdigest(), "shape": list(X.shape)}
    kept, trimmed = result.kept_indices, np.flatnonzero(result.w_best == 0.0)
    commit([
        (out / "fit_result.json", json_text(payload)),
        (out / "kept_indices.csv", csv_text(kept[:, None], header=["index"])),
        (out / "trimmed_indices.csv", csv_text(trimmed[:, None], header=["index"])),
    ])
    print(f"[trdre] wrote {out / 'fit_result.json'} (objective_best={result.objective_best!r})")
    print(f"[trdre] stop_reason={result.stop_reason} after {result.iterations_run} iterations")

    if args.verify:
        n_q = PhiQ.shape[0]
        ceiling = unbounded_threshold(cfg, PhiP.shape[0], n_q)
        unbounded = result.stop_reason == "unbounded"
        if unbounded:
            print(
                f"[verify] no finite maximizer: objective {result.objective_best!r} exceeds"
                f" nu*log(n_q) + {UNBOUNDED_SLACK:g} = {ceiling!r} (n_q = {n_q}),"
                " so it grows without bound along delta"
            )
        report = kkt_check(result, PhiP, PhiQ, cfg)
        print(
            f"[verify] weight structure {'PASS' if report.weight_ok else 'FAIL'}"
            f" (max violation {report.max_weight_violation:.3g})"
        )
        # An unbounded fit has no optimum to judge; a certified one's exact bracket is its proof.
        if unbounded:
            print("[verify] stationarity n/a (no finite maximizer)")
        elif result.stop_reason == "certified":
            residual = report.stationarity
            print(f"[verify] stationarity n/a (certified one-column maximizer; vertex residual {residual:.3g})")
        else:
            print(
                f"[verify] stationarity {'PASS' if report.stationarity_ok else 'FAIL'}"
                f" (||grad||-style residual {report.stationarity:.3g}, tol {STATIONARITY_TOL})"
            )
        ratios = np.exp(log_ratios(result.delta_best, PhiQ, PhiQ))
        gap = abs(float(np.mean(ratios)) - 1.0)
        print(f"[verify] self-normalization {'PASS' if gap < NORMALIZATION_TOL else 'FAIL'} (|mean-1| = {gap:.3g})")
        if PhiP.shape[1] == 1:
            # An uncertified fit already is the ascent loop's result. Where no ceiling
            # applies the objective is bounded, so its maximizer, or the objective
            # there, lies beyond the largest float; otherwise no maximizer is finite,
            # and the loop's own result must prove it. A certified fit must agree
            # with the loop, a second solver.
            why = "no finite maximizer" if ceiling < np.inf else "maximizer or its objective beyond the largest float"
            ok, note = unbounded, f"loop delta {float(result.delta_best[0])!r}, {why}"
            if result.stop_reason == "certified":
                try:
                    loop = ascend(PhiP, PhiQ, cfg)
                except FitDivergedError as exc:  # a verdict on the loop, not on the fit written
                    ok, note = False, f"{exc}{_ETA0_HINT}"
                else:
                    diff = abs(loop.objective_best - result.objective_best)
                    ok = loop.stop_reason != "unbounded" and diff < CROSS_CHECK_TOL
                    note = f"loop delta {float(loop.delta_best[0])!r}, |objective gap| = {diff:.3g}"
            print(f"[verify] ascent loop cross-check {'PASS' if ok else 'FAIL'} ({note})")
    return EXIT_OK


def cmd_experiment(args) -> int:
    kwargs = dict(vars(args))
    del kwargs["command"]
    name, out = kwargs.pop("experiment"), Path(kwargs.pop("out"))
    _, files = getattr(experiments, f"run_{name}")(**kwargs)
    commit([(out / file_name, text) for file_name, text in files.items()])
    print(f"[trdre] experiment {name} written to {out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.generator == "mnpair":
        pair = gen_gaussian_mn_pair(args.d, args.n_changed, args.seed)
        files = [(
            args.out, json_text({
                "d": args.d,
                "n_changed": args.n_changed,
                "seed": args.seed,
                "theta_p": [[float(v) for v in row] for row in pair.theta_p],
                "theta_q": [[float(v) for v in row] for row in pair.theta_q],
                "delta_star": [[float(v) for v in row] for row in pair.delta_star],
                "changed_edges": [[int(i), int(j)] for i, j in pair.changed_edges],
            }),
        )]
    elif args.generator in ("mnsamples", "gaussian"):
        if args.n < 1:  # checked first, so that every later error is the matrix file's
            raise ValueError(f"n must be at least 1, got {args.n}")
        if args.generator == "gaussian":
            source, theta, note = args.precision, read_numeric_csv(args.precision), ""
        else:
            with open(args.pair, encoding="utf-8-sig") as fh:  # a leading BOM is dropped, as on a CSV read
                pair = _naming(args.pair, json.load, fh)  # not JSON, or not UTF-8
            key = "theta_p" if args.which == "p" else "theta_q"
            if not isinstance(pair, dict) or key not in pair:
                raise ValueError(f"{args.pair}: missing key {key!r}")
            try:
                theta = np.asarray(pair[key], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{args.pair}: {key} is not a numeric matrix: {exc}") from exc
            if theta.ndim != 2:
                raise ValueError(f"{args.pair}: {key} is not a numeric matrix: shape {theta.shape}")
            source, note = f"{args.pair}: {key}", f"which={args.which} "
        # not square, not symmetric or not positive definite
        X = _naming(source, sample_gaussian, theta, args.n, args.seed)
        files = [(args.out, csv_text(X, comment=f"{note}n={args.n} seed={args.seed}"))]
    else:
        if args.generator == "outlier1d":
            xp, xq = gen_outlier_1d(args.n_good, args.n_out, args.b, args.seed, n_q=args.n_q)
            note = f"b={args.b} n_good={args.n_good} n_out={args.n_out} n_q={args.n_q} seed={args.seed}"
        else:
            xp, xq = gen_truncation_1d(args.n, args.nu, args.seed)
            note = f"n={args.n} nu={args.nu} seed={args.seed}"
        files = [(args.out_xp, csv_text(xp, comment=note)), (args.out_xq, csv_text(xq, comment=note))]
    commit(files)
    print("[trdre] gen done")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Runs one command; returns its exit code.

    The parser is built on the first call and kept for the life of the
    process: building it took 3.6-3.8 ms on a 2-vCPU x86-64 Xeon guest.
    Sharing it is safe: parse_args only reads it and writes a fresh
    Namespace per call, every default it hands out is immutable, and each
    command copies what it changes out of that Namespace.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if "seed" in args:
        print(f"[trdre] seed={args.seed}{' (default)' if args.seed == DEFAULT_SEED else ''}")
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "experiment":
            return cmd_experiment(args)
        return cmd_gen(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # OSError: an input path that is a directory, an --out that is a file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # mnchange re-raises a diverged path fit annotated with its lambda.
        diverged = isinstance(exc.__cause__ or exc, FitDivergedError)
        takes_eta0 = args.command == "fit" or getattr(args, "experiment", None) == "mnchange"
        hint = _ETA0_HINT if diverged and takes_eta0 else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
