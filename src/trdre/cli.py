"""Command line interface: fit, experiment, gen.

Every command prints the resolved seed on stdout (default 42), writes all
outputs atomically, and is deterministic: identical flags and seed give
byte-identical files. Exit codes: 0 all requested outputs written, 2 bad
usage, unreadable input or unwritable output (message names the file, and
the line of a bad CSV cell), 3 runtime failure such as a diverging fit.

A flag of fit or experiment left unset takes the library default: the
TrimConfig field for fit, the keyword default of
trdre.experiments.run_<name> for each experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments
from .baselines import brute_force_maxmin_1d
from .estimator import REGULARIZERS, TrimConfig, fit_featurized, fit_result_to_dict, kkt_check
from .ratio_model import feature_map_from_name, featurize, log_ratios
from .storage import read_numeric_csv, write_csv, write_json
from .synthetic import (
    OUTLIER_N_GOOD,
    OUTLIER_N_OUT,
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
_DEFAULT_SEED = TrimConfig.seed  # every command's --seed default


def float_list(text: str) -> list[float]:
    """Comma separated floats; empty items are skipped."""
    return [float(v) for v in text.split(",") if v != ""]


def int_list(text: str) -> list[int]:
    """Comma separated ints; empty items are skipped."""
    return [int(v) for v in text.split(",") if v != ""]


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags every experiment shares besides --seed."""
    p.add_argument("--eta0", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trdre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # An unset flag stays out of the namespace, and each flag's dest names the
    # TrimConfig field or runner keyword it feeds.
    unset = argparse.SUPPRESS
    # Every command takes --seed and echoes it, so it always has a value.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=_DEFAULT_SEED)

    p_fit = sub.add_parser(
        "fit", help="fit the trimmed ratio estimator on two CSV samples", argument_default=unset, parents=[seeded]
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
    p_fit.add_argument("--eta0", type=float, help="base step size")
    p_fit.add_argument("--max-iter", type=int)
    p_fit.add_argument("--tol", type=float, help="best-objective window tolerance")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument(
        "--verify", action="store_true", default=False, help="run optimality self-checks and print results"
    )

    p_exp = sub.add_parser("experiment", help="run a reference experiment")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    e_tr = exp_sub.add_parser("truncation1d", argument_default=unset, parents=[seeded])
    e_tr.add_argument("--n", type=int)
    e_tr.add_argument("--nu", type=float)
    _add_run_flags(e_tr)

    e_out = exp_sub.add_parser("outlier1d", argument_default=unset, parents=[seeded])
    e_out.add_argument("--n-good", type=int)
    e_out.add_argument("--n-out", type=int)
    e_out.add_argument("--n-q", type=int)
    e_out.add_argument("--b-grid", type=float_list, help="comma separated outlier locations")
    e_out.add_argument("--nu", type=float)
    _add_run_flags(e_out)

    e_mn = exp_sub.add_parser("mnchange", argument_default=unset, parents=[seeded])
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
    e_mn.add_argument("--outlier-value", type=float)
    e_mn.add_argument("--threshold", type=float)
    _add_run_flags(e_mn)

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
    g_o1.add_argument("--n-q", type=int, default=None)
    g_o1.add_argument("--out-xp", required=True)
    g_o1.add_argument("--out-xq", required=True)

    g_t1 = gen_sub.add_parser("truncation1d", parents=[seeded])
    g_t1.add_argument("--n", type=int, default=TRUNCATION_N)
    g_t1.add_argument("--nu", type=float, default=TRUNCATION_NU)
    g_t1.add_argument("--out-xp", required=True)
    g_t1.add_argument("--out-xq", required=True)

    return parser


def _echo_seed(seed: int) -> None:
    default_note = " (default)" if seed == _DEFAULT_SEED else ""
    print(f"[trdre] seed={seed}{default_note}")


def cmd_fit(args) -> int:
    if args.rbf_bandwidth is not None and args.features != "rbf":
        raise ValueError(f"--rbf-bandwidth applies only to --features rbf, got --features {args.features}")
    cfg = TrimConfig(**{k: v for k, v in vars(args).items() if k in _TRIM_FIELDS})
    if cfg.lam > 0.0 and cfg.regularizer == "none":
        raise ValueError("--lambda applies only to --regularizer l1 or l2sq, got --regularizer none")
    Xp = read_numeric_csv(args.xp)
    Xq = read_numeric_csv(args.xq)
    fmap = feature_map_from_name(args.features, basis=Xq, bandwidth=args.rbf_bandwidth)
    PhiP, PhiQ = featurize(Xp, fmap), featurize(Xq, fmap)
    result = fit_featurized(PhiP, PhiQ, cfg)

    out = Path(args.out)
    payload = fit_result_to_dict(result, cfg)
    payload["inputs"] = {
        "xp": args.xp, "xq": args.xq, "features": args.features,
        "rbf_bandwidth": getattr(fmap, "bandwidth", None),
    }
    write_json(out / "fit_result.json", payload)
    kept = result.kept_indices
    trimmed = np.setdiff1d(np.arange(PhiP.shape[0]), kept)
    write_csv(out / "kept_indices.csv", [[int(i)] for i in kept], header=["index"])
    write_csv(out / "trimmed_indices.csv", [[int(i)] for i in trimmed], header=["index"])
    print(f"[trdre] wrote {out / 'fit_result.json'} (objective_best={result.objective_best!r})")

    if args.verify:
        report = kkt_check(result, PhiP, PhiQ, cfg)
        print(
            f"[verify] weight structure {'PASS' if report.weight_ok else 'FAIL'}"
            f" (max violation {report.max_weight_violation:.3g})"
        )
        print(
            f"[verify] stationarity {'PASS' if report.stationarity_ok else 'FAIL'}"
            f" (||grad||-style residual {report.stationarity:.3g}, tol {report.stationarity_tol})"
        )
        ratios = np.exp(log_ratios(result.delta_best, PhiQ, PhiQ))
        gap = abs(float(np.mean(ratios)) - 1.0)
        print(f"[verify] self-normalization {'PASS' if gap < 1e-10 else 'FAIL'} (|mean-1| = {gap:.3g})")
        if PhiP.shape[1] == 1 and cfg.lam == 0.0:
            gdelta, gval = brute_force_maxmin_1d(PhiP, PhiQ, cfg.nu, grid_step=1e-2)
            diff = abs(gval - result.objective_best)
            print(
                f"[verify] 1-d grid oracle {'PASS' if diff < 1e-2 else 'FAIL'}"
                f" (grid delta {gdelta!r}, |objective gap| = {diff:.3g})"
            )
    return EXIT_OK


def cmd_experiment(args) -> int:
    kwargs = dict(vars(args))
    del kwargs["command"]
    name = kwargs.pop("experiment")
    getattr(experiments, f"run_{name}")(**kwargs)
    print(f"[trdre] experiment {name} written to {kwargs['out_dir']}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.generator == "mnpair":
        pair = gen_gaussian_mn_pair(args.d, args.n_changed, args.seed)
        write_json(
            args.out,
            {
                "d": args.d,
                "n_changed": args.n_changed,
                "seed": args.seed,
                "theta_p": [[float(v) for v in row] for row in pair.theta_p],
                "theta_q": [[float(v) for v in row] for row in pair.theta_q],
                "delta_star": [[float(v) for v in row] for row in pair.delta_star],
                "changed_edges": [[int(i), int(j)] for i, j in pair.changed_edges],
            },
        )
    elif args.generator == "mnsamples":
        with open(args.pair, encoding="utf-8") as fh:
            pair = json.load(fh)
        key = "theta_p" if args.which == "p" else "theta_q"
        if not isinstance(pair, dict) or key not in pair:
            raise ValueError(f"{args.pair}: missing key {key!r}")
        theta = np.asarray(pair[key], dtype=float)
        X = sample_gaussian(theta, args.n, args.seed)
        write_csv(args.out, X, comment=f"which={args.which} n={args.n} seed={args.seed}")
    elif args.generator == "gaussian":
        theta = read_numeric_csv(args.precision)
        X = sample_gaussian(theta, args.n, args.seed)
        write_csv(args.out, X, comment=f"n={args.n} seed={args.seed}")
    elif args.generator == "outlier1d":
        xp, xq = gen_outlier_1d(args.n_good, args.n_out, args.b, args.seed, n_q=args.n_q)
        note = f"b={args.b} n_good={args.n_good} n_out={args.n_out} seed={args.seed}"
        write_csv(args.out_xp, xp, comment=note)
        write_csv(args.out_xq, xq, comment=note)
    else:
        xp, xq = gen_truncation_1d(args.n, args.nu, args.seed)
        note = f"n={args.n} nu={args.nu} seed={args.seed}"
        write_csv(args.out_xp, xp, comment=note)
        write_csv(args.out_xq, xq, comment=note)
    print("[trdre] gen done")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    _echo_seed(args.seed)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
