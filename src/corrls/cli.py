"""Command-line interface.

Subcommands:
  simulate    generate a dataset from a scenario config and write it as CSV
  fit         fit one method on one dataset
  precision   precision-matrix pipeline on a missing-data dataset
  experiment  run a (n, p, s) grid from a config file
  tune        dump the cross-validation curve for one method

Config files are flat JSON documents mirroring the SimConfig / GridSpec
fields.  Exit code is 0 on success; with --strict, any error row in an
experiment makes it 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import (
    AdditiveNoise,
    MissingNoise,
    read_dataset_csv,
    read_matrix_csv,
    write_dataset_csv,
    write_matrix_csv,
)
from .experiment import GridSpec, emit_results, run_grid
from .moments import corrected_moments
from .post import (
    cross_validate,
    cs_post_fit,
    default_an_grid,
    default_lambda_grid,
    lasso_fit,
    with_estimated_missing_rates,
)
from .precision import estimate_precision
from .selection import SolverOptions, l1_cls_fit, support
from .simulate import SimConfig, ar1_covariance, gen_regression


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _noise_from_args(args, path):
    """Build the declared noise model for a dataset file."""
    if args.noise == "missing":
        # rates are estimated from the NA pattern after loading
        return None
    if args.sigma_w:
        return AdditiveNoise(read_matrix_csv(args.sigma_w))
    if args.sigma_w_ar1:
        phi, scale = args.sigma_w_ar1
        # dimension is discovered from the file header
        import csv

        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        p = len(header) - (1 if "y" in header else 0)
        return AdditiveNoise(ar1_covariance(p, phi, scale))
    raise SystemExit("additive noise needs --sigma-w FILE or --sigma-w-ar1 PHI SCALE")


def _load_dataset(args):
    noise = _noise_from_args(args, args.data)
    if noise is not None:
        return read_dataset_csv(args.data, noise)
    # missing case: load with rho = 0, then replace by the estimated rates
    import csv

    with open(args.data, newline="") as fh:
        header = next(csv.reader(fh))
    p = len(header) - (1 if "y" in header else 0)
    data = read_dataset_csv(args.data, MissingNoise(np.zeros(p)))
    return with_estimated_missing_rates(data)


def _cmd_simulate(args):
    cfg_dict = _load_config(args.config) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg_dict.setdefault("seed", 0)
    if "rho_range" in cfg_dict:
        cfg_dict["rho_range"] = tuple(cfg_dict["rho_range"])
    cfg = SimConfig(**cfg_dict)
    data, beta0, T = gen_regression(cfg)
    write_dataset_csv(data, args.out)
    print(f"wrote {data.n}x{data.p} {cfg.noise_kind} dataset to {args.out}")
    if args.truth:
        write_matrix_csv(beta0.reshape(-1, 1), args.truth)
    return 0


def _solver_opts(args):
    return SolverOptions(max_iters=args.max_iters, rel_tol=args.rel_tol,
                         radius=args.radius, lam=0.0)


def _cmd_fit(args):
    data = _load_dataset(args)
    opts = _solver_opts(args)
    if args.method == "cs_post":
        fit = cs_post_fit(corrected_moments(data), int(args.tuning), opts)
    elif args.method == "l1cls":
        from dataclasses import replace

        fit = l1_cls_fit(corrected_moments(data), replace(opts, lam=args.tuning))
    else:
        fit = lasso_fit(data, args.tuning, opts)
    sel = fit.support_used if args.method == "cs_post" else tuple(support(fit.beta))
    print(f"method={fit.method} tuning={args.tuning:g} objective={fit.objective:.6g} "
          f"iterations={fit.iterations} converged={fit.converged}")
    print("support (1-based):", " ".join(str(j + 1) for j in sel))
    if args.out:
        write_matrix_csv(fit.beta.reshape(-1, 1), args.out)
        print(f"coefficients written to {args.out}")
    return 0


def _cmd_tune(args):
    data = _load_dataset(args)
    test = _load_dataset_from(args, args.test_data)
    opts = _solver_opts(args)
    if args.method == "cs_post":
        grid = default_an_grid(data.n, data.p)
    else:
        grid = default_lambda_grid()
    rule = {"cs_post": "cs_post", "l1cls": "l1cls", "lasso": "lasso"}[args.method]
    best, losses, _ = cross_validate(data, test, grid, rule, opts)
    lines = ["value,loss"] + [f"{v:.17g},{l:.17g}" for v, l in zip(grid, losses)]
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    print(f"best value: {best:g}")
    return 0


def _load_dataset_from(args, path):
    class _A:
        pass

    a = _A()
    a.data = path
    a.noise = args.noise
    a.sigma_w = getattr(args, "sigma_w", None)
    a.sigma_w_ar1 = getattr(args, "sigma_w_ar1", None)
    return _load_dataset(a)


def _cmd_precision(args):
    args.noise = "missing"
    args.sigma_w = None
    args.sigma_w_ar1 = None
    data = _load_dataset(args)
    est = estimate_precision(data, args.an, args.radius)
    write_matrix_csv(est.theta, args.out)
    print(f"precision matrix ({data.p}x{data.p}) written to {args.out}")
    if args.diagnostics:
        lines = ["column,support_size,d,fallback"]
        for j in range(data.p):
            lines.append(f"{j + 1},{len(est.neighborhood_supports[j])},"
                         f"{est.d[j]:.17g},{int(est.fallback_flags[j])}")
        with open(args.diagnostics, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_experiment(args):
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if "rho_range" in cfg:
        cfg["rho_range"] = tuple(cfg["rho_range"])
    for key in ("n_values", "p_values", "s_values", "methods"):
        if key in cfg:
            cfg[key] = tuple(cfg[key])
    spec = GridSpec(**cfg)
    records = run_grid(spec, workers=args.workers, keep_beta=args.save_coefs,
                       no_timing=args.no_timing)
    emit_results(records, args.out)
    n_err = sum(1 for r in records if r.error is not None)
    print(f"{len(records)} records written to {args.out} ({n_err} error rows)")
    if args.save_coefs:
        sidecar = args.out + ".coefs.csv"
        with open(sidecar, "w") as fh:
            fh.write("scenario,method," + "coefs...\n")
            for r in records:
                if r.beta is not None:
                    fh.write(f"{r.scenario},{r.method}," +
                             ",".join(f"{b:.17g}" for b in r.beta) + "\n")
        print(f"coefficients written to {sidecar}")
    if args.strict and n_err:
        return 1
    return 0


def _add_dataset_args(sp):
    sp.add_argument("--data", required=True, help="dataset CSV (header row, NA for missing)")
    sp.add_argument("--noise", choices=["additive", "missing"], required=True)
    sp.add_argument("--sigma-w", help="covariate-noise covariance CSV (additive)")
    sp.add_argument("--sigma-w-ar1", nargs=2, type=float, metavar=("PHI", "SCALE"),
                    help="AR(1) covariate-noise covariance (additive)")


def _add_solver_args(sp):
    sp.add_argument("--radius", type=float, required=True, help="l1-ball radius")
    sp.add_argument("--max-iters", type=int, default=10000)
    sp.add_argument("--rel-tol", type=float, default=1e-6)


def build_parser():
    parser = argparse.ArgumentParser(prog="corrls")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a dataset")
    sp.add_argument("--config", help="JSON scenario config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)
    sp.add_argument("--truth", help="optional path for the true coefficients")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="fit one method on one dataset")
    _add_dataset_args(sp)
    sp.add_argument("--method", choices=["cs_post", "l1cls", "lasso"], required=True)
    sp.add_argument("--tuning", type=float, required=True,
                    help="a_n for cs_post, lambda otherwise")
    _add_solver_args(sp)
    sp.add_argument("--out", help="write coefficients here")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("tune", help="dump a cross-validation curve")
    _add_dataset_args(sp)
    sp.add_argument("--test-data", required=True, help="held-out dataset CSV")
    sp.add_argument("--method", choices=["cs_post", "l1cls", "lasso"], required=True)
    _add_solver_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_tune)

    sp = sub.add_parser("precision", help="precision matrix from missing data")
    sp.add_argument("--data", required=True)
    sp.add_argument("--an", type=int, required=True, help="screening size per column")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--diagnostics", help="per-column diagnostics CSV")
    sp.set_defaults(func=_cmd_precision)

    sp = sub.add_parser("experiment", help="run a grid from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, help="override base_seed")
    sp.add_argument("--out", required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--save-coefs", action="store_true")
    sp.add_argument("--no-timing", action="store_true")
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
