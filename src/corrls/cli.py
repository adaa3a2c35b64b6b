"""Command-line interface.

Subcommands:
  simulate    generate a dataset from a scenario config and write it as CSV
  fit         fit one method on one dataset
  precision   precision-matrix pipeline on a missing-data dataset
  experiment  run a (n, p, s) grid from a config file
  tune        dump the cross-validation curve for one method

Config files are flat JSON objects of SimConfig / GridSpec fields.  Exit
code is 0 on success, 1 with --strict when an experiment has an error row,
and 2 on an invalid argument, input value, config field or file, or a failed
fit such as a diverged solver: one ``corrls: error:`` line, or argparse's usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
import warnings
from contextlib import nullcontext

import numpy as np

from .data import (AdditiveNoise, MissingNoise, read_dataset_csv, read_header, read_matrix_csv,
                   write_dataset_csv, write_matrix_csv, write_table)
from .experiment import GridSpec, emit_results, run_grid
from .post import METHODS, cross_validate, with_estimated_missing_rates
from .precision import estimate_precision
from .selection import FIT_ERRORS, SolverOptions, screen_size
from .simulate import SimConfig, ar1_covariance, gen_regression


def _load_config(cls, path, **overrides):
    """The dataclass ``cls`` built from the flat JSON object in ``path``, with
    the overrides that are not None applied and lists turned into tuples.  A
    field that is unknown, missing or of the wrong type is a ValueError that
    names the file."""
    types = {k: (int, float) if t is float else t for k, t in typing.get_type_hints(cls).items()}
    try:
        with open(path) as fh:
            cfg = {**json.load(fh), **{k: v for k, v in overrides.items() if v is not None}}
        cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
        for name, value in cfg.items():
            if name not in types:
                raise ValueError(f"unknown field {name!r}")
            if isinstance(value, bool) or not isinstance(value, types[name]):
                raise ValueError(f"field {name!r} has the wrong type: {value!r}")
        return cls(**cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _z_width(path):
    """Number of covariate columns in a dataset file: its header less any y."""
    with open(path, newline="") as fh:
        header = read_header(fh)
    return len(header) - ("y" in header)


def _load_missing(path):
    """Load with rho = 0, then replace rho by the rates of the NA pattern."""
    data = read_dataset_csv(path, MissingNoise(np.zeros(_z_width(path))))
    return with_estimated_missing_rates(data)


def _load_datasets(args, *paths):
    """Load each dataset file under the noise model the arguments declare, an additive
    one built once for all (an AR(1) Sigma_w as wide as the first file)."""
    if args.noise == "missing":
        if args.sigma_w is not None or args.sigma_w_ar1 is not None:
            raise ValueError("--sigma-w and --sigma-w-ar1 apply to --noise additive only")
        return [_load_missing(path) for path in paths]
    if args.sigma_w is not None:
        noise = AdditiveNoise(read_matrix_csv(args.sigma_w))
    elif args.sigma_w_ar1 is not None:
        noise = AdditiveNoise(ar1_covariance(_z_width(paths[0]), *args.sigma_w_ar1))
    else:
        raise ValueError("additive noise needs --sigma-w FILE or --sigma-w-ar1 PHI SCALE")
    return [read_dataset_csv(path, noise) for path in paths]


def _cmd_simulate(args):
    cfg = _load_config(SimConfig, args.config, seed=args.seed)
    data, beta0, T = gen_regression(cfg)
    write_dataset_csv(data, args.out)
    print(f"wrote {data.n}x{data.p} {cfg.noise_kind} dataset to {args.out}")
    if args.truth:
        write_matrix_csv(beta0.reshape(-1, 1), args.truth)
    return 0


def _cmd_fit(args):
    method = METHODS[args.method]
    (data,) = _load_datasets(args, args.data)
    fit = method.fit(method.moments(data), args.tuning, SolverOptions(radius=args.radius))
    print(f"method={method.label} tuning={args.tuning:g} objective={fit.objective:.6g} "
          f"iterations={fit.iterations} converged={fit.converged}")
    if fit.fallback_used:
        size = screen_size(args.tuning, fit.beta.size)
        print(f"corrls: warning: the refit matrix on the {size} selected columns is not "
              f"positive definite, or its linear solve leaves the l1 ball of --radius "
              f"{args.radius:g}; refit by projected gradient over that ball", file=sys.stderr)
    print("support (1-based):", " ".join(str(j + 1) for j in fit.support_used))
    if args.out:
        write_matrix_csv(fit.beta.reshape(-1, 1), args.out)
        print(f"coefficients written to {args.out}")
    return 0


def _cmd_tune(args):
    method = METHODS[args.method]
    train_m, test_m = map(method.moments, _load_datasets(args, args.data, args.test_data))
    grid = method.grid(train_m.n, train_m.p)
    best, losses, _ = cross_validate(train_m, test_m, grid, method,
                                    SolverOptions(radius=args.radius))
    with open(args.out, "w", newline="\n") if args.out else nullcontext(sys.stdout) as fh:
        write_table(fh, ["value", "loss"], zip(grid, losses))
    if min(losses) == np.inf:
        raise ValueError("no grid point has a finite held-out loss")
    print(f"best value: {best:g}")
    n_inf = sum(1 for loss in losses if loss == np.inf)
    print(f"grid points with infinite loss: {n_inf} of {len(grid)}")
    return 0


def _cmd_precision(args):
    data = _load_missing(args.data)
    est = estimate_precision(data, args.an, args.radius)
    write_matrix_csv(est.theta, args.out)
    neg = " ".join(str(j + 1) for j in est.negative_d)
    print(f"precision matrix ({data.p}x{data.p}) written to {args.out}; "
          f"{len(est.negative_d)} columns with d_j <= 0" + (f" (1-based): {neg}" if neg else ""))
    if args.diagnostics:
        with open(args.diagnostics, "w", newline="\n") as fh:
            write_table(fh, ["column", "support_size", "d", "fallback"],
                        zip(range(1, data.p + 1), map(len, est.neighborhood_supports),
                            est.d.tolist(), map(int, est.fallback_flags)))
    return 0


def _cmd_experiment(args):
    spec = _load_config(GridSpec, args.config, base_seed=args.seed)
    records = run_grid(spec, workers=args.workers, keep_beta=args.save_coefs,
                       no_timing=args.no_timing)
    emit_results(records, args.out)
    n_err = sum(1 for r in records if r.error is not None)
    print(f"{len(records)} records written to {args.out} ({n_err} error rows)")
    if args.save_coefs:
        sidecar = args.out + ".coefs.csv"
        with open(sidecar, "w", newline="\n") as fh:  # long form: one row per coefficient
            write_table(fh, ["scenario", "method", "j", "coef"],
                        ((r.scenario, r.method, j, b) for r in records if r.beta is not None
                         for j, b in enumerate(r.beta.tolist(), start=1)))  # j 1-based
        print(f"coefficients written to {sidecar}")
    if args.strict and n_err:
        return 1
    return 0


def _add_dataset_args(sp):
    sp.add_argument("--data", required=True, help="dataset CSV (header row, NA for missing)")
    sp.add_argument("--noise", choices=["additive", "missing"], required=True)
    sigma = sp.add_mutually_exclusive_group()
    sigma.add_argument("--sigma-w", help="covariate-noise covariance CSV (additive)")
    sigma.add_argument("--sigma-w-ar1", nargs=2, type=float, metavar=("PHI", "SCALE"),
                       help="AR(1) covariate-noise covariance (additive)")


def build_parser():
    parser = argparse.ArgumentParser(prog="corrls")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate a dataset")
    sp.add_argument("--config", required=True, help="JSON scenario config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)
    sp.add_argument("--truth", help="optional path for the true coefficients")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="fit one method on one dataset")
    _add_dataset_args(sp)
    sp.add_argument("--method", choices=list(METHODS), required=True)
    sp.add_argument("--tuning", type=float, required=True,
                    help="a_n for cs_post, lambda otherwise")
    sp.add_argument("--radius", type=float, required=True, help="l1-ball radius")
    sp.add_argument("--out", help="write coefficients here")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("tune", help="dump a cross-validation curve")
    _add_dataset_args(sp)
    sp.add_argument("--test-data", required=True, help="held-out dataset CSV")
    sp.add_argument("--method", choices=list(METHODS), required=True)
    sp.add_argument("--radius", type=float, required=True, help="l1-ball radius")
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


def _show_warning(message, *_):
    print(f"corrls: warning: {message}", file=sys.stderr)


def main(argv=None):
    """Run one subcommand; a bad input value or file, or a failed fit (`FIT_ERRORS`),
    prints ``corrls: error: ...`` to stderr and returns 2, as argparse does for a bad argument.
    numpy's floating-point warnings are off for the command, so that line is all it prints,
    and a Python warning that is shown prints as one ``corrls: warning: ...`` line."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (*FIT_ERRORS, OSError) as exc:
        print(f"corrls: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
