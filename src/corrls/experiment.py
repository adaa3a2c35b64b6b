"""Experiment grids: run the three estimators over (n, p, s) cells,
collect per-replicate records, and persist them deterministically.

Each grid cell draws its own seed from the base seed so that cells are
independent and the output is byte-identical regardless of how many
workers execute them.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import substream
from .metrics import false_positives, ree, true_positive_rate
from .post import (
    cross_validate,
    default_an_grid,
    default_lambda_grid,
    with_estimated_missing_rates,
)
from .selection import SolverOptions, support
from .simulate import SimConfig, gen_regression

__all__ = ["GridSpec", "ExperimentRecord", "grid_cells", "run_grid", "emit_results", "CSV_HEADER"]

_FIT_RULES = {"CS+post": "cs_post", "L1CLS": "l1cls", "Lasso": "lasso"}  # for cross_validate
METHODS = tuple(_FIT_RULES)

CSV_HEADER = "scenario,n,p,s,noise,method,seed,tuning,ree,fp,tpr,wall_s"


@dataclass(frozen=True)
class GridSpec:
    n_values: tuple
    p_values: tuple
    s_values: tuple
    noise_kind: str
    replicates: int
    base_seed: int
    methods: tuple = METHODS
    sigma_eps: float = 0.25
    ar_phi: float = 0.5
    c_w: float = 0.25
    rho_range: tuple = (0.05, 0.75)
    solver_max_iters: int = 5000
    solver_rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("n_values", "p_values", "s_values", "methods"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)
        if any(v <= 0 for v in self.n_values + self.p_values + self.s_values):
            raise ValueError("grid values must be positive")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")


@dataclass(frozen=True)
class ExperimentRecord:
    scenario: str
    n: int
    p: int
    s: int
    noise_kind: str
    method: str
    seed: int
    tuning: float
    ree: float
    false_positives: int
    true_positive_rate: float
    wall_time_s: float
    beta: np.ndarray | None = field(default=None, compare=False)
    error: str | None = None


def grid_cells(spec: GridSpec):
    """Lexicographic list of (n, p, s, replicate) cells for a spec."""
    return [(n, p, s, rep)
            for n in spec.n_values for p in spec.p_values
            for s in spec.s_values for rep in range(spec.replicates)]


def _cell_seed(base_seed, n, p, s, rep):
    return int(substream(base_seed, "cell", n, p, s, rep).integers(0, 2**63))


def _run_cell(spec: GridSpec, n, p, s, rep, keep_beta):
    seed = _cell_seed(spec.base_seed, n, p, s, rep)
    cfg = SimConfig(n=n, p=p, s=s, noise_kind=spec.noise_kind, seed=seed,
                    sigma_eps=spec.sigma_eps, ar_phi=spec.ar_phi, c_w=spec.c_w,
                    rho_range=spec.rho_range)
    train, beta0, T = gen_regression(cfg)
    test_cfg = replace(cfg, seed=_cell_seed(seed, n, p, s, "test"))
    rho_true = train.noise.rho if spec.noise_kind == "missing" else None
    test, _, _ = gen_regression(test_cfg, beta0=beta0, rho=rho_true)
    # the fitting pipeline only sees estimated missing rates
    train = with_estimated_missing_rates(train)
    test = with_estimated_missing_rates(test)
    radius = 1.1 * float(np.abs(beta0).sum())
    opts = SolverOptions(max_iters=spec.solver_max_iters, rel_tol=spec.solver_rel_tol,
                         radius=radius)
    scenario = f"n{n}_p{p}_s{s}_r{rep}"
    records = []
    for method in spec.methods:
        t0 = time.perf_counter()
        try:
            grid = default_an_grid(n, p) if method == "CS+post" else default_lambda_grid()
            best, _, fit = cross_validate(train, test, grid, _FIT_RULES[method], opts)
            if fit is None:
                raise ArithmeticError("cross-validation failed at every grid point")
            tuning = float(best)
            T_hat = fit.support_used if method == "CS+post" else tuple(support(fit.beta))
            records.append(ExperimentRecord(
                scenario=scenario, n=n, p=p, s=s, noise_kind=spec.noise_kind,
                method=method, seed=seed, tuning=tuning,
                ree=ree(fit.beta, beta0),
                false_positives=false_positives(T_hat, T),
                true_positive_rate=true_positive_rate(T_hat, T),
                wall_time_s=time.perf_counter() - t0,
                beta=fit.beta.copy() if keep_beta else None))
        except Exception as exc:  # error row, not a run abort
            records.append(ExperimentRecord(
                scenario=scenario, n=n, p=p, s=s, noise_kind=spec.noise_kind,
                method=method, seed=seed, tuning=float("nan"),
                ree=float("nan"), false_positives=-1, true_positive_rate=float("nan"),
                wall_time_s=time.perf_counter() - t0, error=str(exc)))
    return records


def run_grid(spec: GridSpec, workers=1, keep_beta=False, no_timing=False):
    """Run every (n, p, s, replicate) cell; output order is lexicographic
    in the cell tuple regardless of execution order or worker count."""
    cells = grid_cells(spec)
    if workers <= 1:
        per_cell = [_run_cell(spec, *cell, keep_beta) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, spec, *cell, keep_beta) for cell in cells]
            per_cell = [f.result() for f in futures]
    records = [rec for group in per_cell for rec in group]
    if no_timing:
        records = [replace(rec, wall_time_s=0.0) for rec in records]
    return records


def _fmt(x):
    return f"{x:.17g}"


def emit_results(records, path):
    """Write records as CSV with a fixed header and round-trip-exact floats."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.scenario, str(r.n), str(r.p), str(r.s), r.noise_kind, r.method,
            str(r.seed), _fmt(r.tuning), _fmt(r.ree), str(r.false_positives),
            _fmt(r.true_positive_rate), _fmt(r.wall_time_s)]))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
