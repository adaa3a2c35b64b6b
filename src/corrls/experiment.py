"""Experiment grids: run the three estimators over (n, p, s) cells,
collect per-replicate records, and persist them deterministically.

Each grid cell draws its own seed from the base seed.  A grid of fewer than
`_POOL_MIN_CELLS` cells runs serially in-process, a larger one in a pool of
``workers`` processes at one BLAS thread.  The thread count moves the last
bits of the estimates, so the output is byte-identical for any worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import substream
from .data import _whole, write_table
from .metrics import false_positives, ree, true_positive_rate
from .post import METHODS as _RECORDS, PAPER_METHODS, cross_validate, with_estimated_missing_rates
from .selection import SolverOptions
from .simulate import SimConfig, gen_regression

__all__ = ["GridSpec", "ExperimentRecord", "grid_cells", "run_grid", "emit_results", "CSV_HEADER"]

_FIT_RULES = {m.label: name for name, m in _RECORDS.items()}  # record label -> fit rule
METHODS = tuple(_RECORDS[key].label for key in PAPER_METHODS)  # a grid's default methods

#: CSV column -> `ExperimentRecord` field, in file order
_COLUMNS = {"scenario": "scenario", "n": "n", "p": "p", "s": "s", "noise": "noise_kind",
            "method": "method", "seed": "seed", "tuning": "tuning", "ree": "ree",
            "fp": "false_positives", "tpr": "true_positive_rate", "wall_s": "wall_time_s",
            "error": "error_type"}
CSV_HEADER = ",".join(_COLUMNS)
#: the scores of an error row: no tuning value, REE or TPR, and -1 false positives
_ERROR_SCORES = {"tuning": float("nan"), "ree": float("nan"), "false_positives": -1,
                 "true_positive_rate": float("nan")}


@dataclass(frozen=True)
class GridSpec:
    n_values: tuple
    p_values: tuple
    s_values: tuple
    noise_kind: str
    replicates: int
    base_seed: int
    methods: tuple = METHODS
    sigma_eps: float = SimConfig.sigma_eps
    ar_phi: float = SimConfig.ar_phi
    c_w: float = SimConfig.c_w
    rho_range: tuple = SimConfig.rho_range

    def __post_init__(self):
        for name in ("n_values", "p_values", "s_values", "methods"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if len(set(vals)) < len(vals):  # a repeat would write the same rows twice
                raise ValueError(f"{name} must not repeat a value, got {list(vals)}")
            if name != "methods":  # stored as int: a float or bool n crashes the generator
                vals = tuple(_whole(v, name, 1) for v in vals)
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "replicates", _whole(self.replicates, "replicates", 1))
        object.__setattr__(self, "base_seed", _whole(self.base_seed, "base_seed"))
        bad = set(self.methods) - set(_FIT_RULES)
        if bad:
            raise ValueError(f"unknown methods: {sorted(bad)}")
        # the model fields and s <= p, checked by SimConfig at the least n and p and the greatest s
        self._sim_config(min(self.n_values), min(self.p_values), max(self.s_values))

    def _sim_config(self, n, p, s, seed=0):
        """The scenario of cell (n, p, s) under this spec's model, drawn with ``seed``."""
        return SimConfig(n=n, p=p, s=s, noise_kind=self.noise_kind, seed=seed,
                         sigma_eps=self.sigma_eps, ar_phi=self.ar_phi, c_w=self.c_w,
                         rho_range=self.rho_range)


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
    error: str | None = None  # an error row's message
    error_type: str = ""  # an error row's exception class name


def grid_cells(spec: GridSpec):
    """Lexicographic list of (n, p, s, replicate) cells for a spec."""
    return [(n, p, s, rep)
            for n in spec.n_values for p in spec.p_values
            for s in spec.s_values for rep in range(spec.replicates)]


def _cell_seed(base_seed, n, p, s, rep):
    return int(substream(base_seed, "cell", n, p, s, rep).integers(0, 2**63))


def _run_cell(spec: GridSpec, n, p, s, rep, keep_beta):
    seed = _cell_seed(spec.base_seed, n, p, s, rep)
    cfg = spec._sim_config(n, p, s, seed)
    train, beta0, T = gen_regression(cfg)
    test_cfg = replace(cfg, seed=_cell_seed(seed, n, p, s, "test"))
    rho_true = train.noise.rho if spec.noise_kind == "missing" else None
    test, _, _ = gen_regression(test_cfg, beta0=beta0, rho=rho_true)
    # the fitting pipeline only sees estimated missing rates
    train = with_estimated_missing_rates(train)
    test = with_estimated_missing_rates(test)
    radius = 1.1 * float(np.abs(beta0).sum())
    opts = SolverOptions(radius=radius)
    scenario = f"n{n}_p{p}_s{s}_r{rep}"
    records = []
    fitted = [_RECORDS[_FIT_RULES[label]] for label in spec.methods]  # read at call time
    builds = [method.moments for method in fitted]
    pairs = {}  # builder -> (train, test) moments, kept while a method left to run needs them
    for k, (method, build) in enumerate(zip(fitted, builds)):
        pairs = {b: pair for b, pair in pairs.items() if b in builds[k:]}
        t0 = time.perf_counter()
        try:
            if build not in pairs:
                pairs[build] = (build(train), build(test))
            best, _, fit = cross_validate(*pairs[build], method.grid(n, p), method, opts)
            if fit is None:
                raise ArithmeticError("cross-validation failed at every grid point")
            scores = {"tuning": float(best), "ree": ree(fit.beta, beta0),
                      "false_positives": false_positives(fit.support_used, T),
                      "true_positive_rate": true_positive_rate(fit.support_used, T)}
            wall = time.perf_counter() - t0  # the beta copy is not timed
            beta, failed = (fit.beta.copy() if keep_beta else None), {}
        except Exception as exc:  # error row, not a run abort
            scores, wall, beta = _ERROR_SCORES, time.perf_counter() - t0, None
            failed = {"error": str(exc), "error_type": type(exc).__name__}
        records.append(ExperimentRecord(
            scenario=scenario, n=n, p=p, s=s, noise_kind=spec.noise_kind, method=method.label,
            seed=seed, **scores, wall_time_s=wall, beta=beta, **failed))
    return records


#: Grids of fewer cells run in-process: on 2 cores a pool of 2 lost to serial
#: at 8 and 16 paper cells, tied at 32 and won at 64 (BENCH_14.json).
_POOL_MIN_CELLS = 64
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _run_in_pool(spec, cells, workers, keep_beta):
    """Run the cells in a pool of ``workers`` processes forked from this
    process's forkserver, which starts once, with corrls imported at one
    BLAS thread; the caller's environment is restored after its start."""
    import multiprocessing.forkserver
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        multiprocessing.forkserver.set_forkserver_preload(["corrls.experiment"])
        multiprocessing.forkserver.ensure_running()
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    context = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(_run_cell, spec, *cell, keep_beta) for cell in cells]
        return [f.result() for f in futures]


def run_grid(spec: GridSpec, workers=1, keep_beta=False, no_timing=False):
    """Run every (n, p, s, replicate) cell; output order is lexicographic
    in the cell tuple regardless of execution order or worker count.
    ``workers`` sizes the process pool of a grid of at least
    `_POOL_MIN_CELLS` cells; smaller grids run serially in-process."""
    workers = _whole(workers, "workers", 1)
    cells = grid_cells(spec)
    if len(cells) < _POOL_MIN_CELLS:
        per_cell = [_run_cell(spec, *cell, keep_beta) for cell in cells]
    else:
        per_cell = _run_in_pool(spec, cells, workers, keep_beta)
    records = [rec for group in per_cell for rec in group]
    if no_timing:
        records = [replace(rec, wall_time_s=0.0) for rec in records]
    return records


def emit_results(records, path):
    """Write records as the `_COLUMNS` of a CSV table (`write_table`)."""
    try:
        with open(path, "w", newline="\n") as fh:
            write_table(fh, _COLUMNS, ([getattr(r, f) for f in _COLUMNS.values()]
                                       for r in records))
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
