"""Benchmark of corrls: replication grids, a wide cell and the precision CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/smoke.py      # every workload once, untraced and traced

Run it from the root of a source tree; it imports corrls from ``src/`` and
keeps its files in ``.bench_work/``.  It sets a workload up three times,
then runs rounds of passes (one pass per group of the workload's panel)
for ``--seconds`` seconds, checks every output, and prints as the last line
of standard output ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones below; with ``--trace 1``
half the time runs untraced and half with every layer of `tracer.TRACED`
wrapped, and the metrics are per layer and per round.

End-to-end metrics:
  setup_s          median set-up: a fresh interpreter importing corrls, then
                   the workload's inputs (the CSV write for precision_cli)
  run_s            one round: the sum over groups of their median pass
  unit_s_p50/p90   across the panel's units, each unit's latency being its
                   median over the rounds; a grid unit is a (cell, method)
                   record's own ``wall_s``, a precision unit one CLI call
  peak_rss_mib     peak resident memory of the process
  ok_frac          units that passed their checks over units attempted
  ree.*            mean relative estimation error per method
  model_size.*     mean selected support size per method
  theta_err        column-norm error of the precision estimate
  pos_d_frac       share of columns whose diagnostics report d > 0
Times are scaled by `SpeedProbe`.  Metrics must never be 0, so failures
are reported as ``ok_frac``, false positives within ``model_size`` and
negative d as ``pos_d_frac``; a quality metric that a workload does not
produce reads `NOT_APPLICABLE`.

Each workload runs a fixed statistical panel (data seeds from `PANEL_SEED`).
The ``--seed`` argument reorders what does not change the estimates: the
order in which a grid's groups run and the order of the variables in the
precision dataset.  A panel drawn from the seed made the quality metrics
vary more than any useful bound: the mean false positives of CS+post over
8 paper cells was 4.9 under one seed and 20.6 under the next, and a grid
pass took 2.9 s under one and 3.9 s under the other.  Reordering the
methods within a cell was tried too: on two threads it moved the median
unit latency by up to 30%, as it changes which fits overlap.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "corrls" / "__init__.py").is_file():
    sys.exit(f"no corrls sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402
from corrls import cli, data, experiment, simulate  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

PANEL_SEED = 1605
SETUP_REPEATS = 3
METHODS = {"CS+post": "cs_post", "L1CLS": "l1cls", "Lasso": "lasso"}
NOT_APPLICABLE = 1.0  # constant for a quality metric the workload does not produce

#: per-layer metric -> the end-to-end metric and workload it should move
SHOULD_MOVE = {
    "selection.lipschitz_estimate": "run_s on wide_missing",
    "selection.l1_cls_fit": "run_s, unit_s_p90 on grid_missing and wide_missing; "
                            "ree.* via unconverged_frac",
    "selection.project_l1_ball": "run_s on grid_missing",
    "selection.cs_screen": "run_s on grid_missing",
    "post.post_cls_fit": "run_s on both grids; unit_s_p90 on grid_missing",
    "post.cross_validate": "ree.* and model_size.* (hidden failed grid points)",
    "moments.corrected_moments": "run_s on wide_missing",
    "moments.corrected_loss": "run_s on wide_missing",
    "precision.neighborhood_moments": "run_s on precision_cli",
    "precision.assemble_precision": "run_s on precision_cli",
    "precision.estimate_precision": "run_s on precision_cli",
    "data.read_dataset_csv": "run_s on precision_cli",
    "data.write_matrix_csv": "run_s on precision_cli",
    "data.write_dataset_csv": "setup_s on precision_cli",
    "experiment.run_grid": "run_s, unit_s_p90 on grid_missing",
    "experiment.busy_frac": "run_s, unit_s_p90 on grid_missing",
    "simulate.gen_regression": "nothing: should stay flat",
    "cli.main": "nothing: should stay flat",
}

QUALITY = [("ree.cs_post", "ratio"), ("ree.l1cls", "ratio"), ("ree.lasso", "ratio"),
           ("model_size.cs_post", "count"), ("model_size.l1cls", "count"),
           ("model_size.lasso", "count"),
           ("theta_err", "norm"), ("pos_d_frac", "fraction")]


class Grid:
    """`experiment.run_grid` on the (n=500, p, s=4) cell.

    The panel is `groups` grids of `replicates` cells each, one grid per
    pass, so that a pass stays short and a burst of load on the machine
    spoils few of them.
    """

    produces = [f"{stat}.{key}" for stat in ("ree", "model_size") for key in METHODS.values()]

    def __init__(self, noise, p, groups, replicates, workers, probe_ref_s):
        self.noise, self.p, self.groups = noise, p, groups
        self.replicates, self.workers, self.probe_ref_s = replicates, workers, probe_ref_s

    def probe(self):
        return SpeedProbe(self.p, self.workers, self.probe_ref_s)

    def setup(self, seed):
        """The panel's grids, rotated so that grid ``seed % groups`` runs first."""
        groups = [(seed + k) % self.groups for k in range(self.groups)]
        return [experiment.GridSpec(
            n_values=(500,), p_values=(self.p,), s_values=(4,), noise_kind=self.noise,
            replicates=self.replicates, base_seed=PANEL_SEED + group, methods=tuple(METHODS))
            for group in groups]

    def run_pass(self, specs, group):
        """Returns (units attempted, {unit: (seconds, checked output or None)})."""
        spec = specs[group]
        attempted = self.replicates * len(spec.methods)
        try:
            records = experiment.run_grid(spec, workers=self.workers, keep_beta=True)
        except Exception as exc:
            print(f"run_grid raised {exc!r}", file=sys.stderr)
            return attempted, {}
        cells = {}
        for rec in records:
            cells.setdefault(rec.scenario, []).append(rec)
        units = {}
        for scenario, recs in cells.items():
            whole = sorted(r.method for r in recs) == sorted(spec.methods)
            for r in recs:
                output = None
                if not whole or r.error is not None or not math.isfinite(r.ree) \
                        or r.beta is None or r.beta.shape != (self.p,):
                    print(f"{scenario} {r.method}: bad record (error={r.error!r}, "
                          f"methods in cell {[x.method for x in recs]})", file=sys.stderr)
                else:
                    size = r.false_positives + round(r.true_positive_rate * r.s)
                    output = (r.ree, size, r.tuning)
                units[(group, scenario, r.method)] = (r.wall_time_s, output)
        return attempted, units

    def quality(self, outputs):
        q = {}
        for method, key in METHODS.items():
            vals = [v for (_, _, m), v in outputs.items() if m == method]
            q[f"ree.{key}"] = statistics.fmean(v[0] for v in vals) if vals else None
            q[f"model_size.{key}"] = statistics.fmean(v[1] for v in vals) if vals else None
        return q


class PrecisionCli:
    """In-process ``corrls precision`` on a band-Theta dataset with NA tokens."""

    produces = ["theta_err", "pos_d_frac"]
    groups = workers = 1
    n, p, a_n = 2000, 400, 8

    def probe(self):
        return SpeedProbe(self.p, 1, 0.028, parse=True)

    def setup(self, seed):
        theta, sigma = simulate.generate_band_precision(self.p)
        ds = simulate.gen_graph_data(sigma, self.n, 1.0, (0.05, 0.75), PANEL_SEED)
        perm = np.random.default_rng(seed).permutation(self.p)
        ds = data.SurrogateDataset(Z=ds.Z[:, perm], y=None, mask=ds.mask[:, perm],
                                   noise=data.MissingNoise(ds.noise.rho[perm]))
        path = WORK / f"precision-seed{seed}.csv"
        data.write_dataset_csv(ds, path)
        theta = theta[np.ix_(perm, perm)]
        radius = 1.1 * float(np.abs(theta).sum(axis=1).max())
        return {"csv": path, "theta": theta, "radius": radius,
                "out": WORK / f"theta-seed{seed}.csv", "diag": WORK / f"diag-seed{seed}.csv"}

    def run_pass(self, state, group):
        argv = ["precision", "--data", str(state["csv"]), "--an", str(self.a_n),
                "--radius", repr(state["radius"]), "--out", str(state["out"]),
                "--diagnostics", str(state["diag"])]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            print(f"corrls precision raised {exc!r}", file=sys.stderr)
            return 1, {}
        wall = time.perf_counter() - t0
        try:
            output = self._check(state) if code == 0 else None
        except (OSError, ValueError) as exc:
            print(f"precision: unreadable output: {exc!r}", file=sys.stderr)
            output = None
        return 1, {"cli": (wall, output)}

    def _check(self, state):
        theta_hat = np.loadtxt(state["out"], delimiter=",", ndmin=2)
        if theta_hat.shape != (self.p, self.p) or not np.all(np.isfinite(theta_hat)) \
                or not np.array_equal(theta_hat, theta_hat.T):
            print("precision: estimate not a finite symmetric p x p matrix", file=sys.stderr)
            return None
        lines = state["diag"].read_text().splitlines()
        if len(lines) != self.p + 1:
            print(f"precision: diagnostics has {len(lines) - 1} rows", file=sys.stderr)
            return None
        d_col = lines[0].split(",").index("d")
        d = np.array([float(line.split(",")[d_col]) for line in lines[1:]])
        digest = hashlib.sha256(state["out"].read_bytes() + state["diag"].read_bytes())
        return (float(np.max(np.linalg.norm(theta_hat - state["theta"], axis=0))),
                float(np.mean(d > 0)), digest.hexdigest())

    def quality(self, outputs):
        if "cli" not in outputs:
            return {}
        theta_err, pos_d_frac, _ = outputs["cli"]
        return {"theta_err": theta_err, "pos_d_frac": pos_d_frac}


WORKLOADS = {
    "grid_missing": Grid("missing", p=100, groups=2, replicates=4, workers=2,
                         probe_ref_s=0.045),
    "grid_additive": Grid("additive", p=100, groups=4, replicates=4, workers=1,
                          probe_ref_s=0.020),
    "wide_missing": Grid("missing", p=1000, groups=1, replicates=1, workers=1,
                         probe_ref_s=0.040),
    "precision_cli": PrecisionCli(),
}


class SpeedProbe:
    """Fixed work, independent of corrls, timed after every set-up and pass.

    Reported times are wall seconds scaled by ``ref_s / probe seconds``, the
    probe seconds being the mean of the probes just before and just after
    the timed segment.  On a shared 2-vCPU machine the speed drifted by up
    to 2x within a minute, and raw run_s spread by 0.26 to 0.39 of its
    median over five runs.  The probe runs a projected-gradient-like loop on
    as many threads as the workload has workers, then either a p x p matrix
    product and matrix-vector products at the workload's p, or, with
    ``parse``, CSV parsing and (p-1)^2 block copies, so that it slows down
    under the same kind of contention as the workload.  ``ref_s`` is the
    probe's median seconds on the machine the bounds were set on, a 2-vCPU
    Xeon VM, so scaled times read as seconds there.
    """

    def __init__(self, p, threads, ref_s, parse=False):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 100))
        self.gram = a @ a.T / 100
        self.vec = rng.standard_normal(100)
        self.square = rng.standard_normal((p, p))
        self.text = "\n".join(",".join(f"{x:.17g}" for x in row)
                              for row in rng.standard_normal((300, 50)))
        self.threads, self.ref_s, self.parse = threads, ref_s, parse
        for _ in range(3):  # first calls load and allocate
            self._once()
        self.last = self.measure()

    def _loop(self):
        x = np.ones(100)
        for _ in range(1000):
            v = self.gram @ x - self.vec
            v = np.sign(v) * np.maximum(np.abs(v) - 0.01, 0.0)
            np.cumsum(np.sort(np.abs(v))[::-1])
            x = v / np.linalg.norm(v)

    def _once(self):
        t0 = time.perf_counter()
        with ThreadPoolExecutor(self.threads) as pool:
            for future in [pool.submit(self._loop) for _ in range(self.threads)]:
                future.result()
        if self.parse:
            [[float(x) for x in row] for row in csv.reader(io.StringIO(self.text))]
            rest = np.arange(1, self.square.shape[0])
            for _ in range(20):
                self.square[np.ix_(rest, rest)]
        else:
            self.square @ self.square
            x = self.square[0]
            for _ in range(10):
                x = self.square @ x / np.linalg.norm(x)
        return time.perf_counter() - t0

    def measure(self):
        return min(self._once() for _ in range(2))

    def scale(self):
        """Scale factor for the segment timed since the previous call."""
        now = self.measure()
        factor = self.ref_s / ((self.last + now) / 2)
        self.last = now
        return factor


class Tally:
    """Counts, scaled latencies and first outputs of the units of a run.

    A unit fails when it raises, when its output check fails, or when its
    output differs from the one its first pass gave.
    """

    def __init__(self):
        self.attempted = self.failed = self.rounds = 0
        self.pass_s = defaultdict(list)  # group -> scaled seconds of its passes
        self.unit_s = defaultdict(list)  # unit -> scaled seconds over passes
        self.outputs = {}                # unit -> output of its first good pass

    def add(self, group, seconds, attempted, units, factor):
        self.pass_s[group].append(seconds * factor)
        self.attempted += attempted
        good = 0
        for key, (unit_s, output) in units.items():
            self.unit_s[key].append(unit_s * factor)
            if output is None:
                continue
            if self.outputs.setdefault(key, output) != output:
                print(f"{key}: output differs from the first pass", file=sys.stderr)
                continue
            good += 1
        self.failed += attempted - good

    def run_s(self):
        """Seconds for the whole panel: the sum over groups of median pass seconds."""
        return sum(statistics.median(v) for v in self.pass_s.values())

    def unit_medians(self):
        return np.array([statistics.median(v) for v in self.unit_s.values()])


def import_corrls_fresh():
    """Start a fresh interpreter that imports corrls, and wait for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import corrls"], env=env, cwd=ROOT, check=True)


def setup(workload, seed, probe, tracer=None):
    """Median scaled set-up seconds over `SETUP_REPEATS` set-ups, and the last state.

    One set-up starts a fresh interpreter that imports corrls, then builds
    the workload's inputs.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_corrls_fresh()
        state = workload.setup(seed)
        times.append((time.perf_counter() - t0) * probe.scale())
    stats = tracer.take_stats() if tracer else None
    return statistics.median(times), state, stats


def run_passes(workload, state, seconds, tally, probe, tracer=None):
    """Run whole rounds of passes, one per group, until `seconds` have gone by."""
    deadline = time.perf_counter() + seconds
    while tally.rounds == 0 or time.perf_counter() < deadline:
        for group in range(workload.groups):
            if tracer:
                tracer.unit += 1
            t0 = time.perf_counter()
            attempted, units = workload.run_pass(state, group)
            wall = time.perf_counter() - t0
            tally.add(group, wall, attempted, units, probe.scale())
        tally.rounds += 1


def end_to_end(name, workload, seed, seconds):
    probe = workload.probe()
    setup_s, state, _ = setup(workload, seed, probe)
    tally = Tally()
    run_passes(workload, state, seconds, tally, probe)
    quality = dict.fromkeys((name for name, _ in QUALITY), NOT_APPLICABLE)
    quality.update(dict.fromkeys(workload.produces))
    quality.update(workload.quality(tally.outputs))
    units = tally.unit_medians()
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (tally.run_s(), "s"),
        "unit_s_p50": (float(np.percentile(units, 50)) if units.size else None, "s"),
        "unit_s_p90": (float(np.percentile(units, 90)) if units.size else None, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
    }
    metrics.update((name, (quality[name], unit)) for name, unit in QUALITY)
    print(f"# {tally.rounds} rounds of {workload.groups} passes, {units.size} units, "
          f"{SETUP_REPEATS} set-ups; times are scaled to the speed probe; a unit's "
          f"latency is its median over the rounds; quality is from the first good pass")
    for metric, (value, unit) in metrics.items():
        note = "  (not produced by this workload)" \
            if metric in dict(QUALITY) and metric not in workload.produces else ""
        print(f"  {metric:<18} {value!r:>24} {unit}{note}")
    return tally.attempted, tally.failed, metrics


def busy_fraction(spans, workers):
    """Share of worker time spent inside spans caused by `run_grid`."""
    grids = {sid: end - start for sid, _, unit, _, name, start, end in spans
             if name == "experiment.run_grid" and unit > 0}
    busy = sum(end - start for _, parent, _, _, _, start, end in spans if parent in grids)
    capacity = workers * sum(grids.values())
    return busy / capacity if capacity else 0.0


def per_layer(name, workload, seed, seconds):
    probe = workload.probe()
    tracer = Tracer()
    tracer.patch()
    _, state, setup_stats = setup(workload, seed, probe, tracer)
    tracer.unpatch()
    plain, traced = Tally(), Tally()
    run_passes(workload, state, seconds / 2, plain, probe)
    tracer.patch()
    run_passes(workload, state, seconds / 2, traced, probe, tracer)
    tracer.unpatch()
    pass_stats = tracer.take_stats()
    spans_path = WORK / f"spans-{name}-seed{seed}.csv"
    tracer.write_spans(spans_path)

    def per_round(layer, key):
        return (setup_stats.get(layer, {}).get(key, 0.0) / SETUP_REPEATS
                + pass_stats.get(layer, {}).get(key, 0.0) / traced.rounds)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for module, functions in TRACED.items():
        for fname in functions:
            layer = f"{module}.{fname}"
            metrics[f"{layer}.calls"] = (per_round(layer, "calls"), "count")
            metrics[f"{layer}.self_s"] = (per_round(layer, "self_s"), "s")
    lip, l1 = "selection.lipschitz_estimate", "selection.l1_cls_fit"
    post, cv = "post.post_cls_fit", "post.cross_validate"
    loss, read = "moments.corrected_loss", "data.read_dataset_csv"
    metrics.update({
        f"{lip}.gflop": (per_round(lip, "flop") / 1e9, "Gflop"),
        f"{l1}.iters_per_fit": (ratio(per_round(l1, "iters"), per_round(l1, "calls")), "iters"),
        f"{l1}.unconverged_frac": (
            ratio(per_round(l1, "unconverged"), per_round(l1, "calls")), "fraction"),
        f"{post}.fallback_frac": (
            ratio(per_round(post, "fallback"), per_round(post, "calls")), "fraction"),
        f"{cv}.inf_frac": (ratio(per_round(cv, "inf"), per_round(cv, "points")), "fraction"),
        f"{loss}.gflop": (per_round(loss, "flop") / 1e9, "Gflop"),
        f"{read}.mb_per_s": (
            ratio(per_round(read, "bytes") / 1e6, per_round(read, "total_s")), "MB/s"),
        "experiment.busy_frac": (busy_fraction(tracer.spans, workload.workers), "fraction"),
        "trace.run_s_untraced": (plain.run_s(), "s"),
        "trace.run_s_traced": (traced.run_s(), "s"),
        "trace.overhead_s": (traced.run_s() - plain.run_s(), "s"),
    })
    print(f"# {plain.rounds} untraced and {traced.rounds} traced rounds; layer numbers are "
          f"per round plus one set-up, in raw seconds; trace.* are scaled to the speed "
          f"probe; gflop counts are computed from argument shapes; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<46} {value:>14.6g} {unit}")
    print("# layer -> end-to-end metric it should move")
    for layer, target in SHOULD_MOVE.items():
        print(f"  {layer:<34} {target}")
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    """HEAD of a git checkout at the root, read from .git; None elsewhere."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(), "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{name}/{k}", v) for k, v in result["metrics"].items())
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    WORK.mkdir(exist_ok=True)
    print("# run record " + json.dumps(run_record(args)))
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(args.workload, workload, args.seed, args.seconds)
    for path in WORK.glob(f"*-seed{args.seed}.csv"):
        if not path.name.startswith("spans-"):
            path.unlink()
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
