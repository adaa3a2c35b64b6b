"""Regenerate the reference snapshot ``reference.json`` next to this file.

    PYTHONPATH=src python3 tests/data/make_reference.py
    PYTHONPATH=src python3 tests/data/make_reference.py --diff

The snapshot holds the estimates of a few replicates of the paper cell
(n=500, p=100, s=4) under both noise kinds and of a wide missing-data cell
(n=100, p=300, s=4), one record per (cell, method):
the chosen tuning value, the support (0-based, by `corrls.support`), REE,
false positives and the coefficients printed with ``%.17g``.  It also holds
one precision estimate at p=30.  ``tests/test_reference.py`` recomputes
every record and compares it with the file.  A change that moves estimates
on purpose reruns this script and lists every record that moved, which
``--diff`` prints against the committed file without writing it.  ``--diff``
compares exactly, so "no record moved" means the same bytes; it marks each
moved record as within or beyond the test's tolerance, ends with a count, and
exits 1 if any record is beyond the tolerance, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from corrls import GridSpec, estimate_precision, run_grid, support
from corrls.simulate import gen_graph_data, generate_band_precision

PATH = Path(__file__).resolve().parent / "reference.json"

#: (noise kind, base seed, replicates, n, p) of the regression cells
CELLS = [("missing", 0, 3, 500, 100), ("additive", 0, 3, 500, 100), ("missing", 0, 2, 100, 300)]
#: p, n, a_n and data seed of the precision estimate
PRECISION = {"p": 30, "n": 600, "a_n": 4, "seed": 5}
#: tolerance of ``tests/test_reference.py``: supports, tuning values and false
#: positives match exactly; coefficients, REE, d and Theta within RTOL relative,
#: plus ATOL for entries near zero (last-bit BLAS differences, not a new estimator)
RTOL, ATOL = 1e-9, 1e-12


def _floats(values):
    return ",".join(f"{x:.17g}" for x in np.ravel(values))


def regression_records():
    """One dict per (cell, method) of the replicates in `CELLS`."""
    records = []
    for noise, base_seed, replicates, n, p in CELLS:
        spec = GridSpec(n_values=(n,), p_values=(p,), s_values=(4,), noise_kind=noise,
                        replicates=replicates, base_seed=base_seed)
        for r in run_grid(spec, keep_beta=True, no_timing=True):
            if r.error is not None:
                raise RuntimeError(f"{noise} {r.scenario} {r.method}: {r.error}")
            records.append({
                "noise": noise, "scenario": r.scenario, "method": r.method,
                "tuning": r.tuning, "support": support(r.beta), "ree": r.ree,
                "fp": r.false_positives, "beta": _floats(r.beta)})
    return records


def precision_record():
    """The band-precision estimate at `PRECISION`."""
    theta, sigma = generate_band_precision(PRECISION["p"])
    data = gen_graph_data(sigma, PRECISION["n"], 1.0, (0.05, 0.75), PRECISION["seed"])
    radius = 1.1 * float(np.abs(theta).sum(axis=1).max())
    est = estimate_precision(data, PRECISION["a_n"], radius)
    return {**PRECISION, "radius": radius,
            "supports": [list(s) for s in est.neighborhood_supports],
            "negative_d": est.negative_d, "d": _floats(est.d), "theta": _floats(est.theta)}


def snapshot():
    return {"regression": regression_records(), "precision": precision_record()}


def close(actual, expected):
    """Whether two ``%.17g`` float lists agree within `RTOL` and `ATOL`."""
    return np.allclose(_parse(actual), _parse(expected), rtol=RTOL, atol=ATOL)


def _within(was, r):
    """Whether regression record ``r`` passes the test against the snapshot's ``was``."""
    return (r["tuning"] == was["tuning"] and r["support"] == was["support"]
            and r["fp"] == was["fp"] and close(r["beta"], was["beta"])
            and abs(r["ree"] - was["ree"]) <= max(RTOL * abs(was["ree"]), ATOL))


def moved(old, new):
    """One line per record of snapshot ``new`` that differs from ``old``:
    noise, scenario, method, tuning before -> after, the support indices
    dropped (-) and added (+), the largest |change| of a coefficient, and
    whether the record is within or beyond the tolerance of
    ``tests/test_reference.py``; or "added" for a record that ``old`` does not
    have.  A last line counts the moved records."""
    before = {(r["noise"], r["scenario"], r["method"]): r for r in old["regression"]}
    lines, beyond = [], 0
    for r in new["regression"]:
        key = (r["noise"], r["scenario"], r["method"])
        was = before.get(key)
        if was is None:
            lines.append(f"{' '.join(key)}: added, beyond tolerance")
            beyond += 1
            continue
        if was == r:
            continue
        step = np.max(np.abs(_parse(r["beta"]) - _parse(was["beta"])))
        dropped = sorted(set(was["support"]) - set(r["support"]))
        added = sorted(set(r["support"]) - set(was["support"]))
        change = f"-{dropped} +{added}" if dropped or added else "unchanged"
        within = _within(was, r)
        beyond += not within
        lines.append(f"{' '.join(key)}: tuning {was['tuning']} -> {r['tuning']}, "
                     f"support {change}, max |dbeta| {step:.3g}, "
                     f"{'within' if within else 'beyond'} tolerance")
    new_p, old_p = new["precision"], old["precision"]
    if new_p != old_p:
        step = np.max(np.abs(_parse(new_p["theta"]) - _parse(old_p["theta"])))
        same = new_p["supports"] == old_p["supports"]
        within = (same and new_p["negative_d"] == old_p["negative_d"]
                  and close(new_p["d"], old_p["d"]) and close(new_p["theta"], old_p["theta"]))
        beyond += not within
        lines.append(f"precision: supports {'unchanged' if same else 'changed'}, "
                     f"max |dtheta| {step:.3g}, {'within' if within else 'beyond'} tolerance")
    total = len(new["regression"]) + 1
    if not lines:
        return [f"no record moved ({total} records)"]
    return lines + [f"{len(lines)} of {total} records moved: {len(lines) - beyond} within "
                    f"tolerance, {beyond} beyond"]


def _parse(text):
    return np.array([float(x) for x in text.split(",")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate reference.json.")
    parser.add_argument("--diff", action="store_true",
                        help="print the records that moved against the committed "
                             "reference.json instead of writing it; exit 1 if one is "
                             "beyond the test tolerance")
    if parser.parse_args().diff:
        lines = moved(json.loads(PATH.read_text()), snapshot())
        print("\n".join(lines))
        sys.exit(any(line.endswith("beyond tolerance") for line in lines))
    else:
        PATH.write_text(json.dumps(snapshot(), indent=1) + "\n")
        print(f"wrote {PATH}")
