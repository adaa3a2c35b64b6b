"""The estimates agree with the reference snapshot in tests/data.

Supports, tuning values, false positives and precision supports must match
exactly; coefficients, REE, d and Theta within `RTOL` relative (plus `ATOL`
for entries near zero), which admits last-bit differences between BLAS
builds and thread counts but not a change of the estimator.  Both are
defined in ``tests/data/make_reference.py``, which a change that moves
estimates on purpose reruns.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_reference", DATA / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_reference = _load_script()
RTOL, ATOL, _close = make_reference.RTOL, make_reference.ATOL, make_reference.close
REFERENCE = json.loads((DATA / "reference.json").read_text())


@pytest.fixture(scope="module")
def regression():
    return make_reference.regression_records()


def test_snapshot_covers_both_noise_kinds_and_every_method():
    records = REFERENCE["regression"]
    assert {r["noise"] for r in records} == {"missing", "additive"}
    assert {r["method"] for r in records} == {"CS+post", "L1CLS", "Lasso"}


def test_regression_records_match(regression):
    expected = REFERENCE["regression"]
    assert [(r["noise"], r["scenario"], r["method"]) for r in regression] == \
        [(r["noise"], r["scenario"], r["method"]) for r in expected]
    for got, ref in zip(regression, expected):
        key = (ref["noise"], ref["scenario"], ref["method"])
        assert got["tuning"] == ref["tuning"], key
        assert got["support"] == ref["support"], key
        assert got["fp"] == ref["fp"], key
        assert _close(got["beta"], ref["beta"]), key
        assert got["ree"] == pytest.approx(ref["ree"], rel=RTOL, abs=ATOL), key


def test_precision_record_matches():
    got, ref = make_reference.precision_record(), REFERENCE["precision"]
    assert got["supports"] == ref["supports"]
    assert got["negative_d"] == ref["negative_d"]
    assert _close(got["d"], ref["d"])
    assert _close(got["theta"], ref["theta"])


def test_moved_marks_each_record_within_or_beyond_the_tolerance():
    new = json.loads(json.dumps(REFERENCE))
    nudged, scaled, retuned = new["regression"][:3]
    beta = make_reference._parse(nudged["beta"])
    j = np.argmax(np.abs(beta))
    beta[j] = np.nextafter(beta[j], np.inf)  # one ulp
    nudged["beta"] = make_reference._floats(beta)
    beta = make_reference._parse(scaled["beta"])
    scaled["beta"] = make_reference._floats(beta * (1 + 1e-6))
    retuned["tuning"] += 0.05
    lines = make_reference.moved(REFERENCE, new)
    assert [line.rsplit(", ", 1)[-1] for line in lines[:3]] == \
        ["within tolerance", "beyond tolerance", "beyond tolerance"]
    n = len(REFERENCE["regression"]) + 1
    assert lines[3:] == [f"3 of {n} records moved: 1 within tolerance, 2 beyond"]
    assert make_reference.moved(REFERENCE, REFERENCE) == [f"no record moved ({n} records)"]
