"""The estimates agree with the reference snapshot in tests/data.

Supports, tuning values, false positives and precision supports must match
exactly; coefficients, REE, d and Theta within `RTOL` relative (plus `ATOL`
for entries near zero), which admits last-bit differences between BLAS
builds and thread counts but not a change of the estimator.  A change that
moves estimates on purpose reruns ``tests/data/make_reference.py``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"
RTOL, ATOL = 1e-9, 1e-12


def _load_script():
    spec = importlib.util.spec_from_file_location("make_reference", DATA / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_reference = _load_script()
REFERENCE = json.loads((DATA / "reference.json").read_text())


def _floats(text):
    return np.array([float(x) for x in text.split(",")])


def _close(actual, expected):
    return np.allclose(_floats(actual), _floats(expected), rtol=RTOL, atol=ATOL)


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
        assert got["ree"] == pytest.approx(ref["ree"], rel=RTOL), key


def test_precision_record_matches():
    got, ref = make_reference.precision_record(), REFERENCE["precision"]
    assert got["supports"] == ref["supports"]
    assert got["negative_d"] == ref["negative_d"]
    assert _close(got["d"], ref["d"])
    assert _close(got["theta"], ref["theta"])
