import csv
import importlib.util
import math
import os
import pickle
import subprocess
import sys
import threading
import weakref
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import corrls.experiment
import corrls.moments
import corrls.post
from corrls import (CorrectedMoments, ExperimentRecord, GridSpec, SurrogateDataset,
                    emit_results, run_grid)
from corrls.experiment import _POOL_MIN_CELLS, CSV_HEADER, _run_cell, grid_cells
from corrls.metrics import ree


def _tiny_spec(grid_spec=GridSpec, **over):
    base = dict(n_values=(80,), p_values=(20,), s_values=(2,),
                noise_kind="missing", replicates=1, base_seed=77,
                rho_range=(0.1, 0.3))
    base.update(over)
    return grid_spec(**base)


class TestGridSpec:
    def test_single_cell_yields_one_record_per_method(self):
        records = run_grid(_tiny_spec())
        assert len(records) == 3
        assert sorted(r.method for r in records) == ["CS+post", "L1CLS", "Lasso"]

    def test_paper_grid_a_cell_count(self):
        spec = _tiny_spec(n_values=tuple(range(100, 501, 40)),
                          p_values=tuple(range(100, 501, 65)),
                          s_values=(4, 8))
        assert len(grid_cells(spec)) == 154

    def test_paper_grid_b_cell_count(self):
        spec = _tiny_spec(n_values=tuple(range(50, 501, 5)),
                          p_values=(750,), s_values=(4,))
        assert len(grid_cells(spec)) == 91

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            _tiny_spec(n_values=())
        with pytest.raises(ValueError):
            _tiny_spec(replicates=0)
        # a fraction or bool would run as its int part; each message names the field
        for field, value in [("replicates", 2.5), ("replicates", True), ("base_seed", 1.5),
                             ("base_seed", True), ("base_seed", float("nan"))]:
            with pytest.raises(ValueError, match=f"{field} must be a whole number"):
                _tiny_spec(**{field: value})
        for rho_range in [(0.2,), (0.1, 0.2, 0.3)]:
            with pytest.raises(ValueError, match="rho_range must satisfy"):
                _tiny_spec(rho_range=rho_range)
        spec = _tiny_spec(replicates=2.0, base_seed=-3.0)  # whole floats are stored as ints
        assert (spec.replicates, spec.base_seed) == (2, -3) and type(spec.base_seed) is int
        with pytest.raises(ValueError, match="n_values must be a whole number, got 60.5"):
            _tiny_spec(n_values=(60.5,))
        with pytest.raises(ValueError):
            _tiny_spec(methods=("Ridge",))
        with pytest.raises(ValueError, match="s value 4 exceeds p value 3"):
            _tiny_spec(p_values=(10, 3), s_values=(4,))
        with pytest.raises(ValueError, match="s value 21 exceeds p value 20"):
            _tiny_spec(s_values=(2, 21))
        assert _tiny_spec(p_values=(20, 4), s_values=(4,)).s_values == (4,)

    @pytest.mark.parametrize("field, value, message", [
        ("p_values", (10.5,), "p_values must be a whole number, got 10.5"),
        ("s_values", (0,), "s_values must be at least 1, got 0"),
        ("replicates", 0, "replicates must be at least 1, got 0"),
        ("base_seed", float("inf"), "base_seed must be a whole number, got inf"),
    ])
    def test_counts_follow_the_shared_rule(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _tiny_spec(**{field: value})

    @pytest.mark.parametrize("field, values", [
        ("n_values", (60, 70, 60)), ("p_values", (10, 10)), ("s_values", (2, 2.0)),
        ("methods", ("CS+post", "CS+post"))])
    def test_a_repeated_value_is_rejected_by_field(self, field, values):
        # a repeat would write two rows with the same scenario and method
        with pytest.raises(ValueError, match=f"{field} must not repeat a value"):
            _tiny_spec(**{field: values})

    def test_a_new_method_record_joins_no_default_grid(self, monkeypatch):
        # corrls.experiment loaded afresh once post.METHODS holds a fourth record:
        # a grid runs it when asked, and by default still the paper's three
        monkeypatch.setitem(corrls.post.METHODS, "fourth",
                            replace(corrls.post.METHODS["l1cls"], label="Fourth"))
        spec = importlib.util.spec_from_file_location("corrls._experiment_reloaded",
                                                      corrls.experiment.__file__)
        reloaded = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, reloaded)  # its dataclasses look it up
        spec.loader.exec_module(reloaded)
        paper = tuple(corrls.post.METHODS[key].label for key in ("cs_post", "l1cls", "lasso"))
        assert _tiny_spec(reloaded.GridSpec).methods == paper
        assert _tiny_spec(reloaded.GridSpec, methods=("Fourth",)).methods == ("Fourth",)


def _error_row(monkeypatch):
    """The one record of a CS+post cell whose corrected moments give no
    finite held-out loss at any a_n."""
    degenerate = CorrectedMoments(gamma_mat=np.diag([0.0, 1.0, 1.0]),
                                  gamma_vec=np.array([5.0, 0.1, 0.1]), n=50, p=3)
    monkeypatch.setattr(corrls.post, "corrected_moments", lambda data: degenerate)
    spec = _tiny_spec(n_values=(50,), p_values=(3,), s_values=(1,), methods=("CS+post",))
    (record,) = run_grid(spec, keep_beta=True)
    return record


class TestRunGrid:
    def test_worker_count_invariance(self):
        spec = _tiny_spec(replicates=2)
        a = run_grid(spec, workers=1, no_timing=True)
        b = run_grid(spec, workers=3, no_timing=True)
        assert len(a) == len(b) == 6
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_ree_recomputes_from_saved_coefficients(self):
        from corrls.simulate import SimConfig, gen_regression

        spec = _tiny_spec()
        records = run_grid(spec, keep_beta=True)
        for rec in records:
            cfg = SimConfig(n=rec.n, p=rec.p, s=rec.s, noise_kind=rec.noise_kind,
                            seed=rec.seed, rho_range=spec.rho_range)
            _, beta0, _ = gen_regression(cfg)
            assert abs(ree(rec.beta, beta0) - rec.ree) <= 1e-12

    @pytest.mark.parametrize("methods", [("CS+post", "L1CLS", "Lasso"),
                                         ("L1CLS", "Lasso", "CS+post")])
    def test_one_moments_pair_per_kind_per_cell(self, monkeypatch, methods):
        # CS+post and L1CLS share the corrected train/test pair, the Lasso
        # gets the raw pair; the counters sit on post's module globals,
        # where the benchmark tracer wraps the builders too
        calls = {"corrected_moments": 0, "uncorrected_moments": 0}
        for name in calls:
            def counting(data, name=name, original=getattr(corrls.post, name)):
                calls[name] += 1
                return original(data)

            monkeypatch.setattr(corrls.post, name, counting)
        records = run_grid(_tiny_spec(methods=methods))
        assert [r.method for r in records] == list(methods)
        assert all(r.error is None for r in records)
        assert calls == {"corrected_moments": 2, "uncorrected_moments": 2}

    def test_pair_released_when_no_method_left_needs_it(self, monkeypatch):
        # in the default order the corrected pair is freed before the raw
        # pair is built, so a cell holds one pair at a time
        corrected, live_at_raw = [], []
        original_c = corrls.post.corrected_moments
        original_u = corrls.post.uncorrected_moments

        def tracking(data):
            m = original_c(data)
            corrected.append(weakref.ref(m))
            return m

        def checking(data):
            live_at_raw.append(sum(ref() is not None for ref in corrected))
            return original_u(data)

        monkeypatch.setattr(corrls.post, "corrected_moments", tracking)
        monkeypatch.setattr(corrls.post, "uncorrected_moments", checking)
        run_grid(_tiny_spec())
        assert len(corrected) == 2 and live_at_raw == [0, 0]

    def test_additive_grid_builds_the_noise_model_once(self, monkeypatch):
        # 4 cells, a train and a test set each: one Sigma_w and one factor of it
        import corrls.simulate

        built, factored = [], []

        def building(*args, original=corrls.simulate.ar1_covariance):
            built.append(original(*args))
            return built[-1]

        def factoring(a, original=np.linalg.cholesky):
            factored.extend(1 for sigma_w in built if a is sigma_w)
            return original(a)

        monkeypatch.setattr(corrls.simulate, "ar1_covariance", building)
        monkeypatch.setattr(np.linalg, "cholesky", factoring)
        corrls.simulate._ar1_noise.cache_clear()
        records = run_grid(_tiny_spec(noise_kind="additive", replicates=4))
        assert len(records) == 12 and all(r.error is None for r in records)
        assert (len(built), len(factored)) == (1, 1)

    def test_wide_missing_cell_forms_no_gram_and_one_store_per_product(self, monkeypatch):
        # p > n: no split forms its p x p Gram; each product, one per path of L1CLS
        # and of the Lasso and one per refit at a pick, makes its own store of the
        # rows of the train split's Z'Z/n, and the held-out losses come from the
        # columns of Z, so the test split makes no store
        grams, stores = [], []
        prop = cached_property(lambda data, original=SurrogateDataset.gram.func:
                               grams.append(data) or original(data))
        prop.__set_name__(SurrogateDataset, "gram")
        monkeypatch.setattr(SurrogateDataset, "gram", prop)

        class Store(corrls.moments.GramRows):
            def __init__(self, Z):
                stores.append(Z)
                super().__init__(Z)

        monkeypatch.setattr(corrls.moments, "GramRows", Store)
        built, products = [], []
        for name in ("corrected_moments", "uncorrected_moments"):
            def recording(data, original=getattr(corrls.post, name)):
                built.append(original(data))
                return built[-1]

            monkeypatch.setattr(corrls.post, name, recording)

        def product(m, original=CorrectedMoments.product):
            products.append((m.source[0], m.source[1] is None))
            return original(m)

        monkeypatch.setattr(CorrectedMoments, "product", product)
        spec = _tiny_spec(n_values=(100,), p_values=(1000,), s_values=(4,))
        records = _run_cell(spec, 100, 1000, 4, 0, False)
        assert all(r.error is None for r in records)
        train, test = (m.source[0] for m in built[:2])
        assert grams == [] and len(stores) == len(products) >= 2
        assert all(Z is train.Z for Z in stores)
        assert all(data is train for data, _ in products)
        assert {raw for _, raw in products} == {False, True}  # L1CLS and the Lasso
        assert all(m.source[0] is test and "gamma_mat" not in vars(m) for m in built[1::2])
        assert built[2].source == (train, None)  # the Lasso's raw moments

    def test_wide_penalized_cell_holds_no_p_by_p_array(self):
        # n=500, p=5000: the train Gram alone would be p^2 doubles (191 MiB); the
        # data, the store of at most n Gram rows and the n x n Lipschitz matrix are not
        p = 5000
        script = (
            "import resource; from corrls import GridSpec, run_grid; "
            f"spec = GridSpec(n_values=(500,), p_values=({p},), s_values=(4,), "
            "noise_kind='missing', replicates=1, base_seed=3, methods=('L1CLS', 'Lasso')); "
            "records = run_grid(spec, no_timing=True); "
            "assert [r.error for r in records] == [None, None], records; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        src = Path(corrls.experiment.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        peak_kib = int(out.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
        assert peak_kib * 1024 < p * p * 8

    def test_cross_validation_without_a_finite_loss_is_an_error_row(self, monkeypatch):
        record = _error_row(monkeypatch)
        assert record.error == "cross-validation failed at every grid point"
        assert np.isnan(record.tuning) and record.false_positives == -1

    def test_a_failing_refit_is_an_error_row_with_its_message(self, monkeypatch):
        def diverging(*args):
            raise ArithmeticError("diverged: non-finite objective in solver")

        for name, method in list(corrls.post.METHODS.items()):
            monkeypatch.setitem(corrls.post.METHODS, name, replace(method, fit=diverging))
        records = run_grid(_tiny_spec())
        assert [r.error for r in records] == ["diverged: non-finite objective in solver"] * 3

    def test_no_timing_zeroes_wall_time(self):
        records = run_grid(_tiny_spec(), no_timing=True)
        assert all(r.wall_time_s == 0.0 for r in records)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_grid(_tiny_spec(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, True, float("inf")])
    def test_worker_count_that_is_not_whole_rejected(self, workers):
        # a fractional or bool count used to be accepted
        with pytest.raises(ValueError, match=f"^workers must be a whole number, got {workers}$"):
            run_grid(_tiny_spec(), workers=workers)

    def test_small_grid_runs_every_cell_in_the_calling_thread(self, monkeypatch):
        # the benchmark tracer records spans in its own process only
        callers = []

        def counting(*args, original=_run_cell):
            callers.append((os.getpid(), threading.get_ident()))
            return original(*args)

        monkeypatch.setattr(corrls.experiment, "_run_cell", counting)
        spec = _tiny_spec(n_values=(60, 80), replicates=3)
        assert len(grid_cells(spec)) == 6 < _POOL_MIN_CELLS
        records = run_grid(spec, workers=2)
        assert callers == [(os.getpid(), threading.get_ident())] * 6 and len(records) == 18


def _same_record(a, b):
    for f in fields(ExperimentRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        elif isinstance(x, float) and math.isnan(x):
            assert math.isnan(y)
        else:
            assert x == y, f.name


class TestPickle:
    """Specs go to pool workers and records come back, both pickled."""

    def test_grid_spec_round_trip(self):
        spec = _tiny_spec(methods=("Lasso", "CS+post"), rho_range=(0.2, 0.4))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_record_with_beta_round_trip(self):
        (record,) = run_grid(_tiny_spec(methods=("L1CLS",)), keep_beta=True)
        assert record.error is None and record.beta is not None
        _same_record(pickle.loads(pickle.dumps(record)), record)

    def test_error_row_round_trip(self, monkeypatch):
        record = _error_row(monkeypatch)
        assert record.error is not None and record.beta is None
        _same_record(pickle.loads(pickle.dumps(record)), record)


class TestEmitResults:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_record_two_lines(self, tmp_path):
        records = run_grid(_tiny_spec(methods=("CS+post",)), no_timing=True)
        path = tmp_path / "out.csv"
        emit_results(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == CSV_HEADER

    def test_rerun_byte_identical(self, tmp_path):
        spec = _tiny_spec(replicates=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_grid(spec, workers=1, no_timing=True), p1)
        emit_results(run_grid(spec, workers=2, no_timing=True), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_result_and_error_rows_read_back_by_column_name(self, tmp_path, monkeypatch):
        error = _error_row(monkeypatch)
        monkeypatch.undo()
        (result,) = run_grid(_tiny_spec(methods=("Lasso",)))
        assert error.error is not None and result.error is None and result.wall_time_s > 0
        path = tmp_path / "out.csv"
        emit_results([result, error], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns = {"scenario": "scenario", "n": "n", "p": "p", "s": "s", "noise": "noise_kind",
                   "method": "method", "seed": "seed", "tuning": "tuning", "ree": "ree",
                   "fp": "false_positives", "tpr": "true_positive_rate",
                   "wall_s": "wall_time_s", "error": "error_type"}
        assert CSV_HEADER == ",".join(columns) and len(rows) == 2
        for row, record in zip(rows, [result, error]):
            for column, name in columns.items():
                value = getattr(record, name)
                read = type(value)(row[column])
                assert read == value or math.isnan(read) and math.isnan(value), (column, row)

    def test_result_and_error_rows_golden_bytes(self, tmp_path):
        common = dict(scenario="n70_p3_s2_r0", n=70, p=3, s=2, noise_kind="additive", seed=9)
        records = [
            ExperimentRecord(**common, method="CS+post", tuning=3.0, ree=0.1, false_positives=2,
                             true_positive_rate=np.float64(2 / 3), wall_time_s=1e-5),
            ExperimentRecord(**common, method="Lasso", tuning=float("nan"), ree=float("nan"),
                             false_positives=-1, true_positive_rate=float("nan"),
                             wall_time_s=0.5, error="diverged", error_type="ArithmeticError"),
        ]
        path = tmp_path / "out.csv"
        emit_results(records, path)
        assert path.read_bytes() == (
            b"scenario,n,p,s,noise,method,seed,tuning,ree,fp,tpr,wall_s,error\n"
            b"n70_p3_s2_r0,70,3,2,additive,CS+post,9,3,0.10000000000000001,2,"
            b"0.66666666666666663,1.0000000000000001e-05,\n"
            b"n70_p3_s2_r0,70,3,2,additive,Lasso,9,nan,nan,-1,nan,0.5,ArithmeticError\n")

    def test_an_error_row_writes_its_exception_class(self, tmp_path, monkeypatch):
        record = _error_row(monkeypatch)
        path = tmp_path / "out.csv"
        emit_results([record], path)
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == "ArithmeticError" == record.error_type
        assert record.error == "cross-validation failed at every grid point"

    def test_bad_path_raises_with_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_results([], "/no/such/dir/out.csv")
