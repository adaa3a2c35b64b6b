import weakref
from functools import cached_property

import numpy as np
import pytest

import corrls.post
from corrls import CorrectedMoments, GridSpec, SurrogateDataset, emit_results, run_grid
from corrls.experiment import CSV_HEADER, _run_cell, grid_cells
from corrls.metrics import ree


def _tiny_spec(**over):
    base = dict(n_values=(80,), p_values=(20,), s_values=(2,),
                noise_kind="missing", replicates=1, base_seed=77,
                rho_range=(0.1, 0.3), solver_max_iters=1500)
    base.update(over)
    return GridSpec(**base)


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
        with pytest.raises(ValueError, match="n_values must hold positive whole numbers"):
            _tiny_spec(n_values=(60.5,))
        with pytest.raises(ValueError):
            _tiny_spec(methods=("Ridge",))
        with pytest.raises(ValueError, match="s value 4 exceeds p value 3"):
            _tiny_spec(p_values=(10, 3), s_values=(4,))
        with pytest.raises(ValueError, match="s value 21 exceeds p value 20"):
            _tiny_spec(s_values=(2, 21))
        assert _tiny_spec(p_values=(20, 4), s_values=(4,)).s_values == (4,)


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

    def test_wide_missing_cell_forms_one_gram(self, monkeypatch):
        # p > n: the train split's Z'Z/n serves L1CLS and the Lasso, and the
        # held-out losses come from blocks, so the test split forms none
        grams = []

        def counting(data, original=SurrogateDataset.gram.func):
            grams.append(data)
            return original(data)

        gram = cached_property(counting)
        gram.__set_name__(SurrogateDataset, "gram")
        monkeypatch.setattr(SurrogateDataset, "gram", gram)
        built = []
        for name in ("corrected_moments", "uncorrected_moments"):
            def recording(data, original=getattr(corrls.post, name)):
                built.append(original(data))
                return built[-1]

            monkeypatch.setattr(corrls.post, name, recording)
        spec = _tiny_spec(n_values=(100,), p_values=(1000,), s_values=(4,))
        records = _run_cell(spec, 100, 1000, 4, 0, False)
        assert all(r.error is None for r in records)
        train, test = (m.source[0] for m in built[:2])
        assert grams == [train]
        assert all(m.source[0] is test and "gamma_mat" not in vars(m) for m in built[1::2])
        assert built[2].gamma_mat is train.gram  # the Lasso's raw moments

    def test_cross_validation_without_a_finite_loss_is_an_error_row(self, monkeypatch):
        degenerate = CorrectedMoments(gamma_mat=np.diag([0.0, 1.0, 1.0]),
                                      gamma_vec=np.array([5.0, 0.1, 0.1]), n=50, p=3)
        monkeypatch.setattr(corrls.post, "corrected_moments", lambda data: degenerate)
        spec = _tiny_spec(n_values=(50,), p_values=(3,), s_values=(1,), methods=("CS+post",))
        (record,) = run_grid(spec)
        assert record.error == "cross-validation failed at every grid point"
        assert np.isnan(record.tuning) and record.false_positives == -1

    def test_no_timing_zeroes_wall_time(self):
        records = run_grid(_tiny_spec(), no_timing=True)
        assert all(r.wall_time_s == 0.0 for r in records)


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

    def test_bad_path_raises_with_context(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_results([], "/no/such/dir/out.csv")
