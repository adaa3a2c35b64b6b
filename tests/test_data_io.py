import warnings

import numpy as np
import pytest

from corrls import AdditiveNoise, MissingNoise, SurrogateDataset
from corrls.data import read_dataset_csv, read_matrix_csv, write_dataset_csv, write_matrix_csv
from corrls.simulate import SimConfig, gen_regression


class TestNoiseModels:
    def test_asymmetric_sigma_w_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            AdditiveNoise(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MissingNoise(np.array([0.5, 1.0]))

    def test_zero_filled_encoding_enforced(self):
        Z = np.array([[1.0, 2.0]])
        mask = np.array([[True, False]])
        with pytest.raises(ValueError, match="zero-filled"):
            SurrogateDataset(Z=Z, y=np.array([1.0]), noise=MissingNoise([0.1, 0.5]),
                             mask=mask)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e-300, -0.5])
    def test_nan_or_non_zero_at_a_masked_cell_rejected(self, value):
        Z = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        noise = MissingNoise([0.5, 0.5])
        SurrogateDataset(Z=Z, y=np.zeros(2), noise=noise, mask=mask)
        Z[1, 0] = value
        with pytest.raises(ValueError, match="zero-filled"):
            SurrogateDataset(Z=Z, y=np.zeros(2), noise=noise, mask=mask)

    def test_negative_zero_at_a_masked_cell_accepted(self):
        Z = np.array([[1.0, -0.0], [-0.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        data = SurrogateDataset(Z=Z, y=np.zeros(2), noise=MissingNoise([0.5, 0.5]), mask=mask)
        assert np.array_equal(data.mask, mask)

    def test_additive_forbids_mask(self):
        with pytest.raises(ValueError, match="no mask"):
            SurrogateDataset(Z=np.eye(2), y=np.zeros(2),
                             noise=AdditiveNoise(np.zeros((2, 2))),
                             mask=np.ones((2, 2), dtype=bool))

    def test_missing_requires_mask(self):
        with pytest.raises(ValueError, match="mask"):
            SurrogateDataset(Z=np.eye(2), y=np.zeros(2),
                             noise=MissingNoise([0.1, 0.1]))


class TestCsvRoundTrip:
    def test_missing_dataset_round_trip(self, tmp_path):
        cfg = SimConfig(n=25, p=6, s=2, noise_kind="missing", seed=3)
        data, _, _ = gen_regression(cfg)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        text = path.read_text()
        assert text.splitlines()[0].startswith("y,")
        assert "NA" in text
        loaded = read_dataset_csv(path, data.noise)
        assert np.array_equal(loaded.Z, data.Z)
        assert np.array_equal(loaded.mask, data.mask)
        assert np.array_equal(loaded.y, data.y)

    def test_additive_dataset_round_trip(self, tmp_path):
        cfg = SimConfig(n=15, p=4, s=2, noise_kind="additive", seed=4)
        data, _, _ = gen_regression(cfg)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        loaded = read_dataset_csv(path, data.noise)
        assert np.array_equal(loaded.Z, data.Z)

    def test_na_under_additive_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,z1\n1.0,NA\n")
        with pytest.raises(ValueError, match="NA"):
            read_dataset_csv(path, AdditiveNoise(np.zeros((1, 1))))

    def test_graph_dataset_without_y(self, tmp_path):
        from corrls.simulate import gen_graph_data, generate_band_precision

        _, sigma = generate_band_precision(5, 1)
        data = gen_graph_data(sigma, 20, 1.0, (0.1, 0.3), seed=5)
        path = tmp_path / "graph.csv"
        write_dataset_csv(data, path)
        loaded = read_dataset_csv(path, data.noise)
        assert loaded.y is None
        assert np.array_equal(loaded.Z, data.Z)

    def test_matrix_round_trip(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((4, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(M, path)
        assert np.array_equal(read_matrix_csv(path), M)

    def test_matrix_hash_is_a_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1,0#x\n0,1\n")
        with pytest.raises(ValueError, match="0#x"):
            read_matrix_csv(path)


def _old_writer(data, path):
    """Reference writer: one csv.writer row per sample, one f-string per cell."""
    import csv

    header = (["y"] if data.y is not None else []) + [f"z{j + 1}" for j in range(data.p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [f"{data.y[i]:.17g}"] if data.y is not None else []
            for j in range(data.p):
                if data.mask is not None and not data.mask[i, j]:
                    row.append("NA")
                else:
                    row.append(f"{data.Z[i, j]:.17g}")
            writer.writerow(row)


class TestCsvFormat:
    @pytest.mark.parametrize("kind", ["missing", "additive"])
    def test_writer_bytes_match_csv_writer_reference(self, tmp_path, kind):
        data, _, _ = gen_regression(SimConfig(n=40, p=7, s=2, noise_kind=kind, seed=6))
        write_dataset_csv(data, tmp_path / "new.csv")
        _old_writer(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_wrong_field_count_names_file_and_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("y,z1,z2\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match=r"short\.csv: row 3 has 2 fields, expected 3"):
            read_dataset_csv(path, MissingNoise([0.0, 0.0]))

    def test_unparsable_cell_names_file(self, tmp_path):
        path = tmp_path / "text.csv"
        # the file's line number, past a blank line; '#' is a cell, not a comment
        for bad in ("abc", "#"):
            path.write_text(f"z1,z2\n1,2\n\n3,4\n5,{bad}\n")
            with pytest.raises(ValueError, match=rf"text\.csv: .*'{bad}'.* at row 5, column 2"):
                read_dataset_csv(path, MissingNoise([0.0, 0.0]))

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("y,z1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                read_dataset_csv(path, MissingNoise([0.0]))

    def test_na_in_response_rejected(self, tmp_path):
        path = tmp_path / "y_na.csv"
        path.write_text("y,z1\n1,2\nNA,3\n")
        with pytest.raises(ValueError, match="y column"):
            read_dataset_csv(path, MissingNoise([0.0]))

    def test_padded_na_is_missing_and_y_may_come_last(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("z1,z2,y\r\n1.5, NA ,7\r\n\r\n NA,-2,8\r\n")
        data = read_dataset_csv(path, MissingNoise([0.0, 0.0]))
        assert np.array_equal(data.y, [7.0, 8.0])
        assert np.array_equal(data.Z, [[1.5, 0.0], [0.0, -2.0]])
        assert np.array_equal(data.mask, [[True, False], [False, True]])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"z1,z2\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=r"nonfinite\.csv: .*(non-finite|infinity)"):
            read_dataset_csv(path, MissingNoise([0.0, 0.0]))
