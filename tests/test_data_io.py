import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corrls.data
from corrls import AdditiveNoise, MissingNoise, SurrogateDataset
from corrls.data import (_checked_cells, read_dataset_csv, read_header, read_matrix_csv,
                         write_dataset_csv, write_matrix_csv)
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

    def test_graph_dataset_without_y(self, tmp_path):
        from corrls.simulate import gen_graph_data, generate_band_precision

        _, sigma = generate_band_precision(5, 1)
        data = gen_graph_data(sigma, 20, 1.0, (0.1, 0.3), seed=5)
        path = tmp_path / "graph.csv"
        write_dataset_csv(data, path)
        loaded = read_dataset_csv(path, data.noise)
        assert loaded.y is None
        assert np.array_equal(loaded.Z, data.Z)

    @pytest.mark.parametrize("mat", [
        np.random.default_rng(0).standard_normal((4, 4)),
        np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324], [-5e-324, 1.5, -0.0]]),
        np.diag(np.arange(1.0, 7.0)) + np.diag(np.full(5, -0.25), 1) + np.diag(np.full(5, 1e-17), -1),
        np.array([0.0, -0.0, 2.5, np.nan, 5e-324]),
        np.array([[1.0], [-0.0], [0.0], [3.0]]),
    ], ids=["dense", "special", "band", "vector", "column"])
    def test_matrix_round_trip(self, tmp_path, mat):
        """The bytes np.savetxt writes at %.17g, and the same bits read back."""
        path = tmp_path / "m.csv"
        write_matrix_csv(mat, path)
        np.savetxt(tmp_path / "ref.csv", mat, delimiter=",", fmt="%.17g")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = read_matrix_csv(path)
        assert back.shape == (len(mat), mat.size // len(mat))
        assert np.array_equal(back.view(np.int64), mat.reshape(back.shape).view(np.int64))

    def test_matrix_hash_is_a_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("1,0#x\n0,1\n")
        with pytest.raises(ValueError, match="0#x"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("1,0#x\n0,1\n", "could not convert string '0#x' to float64 at row 1, column 2."),
        ("1,0\n\n \n0,x\n", "could not convert string 'x' to float64 at row 4, column 2."),
        ("1,0\n0,1\n\n1\n", "row 4 has 1 fields, expected 2"),
        ("\n\n", "no data rows"),
    ], ids=["cell", "after-blank-lines", "width", "empty"])
    def test_matrix_error_names_the_file_and_its_line(self, tmp_path, text, message):
        path = tmp_path / "sigma.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}: {message}"


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

    def test_unparsable_cell_names_file(self, tmp_path):
        path = tmp_path / "text.csv"
        # the file's line number, past a blank line; '#' is a cell, not a comment;
        # the cell is shown as parsed, after NA -> nan
        for bad, shown in (("abc", "abc"), ("#", "#"), ("NA0", "nan0")):
            path.write_text(f"z1,z2\n1,2\n\n3,4\n5,{bad}\n")
            with pytest.raises(ValueError) as exc:
                read_dataset_csv(path, MissingNoise([0.0, 0.0]))
            assert str(exc.value) == (f"{path}: could not convert string '{shown}' to float64"
                                      " at row 5, column 2.")

    def test_padded_na_is_missing_and_y_may_come_last(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("z1,z2,y\r\n1.5, NA ,7\r\n\r\n NA,-2,8\r\n")
        data = read_dataset_csv(path, MissingNoise([0.0, 0.0]))
        assert np.array_equal(data.y, [7.0, 8.0])
        assert np.array_equal(data.Z, [[1.5, 0.0], [0.0, -2.0]])
        assert np.array_equal(data.mask, [[True, False], [False, True]])

    @pytest.mark.parametrize("cell, message", [
        *[(cell, "row 3 has a non-finite cell")
          for cell in ["nan", "NaN", "NAN", "NANA", "-nan", "inf", "-Infinity"]],
        ("1e999", "a cell overflows to infinity"),
    ])
    def test_non_finite_cell_rejected(self, tmp_path, cell, message):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"z1,z2\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError) as exc:
            read_dataset_csv(path, MissingNoise([0.0, 0.0]))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, additive, message", [
        ("y,z1\n1,2\nNA,3\n", False, "NA in the y column"),
        ("y,z1\n1.0,NA\n", True, "NA entries present but noise model is additive"),
        ("y,z1,z2\n1,2,3\n4,5\n", False, "row 3 has 2 fields, expected 3"),
        ("z1\n1\n3\n2,nan\n", False, "row 4 has 2 fields, expected 1"),
        ("z1\n1\nnan\n1e999\n", False, "row 3 has a non-finite cell"),
        ("z1\nabc\nnan\n", False, "could not convert string 'abc' to float64 at row 2, column 1."),
        ("y,z1\nNA,2\n3,inf\n", False, "row 3 has a non-finite cell"),
        ("y,z1\nNA,2\n3,NA\n", True, "NA in the y column"),
        ("y,z1\n", False, "no data rows"),
        ("y,z1\r\n\r\n \t\r\n", False, "no data rows"),
    ], ids=["y-na", "additive-na", "ragged", "ragged-before-nan", "nan-before-overflow",
            "unparsable-before-nan", "nan-after-y-na", "y-na-before-additive-na",
            "header-only", "blank-lines-only"])
    def test_rejection_message_is_pinned(self, tmp_path, text, additive, message):
        """The full message, naming the first fault in file order among the faults
        a line shows, then a NA in y, then a NA under additive noise; no warning."""
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        noise = AdditiveNoise(np.zeros((1, 1))) if additive else MissingNoise([0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                read_dataset_csv(path, noise)
        assert str(exc.value) == f"{path}: {message}"


def _line_checked_read(path, noise):
    """Reference reader: every line checked before it is parsed (`_checked_cells`),
    then y split off and NA zero-filled by ``np.nan_to_num``."""
    with open(path, newline="") as fh:
        header = read_header(fh)
    cells = _checked_cells(path)
    y = None
    if "y" in header:
        y = cells[:, header.index("y")]
        if np.isnan(y).any():
            raise ValueError(f"{path}: NA in the y column")
        cells = np.delete(cells, header.index("y"), axis=1)
    mask = ~np.isnan(cells)
    Z = np.nan_to_num(cells, copy=False)
    if isinstance(noise, MissingNoise):
        return SurrogateDataset(Z=Z, y=y, noise=noise, mask=mask)
    if not mask.all():
        raise ValueError(f"{path}: NA entries present but noise model is additive")
    return SurrogateDataset(Z=Z, y=y, noise=noise)


@pytest.mark.parametrize("cell", ["-NA", "+NA"])
def test_signed_na_loads_as_missing_through_both_readers(tmp_path, cell):
    path = tmp_path / "signed.csv"
    path.write_text(f"z1,z2\n1,2\n3,{cell}\n")
    for read in (read_dataset_csv, _line_checked_read):
        data = read(path, MissingNoise([0.0, 0.0]))
        assert data.mask.tolist() == [[True, True], [True, False]]
        assert data.Z.tolist() == [[1.0, 2.0], [3.0, 0.0]]


def _outcome(read, path, noise):
    """The bytes of Z, y and mask a reader returns, or the message it raises."""
    try:
        data = read(path, noise)
    except ValueError as exc:
        return str(exc)
    return tuple(None if a is None else (a.shape, a.tobytes()) for a in (data.Z, data.y, data.mask))


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "+0", "0.0", "-0.0", " -0 ", "5e-324", "-5e-324", "1e-310",
                     "-2.2250738585072009e-308", "1.7976931348623157e308"]),
)
NA_CELL = st.sampled_from(["NA", " NA ", "NA ", "\tNA", "-NA", "+NA"])
BAD_CELL = st.sampled_from(["nan", "NaN", "NAN", "NANA", "-nan", "inf", "-Infinity", "NA0",
                            "1e999", "-1e400", "nan(1)", "abc", "", "#", "1 2"])
BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def dataset_files(draw):
    """The text of a dataset file, its covariate count and whether it is additive:
    NA cells, padded or signed, y first, last or absent, LF or CRLF endings, blank
    and whitespace-only lines, signed zeros and subnormals; at times one rejected
    cell, a ragged row or a header with no data rows."""
    p, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    names = [f"z{j + 1}" for j in range(p)]
    y_at = draw(st.sampled_from([0, p, None]))
    if y_at is not None:
        names.insert(y_at, "y")
    na_in_10 = draw(st.integers(0, 4))  # NA cells in ten, one in twenty in y

    def cell(name):
        odds = (1, 20) if name == "y" else (na_in_10, 10)
        return draw(NA_CELL if draw(st.integers(0, odds[1] - 1)) < odds[0] else NUMBER)

    rows = [[cell(name) for name in names] for _ in range(n)]
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD_CELL)
    if rows and draw(st.integers(0, 5)) == 0:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()) and len(row) > 1:
            row.pop()
        else:
            row.append(draw(NUMBER))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(BLANK))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol])), p, draw(st.booleans())


class TestOnePassReader:
    @given(dataset_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_result_or_message_as_the_line_checked_reader(self, tmp_path, case):
        text, p, additive = case
        path = tmp_path / "gen.csv"
        path.write_bytes(text.encode())
        noise = AdditiveNoise(np.zeros((p, p))) if additive else MissingNoise(np.zeros(p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(read_dataset_csv, path, noise) == _outcome(_line_checked_read, path, noise)

    def test_clean_file_skips_the_line_checks(self, tmp_path, monkeypatch):
        def line_checks(*args):
            raise AssertionError("a clean file was read by the line-checked reader")

        monkeypatch.setattr(corrls.data, "_data_lines", line_checks)
        path = tmp_path / "clean.csv"
        path.write_bytes(b"z1,y,z2\r\n1.5,7, NA \r\n\r\n NA,8,-0\r\n")
        data = read_dataset_csv(path, MissingNoise([0.0, 0.0]))
        assert np.array_equal(data.y, [7.0, 8.0])
        assert np.array_equal(data.Z, [[1.5, 0.0], [0.0, -0.0]])
        assert np.array_equal(data.mask, [[True, False], [False, True]])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        data, _, _ = gen_regression(SimConfig(n=20, p=5, s=2, noise_kind="missing", seed=7))
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_dataset_csv(data, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        with open(marked, newline="") as fh:
            assert read_header(fh)[0] == "y"
        a, b = read_dataset_csv(plain, data.noise), read_dataset_csv(marked, data.noise)
        assert b.y is not None and np.array_equal(a.y, b.y)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.mask, b.mask)
