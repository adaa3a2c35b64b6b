import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrls.experiment
from corrls import (MissingNoise, SolverOptions, corrected_moments, l1_cls_fit, support,
                    uncorrected_moments)
from corrls.cli import _load_config, main
from corrls.data import read_dataset_csv, read_matrix_csv
from corrls.experiment import GridSpec
from corrls.post import fit_method, with_estimated_missing_rates
from corrls.simulate import SimConfig

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(corrls.experiment.__file__).resolve().parent.parent
SIM = {"n": 120, "p": 12, "s": 3, "noise_kind": "missing", "rho_range": [0.1, 0.3], "seed": 5}
GRID = {"n_values": [70], "p_values": [10], "s_values": [2], "noise_kind": "missing",
        "replicates": 1, "base_seed": 3, "rho_range": [0.1, 0.3]}


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(SIM))
    return path


def test_simulate_then_fit(tmp_path, sim_config, capsys):
    data_csv = tmp_path / "data.csv"
    truth_csv = tmp_path / "beta.csv"
    assert main(["simulate", "--config", str(sim_config),
                 "--out", str(data_csv), "--truth", str(truth_csv)]) == 0
    beta0 = read_matrix_csv(truth_csv).ravel()
    coef_csv = tmp_path / "coef.csv"
    assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                 "--method", "cs_post", "--tuning", "3",
                 "--radius", f"{1.1 * np.abs(beta0).sum()}",
                 "--out", str(coef_csv)]) == 0
    beta_hat = read_matrix_csv(coef_csv).ravel()
    out = capsys.readouterr().out
    assert "support (1-based):" in out
    assert np.linalg.norm(beta_hat - beta0) / np.linalg.norm(beta0) < 0.5


def test_fit_reads_y_past_a_byte_order_mark(tmp_path, sim_config, capsys):
    """A header written as Excel's "CSV UTF-8" starts with EF BB BF; its y is
    still the response, and the fit is the fit of the same file without it."""
    data_csv, marked_csv = tmp_path / "data.csv", tmp_path / "bom.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    marked_csv.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
    for path in (data_csv, marked_csv):
        assert main(["fit", "--data", str(path), "--noise", "missing", "--method", "cs_post",
                     "--tuning", "3", "--radius", "5", "--out", f"{path}.coef"]) == 0
    assert Path(f"{marked_csv}.coef").read_bytes() == Path(f"{data_csv}.coef").read_bytes()


@pytest.mark.parametrize("method", ["l1cls", "lasso"])
def test_fit_penalized_matches_direct_fit(tmp_path, sim_config, capsys, method):
    data_csv, coef_csv = tmp_path / "data.csv", tmp_path / "coef.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                 "--method", method, "--tuning", "0.05", "--radius", "15",
                 "--out", str(coef_csv)]) == 0
    data = with_estimated_missing_rates(read_dataset_csv(data_csv, MissingNoise(np.zeros(12))))
    opts = SolverOptions(radius=15.0)
    ref = l1_cls_fit(corrected_moments(data), 0.05, opts) if method == "l1cls" \
        else fit_method("lasso", uncorrected_moments(data), 0.05, opts)
    assert np.array_equal(read_matrix_csv(coef_csv).ravel(), ref.beta)
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("support (1-based):")]
    assert printed == ["support (1-based): " + " ".join(str(j + 1) for j in support(ref.beta))]


def test_fit_rejects_fractional_an(tmp_path, sim_config, capsys):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    for tuning, message in [("3.9", "a_n must be a whole number, got 3.9"),
                            ("0", "empty selection not allowed")]:
        capsys.readouterr()
        assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                     "--method", "cs_post", "--tuning", tuning, "--radius", "15"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"corrls: error: {message}\n" and captured.out == ""


def test_fit_warns_when_the_refit_is_not_a_linear_solve(tmp_path, capsys):
    cfg = {"n": 150, "p": 10, "s": 2, "noise_kind": "additive", "seed": 8}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(cfg_path), "--out", str(data_csv)])
    fit = ["fit", "--data", str(data_csv), "--noise", "additive", "--method", "cs_post",
           "--tuning", "10", "--radius", "20", "--sigma-w-ar1", "0.5"]
    capsys.readouterr()
    assert main(fit + ["0.25"]) == 0
    assert capsys.readouterr().err == ""
    # overstating the noise leaves an indefinite corrected Gram
    assert main(fit + ["5"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("corrls: warning:") and "projected gradient" in err
    assert "on the 10 selected columns" in err


def test_fit_additive_with_ar1_sigma(tmp_path, capsys):
    cfg = {"n": 150, "p": 10, "s": 2, "noise_kind": "additive", "seed": 8}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(cfg_path), "--out", str(data_csv)])
    assert main(["fit", "--data", str(data_csv), "--noise", "additive",
                 "--sigma-w-ar1", "0.5", "0.25", "--method", "cs_post",
                 "--tuning", "4", "--radius", "20"]) == 0


def test_tune_writes_curve(tmp_path, sim_config, capsys):
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(train_csv)])
    main(["simulate", "--config", str(sim_config), "--seed", "6",
          "--out", str(test_csv)])
    curve = tmp_path / "curve.csv"
    assert main(["tune", "--data", str(train_csv), "--test-data", str(test_csv),
                 "--noise", "missing", "--method", "cs_post",
                 "--radius", "15", "--out", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "value,loss" and len(lines) > 2
    n_inf = sum(1 for line in lines[1:] if line.endswith(",inf"))
    assert f"grid points with infinite loss: {n_inf} of {len(lines) - 1}\n" in \
        capsys.readouterr().out


def test_tune_without_a_finite_loss_writes_the_curve_then_fails(tmp_path, capsys):
    # column 0 carries y, but the stated noise variance exceeds its second
    # moment, so the corrected Gram has a negative leading diagonal entry
    rng = np.random.default_rng(3)
    z = rng.standard_normal((40, 3))
    data_csv, sigma_csv = tmp_path / "data.csv", tmp_path / "sigma.csv"
    rows = ["z1,z2,z3,y"] + [",".join(f"{x:.17g}" for x in (*row, 2 * row[0])) for row in z]
    data_csv.write_text("\n".join(rows) + "\n")
    sigma_csv.write_text("10,0,0\n0,0,0\n0,0,0\n")
    curve = tmp_path / "curve.csv"
    assert main(["tune", "--data", str(data_csv), "--test-data", str(data_csv),
                 "--noise", "additive", "--sigma-w", str(sigma_csv), "--method", "cs_post",
                 "--radius", "15", "--out", str(curve)]) == 2
    assert curve.read_text() == "value,loss\n1,inf\n2,inf\n3,inf\n"
    captured = capsys.readouterr()
    assert captured.err == "corrls: error: no grid point has a finite held-out loss\n"
    assert captured.out == ""


def test_tune_without_out_writes_the_curve_to_stdout(tmp_path, sim_config, capsys):
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(train_csv)])
    main(["simulate", "--config", str(sim_config), "--seed", "6", "--out", str(test_csv)])
    capsys.readouterr()
    assert main(["tune", "--data", str(train_csv), "--test-data", str(test_csv),
                 "--noise", "missing", "--method", "cs_post", "--radius", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,loss"
    curve = lines[1:-2]  # the two summary lines follow the curve
    assert [line.split(",")[0] for line in curve] == [str(a) for a in range(1, len(curve) + 1)]
    assert lines[-2].startswith("best value: ")
    assert lines[-1].startswith("grid points with infinite loss: ")


def test_precision_command(tmp_path):
    from corrls.data import write_dataset_csv
    from corrls.simulate import gen_graph_data, generate_band_precision

    theta, sigma = generate_band_precision(12, 1)
    data = gen_graph_data(sigma, 600, 1.0, (0.05, 0.3), seed=9)
    data_csv = tmp_path / "graph.csv"
    write_dataset_csv(data, data_csv)
    out_csv = tmp_path / "theta.csv"
    diag_csv = tmp_path / "diag.csv"
    assert main(["precision", "--data", str(data_csv), "--an", "4",
                 "--radius", "6", "--out", str(out_csv),
                 "--diagnostics", str(diag_csv)]) == 0
    theta_hat = read_matrix_csv(out_csv)
    assert theta_hat.shape == (12, 12)
    assert np.max(np.abs(theta_hat - theta_hat.T)) == 0.0
    assert diag_csv.read_text().splitlines()[0] == "column,support_size,d,fallback"


def test_fit_that_diverges_exits_2_with_one_line(tmp_path):
    from corrls.data import write_dataset_csv
    from corrls.simulate import gen_regression

    data, _, _ = gen_regression(SimConfig(n=50, p=20, s=3, noise_kind="additive", seed=4))
    data_csv = tmp_path / "data.csv"
    write_dataset_csv(data, data_csv)
    # on this indefinite corrected Gram a ball of radius 1e300 does not bound the iterates;
    # in a process of its own, so that numpy's overflow warning would reach its stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrls.cli", "fit", "--data", str(data_csv), "--noise",
         "additive", "--sigma-w-ar1", "0.5", "0.25", "--method", "l1cls", "--tuning", "0",
         "--radius", "1e300"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "corrls: error: diverged: non-finite objective in solver\n"
    assert proc.stdout == ""


def test_precision_fit_that_diverges_exits_2_and_names_the_column(tmp_path, capsys):
    from corrls.data import write_dataset_csv
    from corrls.simulate import gen_graph_data, generate_band_precision

    _, sigma = generate_band_precision(30, 3)
    data_csv, out = tmp_path / "graph.csv", tmp_path / "theta.csv"
    write_dataset_csv(gen_graph_data(sigma, 40, 1.0, (0.3, 0.6), 3), data_csv)
    assert main(["precision", "--data", str(data_csv), "--an", "12", "--radius", "1e300",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("corrls: error: neighborhood fit failed at column 0: "
                            "diverged: non-finite objective in solver\n")
    assert captured.out == "" and not out.exists()


def test_experiment_determinism_across_workers(tmp_path):
    grid = {"n_values": [70], "p_values": [15], "s_values": [2],
            "noise_kind": "missing", "replicates": 2, "base_seed": 12,
            "rho_range": [0.1, 0.3]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1),
                 "--workers", "1", "--no-timing"]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2),
                 "--workers", "4", "--no-timing"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_pool_grid_output_is_the_one_blas_thread_serial_output(tmp_path, monkeypatch):
    # at the paper cell the BLAS thread count changes the last bits of beta
    # (1 against 2 threads: 29 of 48 records on a 16-cell grid), so a pool
    # grid gives the same files for every worker count only if its workers
    # run at one thread, as a serial run started at one thread does
    monkeypatch.setattr(corrls.experiment, "_POOL_MIN_CELLS", 4)
    grid = {"n_values": [500], "p_values": [100], "s_values": [4],
            "noise_kind": "missing", "replicates": 4, "base_seed": 7}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))

    def files(out):
        return out.read_bytes(), Path(f"{out}.coefs.csv").read_bytes()

    args = ["experiment", "--config", str(cfg), "--no-timing", "--save-coefs"]
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}.csv"
        assert main([*args, "--out", str(out), "--workers", str(workers)]) == 0
        assert multiprocessing.active_children() == []
        outs.append(files(out))
    out = tmp_path / "serial.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "corrls.cli", *args, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert outs[0] == outs[1] == files(out)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_worker_count_below_one_exits_2(tmp_path, capsys, workers):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(GRID))
    out = tmp_path / "res.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        f"corrls: error: workers must be at least 1, got {workers}\n")
    assert not out.exists()


def test_sigma_w_hash_is_a_cell_not_a_comment(tmp_path, capsys):
    z = np.random.default_rng(4).standard_normal((30, 2))
    data_csv, sigma_csv = tmp_path / "data.csv", tmp_path / "sigma.csv"
    rows = ["z1,z2,y"] + [f"{a:.17g},{b:.17g},{a:.17g}" for a, b in z]
    data_csv.write_text("\n".join(rows) + "\n")
    sigma_csv.write_text("1,0#x\n0,1\n")
    assert main(["fit", "--data", str(data_csv), "--noise", "additive",
                 "--sigma-w", str(sigma_csv), "--method", "cs_post",
                 "--tuning", "1", "--radius", "5"]) == 2
    assert "'0#x'" in capsys.readouterr().err


def test_sigma_w_error_names_the_file_and_its_line(tmp_path, capsys):
    z = np.random.default_rng(4).standard_normal((30, 2))
    data_csv, sigma_csv = tmp_path / "data.csv", tmp_path / "sigma.csv"
    data_csv.write_text("\n".join(["z1,z2,y"] + [f"{a:.17g},{b:.17g},{a:.17g}" for a, b in z]))
    sigma_csv.write_text("1,0\n\n0,1#x\n")
    assert main(["fit", "--data", str(data_csv), "--noise", "additive",
                 "--sigma-w", str(sigma_csv), "--method", "cs_post",
                 "--tuning", "1", "--radius", "5"]) == 2
    assert capsys.readouterr().err == (
        f"corrls: error: {sigma_csv}: could not convert string '1#x' to float64 "
        "at row 3, column 2.\n")


def test_experiment_save_coefs_sidecar(tmp_path):
    # two p values: a row of 2 + p fields per record would give rows of two widths
    grid = {**GRID, "p_values": [10, 14]}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    out = tmp_path / "res.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--save-coefs", "--no-timing"]) == 0
    with open(f"{out}.coefs.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["scenario", "method", "j", "coef"]
    assert all(len(row) == 4 for row in rows)
    coefs = {}
    for scenario, method, j, coef in rows:
        coefs.setdefault((scenario, method), []).append((int(j), float(coef)))
    records = corrls.experiment.run_grid(_load_config(GridSpec, cfg), keep_beta=True,
                                         no_timing=True)
    assert len(coefs) == len(records) == 6
    for r in records:
        js, beta = zip(*coefs[r.scenario, r.method])
        assert list(js) == list(range(1, r.p + 1))  # 1-based, as `corrls fit` prints
        assert np.array(beta).tobytes() == r.beta.tobytes()


def test_experiment_strict_exits_1_on_an_error_row(tmp_path, capsys):
    # noise this loud leaves every leading block of the corrected Gram
    # indefinite, so CS+post has no finite held-out loss: an error row
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({**GRID, "noise_kind": "additive", "c_w": 50.0}))
    out = tmp_path / "res.csv"
    run = ["experiment", "--config", str(cfg), "--out", str(out), "--no-timing"]
    assert main(run) == 0
    assert "(1 error rows)" in capsys.readouterr().out
    assert main(run + ["--strict"]) == 1
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 and sum(",nan," in row for row in rows) == 1


def test_precision_reports_negative_d(tmp_path, capsys):
    from corrls.data import write_dataset_csv
    from corrls.simulate import gen_graph_data, generate_band_precision

    _, sigma = generate_band_precision(30, 2)
    data_csv, diag_csv = tmp_path / "graph.csv", tmp_path / "diag.csv"
    write_dataset_csv(gen_graph_data(sigma, 150, 1.0, (0.2, 0.7), seed=1), data_csv)
    assert main(["precision", "--data", str(data_csv), "--an", "6", "--radius", "2.5",
                 "--out", str(tmp_path / "theta.csv"),
                 "--diagnostics", str(diag_csv)]) == 0
    lines = diag_csv.read_text().splitlines()
    assert len(lines) == 31
    d_col = lines[0].split(",").index("d")
    negative = [row.split(",")[0] for row in lines[1:] if float(row.split(",")[d_col]) <= 0]
    assert negative
    summary = capsys.readouterr().out
    assert (f"{len(negative)} columns with d_j <= 0 (1-based): " + " ".join(negative)) in summary


def test_precision_non_finite_corrected_covariance_exits_2(tmp_path, capsys):
    rows = ["z1,z2,z3"] + [f"{a:.17g},{b:.17g},{c:.17g}"
                           for a, b, c in np.random.default_rng(6).standard_normal((30, 3))]
    rows[5] = "1e200,NA,0.5"  # its square overflows the Gram
    data_csv, out = tmp_path / "graph.csv", tmp_path / "theta.csv"
    data_csv.write_text("\n".join(rows) + "\n")
    assert main(["precision", "--data", str(data_csv), "--an", "1", "--radius", "5",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "corrls: error: non-finite corrected moments\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, cfg, field", [
    ("experiment", {**{k: v for k, v in GRID.items() if k != "replicates"}, "replicate": 3},
     "'replicate'"),
    ("experiment", {k: v for k, v in GRID.items() if k != "noise_kind"}, "'noise_kind'"),
    ("simulate", {**SIM, "c_x": 5.0}, "'c_x'"),
    ("experiment", {**GRID, "solver_max_iters": 1500}, "'solver_max_iters'"),
    ("simulate", {**SIM, "n": "120"}, "'n'"),
    ("simulate", {**SIM, "s": True}, "'s'"),
    ("experiment", {**GRID, "n_values": [60.5]}, "n_values"),
    ("experiment", {**GRID, "p_values": [10, 3], "s_values": [4]}, "s value 4 exceeds p value 3"),
    ("experiment", {**GRID, "noise_kind": "misssing"}, "unknown noise kind 'misssing'"),
    ("experiment", {**GRID, "sigma_eps": -1}, "sigma_eps must be positive"),
    ("experiment", {**GRID, "ar_phi": 1.5}, "ar_phi must lie in [0, 1)"),
    ("experiment", {**GRID, "rho_range": [0.5, 0.2]}, "rho_range must satisfy"),
    ("simulate", {**SIM, "noise_kind": "additive", "c_w": -1}, "c_w must be positive"),
], ids=["unknown", "missing", "c_x", "solver_max_iters", "string", "bool", "fractional",
        "s_above_p", "noise_kind", "sigma_eps", "ar_phi", "rho_range", "c_w"])
def test_bad_config_field_exits_2_and_names_it(tmp_path, capsys, command, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"corrls: error: {path}: ") and field in captured.err
    assert captured.out == "" and not (tmp_path / "out.csv").exists()


def test_simulate_requires_a_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path / "data.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, cls", [("sim", SimConfig), ("grid", GridSpec)])
def test_readme_configs_load_with_lists_as_tuples(tmp_path, name, cls):
    text = re.search(rf"cat > {name}\.json <<'JSON'\n(.*?)\nJSON\n", README.read_text(), re.S)[1]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    cfg = _load_config(cls, path)
    for key, value in json.loads(text).items():
        assert getattr(cfg, key) == (tuple(value) if isinstance(value, list) else value)


def test_seed_override(sim_config, tmp_path):
    assert _load_config(SimConfig, sim_config, seed=None).seed == 5
    assert _load_config(SimConfig, sim_config, seed=7).seed == 7
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({k: v for k, v in SIM.items() if k != "seed"}))
    assert _load_config(SimConfig, path).seed == 0


@pytest.mark.parametrize("an, radius, message", [
    ("0", "6", "a_n must lie in [1, 11]"),
    ("12", "6", "a_n must lie in [1, 11]"),
    ("4", "-1", "radius must be positive"),
    ("4", "nan", "radius must be positive"),
])
def test_precision_rejects_bad_an_or_radius(tmp_path, capsys, an, radius, message):
    from corrls.data import write_dataset_csv
    from corrls.simulate import gen_graph_data, generate_band_precision

    _, sigma = generate_band_precision(12, 1)
    data_csv = tmp_path / "graph.csv"
    write_dataset_csv(gen_graph_data(sigma, 100, 1.0, (0.05, 0.3), seed=9), data_csv)
    assert main(["precision", "--data", str(data_csv), "--an", an, "--radius", radius,
                 "--out", str(tmp_path / "theta.csv")]) == 2
    assert capsys.readouterr().err == f"corrls: error: {message}\n"


@pytest.mark.parametrize("command", ["fit", "tune"])
def test_additive_noise_without_sigma_exits_2(tmp_path, sim_config, capsys, command):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    capsys.readouterr()
    args = ["--tuning", "3"] if command == "fit" else ["--test-data", str(data_csv)]
    assert main([command, "--data", str(data_csv), "--noise", "additive",
                 "--method", "cs_post", "--radius", "15", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("corrls: error: additive noise needs --sigma-w FILE "
                            "or --sigma-w-ar1 PHI SCALE\n") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "{missing}", "--noise", "missing", "--method", "cs_post",
     "--tuning", "3", "--radius", "15"],
    ["experiment", "--config", "{missing}", "--out", "{out}"],
    ["simulate", "--config", "{missing}", "--out", "{out}"],
], ids=["fit-data", "experiment-config", "simulate-config"])
def test_missing_file_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "absent"
    argv = [a.format(missing=missing, out=tmp_path / "out.csv") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("corrls: error: ") and str(missing) in err
