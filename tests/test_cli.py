import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import corrls.cli
import corrls.experiment
from corrls import (MissingNoise, PrecisionEstimate, SolverOptions, corrected_moments,
                    l1_cls_fit, support, uncorrected_moments)
from corrls.cli import _load_config, main
from corrls.data import read_dataset_csv, read_matrix_csv, write_dataset_csv, write_matrix_csv
from corrls.experiment import ExperimentRecord, GridSpec
from corrls.post import METHODS, with_estimated_missing_rates
from corrls.simulate import SimConfig, ar1_covariance, gen_regression

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
        else METHODS["lasso"].fit(uncorrected_moments(data), 0.05, opts)
    assert np.array_equal(read_matrix_csv(coef_csv).ravel(), ref.beta)
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("support (1-based):")]
    assert printed == ["support (1-based): " + " ".join(str(j + 1) for j in support(ref.beta))]


def test_fit_rejects_fractional_an(tmp_path, sim_config, capsys):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    for tuning, message in [("3.9", "a_n must be a whole number, got 3.9"),
                            ("0", "a_n must be at least 1, got 0.0"),
                            ("nan", "a_n must be a whole number, got nan"),
                            ("inf", "a_n must be a whole number, got inf")]:
        capsys.readouterr()
        assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                     "--method", "cs_post", "--tuning", tuning, "--radius", "15"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"corrls: error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("tuning", ["inf", "nan", "-0.5"])
def test_fit_rejects_a_lambda_that_is_not_finite_and_non_negative(tmp_path, sim_config, capsys,
                                                                   tuning):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                 "--method", "l1cls", "--tuning", tuning, "--radius", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"corrls: error: lambda must be a finite number >= 0, got {tuning}\n"
    assert captured.out == ""


@pytest.mark.parametrize("method, tuning, label", [("cs_post", "3", "CS+post"),
                                                   ("l1cls", "0.05", "L1CLS"),
                                                   ("lasso", "0.05", "Lasso")])
def test_fit_prints_the_method_label_first(tmp_path, sim_config, capsys, method, tuning, label):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    capsys.readouterr()
    assert main(["fit", "--data", str(data_csv), "--noise", "missing",
                 "--method", method, "--tuning", tuning, "--radius", "15"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(f"method={label} tuning={tuning} ")


def _additive_cs_post_fit(tmp_path):
    """`corrls fit` arguments for a_n = 10 on an additive dataset, up to the
    scale of --sigma-w-ar1."""
    cfg = {"n": 150, "p": 10, "s": 2, "noise_kind": "additive", "seed": 8}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(cfg_path), "--out", str(data_csv)])
    return ["fit", "--data", str(data_csv), "--noise", "additive", "--method", "cs_post",
            "--tuning", "10", "--sigma-w-ar1", "0.5"]


def test_fit_warns_when_the_refit_is_not_a_linear_solve(tmp_path, capsys):
    fit = _additive_cs_post_fit(tmp_path)
    capsys.readouterr()
    assert main(fit + ["0.25", "--radius", "20"]) == 0
    assert capsys.readouterr().err == ""
    # overstating the noise leaves an indefinite corrected Gram
    assert main(fit + ["5", "--radius", "20"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("corrls: warning:") and "projected gradient" in err
    assert "on the 10 selected columns" in err


def test_fit_warns_when_the_solve_leaves_the_ball(tmp_path, capsys):
    # the positive-definite block of the test above, whose solve lies inside
    # a ball of radius 20, leaves one of radius 0.5
    coef_csv = tmp_path / "coef.csv"
    capsys.readouterr()
    assert main(_additive_cs_post_fit(tmp_path) + ["0.25", "--radius", "0.5",
                                                   "--out", str(coef_csv)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("corrls: warning: the refit matrix on the 10 selected columns")
    assert "its linear solve leaves the l1 ball of --radius 0.5" in err
    assert np.abs(read_matrix_csv(coef_csv)).sum() <= 0.5 + 1e-10


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


@pytest.mark.parametrize("command, args", [
    ("fit", ["--noise", "missing", "--method", "cs_post", "--tuning", "1", "--radius", "5"]),
    ("tune", ["--noise", "missing", "--method", "cs_post", "--radius", "5"]),
    ("precision", ["--an", "1", "--radius", "5"]),
])
def test_a_dataset_with_two_y_columns_is_rejected(tmp_path, capsys, command, args):
    data_csv = tmp_path / "two_y.csv"
    data_csv.write_text("y,z1,z2,y\n1,2,3,4\n5,6,7,8\n9,1,2,3\n")
    test = ["--test-data", str(data_csv)] if command == "tune" else []
    out = ["--out", str(tmp_path / "out.csv")] if command != "fit" else []
    assert main([command, "--data", str(data_csv), *test, *args, *out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"corrls: error: {data_csv}: more than one y column\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("flag", ["--sigma-w", "--sigma-w-ar1"])
def test_tune_builds_the_additive_noise_once(tmp_path, capsys, monkeypatch, flag):
    # each data file built its own: the Sigma_w CSV was read and checked twice
    cfg = SimConfig(n=150, p=10, s=2, noise_kind="additive", seed=8)
    paths = [tmp_path / "train.csv", tmp_path / "test.csv"]
    for seed, path in zip((8, 9), paths):
        write_dataset_csv(gen_regression(replace(cfg, seed=seed))[0], path)
    sigma_csv = tmp_path / "sigma.csv"
    write_matrix_csv(ar1_covariance(10, 0.5, 0.25), sigma_csv)
    calls = []
    built = {"--sigma-w": "read_matrix_csv", "--sigma-w-ar1": "ar1_covariance"}[flag]
    original = getattr(corrls.cli, built)
    monkeypatch.setattr(corrls.cli, built, lambda *a: calls.append(a) or original(*a))
    sigma = [str(sigma_csv)] if flag == "--sigma-w" else ["0.5", "0.25"]
    assert main(["tune", "--data", str(paths[0]), "--test-data", str(paths[1]), "--noise",
                 "additive", flag, *sigma, "--method", "cs_post", "--radius", "20"]) == 0
    assert len(calls) == 1
    assert "best value:" in capsys.readouterr().out


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


def _cli_process(*argv):
    """``corrls`` run in a process of its own, with Python's default warning filters,
    so that a warning it does not report itself would reach its stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "corrls.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_fit_that_diverges_exits_2_with_one_line(tmp_path):
    data, _, _ = gen_regression(SimConfig(n=50, p=20, s=3, noise_kind="additive", seed=4))
    data_csv = tmp_path / "data.csv"
    write_dataset_csv(data, data_csv)
    # on this indefinite corrected Gram a ball of radius 1e300 does not bound the iterates,
    # and numpy's overflow warning is not printed
    proc = _cli_process("fit", "--data", str(data_csv), "--noise", "additive", "--sigma-w-ar1",
                        "0.5", "0.25", "--method", "l1cls", "--tuning", "0", "--radius", "1e300")
    assert proc.returncode == 2
    assert proc.stderr == "corrls: error: diverged: non-finite objective in solver\n"
    assert proc.stdout == ""


def test_fit_reports_a_python_warning_as_one_corrls_line(tmp_path):
    # a support of 50 columns on 40 rows: post_cls_fit warns, which printed Python's
    # "post.py:113: UserWarning: ..." and a source line
    data, _, _ = gen_regression(SimConfig(n=40, p=60, s=3, noise_kind="missing", seed=4))
    data_csv = tmp_path / "data.csv"
    write_dataset_csv(data, data_csv)
    proc = _cli_process("fit", "--data", str(data_csv), "--noise", "missing", "--method",
                        "cs_post", "--tuning", "50", "--radius", "20")
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert "corrls: warning: support size 50 exceeds sample size 40" in lines
    assert all(line.startswith("corrls:") for line in lines), proc.stderr


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


def test_whole_number_floats_in_a_grid_config_run_as_integers(tmp_path):
    outs = []
    for name, value in [("ints", 1), ("floats", 1.0)]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**GRID, **{k: [value * v for v in GRID[k]]
                                              for k in ("n_values", "p_values", "s_values")}}))
        out = tmp_path / f"{name}.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--no-timing"]) == 0
        outs.append(out.read_bytes())
    assert b"n70_p10_s2_r0,70,10,2," in outs[0] and outs[1] == outs[0]


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


def test_fit_at_a_wide_experiment_pick_gives_the_saved_coefficients(tmp_path, capsys):
    # the reference snapshot's wide cell: L1CLS picks lambda = 0.95, refitted from
    # zero, and 1.0, the first fit of its path, and the Lasso 0 and 0.4, refitted
    # from zero; every fit from zero has a row store of its own, as `corrls fit` does
    grid = {"n_values": [100], "p_values": [300], "s_values": [4], "noise_kind": "missing",
            "replicates": 2, "base_seed": 0}
    cfg, out = tmp_path / "grid.json", tmp_path / "res.csv"
    cfg.write_text(json.dumps(grid))
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--save-coefs",
                 "--no-timing"]) == 0
    with open(out, newline="") as fh:
        picks = {(r["scenario"], r["method"]): r["tuning"] for r in csv.DictReader(fh)}
    saved = {}
    with open(f"{out}.coefs.csv", newline="") as fh:
        for scenario, method, _, coef in list(csv.reader(fh))[1:]:
            saved.setdefault((scenario, method), []).append(coef)
    assert [[float(picks[f"n100_p300_s4_r{rep}", METHODS[key].label]) for rep in (0, 1)]
            for key in ("l1cls", "lasso")] == [[0.95, 1.0], [0.0, 0.4]]
    spec = _load_config(GridSpec, cfg)
    for rep in range(2):
        seed = corrls.experiment._cell_seed(0, 100, 300, 4, rep)
        train, beta0, _ = gen_regression(spec._sim_config(100, 300, 4, seed))
        data_csv = tmp_path / f"train{rep}.csv"
        write_dataset_csv(train, data_csv)
        radius = repr(1.1 * float(np.abs(beta0).sum()))  # the experiment's radius
        for key in ("l1cls", "lasso"):
            cell, coef_csv = (f"n100_p300_s4_r{rep}", METHODS[key].label), tmp_path / "coef.csv"
            assert main(["fit", "--data", str(data_csv), "--noise", "missing", "--method", key,
                         "--tuning", picks[cell], "--radius", radius,
                         "--out", str(coef_csv)]) == 0
            assert coef_csv.read_text().split() == saved[cell], cell


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
    ("experiment", {**GRID, "n_values": [True]}, "n_values"),
    ("experiment", {**GRID, "p_values": [10, 3], "s_values": [4]}, "s value 4 exceeds p value 3"),
    ("experiment", {**GRID, "noise_kind": "misssing"}, "unknown noise kind 'misssing'"),
    ("experiment", {**GRID, "sigma_eps": -1}, "sigma_eps must be positive"),
    ("experiment", {**GRID, "ar_phi": 1.5}, "ar_phi must lie in [0, 1)"),
    ("experiment", {**GRID, "rho_range": [0.5, 0.2]}, "rho_range must satisfy"),
    ("experiment", {**GRID, "rho_range": [0.2]}, "rho_range must satisfy"),
    ("simulate", {**SIM, "rho_range": [0.1, 0.2, 0.3]}, "rho_range must satisfy"),
    ("experiment", {**GRID, "replicates": 2.5}, "'replicates'"),
    ("experiment", {**GRID, "base_seed": 1.5}, "'base_seed'"),
    ("simulate", {**SIM, "noise_kind": "additive", "c_w": -1}, "c_w must be positive"),
    ("simulate", {**SIM, "sigma_eps": float("nan")}, "sigma_eps must be positive and finite"),
    ("simulate", {**SIM, "sigma_eps": float("inf")}, "sigma_eps must be positive and finite"),
    ("simulate", {**SIM, "noise_kind": "additive", "c_w": float("nan")}, "c_w must be positive"),
], ids=["unknown", "missing", "c_x", "solver_max_iters", "string", "bool", "fractional", "bool_n",
        "s_above_p", "noise_kind", "sigma_eps", "ar_phi", "rho_range", "rho_range_short",
        "rho_range_long", "fractional_replicates", "fractional_base_seed", "c_w", "nan_sigma_eps",
        "inf_sigma_eps", "nan_c_w"])
def test_bad_config_field_exits_2_and_names_it(tmp_path, capsys, command, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"corrls: error: {path}: ") and field in captured.err
    assert captured.out == "" and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("noise_kind", ["missing", "additive"])
def test_simulate_rejects_an_infinite_c_w_under_either_noise_kind(tmp_path, capsys, noise_kind):
    # under missing data, which never reads c_w, such a config used to exit 0
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({**SIM, "noise_kind": noise_kind, "c_w": float("inf")}))
    assert '"c_w": Infinity' in path.read_text()
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"corrls: error: {path}: c_w must be positive and finite, got inf\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("field, values", [("methods", ["CS+post", "CS+post"]),
                                           ("p_values", [10, 10])])
def test_a_repeated_grid_value_exits_2_with_one_line(tmp_path, capsys, field, values):
    path, out = tmp_path / "grid.json", tmp_path / "results.csv"
    path.write_text(json.dumps({**GRID, field: values}))
    assert main(["experiment", "--config", str(path), "--out", str(out), "--save-coefs"]) == 2
    captured = capsys.readouterr()
    message = f"{field} must not repeat a value, got {values}"
    assert captured.err == f"corrls: error: {path}: {message}\n"
    assert captured.out == "" and not out.exists()


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
    ("4", "-1", "radius must be positive and finite, got -1.0"),
    ("4", "nan", "radius must be positive and finite, got nan"),
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


@pytest.mark.parametrize("command", ["fit", "tune"])
@pytest.mark.parametrize("sigma", [["--sigma-w", "{absent}"], ["--sigma-w-ar1", "0.5", "0.25"]],
                         ids=["sigma-w", "sigma-w-ar1"])
def test_sigma_w_under_missing_noise_exits_2(tmp_path, sim_config, capsys, command, sigma):
    data_csv = tmp_path / "data.csv"
    main(["simulate", "--config", str(sim_config), "--out", str(data_csv)])
    capsys.readouterr()
    args = ["--tuning", "3"] if command == "fit" else ["--test-data", str(data_csv)]
    sigma = [a.format(absent=tmp_path / "absent.csv") for a in sigma]
    assert main([command, "--data", str(data_csv), "--noise", "missing", *sigma,
                 "--method", "cs_post", "--radius", "15", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("corrls: error: --sigma-w and --sigma-w-ar1 apply to "
                            "--noise additive only\n") and captured.out == ""


@pytest.mark.parametrize("command", ["fit", "tune"])
def test_both_sigma_w_flags_are_a_usage_error(tmp_path, capsys, command):
    args = ["--tuning", "3"] if command == "fit" else ["--test-data", "test.csv"]
    with pytest.raises(SystemExit) as exit_:
        main([command, "--data", "data.csv", "--noise", "additive", "--sigma-w", "sigma.csv",
              "--sigma-w-ar1", "0.5", "0.25", "--method", "cs_post", "--radius", "15", *args])
    assert exit_.value.code == 2
    assert ("argument --sigma-w-ar1: not allowed with argument --sigma-w"
            in capsys.readouterr().err)


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


# Golden bytes of the four tables corrls writes.  The numbers are fixed stand-ins
# for a fit's results, so the bytes do not depend on the BLAS that computed them.
TINY_DATA = "y,z1,z2,z3\n1,0.5,NA,2\n-1,1.5,0.25,NA\n2,NA,-1,0.5\n0.5,2,1,1\n-2,-1,0.5,-0.5\n"
FIXED_LOSSES = (0.1, 1 / 3, np.inf, np.float64(2.5))
GOLDEN_CURVES = {
    "cs_post": ("value,loss\n1,0.10000000000000001\n2,0.33333333333333331\n3,inf\n",
                "best value: 2\ngrid points with infinite loss: 1 of 3\n"),
    "l1cls": ("value,loss\n0,0.10000000000000001\n0.050000000000000003,0.33333333333333331\n"
              "0.10000000000000001,inf\n0.14999999999999999,2.5\n0.20000000000000001,"
              "0.10000000000000001\n0.25,0.33333333333333331\n0.29999999999999999,inf\n"
              "0.34999999999999998,2.5\n0.40000000000000002,0.10000000000000001\n0.45000000000000001,"
              "0.33333333333333331\n0.5,inf\n0.55000000000000004,2.5\n0.59999999999999998,"
              "0.10000000000000001\n0.65000000000000002,0.33333333333333331\n0.69999999999999996,inf\n"
              "0.75,2.5\n0.80000000000000004,0.10000000000000001\n0.84999999999999998,"
              "0.33333333333333331\n0.90000000000000002,inf\n0.94999999999999996,2.5\n"
              "1,0.10000000000000001\n",
              "best value: 0.05\ngrid points with infinite loss: 5 of 21\n"),
}


def _fixed_curve(train_m, test_m, grid, method, opts):
    """`cross_validate`'s (best, losses, fit) with the losses `FIXED_LOSSES` repeated."""
    return grid[1], [FIXED_LOSSES[i % len(FIXED_LOSSES)] for i in range(len(grid))], None


@pytest.mark.parametrize("method", GOLDEN_CURVES)
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_tune_curve_golden_bytes(tmp_path, capsys, monkeypatch, method, to_file):
    monkeypatch.setattr(corrls.cli, "cross_validate", _fixed_curve)
    data_csv, curve = tmp_path / "data.csv", tmp_path / "curve.csv"
    data_csv.write_text(TINY_DATA)
    out = ["--out", str(curve)] if to_file else []
    assert main(["tune", "--data", str(data_csv), "--test-data", str(data_csv), "--noise",
                 "missing", "--method", method, "--radius", "5", *out]) == 0
    table, summary = GOLDEN_CURVES[method]
    if to_file:
        assert curve.read_bytes() == table.encode()
        assert capsys.readouterr().out == summary
    else:
        assert capsys.readouterr().out == table + summary


def test_precision_diagnostics_golden_bytes(tmp_path, capsys, monkeypatch):
    theta = np.array([[2.0, -1 / 3, 0.0], [-1 / 3, 1.5, 0.0], [0.0, 0.0, 0.1]])
    est = PrecisionEstimate(theta=theta, theta_raw=theta, d=np.array([0.5, 1 / 3, -0.1]),
                            neighborhood_supports=[[1], [0, 2], []],
                            fallback_flags=[False, True, False], negative_d=[2])
    monkeypatch.setattr(corrls.cli, "estimate_precision", lambda data, an, radius: est)
    data_csv, out, diag = tmp_path / "graph.csv", tmp_path / "theta.csv", tmp_path / "diag.csv"
    data_csv.write_text("".join(line.split(",", 1)[1] + "\n"
                                for line in TINY_DATA.splitlines()))
    assert main(["precision", "--data", str(data_csv), "--an", "1", "--radius", "5",
                 "--out", str(out), "--diagnostics", str(diag)]) == 0
    assert diag.read_bytes() == (b"column,support_size,d,fallback\n1,1,0.5,0\n"
                                 b"2,2,0.33333333333333331,1\n3,0,-0.10000000000000001,0\n")
    assert out.read_bytes() == (b"2,-0.33333333333333331,0\n-0.33333333333333331,1.5,0\n"
                                b"0,0,0.10000000000000001\n")


def _fixed_records():
    """Two fitted records and an error row of one cell, with fixed values."""
    common = dict(scenario="n70_p3_s2_r0", n=70, p=3, s=2, noise_kind="missing", seed=123)
    return [
        ExperimentRecord(
            **common, method="CS+post", tuning=2.0, ree=1 / 3, false_positives=0,
            true_positive_rate=1.0, wall_time_s=0.0, beta=np.array([-0.0, 0.1, 2.0])),
        ExperimentRecord(
            **common, method="L1CLS", tuning=0.05, ree=np.float64(1e-300), false_positives=1,
            true_positive_rate=0.5, wall_time_s=0.0, beta=np.array([1 / 3, 0.0, -1e300])),
        ExperimentRecord(
            **common, method="Lasso", tuning=float("nan"), ree=float("nan"),
            false_positives=-1, true_positive_rate=float("nan"), wall_time_s=0.25,
            error="cross-validation failed at every grid point", error_type="ArithmeticError"),
    ]


def test_experiment_results_and_sidecar_golden_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(corrls.cli, "run_grid", lambda spec, **kw: _fixed_records())
    cfg, out = tmp_path / "grid.json", tmp_path / "res.csv"
    cfg.write_text(json.dumps(GRID))
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--save-coefs"]) == 0
    assert out.read_bytes() == (
        b"scenario,n,p,s,noise,method,seed,tuning,ree,fp,tpr,wall_s,error\n"
        b"n70_p3_s2_r0,70,3,2,missing,CS+post,123,2,0.33333333333333331,0,1,0,\n"
        b"n70_p3_s2_r0,70,3,2,missing,L1CLS,123,0.050000000000000003,1e-300,"
        b"1,0.5,0,\n"
        b"n70_p3_s2_r0,70,3,2,missing,Lasso,123,nan,nan,-1,nan,0.25,ArithmeticError\n")
    assert Path(f"{out}.coefs.csv").read_bytes() == (
        b"scenario,method,j,coef\n"
        b"n70_p3_s2_r0,CS+post,1,-0\nn70_p3_s2_r0,CS+post,2,0.10000000000000001\n"
        b"n70_p3_s2_r0,CS+post,3,2\nn70_p3_s2_r0,L1CLS,1,0.33333333333333331\n"
        b"n70_p3_s2_r0,L1CLS,2,0\nn70_p3_s2_r0,L1CLS,3,-1.0000000000000001e+300\n")
    assert capsys.readouterr().out == (f"3 records written to {out} (1 error rows)\n"
                                       f"coefficients written to {out}.coefs.csv\n")
