import json

import numpy as np
import pytest

from pnnreg import cli, make_rng, sample_gaussian
from pnnreg.cli import (
    MatrixParseError,
    load_matrix_csv,
    load_vector_csv,
    write_matrix_csv,
)


def test_matrix_csv_round_trip(tmp_path):
    M = np.array([[1.5, -2.25, 3e-17], [0.1, 7.0, -0.0]])
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M)
    # repr serialization keeps every bit
    assert np.array_equal(load_matrix_csv(p), M)


def test_matrix_csv_skips_blank_lines_and_whitespace(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1, 2\n\n  \n3,4\n")
    assert np.array_equal(load_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_ragged_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        load_matrix_csv(p)


def test_matrix_csv_bad_token_names_position(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,zap\n")
    with pytest.raises(MatrixParseError, match="line 1, column 2"):
        load_matrix_csv(p)


def test_matrix_csv_rejects_nonfinite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,inf\n")
    with pytest.raises(MatrixParseError, match="non-finite"):
        load_matrix_csv(p)
    p.write_text("nan\n")
    with pytest.raises(MatrixParseError, match="non-finite"):
        load_matrix_csv(p)


def test_matrix_csv_empty(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("\n\n")
    with pytest.raises(MatrixParseError, match="no data rows"):
        load_matrix_csv(p)


def test_vector_csv_shapes(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1,2,3\n")
    assert np.array_equal(load_vector_csv(p), [1.0, 2.0, 3.0])
    p.write_text("1\n2\n3\n")
    assert np.array_equal(load_vector_csv(p), [1.0, 2.0, 3.0])
    p.write_text("1,2\n3,4\n")
    with pytest.raises(MatrixParseError, match="vector"):
        load_vector_csv(p)


def _design(tmp_path, M, name="X.csv"):
    p = tmp_path / name
    write_matrix_csv(p, M)
    return str(p)


def test_width_command(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    code = cli.main(["width", "--design", dp, "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["command"] == "width"
    assert out["ks"] == [0, 1, 2]
    assert out["achieved"] == pytest.approx([1.0, 0.7243944158651863, 0.0], abs=1e-12)
    assert out["converged"] == [True, True, True]
    # width reads no noise model and runs no Monte Carlo, so it takes no
    # --sigma, --q, --radius or --trials
    assert set(out["config"]) == {"design", "seed", "tol", "max_iter", "out"}


def test_width_command_zero_column_design(tmp_path):
    # a zero column is valid input: a finite report, never a usage error
    X = np.array([[0.0, -1.1857198050052338], [0.0, 0.513052133880305], [0.0, 0.0]])
    op = tmp_path / "w.json"
    code = cli.main(["width", "--design", _design(tmp_path, X), "--out", str(op)])
    assert code in (0, 3)
    rep = json.loads(op.read_text())
    assert np.all(np.isfinite(rep["relax_lower"])) and np.all(np.isfinite(rep["achieved"]))
    assert np.all(np.asarray(rep["relax_lower"]) <= np.asarray(rep["achieved"]) + 1e-9)


def test_commands_take_only_the_flags_they_read(tmp_path):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[2.0, 2.0]]), "y.csv")
    with pytest.raises(SystemExit):
        cli.main(["width", "--design", dp, "--sigma", "2"])
    for argv in (["estimate", "--obs", op], ["adapt", "--obs", op], ["risk"]):
        with pytest.raises(SystemExit):
            cli.main(argv + ["--design", dp, "--trials", "5"])


def test_width_nonconvergence_exits_3_but_writes_report(tmp_path):
    rng = np.random.default_rng(12)
    dp = _design(tmp_path, rng.normal(size=(4, 7)))
    op = tmp_path / "w.json"
    code = cli.main(
        ["width", "--design", dp, "--max-iter", "5", "--tol", "1e-12", "--out", str(op)]
    )
    assert code == 3
    rep = json.loads(op.read_text())
    assert not all(rep["converged"])


def test_estimate_command_defaults(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[2.0, 2.0]]), "y.csv")
    code = cli.main(["estimate", "--design", dp, "--obs", op])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # default noise level keeps the whole space: plain l1 fit of (2, 2)
    assert out["k_star"] == 0
    assert out["y_hat"] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_estimate_small_noise_passes_through(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[2.0, 2.0]]), "y.csv")
    code = cli.main(["estimate", "--design", dp, "--obs", op, "--sigma", "0.01"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["k_star"] == 2
    assert out["y_hat"] == [2.0, 2.0]


def test_estimate_zero_noise_keeps_everything(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[2.0, 0.0]]), "y.csv")
    code = cli.main(["estimate", "--design", dp, "--obs", op, "--sigma", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["k_star"] == 0
    assert out["r"] == [0.0, 0.0, 0.0]
    assert out["y_hat"] == pytest.approx([1.0, 0.0], abs=1e-9)


def test_estimate_rejects_small_q(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[2.0, 2.0]]), "y.csv")
    code = cli.main(["estimate", "--design", dp, "--obs", op, "--q", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_estimate_length_mismatch_exits_2(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    op = _design(tmp_path, np.array([[1.0, 2.0, 3.0]]), "y.csv")
    assert cli.main(["estimate", "--design", dp, "--obs", op]) == 2


def test_missing_file_exits_4(tmp_path, capsys):
    code = cli.main(["width", "--design", str(tmp_path / "absent.csv")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_4(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    assert cli.main(["width", "--design", str(p)]) == 4


def test_adapt_command_reports_infinite_radius(tmp_path, capsys):
    # rank-one design: dropping its only direction collapses the width,
    # so the k = 1 record carries radius inf (serialized as a string)
    cols = np.array([1.0, 2.0, -1.5, 0.5])
    X = np.zeros((4, 4))
    X[0] = cols
    dp = _design(tmp_path, X)
    y = X @ np.array([5.0, 0.0, 0.0, 0.0]) + sample_gaussian(4, 1.0, make_rng(77, 0, 0))
    op = _design(tmp_path, y.reshape(1, -1), "y.csv")
    code = cli.main(["adapt", "--design", dp, "--obs", op, "--radius", "5.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["final_k"] == 1
    rec = out["records"][1]
    assert rec["radius"] == "inf"
    assert rec["accepted"] is True
    assert out["y_hat"] == pytest.approx([y[0], 0.0, 0.0, 0.0], abs=0.0)
    assert set(out["records"][0]) == {"accepted", "delta", "k", "radius", "stat", "threshold"}


def test_adapt_fallback_serialization(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(8))
    op = _design(tmp_path, 50.0 * np.ones((1, 8)), "y.csv")
    code = cli.main(["adapt", "--design", dp, "--obs", op, "--radius", "0.01"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["final_k"] == "fallback"
    assert out["y_hat"] == [50.0] * 8
    assert len(out["records"]) == 5


def test_risk_command(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    code = cli.main(["risk", "--design", dp, "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["upper"] == pytest.approx(1.4530403782664356, abs=1e-12)
    assert out["lower"] == pytest.approx(0.5, abs=1e-9)
    assert out["k_upper"] == 0 and out["k_lower"] == 1
    assert out["proj_risk"] == 1.0
    # enclosing-ball reference: min(n sigma^2, (C max col norm)^2) = min(2, 1)
    assert out["euclidean_ball_lower"] == 1.0
    assert out["converged"] is True


def test_risk_zero_noise_serializes_inf_ratio(tmp_path, capsys):
    dp = _design(tmp_path, np.eye(2))
    code = cli.main(["risk", "--design", dp, "--seed", "0", "--sigma", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["upper"] == 0.0 and out["lower"] == 0.0
    assert out["ratio"] == "inf"


def test_bench_identity_command(tmp_path):
    op = tmp_path / "b.json"
    code = cli.main(
        ["bench", "--bench", "identity", "--trials", "2", "--seed", "1", "--out", str(op)]
    )
    assert code == 0
    rep = json.loads(op.read_text())
    assert rep["scenario"] == "identity"
    assert rep["command"] == "bench"


def test_reports_are_byte_identical_across_reruns(tmp_path):
    dp = _design(tmp_path, np.random.default_rng(9).normal(size=(3, 5)))
    op = tmp_path / "r.json"
    args = ["risk", "--design", dp, "--seed", "7", "--out", str(op)]
    code_a = cli.main(args)
    first = op.read_bytes()
    code_b = cli.main(args)
    assert code_a == code_b
    assert op.read_bytes() == first


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["width"])  # --design is required
    with pytest.raises(SystemExit):
        cli.main(["bench", "--bench", "nope"])
