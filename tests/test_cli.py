import io
import sys

import pytest

from erasurelab.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_bounds_row_count(capsys):
    code, out = run_cli(["bounds", "--n", "2048", "--k", "1024",
                         "--eps", "0.40:0.50:0.005"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "epsilon,singleton,berlekamp"
    assert len(rows) == 22  # header + 21 grid points
    assert "# seed=0" in out


def test_bounds_with_floor(capsys):
    code, out = run_cli(["bounds", "--n", "64", "--k", "32",
                         "--eps", "0.1,0.2", "--dmin", "11", "--amin", "4"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "epsilon,singleton,berlekamp,floor"
    assert rows[1].endswith("4e-11")


def test_thresholds_table_row(capsys):
    code, out = run_cli(["thresholds", "--regular", "3,6"], capsys)
    assert code == 0
    row = data_rows(out)[1].split(",")
    assert abs(float(row[1]) - 0.4294) < 5e-4
    assert abs(float(row[2]) - 0.4881) < 5e-4
    assert abs(float(row[3]) - 0.5) < 1e-9


def test_construct_and_mindist(tmp_path, capsys):
    path = tmp_path / "code.txt"
    code, _ = run_cli(["construct", "--regular", "3,6", "--n", "14",
                       "--seed", "1", "--out", str(path)], capsys)
    assert code == 0
    assert path.read_text().startswith("ldpc 14 7")
    code, out = run_cli(["mindist", "--code", str(path)], capsys)
    assert code == 0
    d, a = data_rows(out)[1].split(",")
    assert int(d) >= 1 and int(a) >= 1


def test_simulate_echoes_config(tmp_path, capsys):
    path = tmp_path / "code.txt"
    run_cli(["construct", "--regular", "3,6", "--n", "24", "--out", str(path)], capsys)
    code, out = run_cli(["simulate", "--code", str(path), "--decoder", "hybrid",
                         "--eps", "0.2", "--target-errors", "3",
                         "--max-trials", "100", "--seed", "7"], capsys)
    assert code == 0
    assert "# decoder=hybrid" in out
    assert "# seed=7" in out
    assert data_rows(out)[0].startswith("sweep_value,")


def test_config_file_with_flag_override(tmp_path, capsys):
    cpath = tmp_path / "code.txt"
    run_cli(["construct", "--regular", "3,6", "--n", "24", "--out", str(cpath)], capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("decoder=it\ntarget-errors=2\nmax-trials=50\n")
    code, out = run_cli(["simulate", "--code", str(cpath), "--eps", "0.3",
                         "--config", str(cfg), "--decoder", "ml"], capsys)
    assert code == 0
    assert "# decoder=ml" in out  # flag beats config
    assert "# target_errors=2" in out  # config fills the rest
    assert "# max_trials=50" in out
    # an abbreviated flag beats the config too
    cfg.write_text("target_errors=7\nrandom-codeword=yes\n")
    code, out = run_cli(["simulate", "--code", str(cpath), "--eps", "0.3",
                         "--max-trials", "20", "--config", str(cfg), "--target-err", "3"], capsys)
    assert code == 0
    assert "# target_errors=3" in out


def test_unknown_flag_nonzero_exit(capsys):
    code = main(["simulate", "--bogus"])
    capsys.readouterr()
    assert code != 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-key=1\n")
    code = main(["thresholds", "--regular", "3,6", "--config", str(cfg)])
    capsys.readouterr()
    assert code != 0


def test_raptor_sim_runs(capsys):
    code, out = run_cli(["raptor-sim", "--k", "16", "--n", "32",
                         "--delta", "14:16", "--target-errors", "2",
                         "--max-trials", "40"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 4
    assert "# k=16" in out and "# n=32" in out


def test_replay_byte_identical(tmp_path, capsys):
    cpath = tmp_path / "code.txt"
    run_cli(["construct", "--regular", "3,6", "--n", "24", "--out", str(cpath)], capsys)
    args = ["simulate", "--code", str(cpath), "--eps", "0.25", "--decoder", "ml",
            "--target-errors", "3", "--max-trials", "60", "--seed", "11"]
    _, a = run_cli(args, capsys)
    _, b = run_cli(args, capsys)
    assert a == b


# a rank-2 H under a header that claims k=3
BAD_K_CODE = "ldpc 4 3\n2 4\n1100\n0011\n"


@pytest.mark.parametrize("args, files, says", [
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1:0.2:0"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.2:0.1:-0.05"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.2:0.1:0.05"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--config", "run.cfg"],
     {"run.cfg": "eps=0.1:0.2:0\n"}, ""),
    (["raptor-sim", "--k", "16", "--n", "32", "--delta", "16", "--workers", "0"], {}, ""),
    (["raptor-sim", "--k", "16", "--n", "32", "--delta", "16", "--config", "run.cfg"],
     {"run.cfg": "workers=0\n"}, ""),
    (["mindist", "--code", "code.txt"], {"code.txt": BAD_K_CODE}, ""),
    (["bounds", "--n", "64", "--k", "80", "--eps", "0.1"], {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--target-errors", "0"],
     {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--max-trials", "0"], {}, ""),
    (["simulate", "--geira", "8,16", "--taps", "0,20", "--eps", "0.3"], {}, ""),
    (["simulate", "--code", "/nonexistent", "--eps", "0.3"], {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--config", "run.cfg"],
     {"run.cfg": "decoder=bogus\n"}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--delta", "5:1"], {}, "5:1"),
    (["raptor-sim", "--k", "16", "--n", "32", "--delta", "3:1"], {}, "3:1"),
    (["simulate", "--regular", "0,6", "--n", "12", "--eps", "0.3"], {}, "dv must be >= 1"),
    (["construct", "--regular", "3,6", "--n", "-6"], {}, "n must be >= 1, got -6"),
], ids=["step-zero", "step-negative", "stop-below-start", "step-config", "workers-flag",
        "workers-config", "code-header-k", "bounds-k-above-n", "target-errors-zero",
        "max-trials-zero", "geira-tap-too-large", "code-file-missing", "decoder-config",
        "simulate-delta-stop-below-start", "raptor-delta-stop-below-start",
        "regular-dv-zero", "regular-n-negative"])
def test_bad_range_is_a_usage_error(tmp_path, capsys, args, files, says):
    """Exit 2 with one error line; ``says`` is a fragment that line must hold."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in files else a for a in args]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("erasurelab: error: ")
    assert says in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err
