import io
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from erasurelab import ldpc
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
    assert "# seed=" not in out  # bounds draws nothing, so takes no seed


@pytest.mark.parametrize("grid, points", [
    ("0.40:0.50:0.06", ["0.4", "0.46"]),  # the next step, 0.52, is past the stop
    ("0.42:0.48:0.02", ["0.42", "0.44", "0.46", "0.48"]),  # 0.48 lands a hair short
    ("0.40:0.40:0.1", ["0.4"]),
])
def test_grid_never_passes_its_stop(capsys, grid, points):
    code, out = run_cli(["bounds", "--n", "2048", "--k", "1024", "--eps", grid], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in data_rows(out)[1:]] == points


def test_bounds_with_floor(capsys):
    code, out = run_cli(["bounds", "--n", "64", "--k", "32",
                         "--eps", "0.1,0.2", "--dmin", "11", "--amin", "4"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == "epsilon,singleton,berlekamp,floor"
    assert rows[1].endswith("4e-11")


def test_bounds_with_floor_reaches_eps_one(capsys):
    """A grid that ends at ε = 1 takes the floor there too: every position
    is erased, so it is a_min, and both bounds read 1."""
    code, out = run_cli(["bounds", "--n", "8", "--k", "4", "--eps", "0.5:1:0.5",
                         "--dmin", "3", "--amin", "2"], capsys)
    assert code == 0
    assert data_rows(out)[1:] == ["0.5,0.36328125,0.77758789,0.25", "1,1,1,2"]


def test_thresholds_table_row(capsys):
    code, out = run_cli(["thresholds", "--regular", "3,6"], capsys)
    assert code == 0
    row = data_rows(out)[1].split(",")
    assert abs(float(row[1]) - 0.4294) < 5e-4
    assert abs(float(row[2]) - 0.4881) < 5e-4
    assert abs(float(row[3]) - 0.5) < 1e-9


@pytest.mark.parametrize("regular, row", [
    ("1,1", "(1:1),1.000000,1.000000,1.000000"),
    ("1,2", "(1:2),0.000000,0.000000,0.500000"),
    ("2,2", "(2:2),1.000000,1.000000,1.000000"),
])
def test_thresholds_of_degenerate_ensembles(capsys, regular, row):
    code, out = run_cli(["thresholds", "--regular", regular], capsys)
    assert code == 0
    assert data_rows(out)[1] == row


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


def test_header_echoes_only_the_chosen_code_flags(capsys):
    code, out = run_cli(["simulate", "--geira", "8,16", "--eps", "0.3",
                         "--max-trials", "5"], capsys)
    assert code == 0
    assert "# taps=0,1" in out and "# wc=3" in out and "# n=" not in out
    code, out = run_cli(["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3",
                         "--max-trials", "5"], capsys)
    assert code == 0
    assert "# n=24" in out and "# taps=" not in out and "# wc=" not in out


def _header(text):
    return [l for l in text.splitlines() if l.startswith("#")]


def test_header_echoes_random_codeword_only_when_set(capsys):
    """The switch changes the data rows, so a run with it must not share the
    header of a run without it; runs without it keep their old header."""
    args = ["simulate", "--regular", "3,6", "--n", "96", "--eps", "0.42:0.48:0.02",
            "--max-trials", "20"]
    code, plain = run_cli(args, capsys)
    assert code == 0
    assert not any(l.startswith("# random_codeword") for l in _header(plain))
    code, random = run_cli(args + ["--random-codeword"], capsys)
    assert code == 0
    assert [l for l in _header(random) if l.startswith("# random_codeword")] == [
        "# random_codeword=1"]


def test_header_floats_parse_back_to_the_grid(capsys):
    """A header float is written short where that reads back exactly and in
    full where it does not, as for the third point of 0.42:0.48:0.02."""
    code, out = run_cli(["simulate", "--regular", "3,6", "--n", "96",
                         "--eps", "0.42:0.48:0.02", "--max-trials", "5"], capsys)
    assert code == 0
    assert "# eps=0.42,0.44,0.45999999999999996,0.48" in _header(out)
    code, out = run_cli(["bounds", "--n", "2048", "--k", "1024",
                         "--eps", "0.40:0.50:0.005"], capsys)
    assert code == 0
    (line,) = [l for l in _header(out) if l.startswith("# eps=")]
    assert [float(v) for v in line[len("# eps="):].split(",")] == [
        0.40 + i * 0.005 for i in range(21)]


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


@pytest.mark.parametrize("text, zero", [
    ("1", False), ("TRUE", False), ("Yes", False), ("0", True), ("false", True), ("NO", True),
])
def test_config_switch_reads_each_boolean_spelling(tmp_path, capsys, monkeypatch, text, zero):
    """1/0, true/false and yes/no, in any case, set a switch from a config
    file; what the sweep receives is the plan's ``zero_codeword``."""
    from erasurelab import sim

    plans = []
    monkeypatch.setattr(sim, "run_sweep", lambda plan: plans.append(plan) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"random_codeword={text}\n")
    code, _ = run_cli(["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3",
                       "--config", str(cfg)], capsys)
    assert code == 0
    assert [plan.zero_codeword for plan in plans] == [zero]


@pytest.mark.parametrize("text", ["ture", "on", "", "2", "y"])
def test_config_switch_rejects_other_text(tmp_path, capsys, text):
    """A misspelt boolean is one error line and exit 2, not a silent
    all-zero-codeword run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"random_codeword={text}\n")
    code = main(["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3",
                 "--max-trials", "5", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"erasurelab: error: config key 'random_codeword': {text!r} is not a boolean "
        "(1/0, true/false or yes/no)"]


def test_bad_eps_fails_before_any_trial(capsys, monkeypatch):
    """An epsilon outside [0, 1] later in the sweep is one error line and
    exit 2 before the valid points run, and no CSV is written."""
    from erasurelab import sim

    calls, real = [], sim.run_trial
    monkeypatch.setattr(sim, "run_trial", lambda *args: calls.append(args) or real(*args))
    code = main(["simulate", "--regular", "3,6", "--n", "96", "--eps", "0.3,1.5",
                 "--max-trials", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["erasurelab: error: epsilon must lie in [0, 1], got 1.5"]
    assert calls == []


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


@pytest.mark.parametrize("args, text, key", [
    (["bounds"], "n=8\nk=4\neps=0.1\neps=0.3\n", "eps"),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3"],
     "target-errors=2\ntarget_errors=3\n", "target_errors"),
], ids=["same-spelling", "both-spellings"])
def test_config_key_given_twice_is_refused(tmp_path, capsys, args, text, key):
    """A repeated key is an error, not a silent choice of its last value."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(args + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"erasurelab: error: config key {key!r} given twice"]


def test_simulate_raptor_runs(capsys):
    code, out = run_cli(["simulate", "--raptor", "16,32",
                         "--delta", "14:16", "--target-errors", "2",
                         "--max-trials", "40"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 4
    assert "# raptor=16,32" in out


def test_bounds_takes_n_and_k_from_config(tmp_path, capsys):
    """``--n`` and ``--k`` may come from a config file, as every other
    command's needed values may."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# the code's length and dimension\nn=64\n\nk=32\n")
    code, out = run_cli(["bounds", "--eps", "0.3", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == run_cli(["bounds", "--n", "64", "--k", "32", "--eps", "0.3"], capsys)[1]


@pytest.mark.parametrize("args", [
    ["simulate", "--regular", "3,6", "--n", "96", "--eps", "0.42:0.48:0.02",
     "--max-trials", "20"],
    ["simulate", "--geira", "8,16", "--delta", "0:2", "--decoder", "it", "--max-trials", "20"],
    ["simulate", "--code", "code.txt", "--eps", "0.3", "--seed", "4", "--max-trials", "20"],
    ["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--random-codeword",
     "--max-trials", "20"],
    ["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3,0.4", "--workers", "2",
     "--max-trials", "20"],
    ["simulate", "--raptor", "16,32", "--delta", "0:2", "--seed", "3", "--max-trials", "20"],
    ["simulate", "--raptor", "16,32", "--eps", "0.1,0.2", "--max-trials", "20"],
    ["bounds", "--n", "64", "--k", "32", "--eps", "0.1,0.2", "--dmin", "11", "--amin", "4"],
    ["thresholds", "--regular", "3,6"],
    ["mindist", "--code", "code.txt"],
], ids=["simulate-eps-grid", "simulate-delta", "simulate-code", "simulate-random-codeword",
        "simulate-workers", "raptor-delta", "raptor-eps", "bounds", "thresholds", "mindist"])
def test_header_replays_as_config(tmp_path, capsys, args):
    """A CSV's header, less ``command`` and ``lt_seed``, is a config file
    that alone reproduces the CSV byte for byte."""
    path = tmp_path / "code.txt"
    run_cli(["construct", "--regular", "3,6", "--n", "24", "--seed", "1", "--out", str(path)],
            capsys)
    args = [str(path) if a == "code.txt" else a for a in args]
    code, out = run_cli(args, capsys)
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{line[2:]}\n" for line in _header(out)
                           if not line.startswith(("# command=", "# lt_seed="))))
    assert run_cli([args[0], "--config", str(cfg)], capsys) == (0, out)


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
# the (3,2) single parity check code
SPC_CODE = "ldpc 3 2\n1 3\n111\n"
# the same code with two of its three positions punctured, one fewer sent than k
SPC_BELOW_K_CODE = "ldpc 3 2\npunctured: 0,1\n1 3\n111\n"
# the (128,127) single parity check code under a header that claims n=130
BAD_N_CODE = "ldpc 130 127\n1 128\n" + "1" * 128 + "\n"
# H = I_3: the (3,0) code, whose only codeword is zero
K_ZERO_CODE = "ldpc 3 0\n3 3\n100\n010\n001\n"
# a (3,2) code whose H has an all-zero last column
ZERO_COLUMN_CODE = "ldpc 3 2\n1 3\n110\n"
# the (3,2) single parity check code with position 3, past n, punctured
PUNCTURED_PAST_N_CODE = "ldpc 3 2\npunctured: 3\n1 3\n111\n"
# the (27,26) single parity check code: k above mindist's enumeration cap
K_26_CODE = "ldpc 27 26\n1 27\n" + "1" * 27 + "\n"


@pytest.mark.parametrize("args, files, says", [
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1:0.2:0"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.2:0.1:-0.05"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.2:0.1:0.05"], {}, ""),
    (["bounds", "--n", "64", "--k", "32", "--config", "run.cfg"],
     {"run.cfg": "eps=0.1:0.2:0\n"}, ""),
    (["simulate", "--raptor", "16,32", "--delta", "16", "--workers", "0"], {}, ""),
    (["simulate", "--raptor", "16,32", "--delta", "16", "--config", "run.cfg"],
     {"run.cfg": "workers=0\n"}, ""),
    (["mindist", "--code", "code.txt"], {"code.txt": BAD_K_CODE}, ""),
    (["mindist", "--code", "code.txt"], {"code.txt": BAD_N_CODE},
     "code.txt: header gives n=130, but H has 128 columns"),
    (["mindist", "--code", "code.txt"], {"code.txt": SPC_BELOW_K_CODE},
     "code.txt: punctured positions leave 1 transmitted, fewer than k=2"),
    (["simulate", "--code", "code.txt", "--eps", "0.1"], {"code.txt": SPC_BELOW_K_CODE},
     "code.txt: punctured positions leave 1 transmitted, fewer than k=2"),
    (["bounds", "--n", "64", "--k", "80", "--eps", "0.1"], {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--target-errors", "0"],
     {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--max-trials", "0"], {}, ""),
    (["simulate", "--geira", "8,16", "--taps", "0,20", "--eps", "0.3"], {}, ""),
    (["simulate", "--code", "/nonexistent", "--eps", "0.3"], {}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--config", "run.cfg"],
     {"run.cfg": "decoder=bogus\n"}, ""),
    (["simulate", "--regular", "3,6", "--n", "24", "--delta", "5:1"], {}, "5:1"),
    (["simulate", "--raptor", "16,32", "--delta", "3:1"], {}, "3:1"),
    (["simulate", "--regular", "0,6", "--n", "12", "--eps", "0.3"], {}, "dv must be >= 1"),
    (["construct", "--regular", "3,6", "--n", "-6"], {}, "n must be >= 1, got -6"),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--delta", "1:2"], {},
     "one of --eps or --delta"),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--config", "run.cfg"],
     {"run.cfg": "delta=1:2\n"}, "one of --eps or --delta"),
    (["construct", "--regular", "3,6", "--n", "24", "--geira", "12,24"], {},
     "not --regular and --geira"),
    (["simulate", "--code", "code.txt", "--eps", "0.3", "--config", "run.cfg"],
     {"code.txt": SPC_CODE, "run.cfg": "regular=3,6\nn=24\n"}, "not --code and --regular"),
    (["bounds", "--n", "0", "--k", "0", "--eps", "0.5"], {}, "got 0"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1", "--dmin", "0", "--amin", "3"], {},
     "got 0"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1", "--dmin", "11", "--amin", "-3"], {},
     "got -3"),
    (["construct", "--geira", "8,16", "--n", "24"], {}, "--geira does not take --n"),
    (["construct", "--geira", "8,16", "--config", "run.cfg"], {"run.cfg": "n=24\n"},
     "--geira does not take --n"),
    (["construct", "--regular", "3,6", "--n", "12", "--taps", "0,5"], {},
     "--regular does not take --taps"),
    (["construct", "--regular", "3,6", "--n", "12", "--wc", "9"], {},
     "--regular does not take --wc"),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0.3", "--config", "run.cfg"],
     {"run.cfg": "taps=0,5\nwc=9\n"}, "--regular does not take --taps or --wc"),
    (["simulate", "--code", "code.txt", "--n", "3", "--eps", "0.3"], {"code.txt": SPC_CODE},
     "--code does not take --n"),
    (["thresholds", "--regular", "0,6"], {}, "dv must be >= 1, got 0"),
    (["thresholds", "--regular", "3,2"], {}, "design rate -0.5 is negative"),
    (["construct", "--geira", "8,16", "--wc", "9"], {}, "wc = 9 must be below n-k = 8"),
    (["mindist", "--code", "code.txt"], {"code.txt": "ldpc 4 2\n"}, "missing matrix"),
    (["simulate", "--code", "code.txt", "--eps", "0.3"], {"code.txt": "ldpc 4 2"},
     "missing matrix"),
    (["simulate", "--geira", "8,16", "--delta", "9"], {}, "overhead 9 outside -8..8"),
    (["simulate", "--raptor", "16,32", "--delta", "17"], {},
     "overhead 17 outside -16..16"),
    (["simulate", "--raptor", "16,32", "--delta", "-17"], {},
     "overhead -17 outside -16..16"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1", "--dmin", "3"], {},
     "--dmin and --amin together"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0.1", "--amin", "3"], {},
     "--dmin and --amin together"),
    (["construct", "--geira", "0,16"], {}, "k = 0, n = 16"),
    (["construct", "--geira", "8,8"], {}, "k = 8, n = 8"),
    (["simulate", "--raptor", "16,32", "--delta", "0", "--decoder", "it"], {},
     "supports ML decoding only"),
    (["simulate", "--raptor", "16,32", "--delta", "0", "--n", "32"], {},
     "--raptor does not take --n"),
    (["simulate", "--raptor", "3,32", "--delta", "0"], {}, "k must be >= 4"),
    (["construct", "--raptor", "16,32"], {}, "unrecognized arguments: --raptor 16,32"),
    (["raptor-sim", "--k", "16", "--n", "32", "--delta", "0"], {},
     "invalid choice: 'raptor-sim'"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0:inf:0.1"], {}, "finite"),
    (["simulate", "--regular", "3,6", "--n", "24", "--eps", "0:1:inf"], {}, "finite"),
    (["bounds", "--n", "64", "--k", "32", "--eps=-1e308:1e308:1"], {},
     "more than 1000000 points"),
    (["bounds", "--n", "64", "--k", "32", "--eps", "0:1:1e-300"], {},
     "more than 1000000 points"),
    (["simulate", "--regular", "3,6", "--n", "24", "--delta", "0:1000000000000"], {},
     "more than 1000000 points"),
    (["bounds", "--k", "32", "--eps", "0.3"], {}, "give --n, --k and --eps"),
    (["simulate", "--raptor", "16,32", "--delta", "0", "--random-codeword"], {},
     "--raptor does not take --random-codeword"),
    (["simulate", "--raptor", "16,32", "--delta", "0", "--config", "run.cfg"],
     {"run.cfg": "random_codeword=1\n"}, "--raptor does not take --random-codeword"),
    (["construct", "--geira", "64,128", "--taps", "5:1"], {}, "argument --taps: want start"),
    (["construct", "--geira", "64,128", "--taps", "0:2000000"], {},
     "argument --taps: '0:2000000' has more than 1000000 points"),
    (["bounds", "--n", "8", "--k", "4", "--eps", "0.1", "--seed", "1"], {},
     "unrecognized arguments: --seed 1"),
    (["construct", "--geira", "64,128", "--taps", "0,-1"], {}, "taps must be >= 0, got -1"),
    (["construct", "--geira", "8,16", "--taps=-3:0"], {}, "taps must be >= 0, got -3"),
    (["construct", "--regular", "4,4", "--n", "3"], {}, "check degree dc = 4 exceeds n = 3"),
    (["bounds", "--eps", "0.1", "--bogus", "1", "--config", "run.cfg"], {"run.cfg": "n=8\nk=4\n"},
     "unrecognized arguments: --bogus 1"),
    (["bounds", "--n", "8", "--k", "4", "--eps", "0.1", "--config", "run.cfg"],
     {"run.cfg": "run=1\n"}, "unknown config key 'run'"),
    (["mindist", "--code", "code.txt"], {"code.txt": K_ZERO_CODE},
     "k = 0: the code has no nonzero codeword"),
    (["bounds", "--eps", "0.1", "--config", "run.cfg"], {"run.cfg": "n=8\nk 4\n"},
     "bad config line (want key=value): 'k 4'"),
    (["bounds", "--n", "8", "--k", "4", "--eps", "0.1:0.2"], {},
     "argument --eps: expected start:stop:step"),
    (["mindist", "--code", "code.txt"], {"code.txt": ZERO_COLUMN_CODE},
     "every column of H must be nonzero"),
    (["mindist", "--code", "code.txt"], {"code.txt": PUNCTURED_PAST_N_CODE},
     "punctured positions out of range"),
    (["mindist", "--code", "code.txt"], {"code.txt": K_26_CODE},
     "k = 26 exceeds enumeration cap 24"),
], ids=["step-zero", "step-negative", "stop-below-start", "step-config", "workers-flag",
        "workers-config", "code-header-k", "code-header-n", "mindist-punctured-below-k",
        "simulate-punctured-below-k", "bounds-k-above-n",
        "target-errors-zero", "max-trials-zero", "geira-tap-too-large", "code-file-missing",
        "decoder-config", "simulate-delta-stop-below-start", "raptor-delta-stop-below-start",
        "regular-dv-zero", "regular-n-negative", "simulate-eps-and-delta",
        "simulate-delta-in-config", "construct-regular-and-geira", "simulate-regular-in-config",
        "bounds-n-zero", "bounds-dmin-zero", "bounds-amin-negative", "geira-with-n",
        "geira-n-in-config", "regular-with-taps", "regular-with-wc",
        "regular-taps-wc-in-config", "code-with-n", "thresholds-dv-zero",
        "thresholds-negative-rate", "geira-wc-above-n-k", "mindist-header-only",
        "simulate-header-only", "simulate-delta-above-n-k", "raptor-delta-above-n-k",
        "raptor-delta-below-minus-k", "bounds-dmin-alone", "bounds-amin-alone",
        "geira-k-zero", "geira-n-equals-k", "raptor-decoder-it", "raptor-with-n",
        "raptor-k-below-4", "construct-raptor", "raptor-sim-gone", "eps-stop-inf",
        "eps-step-inf", "eps-span-overflows", "eps-grid-too-large", "delta-grid-too-large",
        "bounds-n-missing", "raptor-random-codeword", "raptor-random-codeword-in-config",
        "geira-taps-stop-below-start", "geira-taps-grid-too-large", "bounds-seed",
        "geira-tap-negative", "geira-taps-range-negative", "regular-dc-above-n",
        "unknown-option-with-config", "config-key-run", "mindist-k-zero",
        "config-line-without-equals", "eps-two-part-range", "code-zero-column",
        "code-punctured-past-n", "mindist-k-above-cap"])
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


@pytest.mark.parametrize("args, says", [
    (["simulate", "--raptor", "16,32", "--delta", "0", "--n", "32"],
     "--raptor does not take --n"),
    (["bounds", "--k", "32", "--eps", "0.3"], "give --n, --k and --eps"),
    (["construct", "--regular", "3,6"], "--regular needs --n"),
    (["thresholds"], "give --regular dv,dc"),
    (["mindist"], "give --code"),
    (["bounds", "--n", "8", "--k", "4", "--eps", "0.1", "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    (["construct", "--raptor", "16,32"], "unrecognized arguments: --raptor 16,32"),
], ids=["simulate", "bounds", "construct", "thresholds", "mindist", "bounds-unknown-option",
        "construct-raptor"])
def test_usage_error_prints_the_command_usage(capsys, args, says):
    """A command's own checks print that command's usage line, as argparse's
    errors do, not the top-level one."""
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: erasurelab {args[0]} ")
    assert err.rstrip("\n").endswith(f"erasurelab: error: {says}")


@pytest.fixture(scope="module")
def punctured_code_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("code") / "code.txt"
    assert main(["construct", "--regular", "3,6", "--n", "12", "--seed", "2",
                 "--out", str(path)]) == 0
    return ldpc.code_to_text(replace(ldpc.load_code(path), punctured={0}))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_code_file_is_one_error_line(tmp_path, capsys, punctured_code_text, data):
    """A saved punctured code file cut anywhere before its last row ends,
    then maybe mutated further, under mindist and simulate: a valid file
    runs, anything else exits 2 with a single error line, never a
    traceback. A bare cut always exits 2."""
    text = punctured_code_text
    cut = data.draw(st.integers(0, len(text.rstrip("\n")) - 1))
    damaged = text[:cut]
    mutate = data.draw(st.booleans())
    if mutate:
        at = data.draw(st.integers(0, len(damaged)))
        gone = data.draw(st.integers(0, 8))
        extra = data.draw(st.text(alphabet="01 ,:\nldpcunture-x9", max_size=6))
        damaged = damaged[:at] + extra + damaged[at + gone:]
    path = tmp_path / "damaged.txt"
    path.write_text(damaged)
    for args in (["mindist", "--code", str(path)],
                 ["simulate", "--code", str(path), "--eps", "0.3", "--max-trials", "2"]):
        code = main(args)
        err = capsys.readouterr().err
        if code == 0 and mutate:
            continue
        assert code == 2, (damaged, args)
        assert len(err.splitlines()) == 1 and err.startswith("erasurelab: error: "), err
