"""Command-line interface: exit codes, reports, and file outputs."""

import csv
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecert
from conftest import MALFORMED_MODELS
from conecert.cli import main
from conecert.models import bhw, save_model


def test_models_lists_builtins(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("langevin", "bhw", "burgers", "nonexample3d"):
        assert name in out


def test_analyze_full_rank_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "--builtin", "bhw", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "analyze"
    assert report["model"] == "bhw"
    assert report["result"]["k"] == 1
    assert report["result"]["basis"]["vectors"] == [["0", "1"], ["1", "0"]]
    assert "model_hash" in report and len(report["model_hash"]) == 64


def test_analyze_rank_deficient_exit_three(capsys):
    assert main(["analyze", "--builtin", "nonexample3d"]) == 3
    assert "rank 2 of 3" in capsys.readouterr().out


def test_missing_model_is_input_error(capsys):
    assert main(["analyze"]) == 2
    assert main(["analyze", "--builtin", "nope"]) == 2
    assert main(["analyze", "--model", "/no/such/file.json"]) == 2


def test_malformed_model_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--model", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"name": "x", "d": 1}))
    assert main(["analyze", "--model", str(bad2)]) == 2


@pytest.mark.parametrize("name", ["d_string", "drift_div_zero"])
def test_malformed_model_values_exit_two(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]))
    assert main(["analyze", "--model", str(path)]) == 2


def test_analyze_custom_model_file(tmp_path):
    path = tmp_path / "m.json"
    save_model(bhw(0, 0, 1, 2, 1), str(path))
    assert main(["analyze", "--model", str(path)]) == 0


def test_equilibria_command(capsys):
    assert main([
        "equilibria", "--builtin", "bhw", "--box=-2,2;-2,2", "--starts", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "equilibrium point" in out


def test_equilibria_overflowing_box_finds_none(capsys):
    assert main(["equilibria", "--builtin", "bhw", "--box=0,1e160;0,1"]) == 0
    assert "found 0 equilibrium point(s)" in capsys.readouterr().out


def test_bracket_command(capsys):
    assert main([
        "bracket", "--builtin", "bhw", "--expr", "ad^2(X1)(X0)",
    ]) == 0
    assert "(2, 0)" in capsys.readouterr().out
    assert main(["bracket", "--builtin", "bhw", "--expr", "[[X1"]) == 2


def test_reach_positive_with_trajectory(tmp_path, capsys):
    out = tmp_path / "cert.json"
    traj = tmp_path / "traj.csv"
    code = main([
        "reach", "--builtin", "langevin", "--from", "0,0", "--to", "1,0",
        "--t", "1", "--out", str(out), "--dump-trajectory", str(traj),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["verdict"] == "positive"
    with open(traj) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x0", "x1"]
    last = [float(v) for v in rows[-1]]
    assert last[0] == pytest.approx(1.0)
    assert np.allclose(last[1:], [1.0, 0.0], atol=1e-4)


def test_reach_membership_failure_exit_three(capsys):
    code = main([
        "reach", "--builtin", "bhw", "--from", "0,0", "--to=-1,0", "--t", "1",
    ])
    assert code == 3
    assert "membership" in capsys.readouterr().out


def test_reach_dimension_mismatch(capsys):
    assert main([
        "reach", "--builtin", "bhw", "--from", "0", "--to", "1,0", "--t", "1",
    ]) == 2
    assert main([
        "reach", "--builtin", "bhw", "--from", "0,x", "--to", "1,0", "--t", "1",
    ]) == 2


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify.json"
    heat = tmp_path / "heat.csv"
    code = main([
        "verify", "--builtin", "langevin", "--from", "0,0", "--to", "1,0",
        "--t", "1", "--paths", "4000", "--seed", "1", "--ball", "10",
        "--out", str(out), "--heatmap", str(heat),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["lower_cb"] > 0
    grid = np.loadtxt(heat, delimiter=",")
    assert grid.shape == (40, 40)
    assert grid.sum() <= 4000


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        return exc.code


LANGEVIN = ["--builtin", "langevin", "--from", "0,0", "--to", "1,0"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--builtin", "bhw", "--max-rounds", "0"],
    ["reach", *LANGEVIN, "--t", "1", "--pieces", "1"],
    ["reach", *LANGEVIN, "--t", "-1"],
    ["verify", *LANGEVIN, "--t", "1", "--delta", "0"],
    ["verify", *LANGEVIN, "--t", "1", "--paths", "0"],
    ["verify", *LANGEVIN, "--t", "1", "--dt", "0.5"],
    ["equilibria", "--builtin", "bhw", "--starts", "0"],
    ["equilibria", "--builtin", "bhw", "--box=a,b;-2,2"],
    ["equilibria", "--builtin", "bhw", "--box=-2,2,3;-2,2"],
    ["equilibria", "--builtin", "bhw", "--box=2,-2;-2,2"],
    ["reach", "--builtin", "langevin", "--from", "nan,0", "--to", "1,0", "--t", "1"],
    ["verify", "--builtin", "langevin", "--from", "0,0", "--to", "inf,0", "--t", "1"],
])
def test_malformed_inputs_exit_two(argv):
    assert _exit_code(argv) == 2


# any finite float, tiny or huge
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
EXIT_CODES = {0, 2, 3}  # never 1, the internal-error code


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS).map(sorted), min_size=1, max_size=3))
def test_equilibria_box_never_internal_error(intervals):
    box = ";".join(f"{lo!r},{hi!r}" for lo, hi in intervals)
    argv = ["equilibria", "--builtin", "bhw", "--starts", "2", f"--box={box}"]
    assert _exit_code(argv) in EXIT_CODES


@settings(max_examples=20, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=3))
def test_verify_from_never_internal_error(x):
    argv = ["verify", "--builtin", "langevin", "--paths", "1",
            f"--from={','.join(map(repr, x))}", "--to", "1,0", "--t", "1"]
    assert _exit_code(argv) in EXIT_CODES


# Each command imports what it runs: the exact-algebra commands, --help and
# argparse errors load no scipy, and a direct reach no scipy.stats.
SCIPY_HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.stats")
SRC = str(Path(conecert.__file__).resolve().parents[1])


def _loaded_after(argv):
    """Modules a fresh interpreter holds after importing the CLI and, unless
    argv is None, running main(argv)."""
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        from conecert.cli import main
        try:
            if {argv!r} is not None:
                main({argv!r})
        except SystemExit:  # --help and argparse errors
            pass
        print(" ".join(sys.modules))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return set(proc.stdout.splitlines()[-1].split())


def _under(modules, packages):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


@pytest.mark.parametrize("argv", [
    None,
    ["--help"],
    ["models"],
    ["analyze", "--builtin", "bhw"],
    ["bracket", "--builtin", "bhw", "--expr", "ad^2(X1)(X0)"],
    ["analyze", "--builtin", "bhw", "--max-rounds", "0"],
])
def test_light_commands_load_no_scipy(argv):
    assert _under(_loaded_after(argv), SCIPY_HEAVY) == []


def test_direct_reach_loads_no_scipy_stats():
    modules = _loaded_after(["reach", *LANGEVIN, "--t", "1", "--pieces", "4"])
    assert "conecert.reach" in modules
    assert _under(modules, ["scipy.stats"]) == []
