"""Command-line interface: exit codes, reports, and file outputs."""

import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecert
import conecert.montecarlo
from conftest import GOOD_MODEL_JSON, MALFORMED_MODELS
from test_closure import cross_model
from conecert.cli import MAX_ENDPOINT_VALUES, MAX_PIECES, MAX_STARTS, build_parser, main
from conecert.closure import RationalSpan, primitive_direction
from conecert.models import MAX_DEGREE, bhw, get_builtin, load_model, save_model


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
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xe9"}')
    assert main(["analyze", "--model", str(latin1)]) == 2
    assert main(["analyze", "--model", str(tmp_path)]) == 2
    assert main(["analyze", "--builtin", "bhw", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name", ["name_not_a_string", "d_string", "drift_div_zero",
                                  "exponent_fractional", "exponent_bool", "exponent_string",
                                  "exponent_wrong_length", "exponent_negative",
                                  "degree_above_bound"])
def test_malformed_model_values_exit_two(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]))
    assert main(["analyze", "--model", str(path)]) == 2


def test_deeply_nested_model_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["analyze", "--model", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


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


def test_equilibria_warns_nothing():
    # 3 starts is no power of 2, which scipy's Sobol sampler warns about
    proc = _run_cli("equilibria", "--builtin", "bhw", "--box", "0,1;0,1", "--starts", "3")
    assert proc.returncode == 0
    assert "found 3 equilibrium point(s)" in proc.stdout
    assert proc.stderr == ""


def test_equilibria_overflowing_box_finds_none(capsys):
    assert main(["equilibria", "--builtin", "bhw", "--box=0,1e160;0,1"]) == 0
    assert "found 0 equilibrium point(s)" in capsys.readouterr().out


def test_bracket_command(capsys):
    assert main([
        "bracket", "--builtin", "bhw", "--expr", "ad^2(X1)(X0)",
    ]) == 0
    assert "(2, 0)" in capsys.readouterr().out
    assert main(["bracket", "--builtin", "bhw", "--expr", "[[X1"]) == 2


@pytest.mark.parametrize("opener", ["[", "("])
def test_deeply_nested_bracket_expr_exits_two(capsys, opener):
    assert main(["bracket", "--builtin", "bhw", "--expr", opener * 3000]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_bracket_work_is_bounded(capsys):
    # an iterate that reaches zero ends the loop, however large N is
    assert main(["bracket", "--builtin", "bhw", "--expr", "ad^100000(X1)(X0)"]) == 0
    assert "= (0, 0)" in capsys.readouterr().out
    # brackets whose terms keep multiplying are refused, not computed
    for name, expr in [("nonexample3d", "ad^1000(X0)(X1)"), ("burgers", "ad^4(X0)(X1)"),
                       ("burgers", "[X0,[X0,[X0,X1]]]")]:
        assert main(["bracket", "--builtin", name, f"--expr={expr}"]) == 2
    assert "too large" in capsys.readouterr().err


def test_spectral_atoms_need_the_burgers_layout(tmp_path, capsys):
    assert main(["bracket", "--builtin", "burgers", "--expr", "X(1,0)"]) == 0
    assert main(["bracket", "--builtin", "bhw", "--expr", "X(1,0)"]) == 2
    # model JSON carries no layout: the reloaded model has the same hash
    # but no named spectral coordinates
    path = tmp_path / "burgers.json"
    save_model(get_builtin("burgers"), str(path))
    reloaded = load_model(str(path))
    assert reloaded.layout is None
    assert reloaded.spec_hash() == get_builtin("burgers").spec_hash()
    assert main(["bracket", "--model", str(path), "--expr", "X(1,0)"]) == 2


def _bracket_value(source, expr, tmp_path):
    out = tmp_path / "bracket.json"
    assert main(["bracket", *source, f"--expr={expr}", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["constant"]
    return tuple(Fraction(c) for c in result["field"].strip("()").split(","))


@pytest.mark.parametrize("name", ["bhw", "cross"])
def test_analyze_derivations_evaluate_through_bracket(tmp_path, capsys, name):
    # every derivation the report prints re-derives its direction through
    # `bracket --expr`: an odd one exactly, an even one as a positive
    # multiple modulo the odd span
    if name == "cross":
        path = tmp_path / "cross.json"
        save_model(cross_model(), str(path))
        source = ["--model", str(path)]
    else:
        source = ["--builtin", name]
    report = tmp_path / "analyze.json"
    assert main(["analyze", *source, "--combo-budget", "1", "--out", str(report)]) == 0
    result = json.loads(report.read_text())["result"]
    odd, even = result["derivations"]["odd"], result["derivations"]["even"]
    assert len(odd) == len(result["odd_basis"]) and len(even) == len(result["even_generators"])
    assert even
    span = RationalSpan(result["dim"])
    for expr, value in zip(odd, result["odd_basis"]):
        assert _bracket_value(source, expr, tmp_path) == tuple(map(Fraction, value))
        span.add(tuple(map(Fraction, value)))
    for expr, value in zip(even, result["even_generators"]):
        residual = span.reduce(_bracket_value(source, expr, tmp_path))
        assert primitive_direction(residual) == tuple(map(Fraction, value))


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


def test_reach_diverging_synthesis_exit_three(capsys):
    # over t = 1e6 every synthesis start's sensitivities overflow
    argv = ["reach", *LANGEVIN, "--t", "1e6", "--pieces", "2"]
    assert main(argv) == 3
    assert "inconclusive at stage synthesis" in capsys.readouterr().out


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "conecert.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_reach_overflowing_difference_warns_nothing():
    # z - x overflows: never a member, and no RuntimeWarning on the way
    proc = _run_cli("reach", "--builtin", "bhw", "--from=-1e308,0", "--to=1e308,0.5", "--t", "1")
    assert proc.returncode == 3
    assert "membership" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_reach_target_beyond_the_drifts_float_range_is_twist_inconclusive():
    # the bracket family overflows at every waypoint: rank 0, not an SVD failure
    proc = _run_cli("reach", "--builtin", "bhw", "--from", "0,0", "--to", "1e308,1e308",
                    "--t", "1")
    assert proc.returncode == 3
    assert "inconclusive at stage twist" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_reach_huge_finite_target_is_synthesis_inconclusive():
    # least squares proposes controls beyond float range: failed starts.  The
    # norms of the message are finite: past about 1.3e154 the plain norm
    # overflows, and the rescaled one takes over.  Leg 0 steers to the first
    # twist waypoint, not to z.  Every start diverges, so no terminal error
    # is reported.
    proc = _run_cli("reach", "--builtin", "bhw", "--from", "0,0", "--to", "1e160,1e160",
                    "--t", "1")
    assert proc.returncode == 3
    assert "inconclusive at stage synthesis" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
    assert "|to| = 3.91e+159" in proc.stdout and "(all 6 starts diverged)" in proc.stdout
    assert "inf" not in proc.stdout


@pytest.mark.parametrize("name", ["noise_overflows_float", "drift_overflows_float"])
def test_model_coefficient_beyond_float_range_exits_two(tmp_path, capsys, name):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]))
    for command in ("reach", "verify"):
        argv = [command, "--model", str(path), "--from", "0", "--to", "1", "--t", "1"]
        assert main(argv) == 2
        assert "too large for a float" in capsys.readouterr().err


def _degree_model(path, degree):
    path.write_text(json.dumps({**GOOD_MODEL_JSON,
                                "drift": [[{"coeff": "-1", "exps": [degree]}]]}))
    return str(path)


def test_huge_degree_refused_under_a_memory_limit(tmp_path):
    # at degree 3 * 10^7 the kernel's slot arrays outgrow 1.5 GB of address
    # space, a limit set in the child alone; the file is refused at load
    path = _degree_model(tmp_path / "deg.json", 30_000_000)
    limit = 1_500_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "conecert.cli", "verify", "--model", path, "--from", "0",
         "--to", "0.5", "--t", "1", "--paths", "100", "--ball", "10"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2
    assert f"above {MAX_DEGREE}" in proc.stderr and "Traceback" not in proc.stderr


def test_huge_combo_budget_under_a_memory_limit():
    # the coefficient ranges are iterated, never listed: at 10^9 a list of
    # them outgrows 2 GB of address space, a limit set in the child alone
    limit = 2_000_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "conecert.cli", "analyze", "--builtin", "nonexample3d",
         "--combo-budget", "1000000000"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3
    assert "cone rank 2 of 3" in proc.stdout and "Traceback" not in proc.stderr


_DECAY = [[{"coeff": "-1", "exps": [1, 0]}], [{"coeff": "-1", "exps": [0, 1]}]]


@pytest.mark.parametrize("noise,code,message", [
    # invertible in floating point too, if badly conditioned
    ([["1", "0"], ["1", "1/100000000000000000000"]], 3, "inconclusive at stage twist"),
    # 1 + 2^-60 rounds to 1: invertible over Q, exactly singular in floats
    ([["1", "1"], ["1", f"{2**60 + 1}/{2**60}"]], 2, "singular in floating point"),
])
def test_nearly_dependent_noise_is_never_internal_error(tmp_path, noise, code, message):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"name": "near", "d": 2, "drift": _DECAY, "noise": noise}))
    proc = _run_cli("reach", "--model", str(path), "--from", "0,0", "--to", "1,0", "--t", "1",
                    "--pieces", "2")
    assert proc.returncode == code
    assert message in proc.stdout + proc.stderr and "Traceback" not in proc.stderr


def test_twist_refusal_reports_the_rank_reached(tmp_path):
    # the noise spans R^2 over Q, but its float rank, and the family's, is 1
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"name": "near", "d": 2, "drift": _DECAY,
                                "noise": [["1", "0"], ["1", "1/100000000000000000000"]]}))
    proc = _run_cli("reach", "--model", str(path), "--from", "0,0", "--to", "1,0", "--t", "1",
                    "--pieces", "2")
    assert proc.returncode == 3
    assert proc.stdout.startswith("verdict inconclusive at stage twist: bracket family rank 1"
                                  " < d = 2 after 12 waypoint sets")


def test_drift_at_the_degree_bound_runs(tmp_path):
    path = _degree_model(tmp_path / "deg.json", MAX_DEGREE)
    common = ["--model", path, "--from", "0", "--to", "0.5", "--t", "1"]
    assert main(["verify", *common, "--paths", "10", "--ball", "10"]) in (0, 3)
    assert main(["reach", *common, "--pieces", "2"]) in (0, 3)


def test_equilibria_starts_capped_at_parsing():
    argv = ["equilibria", "--builtin", "bhw", "--starts"]
    assert _exit_code([*argv, str(MAX_STARTS + 1)]) == 2
    assert _exit_code([*argv, "100000000000"]) == 2
    assert build_parser().parse_args([*argv, str(MAX_STARTS)]).starts == MAX_STARTS


def test_reach_tiny_horizon_warns_nothing():
    # at t = 1e-300 the least-squares solver's own arithmetic overflows
    proc = _run_cli("reach", *LANGEVIN, "--t", "1e-300")
    assert proc.returncode == 3
    assert "inconclusive at stage synthesis" in proc.stdout
    assert "Warning" not in proc.stderr


def test_reach_pieces_capped_at_parsing(monkeypatch):
    import conecert.reach

    monkeypatch.setattr(conecert.reach, "certify",
                        lambda *args, **kwargs: pytest.fail("a solve started"))
    argv = ["reach", *LANGEVIN, "--t", "1", "--pieces"]
    assert _exit_code([*argv, str(MAX_PIECES + 1)]) == 2
    assert build_parser().parse_args([*argv, str(MAX_PIECES)]).pieces == MAX_PIECES


def test_reach_dimension_mismatch(capsys):
    assert main([
        "reach", "--builtin", "bhw", "--from", "0", "--to", "1,0", "--t", "1",
    ]) == 2
    assert main([
        "reach", "--builtin", "bhw", "--from", "0,x", "--to", "1,0", "--t", "1",
    ]) == 2


def _count_simulations(monkeypatch):
    calls = []
    simulate_endpoints = conecert.montecarlo._simulate_endpoints
    monkeypatch.setattr(conecert.montecarlo, "_simulate_endpoints",
                        lambda *args: calls.append(args) or simulate_endpoints(*args))
    return calls


def test_verify_command(tmp_path, capsys, monkeypatch):
    calls = _count_simulations(monkeypatch)
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
    # the heatmap bins the endpoints the evidence counted: one simulation,
    # and the same histogram as when the heatmap ran a second one
    assert len(calls) == 1
    assert hashlib.sha256(heat.read_bytes()).hexdigest() == (
        "fbd30d86f6e658807d4dfe46f5b65c23d32580cc7fd05038717a6c1b4b455259")


@pytest.mark.parametrize("name", ["langevin", "burgers"])
def test_verify_endpoint_array_capped(monkeypatch, name):
    d = get_builtin(name).d
    zeros = ",".join(["0"] * d)
    argv = ["verify", "--builtin", name, "--from", zeros, "--to", zeros, "--t", "1", "--paths"]
    calls = []
    monkeypatch.setattr(conecert.montecarlo, "simulate", lambda model, x, cfg: calls.append(
        cfg.n_paths) or conecert.montecarlo.PositivityEvidence(0, cfg.n_paths, 0.0, 0.0))
    assert _exit_code([*argv, str(MAX_ENDPOINT_VALUES // d + 1)]) == 2
    assert _exit_code([*argv, "100000000000"]) == 2
    assert not calls
    # at the bound the run goes ahead, here into a stub that simulates nothing
    assert _exit_code([*argv, str(MAX_ENDPOINT_VALUES // d)]) == 3
    assert calls == [MAX_ENDPOINT_VALUES // d]


def test_reports_record_every_result_changing_flag(tmp_path):
    out = tmp_path / "report.json"
    flags = ["--pieces", "3", "--max-rounds", "5", "--combo-budget", "2", "--out", str(out)]
    for argv in (["reach", *LANGEVIN, "--t", "1", *flags],
                 ["reach", "--builtin", "nonexample3d", "--from", "0,0,0", "--to", "1,0,0",
                  "--t", "1", *flags]):
        main(argv)
        inputs = json.loads(out.read_text())["inputs"]
        assert (inputs["pieces"], inputs["max_rounds"], inputs["combo_budget"]) == (3, 5, 2)
    verify = ["verify", *LANGEVIN, "--paths", "8", "--out", str(out)]
    for extra, dt in ((["--t", "2"], 2 / 4000), (["--t", "1", "--dt", "0.001"], 0.001)):
        main([*verify, *extra])
        assert json.loads(out.read_text())["inputs"]["dt"] == dt


def test_verify_heatmap_needs_two_coordinates(tmp_path, monkeypatch):
    calls = _count_simulations(monkeypatch)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(GOOD_MODEL_JSON))
    heat = tmp_path / "heat.csv"
    assert main(["verify", "--model", str(path), "--from", "0", "--to", "0", "--t", "1",
                 "--paths", "10", "--heatmap", str(heat)]) == 2
    assert not calls and not heat.exists()


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
    ["verify", *LANGEVIN, "--t", "1", "--ball", "inf"],
    ["verify", *LANGEVIN, "--t", "nan"],
    ["verify", *LANGEVIN, "--t", "1", "--delta", "inf"],
    ["verify", *LANGEVIN, "--t", "1", "--dt", "nan"],
])
def test_malformed_inputs_exit_two(argv, capsys):
    assert _exit_code(argv) == 2
    # a bounded flag states the whole condition, finiteness included
    assert "must be greater than" not in capsys.readouterr().err


def test_verify_seed_past_philox_key_exits_two(capsys):
    argv = ["verify", *LANGEVIN, "--t", "1", "--paths", "64", "--seed", str(10**42)]
    assert _exit_code(argv) == 2
    assert "seed must be an integer" in capsys.readouterr().err


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


# every token of the bracket grammar, with noise indices and coefficients
# beyond the model's
BRACKET_TOKENS = st.sampled_from(
    ["[", "]", ",", "(", ")", "+", "*", *(f"ad^{m}" for m in (0, 1, 2, 3, 1000, 100000)),
     "X0", "X1", "X2", "[X0,[X0,[X0,X1]]]", *map(str, range(-2, 6))]
)
SPECTRAL_ATOMS = st.builds(
    "{}({},{})".format,
    st.sampled_from(["X", "Y", "Xt", "Yt"]),
    *[st.one_of(BRACKET_TOKENS, st.integers().map(str), st.text(max_size=3))] * 2,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(BRACKET_TOKENS, max_size=12))
def test_bracket_expr_never_internal_error(tokens):
    argv = ["bracket", "--builtin", "bhw", f"--expr={' '.join(tokens)}"]
    assert _exit_code(argv) in {0, 2}


@settings(max_examples=40, deadline=None)
@given(st.lists(BRACKET_TOKENS, max_size=3), SPECTRAL_ATOMS,
       st.lists(BRACKET_TOKENS, max_size=3))
def test_bracket_spectral_atom_never_internal_error(before, atom, after):
    expr = " ".join([*before, atom, *after])
    assert _exit_code(["bracket", "--builtin", "burgers", f"--expr={expr}"]) in {0, 2}


# Each command imports what it runs, and no command loads a scipy module:
# the equilibrium search (`equilibria`, `reach --via-equilibrium`) only
# locates scipy's Sobol direction-number file.
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
    assert _under(_loaded_after(argv), ["scipy"]) == []


# The exact-algebra commands and argparse errors run on Fractions alone:
# with numpy unimportable they keep their exit codes and output.
@pytest.mark.parametrize("argv,code,stdout", [
    (["--help"], 0, "usage: conecert [-h] {analyze,equilibria,reach,verify,bracket,models} ...\n"),
    (["models"], 0, "bhw: d=2, r=1, params={a1=0, a2=0, alpha1=1, alpha2=2, eps=1}\n"
                    "burgers: d=96, r=16, params={nu=1}\n"
                    "langevin: d=2, r=1, params={gamma=1}\n"
                    "langevin2d: d=4, r=2, params={gamma=1}\n"
                    "nonexample3d: d=3, r=1\n"),
    (["analyze", "--builtin", "bhw"], 0,
     "model bhw: cone rank 2 of 2 (1 two-sided, 1 one-sided directions), exhausted=True\n"),
    (["analyze", "--builtin", "langevin"], 0,
     "model langevin: cone rank 2 of 2 (2 two-sided, 0 one-sided directions),"
     " exhausted=True\n"),
    (["bracket", "--builtin", "bhw", "--expr", "ad^2(X1)(X0)"], 0, "ad^2(X1)(X0) = (2, 0)\n"),
    (["analyze", "--builtin", "bhw", "--max-rounds", "0"], 2, ""),
    (["reach", "--builtin", "langevin", "--from", "0,0", "--to", "1,0", "--t", "-1"], 2, ""),
])
def test_light_commands_run_without_numpy(argv, code, stdout):
    # a None entry in sys.modules makes every numpy import raise ImportError
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        sys.modules["numpy"] = None
        from conecert.cli import main
        sys.exit(main({argv!r}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    if argv == ["--help"]:
        assert proc.stdout.startswith(stdout)
        assert "bracket             evaluate a bracket expression" in proc.stdout
    else:
        assert proc.stdout == stdout
    if code == 2:
        assert "error: argument --" in proc.stderr


def test_direct_reach_loads_no_scipy():
    modules = _loaded_after(["reach", *LANGEVIN, "--t", "1", "--pieces", "4"])
    assert "conecert.reach" in modules
    assert _under(modules, ["scipy"]) == []


def test_direct_reach_runs_without_scipy():
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        sys.modules["scipy"] = None
        from conecert.cli import main
        sys.exit(main({["reach", *LANGEVIN, "--t", "1", "--pieces", "4"]!r}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict positive")


VIA = ["reach", "--builtin", "bhw", "--from", "0,0", "--to", "2,1", "--t", "1", "--pieces", "4",
       "--via-equilibrium"]


@pytest.mark.parametrize("argv", [
    ["equilibria", "--builtin", "bhw", "--box=-2,2;-2,2", "--starts", "16"],
    VIA,
])
def test_equilibrium_search_loads_no_scipy(argv):
    modules = _loaded_after(argv)
    assert "conecert.equilibria" in modules
    assert _under(modules, ["scipy"]) == []


def test_via_reach_runs_without_scipy_optimize():
    # scipy itself stays importable: the Sobol starts locate its data file
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {SRC!r})
        sys.modules["scipy.optimize"] = None
        from conecert.cli import main
        sys.exit(main({VIA!r}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict positive")


def test_verify_loads_no_scipy():
    modules = _loaded_after(["verify", *LANGEVIN, "--t", "1", "--paths", "64"])
    assert "conecert.montecarlo" in modules
    assert _under(modules, ["scipy"]) == []
