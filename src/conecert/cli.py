"""Command-line front end: analyze -> equilibria -> reach -> verify,
with machine-readable reports.

Exit codes: 0 success / positive verdict, 2 input error, 3 hypothesis
unmet or inconclusive verdict, 1 internal error.

Each command imports the modules it runs, and none needs scipy.  Only the
commands that compute floats (`equilibria`, `reach`, `verify`) load
numpy; `--help`, argparse errors and the exact-algebra commands
(`models`, `analyze`, `bracket`) run on Fractions alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .models import BUILTINS, ModelError, get_builtin, load_model

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_UNMET = 3

# Largest `reach --pieces`.  Synthesis escalates a leg to 4x pieces, and
# its least-squares Jacobian is dense in the 4 * pieces * r control values.
MAX_PIECES = 64

# Largest `equilibria --starts`: each start is one least-squares solve.
MAX_STARTS = 4096

# Largest `verify --paths` times the model dimension: every endpoint is kept (800 MB).
MAX_ENDPOINT_VALUES = 10**8


class InputError(ValueError):
    pass


def _load_spec(args):
    if args.builtin:
        return get_builtin(args.builtin)
    if args.model:
        return load_model(args.model)
    raise InputError("provide --builtin NAME or --model PATH")


def _parse_vector(text: str) -> np.ndarray:
    import numpy as np

    try:
        v = np.array([float(c) for c in text.split(",")])
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from exc
    if not np.all(np.isfinite(v)):
        raise InputError(f"bad vector {text!r}: entries must be finite")
    return v


def _above(kind, low, high=math.inf):
    """argparse type: a finite number of `kind` greater than `low` and at
    most `high`."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > low):
            raise argparse.ArgumentTypeError(
                f"must be a finite number greater than {low}, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _report(command: str, model, inputs: dict, result: dict, t0: float) -> dict:
    return {
        "command": command,
        "schema_version": 1,
        "tool_version": __version__,
        "model": model.name if model else None,
        "model_hash": model.spec_hash() if model else None,
        "inputs": inputs,
        "result": result,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }


def _emit(report: dict, args, summary: str) -> None:
    print(summary)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)


def cmd_analyze(args) -> int:
    from .closure import BasisSelectionError, choose_basis, compute_C

    t0 = time.monotonic()
    model = _load_spec(args)
    cone = compute_C(model, max_rounds=args.max_rounds, combo_budget=args.combo_budget)
    result = cone.to_json()
    try:
        basis = choose_basis(cone)
        result["basis"] = basis.to_json()
        result["k"] = basis.k
        full = True
    except BasisSelectionError as exc:
        result["basis"] = None
        result["basis_failure"] = str(exc)
        full = False
    report = _report("analyze", model, {"max_rounds": args.max_rounds,
                                        "combo_budget": args.combo_budget}, result, t0)
    rank = cone.rank()
    _emit(report, args, (
        f"model {model.name}: cone rank {rank} of {model.d}"
        f" ({len(cone.odd_basis)} two-sided, {len(cone.even_generators)} one-sided"
        f" directions), exhausted={cone.exhausted}"
    ))
    return EXIT_OK if full else EXIT_UNMET


def cmd_equilibria(args) -> int:
    from .equilibria import find_equilibria

    t0 = time.monotonic()
    model = _load_spec(args)
    if args.box:
        bounds = [tuple(_parse_vector(part)) for part in args.box.split(";")]
        if any(len(b) != 2 or not b[0] < b[1] for b in bounds):
            raise InputError(f"bad box {args.box!r}: need lo,hi intervals with lo < hi")
    else:
        bounds = [(-2.0, 2.0)] * model.d
    if len(bounds) != model.d:
        raise InputError(f"box has {len(bounds)} intervals, model dimension is {model.d}")
    points = find_equilibria(model, bounds, n_starts=args.starts, seed=args.seed)
    result = {"equilibria": [p.to_json() for p in points]}
    report = _report("equilibria", model,
                     {"box": bounds, "starts": args.starts, "seed": args.seed},
                     result, t0)
    _emit(report, args, f"found {len(points)} equilibrium point(s)")
    for p in points:
        print(f"  y={p.y.round(6).tolist()} u={p.u.round(6).tolist()}"
              f" residual={p.residual:.2e}")
    return EXIT_OK


def cmd_reach(args) -> int:
    from .closure import BasisSelectionError, choose_basis, compute_C
    from .reach import CertifyOptions, certify, integrate_flow

    t0 = time.monotonic()
    model = _load_spec(args)
    x = _parse_vector(getattr(args, "from"))
    z = _parse_vector(args.to)
    if len(x) != model.d or len(z) != model.d:
        raise InputError(f"endpoints must have dimension {model.d}")
    inputs = {"from": x.tolist(), "to": z.tolist(), "t": args.t,
              "via_equilibrium": args.via_equilibrium, "seed": args.seed,
              "pieces": args.pieces, "max_rounds": args.max_rounds,
              "combo_budget": args.combo_budget}
    cone = compute_C(model, max_rounds=args.max_rounds, combo_budget=args.combo_budget)
    try:
        basis = choose_basis(cone)
    except BasisSelectionError as exc:
        report = _report("reach", model, inputs, {"error": str(exc)}, t0)
        _emit(report, args, f"cone not full-dimensional: {exc}")
        return EXIT_UNMET
    options = CertifyOptions(
        via_equilibrium=args.via_equilibrium, pieces=args.pieces, seed=args.seed,
    )
    cert = certify(model, basis, x, z, args.t, options)
    report = _report("reach", model, inputs, cert.to_json(), t0)
    if cert.verdict == "positive":
        summary = (
            f"verdict positive: terminal error {cert.terminal_error:.3g},"
            f" sigma_min {cert.sigma_min:.3g}, K rank {cert.K_rank},"
            f" ball n={cert.ball_n}"
        )
    else:
        summary = f"verdict inconclusive at stage {cert.stage}: {cert.detail}"
    _emit(report, args, summary)
    if args.dump_trajectory and cert.control is not None:
        flow = integrate_flow(model, x, cert.control, with_jacobian=False)
        with open(args.dump_trajectory, "w") as fh:
            fh.write("s," + ",".join(f"x{i}" for i in range(model.d)) + "\n")
            for s, state in zip(flow.times, flow.states):
                fh.write(f"{s}," + ",".join(f"{v}" for v in state) + "\n")
    return EXIT_OK if cert.verdict == "positive" else EXIT_UNMET


def cmd_verify(args) -> int:
    import numpy as np

    from .montecarlo import SimConfig, density_heatmap, simulate

    t0 = time.monotonic()
    model = _load_spec(args)
    x = _parse_vector(getattr(args, "from"))
    z = _parse_vector(args.to)
    if len(x) != model.d or len(z) != model.d:
        raise InputError(f"endpoints must have dimension {model.d}")
    if args.paths * model.d > MAX_ENDPOINT_VALUES:
        raise InputError(f"--paths x dimension must be at most {MAX_ENDPOINT_VALUES}, got"
                         f" {args.paths} x {model.d}")
    ball = float(model.default_ball_n) if args.ball is None else args.ball
    try:
        cfg = SimConfig.default(
            t=args.t, z=z, n_ball=ball, n_paths=args.paths, seed=args.seed,
            delta=args.delta, dt=args.dt,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.heatmap:
        lo = min(x.min(), z.min()) - 2
        hi = max(x.max(), z.max()) + 2
        edges = np.linspace(lo, hi, 41)
        evidence, counts = density_heatmap(model, x, cfg, (edges, edges))
    else:
        evidence = simulate(model, x, cfg)
    report = _report("verify", model,
                     {"from": x.tolist(), "to": z.tolist(), "t": args.t,
                      "paths": args.paths, "seed": args.seed, "delta": args.delta,
                      "ball": ball, "dt": cfg.dt},
                     evidence.to_json(), t0)
    _emit(report, args, (
        f"{evidence.hits}/{evidence.n_paths} hits"
        f" (99% lower bound {evidence.lower_cb:.3e},"
        f" stopped fraction {evidence.stopped_fraction:.3f})"
    ))
    if args.heatmap:
        np.savetxt(args.heatmap, counts, delimiter=",", fmt="%d")
    return EXIT_OK if evidence.lower_cb > 0 else EXIT_UNMET


def cmd_bracket(args) -> int:
    from .brackets import BracketParseError, parse_bracket, pretty_field

    t0 = time.monotonic()
    model = _load_spec(args)
    try:
        V = parse_bracket(args.expr, model)
    except BracketParseError as exc:
        raise InputError(str(exc)) from exc
    rendered = pretty_field(V, model)
    report = _report("bracket", model, {"expr": args.expr},
                     {"field": rendered, "constant": V.is_constant()}, t0)
    _emit(report, args, f"{args.expr} = {rendered}")
    return EXIT_OK


def cmd_models(args) -> int:
    for name in sorted(BUILTINS):
        spec = BUILTINS[name]()
        print(f"{name}: d={spec.d}, r={spec.r}"
              + (f", params={{{', '.join(f'{k}={v}' for k, v in spec.params.items())}}}"
                 if spec.params else ""))
    return EXIT_OK


def _add_model_args(p):
    p.add_argument("--builtin", help="built-in model name")
    p.add_argument("--model", help="path to a model JSON file")
    p.add_argument("--out", help="write the full JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="Positivity certificates for polynomial-drift SDEs with additive noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute the bracket cone and positivity basis")
    _add_model_args(p)
    p.add_argument("--max-rounds", type=_above(int, 0), default=12)
    p.add_argument("--combo-budget", type=_above(int, -1), default=1)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equilibria", help="search for equilibria of the control family")
    _add_model_args(p)
    p.add_argument("--box", help="semicolon-separated lo,hi intervals per coordinate")
    p.add_argument("--starts", type=_above(int, 0, MAX_STARTS), default=64,
                   help=f"multistart count, 1 to {MAX_STARTS}")
    p.add_argument("--seed", type=_above(int, -1), default=0)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("reach", help="synthesize a control and certify positivity")
    _add_model_args(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--t", type=_above(float, 0), required=True)
    p.add_argument("--via-equilibrium", action="store_true")
    p.add_argument("--pieces", type=_above(int, 1, MAX_PIECES), default=8,
                   help=f"control pieces per leg, 2 to {MAX_PIECES}")
    p.add_argument("--seed", type=_above(int, -1), default=0)
    p.add_argument("--max-rounds", type=_above(int, 0), default=12)
    p.add_argument("--combo-budget", type=_above(int, -1), default=1)
    p.add_argument("--dump-trajectory", help="CSV path for (s, state) rows")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("verify", help="stopped Monte Carlo corroboration")
    _add_model_args(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--t", type=_above(float, 0), required=True)
    p.add_argument("--paths", type=_above(int, 0), default=100_000)
    p.add_argument("--seed", type=_above(int, -1), default=0)
    p.add_argument("--delta", type=_above(float, 0), default=0.25)
    p.add_argument("--ball", type=_above(float, 0), default=None,
                   help="stopping-ball radius (default: the model's default_ball_n)")
    p.add_argument("--dt", type=_above(float, 0), default=None)
    p.add_argument("--heatmap", help="CSV path for the endpoint histogram")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bracket", help="evaluate a bracket expression")
    _add_model_args(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("models", help="list built-in models")
    p.set_defaults(func=cmd_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ModelError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # stable CI contract: crashes exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
