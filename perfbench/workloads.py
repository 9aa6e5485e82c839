"""The four benchmark workloads.

Each workload is a closed loop: one client issues one operation at a
time from this process (or, for `cli`, one fresh CLI process at a
time).  `setup` is the program's own set-up (import, model build, basis
set-up) and is what setup_s times; `prepare` generates the inputs from
the seed and precomputes the expected answers; `run_pass` issues every
operation once, times each call, then checks its output outside the
timed region.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import types

from checks import (
    ExactMembership,
    exact_rank,
    load_pins,
    membership_check,
    recheck_certificate,
)

perf = time.perf_counter


class Lib:
    """The library's modules, looked up through their attributes at call
    time so the tracer's patches apply."""

    def __init__(self):
        import conecert  # imports every module of the package

        self.conecert = conecert
        self.closure = conecert.closure
        self.models = conecert.models
        self.montecarlo = conecert.montecarlo
        self.reach = conecert.reach


class Pass:
    """Records of one pass: (kind, seconds, ok, defect tag, detail, t0, t1)."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.records: list[tuple] = []
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.wall = 0.0
        self._n = 0
        self._span = None  # (first start, last end) of calls not yet recorded

    def call(self, kind, fn, *args, **kwargs):
        """Time one operation; returns (output, exception, seconds)."""
        self._n += 1
        cm = self.tracer.op(kind, self._n) if self.tracer else contextlib.nullcontext()
        out = exc = None
        self.probe.idle_sample()
        paused = self.probe.paused_s
        with cm:
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:  # the check decides whether it was expected
                exc = e
            t1 = perf()
        self._span = (t0 if self._span is None else self._span[0], t1)
        paused = self.probe.paused_s - paused  # timer samples during the call
        self.probe.idle_sample()
        return out, exc, t1 - t0 - paused

    def record(self, kind, seconds, ok, defect=None, detail=None):
        t0, t1 = self._span if self._span is not None else (perf(), perf())
        self._span = None
        self.records.append((kind, seconds, bool(ok), defect, detail, t0, t1))

    @property
    def run_s(self) -> float:
        return sum(r[1] for r in self.records)

    def seconds_of(self, prefix) -> float:
        return sum(r[1] for r in self.records if r[0].startswith(prefix))


def _jitter(rng, base, width=0.005):
    import numpy as np

    base = np.asarray(base, dtype=float)
    return base + rng.uniform(-width, width, base.shape)


def _describe(exc):
    return f"{type(exc).__name__}: {exc}" if exc is not None else None


# ---------------------------------------------------------------------------


class SmallCertify:
    name = "small_certify"
    models_used = ("langevin", "langevin2d", "bhw", "nonexample3d")

    def setup(self, lib):
        t0 = perf()
        self.models = {n: lib.models.get_builtin(n) for n in self.models_used}
        self.build_s = perf() - t0
        self.bases = {
            n: lib.closure.choose_basis(lib.closure.compute_C(self.models[n]))
            for n in ("langevin", "langevin2d", "bhw")
        }

    def prepare(self, lib, seed):
        import numpy as np

        rng = np.random.default_rng([seed, 1])
        R = lib.reach
        opts = dict(seed=0, n_steps=200, pieces=4)
        self.queries = [
            # (name, model, x, z, t, options, expectation)
            ("langevin", "langevin", _jitter(rng, [0, 0]), _jitter(rng, [1, 0]),
             1.0, R.CertifyOptions(**opts), "positive"),
            ("langevin2d", "langevin2d", _jitter(rng, [0, 0, 0, 0]),
             _jitter(rng, [0.5, 0, 0.5, 0]), 1.0, R.CertifyOptions(**opts), "positive"),
            ("bhw", "bhw", _jitter(rng, [0, 0]), _jitter(rng, [1, 0.5]),
             1.0, R.CertifyOptions(**opts), "positive"),
            ("bhw_eq", "bhw", _jitter(rng, [0, 0]), _jitter(rng, [2, 1]),
             1.0, R.CertifyOptions(via_equilibrium=True, **opts), "positive"),
            ("bhw_out", "bhw", _jitter(rng, [0, 0]), _jitter(rng, [-1, 0.3]),
             1.0, R.CertifyOptions(**opts), "refused"),
            ("bhw_out_eq", "bhw", _jitter(rng, [0, 0]), _jitter(rng, [-1, 0.3]),
             1.0, R.CertifyOptions(via_equilibrium=True, **opts), "refused"),
        ]
        self.verified = {}
        self.oracles = {n: ExactMembership(b.vectors, b.k) for n, b in self.bases.items()}
        for name, model, x, z, _, _, expect in self.queries:
            inside, _ = self.oracles[model].member(x, z)
            if inside != (expect == "positive"):
                raise RuntimeError(f"generated query {name} is on the wrong side of the region")

        # 4000 membership queries (>= 1000, so that p99 has ten samples
        # beyond it): shares per basis, 5% within the library's strictness
        # margin of the one-sided boundary (half inside)
        plan = [("langevin", 1200), ("langevin2d", 1000), ("bhw", 1600), ("bhw_near", 200)]
        self.membership = []
        for name, count in plan:
            basis = self.bases["bhw" if name == "bhw_near" else name]
            B = basis.matrix()
            d = basis.dim
            for i in range(count):
                x = rng.normal(size=d)
                if name == "bhw_near":
                    c = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), 0.0])
                    sign = 1.0 if i < count // 2 else -1.0
                    c[1] = sign * rng.uniform(0.05, 0.9) * 1e-9 * abs(c[0])
                    z = x + B @ c
                else:
                    z = x + rng.normal(size=d)
                self.membership.append((name, basis, x, z))
        order = rng.permutation(len(self.membership))
        self.membership = [self.membership[i] for i in order]

    def run_pass(self, lib, p: Pass):
        C = lib.closure
        # closure goldens (acceptance criterion 2)
        for name in self.models_used:
            cone, exc, dt = p.call("closure", C.compute_C, self.models[name])
            problems = _criterion2_problems(name, cone, exc)
            if name == "nonexample3d" and not problems:
                _, exc, dt2 = p.call("choose_basis", C.choose_basis, cone)
                dt += dt2
                if not isinstance(exc, C.BasisSelectionError):
                    problems.append(f"choose_basis did not refuse: {_describe(exc)}")
            p.record("closure:" + name, dt, not problems, None, "; ".join(problems) or None)

        positives = in_region = 0
        for name, model_name, x, z, t, options, expect in self.queries:
            model = self.models[model_name]
            cert, exc, dt = p.call("certify", lib.reach.certify, model,
                                   self.bases[model_name], x, z, t, options)
            problems = []
            if exc is not None:
                problems.append(_describe(exc))
            elif expect == "positive":
                in_region += 1
                if cert.verdict == "positive":
                    positives += 1
                    # passes repeat the inputs: re-check a certificate the
                    # first time it is seen, then require the same one
                    key = (cert.terminal_error, cert.sigma_min, cert.K_rank,
                           cert.control.values.tobytes())
                    if self.verified.get(name) != key:
                        problems += recheck_certificate(lib, model, cert, x, z)
                        if not problems:
                            self.verified[name] = key
                else:
                    problems.append(f"inconclusive at {cert.stage}: {cert.detail}")
            elif not (cert.verdict == "inconclusive" and cert.stage == "membership"):
                problems.append(f"not refused at membership: {cert.verdict}/{cert.stage}")
            p.record("certify:" + name, dt, not problems, None, "; ".join(problems) or None)
        p.metrics["certify_s"] = p.seconds_of("certify:")
        p.metrics["decided_frac"] = positives / in_region if in_region else 0.0

        lat = []
        for name, basis, x, z in self.membership:
            out, exc, dt = p.call("membership", C.d_membership, basis, x, z)
            lat.append(dt * 1e6)
            if exc is not None:
                p.record("membership", dt, False, None, _describe(exc))
                continue
            ok, defect = membership_check(self.oracles["bhw" if name == "bhw_near" else name],
                                          x, z, out[0])
            p.record("membership", dt, ok, defect, None if ok else f"{name}: got {out[0]}")
        p.samples["membership_us"] = lat


def _criterion2_problems(name, cone, exc):
    from fractions import Fraction as F

    if exc is not None:
        return [_describe(exc)]
    got_odd = [cf.value for cf in cone.odd_basis]
    got_even = [cf.value for cf in cone.even_generators]
    want = {
        "langevin": (2, None, []),
        "langevin2d": (4, None, []),
        "bhw": (2, [(F(0), F(1))], [(F(1), F(0))]),
        "nonexample3d": (2, [(F(1), F(0), F(0))], [(F(0), F(1), F(0))]),
    }[name]
    problems = []
    if exact_rank(got_odd + got_even) != want[0]:
        problems.append(f"cone rank != {want[0]}")
    if want[1] is not None and got_odd != want[1]:
        problems.append(f"odd basis {got_odd}")
    if got_even != want[2]:
        problems.append(f"even generators {got_even}")
    return problems


# ---------------------------------------------------------------------------


MC_CONFIGS = {
    # name: (model, target, stopping-ball radius); free = criterion 7's
    # configuration, stop = ball just above |z| + delta
    "langevin_free": ("langevin", [1.0, 0.0], 10.0),
    "langevin_stop": ("langevin", [1.0, 0.0], 1.3),
    "langevin2d_free": ("langevin2d", [1.0, 0.0, 0.0, 0.0], 10.0),
    "langevin2d_stop": ("langevin2d", [1.0, 0.0, 0.0, 0.0], 1.3),
}
MC_PATHS = 2048  # half of one simulator chunk
# Monte Carlo inputs are pinned for N_PIN_SEEDS simulator seeds; a run
# with --seed s uses simulator seed s mod N_PIN_SEEDS.  Seeds 0-9 are
# for development (selfcheck's default); seeds with s mod 20 in 10-19
# are held out for confirming a claim on inputs the change never saw.
N_PIN_SEEDS = 20


def mc_config(lib, name, sim_seed):
    import numpy as np

    _, z, ball = MC_CONFIGS[name]
    return lib.montecarlo.SimConfig.default(
        t=1.0, z=np.array(z), n_ball=ball, n_paths=MC_PATHS, seed=sim_seed, delta=0.25)


def burgers_mc_config(lib, sim_seed):
    import numpy as np

    return lib.montecarlo.SimConfig(t=0.05, dt=0.0005, n_ball=50.0, n_paths=64,
                                    seed=sim_seed, z=np.zeros(96), delta=1.0)


def _mc_problems(ev, exc, pin):
    if exc is not None:
        return [_describe(exc)]
    got = {"hits": ev.hits, "stopped_fraction": ev.stopped_fraction,
           "nonfinite_paths": ev.nonfinite_paths}
    return [f"{k}={got[k]!r}, pinned {pin[k]!r}" for k in pin if got[k] != pin[k]]


class SmallMonteCarlo:
    name = "small_montecarlo"

    def setup(self, lib):
        t0 = perf()
        self.models = {n: lib.models.get_builtin(n) for n in ("langevin", "langevin2d")}
        self.build_s = perf() - t0

    def prepare(self, lib, seed):
        import numpy as np

        pins = load_pins()["montecarlo"]
        self.ops = []
        sim_seed = seed % N_PIN_SEEDS
        for name in MC_CONFIGS:
            model = self.models[MC_CONFIGS[name][0]]
            self.ops.append((name, model, np.zeros(model.d), mc_config(lib, name, sim_seed),
                             pins[name][str(sim_seed)]))

    def run_pass(self, lib, p: Pass):
        work = {"free": [0, 0.0], "stop": [0, 0.0]}
        for name, model, x, cfg, pin in self.ops:
            ev, exc, dt = p.call("simulate", lib.montecarlo.simulate, model, x, cfg)
            problems = _mc_problems(ev, exc, pin)
            p.record("simulate:" + name, dt, not problems, None, "; ".join(problems) or None)
            w = work[name.rsplit("_", 1)[1]]
            w[0] += cfg.n_paths * int(round(cfg.t / cfg.dt))
            w[1] += dt
        p.metrics["mc_path_steps_per_s"] = work["free"][0] / work["free"][1]
        p.metrics["mc_stopped_path_steps_per_s"] = work["stop"][0] / work["stop"][1]


# ---------------------------------------------------------------------------


class Burgers:
    name = "burgers"
    closure_rounds = 3  # rank reaches 96 at round 3
    n_membership = 1100  # >= 1000 so that p99 has at least ten samples beyond it
    flow_steps = 8

    def setup(self, lib):
        t0 = perf()
        self.model = lib.models.get_builtin("burgers")
        self.build_s = perf() - t0

    def prepare(self, lib, seed):
        import numpy as np

        rng = np.random.default_rng([seed, 3])
        d, r = self.model.d, self.model.r
        self.membership = []
        for _ in range(self.n_membership):
            x = rng.normal(scale=0.5, size=d)
            self.membership.append((x, x + rng.normal(size=d)))
        self.flow_x = rng.normal(scale=0.1, size=d)
        self.flow_control = lib.reach.ControlPath.uniform(
            0.05, rng.normal(scale=0.5, size=(2, r)))
        sim_seed = seed % N_PIN_SEEDS
        self.mc_cfg = burgers_mc_config(lib, sim_seed)
        self.mc_pin = load_pins()["burgers_montecarlo"][str(sim_seed)]
        self.oracle = None
        self.oracle_key = None
        self.flow_verified = None

    def run_pass(self, lib, p: Pass):
        import numpy as np

        C, R = lib.closure, lib.reach
        m = self.model
        cone, exc, dt = p.call("closure", C.compute_C, m, max_rounds=self.closure_rounds,
                               combo_budget=0)
        problems = [_describe(exc)] if exc is not None else []
        if cone is not None:
            if cone.even_generators:
                problems.append("even generators found; every direction should be two-sided")
            if any(cf.parity not in ("seed", "odd") for cf in cone.odd_basis):
                problems.append("odd basis holds a direction of another parity")
            # rank 96 puts the shell-1 tilde units (criterion 3) in the span
            if exact_rank([cf.value for cf in cone.odd_basis]) != m.d:
                problems.append("cone rank below 96")
        p.record("closure:burgers", dt, not problems, None, "; ".join(problems) or None)
        p.metrics["closure_s"] = dt

        basis, exc, dt = p.call("choose_basis", C.choose_basis, cone)
        p.record("choose_basis:burgers", dt, exc is None, None, _describe(exc))
        if basis is None:
            return
        key = (basis.k, tuple(basis.vectors))
        if key != self.oracle_key:
            self.oracle, self.oracle_key = ExactMembership(basis.vectors, basis.k), key

        lat = []
        for x, z in self.membership:
            out, exc, dt = p.call("membership", C.d_membership, basis, x, z)
            lat.append(dt * 1e6)
            if exc is not None:
                p.record("membership", dt, False, None, _describe(exc))
                continue
            ok, defect = membership_check(self.oracle, x, z, out[0])
            p.record("membership", dt, ok, defect, None if ok else f"got {out[0]}")
        p.samples["membership_us"] = lat

        def flow_check():
            flow = R.integrate_flow(m, self.flow_x, self.flow_control,
                                    n_steps=self.flow_steps, with_jacobian=True)
            M, sigma = R.gramian(flow, m)
            return flow, M, sigma, R.gramian_threshold(M), R.k_rank(flow, m)

        out, exc, dt = p.call("gramian_check", flow_check)
        problems = [_describe(exc)] if exc is not None else []
        if out is not None:
            flow, M, sigma, thr, rank = out
            key = (flow.terminal.tobytes(), M.tobytes(), rank)
            if key != self.flow_verified:
                plain = R.integrate_flow(m, self.flow_x, self.flow_control,
                                         n_steps=self.flow_steps, with_jacobian=False)
                scale = 1.0 + float(np.linalg.norm(plain.terminal))
                if not np.all(np.isfinite(M)) or np.max(np.abs(M - M.T)) > 1e-12 * (1 + np.max(np.abs(M))):
                    problems.append("Gramian not finite and symmetric")
                if np.linalg.norm(flow.terminal - plain.terminal) > 1e-12 * scale:
                    problems.append("state differs between joint and plain integration")
                if not 0 <= rank <= m.d:
                    problems.append(f"k_rank {rank} out of range")
                if not problems:
                    self.flow_verified = key
            # reported, not gated: rank and Gramian disagree on burgers today
            p.metrics["burgers_sigma_min"] = sigma
            p.metrics["burgers_gramian_threshold"] = thr
            p.metrics["burgers_k_rank"] = rank
        p.record("gramian_check:burgers", dt, not problems, None, "; ".join(problems) or None)
        p.metrics["gramian_check_s"] = dt

        cfg = self.mc_cfg
        ev, exc, dt = p.call("simulate", lib.montecarlo.simulate, m, np.zeros(m.d), cfg)
        problems = _mc_problems(ev, exc, self.mc_pin)
        p.record("simulate:burgers", dt, not problems, None, "; ".join(problems) or None)
        p.metrics["mc_path_steps_per_s"] = cfg.n_paths * int(round(cfg.t / cfg.dt)) / dt


# ---------------------------------------------------------------------------


CLI_TIMEOUT_S = 150
# runs `python -m conecert.cli` with a speed probe in the CLI process
PROBED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probed_cli.py")
CLI_COMMANDS = ("models", "analyze", "reach", "verify", "bracket", "bad_max_rounds", "bad_t")


class Cli:
    name = "cli"
    startup_commands = ("bracket", "bad_max_rounds", "bad_t")

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir

    def setup(self, lib):
        t0 = perf()
        self.models = {n: lib.models.get_builtin(n) for n in sorted(lib.models.BUILTINS)}
        self.build_s = perf() - t0

    def prepare(self, lib, seed):
        import numpy as np

        rng = np.random.default_rng([seed, 4])
        self.reach_x = _jitter(rng, [0, 0])
        self.reach_z = _jitter(rng, [1, 0])
        self.sim_seed = seed % N_PIN_SEEDS
        self.verify_pin = load_pins()["montecarlo"]["langevin_free"][str(self.sim_seed)]
        fmt = lambda v: ",".join(repr(float(c)) for c in v)  # noqa: E731
        out = lambda name: os.path.join(self.out_dir, f"cli_{name}.json")  # noqa: E731
        self.out = out
        self.commands = [
            ("models", ["models"]),
            ("analyze", ["analyze", "--builtin", "bhw", "--out", out("analyze")]),
            # "--opt=value": a seeded endpoint may start with a minus sign
            ("reach", ["reach", "--builtin", "langevin", "--from=" + fmt(self.reach_x),
                       "--to=" + fmt(self.reach_z), "--t", "1", "--pieces", "4",
                       "--out", out("reach")]),
            ("verify", ["verify", "--builtin", "langevin", "--from", "0,0", "--to", "1,0",
                        "--t", "1", "--paths", str(MC_PATHS), "--seed", str(self.sim_seed),
                        "--out", out("verify")]),
            ("bracket", ["bracket", "--builtin", "bhw", "--expr", "ad^2(X1)(X0)"]),
            # malformed inputs; documented exit code 2
            ("bad_max_rounds", ["analyze", "--builtin", "bhw", "--max-rounds", "0"]),
            ("bad_t", ["reach", "--builtin", "langevin", "--from", "0,0", "--to", "1,0",
                       "--t", "-1"]),
        ]
        assert tuple(name for name, _ in self.commands) == CLI_COMMANDS
        self.peak_rss_kb = 0

    def _spawn(self, argv, so, se):
        """Run one CLI process to completion; returns its exit code."""
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=self.root)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run_pass(self, lib, p: Pass):
        times = {}
        samples_path = os.path.join(self.out_dir, "cli_speed_samples.json")
        for name, args in self.commands:
            for path in (self.out(name), samples_path):
                if os.path.exists(path):
                    os.remove(path)
            argv = [sys.executable, PROBED_CLI, samples_path, *args]
            so_path = os.path.join(self.out_dir, f"cli_{name}.stdout")
            se_path = os.path.join(self.out_dir, f"cli_{name}.stderr")
            with open(so_path, "w") as so, open(se_path, "w") as se, p.probe.suspended():
                rc, exc, dt = p.call("cli", self._spawn, argv, so, se)
            if exc is not None:
                raise exc
            with open(samples_path) as fh:
                dt -= p.probe.adopt(json.load(fh))
            with open(so_path) as fh:
                stdout = fh.read()
            with open(se_path) as fh:
                stderr = fh.read()
            times[name] = dt
            problems, defect = self._check(lib, name, rc, stdout, stderr)
            p.record("cli:" + name, dt, not problems, defect, "; ".join(problems) or None)
        p.metrics["cli_s"] = sum(times.values())
        p.metrics["cli_startup_s"] = statistics.median(times[n] for n in self.startup_commands)
        for name, dt in times.items():
            p.metrics["cli.command_s." + name] = dt

    def _check(self, lib, name, rc, stdout, stderr):
        import numpy as np

        if name in ("bad_max_rounds", "bad_t"):
            if rc == 2:
                return [], None
            if rc == 1 and "internal error" in stderr:
                return [f"exit code 1, documented 2 ({stderr.strip()})"], f"cli_{name}_exit_1"
            return [f"exit code {rc}, documented 2"], None
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-300:]}"], None
        if name == "models":
            want = {n: f"{n}: d={m.d}, r={m.r}" for n, m in self.models.items()}
            lines = stdout.strip().splitlines()
            bad = [n for n in want if not any(line.startswith(want[n]) for line in lines)]
            return ([f"models listing wrong for {bad}"] if bad else []), None
        if name == "bracket":
            ok = stdout.strip().endswith("ad^2(X1)(X0) = (2, 0)")
            return ([] if ok else [f"bracket printed {stdout.strip()!r}"]), None
        with open(self.out(name)) as fh:
            result = json.load(fh)["result"]
        if name == "analyze":
            ok = (result["odd_basis"] == [["0", "1"]] and result["even_generators"] == [["1", "0"]]
                  and result["k"] == 1)
            return ([] if ok else ["bhw cone golden mismatch"]), None
        if name == "verify":
            got = {k: result[k] for k in self.verify_pin}
            bad = [f"{k}={got[k]!r}, pinned {v!r}" for k, v in self.verify_pin.items() if got[k] != v]
            return bad, None
        if name == "reach":
            if result["verdict"] != "positive":
                return [f"inconclusive at {result['stage']}: {result['detail']}"], None
            c = result["control"]
            control = lib.reach.ControlPath(c["horizon"], np.array(c["breakpoints"]),
                                            np.array(c["values"]))
            cert = types.SimpleNamespace(control=control, sigma_min=result["sigma_min"],
                                         K_rank=result["K_rank"])
            model = self.models["langevin"]
            return recheck_certificate(lib, model, cert, self.reach_x, self.reach_z), None
        return [f"no check for {name}"], None


def make(name, root, out_dir):
    if name == "cli":
        return Cli(root, out_dir)
    return {"small_certify": SmallCertify, "small_montecarlo": SmallMonteCarlo,
            "burgers": Burgers}[name]()


WORKLOADS = ("small_certify", "small_montecarlo", "burgers", "cli")
