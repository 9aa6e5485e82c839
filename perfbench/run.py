"""conecert benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
./src, never from an installed copy.  Each run sets up the program
three times (once in this process, twice in fresh processes) and
reports the median set-up time, then issues whole passes of the
workload's operations while they fit in --seconds (at least one), and
reports medians over passes.  Every operation's output is checked.
setup_s and run_s are in reference seconds (see speed.py): wall times
rescaled by a fixed reference loop timed next to them, so that the
machine's changes of speed do not read as changes of the program.  The
wall times are reported too (setup_wall_s, run_wall_s).

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1).  The line before it is a detail record with the
environment and every workload metric; the same record, with the op
failures and, for traced runs, the spans, goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json.

A traced run issues one untraced pass first, then installs the timing
wrappers of tracing.py and issues traced passes; trace.overhead_frac is
traced run_s / untraced run_s - 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it, with the"
                        " speed samples taken during it")
    return p.parse_args(argv)


def timed_setup(workload):
    """Import the library and run the workload's set-up; nothing of
    numpy, scipy or conecert may be imported before this is called."""
    t0 = time.perf_counter()
    from workloads import Lib

    lib = Lib()
    workload.setup(lib)
    return lib, time.perf_counter() - t0


def setup_in_fresh_process(name, seed, probe) -> float:
    """Set-up time of a fresh process, less the time of the speed samples
    it took; `probe` adopts those samples."""
    with probe.suspended():
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        )
    child = json.loads(out.stdout.strip().splitlines()[-1])
    probe.adopt(child)
    return child["setup_s"]


def environment(args, ncpu):
    import numpy
    import scipy

    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "conecert"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": ncpu, "blas_threads": ncpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def run_passes(workload, lib, seconds, make_pass):
    from workloads import perf

    passes = []
    t_start = perf()
    while True:
        t0 = perf()
        p = make_pass()
        if p.tracer is not None:
            p.tracer.install()
        try:
            workload.run_pass(lib, p)
        finally:
            if p.tracer is not None:
                p.tracer.uninstall()
        p.wall = perf() - t0
        passes.append(p)
        typical = statistics.median(q.wall for q in passes)
        if perf() - t_start + typical > seconds:
            return passes


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[idx]


def typical_pass_s(passes, probe=None):
    """Time of a typical pass: the sum over its operations of each
    operation's median time over the passes, in reference seconds when
    a probe is given.  Every pass issues the same operations in the same
    order, so the median discounts a slow moment that hit one pass."""
    def times(p):
        if probe is None:
            return [r[1] for r in p.records]
        return [r[1] * probe.scale(r[5], r[6]) for r in p.records]

    return sum(statistics.median(op) for op in zip(*(times(p) for p in passes)))


def workload_metrics(passes, probe):
    """run_s in reference seconds (run_wall_s in wall seconds); other
    per-pass metrics are medians over passes, in wall seconds; latency
    percentiles pool the passes' samples."""
    out = {"run_s": typical_pass_s(passes, probe), "run_wall_s": typical_pass_s(passes)}
    for kind in dict.fromkeys(r[0] for r in passes[0].records):
        out["op_s." + kind] = statistics.median(
            sum(r[1] for r in p.records if r[0] == kind) for p in passes)
    for key in passes[0].metrics:
        vals = [p.metrics[key] for p in passes if key in p.metrics]
        out[key] = statistics.median(vals)
    for key in passes[0].samples:
        pooled = [v for p in passes for v in p.samples[key]]
        out[key + "_p50"] = percentile(pooled, 50)
        out[key + "_p99"] = percentile(pooled, 99)
        out[key + "_count"] = len(pooled)
        out[key + "_beyond_p99"] = sum(v > out[key + "_p99"] for v in pooled)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "conecert")):
        return fail(f"no library sources at {SRC}; run from a conecert checkout")
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        return fail("BENCHMARK.json not found at the checkout root")
    with open(bench_path) as fh:
        bench = json.load(fh)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(ncpu)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = make(args.workload, ROOT, OUT_DIR)
    from speed import SpeedProbe

    probe = SpeedProbe()
    if args.setup_only:
        probe.start()
        paused = probe.paused_s
        lib, setup_s = timed_setup(workload)
        probe.stop()
        print(json.dumps({**probe.report(), "setup_s": setup_s - (probe.paused_s - paused)}))
        return 0
    probe.start()
    try:
        return measure(args, bench, ncpu, workload, probe)
    finally:
        probe.stop()


def measure(args, bench, ncpu, workload, probe) -> int:
    from workloads import Pass

    probe.idle_sample()
    paused, t0 = probe.paused_s, time.perf_counter()
    lib, setup_s = timed_setup(workload)
    setups = [(setup_s - (probe.paused_s - paused), t0, time.perf_counter())]
    if not os.path.abspath(lib.conecert.__file__).startswith(SRC + os.sep):
        return fail(f"imported conecert from {lib.conecert.__file__}, not from {SRC}")
    for _ in range(SETUP_REPEATS - 1):
        probe.idle_sample()
        t0 = time.perf_counter()
        setup_s = setup_in_fresh_process(args.workload, args.seed, probe)
        setups.append((setup_s, t0, time.perf_counter()))
    workload.prepare(lib, args.seed)

    spans = None
    if args.trace:
        from tracing import Tracer

        untraced = run_passes(workload, lib, 0, lambda: Pass(probe))  # one pass
        traced = run_passes(workload, lib, args.seconds, lambda: Pass(probe, Tracer()))
        all_passes = untraced + traced
        metrics = workload_metrics(traced, probe)
        layer = per_layer_metrics(workload, untraced, traced, probe)
        spans = [p.tracer.dump() for p in traced]
        if args.workload == "cli":
            layer["cli.import_s"] = cli_import_s()
    else:
        all_passes = run_passes(workload, lib, args.seconds, lambda: Pass(probe))
        metrics = workload_metrics(all_passes, probe)
        layer = {}

    metrics["setup_s"] = statistics.median(s * probe.scale(a, b) for s, a, b in setups)
    metrics["setup_wall_s"] = statistics.median(s for s, _, _ in setups)
    metrics["speed_scale"] = probe.median_scale()
    metrics["speed_scale_idle"] = probe.median_scale(idle=True)
    metrics["speed_samples"] = len(probe.samples)
    metrics["speed_samples_dropped"] = probe.dropped
    if args.workload == "cli":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    metrics["passes"] = len(all_passes)

    records = [r for p in all_passes for r in p.records]
    known = load_known_defects()
    failures = [r for r in records if not r[2]]
    unexpected = [r for r in failures if r[3] not in known]
    metrics["ops_failed_frac"] = len(failures) / len(records)
    by_defect = {}
    for r in failures:
        by_defect[r[3] or "unexpected"] = by_defect.get(r[3] or "unexpected", 0) + 1

    detail = {
        "environment": environment(args, ncpu),
        "metrics": metrics,
        "per_layer": layer,
        "failed_by_defect": by_defect,
        "unexpected_failures": [{"op": r[0], "detail": r[4]} for r in unexpected[:50]],
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**detail, "spans": spans}, fh, default=float)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layer if args.trace else metrics
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        return fail(f"metrics not produced: {missing}")
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print("perfbench detail " + json.dumps(detail, default=float))
    print(json.dumps(result))
    return 0


def per_layer_metrics(workload, untraced, traced, probe):
    """Medians over the traced passes of the tracer's layer metrics, with
    the trace accounting: layer self time plus the operations' own time
    outside any layer is the pass's run_s, plus the speed samples taken
    during it.  cli.* read 0 outside the cli workload."""
    from workloads import CLI_COMMANDS

    out = {}
    for p in traced:
        vals = p.tracer.per_layer()
        if workload.name == "cli":  # the layers are the CLI commands
            commands = {k: v for k, v in p.metrics.items() if k.startswith("cli.command_s.")}
            vals.update(commands)
            layer_self = sum(commands.values())
            unattributed = p.run_s - layer_self
        else:
            layer_self = p.tracer.layer_self_s()
            unattributed = p.tracer.op_self_s()
        vals["trace.run_s"] = p.run_s
        vals["trace.layer_self_s"] = layer_self
        vals["trace.unattributed_s"] = unattributed
        # share of the operations' traced time spent inside wrapped layers
        vals["trace.layer_frac"] = layer_self / (layer_self + unattributed)
        for k, v in vals.items():
            out.setdefault(k, []).append(v)
    out = {k: statistics.median(v) for k, v in out.items()}
    out["trace.untraced_run_s"] = untraced[0].run_s
    # in reference seconds, so that a change of machine speed between
    # the two passes is not taken for overhead
    out["trace.overhead_frac"] = (typical_pass_s(traced, probe)
                                  / typical_pass_s(untraced, probe) - 1.0)
    out["models.build_s"] = workload.build_s
    for key in ("cli.import_s",) + tuple("cli.command_s." + n for n in CLI_COMMANDS):
        out.setdefault(key, 0.0)
    return out


def cli_import_s() -> float:
    """Cumulative import time of conecert.cli from -X importtime, in s."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import conecert.cli"],
                         capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    for line in out.stderr.splitlines():
        parts = [s.strip() for s in line.split("|")]
        if len(parts) == 3 and parts[2] == "conecert.cli":
            return int(parts[1]) / 1e6
    raise RuntimeError("conecert.cli missing from -X importtime output")


def load_known_defects():
    from checks import load_pins

    return set(load_pins()["known_defects"])


if __name__ == "__main__":
    sys.exit(main())
