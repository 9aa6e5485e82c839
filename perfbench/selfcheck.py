"""Steadiness self-check: run the benchmark in sets on one commit and
compare the sets.

    python3 perfbench/selfcheck.py [--first-seed N] [--report-only]

Runs SETS sets; each set runs every workload of BENCHMARK.json once per
seed, on SEEDS seeds from --first-seed (0; 10 for the held-out seeds),
one run after another, with BENCHMARK.json's run_seconds.  Each
invocation starts a fresh log, .perfbench_out/selfcheck.jsonl, and
appends every run's result and detail lines to it, so an interrupted
check can be reported with --report-only.  For each workload and end-to-end metric
the report gives each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, whether the
spread is within the metric's bound and below a third of it, and
whether each later set's median differs from the first set's by no
more than the bound, either way.  The spread of setup_s is reported
but not gated: set-up time reads the file cache as well as the CPU,
and BENCHMARK.json gates it on its median only.  A run is also flagged
when its run_s / run_wall_s, the speed scale applied to its operations,
differs from speed_scale_idle, that of the samples taken while nothing
of the program ran, by more than run_s's bound: the program would then
be moving its own reference.  Workload metrics without a bound
(certify_s, closure_s, ...) are listed for information.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".perfbench_out", "selfcheck.jsonl")
SEEDS = 10  # per set, as the benchmark's acceptance runs use
SETS = 2


def run_one(bench, workload, seed, trace=0):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "exit": out.returncode, "wall": wall,
                "stderr": out.stderr[-2000:]}
    detail = next((json.loads(line[len("perfbench detail "):]) for line in lines
                   if line.startswith("perfbench detail ")), {})
    return {"workload": workload, "seed": seed, "exit": 0, "wall": wall,
            "result": json.loads(lines[-1]), "detail": detail.get("metrics", {})}


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


def worse_by(first, later, better):
    """Relative worsening of `later` against `first` (negative = better)."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def scale_mismatch(row):
    """|(run_s / run_wall_s) / speed_scale_idle - 1| of one run."""
    m = row["detail"]
    return abs(m["run_s"] / m["run_wall_s"] / m["speed_scale_idle"] - 1.0)


def report(bench, rows) -> bool:
    ok_all = True
    run_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "run_s")
    sets = sorted({r["set"] for r in rows})
    for wl in [w["name"] for w in bench["workloads"]]:
        wl_rows = [r for r in rows if r["workload"] == wl]
        if not wl_rows:
            continue
        bad = [r for r in wl_rows if r["exit"] != 0 or not r["result"]["correct"]]
        print(f"\n== {wl}: {len(wl_rows)} runs, {len(bad)} failed or incorrect,"
              f" mean wall {statistics.mean(r['wall'] for r in wl_rows):.1f} s")
        ok_all &= not bad
        good = [r for r in wl_rows if r not in bad]
        for r in good:
            if scale_mismatch(r) > run_bound:
                ok_all = False
                print(f"  set {r['set']} seed {r['seed']}: run_s/run_wall_s differs from"
                      f" speed_scale_idle by {scale_mismatch(r):.3f} > {run_bound}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in good if r["set"] == s]
                if vals:
                    per_set.append((s, summarize(vals), len(vals)))
            if not per_set:
                continue
            first_med = per_set[0][1][0]
            for s, (med, q1, q3, spread), n in per_set:
                spread_ok = name == "setup_s" or spread <= bound  # see the docstring
                third = spread <= bound / 3
                drift = worse_by(first_med, med, m["better"])
                agree = abs(drift) <= bound
                ok_all &= spread_ok and agree
                print(f"  {name:<12} set {s}: n={n} median={med:.6g} q1={q1:.6g} q3={q3:.6g}"
                      f" spread={spread:.3f} bound={bound} spread_ok={spread_ok}"
                      f" below_third={third} worse_than_set{sets[0]}={drift:+.3f} agree={agree}")
        extra = sorted({k for r in good for k, v in r["detail"].items()
                        if isinstance(v, (int, float)) and not isinstance(v, bool)}
                       - {m["name"] for m in bench["end_to_end"]})
        for key in extra:
            for s in sets:
                vals = [r["detail"][key] for r in good if r["set"] == s and key in r["detail"]]
                if vals:
                    med, q1, q3, spread = summarize(vals)
                    print(f"  {key:<28} set {s}: median={med:.6g} q1={q1:.6g} q3={q3:.6g}"
                          f" spread={spread:.3f} (no bound)")
    print("\nsteady" if ok_all else "\nNOT steady (see above)")
    return ok_all


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--report-only", action="store_true",
                   help="report the log of the last invocation without running")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if not args.report_only:
        os.makedirs(os.path.dirname(LOG), exist_ok=True)
        open(LOG, "w").close()
        for s in range(1, SETS + 1):
            for wl in [w["name"] for w in bench["workloads"]]:
                for seed in range(args.first_seed, args.first_seed + SEEDS):
                    row = {"set": s, **run_one(bench, wl, seed)}
                    with open(LOG, "a") as fh:
                        fh.write(json.dumps(row) + "\n")
                    metrics = row.get("result", {}).get("metrics", {})
                    print(f"set {s} {wl} seed {seed}: exit {row['exit']} wall {row['wall']:.1f}s "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                          flush=True)
    with open(LOG) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return 0 if report(bench, rows) else 1


if __name__ == "__main__":
    sys.exit(main())
