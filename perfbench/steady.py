#!/usr/bin/env python3
"""Steadiness harness for the repo benchmark.

    python3 perfbench/steady.py [--sets 1|2]

Runs every workload of BENCHMARK.json ten times, for its run_seconds, with
a different seed each round, alternating the workload order from round to
round (A B C, C B A, ...), the way two commits are compared. For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), max/min and the interquartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json. The
benchmark is steady when every spread, setup_s included, stays inside its
bound (aim: below a third of it).

With --sets 2 the whole schedule runs twice (same seeds) and the second
set's medians are compared with the first's: no metric may be worse by more
than its bound.

The four figures the earlier, rejected benchmark failed on are printed next
to their equivalents here:
    loop_sweep/ops_per_s   -> loop_extract/ops_per_s
    loop_sweep/op_p50_ms   -> loop_extract/op_p50_ms
    serve_mix/setup_s      -> serve_mix/setup_s
    peec_flows/setup_s     -> clock_flows/setup_s

Each run's full output is kept under <build dir>/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 10
SEED_BASE = 100
EARLIER_PAIRS = [
    ("loop_sweep/ops_per_s", "loop_extract", "ops_per_s"),
    ("loop_sweep/op_p50_ms", "loop_extract", "op_p50_ms"),
    ("serve_mix/setup_s", "serve_mix", "setup_s"),
    ("peec_flows/setup_s", "clock_flows", "setup_s"),
]


def run_once(spec, workload, seed, seconds, log_dir):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    with open(os.path.join(log_dir, f"{workload}-{seed}.out"), "w") as f:
        f.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, first, second):
    """Relative worsening of `second` over `first` (negative = better)."""
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (second - first) / first


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    log_dir = os.path.join(bdir if os.path.isabs(bdir) else
                           os.path.join(ROOT, bdir), "steady")
    os.makedirs(log_dir, exist_ok=True)

    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for r in range(ROUNDS):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                runs[w].append(run_once(spec, w, SEED_BASE + r, seconds,
                                        log_dir))
                print(f"set {s + 1} round {r + 1}/{ROUNDS} {w}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in runs[w][-1].items()),
                      flush=True)
        sets.append({w: {m: summarise([run[m] for run in runs[w]])
                         for m in metrics} for w in workloads})

    ok = True
    for s, summary in enumerate(sets):
        print(f"\nset {s + 1}: {ROUNDS} seeds per workload, "
              f"{seconds} s per run")
        print(f"{'workload':13} {'metric':12} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'max/min':>8} {'spread':>7} {'bound':>6}")
        for w in workloads:
            for m, st in summary[w].items():
                bound = metrics[m]["bound"]
                flag = ""
                if st["spread"] > bound:
                    flag, ok = "  OVER BOUND", False
                elif st["spread"] > bound / 3:
                    flag = "  over bound/3"
                print(f"{w:13} {m:12} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g} {st['max'] / st['min']:8.3f} "
                      f"{st['spread']:7.2%} {bound:6.0%}{flag}")
    if len(sets) == 2:
        print("\nsecond set against first (positive = worse)")
        for w in workloads:
            for m in metrics:
                d = worse_by(metrics[m], sets[0][w][m]["median"],
                             sets[1][w][m]["median"])
                flag = ""
                if d > metrics[m]["bound"]:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"{w:13} {m:12} {d:+8.2%} (bound "
                      f"{metrics[m]['bound']:.0%}){flag}")

    print("\nfigures the earlier benchmark failed on, and their equivalents:")
    for old, w, m in EARLIER_PAIRS:
        if w in sets[0]:
            st = sets[0][w][m]
            print(f"  {old:22} -> {w}/{m}: median {st['median']:.6g}, "
                  f"spread {st['spread']:.2%}, "
                  f"bound {metrics[m]['bound']:.0%}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
