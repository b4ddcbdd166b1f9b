#!/usr/bin/env python3
"""Perf-regression guard for BENCH_*.json files.

Two complementary gates:

1. Aggregate gate (positional `baseline`): compares the summed wall time of
   every guarded timer in a fresh bench report against a committed baseline
   report and fails (exit 1) when the current total exceeds the baseline by
   more than --max-ratio. Solver work is what this repo's PRs optimise; the
   other phases (extract/assemble) are guarded indirectly through the
   wall-clock numbers tracked per PR.

2. Per-timer manifest gate (--manifest): a JSON manifest maps each bench
   name (the report's top-level "bench" field) to learned per-timer
   baselines. Every guarded timer is gated individually, so a regression in
   one stage (say fast.precond_factor) cannot hide behind an improvement in
   another. A manifest timer the run does not report fails too. Re-learn
   after an intentional perf change with --learn, which rewrites the
   manifest entry from the current report and exits.

Guarded timers: factor.*, solve.* (including solve.mqs_port) and fast.*.

Usage:
    python3 tools/perf_guard.py BENCH_table1_clocknet.json \
        BENCH_baseline.json --max-ratio 1.25
    python3 tools/perf_guard.py BENCH_fft.json \
        --manifest tools/perf_baselines.json --max-timer-ratio 2.0
    python3 tools/perf_guard.py BENCH_fft.json \
        --manifest tools/perf_baselines.json --learn
    python3 tools/perf_guard.py BENCH_serve_worker.json \
        --worker-inproc BENCH_serve_inproc.json \
        --manifest tools/perf_baselines.json

The last form gates process-isolation (IND_SERVE_WORKERS) IPC overhead:
worker-mode p99 must stay within the manifest's "worker" budget of the same
workload served in-process.
"""

import argparse
import json
import sys

GUARDED_PREFIXES = ("factor.", "solve.", "fast.")


def guarded_timers_ms(metrics):
    timers = metrics.get("timers", {})
    return {
        name: stat["total_ms"]
        for name, stat in timers.items()
        if name.startswith(GUARDED_PREFIXES)
    }


def govern_overhead_check(metrics, solver_ms, max_fraction):
    """Fails when the governance checkpoints cost more than `max_fraction`
    of the solver time while no budget was armed — the idle-overhead
    contract from govern/budget.hpp."""
    counters = metrics.get("counters", {})
    if counters.get("govern.budget_armed", 0) != 0:
        print("perf_guard: budget armed in this run; overhead gate skipped")
        return 0
    overhead_ms = counters.get("govern.overhead_est_ns", 0) / 1e6
    if solver_ms <= 0.0:
        return 0
    fraction = overhead_ms / solver_ms
    print(f"perf_guard: govern overhead {overhead_ms:.2f} ms over "
          f"{solver_ms:.1f} ms solver time "
          f"({fraction * 100.0:.2f}%, limit {max_fraction * 100.0:.0f}%)")
    if fraction > max_fraction:
        print(f"perf_guard: FAIL — governance checkpoints cost "
              f"{fraction * 100.0:.1f}% of guarded solver time with no "
              f"budget set", file=sys.stderr)
        return 1
    return 0


def load_report(path):
    with open(path) as f:
        return json.load(f)


def serve_gate(current_report, baseline_report, max_ratio):
    """Gates the load-generator's tail latency. BENCH_serve.json carries a
    top-level "serve" object (see tools/ind_loadgen.cpp); when both reports
    have one, fail if p99 regressed past `max_ratio` or the run stopped
    exercising the dedup/cache paths entirely."""
    cur = current_report.get("serve")
    base = baseline_report.get("serve")
    if cur is None:
        return 0
    if cur.get("ok", 0) <= 0 or cur.get("errors", 0) != 0:
        print(f"perf_guard: FAIL — serve run unhealthy "
              f"(ok={cur.get('ok', 0)}, errors={cur.get('errors', 0)})",
              file=sys.stderr)
        return 1
    if cur.get("coalesced", 0) + cur.get("cache_hits", 0) <= 0:
        print("perf_guard: FAIL — serve run had zero dedup/cache hits; "
              "the coalescing path is not being exercised", file=sys.stderr)
        return 1
    if base is None or base.get("p99_ms", 0.0) <= 0.0:
        print("perf_guard: baseline has no serve.p99_ms; serve gate skipped")
        return 0
    ratio = cur["p99_ms"] / base["p99_ms"]
    print(f"perf_guard: serve p99 {cur['p99_ms']:.1f} ms vs baseline "
          f"{base['p99_ms']:.1f} ms (ratio {ratio:.2f}, "
          f"limit {max_ratio:.2f}); "
          f"dedup_hit_rate {cur.get('dedup_hit_rate', 0.0):.3f}, "
          f"throughput {cur.get('throughput_rps', 0.0):.0f} rps")
    if ratio > max_ratio:
        print(f"perf_guard: FAIL — serve p99 regressed "
              f"{(ratio - 1.0) * 100.0:.0f}% past the {max_ratio:.2f}x "
              f"budget", file=sys.stderr)
        return 1
    return 0


def worker_gate(current_report, inproc_report, manifest_path, max_ratio,
                floor_ms):
    """Gates the process-isolation (IND_SERVE_WORKERS) IPC overhead: the
    worker-mode load-generator report must keep its cached/dedup p99 within
    `max_ratio` of the same workload served in-process. The budget lives in
    the manifest's "worker" entry (tools/perf_baselines.json) so it is
    reviewed like every other baseline; the floor keeps millisecond-scale
    p99s from tripping on scheduler jitter."""
    cur = current_report.get("serve")
    base = inproc_report.get("serve")
    wrk = current_report.get("worker")
    if cur is None or base is None:
        print("perf_guard: FAIL — worker gate needs serve sections in both "
              "reports", file=sys.stderr)
        return 1
    if wrk is None:
        print("perf_guard: FAIL — current report has no worker section "
              "(was the server really running with IND_SERVE_WORKERS>0?)",
              file=sys.stderr)
        return 1
    if manifest_path:
        try:
            with open(manifest_path) as f:
                entry = json.load(f).get("worker", {})
            max_ratio = entry.get("max_p99_overhead_ratio", max_ratio)
            floor_ms = entry.get("p99_floor_ms", floor_ms)
        except FileNotFoundError:
            pass
    if cur.get("ok", 0) <= 0 or cur.get("wrong_results", 0) != 0 or \
            cur.get("unresolved", 0) != 0:
        print(f"perf_guard: FAIL — worker-mode run unhealthy "
              f"(ok={cur.get('ok', 0)}, wrong={cur.get('wrong_results', 0)}, "
              f"unresolved={cur.get('unresolved', 0)})", file=sys.stderr)
        return 1
    if cur.get("coalesced", 0) + cur.get("cache_hits", 0) <= 0:
        print("perf_guard: FAIL — worker-mode run had zero dedup/cache hits; "
              "the gated path is not being exercised", file=sys.stderr)
        return 1
    cur_p99 = cur.get("p99_ms", 0.0)
    base_p99 = base.get("p99_ms", 0.0)
    if base_p99 <= 0.0:
        print("perf_guard: in-process report has no p99_ms; worker gate "
              "skipped")
        return 0
    ratio = cur_p99 / base_p99
    print(f"perf_guard: worker-mode p99 {cur_p99:.1f} ms vs in-process "
          f"{base_p99:.1f} ms (IPC overhead ratio {ratio:.2f}, "
          f"limit {max_ratio:.2f}, floor {floor_ms:.0f} ms); "
          f"alive {wrk.get('alive', 0)}/{wrk.get('workers', 0)} workers")
    if cur_p99 > floor_ms and ratio > max_ratio:
        print(f"perf_guard: FAIL — process isolation costs "
              f"{(ratio - 1.0) * 100.0:.0f}% on p99, past the "
              f"{(max_ratio - 1.0) * 100.0:.0f}% budget", file=sys.stderr)
        return 1
    return 0


def learn_manifest(report, manifest_path):
    """Rewrites this bench's manifest entry from the current report."""
    bench = report.get("bench", "")
    if not bench:
        print("perf_guard: report has no bench name; cannot learn",
              file=sys.stderr)
        return 1
    timers = guarded_timers_ms(report.get("metrics", report))
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        manifest = {}
    manifest[bench] = {
        "timers_ms": {name: round(ms, 3) for name, ms in sorted(timers.items())}
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf_guard: learned {len(timers)} timer baselines for "
          f"'{bench}' into {manifest_path}")
    return 0


def manifest_gate(report, manifest_path, max_ratio, floor_ms):
    """Per-timer gate against the learned manifest entry for this bench.

    A timer fails only when its current total exceeds both the noise floor
    and max_ratio times its baseline (the floor keeps sub-millisecond timers
    from tripping on scheduler jitter). A baseline timer absent from the run
    fails: the bench no longer exercises what the entry gates, so the entry
    must be re-learned rather than pass as 0 ms. Guarded timers that appear
    in the run but not in the manifest are reported so the baseline gets
    re-learned, but do not fail the gate."""
    bench = report.get("bench", "")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        print(f"perf_guard: no manifest at {manifest_path}; "
              f"per-timer gate skipped")
        return 0
    entry = manifest.get(bench)
    if entry is None:
        print(f"perf_guard: bench '{bench}' not in {manifest_path}; "
              f"per-timer gate skipped (run with --learn to add it)")
        return 0
    baseline = entry.get("timers_ms", {})
    current = guarded_timers_ms(report.get("metrics", report))
    failures = []
    missing = []
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name)
        base = baseline.get(name)
        if base is None:
            print(f"  {name:40s} {cur:10.1f} ms (new — not in manifest)")
            continue
        if cur is None:
            print(f"  {name:40s} {'absent':>10s}    "
                  f"(baseline {base:10.1f} ms) FAIL")
            missing.append(name)
            continue
        limit = max(base, floor_ms) * max_ratio
        status = "ok"
        if cur > floor_ms and cur > limit:
            status = "FAIL"
            failures.append(name)
        print(f"  {name:40s} {cur:10.1f} ms "
              f"(baseline {base:10.1f} ms, limit {limit:8.1f} ms) {status}")
    if missing:
        print(f"perf_guard: FAIL — manifest timers absent from this run: "
              f"{', '.join(missing)}; re-learn the '{bench}' entry with "
              f"--learn", file=sys.stderr)
    if failures:
        print(f"perf_guard: FAIL — per-timer regression past the "
              f"{max_ratio:.2f}x budget in: {', '.join(failures)}",
              file=sys.stderr)
    if missing or failures:
        return 1
    print(f"perf_guard: per-timer manifest gate OK for '{bench}'")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh BENCH_<name>.json")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline BENCH json (aggregate gate)")
    parser.add_argument(
        "--manifest",
        default=None,
        help="JSON manifest of learned per-bench timer baselines "
        "(tools/perf_baselines.json); enables the per-timer gate",
    )
    parser.add_argument(
        "--learn",
        action="store_true",
        help="rewrite this bench's manifest entry from the current report "
        "and exit (requires --manifest)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.25,
        help="fail when current/baseline exceeds this (default 1.25)",
    )
    parser.add_argument(
        "--max-timer-ratio",
        type=float,
        default=2.0,
        help="per-timer manifest gate fails when a guarded timer exceeds "
        "this multiple of its learned baseline (default 2.0; individual "
        "timers are noisier than the aggregate)",
    )
    parser.add_argument(
        "--timer-floor-ms",
        type=float,
        default=25.0,
        help="per-timer gate ignores timers whose current total is below "
        "this (default 25 ms; jitter floor)",
    )
    parser.add_argument(
        "--max-govern-overhead",
        type=float,
        default=0.02,
        help="fail when estimated govern.* checkpoint cost exceeds this "
        "fraction of guarded solver time in an unbudgeted run (default 0.02)",
    )
    parser.add_argument(
        "--worker-inproc",
        default=None,
        help="in-process BENCH_serve.json to gate worker-mode IPC overhead "
        "against (the positional `current` must be the worker-mode report); "
        "budget comes from the manifest's 'worker' entry when --manifest is "
        "also given",
    )
    parser.add_argument(
        "--max-worker-overhead",
        type=float,
        default=1.10,
        help="fail when worker-mode p99 exceeds this multiple of the "
        "in-process p99 (default 1.10; overridden by the manifest 'worker' "
        "entry)",
    )
    parser.add_argument(
        "--worker-floor-ms",
        type=float,
        default=20.0,
        help="worker gate ignores p99s below this (default 20 ms; jitter "
        "floor, overridden by the manifest 'worker' entry)",
    )
    parser.add_argument(
        "--max-serve-ratio",
        type=float,
        default=2.0,
        help="fail when serve.p99_ms current/baseline exceeds this "
        "(default 2.0; tail latency is noisier than solver wall time)",
    )
    args = parser.parse_args()

    current_report = load_report(args.current)
    if args.learn:
        if not args.manifest:
            parser.error("--learn requires --manifest")
        return learn_manifest(current_report, args.manifest)

    current_metrics = current_report.get("metrics", current_report)
    current = guarded_timers_ms(current_metrics)
    current_ms = sum(current.values())
    if govern_overhead_check(current_metrics, current_ms,
                             args.max_govern_overhead):
        return 1
    if args.manifest and manifest_gate(current_report, args.manifest,
                                       args.max_timer_ratio,
                                       args.timer_floor_ms):
        return 1
    if args.worker_inproc and worker_gate(current_report,
                                          load_report(args.worker_inproc),
                                          args.manifest,
                                          args.max_worker_overhead,
                                          args.worker_floor_ms):
        return 1
    if args.baseline is None:
        print("perf_guard: no baseline report given; aggregate gate skipped")
        return 0

    baseline_report = load_report(args.baseline)
    if serve_gate(current_report, baseline_report, args.max_serve_ratio):
        return 1
    baseline = guarded_timers_ms(baseline_report.get("metrics",
                                                     baseline_report))
    baseline_ms = sum(baseline.values())
    if baseline_ms <= 0.0:
        print("perf_guard: baseline has no guarded timers; skipping")
        return 0

    ratio = current_ms / baseline_ms
    print(f"perf_guard: factor.* + solve.* + fast.* total "
          f"{current_ms:.1f} ms vs baseline {baseline_ms:.1f} ms "
          f"(ratio {ratio:.2f}, limit {args.max_ratio:.2f})")
    for name in sorted(set(current) | set(baseline)):
        print(f"  {name:40s} {current.get(name, 0.0):10.1f} ms "
              f"(baseline {baseline.get(name, 0.0):10.1f} ms)")

    if ratio > args.max_ratio:
        print(f"perf_guard: FAIL — solver time regressed "
              f"{(ratio - 1.0) * 100.0:.0f}% past the {args.max_ratio:.2f}x "
              f"budget", file=sys.stderr)
        return 1
    print("perf_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
