#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload clock_flows|loop_extract|serve_mix \
        --seed N --seconds S --trace 0|1

Builds the ind_perfbench binary from source (perfbench/CMakeLists.txt adds
the repository root, so the library is compiled with the repository's own
flags) into $CARGO_TARGET_DIR or .bench_build, then runs one workload with a
one-worker pool (IND_THREADS=1) and every other IND_* knob cleared. The
binary's standard output is passed through: "# " lines carry the provenance
block and the run details, and the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. On any failure this script
exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 860
RUN_DEADLINE_S = 175  # the whole invocation must end within 180 s
WORKLOADS = ("clock_flows", "loop_extract", "serve_mix")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir, deadline, env):
    """Configure once, then an incremental build of ind_perfbench only."""
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", bdir, "--target", "ind_perfbench",
                      "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            if left <= 0:
                die("build ran out of time", 1)
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=left).returncode
            except subprocess.TimeoutExpired:
                die("build timed out", 1)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build step failed: {' '.join(cmd)}", 1)
    exe = os.path.join(bdir, "ind_perfbench")
    if not os.path.exists(exe):
        die("build produced no ind_perfbench", 1)
    return exe


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of every source ind_perfbench is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build_provenance(bdir):
    prov = {"git_sha": git("rev-parse", "HEAD"), "git_dirty": None,
            "source_sha256": source_sha256()}
    if prov["git_sha"] is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        prov["git_dirty"] = bool(status) if status is not None else None
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and line[0] not in "#/":
                key, _, val = line.partition("=")
                cache[key.split(":")[0]] = val.strip()
    cxx = cache.get("CMAKE_CXX_COMPILER", "")
    prov["build_type"] = cache.get("CMAKE_BUILD_TYPE")
    try:
        prov["compiler"] = subprocess.run(
            [cxx, "--version"], capture_output=True, text=True,
            timeout=20).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        prov["compiler"] = cxx
    # Flags exactly as the library was compiled: one library TU's command.
    flags = None
    try:
        with open(os.path.join(bdir, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith(os.path.join("src", "la", "lu.cpp")):
                    words = entry.get("command", "").split()
                    flags = [w for w in words[1:] if w.startswith(("-O", "-m",
                             "-f", "-g", "-W", "-D", "-std"))]
                    break
    except (OSError, ValueError, KeyError):
        pass
    prov["cxx_flags"] = " ".join(flags) if flags is not None else None
    prov["avx2"] = flags is not None and "-mavx2" in flags
    prov["no_fma"] = flags is not None and "-mno-fma" in flags
    return prov


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]")

    start = time.monotonic()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die(f"no library sources next to perfbench/ (looked in {ROOT})")

    # Everything the build and the run write stays in the build directory,
    # compiler temporaries included.
    bdir = build_dir()
    run_dir = os.path.join(bdir, "runs")
    tmp_dir = os.path.join(bdir, "tmp")
    for d in (run_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("IND_")}
    env["TMPDIR"] = tmp_dir
    exe = build(bdir, start + BUILD_TIMEOUT_S, env)
    run_start = time.monotonic()
    env["IND_THREADS"] = "1"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to ROOT: Unix socket paths must stay short.
           "--run-dir", os.path.relpath(run_dir, ROOT),
           "--provenance", json.dumps(build_provenance(bdir))]
    # A first build may take most of 900 s; the run then gets its own
    # window. Otherwise the 180 s limit covers build check and run together.
    build_s = run_start - start
    timeout = RUN_DEADLINE_S - (build_s if build_s < 60 else 0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # ind_perfbench prints its result line only on success.
        sys.stdout.write(proc.stdout)
        die(f"ind_perfbench exited with {proc.returncode}", 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
