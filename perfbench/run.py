#!/usr/bin/env python3
"""Builds and runs the RocksMash benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload point-local --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (which compiles ../src) into the
directory named by $CARGO_TARGET_DIR, or .bench_build, then runs one
workload. The last line of stdout is the result JSON. Build output goes to
stderr. Exits non-zero, printing no result, if the build or the run fails.

    python3 perfbench/run.py --test    builds and runs the decorator cross-check
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-local", "cloud-mixed", "put-sync")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def child_env(out):
    # Keep compiler and tool temporaries inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_quiet(cmd, env):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(out, target):
    env = child_env(out)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs], env)
    return env


def git_sha():
    # Only a checkout's own .git counts; never search the directories above.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared(spec, mode):
    key = "per_layer" if mode else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    if args.test:
        env = build(out, "probes_test")
        run_quiet([os.path.join(out, "probes_test")], env)
        return
    if args.workload is None:
        fail("--workload is required")
    env = build(out, "mash_bench")

    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "ops_per_s")
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "mash_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", traces, "--git-sha", git_sha(),
           "--steady-bound", str(bound)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d and no result" % proc.returncode)
    want = declared(spec, args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n")
                     else proc.stdout + "\n")
    sys.stdout.flush()
    # Any error or wrong value fails the command (after printing the result).
    if proc.returncode != 0 or not result.get("correct"):
        fail("benchmark reported %s failed operation(s), exit code %d" % (
            result.get("failed"), proc.returncode))


if __name__ == "__main__":
    main()
