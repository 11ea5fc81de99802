#!/usr/bin/env python3
"""Entry point of the ssring benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks that the printed metrics are exactly the ones BENCHMARK.json
declares, and prints a host-stamp line followed by the result JSON as the
last line. Each result is also appended to <build dir>/results.jsonl, and a
traced run writes its spans to <build dir>/traces/. --selftest builds and
runs the benchmark's own tests.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "--target", *targets,
                        "-j", jobs], stdout=sys.stderr, check=True)
    return out


def git_sha():
    # Only the checkout's own repository: a checkout without .git may sit
    # inside another one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the library sources (paths and contents), so results from
    checkouts without git history still name the code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared_metrics(trace):
        fail("printed metrics differ from BENCHMARK.json")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ssring sources under {ROOT}/src", 2)

    if args.selftest:
        out = build(["ssbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "ssbench_tests")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    out = build(["ssbench"])
    cmd = [os.path.join(out, "ssbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(),
           "--src-sha", src_digest()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"ssbench exited with {proc.returncode}")
    stamp, last = lines[-2], lines[-1]
    result = check_result(last, args.trace)
    with open(os.path.join(out, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": json.loads(stamp.split(" ", 1)[1]),
                            "workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "result": result}) + "\n")
    print(stamp)
    print(last, flush=True)


if __name__ == "__main__":
    main()
