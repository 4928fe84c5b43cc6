#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <file>]

The benchmark is the Rust package in this directory. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build under the current
directory), then run once. Notes go to standard output as lines starting with
'#', including the host fingerprint; the last line is the result object with
exactly the keys correct, attempted, failed and metrics. With --out, the
fingerprint, the arguments and the result are also appended to <file> as one
JSON line, for compare.py.

The result is checked against BENCHMARK.json: with --trace 0 the metrics must
be exactly its end_to_end metrics, with --trace 1 its per_layer metrics (the
layers a workload does not exercise are filled in as 0), each with the
declared unit. Any failure (build, run, timeout or
shape) exits non-zero without printing a result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint():
    """What a result depends on besides the code: two results are only
    comparable when these match (see compare.py)."""
    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]),
        "rmem_default": read("/proc/sys/net/core/rmem_default", "unknown").strip(),
    }


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target, "release", "cam-perfbench")
    if not os.path.exists(exe):
        fail(f"build produced no {exe}")
    return exe


def check_result(result, trace):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result does not have exactly the keys correct, attempted, failed, metrics")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if trace:
        # A traced run reports the layers its workload exercises; the rest
        # did no work there and read 0, the bypass case.
        for name, unit in want.items():
            got.setdefault(name, {"value": 0.0, "unit": unit})
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is malformed or has the wrong unit: {m}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--out", help="append fingerprint, arguments and result to this file")
    args = p.parse_args()

    exe = build()
    host = fingerprint()
    print("# host " + json.dumps(host, sort_keys=True))
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {exe}: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"the run exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail("the run printed nothing")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the last line is not JSON: {lines[-1]!r}")
    check_result(result, args.trace)
    if args.out:
        record = {"host": host, "args": vars(args), "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
