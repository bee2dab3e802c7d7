#!/usr/bin/env python3
"""Build and run the CORP benchmark harness for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload corp-pooled --seed 1 --seconds 20 --trace 0

Builds the harness (a Cargo package of its own in this directory) in
release mode, runs it with the host's CORP_THREADS override removed,
checks that the metrics it printed are exactly the ones BENCHMARK.json
names for the run's mode, and prints the host fingerprint followed by
the result as one JSON object on the last line of standard output.
Any failure exits nonzero without printing a result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = "release"
# The harness stops itself once its --seconds budget is spent; this only
# catches a wedged run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rustc": rustc,
        "profile": PROFILE,
        "os": platform.platform(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace == 1)
    env = dict(os.environ)
    env.pop("CORP_THREADS", None)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", f"--{PROFILE}", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, PROFILE, "perfbench")

    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv")]
    try:
        run = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"the harness ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"the harness exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail(f"malformed or incorrect result: {lines[-1]}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")

    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
