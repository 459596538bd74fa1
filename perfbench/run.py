#!/usr/bin/env python3
"""Build the program from ../src and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only check the build is current.
Every run first executes the benchmark's self-test (its own percentile,
ladder and ledger arithmetic), then the workload binary, whose last
stdout line is the result JSON. Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_local", "train_ps", "serve_open", "serve_publish")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "nn", "a3c_network.hh")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)
    return build_dir


def program_env():
    # Only the benchmark decides the program's knobs: drop inherited
    # FA3C_* settings (tracing, telemetry, fault injection) and pin the
    # kernel pool to one thread so agents / workers never oversubscribe.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FA3C_")}
    env["FA3C_KERNEL_THREADS"] = "1"
    env["FA3C_LOG_LEVEL"] = "warn"
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = build()
    env = program_env()
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=60)
    if selftest.returncode:
        fail("self-test failed", 4)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}", 6)
    result = json.loads(lines[-1])
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            fail(f"metrics out of step with BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}", 7)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
