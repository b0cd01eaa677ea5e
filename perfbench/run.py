#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary (perfbench/*.cpp) is compiled together with the project's
sources under .bench_build/ in the checkout; later runs only rebuild
what changed. Build output goes to stderr. The binary runs in a fresh
temporary directory under .bench_build/ that is removed afterwards, and
its last stdout line, one JSON object, is printed as the last line of
this script's stdout. A traced run (--trace 1) also leaves its spans in
.bench_build/spans-NAME.json, replacing those of the last traced run of
that workload. The exit status is the binary's: 0 when every
check passed, non-zero otherwise or when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
EXE = os.path.join(BUILD_DIR, "perfbench")
# A run ends within 180 s; the binary itself gets this long.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Inputs come from --seed alone: drop the project's seed override.
    env = {k: v for k, v in os.environ.items() if k != "MB_SEED"}
    command = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        proc = subprocess.run(command + ["--tmpdir", tmpdir], cwd=tmpdir,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        spans = os.path.join(tmpdir, "spans.json")
        if os.path.exists(spans):
            kept = os.path.join(BUILD_ROOT, f"spans-{args.workload}.json")
            os.replace(spans, kept)
            print(f"perfbench: spans written to {kept}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run went past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the binary printed no result", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
