#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_local|fleet_routed|plan_waves \
        --seed N --seconds S --trace 0|1 [--smoke] [--perturb-check]

Run from the repository root. The first call configures and compiles
perfbench/ (and with it the program's libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The benchmark binary then prints its report,
ending in one JSON line. Exits non-zero when the build or the run fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    def step(cmd):
        # Build output goes to stderr: stdout ends with the result line.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not step(["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    sys.stdout.flush()
    try:
        return subprocess.run([os.path.join(build_dir, "perfbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
