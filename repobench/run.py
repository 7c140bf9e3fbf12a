#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 repobench/run.py --workload search|serve-hot \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds the
library and the harness (RelWithDebInfo, the repository's default build
type) under $CARGO_TARGET_DIR/repobench, or .bench_build/repobench when
that variable is unset; later runs only rebuild what changed. Every run
then executes the harness's self-test and the workload. The harness prints
a report and, as its last line, one JSON object with the metrics.

Exits non-zero, without a result line, when the checkout lacks the sources
the benchmark builds from, when the build or the self-test fails, or when
the harness fails or overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search", "serve-hot")
# A run measures for --seconds; a traced run adds a second, traced phase
# (and on serve-hot the cluster probe). Anything slower than this is a hang.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"repobench: {msg}", file=sys.stderr, flush=True)


def run(cmd, **kw):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                "repobench", "repobench_selftest"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    golden = os.path.join(ROOT, "tests", "golden", "suite_renders.txt")
    for need in ("CMakeLists.txt", "src", golden):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"missing {need}: run from the root of a full checkout")
            return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "repobench")
    if build(build_dir) != 0:
        log("build failed")
        return 1
    if run([os.path.join(build_dir, "repobench_selftest"), ROOT]) != 0:
        log("harness self-test failed")
        return 1

    cmd = [os.path.join(build_dir, "repobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", golden, "--out", os.path.join(build_dir, "out")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"harness overran {HARNESS_TIMEOUT_S} s and was killed")
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        log(f"harness exited with code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
