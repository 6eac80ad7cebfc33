#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <firehose|refresh_bound|dashboard> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the library it
links) into $CARGO_TARGET_DIR, or .bench_build/ when that is unset; later
runs rebuild incrementally. The self-tests of the benchmark's analysis
run before every measurement. The last line of standard output is the
result object; see perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=800)


def source_digest():
    """sha256 over the library and benchmark sources, so a result names
    the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", commit(), "--source-digest", source_digest()]
    # Its own process group, so a timeout also takes down the generator.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 3
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        # Never let a partial run's output end in something that reads
        # like a result.
        sys.stderr.write(out)
        log("perfbench: run failed (exit %d)" % proc.returncode)
        return proc.returncode or 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
