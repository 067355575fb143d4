#!/usr/bin/env python3
"""Build palu_perfbench from this checkout and run one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form configures and builds the library plus the harness with
CMake (into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
then runs one workload; the harness's standard output passes through
unchanged, so its last line is the run's JSON result.  --smoke is the
benchmark's self-test: every workload, untraced and traced, at toy size
with all of its correctness checks, in seconds.

Build output goes to standard error.  Exit code 0 means the run (or every
smoke run) passed its checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep_counts", "replay", "serve", "expected"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def cached_source_dir(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds palu_perfbench; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no palu sources at {ROOT}; nothing to build")
        return None
    build = build_dir()
    if cached_source_dir(build) not in (None, HERE):
        shutil.rmtree(build)  # configured from another checkout
    if cached_source_dir(build) is None:
        cmd = ["cmake", "-S", HERE, "-B", build,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build, "--target", "palu_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build, "palu_perfbench")


def run_one(binary, args, capture):
    """Runs the harness; returns (returncode, stdout or None)."""
    try:
        proc = subprocess.run([binary] + args,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, None
    return proc.returncode, proc.stdout


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.5",
                    "--trace", trace, "--smoke"]
            rc, out = run_one(binary, args, capture=True)
            result = None
            if out and out.strip():
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except json.JSONDecodeError:
                    result = None
            ok = (rc == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0)
            failures += not ok
            print(f"smoke {workload:12s} trace={trace}: "
                  f"{'ok' if ok else 'FAIL'} (rc={rc})", flush=True)
            if not ok and out:
                print(out, flush=True)
    print(f"smoke: {'ok' if failures == 0 else f'{failures} failed'}")
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy size (self-test)")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
    rc, _ = run_one(binary, run_args, capture=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
