#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds the benchmark binary (e2ebench/CMakeLists.txt, which pulls in the
repository's libraries) and runs one workload:

    python3 e2ebench/run.py --workload pipeline-amg --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root, as a Release build with the hot-path contracts compiled out (the
repository's "release" preset settings). Traces and stores are written under
that directory and removed afterwards; each result, with its run header, is
kept in <build dir>/results/.

Standard output: a '# run-header {...}' line, the benchmark binary's
human-readable '#' lines, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result line, when the sources are missing, the build fails or the binary
fails.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BUILD_TYPE = "Release"
HOT_ASSERTS = "OFF"
WORKLOADS = ("pipeline-amg", "serve-mixed", "monitor-rolling")
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the sources the benchmark is built from (works without git)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "e2ebench"]
    for top in tops:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"), "-B", cmake_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", f"-DOSN_HOT_ASSERTS={HOT_ASSERTS}",
                      "-DOSN_WERROR=OFF"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "osn-e2ebench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as fh:
                    sys.stderr.write("".join(fh.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    binary = os.path.join(cmake_dir, "osn-e2ebench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"repository sources not found ({needed} missing under {root})")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(build_dir, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "build_type": BUILD_TYPE,
        "osn_hot_asserts": HOT_ASSERTS,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "started_unix": time.time(),
    }
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        cmd += ["--spans-out", os.path.join(results, f"{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within {BINARY_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")

    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump({"header": header, "log": lines[:-1], "result": result}, fh, indent=1)
    print("# run-header " + json.dumps(header, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
