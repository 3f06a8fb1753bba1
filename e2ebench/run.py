#!/usr/bin/env python3
"""Builds and runs the emdbg end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a source tree. The first call configures and builds
the emdbg library and the benchmark from source (CMake, Release) under the
work directory: $CARGO_TARGET_DIR if set, else .bench_build. Inputs,
per-run reports, traces, spill files and the reproducibility ledger live
there too. The last line of standard output is the result JSON.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def work_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build(wd):
    build_dir = os.path.join(wd, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(wd, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, **quiet)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, **quiet)
    return build_dir


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def selftest(build_dir):
    out = subprocess.run([os.path.join(build_dir, "e2ebench_selftest")],
                         stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    listed = {"end_to_end": [], "per_layer": []}
    for line in out.stdout.splitlines():
        kind, name, unit = line.split()
        listed[kind].append((name, unit))
    e2e, per_layer = metric_specs()
    ok = out.returncode == 0
    if listed["end_to_end"] != e2e:
        log("end-to-end metrics differ from BENCHMARK.json")
        ok = False
    if listed["per_layer"] != per_layer:
        log("per-layer metrics differ from BENCHMARK.json")
        ok = False
    log("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("emdbg sources not found next to " + HERE)
        return 1
    wd = work_dir()
    try:
        build_dir = build(wd)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.selftest:
        return selftest(build_dir)

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", wd, "--source", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
