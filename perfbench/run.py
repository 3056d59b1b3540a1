#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library under src/) into
.bench_build/perfbench on every call (configured on first use, then an
incremental build, so a changed source is never timed stale), runs the
benchmark binary, and prints
its table followed by one JSON result line. With --trace 1 the Chrome trace
the run writes must parse, or the result is marked incorrect. --selftest
runs the tests of the benchmark's own helpers instead.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BENCH = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in cmds:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def trace_parses(path):
    try:
        with open(path) as f:
            events = json.load(f).get("traceEvents")
    except (OSError, ValueError, AttributeError):
        return False
    return isinstance(events, list) and len(events) > 0


def run(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))


def selftest():
    trace = os.path.join(OUT, "selftest_trace.json")
    proc = run([SELFTEST, trace])
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("selftest failed")
    if not trace_parses(trace):
        fail("selftest trace %s does not parse" % trace)
    print("perfbench selftest: trace parses")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        selftest()
        return

    proc = run([BENCH, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", OUT])
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("last line is not a JSON result")
    for line in lines[:-1]:
        print(line)
    if args.trace == 1:
        trace = os.path.join(OUT, "trace_%s.json" % args.workload)
        if not trace_parses(trace):
            print("perfbench: trace %s does not parse" % trace,
                  file=sys.stderr)
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
