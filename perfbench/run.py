#!/usr/bin/env python3
"""Builds and runs the simdflat end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simdflat libraries from src/) into
.bench_build/perfbench, then runs simdbench. Every process gets a fresh,
empty JIT artifact directory (SIMDFLAT_JIT_DIR) and TMPDIR inside
.bench_build, removed when it exits, so no run can reuse another run's
host-compiled modules. Untraced runs set up several times, each in its
own process, and report the median set-up time as setup_s: at least
SETUP_MIN_REPS processes, and more, up to SETUP_MAX_REPS, until
SETUP_MIN_S seconds of set-up have been timed, so that set-ups of a few
milliseconds get more samples than ones of a few seconds. The timed
run sets up for --seed; the other set-ups take seeds derived from it,
because how much work a set-up does depends on the inputs it draws, so
a median over several draws moves little from one --seed to the next.

The last line of stdout is the result object of simdbench; with
--workload all it merges every workload's result, metric names prefixed
by the workload. Exit codes: 0 correct, 1 a wrong reply or a failed run
check, 2 a build, usage or set-up error (no result line).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["cold_native", "warm_native", "warm_bytecode"]
# Processes that set up; setup_s is the median of their set-up times.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_S = 2.0
# Seed step between the set-ups of one run.
SETUP_SEED_STRIDE = 1000003
# The whole command must finish within 180 s; leave a margin.
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds simdbench; returns its path or None."""
    binary = os.path.join(BUILD, "simdbench")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *gen, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "simdbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return binary if os.path.exists(binary) else None


def run_isolated(cmd, timeout):
    """Runs cmd with a fresh JIT directory and TMPDIR, removed afterwards.

    The child runs in its own process group, so a timeout also stops the
    host compilers it started. Returns a CompletedProcess, or None on a
    timeout.
    """
    os.makedirs(BUILD_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        jit = os.path.join(scratch, "jit")
        tmp = os.path.join(scratch, "tmp")
        os.makedirs(jit)
        os.makedirs(tmp)
        env = dict(os.environ, SIMDFLAT_JIT_DIR=jit, TMPDIR=tmp)
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                 env=env, start_new_session=True)
        try:
            out, _ = child.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            log("perfbench: timed out: " + " ".join(cmd))
            return None
        return subprocess.CompletedProcess(cmd, child.returncode, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(binary, name, args, deadline):
    """Runs one workload; returns (exit code, result dict or None)."""
    setups = []
    # The timed run sets up too; its set-up counts as one rep.
    while not args.trace and len(setups) < SETUP_MAX_REPS - 1 and (
            len(setups) < SETUP_MIN_REPS - 1 or sum(setups) < SETUP_MIN_S):
        seed = args.seed + SETUP_SEED_STRIDE * (len(setups) + 1)
        r = run_isolated([binary, "--workload", name, "--seed", str(seed),
                          "--setup-only"],
                         deadline - time.monotonic())
        if r is None or r.returncode != 0:
            if r is not None:
                log(r.stdout)
            return 2, None
        setups.append(json.loads(r.stdout.strip().splitlines()[-1])
                      ["setup_s"])
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    r = run_isolated([binary, "--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace",
                      "1" if args.trace else "0", "--out-dir", out_dir],
                     deadline - time.monotonic())
    if r is None:
        return 2, None
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        print("\n".join(lines))
        return 2, None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return r.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=18)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    binary = build()
    if binary is None:
        return 2
    # A build may take most of the first run's allowance; the timed runs
    # get their own.
    deadline = max(deadline, time.monotonic() + 150)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + DEADLINE_S
        code, result = run_workload(binary, name, args, deadline)
        if result is None:
            return 2
        worst = max(worst, code)
        if len(names) == 1:
            merged = result
            break
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][name + "." + metric] = v
        print(json.dumps(result))
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
