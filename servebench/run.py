#!/usr/bin/env python3
"""The serving benchmark: one command per workload run.

    python3 servebench/run.py --workload query_heavy --seed 1 --seconds 20 \
        --trace 0

Builds privtree_server and the load generator from the repository sources
(into .bench_build/ at the repository root), generates the seeded datasets,
starts the server as its own process, drives the workload over the socket,
checks every answer, and prints each metric with its unit and sample count.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from a replay of the same seeded
requests one layer deeper at a time.  Every run also appends its full
record (all metrics, the host block) to .bench_build/results.jsonl, which
compare.py reads.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("query_heavy", "small_rpc", "fit_churn")
# The generator must leave time for the build check and the clean-up within
# the 180 s a run may take.
RUN_TIMEOUT_S = 165


def build():
    """Configures (once) and builds; returns (server, generator) paths."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("servebench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "privtree_server", "servebench_gen"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("servebench: build failed")
    return (os.path.join(BUILD, "privtree", "privtree_server"),
            os.path.join(BUILD, "servebench_gen"))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def host_block(gen_lines):
    """Where and how the numbers were made."""
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": version, "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "git_sha": git_sha()}
    for line in gen_lines:
        key, _, value = line.partition(" ")
        if key in ("simd_isa", "server_flags"):
            host[key] = value
    return host


def kill_group(pgid):
    """Kills whatever is left of the generator's process group (its server
    children included) and waits until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("servebench: --seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    server, gen = build()
    tag = "%s-%d-%s-%d" % (args.workload, args.seed,
                           "trace" if args.trace else "timed", os.getpid())
    workdir = os.path.join(BUILD, "runs", tag)
    os.makedirs(workdir, exist_ok=True)
    spans = os.path.join(BUILD, "spans", tag + ".jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [gen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", server, "--workdir", workdir, "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        sys.exit("servebench: the run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.splitlines()
    result_lines = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.returncode != 0 or len(result_lines) != 1:
        sys.exit("servebench: the generator failed (exit %d)"
                 % proc.returncode)
    record = json.loads(result_lines[0][len("RESULT "):])
    host = host_block(lines)
    print("host " + json.dumps(host, sort_keys=True))

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            sys.exit("servebench: the run did not measure %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "correct": record["correct"],
                            "attempted": record["attempted"],
                            "failed": record["failed"], "host": host,
                            "metrics": record["metrics"]},
                           sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
