#!/usr/bin/env python3
"""Runs one copydetect benchmark workload and prints its result.

    python3 perfbench/run.py --workload batch-stock --seed 1 \\
        --seconds 20 --trace 0

Builds perfbench/ together with the engine sources it pulls in from the
repository into .bench_build/ (incremental after the first time), runs
the benchmark's self-tests, then measures the workload in a process of
its own. The last line of stdout is the result object:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones; the metric names and units are checked against
BENCHMARK.json before anything is printed. Build logs and the human
summary go to stderr. Spans of a traced run are written to
.bench_build/trace-<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 30


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build():
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        fail("the copydetect sources (src/) are not in this checkout", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        done = run(["cmake", "-S", "perfbench", "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
        if done.returncode != 0:
            fail("cmake configure failed", 2)
    done = run(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed", 2)


def expected_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"the last line is not JSON: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    if run([BINARY, "--selftest"], SELFTEST_TIMEOUT_S,
           stdout=sys.stderr).returncode != 0:
        fail("self-tests failed")

    work_dir = os.path.join(BUILD, f"run-{args.workload}-{os.getpid()}")
    trace_out = os.path.join(
        BUILD, f"trace-{args.workload}-seed{args.seed}.jsonl")
    done = run([BINARY, f"--workload={args.workload}",
                f"--seed={args.seed}", f"--seconds={args.seconds}",
                f"--trace={args.trace}", f"--work-dir={work_dir}",
                f"--trace-out={trace_out}"],
               RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
