#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program and the library under test are
built with CMake into .bench_build/perfbench (the first run builds; later
runs only re-check).  Generated inputs live in .bench_build/work-<pid> and
are removed when the run ends.  --seconds defaults to BENCHMARK.json's
run_seconds.  The last stdout line is the JSON result (with --workload all,
each workload's output follows a "== name" line); build output goes to
stderr.  The exit status is non-zero when the build fails, an output check
fails, or the metrics differ from BENCHMARK.json.

--smoke runs every workload at a tiny size, untraced and traced, and checks
that each declared metric is present with its unit, that the end-to-end
metrics are non-zero and that no operation failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


# Every child runs in its own process group, so stopping it also stops what
# it started (make and the compilers under cmake).
_children = []


def _stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _on_signal(signum, _frame):
    for proc in _children:
        _stop(proc)
    sys.exit(128 + signum)


def run_child(cmd, timeout, stdout):
    """Runs cmd to completion or timeout; returns (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        log(f"{os.path.basename(cmd[0])} exceeded {timeout} s and was killed")
        return None, ""
    finally:
        _children.remove(proc)
    return proc.returncode, out or ""


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no CMakeLists.txt in {ROOT}: the library sources are missing")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            log(f"build step failed ({code}): {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return ([w["name"] for w in spec["workloads"]], e2e, layers,
            spec["run_seconds"])


def run_perfbench(workload, seed, seconds, trace, smoke=False):
    """Runs the perfbench program once; returns (exit code, stdout text, result)."""
    work = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    shutil.rmtree(work, ignore_errors=True)
    if code is None:
        return 1, out, None
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, out, result


def metric_problems(result, expected):
    """Differences between a result's metrics and the declared ones."""
    problems = []
    got = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')}, "
                            f"declared {unit}")
    for name in got:
        if name not in expected:
            problems.append(f"undeclared metric {name}")
    return problems


def smoke():
    workloads, e2e, layers, _ = declared()
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            code, out, result = run_perfbench(workload, 1, 1, trace, smoke=True)
            tag = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}\n{out}")
                continue
            expected = layers if trace else e2e
            problems += [f"{tag}: {p}" for p in
                         metric_problems(result, expected)]
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            if not trace:
                problems += [f"{tag}: {n} is 0" for n in e2e
                             if result["metrics"].get(n, {}).get("value") == 0]
            print(f"{tag}: {len(result['metrics'])} metrics, "
                  f"error_ratio {result['failed'] / result['attempted']:g}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def run_one(workload, args, expected):
    """Runs one workload and passes its output through; returns the exit
    status."""
    code, out, result = run_perfbench(workload, args.seed, args.seconds,
                                      args.trace)
    if result is None:
        sys.stdout.write(out)
        log(f"{workload}: perfbench printed no JSON result")
        return code or 1
    problems = metric_problems(result, expected)
    for p in problems:
        log(f"{workload}: {p}")
    if problems:
        # Do not hand the caller a result that breaks the declared contract.
        sys.stdout.write("".join(out.splitlines(True)[:-1]))
        return 1
    sys.stdout.write(out)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    if not build():
        return 2
    if args.smoke:
        return smoke()
    workloads, e2e, layers, run_seconds = declared()
    if args.seconds is None:
        args.seconds = run_seconds
    if args.workload == "all":
        status = 0
        for workload in workloads:
            print(f"== {workload}", flush=True)
            status = max(status, run_one(workload, args,
                                         layers if args.trace else e2e))
            sys.stdout.flush()
        return status
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)} "
                     "or all")
    return run_one(args.workload, args, layers if args.trace else e2e)


if __name__ == "__main__":
    sys.exit(main())
