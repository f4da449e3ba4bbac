#!/usr/bin/env python3
"""PCMap repository benchmark: build pcmap-bench from source, run one workload.

    python3 pcmap_bench/run.py --workload paper_slc --seed 1 --seconds 20 --trace 0

The first run configures and builds the simulator libraries and the
pcmap-bench program (Release) into .bench_build/ at the repository root;
later runs only re-check that build.  Its report is passed
through.  Its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; metrics holds every end_to_end
metric of BENCHMARK.json with --trace 0 and every per_layer one with
--trace 1.

Exit status: pcmap-bench's, which is nonzero when a correctness check
failed.  Without printing a result line, nonzero when the simulator
sources are missing, the build fails, or the reported metrics differ
from the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "pcmap-bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found in %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", BUILD, "--target", "pcmap-bench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))


def commit():
    """The checkout's git revision, or "unknown" outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared(trace):
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    build()
    code, out = run([PROGRAM, "workload=" + args.workload,
                     "seed=%d" % args.seed, "seconds=%r" % args.seconds,
                     "trace=%d" % args.trace, "commit=" + commit()],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines() or [""]
    if len(lines) > 1:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail("pcmap-bench exited %d without a result line" % code)
    want = declared(args.trace)
    if units != want:
        fail("pcmap-bench metrics differ from BENCHMARK.json: missing %s, "
             "extra %s, units %s" % (
                 sorted(set(want) - set(units)),
                 sorted(set(units) - set(want)),
                 sorted(k for k in set(want) & set(units)
                        if want[k] != units[k])))
    print(lines[-1], flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
