#!/usr/bin/env python3
"""Build the gcr benchmark program from source and run one workload.

    python3 gcrbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The program prints notes and then one JSON
result line; this wrapper forwards its output, checks that the result
line carries exactly the metrics BENCHMARK.json declares for the mode,
and makes sure no process the run started outlives it. Exits non-zero
without a result line when the program cannot be built or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "gcrbench", "gcrbench.exe")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("gcrbench: " + msg, file=sys.stderr)
    sys.exit(code)


def pin():
    """Keep a process and its children on one CPU.

    serve-mix's daemon and load process hand every request back and forth;
    unpinned, on a shared 2-vCPU host, each hand-off can wait for a vCPU
    the host has taken away, and five seeds spread 0.24 in p50 latency and
    0.29 in throughput; pinned, 0.12 and 0.07.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./gcrbench/gcrbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    # Own process group: the serve-mix daemon runs as a child of the
    # program, and whatever is left of the group is killed on the way out.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True,
                            preexec_fn=pin if args.workload == "serve-mix" else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("program exited with code %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace == "1" else "end_to_end"]}
    measured = {k: v["unit"] for k, v in result["metrics"].items()}
    if measured != declared:
        fail("result metrics differ from BENCHMARK.json", 3)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
