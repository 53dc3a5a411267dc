#!/usr/bin/env python3
"""Build fixq and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fixq checkout. The last line of standard output
is the result object of perfbench/bench.ml; see perfbench/README.md for the
workloads and metrics. Exits non-zero, without a result, when the
checkout holds no fixq sources or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["fixpoint-cold", "serve-zipf", "patch-mix", "cluster-scatter"]

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for path in ["dune-project", "bin/fixq_cli.ml", "lib", "perfbench/dune"]:
        if not os.path.exists(path):
            fail("run from the root of a fixq checkout (missing %s)" % path)

    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/fixq_cli.exe", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    cmd = ["_build/default/perfbench/bench.exe",
           "--fixq", "_build/default/bin/fixq_cli.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own process group, so a timeout can stop the servers it started
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    # bench.exe stops its servers; reap any stray member of its group
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
