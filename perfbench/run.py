#!/usr/bin/env python3
"""Build and run the PQS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (inside the checkout, shared build
cache off), times the workload's set-up in fresh processes, then runs the
measurement.  The last line of standard output is the JSON result.  Any
build or run failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_RUNS = 7
# each run must end within 180 s; keep a margin for the build check
RUN_TIMEOUT_S = 150


def run(cmd, timeout, **kw):
    """subprocess.run that kills and reaps the child on timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through run() so the child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("perfbench: run from the root of a source checkout")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    code, _ = run(
        dune + ["build", "--root", ".", "--cache=disabled",
                "./perfbench/main.exe"],
        timeout=1800,
        stdout=sys.stderr,
    )
    if code != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s = 0.0
    if args.trace == 0:
        times = []
        # each set-up ends with a different round of the workload, so the
        # median is not the cost of one database
        for i in range(SETUP_RUNS):
            spawned_at = str(time.monotonic_ns())
            code, out = run(
                [exe, "setup", "--round", str(i), "--spawned-at", spawned_at]
                + common,
                timeout=60,
                stdout=subprocess.PIPE,
                text=True,
            )
            if code != 0:
                sys.exit("perfbench: set-up failed")
            times.append(float(out.split()[-1]))
        setup_s = statistics.median(times)

    code, out = run(
        [exe, "run"] + common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-s", repr(setup_s)],
        timeout=RUN_TIMEOUT_S,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
