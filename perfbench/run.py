#!/usr/bin/env python3
"""Build the release `migctl` binary and the benchmark harness, then run one
workload and pass its report through.

    python3 perfbench/run.py --workload wire-16k --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); run directories and span dumps go to
`.bench_out`. Build output goes to stderr, so the last line of stdout is
the harness's JSON object. Exits non-zero, without a JSON object, when a
build fails; exits non-zero after the JSON object when a check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"run.py: {ROOT} holds no Cargo.toml: not a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "migctl"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: `{' '.join(cmd)}` failed with {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--migctl", os.path.join(release, "migctl"),
        "--work-dir", os.path.join(ROOT, ".bench_out"),
    ]
    # Its own process group, so the servers it starts go down with it
    # if it has to be stopped.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()

    signal.signal(signal.SIGTERM, lambda *_: (stop(), sys.exit(1)))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S}s")
    except KeyboardInterrupt:
        stop()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
