#!/usr/bin/env python3
"""Builds the benchmark and the attack daemon from source, then runs one
workload and passes its output through.

    python3 perfbench/run.py --workload attack-densenet64 --seed 1 --seconds 20 --trace 0

Run from the repository root. Build output goes to stderr; the last stdout
line is the benchmark's JSON result. Artifacts and the weight cache live in
$CARGO_TARGET_DIR (default .bench_build). Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must finish within this many seconds once built.
RUN_TIMEOUT_S = 170


def git_rev():
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    for extra in ([], ["-p", "oppsla-server", "--bin", "oppsla_serverd"]):
        done = subprocess.run(build + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    cmd = [
        os.path.join(target, "release", "oppsla-perfbench"),
        *sys.argv[1:],
        "--cache-dir", os.path.join(target, "perfbench-models"),
        "--git-rev", git_rev(),
    ]
    # Its own process group, so a daemon left behind by a crashed run is
    # stopped with it, as is the whole run when this script is terminated.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    code = 1
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
