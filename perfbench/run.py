#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload routed_hit --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the traced runs' span logs live in
.bench_build/ at the repository root, so the benchmark reads and writes
nothing outside the checkout. The last line of standard output is the
run's JSON result; on any build or run failure the script exits nonzero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.pop("GOFLAGS", None)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GO111MODULE="on",
        CGO_ENABLED="0",
    )
    return env


def go_build(env, binary, flags):
    return subprocess.run(
        ["go", "build"] + flags + ["-o", binary, "."],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=BUILD_TIMEOUT_S,
    )


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = go_build(env, binary, [])
        if build.returncode != 0 and b"buildvcs" in build.stderr:
            # A checkout inside a repository git cannot read: build
            # without the VCS stamp (the run then reports commit
            # "unknown" and identifies the code by its source digest).
            build = go_build(env, binary, ["-buildvcs=false"])
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write(build.stderr.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
