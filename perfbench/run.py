#!/usr/bin/env python3
"""Build and run the psiNKS solve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload matfree-lagged --seed 1 --seconds 25 --trace 0

The Go module in this directory is built into .bench_build/ (build and
module caches included, so nothing is written outside the checkout), then
run in place of this process with the given arguments. Its last line of
output is the result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", exe, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Replace this process, so a signal sent to it reaches the benchmark.
    os.execve(exe, [exe, "-root", ROOT] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
