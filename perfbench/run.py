#!/usr/bin/env python3
"""Build the benchmark and the ctflsrv node from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

Every build artifact, the Go build cache and the benchmark's scratch data
live under .bench_build/ in the repository root, so a run reads and writes
nothing outside the checkout. The last line of standard output is the
benchmark's JSON result; a failed build exits non-zero without one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    gocache = os.path.join(BUILD, "gocache")
    gotmp = os.path.join(BUILD, "gotmp")
    bindir = os.path.join(BUILD, "bin")
    for d in (gocache, gotmp, bindir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    # The go command also keeps state under the user's config directory
    # (telemetry counters) and GOPATH; point both into the build directory.
    env.update(
        GOCACHE=gocache,
        GOTMPDIR=gotmp,
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    bench = os.path.join(bindir, "perfbench")
    node = os.path.join(bindir, "ctflsrv")
    for args in (["-o", bench, "."], ["-o", node, "repro/cmd/ctflsrv"]):
        build = subprocess.run(["go", "build"] + args, cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    argv = [bench] + sys.argv[1:] + [
        "--node-bin", node,
        "--work-dir", os.path.join(BUILD, "work"),
    ]
    sys.stdout.flush()
    os.execve(bench, argv, env)


if __name__ == "__main__":
    sys.exit(main())
