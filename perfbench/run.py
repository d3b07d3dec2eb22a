#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. The build output, the Go
build cache and the traced run's spans stay under the build directory
(CARGO_TARGET_DIR if set, else .bench_build), so nothing is written outside
the checkout. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    tmp = os.path.join(build, "tmp")
    for d in (tmp, os.path.dirname(binary)):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    spans = os.path.join(build, "perfbench")
    return subprocess.run([binary, "--spans-dir", spans] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
