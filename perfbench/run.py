#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig2_rcpstar --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary live under
.bench_build/ in the checkout, so the run reads and writes nothing
outside it.  Arguments are passed through to the program, whose last
line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command keeps its env file and telemetry counters
        # under the user config directory.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", BUILD] + sys.argv[1:]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
