#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload mix-small --seed 1 --seconds 30 --trace 0

The arguments pass through to the benchmark (see main.go). The Go build
cache, temporary files and the binary live in .bench_build at the
repository root, or in $CARGO_TARGET_DIR when that is set, so a run writes
nothing outside the checkout. The last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's; a failed build
exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(build, "gocache"),
            "GOPATH": os.path.join(build, "gopath"),
            "GOTMPDIR": tmp,
            "TMPDIR": tmp,
            # The Go toolchain keeps its env file and telemetry counters
            # under the user config directory.
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOFLAGS": "-buildvcs=false",
        }
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run the Go toolchain: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
