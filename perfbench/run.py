#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-steady --seed 20260807 --seconds 30 --trace 0

Workloads: fleet-steady, fleet-faults, paper-grid. The benchmark (a Go
module in this directory that builds the repository from source through a
replace directive) is compiled into .bench_build/ at the repository root,
with the Go build cache and every other file the toolchain writes kept
there too. All arguments are passed to the benchmark binary, whose last
output line is the JSON result. With --trace 1 the spans of the last
traced iteration are written to .bench_build/<workload>-spans.json.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def main():
    here = Path(__file__).resolve().parent
    root = here.parent
    build = root / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomodcache"),
        GOPATH=str(build / "gopath"),
        GOTMPDIR=str(build / "tmp"),
        XDG_CONFIG_HOME=str(build / "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
    )
    binary = build / "perfbench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        ran = subprocess.run([str(binary), *sys.argv[1:], "--spans", str(build)], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
